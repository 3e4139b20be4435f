//! Deterministic synthetic benchmark generator.
//!
//! The paper evaluates on nine MCNC standard-cell circuits (`fract` …
//! `avq.large`) distributed through a long-gone FTP site \[15\]. Those files
//! are not available offline, so this module generates *MCNC-shaped*
//! circuits instead: the published cell/net/row counts are matched exactly,
//! net degrees follow the well-known MCNC distribution (predominantly 2–4
//! pin nets with a thin high-degree tail), and nets are drawn from a
//! locality model so that good placers produce substantially shorter wire
//! length than bad ones — the property all of the paper's comparisons rest
//! on. See `DESIGN.md` for the full substitution rationale.
//!
//! Circuits are also generated as DAGs (every net has exactly one driver
//! and edges only point "forward" through a level ordering), which gives
//! the timing experiments of Tables 3 and 4 well-defined longest paths.
//!
//! Everything is seeded: the same [`SynthConfig`] always yields the same
//! netlist, bit for bit.
//!
//! ```
//! use kraftwerk_netlist::synth::{SynthConfig, generate};
//! let nl = generate(&SynthConfig::with_size("tiny", 100, 130, 5));
//! assert_eq!(nl.num_movable(), 100);
//! assert_eq!(nl.num_nets(), 130);
//! ```

use crate::builder::NetlistBuilder;
use crate::ids::CellId;
use crate::model::{Netlist, PinDirection};
use kraftwerk_geom::{Point, Rect, Size};
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

/// Parameters of a synthetic circuit.
#[derive(Debug, Clone, PartialEq)]
pub struct SynthConfig {
    /// Design name.
    pub name: String,
    /// Number of movable standard cells.
    pub cells: usize,
    /// Number of cell-to-cell nets (pad nets come on top of this count
    /// only if `extra_pad_nets` is set; by default pad nets are counted
    /// within this total).
    pub nets: usize,
    /// Number of standard-cell rows.
    pub rows: usize,
    /// Number of I/O pads on the core boundary.
    pub pads: usize,
    /// Number of movable macro blocks (floorplanning designs).
    pub blocks: usize,
    /// RNG seed; every value yields a different but reproducible circuit.
    pub seed: u64,
    /// Standard-cell row height in layout units (microns).
    pub row_height: f64,
    /// Target core utilization (movable area / core area).
    pub utilization: f64,
    /// Cap on net degree (clock-like nets saturate here).
    pub max_net_degree: usize,
    /// Number of logic levels for the DAG structure.
    pub logic_depth: usize,
    /// Mean standard-cell width in layout units.
    pub avg_cell_width: f64,
    /// When set, net degrees are drawn from a Rent-style power-law
    /// distribution with this Rent exponent `p` instead of the empirical
    /// MCNC mixture: the tail follows `P(d) ∝ d^−(1+1/p)`, the scaling
    /// law observed in real partitioned logic. Used by the large
    /// [`scale`] tiers, where the MCNC mixture (fitted at ≤25k cells)
    /// under-represents mid-degree nets.
    pub rent_exponent: Option<f64>,
}

impl SynthConfig {
    /// A config with MCNC-style defaults for the given headline counts.
    #[must_use]
    pub fn with_size(name: impl Into<String>, cells: usize, nets: usize, rows: usize) -> Self {
        let pads = ((cells as f64).sqrt() * 3.0).round().clamp(12.0, 512.0) as usize;
        let logic_depth = (((cells as f64).log2() * 2.0).round() as usize).max(4);
        Self {
            name: name.into(),
            cells,
            nets,
            rows,
            pads,
            blocks: 0,
            seed: 0xC0FFEE,
            row_height: 16.0,
            utilization: 0.8,
            max_net_degree: 96,
            logic_depth,
            avg_cell_width: 8.0,
            rent_exponent: None,
        }
    }

    /// Overrides the seed, returning the modified config (builder-style).
    #[must_use]
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Adds movable macro blocks for mixed block/cell floorplanning
    /// experiments.
    #[must_use]
    pub fn blocks(mut self, blocks: usize) -> Self {
        self.blocks = blocks;
        self
    }

    /// Switches the degree distribution to a Rent-style power law with
    /// the given Rent exponent (typical logic: 0.55–0.75).
    #[must_use]
    pub fn rent(mut self, exponent: f64) -> Self {
        self.rent_exponent = Some(exponent);
        self
    }
}

/// Samples a net degree from an MCNC-shaped distribution, clipped to
/// `[2, max]`.
fn sample_degree(rng: &mut ChaCha8Rng, max: usize) -> usize {
    let u: f64 = rng.gen();
    let d = if u < 0.58 {
        2
    } else if u < 0.76 {
        3
    } else if u < 0.86 {
        4
    } else if u < 0.92 {
        5
    } else {
        // Geometric tail: 6, 7, 8, ... with ratio 0.72, rare big nets.
        let mut d = 6;
        while rng.gen::<f64>() < 0.72 && d < max {
            d += 1;
        }
        if rng.gen::<f64>() < 0.02 {
            d = rng.gen_range(d..=max.max(d));
        }
        d
    };
    d.clamp(2, max.max(2))
}

/// Samples a net degree from a Rent-style mixture, clipped to `[2, max]`:
/// short nets dominate as in any logic netlist, but the tail is a Pareto
/// power law `P(d) ∝ d^−(1+1/p)` for Rent exponent `p`, sampled by
/// inverse CDF as `d = 2·v^(−p)`. Larger `p` means heavier tails — the
/// scaling law connecting partition size to external connections that
/// the MCNC mixture (fitted at ≤25k cells) does not extrapolate.
fn sample_degree_rent(rng: &mut ChaCha8Rng, max: usize, rent: f64) -> usize {
    let u: f64 = rng.gen();
    let d = if u < 0.55 {
        2
    } else if u < 0.72 {
        3
    } else if u < 0.82 {
        4
    } else {
        let v: f64 = rng.gen::<f64>().max(1e-12);
        (2.0 * v.powf(-rent)) as usize
    };
    d.clamp(2, max.max(2))
}

/// Samples a locality window size (in cell-index space) for a net. Mostly
/// tight windows with occasional global nets — this is what makes
/// placement optimization worthwhile.
fn sample_window(rng: &mut ChaCha8Rng, n: usize, degree: usize) -> usize {
    let u: f64 = rng.gen();
    let w = if u < 0.70 {
        rng.gen_range(8..=48)
    } else if u < 0.92 {
        rng.gen_range(32..=(n / 12).max(64))
    } else {
        rng.gen_range((n / 8).max(64)..=(n / 2).max(96))
    };
    let lo = degree.saturating_mul(2).max(4).min(n.max(4));
    w.clamp(lo, n.max(4))
}

/// Generates a synthetic netlist from a config.
///
/// # Panics
///
/// Panics if `cells < 4` or `rows == 0` — configs below that size are not
/// meaningful circuits.
#[must_use]
pub fn generate(config: &SynthConfig) -> Netlist {
    assert!(config.cells >= 4, "need at least 4 cells");
    assert!(config.rows > 0, "need at least one row");
    let mut rng = ChaCha8Rng::seed_from_u64(config.seed ^ 0x9E37_79B9_7F4A_7C15);
    let mut b = NetlistBuilder::new();
    b.name(config.name.clone());

    // --- cell sizes -----------------------------------------------------
    let n = config.cells;
    let h = config.row_height;
    let widths: Vec<f64> = (0..n)
        .map(|_| {
            let f: f64 = rng.gen_range(0.4..2.2);
            (config.avg_cell_width * f).max(1.0)
        })
        .collect();
    let cell_area: f64 = widths.iter().map(|w| w * h).sum();

    // Blocks must be stackable within the die: at most half the core
    // height, and modest total area, or no legal floorplan exists.
    let max_block_height = (config.rows as f64 * h) * 0.45;
    let block_sizes: Vec<Size> = (0..config.blocks)
        .map(|_| {
            let area_factor: f64 = rng.gen_range(20.0..140.0);
            let area = config.avg_cell_width * h * area_factor;
            let aspect: f64 = rng.gen_range(0.5..2.0);
            let bw = (area * aspect).sqrt();
            let bh = (area / bw).min(max_block_height);
            Size::new(area / bh, bh)
        })
        .collect();
    let block_area: f64 = block_sizes.iter().map(|s| s.area()).sum();

    // --- core geometry ---------------------------------------------------
    let core_height = config.rows as f64 * h;
    let core_width = ((cell_area + block_area) / (config.utilization * core_height)).max(h * 2.0);
    let core = Rect::new(0.0, 0.0, core_width, core_height);
    b.core_region(core);
    b.rows(config.rows, h);

    // --- movable cells ----------------------------------------------------
    // Cell index order doubles as the locality key: indices map to notional
    // serpentine row positions, so index-local nets are spatially local in
    // an ideal placement.
    let cells: Vec<CellId> = (0..n)
        .map(|i| {
            let id = b.add_cell(format!("u{i}"), Size::new(widths[i], h));
            b.set_delay(id, rng.gen_range(0.05..0.45));
            b.set_power(id, rng.gen_range(0.1..2.0) * widths[i] / config.avg_cell_width);
            id
        })
        .collect();

    let block_ids: Vec<CellId> = block_sizes
        .iter()
        .enumerate()
        .map(|(i, &s)| {
            let id = b.add_block(format!("blk{i}"), s);
            b.set_delay(id, rng.gen_range(0.3..1.2));
            b.set_power(id, rng.gen_range(5.0..25.0));
            id
        })
        .collect();

    // Logic levels: the driver of a net is the pin with the smallest
    // (level, index) in the net, so edges always point forward -> DAG.
    let levels: Vec<u32> = (0..n + config.blocks)
        .map(|_| rng.gen_range(0..config.logic_depth as u32))
        .collect();
    let level_of = |id: CellId, pads_start: usize| -> u32 {
        if id.index() < pads_start {
            levels[id.index()]
        } else {
            0
        }
    };

    // --- pads on the periphery --------------------------------------------
    let pads_start = n + config.blocks;
    let pad_size = Size::new(h * 0.5, h * 0.5);
    let mut pad_ids = Vec::with_capacity(config.pads);
    for i in 0..config.pads {
        // Walk the boundary: fraction t in [0,1) mapped to the 4 edges.
        let t = i as f64 / config.pads as f64;
        let peri = 2.0 * (core_width + core_height);
        let d = t * peri;
        // Pad centers sit half a pad outside the core (an I/O ring), so
        // pads never eat standard-cell row capacity.
        let out = pad_size.width * 0.5;
        let at = if d < core_width {
            Point::new(d, -out)
        } else if d < core_width + core_height {
            Point::new(core_width + out, d - core_width)
        } else if d < 2.0 * core_width + core_height {
            Point::new(2.0 * core_width + core_height - d, core_height + out)
        } else {
            Point::new(-out, peri - d)
        };
        pad_ids.push(b.add_fixed_cell(format!("pad{i}"), pad_size, at));
    }

    // --- nets ---------------------------------------------------------------
    // Reserve one net per pad (I/O connectivity); the rest are cell nets.
    let pad_nets = config.pads.min(config.nets / 4);
    let cell_nets = config.nets - pad_nets;

    let all_movable: Vec<CellId> = cells.iter().chain(&block_ids).copied().collect();
    let m = all_movable.len();

    let mut net_no = 0usize;
    for _ in 0..cell_nets {
        let degree = match config.rent_exponent {
            Some(p) => sample_degree_rent(&mut rng, config.max_net_degree, p),
            None => sample_degree(&mut rng, config.max_net_degree),
        };
        let window = sample_window(&mut rng, m, degree);
        let start = rng.gen_range(0..m.saturating_sub(window).max(1));
        // Sample `degree` distinct members of the window.
        let mut members = Vec::with_capacity(degree);
        let mut guard = 0;
        while members.len() < degree && guard < degree * 30 {
            guard += 1;
            let idx = start + rng.gen_range(0..window.min(m - start));
            let id = all_movable[idx];
            if !members.contains(&id) {
                members.push(id);
            }
        }
        if members.len() < 2 {
            // Degenerate window; fall back to a random pair.
            members = all_movable
                .choose_multiple(&mut rng, 2)
                .copied()
                .collect();
        }
        // Driver: minimal (level, index).
        members.sort_by_key(|&id| (level_of(id, pads_start), id.index()));
        let pins = members
            .iter()
            .enumerate()
            .map(|(j, &id)| {
                let dir = if j == 0 {
                    PinDirection::Output
                } else {
                    PinDirection::Input
                };
                (id, dir)
            })
            .collect::<Vec<_>>();
        b.add_net(format!("n{net_no}"), pins);
        net_no += 1;
    }

    // Pad nets: a pad connects to 1-4 cells whose notional serpentine
    // position projects near the pad. Alternate input/output pads.
    for (i, &pad) in pad_ids.iter().enumerate().take(pad_nets) {
        let frac = i as f64 / config.pads.max(1) as f64;
        let anchor = ((frac * m as f64) as usize).min(m - 1);
        let fan = rng.gen_range(1..=4usize);
        let window = 64.min(m);
        let lo = anchor.saturating_sub(window / 2).min(m - window.min(m));
        let mut members = Vec::new();
        let mut guard = 0;
        while members.len() < fan && guard < fan * 30 {
            guard += 1;
            let idx = lo + rng.gen_range(0..window);
            let id = all_movable[idx.min(m - 1)];
            if !members.contains(&id) {
                members.push(id);
            }
        }
        if members.is_empty() {
            members.push(all_movable[anchor]);
        }
        let input_pad = i % 2 == 0;
        let mut pins = Vec::with_capacity(members.len() + 1);
        if input_pad {
            pins.push((pad, PinDirection::Output));
            pins.extend(members.iter().map(|&c| (c, PinDirection::Input)));
        } else {
            // Output pad net: same driver rule as cell nets — the member
            // with the minimal (level, index) drives, everything else
            // (including the pad) sinks, so all edges stay forward.
            members.sort_by_key(|&id| (level_of(id, pads_start), id.index()));
            let driver = members[0];
            pins.push((driver, PinDirection::Output));
            pins.push((pad, PinDirection::Input));
            pins.extend(members.iter().skip(1).map(|&c| (c, PinDirection::Input)));
        }
        b.add_net(format!("n{net_no}"), pins);
        net_no += 1;
    }

    // Guarantee connectivity: attach any cell the random net sampling
    // missed to an index-nearby net, and any pad beyond the pad-net
    // budget to a net near its boundary anchor (keeps net counts intact;
    // real circuits have no floating cells or pads). Added pins are
    // always sinks, so the DAG property is preserved.
    let nets_so_far = net_no;
    if nets_so_far > 0 {
        for (slot, &id) in all_movable.iter().enumerate() {
            if b.is_connected(id) {
                continue;
            }
            // Nets were generated windowed over index space; a net with a
            // nearby ordinal tends to involve nearby cells.
            let guess = (slot as f64 / m as f64 * nets_so_far as f64) as usize;
            let net = crate::NetId::from_index(
                (guess + rng.gen_range(0..8)).min(nets_so_far - 1),
            );
            b.add_pin_to_net(net, id, PinDirection::Input);
        }
        for (i, &pad) in pad_ids.iter().enumerate() {
            if b.is_connected(pad) {
                continue;
            }
            let frac = i as f64 / config.pads.max(1) as f64;
            let guess = ((frac * nets_so_far as f64) as usize).min(nets_so_far - 1);
            b.add_pin_to_net(crate::NetId::from_index(guess), pad, PinDirection::Input);
        }
    }

    b.build().expect("generator produces valid netlists")
}

/// Presets matching the nine circuits of the paper's Table 1, plus a
/// scaled variant for the 210k-cell fast-mode experiment.
///
/// Cell/net/row counts follow the published MCNC statistics (sources vary
/// by a few cells; the values here are the commonly cited ones).
pub mod mcnc {
    use super::{generate, Netlist, SynthConfig};

    /// One Table 1 circuit: name and headline statistics.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub struct Preset {
        /// Circuit name as used in the paper.
        pub name: &'static str,
        /// Movable cell count.
        pub cells: usize,
        /// Net count.
        pub nets: usize,
        /// Standard-cell row count.
        pub rows: usize,
    }

    /// All nine circuits of Table 1 in paper order.
    pub const TABLE1: [Preset; 9] = [
        Preset { name: "fract", cells: 125, nets: 147, rows: 6 },
        Preset { name: "primary1", cells: 833, nets: 902, rows: 16 },
        Preset { name: "struct", cells: 1952, nets: 1920, rows: 21 },
        Preset { name: "primary2", cells: 3014, nets: 3029, rows: 28 },
        Preset { name: "biomed", cells: 6417, nets: 5742, rows: 46 },
        Preset { name: "industry2", cells: 12142, nets: 13419, rows: 72 },
        Preset { name: "industry3", cells: 15059, nets: 21940, rows: 54 },
        Preset { name: "avq.small", cells: 21854, nets: 22124, rows: 80 },
        Preset { name: "avq.large", cells: 25114, nets: 25384, rows: 86 },
    ];

    /// The five circuits used in the timing experiments (Tables 3 and 4).
    pub const TIMING_CIRCUITS: [&str; 5] =
        ["fract", "struct", "biomed", "avq.small", "avq.large"];

    /// Generates the synthetic stand-in for a Table 1 circuit by name.
    ///
    /// # Panics
    ///
    /// Panics if `name` is not one of the Table 1 circuit names.
    #[must_use]
    pub fn by_name(name: &str) -> Netlist {
        let preset = TABLE1
            .iter()
            .find(|p| p.name == name)
            .unwrap_or_else(|| panic!("unknown MCNC circuit `{name}`"));
        generate(&config_for(*preset))
    }

    /// The generator config for a preset (exposed so experiments can tweak
    /// seeds or utilization).
    #[must_use]
    pub fn config_for(preset: Preset) -> SynthConfig {
        SynthConfig::with_size(preset.name, preset.cells, preset.nets, preset.rows)
            .seed(0x4DAC_1998 ^ preset.cells as u64)
    }

    /// The scaled circuit for the paper's "210000 cells within 10 minutes"
    /// fast-mode claim (section 6.1).
    #[must_use]
    pub fn giant() -> SynthConfig {
        SynthConfig::with_size("giant210k", 210_000, 230_000, 260).seed(0x21_0000)
    }
}

/// Scaling-curve tiers beyond the MCNC range: 10k → 1M cells.
///
/// These measure how wall clock grows with design size under the
/// multilevel + bound-to-bound flow (`kraftwerk place --multilevel`,
/// `kraftwerk bench` mode `multilevel-b2b`). Net counts keep the
/// MCNC-typical net/cell ratio of ~1.15, row counts make the core
/// roughly square, and degrees follow a Rent-style power-law tail
/// (`SynthConfig::rent`), which the MCNC mixture does not extrapolate
/// to these sizes.
pub mod scale {
    use super::{generate, Netlist, SynthConfig};

    /// One scaling tier: name and headline statistics.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub struct Tier {
        /// Tier name (`scale10k` … `scale1m`).
        pub name: &'static str,
        /// Movable cell count.
        pub cells: usize,
        /// Net count (≈1.15× cells, the MCNC-typical ratio).
        pub nets: usize,
        /// Standard-cell row count (roughly square core).
        pub rows: usize,
    }

    /// All tiers in ascending size. The 1M tier exists for headroom
    /// experiments; the recorded scaling curve uses 10k/50k/250k.
    pub const TIERS: [Tier; 4] = [
        Tier { name: "scale10k", cells: 10_000, nets: 11_500, rows: 90 },
        Tier { name: "scale50k", cells: 50_000, nets: 57_500, rows: 200 },
        Tier { name: "scale250k", cells: 250_000, nets: 287_500, rows: 448 },
        Tier { name: "scale1m", cells: 1_000_000, nets: 1_150_000, rows: 896 },
    ];

    /// Rent exponent for the tiers' degree distribution — mid-range for
    /// random logic.
    pub const RENT_EXPONENT: f64 = 0.65;

    /// The generator config for a tier (exposed so experiments can tweak
    /// seeds or utilization).
    #[must_use]
    pub fn config_for(tier: Tier) -> SynthConfig {
        SynthConfig::with_size(tier.name, tier.cells, tier.nets, tier.rows)
            .seed(0x5CA1_E000 ^ tier.cells as u64)
            .rent(RENT_EXPONENT)
    }

    /// Generates a scaling tier by name.
    ///
    /// # Panics
    ///
    /// Panics if `name` is not one of the tier names.
    #[must_use]
    pub fn by_name(name: &str) -> Netlist {
        let tier = TIERS
            .iter()
            .find(|t| t.name == name)
            .unwrap_or_else(|| panic!("unknown scale tier `{name}`"));
        generate(&config_for(*tier))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::hpwl;
    use crate::stats::NetlistStats;

    #[test]
    fn generator_matches_requested_counts() {
        let cfg = SynthConfig::with_size("t", 200, 260, 8);
        let nl = generate(&cfg);
        assert_eq!(nl.num_movable(), 200);
        assert_eq!(nl.num_nets(), 260);
        assert_eq!(nl.rows().len(), 8);
        assert_eq!(nl.num_cells(), 200 + cfg.pads);
    }

    #[test]
    fn generator_is_deterministic() {
        let cfg = SynthConfig::with_size("t", 150, 180, 6);
        let a = generate(&cfg);
        let b = generate(&cfg);
        assert_eq!(crate::format::write_netlist(&a), crate::format::write_netlist(&b));
    }

    #[test]
    fn different_seeds_differ() {
        let a = generate(&SynthConfig::with_size("t", 150, 180, 6).seed(1));
        let b = generate(&SynthConfig::with_size("t", 150, 180, 6).seed(2));
        assert_ne!(crate::format::write_netlist(&a), crate::format::write_netlist(&b));
    }

    #[test]
    fn degree_distribution_is_mcnc_shaped() {
        let nl = generate(&SynthConfig::with_size("t", 2000, 2400, 20));
        let stats = NetlistStats::collect(&nl);
        // Predominantly 2-pin nets, mean degree between 2 and 4.5.
        assert!(stats.degree_fraction(2) > 0.4, "2-pin fraction {}", stats.degree_fraction(2));
        assert!(stats.avg_net_degree > 2.0 && stats.avg_net_degree < 4.5);
        assert!(stats.max_net_degree <= 96);
    }

    #[test]
    fn every_net_has_exactly_one_driver() {
        let nl = generate(&SynthConfig::with_size("t", 300, 380, 8));
        for (id, net) in nl.nets() {
            let drivers = net
                .pins()
                .iter()
                .filter(|&&p| nl.pin(p).direction() == PinDirection::Output)
                .count();
            assert_eq!(drivers, 1, "net {id} has {drivers} drivers");
        }
    }

    #[test]
    fn utilization_is_near_target() {
        let nl = generate(&SynthConfig::with_size("t", 1000, 1200, 12));
        assert!((nl.utilization() - 0.8).abs() < 0.05, "utilization {}", nl.utilization());
    }

    #[test]
    fn pads_are_on_the_boundary() {
        let nl = generate(&SynthConfig::with_size("t", 200, 260, 8));
        let core = nl.core_region();
        for (_, cell) in nl.cells() {
            if let Some(p) = cell.fixed_position() {
                let half = cell.size().width * 0.5;
                let on_ring = (p.x - (core.x_lo - half)).abs() < 1e-9
                    || (p.x - (core.x_hi + half)).abs() < 1e-9
                    || (p.y - (core.y_lo - half)).abs() < 1e-9
                    || (p.y - (core.y_hi + half)).abs() < 1e-9;
                assert!(on_ring, "pad {} at {p} not on the I/O ring", cell.name());
            }
        }
    }

    #[test]
    fn locality_matters_ideal_vs_scrambled() {
        // Placing cells at their notional serpentine locations must yield
        // much shorter wire length than a scrambled arrangement; otherwise
        // the benchmark cannot discriminate placers.
        use rand::seq::SliceRandom;
        use rand::SeedableRng;
        let nl = generate(&SynthConfig::with_size("t", 1200, 1500, 12));
        let core = nl.core_region();
        let rows = nl.rows().len();
        let n = nl.num_movable();
        let per_row = n.div_ceil(rows);
        let mut ideal = nl.initial_placement();
        let movables: Vec<_> = nl.movable_cells().map(|(id, _)| id).collect();
        let notional = |slot: usize| {
            let r = slot / per_row;
            let c = slot % per_row;
            let frac = (c as f64 + 0.5) / per_row as f64;
            // serpentine: odd rows run right-to-left
            let x = if r.is_multiple_of(2) { frac } else { 1.0 - frac } * core.width();
            let y = (r as f64 + 0.5) / rows as f64 * core.height();
            kraftwerk_geom::Point::new(x, y)
        };
        for (slot, &id) in movables.iter().enumerate() {
            ideal.set_position(id, notional(slot));
        }
        let mut scrambled = ideal.clone();
        let mut slots: Vec<usize> = (0..movables.len()).collect();
        slots.shuffle(&mut rand_chacha::ChaCha8Rng::seed_from_u64(7));
        for (i, &id) in movables.iter().enumerate() {
            scrambled.set_position(id, notional(slots[i]));
        }
        let good = hpwl(&nl, &ideal);
        let bad = hpwl(&nl, &scrambled);
        assert!(
            bad > 2.0 * good,
            "scrambled {bad:.0} should be >> ideal {good:.0}"
        );
    }

    #[test]
    fn blocks_are_generated_when_requested() {
        let nl = generate(&SynthConfig::with_size("t", 300, 380, 8).blocks(5));
        let stats = NetlistStats::collect(&nl);
        assert_eq!(stats.blocks, 5);
        // Blocks are much larger than cells.
        let max_block = nl
            .cells()
            .filter(|(_, c)| c.kind() == crate::CellKind::Block)
            .map(|(_, c)| c.area())
            .fold(0.0, f64::max);
        assert!(max_block > 50.0 * nl.average_cell_area() / 2.0);
    }

    #[test]
    fn mcnc_presets_have_table1_counts() {
        let nl = mcnc::by_name("fract");
        assert_eq!(nl.num_movable(), 125);
        assert_eq!(nl.num_nets(), 147);
        assert_eq!(nl.rows().len(), 6);
        assert_eq!(mcnc::TABLE1.len(), 9);
        assert_eq!(mcnc::TABLE1[8].cells, 25114);
    }

    #[test]
    #[should_panic(expected = "unknown MCNC circuit")]
    fn unknown_preset_panics() {
        let _ = mcnc::by_name("does-not-exist");
    }

    #[test]
    fn scale_tiers_match_requested_counts() {
        let nl = scale::by_name("scale10k");
        assert_eq!(nl.num_movable(), 10_000);
        assert_eq!(nl.num_nets(), 11_500);
        assert_eq!(nl.rows().len(), 90);
        assert_eq!(scale::TIERS.len(), 4);
        assert_eq!(scale::TIERS[3].cells, 1_000_000);
    }

    #[test]
    fn rent_degree_distribution_has_a_power_law_tail() {
        let nl = generate(&scale::config_for(scale::TIERS[0]));
        let stats = NetlistStats::collect(&nl);
        // Still predominantly short nets with a sane mean…
        assert!(stats.degree_fraction(2) > 0.4, "2-pin fraction {}", stats.degree_fraction(2));
        assert!(
            stats.avg_net_degree > 2.2 && stats.avg_net_degree < 5.0,
            "mean degree {}",
            stats.avg_net_degree
        );
        // …and a tail that decays polynomially, not geometrically: for
        // P(d) ∝ d^−(1+1/p) with p = 0.65, quadrupling the threshold
        // divides the tail count by 4^(1/p) ≈ 8.4. A geometric tail with
        // the MCNC mixture's 0.72 ratio would shrink by 0.72^−24 ≈ 2700×.
        let tail = |d0: usize| {
            nl.nets().filter(|(_, net)| net.pins().len() >= d0).count()
        };
        assert!(tail(8) > 100, "tail(8) = {}", tail(8));
        assert!(tail(32) > 5, "tail(32) = {}", tail(32));
        assert!(
            tail(8) < 40 * tail(32),
            "tail decays geometrically: tail(8) {} vs tail(32) {}",
            tail(8),
            tail(32)
        );
    }

    #[test]
    fn scale_tiers_are_deterministic() {
        let a = generate(&scale::config_for(scale::TIERS[0]));
        let b = generate(&scale::config_for(scale::TIERS[0]));
        assert_eq!(crate::format::write_netlist(&a), crate::format::write_netlist(&b));
    }

    #[test]
    #[should_panic(expected = "unknown scale tier")]
    fn unknown_scale_tier_panics() {
        let _ = scale::by_name("scale9000");
    }
}
