//! Workloads and their seeded inputs. Inputs are generated here, on the
//! benchmark side, and handed to the program only as netlist text.

use kraftwerk_netlist::format::write_netlist;
use kraftwerk_netlist::synth::{generate, mcnc, scale, SynthConfig};

/// One benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// The five Table 1 circuits up to 6.5k cells, flat standard flow.
    McncFlat,
    /// The Rent-tail 50k-cell tier through the multilevel flow.
    Scale50k,
    /// An in-process daemon serving small fast-mode jobs.
    ServeSmall,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Self; 3] = [Self::McncFlat, Self::Scale50k, Self::ServeSmall];

    /// The workload's command-line and `BENCHMARK.json` name.
    pub fn name(self) -> &'static str {
        match self {
            Self::McncFlat => "mcnc-flat",
            Self::Scale50k => "scale50k",
            Self::ServeSmall => "serve-small",
        }
    }

    /// Parses a workload name.
    pub fn parse(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// One generated input: a name and the netlist text the program reads.
#[derive(Debug, Clone)]
pub struct Input {
    /// Circuit name.
    pub name: String,
    /// Netlist in the repository's text format.
    pub text: String,
}

impl Input {
    /// The same circuit with its cell and net lines shuffled by `labels`,
    /// so each value hands the program a different input (other cell and
    /// net numbering, other memory order) of one circuit. Size and
    /// difficulty stay fixed, so run-to-run spread measures the program
    /// rather than the draw of inputs. Labels 0 keep the generator's order.
    pub fn relabeled(&self, labels: u64) -> Self {
        if labels == 0 {
            return self.clone();
        }
        let (mut cells, mut nets, mut header) = (Vec::new(), Vec::new(), Vec::new());
        for line in self.text.lines() {
            match line.split_once(' ').map(|(kind, _)| kind) {
                Some("cell") => cells.push(line),
                Some("net") => nets.push(line),
                _ => header.push(line),
            }
        }
        let mut state = labels;
        shuffle(&mut cells, &mut state);
        shuffle(&mut nets, &mut state);
        let mut text = String::with_capacity(self.text.len());
        for line in header.iter().chain(&cells).chain(&nets) {
            text.push_str(line);
            text.push('\n');
        }
        Self {
            name: self.name.clone(),
            text,
        }
    }
}

/// The labels of pass `pass` of a run with `seed`: pass 0 uses the seed
/// itself, so seed 0 starts with the committed circuits, and every later
/// pass draws fresh labels.
pub fn labels(seed: u64, pass: usize) -> u64 {
    if pass == 0 {
        seed
    } else {
        splitmix64(seed ^ splitmix64(pass as u64))
    }
}

fn input(config: &SynthConfig) -> Input {
    Input {
        name: config.name.clone(),
        text: write_netlist(&generate(config)),
    }
}

/// Largest Table 1 circuit in `mcnc-flat` (biomed, 6417 cells).
const MCNC_MAX_CELLS: usize = 6500;

/// The `mcnc-flat` circuits: the committed Table 1 presets up to biomed.
pub fn mcnc_flat() -> Vec<Input> {
    mcnc::TABLE1
        .iter()
        .filter(|p| p.cells <= MCNC_MAX_CELLS)
        .map(|&p| input(&mcnc::config_for(p)))
        .collect()
}

/// The committed `scale50k` tier.
pub fn scale50k() -> Input {
    let tier = scale::TIERS
        .iter()
        .find(|t| t.name == "scale50k")
        .expect("scale50k is a committed tier");
    input(&scale::config_for(*tier))
}

/// Cell counts of the `serve-small` pool.
pub const POOL_CELLS: [usize; 8] = [300, 371, 443, 514, 586, 657, 729, 800];

/// The `serve-small` job pool: one netlist per [`POOL_CELLS`] entry, shaped
/// like the `loadgen` netlists. The pool is fixed and the seed orders the
/// jobs ([`job_order`]): a job on one netlist must return the same wire
/// length every time, and a fast-mode global wire length moves by up to
/// 8% under relabeling, which eight netlists under one labeling each
/// would not average out.
pub fn serve_pool() -> Vec<Input> {
    POOL_CELLS
        .iter()
        .enumerate()
        .map(|(i, &cells)| {
            let config = SynthConfig::with_size(
                format!("pool{i}"),
                cells,
                cells + cells / 4,
                (cells / 60).max(4),
            )
            .seed(splitmix64(i as u64));
            input(&config)
        })
        .collect()
}

/// The order in which jobs cycle through the pool: a seeded permutation,
/// so every pool netlist gets the same share of the jobs.
pub fn job_order(seed: u64) -> [usize; POOL_CELLS.len()] {
    let mut order: [usize; POOL_CELLS.len()] = std::array::from_fn(|i| i);
    let mut state = seed;
    shuffle(&mut order, &mut state);
    order
}

/// Seeded Fisher-Yates shuffle.
fn shuffle<T>(items: &mut [T], state: &mut u64) {
    for i in (1..items.len()).rev() {
        *state = splitmix64(*state);
        items.swap(i, (*state % (i as u64 + 1)) as usize);
    }
}

/// One SplitMix64 step: a fixed, well-mixed map of 64-bit states.
fn splitmix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seed_zero_reproduces_the_committed_circuits() {
        let inputs = mcnc_flat();
        let names: Vec<&str> = inputs.iter().map(|i| i.name.as_str()).collect();
        assert_eq!(names, ["fract", "primary1", "struct", "primary2", "biomed"]);
        for (input, preset) in inputs.iter().zip(mcnc::TABLE1) {
            let first_pass = input.relabeled(labels(0, 0));
            assert_eq!(
                first_pass.text,
                write_netlist(&generate(&mcnc::config_for(preset)))
            );
        }
    }

    #[test]
    fn labels_shuffle_lines_of_the_same_circuit() {
        let sorted = |text: &str| {
            let mut lines: Vec<&str> = text.lines().collect();
            lines.sort_unstable();
            lines.join("\n")
        };
        let pool = serve_pool();
        let (a, b) = (
            pool[3].relabeled(labels(3, 0)),
            pool[3].relabeled(labels(3, 1)),
        );
        assert_ne!(a.text, b.text);
        assert_eq!(sorted(&a.text), sorted(&b.text));
        assert_eq!(sorted(&a.text), sorted(&pool[3].text));
        let parsed = kraftwerk_netlist::format::read_netlist(&a.text).expect("parses");
        assert_eq!(parsed.num_movable(), POOL_CELLS[3]);
    }

    #[test]
    fn job_order_is_a_seeded_permutation() {
        let mut order = job_order(7);
        assert_eq!(order, job_order(7));
        order.sort_unstable();
        assert_eq!(order, [0, 1, 2, 3, 4, 5, 6, 7]);
    }
}
