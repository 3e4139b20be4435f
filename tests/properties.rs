//! Cross-crate property-based tests: invariants that must hold for *any*
//! circuit the generator can produce, not just the benchmark presets.

use kraftwerk::field::{density_map, largest_empty_square};
use kraftwerk::geom::Rect;
use kraftwerk::legalize::{check_legality, legalize};
use kraftwerk::netlist::format::{bookshelf, read_netlist, write_netlist};
use kraftwerk::netlist::synth::{generate, SynthConfig};
use kraftwerk::netlist::{metrics, NetlistBuilder, PinDirection};
use kraftwerk::placer::{NetModel, QuadraticSystem};
use kraftwerk::sparse::{try_solve_with, CgOptions, CgWorkspace, DiluFactor};
use kraftwerk::timing::{DelayModel, Sta};
use kraftwerk::trace::{bucket_bounds, bucket_index};
use proptest::prelude::*;
use rand::{Rng, SeedableRng};

/// Strategy: a generator config with varied shape.
fn synth_configs() -> impl Strategy<Value = SynthConfig> {
    (30usize..300, 2usize..10, 0u64..50, 0usize..3).prop_map(|(cells, rows, seed, blocks)| {
        let nets = cells + cells / 4 + 10;
        SynthConfig::with_size(format!("prop{seed}"), cells, nets, rows)
            .seed(seed)
            .blocks(blocks)
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn generated_netlists_are_structurally_sound(cfg in synth_configs()) {
        let nl = generate(&cfg);
        prop_assert_eq!(nl.num_movable(), cfg.cells + cfg.blocks);
        prop_assert_eq!(nl.num_nets(), cfg.nets);
        // Every net has exactly one driver and at least two pins.
        for (id, net) in nl.nets() {
            prop_assert!(net.degree() >= 2);
            let drivers = net
                .pins()
                .iter()
                .filter(|&&p| nl.pin(p).direction() == PinDirection::Output)
                .count();
            prop_assert_eq!(drivers, 1, "net {} has {} drivers", id, drivers);
        }
        // Every cell is connected.
        for (id, cell) in nl.cells() {
            prop_assert!(!cell.pins().is_empty(), "cell {} floating", id);
        }
    }

    #[test]
    fn generated_netlists_are_acyclic_with_positive_bound(cfg in synth_configs()) {
        let nl = generate(&cfg);
        let sta = Sta::new(&nl, DelayModel::default());
        prop_assert!(sta.is_ok(), "combinational loop in generated circuit");
        let bound = sta.unwrap().lower_bound();
        prop_assert!(bound > 0.0 && bound.is_finite());
    }

    #[test]
    fn density_map_always_integrates_to_zero(cfg in synth_configs(), seed in 0u64..100) {
        let nl = generate(&cfg);
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(seed);
        let core = nl.core_region();
        let mut p = nl.initial_placement();
        for (id, cell) in nl.cells() {
            if cell.is_movable() {
                p.set_position(id, kraftwerk::geom::Point::new(
                    rng.gen_range(core.x_lo..core.x_hi),
                    rng.gen_range(core.y_lo..core.y_hi),
                ));
            }
        }
        let d = density_map(&nl, &p, 16, 8);
        prop_assert!(d.integral().abs() < 1e-6);
        prop_assert!(d.values().iter().all(|v| v.is_finite()));
        // The empty-square area never exceeds the core area.
        let empty = largest_empty_square(&nl, &p, 64);
        prop_assert!(empty <= core.area() + 1e-9);
    }

    #[test]
    fn random_placements_legalize_when_rows_exist(cfg in synth_configs(), seed in 0u64..100) {
        let nl = generate(&cfg);
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(seed);
        let core = nl.core_region();
        let mut p = nl.initial_placement();
        for (id, cell) in nl.cells() {
            if cell.kind() == kraftwerk::netlist::CellKind::Standard {
                p.set_position(id, kraftwerk::geom::Point::new(
                    rng.gen_range(core.x_lo..core.x_hi),
                    rng.gen_range(core.y_lo..core.y_hi),
                ));
            }
        }
        // Blocks (if any) may overlap rows arbitrarily in this random
        // placement; the legalizer treats them as obstacles, so capacity
        // can be insufficient — only assert on block-free designs.
        if cfg.blocks == 0 {
            let legal = legalize(&nl, &p).expect("block-free circuits legalize");
            let report = check_legality(&nl, &legal, 1e-6);
            prop_assert!(report.is_legal(), "{:?}", report);
            prop_assert!(metrics::hpwl(&nl, &legal).is_finite());
        }
    }

    #[test]
    fn text_format_roundtrips_any_generated_netlist(cfg in synth_configs()) {
        let nl = generate(&cfg);
        let text = write_netlist(&nl);
        let back = read_netlist(&text).expect("own output parses");
        prop_assert_eq!(back.num_cells(), nl.num_cells());
        prop_assert_eq!(back.num_nets(), nl.num_nets());
        prop_assert_eq!(back.num_pins(), nl.num_pins());
        prop_assert_eq!(write_netlist(&back), text);
    }

    #[test]
    fn bookshelf_roundtrips_any_generated_netlist(cfg in synth_configs()) {
        let nl = generate(&cfg);
        let files = bookshelf::write(&nl, Some(&nl.initial_placement()));
        let (back, placement) = bookshelf::read(&files).expect("own output parses");
        prop_assert_eq!(back.num_cells(), nl.num_cells());
        prop_assert_eq!(back.num_nets(), nl.num_nets());
        let placement = placement.expect("placement present");
        let a = metrics::hpwl(&nl, &nl.initial_placement());
        let b = metrics::hpwl(&back, &placement);
        prop_assert!((a - b).abs() < 1e-3 * a.max(1.0), "hpwl {} vs {}", a, b);
    }

    #[test]
    fn quadratic_solutions_satisfy_their_equations(cfg in synth_configs()) {
        let nl = generate(&cfg);
        let sys = QuadraticSystem::new(&nl);
        let asm = sys.assemble(&nl, &nl.initial_placement(), None, NetModel::default(), None);
        let b: Vec<f64> = asm.dx.iter().map(|v| -v).collect();
        let mut ws = CgWorkspace::new();
        let stats = try_solve_with(
            &asm.cx,
            &b,
            None,
            &DiluFactor::from_matrix(&asm.cx),
            &CgOptions { max_iterations: 2000, ..CgOptions::default() },
            &mut ws,
        )
        .expect("an assembled system is finite");
        prop_assert!(stats.converged, "residual {}", stats.residual_norm);
        // Verify the residual independently.
        let mut ax = vec![0.0; b.len()];
        asm.cx.spmv(ws.solution(), &mut ax);
        let mut err = 0.0f64;
        let mut scale = 1e-12f64;
        for i in 0..b.len() {
            err += (ax[i] - b[i]).powi(2);
            scale += b[i].powi(2);
        }
        prop_assert!((err / scale).sqrt() < 1e-4);
    }

    #[test]
    fn sta_slacks_are_consistent(cfg in synth_configs()) {
        let nl = generate(&cfg);
        let sta = Sta::new(&nl, DelayModel::default()).expect("acyclic");
        let report = sta.analyze(&nl.initial_placement());
        prop_assert!(report.max_delay >= sta.lower_bound() - 1e-9);
        for &s in &report.net_slack {
            if s.is_finite() {
                prop_assert!(s >= -1e-9, "negative slack {}", s);
            }
        }
        // Timed nets on the critical path have (near-)zero slack; huge
        // nets are excluded from timing and carry infinite slack even
        // when the longest path runs through them.
        for &net in &report.critical_path {
            let s = report.net_slack[net.index()];
            prop_assert!(s < 1e-6 || s.is_infinite(), "slack {} on critical net", s);
        }
    }

    #[test]
    fn b2b_and_clique_gradients_match_hpwl_on_short_nets(
        k in 2usize..=3,
        px in 0usize..6,
        py in 0usize..6,
        j in (
            (0.0f64..8.0, 0.0f64..8.0, 0.0f64..8.0),
            (0.0f64..8.0, 0.0f64..8.0, 0.0f64..8.0),
        ),
    ) {
        let jx = [j.0 .0, j.0 .1, j.0 .2];
        let jy = [j.1 .0, j.1 .1, j.1 .2];
        // For degree-2 and degree-3 nets both net models linearize to the
        // exact HPWL gradient pattern at the reference placement: ∓w on
        // the per-axis extreme pins, 0 on an interior pin. B2B produces
        // the gradient at unit scale for every degree; the clique's scale
        // is 2(k−1)/k (each extreme sees k−1 linearized edges of weight
        // w/k), which is 1 at k = 2 and 4/3 at k = 3.
        const PERM3: [[usize; 3]; 6] =
            [[0, 1, 2], [0, 2, 1], [1, 0, 2], [1, 2, 0], [2, 0, 1], [2, 1, 0]];
        // Slot bases 30 units apart with <8 units of jitter keep the three
        // coordinates distinct per axis, so extreme pins are unambiguous.
        let xs_ref: Vec<f64> =
            (0..k).map(|i| 10.0 + 30.0 * PERM3[px][i] as f64 + jx[i]).collect();
        let ys_ref: Vec<f64> =
            (0..k).map(|i| 10.0 + 30.0 * PERM3[py][i] as f64 + jy[i]).collect();

        let mut bld = NetlistBuilder::new();
        bld.core_region(Rect::new(0.0, 0.0, 100.0, 100.0));
        let ids: Vec<_> = (0..k)
            .map(|i| bld.add_cell(format!("c{i}"), kraftwerk::geom::Size::new(1.0, 1.0)))
            .collect();
        bld.add_net(
            "n",
            ids.iter().enumerate().map(|(i, &id)| {
                (id, if i == 0 { PinDirection::Output } else { PinDirection::Input })
            }),
        );
        let nl = bld.build().expect("valid net");
        let mut p = nl.initial_placement();
        for (i, &id) in ids.iter().enumerate() {
            p.set_position(id, kraftwerk::geom::Point::new(xs_ref[i], ys_ref[i]));
        }

        let sys = QuadraticSystem::new(&nl);
        let (xs, ys) = sys.coords(&p);
        let force = |model: NetModel| {
            let asm = sys.assemble(&nl, &p, None, model, Some(1e-6));
            sys.spring_force(&asm, &xs, &ys)
        };
        let (bfx, bfy) = force(NetModel::B2B);
        let (cfx, cfy) = force(NetModel::Clique);

        // Force = −gradient: +1 on the min pin, −1 on the max pin.
        let expected = |coords: &[f64], i: usize| {
            let min = (0..k).min_by(|&a, &b| coords[a].total_cmp(&coords[b])).unwrap();
            let max = (0..k).max_by(|&a, &b| coords[a].total_cmp(&coords[b])).unwrap();
            if i == min { 1.0 } else if i == max { -1.0 } else { 0.0 }
        };
        let clique_scale = 2.0 * (k as f64 - 1.0) / k as f64;
        for (i, &id) in ids.iter().enumerate() {
            let m = sys.movable_index(id).unwrap();
            let (ex, ey) = (expected(&xs_ref, i), expected(&ys_ref, i));
            // 1e-3 absorbs the tiny center anchor every assembly adds.
            prop_assert!((bfx[m] - ex).abs() < 1e-3, "b2b fx[{}] = {} want {}", i, bfx[m], ex);
            prop_assert!((bfy[m] - ey).abs() < 1e-3, "b2b fy[{}] = {} want {}", i, bfy[m], ey);
            prop_assert!(
                (cfx[m] - clique_scale * ex).abs() < 1e-3,
                "clique fx[{}] = {} want {}", i, cfx[m], clique_scale * ex
            );
            prop_assert!(
                (cfy[m] - clique_scale * ey).abs() < 1e-3,
                "clique fy[{}] = {} want {}", i, cfy[m], clique_scale * ey
            );
        }
    }

    #[test]
    fn histogram_buckets_bracket_every_finite_positive_sample(
        bits in 0u64..0x7ff0_0000_0000_0000
    ) {
        // Every bit pattern below the exponent mask decodes to a finite,
        // non-negative f64 — zero, subnormal or normal — which is exactly
        // the sample range the telemetry histogram must bracket: the
        // bucket a value lands in has to cover the value.
        let v = f64::from_bits(bits);
        let idx = bucket_index(v);
        let (lo, hi) = bucket_bounds(idx as u8);
        prop_assert!(lo <= v && v < hi, "v={:e} bucket {} = [{:e}, {:e})", v, idx, lo, hi);
    }
}
