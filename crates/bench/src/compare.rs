//! Bench regression gate: diff a fresh run against a committed
//! `BENCH_place.json` baseline.
//!
//! The gate reruns every baseline circuit that (a) is one of the Table 1
//! presets — anything else cannot be regenerated deterministically — and
//! (b) fits under the caller's `--max-cells` budget, then compares:
//!
//! * **HPWL** — hard signal. Legalized wire length is bitwise
//!   deterministic for a given circuit/config at any thread count, so any
//!   drift beyond the tolerance is a real quality regression (or a real
//!   improvement worth re-baselining).
//! * **Legality** — hard signal. A rerun whose legalized placement fails
//!   the legality check fails the gate whatever its wire length.
//! * **Wall clock** — soft signal. Timing depends on the host, so the
//!   verdict reports it but [`CompareReport::passed`] ignores it; CI
//!   wrappers treat it as warn-only.
//!
//! The verdict serializes through [`CompareReport::to_json`] so scripts
//! (`scripts/bench_gate.sh`) can consume it without scraping the table.

use crate::{config_for_mode, run_kraftwerk, run_kraftwerk_multilevel, table1_circuits};
use kraftwerk_core::MultilevelConfig;
use kraftwerk_netlist::synth::{generate, mcnc, scale};
use kraftwerk_trace::json::{self, Json, JsonObject};

/// Tolerances and scope for one gate run.
#[derive(Debug, Clone, Copy)]
pub struct CompareConfig {
    /// Relative HPWL tolerance (`0.02` = 2%). Exceeding it fails the gate.
    pub hpwl_tolerance: f64,
    /// Relative wall-clock tolerance. Exceeding it is reported as a
    /// warning but never fails the gate.
    pub wall_tolerance: f64,
    /// Only rerun baseline circuits with at most this many cells.
    pub max_cells: usize,
}

impl Default for CompareConfig {
    fn default() -> Self {
        CompareConfig {
            hpwl_tolerance: 0.02,
            wall_tolerance: 0.25,
            max_cells: 2000,
        }
    }
}

/// One run parsed out of a `BENCH_place.json` baseline.
#[derive(Debug, Clone, PartialEq)]
pub struct BaselineRun {
    /// Circuit name.
    pub netlist: String,
    /// Mode label (one of [`crate::MODES`]).
    pub mode: String,
    /// Movable cell count recorded in the baseline.
    pub cells: usize,
    /// Baseline wall-clock seconds.
    pub wall_s: f64,
    /// Baseline legalized HPWL in meters.
    pub hpwl_m: f64,
}

/// One baseline-vs-current measurement pair.
#[derive(Debug, Clone, PartialEq)]
pub struct Delta {
    /// Circuit name.
    pub netlist: String,
    /// Config label.
    pub mode: String,
    /// Baseline HPWL (meters).
    pub baseline_hpwl_m: f64,
    /// Fresh HPWL (meters).
    pub current_hpwl_m: f64,
    /// Baseline wall-clock seconds.
    pub baseline_wall_s: f64,
    /// Fresh wall-clock seconds.
    pub current_wall_s: f64,
    /// `true` when the HPWL drift exceeds the hard tolerance.
    pub hpwl_regressed: bool,
    /// `true` when the wall-clock drift exceeds the soft tolerance.
    pub wall_regressed: bool,
    /// Whether the fresh legalized placement passed the legality check.
    pub legal: bool,
}

impl Delta {
    /// Relative HPWL drift (`+0.03` = 3% worse than baseline).
    #[must_use]
    pub fn hpwl_delta(&self) -> f64 {
        relative_delta(self.baseline_hpwl_m, self.current_hpwl_m)
    }

    /// Relative wall-clock drift.
    #[must_use]
    pub fn wall_delta(&self) -> f64 {
        relative_delta(self.baseline_wall_s, self.current_wall_s)
    }
}

/// The gate verdict: every rerun pair plus what was skipped and why.
#[derive(Debug, Clone, Default)]
pub struct CompareReport {
    /// One entry per rerun baseline circuit/mode pair.
    pub deltas: Vec<Delta>,
    /// Baseline runs not rerun, as `"<netlist>/<mode>: <reason>"`.
    pub skipped: Vec<String>,
    /// The hard HPWL tolerance the verdict was computed with.
    pub hpwl_tolerance: f64,
    /// The soft wall-clock tolerance the verdict was computed with.
    pub wall_tolerance: f64,
}

/// Relative drift of `current` against `baseline` (`+0.03` = 3% worse).
///
/// A zero or non-finite baseline (or a non-finite measurement) cannot
/// anchor a comparison, so the drift is NaN — and because `NaN > tol` is
/// `false` for every tolerance, callers must fail hard on a non-finite
/// drift instead of comparing it. The old formulation divided through and
/// let a corrupt baseline (NaN fields, zeroed HPWL) sail past the gate as
/// a silent pass.
fn relative_delta(baseline: f64, current: f64) -> f64 {
    if !baseline.is_finite() || baseline.abs() < f64::EPSILON || !current.is_finite() {
        return f64::NAN;
    }
    (current - baseline) / baseline
}

impl CompareReport {
    /// `true` when no rerun exceeded the hard HPWL tolerance and every
    /// rerun placement is legal. Wall-clock drift never fails the gate.
    #[must_use]
    pub fn passed(&self) -> bool {
        !self.deltas.iter().any(|d| d.hpwl_regressed || !d.legal)
    }

    /// Number of soft wall-clock warnings.
    #[must_use]
    pub fn wall_warnings(&self) -> usize {
        self.deltas.iter().filter(|d| d.wall_regressed).count()
    }

    /// Human-readable warning strings for every soft (non-fatal)
    /// finding: one per wall-clock drift beyond the soft tolerance, one
    /// per skipped baseline run. Serialized as the verdict's `warnings`
    /// array so CI can surface them without re-deriving the phrasing.
    #[must_use]
    pub fn warnings(&self) -> Vec<String> {
        let mut out: Vec<String> = self
            .deltas
            .iter()
            .filter(|d| d.wall_regressed)
            .map(|d| {
                format!(
                    "{}/{}: wall clock {:+.1}% vs baseline (soft tolerance {:.0}%)",
                    d.netlist,
                    d.mode,
                    d.wall_delta() * 100.0,
                    self.wall_tolerance * 100.0
                )
            })
            .collect();
        out.extend(self.skipped.iter().map(|s| format!("skipped {s}")));
        out
    }

    /// Machine-readable verdict consumed by `scripts/bench_gate.sh`.
    #[must_use]
    pub fn to_json(&self) -> String {
        let mut o = JsonObject::new();
        o.str_field("verdict", if self.passed() { "pass" } else { "fail" });
        o.f64_field("hpwl_tolerance", self.hpwl_tolerance);
        o.f64_field("wall_tolerance", self.wall_tolerance);
        o.u64_field(
            "hpwl_failures",
            self.deltas.iter().filter(|d| d.hpwl_regressed).count() as u64,
        );
        o.u64_field(
            "legality_failures",
            self.deltas.iter().filter(|d| !d.legal).count() as u64,
        );
        o.u64_field("wall_warnings", self.wall_warnings() as u64);
        let mut warnings = String::from("[");
        for (i, w) in self.warnings().iter().enumerate() {
            if i > 0 {
                warnings.push(',');
            }
            json::write_escaped(&mut warnings, w);
        }
        warnings.push(']');
        o.raw_field("warnings", &warnings);
        let mut items = String::from("[");
        for (i, d) in self.deltas.iter().enumerate() {
            if i > 0 {
                items.push(',');
            }
            let mut e = JsonObject::new();
            e.str_field("netlist", &d.netlist);
            e.str_field("mode", &d.mode);
            e.f64_field("baseline_hpwl_m", d.baseline_hpwl_m);
            e.f64_field("current_hpwl_m", d.current_hpwl_m);
            e.f64_field("hpwl_delta", d.hpwl_delta());
            e.f64_field("baseline_wall_s", d.baseline_wall_s);
            e.f64_field("current_wall_s", d.current_wall_s);
            e.f64_field("wall_delta", d.wall_delta());
            e.bool_field("hpwl_regressed", d.hpwl_regressed);
            e.bool_field("wall_regressed", d.wall_regressed);
            e.bool_field("legal", d.legal);
            items.push_str(&e.finish());
        }
        items.push(']');
        o.raw_field("deltas", &items);
        let mut skipped = String::from("[");
        for (i, s) in self.skipped.iter().enumerate() {
            if i > 0 {
                skipped.push(',');
            }
            // `write_escaped` emits the quotes itself; wrapping it in
            // another pair used to make any non-empty skip list invalid
            // JSON.
            json::write_escaped(&mut skipped, s);
        }
        skipped.push(']');
        o.raw_field("skipped", &skipped);
        o.finish()
    }

    /// Human-readable table, one line per delta plus the skip list.
    #[must_use]
    pub fn summary_table(&self) -> String {
        let mut out = String::from(
            "circuit      mode      hpwl Δ      wall Δ      status\n",
        );
        for d in &self.deltas {
            let status = if !d.hpwl_delta().is_finite() {
                "FAIL (corrupt baseline)"
            } else if !d.legal {
                "FAIL (illegal)"
            } else if d.hpwl_regressed {
                "FAIL (hpwl)"
            } else if d.wall_regressed {
                "warn (wall)"
            } else {
                "ok"
            };
            out.push_str(&format!(
                "{:<12} {:<9} {:>+9.4}% {:>+10.1}% {:>11}\n",
                d.netlist,
                d.mode,
                d.hpwl_delta() * 100.0,
                d.wall_delta() * 100.0,
                status
            ));
        }
        for s in &self.skipped {
            out.push_str(&format!("skipped: {s}\n"));
        }
        out
    }
}

fn field_f64(run: &Json, key: &str) -> Result<f64, String> {
    run.get(key)
        .and_then(Json::as_f64)
        .ok_or_else(|| format!("baseline run missing numeric `{key}`"))
}

fn field_str(run: &Json, key: &str) -> Result<String, String> {
    run.get(key)
        .and_then(Json::as_str)
        .map(str::to_owned)
        .ok_or_else(|| format!("baseline run missing string `{key}`"))
}

/// Parses a `BENCH_place.json` document into its runs.
///
/// # Errors
///
/// Returns a description of the first structural problem: not JSON, no
/// `runs` array, or a run missing one of the compared fields.
pub fn parse_baseline(text: &str) -> Result<Vec<BaselineRun>, String> {
    let doc = json::parse(text).map_err(|e| format!("baseline is not valid JSON: {e}"))?;
    let runs = doc
        .get("runs")
        .and_then(Json::as_array)
        .ok_or_else(|| "baseline has no `runs` array".to_string())?;
    let mut out = Vec::with_capacity(runs.len());
    for run in runs {
        out.push(BaselineRun {
            netlist: field_str(run, "netlist")?,
            mode: field_str(run, "mode")?,
            cells: field_f64(run, "cells")? as usize,
            wall_s: field_f64(run, "wall_s")?,
            hpwl_m: field_f64(run, "hpwl_m")?,
        });
    }
    Ok(out)
}

/// Reruns the comparable subset of `baseline` and diffs it.
///
/// Rows whose mode has no config (see [`config_for_mode`]) are skipped,
/// as are circuits that are not Table 1 presets or scale tiers (never
/// panics on an unknown name) and circuits above `config.max_cells`.
#[must_use]
pub fn run_compare(baseline: &[BaselineRun], config: &CompareConfig) -> CompareReport {
    let eligible = table1_circuits(config.max_cells);
    let mut report = CompareReport {
        hpwl_tolerance: config.hpwl_tolerance,
        wall_tolerance: config.wall_tolerance,
        ..CompareReport::default()
    };
    // Regenerate each circuit once even when several modes reference it.
    let mut cache: Vec<(String, kraftwerk_netlist::Netlist)> = Vec::new();
    for run in baseline {
        let tag = format!("{}/{}", run.netlist, run.mode);
        let Some(kw_config) = config_for_mode(&run.mode) else {
            report
                .skipped
                .push(format!("{tag}: mode `{}` is not reproducible", run.mode));
            continue;
        };
        // Scale-tier rows run the multilevel + bound-to-bound flow with
        // the same config `kraftwerk bench --json` measures them with, so
        // their HPWL is reproducible and the gate enforces it like any
        // Table 1 row.
        if run.mode.starts_with("multilevel-") {
            let Some(tier) = scale::TIERS.iter().find(|t| t.name == run.netlist) else {
                report.skipped.push(format!("{tag}: not a scale tier"));
                continue;
            };
            if tier.cells > config.max_cells {
                report
                    .skipped
                    .push(format!("{tag}: above --max-cells {}", config.max_cells));
                continue;
            }
            if !cache.iter().any(|(name, _)| name == run.netlist.as_str()) {
                cache.push((run.netlist.clone(), generate(&scale::config_for(*tier))));
            }
            let Some((_, netlist)) = cache.iter().find(|(name, _)| name == run.netlist.as_str())
            else {
                continue;
            };
            let fresh = run_kraftwerk_multilevel(netlist, kw_config, &MultilevelConfig::default());
            push_delta(&mut report, run, &fresh, config);
            continue;
        }
        if !mcnc::TABLE1.iter().any(|p| p.name == run.netlist) {
            report.skipped.push(format!("{tag}: not a Table 1 circuit"));
            continue;
        }
        let Some(preset) = eligible.iter().find(|p| p.name == run.netlist) else {
            report
                .skipped
                .push(format!("{tag}: above --max-cells {}", config.max_cells));
            continue;
        };
        if !cache.iter().any(|(name, _)| name == run.netlist.as_str()) {
            cache.push((run.netlist.clone(), generate(&mcnc::config_for(*preset))));
        }
        let Some((_, netlist)) = cache.iter().find(|(name, _)| name == run.netlist.as_str())
        else {
            continue;
        };
        let fresh = run_kraftwerk(netlist, kw_config);
        push_delta(&mut report, run, &fresh, config);
    }
    report
}

/// Diffs one fresh measurement against its baseline row.
fn push_delta(
    report: &mut CompareReport,
    run: &BaselineRun,
    fresh: &crate::FlowResult,
    config: &CompareConfig,
) {
    let hpwl_delta = relative_delta(run.hpwl_m, fresh.wirelength_m);
    let wall_delta = relative_delta(run.wall_s, fresh.seconds);
    report.deltas.push(Delta {
        netlist: run.netlist.clone(),
        mode: run.mode.clone(),
        baseline_hpwl_m: run.hpwl_m,
        current_hpwl_m: fresh.wirelength_m,
        baseline_wall_s: run.wall_s,
        current_wall_s: fresh.seconds,
        // Only *worse* wire length fails: improvements are flagged in
        // the table (large negative delta) but should prompt a
        // re-baseline, not a red build. A non-finite drift means the
        // baseline itself is corrupt — that is a hard failure, never
        // a silent pass.
        hpwl_regressed: !hpwl_delta.is_finite() || hpwl_delta > config.hpwl_tolerance,
        wall_regressed: !wall_delta.is_finite() || wall_delta > config.wall_tolerance,
        legal: fresh.legal,
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{bench_json, run_kraftwerk_recorded, FlowResult, MODES};
    use kraftwerk_core::KraftwerkConfig;

    #[test]
    fn baseline_round_trips_through_bench_json() {
        let netlist = mcnc::by_name("fract");
        let (_, run) = run_kraftwerk_recorded(&netlist, KraftwerkConfig::fast(), "fast");
        let parsed = parse_baseline(&bench_json(std::slice::from_ref(&run)))
            .expect("bench_json parses as a baseline");
        assert_eq!(parsed.len(), 1);
        assert_eq!(parsed[0].netlist, "fract");
        assert_eq!(parsed[0].mode, "fast");
        assert!(parsed[0].hpwl_m > 0.0);
    }

    #[test]
    fn identical_baseline_passes_and_injected_regression_fails() {
        let netlist = mcnc::by_name("fract");
        let fresh = run_kraftwerk(&netlist, KraftwerkConfig::fast());
        let mut baseline = vec![BaselineRun {
            netlist: "fract".to_string(),
            mode: "fast".to_string(),
            cells: 125,
            wall_s: fresh.seconds,
            hpwl_m: fresh.wirelength_m,
        }];
        let config = CompareConfig::default();
        let report = run_compare(&baseline, &config);
        assert_eq!(report.deltas.len(), 1);
        assert!(
            report.passed(),
            "identical baseline must pass: {}",
            report.summary_table()
        );
        // HPWL is deterministic, so the delta is exactly zero.
        assert_eq!(report.deltas[0].hpwl_delta(), 0.0);

        // Injected regression: pretend the baseline was 3% better than
        // what the placer produces today.
        baseline[0].hpwl_m = fresh.wirelength_m / 1.03;
        let report = run_compare(&baseline, &config);
        assert!(!report.passed(), "3% drift must trip the 2% gate");
        let verdict = kraftwerk_trace::json::parse(&report.to_json()).expect("verdict JSON");
        assert_eq!(
            verdict
                .get("verdict")
                .and_then(kraftwerk_trace::json::Json::as_str),
            Some("fail")
        );
        assert_eq!(
            verdict
                .get("hpwl_failures")
                .and_then(kraftwerk_trace::json::Json::as_f64),
            Some(1.0)
        );
    }

    #[test]
    fn corrupt_baselines_fail_hard_instead_of_sliding_past_the_gate() {
        // Before the fix, a NaN baseline made the drift NaN and
        // `NaN > tolerance` is false, so the run counted as a pass; a
        // zeroed baseline behaved the same through the zero-guard. Both
        // must now be hard failures with an explicit verdict.
        let config = CompareConfig::default();
        for corrupt_hpwl in [f64::NAN, 0.0, f64::INFINITY] {
            let baseline = vec![BaselineRun {
                netlist: "fract".to_string(),
                mode: "fast".to_string(),
                cells: 125,
                wall_s: 0.1,
                hpwl_m: corrupt_hpwl,
            }];
            let report = run_compare(&baseline, &config);
            assert_eq!(report.deltas.len(), 1);
            assert!(
                !report.passed(),
                "corrupt baseline hpwl={corrupt_hpwl} must fail the gate:\n{}",
                report.summary_table()
            );
            assert!(
                report.summary_table().contains("FAIL (corrupt baseline)"),
                "verdict must name the corrupt baseline:\n{}",
                report.summary_table()
            );
            // The verdict JSON stays machine-parseable (NaN → null).
            let verdict =
                kraftwerk_trace::json::parse(&report.to_json()).expect("verdict JSON parses");
            assert_eq!(
                verdict
                    .get("verdict")
                    .and_then(kraftwerk_trace::json::Json::as_str),
                Some("fail")
            );
        }
    }

    #[test]
    fn verdict_warnings_array_names_wall_drift_and_skips() {
        let report = CompareReport {
            deltas: vec![Delta {
                netlist: "fract".to_string(),
                mode: "fast".to_string(),
                baseline_hpwl_m: 1.0,
                current_hpwl_m: 1.0,
                baseline_wall_s: 1.0,
                current_wall_s: 1.5,
                hpwl_regressed: false,
                wall_regressed: true,
                legal: true,
            }],
            skipped: vec!["weird/\"mode\": not a Table 1 circuit".to_string()],
            hpwl_tolerance: 0.02,
            wall_tolerance: 0.25,
        };
        let warnings = report.warnings();
        assert_eq!(warnings.len(), 2);
        assert!(warnings[0].contains("fract/fast"));
        assert!(warnings[0].contains("+50.0%"));
        assert!(warnings[1].starts_with("skipped "));
        // The verdict JSON stays parseable with a non-empty skip list
        // (double-quoted skip entries used to corrupt the document) and
        // round-trips the warnings array for CI.
        let verdict =
            kraftwerk_trace::json::parse(&report.to_json()).expect("verdict JSON parses");
        let parsed = verdict
            .get("warnings")
            .and_then(kraftwerk_trace::json::Json::as_array)
            .expect("warnings array");
        assert_eq!(parsed.len(), 2);
        assert_eq!(
            parsed[0].as_str().map(|w| w.contains("wall clock")),
            Some(true)
        );
        assert_eq!(
            verdict
                .get("wall_warnings")
                .and_then(kraftwerk_trace::json::Json::as_f64),
            Some(1.0)
        );
    }

    #[test]
    fn relative_delta_flags_unusable_baselines_as_nan() {
        assert!((relative_delta(2.0, 2.1) - 0.05).abs() < 1e-12);
        assert!(relative_delta(0.0, 1.0).is_nan());
        assert!(relative_delta(0.0, 0.0).is_nan());
        assert!(relative_delta(f64::NAN, 1.0).is_nan());
        assert!(relative_delta(f64::INFINITY, 1.0).is_nan());
        assert!(relative_delta(1.0, f64::NAN).is_nan());
    }

    #[test]
    fn every_bench_mode_is_reproducible_by_the_gate() {
        for mode in MODES {
            assert!(config_for_mode(mode).is_some(), "{mode} has no config");
        }
        assert_eq!(config_for_mode("standard"), Some(KraftwerkConfig::standard()));
        assert_eq!(config_for_mode("multilevel-b2b"), Some(KraftwerkConfig::fast()));
        // Labels of retired modes are skipped by the gate, not rerun.
        assert_eq!(config_for_mode("spectral"), None);
    }

    #[test]
    fn an_illegal_rerun_fails_the_gate_even_within_the_hpwl_tolerance() {
        let netlist = mcnc::by_name("fract");
        let baseline = BaselineRun {
            netlist: "fract".to_string(),
            mode: "fast".to_string(),
            cells: 125,
            wall_s: 1.0,
            hpwl_m: 1.0,
        };
        let fresh = |legal| FlowResult {
            placement: netlist.initial_placement(),
            wirelength_m: 1.0,
            seconds: 1.0,
            legal,
        };
        let mut report = CompareReport::default();
        push_delta(&mut report, &baseline, &fresh(true), &CompareConfig::default());
        assert!(report.passed());
        push_delta(&mut report, &baseline, &fresh(false), &CompareConfig::default());
        assert!(!report.passed(), "an illegal placement must fail the gate");
        assert!(!report.deltas[1].hpwl_regressed, "the wire length itself is unchanged");
        assert!(report.summary_table().contains("FAIL (illegal)"));
        let verdict = kraftwerk_trace::json::parse(&report.to_json()).expect("verdict JSON");
        assert_eq!(
            verdict.get("verdict").and_then(kraftwerk_trace::json::Json::as_str),
            Some("fail")
        );
        assert_eq!(
            verdict
                .get("legality_failures")
                .and_then(kraftwerk_trace::json::Json::as_f64),
            Some(1.0)
        );
    }

    #[test]
    fn unknown_circuits_and_oversized_circuits_are_skipped_not_fatal() {
        let baseline = vec![
            BaselineRun {
                netlist: "not_a_circuit".to_string(),
                mode: "standard".to_string(),
                cells: 10,
                wall_s: 1.0,
                hpwl_m: 1.0,
            },
            BaselineRun {
                netlist: "avq.large".to_string(),
                mode: "standard".to_string(),
                cells: 25_114,
                wall_s: 100.0,
                hpwl_m: 2.7,
            },
            BaselineRun {
                netlist: "fract".to_string(),
                mode: "mystery".to_string(),
                cells: 125,
                wall_s: 1.0,
                hpwl_m: 1.0,
            },
        ];
        let report = run_compare(&baseline, &CompareConfig::default());
        assert!(report.deltas.is_empty());
        assert_eq!(report.skipped.len(), 3);
        assert!(report.passed(), "skips alone never fail the gate");
    }

    #[test]
    fn multilevel_b2b_rows_gate_on_scale_tiers_only() {
        // A multilevel-b2b row must name a scale tier, and tiers above
        // --max-cells are skipped, not rerun (the big tiers would take
        // minutes in a unit test).
        let baseline = vec![
            BaselineRun {
                netlist: "fract".to_string(),
                mode: "multilevel-b2b".to_string(),
                cells: 125,
                wall_s: 1.0,
                hpwl_m: 1.0,
            },
            BaselineRun {
                netlist: "scale10k".to_string(),
                mode: "multilevel-b2b".to_string(),
                cells: 10_000,
                wall_s: 10.0,
                hpwl_m: 5.0,
            },
        ];
        let report = run_compare(&baseline, &CompareConfig::default());
        assert!(report.deltas.is_empty());
        assert_eq!(report.skipped.len(), 2);
        assert!(report.skipped[0].contains("not a scale tier"));
        assert!(report.skipped[1].contains("above --max-cells"));
        assert!(report.passed());
    }

    #[test]
    fn unknown_multilevel_modes_are_skipped_not_fatal() {
        // An unknown multilevel label is skipped, not fatal, and never
        // falls through to the Table 1 branch.
        let baseline = vec![BaselineRun {
            netlist: "scale10k".to_string(),
            mode: "multilevel-annealed".to_string(),
            cells: 10_000,
            wall_s: 1.0,
            hpwl_m: 1.0,
        }];
        let report = run_compare(&baseline, &CompareConfig::default());
        assert!(report.deltas.is_empty());
        assert_eq!(report.skipped.len(), 1);
        assert!(report.skipped[0].contains("not reproducible"));
        assert!(report.passed());
    }

    #[test]
    fn malformed_baselines_are_reported_not_panicked() {
        assert!(parse_baseline("not json").is_err());
        assert!(parse_baseline("{\"bench\":\"place\"}").is_err());
        assert!(parse_baseline("{\"runs\":[{\"netlist\":\"fract\"}]}").is_err());
    }
}
