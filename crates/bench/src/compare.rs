//! Bench regression gate: diff a fresh run against a committed
//! `BENCH_place.json` baseline.
//!
//! The gate reruns every baseline circuit that (a) is one of the Table 1
//! presets or scale tiers — anything else cannot be regenerated
//! deterministically — and (b) fits under the caller's `--max-cells`
//! budget, then compares:
//!
//! * **HPWL** — legalized wire length is bitwise deterministic for a
//!   given circuit/config at any thread count, so any drift beyond
//!   [`HPWL_TOLERANCE`] is a real quality regression (or a real
//!   improvement worth re-baselining).
//! * **Legality** — a rerun whose legalized placement fails the
//!   legality check fails the gate whatever its wire length.
//!
//! Wall time is not compared: it depends on the host, and speed is
//! measured by the repeated same-host runs of `perfbench` (see
//! `BENCHMARK.json`).
//!
//! The verdict serializes through [`CompareReport::to_json`] so scripts
//! (`scripts/bench_gate.sh`) can consume it without scraping the table.

use crate::{config_for_mode, run_kraftwerk, run_kraftwerk_multilevel, table1_circuits};
use kraftwerk_core::MultilevelConfig;
use kraftwerk_netlist::synth::{generate, mcnc, scale};
use kraftwerk_trace::json::{self, Json, JsonObject};

/// Relative HPWL drift (`0.02` = 2% worse than baseline) beyond which a
/// rerun fails the gate.
pub const HPWL_TOLERANCE: f64 = 0.02;

/// One run parsed out of a `BENCH_place.json` baseline.
#[derive(Debug, Clone, PartialEq)]
pub struct BaselineRun {
    /// Circuit name.
    pub netlist: String,
    /// Mode label (one of [`crate::MODES`]).
    pub mode: String,
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
    /// `true` when the HPWL drift exceeds [`HPWL_TOLERANCE`].
    pub hpwl_regressed: bool,
    /// Whether the fresh legalized placement passed the legality check.
    pub legal: bool,
}

impl Delta {
    /// Relative HPWL drift (`+0.03` = 3% worse than baseline).
    #[must_use]
    pub fn hpwl_delta(&self) -> f64 {
        relative_delta(self.baseline_hpwl_m, self.current_hpwl_m)
    }
}

/// The gate verdict: every rerun pair plus what was skipped and why.
#[derive(Debug, Clone, Default)]
pub struct CompareReport {
    /// One entry per rerun baseline circuit/mode pair.
    pub deltas: Vec<Delta>,
    /// Baseline runs not rerun, as `"<netlist>/<mode>: <reason>"`.
    pub skipped: Vec<String>,
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
    /// `true` when no rerun exceeded [`HPWL_TOLERANCE`] and every rerun
    /// placement is legal.
    #[must_use]
    pub fn passed(&self) -> bool {
        !self.deltas.iter().any(|d| d.hpwl_regressed || !d.legal)
    }

    /// Machine-readable verdict consumed by `scripts/bench_gate.sh`.
    #[must_use]
    pub fn to_json(&self) -> String {
        let mut o = JsonObject::new();
        o.str_field("verdict", if self.passed() { "pass" } else { "fail" });
        o.f64_field("hpwl_tolerance", HPWL_TOLERANCE);
        o.u64_field(
            "hpwl_failures",
            self.deltas.iter().filter(|d| d.hpwl_regressed).count() as u64,
        );
        o.u64_field(
            "legality_failures",
            self.deltas.iter().filter(|d| !d.legal).count() as u64,
        );
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
            e.bool_field("hpwl_regressed", d.hpwl_regressed);
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
        let mut out = String::from("circuit      mode      hpwl Δ      status\n");
        for d in &self.deltas {
            let status = if !d.hpwl_delta().is_finite() {
                "FAIL (corrupt baseline)"
            } else if !d.legal {
                "FAIL (illegal)"
            } else if d.hpwl_regressed {
                "FAIL (hpwl)"
            } else {
                "ok"
            };
            out.push_str(&format!(
                "{:<12} {:<9} {:>+9.4}% {:>11}\n",
                d.netlist,
                d.mode,
                d.hpwl_delta() * 100.0,
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
            hpwl_m: field_f64(run, "hpwl_m")?,
        });
    }
    Ok(out)
}

/// Keeps the baseline rows whose mode is in `modes`, a `--modes`
/// selection parsed by [`crate::parse_modes`]; `None` keeps every row.
///
/// # Errors
///
/// Fails when no row is kept, so a gate cannot pass without rerunning
/// anything. A kept row that [`run_compare`] then skips (above
/// `--max-cells`, say) still counts as kept.
pub fn select_rows(
    mut baseline: Vec<BaselineRun>,
    modes: Option<&[&str]>,
) -> Result<Vec<BaselineRun>, String> {
    if let Some(modes) = modes {
        baseline.retain(|run| modes.contains(&run.mode.as_str()));
    }
    if baseline.is_empty() {
        return Err(match modes {
            Some(modes) => format!("baseline has no row in mode {}", modes.join(" or ")),
            None => "baseline has no rows".to_string(),
        });
    }
    Ok(baseline)
}

/// Reruns the comparable subset of `baseline` and diffs it.
///
/// Rows whose mode has no config (see [`config_for_mode`]) are skipped,
/// as are circuits that are not Table 1 presets or scale tiers (never
/// panics on an unknown name) and circuits above `max_cells`.
#[must_use]
pub fn run_compare(baseline: &[BaselineRun], max_cells: usize) -> CompareReport {
    let eligible = table1_circuits(max_cells);
    let mut report = CompareReport::default();
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
            if tier.cells > max_cells {
                report
                    .skipped
                    .push(format!("{tag}: above --max-cells {max_cells}"));
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
            push_delta(&mut report, run, &fresh);
            continue;
        }
        if !mcnc::TABLE1.iter().any(|p| p.name == run.netlist) {
            report.skipped.push(format!("{tag}: not a Table 1 circuit"));
            continue;
        }
        let Some(preset) = eligible.iter().find(|p| p.name == run.netlist) else {
            report
                .skipped
                .push(format!("{tag}: above --max-cells {max_cells}"));
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
        push_delta(&mut report, run, &fresh);
    }
    report
}

/// Diffs one fresh measurement against its baseline row.
fn push_delta(report: &mut CompareReport, run: &BaselineRun, fresh: &crate::FlowResult) {
    let hpwl_delta = relative_delta(run.hpwl_m, fresh.wirelength_m);
    report.deltas.push(Delta {
        netlist: run.netlist.clone(),
        mode: run.mode.clone(),
        baseline_hpwl_m: run.hpwl_m,
        current_hpwl_m: fresh.wirelength_m,
        // Only *worse* wire length fails: improvements are flagged in
        // the table (large negative delta) but should prompt a
        // re-baseline, not a red build. A non-finite drift means the
        // baseline itself is corrupt — that is a hard failure, never
        // a silent pass.
        hpwl_regressed: !hpwl_delta.is_finite() || hpwl_delta > HPWL_TOLERANCE,
        legal: fresh.legal,
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{bench_json, FlowResult, JsonRun, MODES};
    use kraftwerk_core::KraftwerkConfig;

    fn row(netlist: &str, mode: &str, hpwl_m: f64) -> BaselineRun {
        BaselineRun {
            netlist: netlist.to_string(),
            mode: mode.to_string(),
            hpwl_m,
        }
    }

    #[test]
    fn baseline_round_trips_through_bench_json() {
        let netlist = mcnc::by_name("fract");
        let result = run_kraftwerk(&netlist, KraftwerkConfig::fast());
        let run = JsonRun::new(&netlist, "fast", &result);
        let parsed = parse_baseline(&bench_json(std::slice::from_ref(&run)))
            .expect("bench_json parses as a baseline");
        assert_eq!(parsed, vec![row("fract", "fast", result.wirelength_m)]);
    }

    #[test]
    fn identical_baseline_passes_and_injected_regression_fails() {
        let netlist = mcnc::by_name("fract");
        let fresh = run_kraftwerk(&netlist, KraftwerkConfig::fast());
        let mut baseline = vec![row("fract", "fast", fresh.wirelength_m)];
        let report = run_compare(&baseline, 2000);
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
        let report = run_compare(&baseline, 2000);
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
        for corrupt_hpwl in [f64::NAN, 0.0, f64::INFINITY] {
            let report = run_compare(&[row("fract", "fast", corrupt_hpwl)], 2000);
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
        let baseline = row("fract", "fast", 1.0);
        let fresh = |legal| FlowResult {
            placement: netlist.initial_placement(),
            wirelength_m: 1.0,
            seconds: 1.0,
            legal,
            iterations: 1,
        };
        let mut report = CompareReport::default();
        push_delta(&mut report, &baseline, &fresh(true));
        assert!(report.passed());
        push_delta(&mut report, &baseline, &fresh(false));
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
            // A double quote in a skip entry used to make the verdict
            // JSON unparseable.
            row("not_a_\"circuit\"", "standard", 1.0),
            row("avq.large", "standard", 2.7),
            row("fract", "mystery", 1.0),
        ];
        let report = run_compare(&baseline, 2000);
        assert!(report.deltas.is_empty());
        assert_eq!(report.skipped.len(), 3);
        assert!(report.passed(), "skips alone never fail the gate");
        let verdict = kraftwerk_trace::json::parse(&report.to_json()).expect("verdict JSON parses");
        let skipped = verdict
            .get("skipped")
            .and_then(kraftwerk_trace::json::Json::as_array)
            .expect("skipped array");
        assert_eq!(skipped.len(), 3);
        assert_eq!(
            skipped[0].as_str(),
            Some("not_a_\"circuit\"/standard: not a Table 1 circuit")
        );
    }

    #[test]
    fn a_selection_that_matches_no_row_is_an_error() {
        let baseline = || vec![row("fract", "standard", 1.0), row("fract", "fast", 1.0)];
        // A baseline without tier rows cannot pass a tier-only gate.
        let err = select_rows(baseline(), Some(&["multilevel-b2b"])).expect_err("no tier rows");
        assert!(err.contains("multilevel-b2b"), "{err}");
        assert_eq!(
            select_rows(baseline(), Some(&["fast"])),
            Ok(vec![row("fract", "fast", 1.0)])
        );
        assert_eq!(select_rows(baseline(), None).map(|rows| rows.len()), Ok(2));
        assert!(select_rows(Vec::new(), None).is_err());
        // Rows kept but skipped for size still pass, as before.
        let kept = select_rows(vec![row("avq.large", "standard", 2.7)], Some(&["standard"]))
            .expect("one row kept");
        assert!(run_compare(&kept, 2000).passed());
    }

    #[test]
    fn multilevel_b2b_rows_gate_on_scale_tiers_only() {
        // A multilevel-b2b row must name a scale tier, and tiers above
        // --max-cells are skipped, not rerun (the big tiers would take
        // minutes in a unit test).
        let baseline = vec![
            row("fract", "multilevel-b2b", 1.0),
            row("scale10k", "multilevel-b2b", 5.0),
        ];
        let report = run_compare(&baseline, 2000);
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
        let report = run_compare(&[row("scale10k", "multilevel-annealed", 1.0)], 2000);
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
