//! Cross-run comparison: one self-contained HTML document overlaying
//! several runs.
//!
//! The document follows the single-run dashboard's conventions — inline
//! CSS, static `<svg>` charts, no scripts — so a comparison can be
//! archived or diffed the same way. Runs are labelled by the file name
//! the caller read them from and keep their command-line order; the
//! first run is the baseline every delta column is measured against.

use crate::html::section;
use crate::svg::{self, empty_chart, line_chart, Series};
use crate::{curve, meta_text, metric};
use kraftwerk_trace::RunReport;

/// Per-run stroke colors, recycled when more runs than colors.
const PALETTE: [&str; 6] = [
    "#2563eb", "#dc2626", "#059669", "#7c3aed", "#d97706", "#0891b2",
];

fn color(i: usize) -> &'static str {
    PALETTE[i % PALETTE.len()]
}

/// The legend naming each run, with its stroke color swatch.
fn legend(runs: &[(String, RunReport)]) -> String {
    let mut out = String::from("<ul class=\"phase-legend\">");
    for (i, (label, run)) in runs.iter().enumerate() {
        out.push_str(&format!(
            "<li><span class=\"sw\" style=\"background:{}\"></span>{} — {} transformations, mode {}</li>",
            color(i),
            svg::esc(label),
            run.iterations.len(),
            svg::esc(meta_text(run, "mode").as_deref().unwrap_or("?")),
        ));
    }
    out.push_str("</ul>");
    out
}

/// Overlaid per-transformation metric curves, one series per run.
fn overlay_chart(
    id: &str,
    title: &str,
    runs: &[(String, RunReport)],
    key: &str,
    log_y: bool,
) -> String {
    let series: Vec<Series<'_>> = runs
        .iter()
        .enumerate()
        .map(|(i, (label, run))| Series {
            label: label.as_str(),
            color: color(i),
            points: run
                .iterations
                .iter()
                .filter_map(|r| metric(r, key).map(|y| (r.iteration() as f64, y)))
                .collect(),
        })
        .collect();
    line_chart(id, title, &series, log_y)
}

/// Overlaid solver residual curves: the x-axis is the solver-internal
/// step, each run contributes its *last* retained trajectory (the
/// converged state the run settled into).
fn solver_curves(runs: &[(String, RunReport)]) -> String {
    let mut out = String::new();
    for (solver, title, log_y) in [
        ("cg", "CG residual trajectory (last retained solve, log scale)", true),
        (
            "multigrid",
            "Multigrid V-cycle relative residuals (last retained solve, log scale)",
            true,
        ),
    ] {
        let series: Vec<Series<'_>> = runs
            .iter()
            .enumerate()
            .filter_map(|(i, (label, run))| {
                let curve = run
                    .convergence
                    .iter()
                    .rev()
                    .filter(|t| t.solver == solver)
                    .map(|t| curve(&t.fields))
                    .find(|curve| !curve.is_empty())?;
                Some(Series {
                    label: label.as_str(),
                    color: color(i),
                    points: curve
                        .iter()
                        .enumerate()
                        .map(|(step, &r)| (step as f64, r))
                        .collect(),
                })
            })
            .collect();
        if !series.is_empty() {
            out.push_str(&line_chart(&format!("cmp-solver-{solver}"), title, &series, log_y));
        }
    }
    if out.is_empty() {
        out = empty_chart(
            "cmp-solvers-none",
            "Solver convergence",
            "no solver convergence records in any run — record it with --trace",
        );
    }
    out
}

/// Union of names across runs, in first-seen order.
fn name_union<'a>(
    runs: &'a [(String, RunReport)],
    names_of: impl Fn(&'a RunReport) -> Vec<&'a str>,
) -> Vec<&'a str> {
    let mut union: Vec<&str> = Vec::new();
    for (_, run) in runs {
        for name in names_of(run) {
            if !union.contains(&name) {
                union.push(name);
            }
        }
    }
    union
}

fn table_open(out: &mut String, first_header: &str, runs: &[(String, RunReport)], delta: bool) {
    out.push_str("<table><thead><tr>");
    out.push_str(&format!("<th>{}</th>", svg::esc(first_header)));
    for (i, (label, _)) in runs.iter().enumerate() {
        out.push_str(&format!("<th>{}</th>", svg::esc(label)));
        if delta && i > 0 {
            out.push_str("<th>Δ vs first</th>");
        }
    }
    out.push_str("</tr></thead><tbody>");
}

/// Phase wall-clock per run with deltas against the first run.
fn phase_table(runs: &[(String, RunReport)]) -> String {
    let phases = name_union(runs, |run| {
        run.profile.iter().map(|p| p.name.as_str()).collect()
    });
    if phases.is_empty() {
        return "<p class=\"cn\">no phase timings recorded in any run</p>".to_string();
    }
    let seconds_of = |run: &RunReport, name: &str| -> Option<f64> {
        run.profile.iter().find(|p| p.name == name).map(|p| p.seconds)
    };
    let mut out = String::new();
    table_open(&mut out, "phase", runs, true);
    for name in phases {
        out.push_str(&format!("<tr><td>{}</td>", svg::esc(name)));
        let baseline = seconds_of(&runs[0].1, name);
        for (i, (_, run)) in runs.iter().enumerate() {
            match seconds_of(run, name) {
                Some(s) => out.push_str(&format!("<td>{} s</td>", svg::fmt_value(s))),
                None => out.push_str("<td>—</td>"),
            }
            if i > 0 {
                let delta = match (baseline, seconds_of(run, name)) {
                    (Some(base), Some(s)) if base > 0.0 => {
                        format!("{:+.1}%", 100.0 * (s - base) / base)
                    }
                    _ => "—".to_string(),
                };
                out.push_str(&format!("<td>{}</td>", svg::esc(&delta)));
            }
        }
        out.push_str("</tr>");
    }
    out.push_str("</tbody></table>");
    out
}

/// Bytes rendered with a binary-unit suffix.
fn fmt_bytes(bytes: u64) -> String {
    const UNITS: [&str; 5] = ["B", "KiB", "MiB", "GiB", "TiB"];
    let mut value = bytes as f64;
    let mut unit = 0;
    while value >= 1024.0 && unit + 1 < UNITS.len() {
        value /= 1024.0;
        unit += 1;
    }
    if unit == 0 {
        format!("{bytes} B")
    } else {
        format!("{value:.1} {}", UNITS[unit])
    }
}

/// Per-phase peak heap bytes per run.
fn memory_table(runs: &[(String, RunReport)]) -> String {
    let phases = name_union(runs, |run| {
        run.alloc.iter().map(|a| a.phase.as_str()).collect()
    });
    if phases.is_empty() {
        return "<p class=\"cn\">no allocation accounting in any run — \
                run with --alloc-stats</p>"
            .to_string();
    }
    let mut out = String::new();
    table_open(&mut out, "phase (peak bytes)", runs, false);
    for name in phases {
        out.push_str(&format!("<tr><td>{}</td>", svg::esc(name)));
        for (_, run) in runs {
            match run.alloc.iter().find(|a| a.phase == name) {
                Some(a) => out.push_str(&format!(
                    "<td>{} ({} allocs)</td>",
                    fmt_bytes(a.peak_bytes),
                    a.allocs
                )),
                None => out.push_str("<td>—</td>"),
            }
        }
        out.push_str("</tr>");
    }
    out.push_str("<tr><th>run peak</th>");
    for (_, run) in runs {
        let peak = run.alloc.iter().map(|a| a.peak_bytes).max().unwrap_or(0);
        out.push_str(&format!("<th>{}</th>", fmt_bytes(peak)));
    }
    out.push_str("</tr></tbody></table>");
    out
}

/// Per-span parallel efficiency per run.
fn utilization_table(runs: &[(String, RunReport)]) -> String {
    let spans = name_union(runs, |run| {
        run.utilization.iter().map(|u| u.span.as_str()).collect()
    });
    if spans.is_empty() {
        return "<p class=\"cn\">no worker-utilization telemetry in any run — \
                record it with --trace</p>"
            .to_string();
    }
    let mut out = String::new();
    table_open(&mut out, "span (efficiency · threads)", runs, false);
    for name in spans {
        out.push_str(&format!("<tr><td>{}</td>", svg::esc(name)));
        for (_, run) in runs {
            match run.utilization.iter().find(|u| u.span == name) {
                Some(u) => out.push_str(&format!(
                    "<td>{:.0}% · {} thr · {} chunks</td>",
                    100.0 * u.efficiency(),
                    u.threads,
                    u.chunks
                )),
                None => out.push_str("<td>—</td>"),
            }
        }
        out.push_str("</tr>");
    }
    out.push_str("</tbody></table>");
    out
}

/// Run metadata side by side.
fn meta_table(runs: &[(String, RunReport)]) -> String {
    let keys = name_union(runs, |run| {
        run.meta.iter().map(|(k, _)| k.as_str()).collect()
    });
    if keys.is_empty() {
        return "<p class=\"cn\">no run metadata recorded</p>".to_string();
    }
    let mut out = String::new();
    table_open(&mut out, "key", runs, false);
    for key in keys {
        out.push_str(&format!("<tr><th>{}</th>", svg::esc(key)));
        for (_, run) in runs {
            out.push_str(&format!(
                "<td>{}</td>",
                svg::esc(meta_text(run, key).as_deref().unwrap_or("—"))
            ));
        }
        out.push_str("</tr>");
    }
    out.push_str("</tbody></table>");
    out
}

/// Renders the comparison document for two or more runs.
///
/// Each entry pairs a display label (usually the input file name) with
/// its run; the first entry is the baseline for delta columns.
#[must_use]
pub fn render_comparison(runs: &[(String, RunReport)]) -> String {
    let mut out = String::with_capacity(64 * 1024);
    out.push_str("<!DOCTYPE html><html lang=\"en\"><head><meta charset=\"utf-8\">");
    out.push_str(&format!(
        "<title>kraftwerk comparison — {} runs</title>",
        runs.len()
    ));
    out.push_str("<style>");
    out.push_str(crate::html::STYLE);
    out.push_str("</style></head><body>");
    out.push_str(&format!(
        "<header><h1>kraftwerk run comparison</h1><p>{} runs · baseline: {}</p></header>",
        runs.len(),
        svg::esc(runs.first().map_or("—", |(label, _)| label.as_str())),
    ));
    out.push_str(
        "<nav><a href=\"#runs\">Runs</a>\
         <a href=\"#convergence\">Convergence</a>\
         <a href=\"#solvers\">Solver convergence</a>\
         <a href=\"#phases\">Phase deltas</a>\
         <a href=\"#memory\">Peak memory</a>\
         <a href=\"#utilization\">Parallel efficiency</a>\
         <a href=\"#meta\">Metadata</a></nav>",
    );
    section(&mut out, "runs", "Runs", &legend(runs));
    let mut convergence = String::new();
    convergence.push_str(&overlay_chart(
        "cmp-hpwl",
        "HPWL per transformation (log scale)",
        runs,
        "hpwl",
        true,
    ));
    convergence.push_str(&overlay_chart(
        "cmp-density",
        "Peak density overflow per transformation",
        runs,
        "peak_density",
        false,
    ));
    convergence.push_str(&overlay_chart(
        "cmp-cg",
        "CG effort per transformation",
        runs,
        "cg_iterations",
        false,
    ));
    section(&mut out, "convergence", "Convergence", &convergence);
    section(&mut out, "solvers", "Solver convergence", &solver_curves(runs));
    section(&mut out, "phases", "Phase wall-clock deltas", &phase_table(runs));
    section(&mut out, "memory", "Peak memory", &memory_table(runs));
    section(&mut out, "utilization", "Parallel efficiency", &utilization_table(runs));
    section(&mut out, "meta", "Run metadata", &meta_table(runs));
    out.push_str("</body></html>");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::read_run;

    fn run_a() -> (String, RunReport) {
        let text = concat!(
            "{\"type\":\"meta\",\"netlist\":\"demo\",\"mode\":\"fast\",\"threads\":1}\n",
            "{\"iteration\":1,\"hpwl\":120.0,\"peak_density\":3.0,\"cg_iterations\":50,",
            "\"wall_s\":0.02,\"phases\":{\"place.solve_x\":0.01}}\n",
            "{\"iteration\":2,\"hpwl\":100.0,\"peak_density\":2.0,\"cg_iterations\":40,",
            "\"wall_s\":0.02,\"phases\":{\"place.solve_x\":0.01}}\n",
            "{\"type\":\"convergence\",\"solver\":\"cg\",\"iteration\":2,\"dim\":64,",
            "\"iterations\":3,\"residual\":1e-9,\"converged\":true,",
            "\"residual_trajectory\":[1.0,0.01,0.0001]}\n",
            "{\"type\":\"alloc\",\"phase\":\"place.solve_xy\",\"samples\":2,\"allocs\":4,",
            "\"deallocs\":4,\"bytes\":2048,\"peak_bytes\":1048576}\n",
            "{\"type\":\"utilization\",\"span\":\"place.field_solve\",\"samples\":2,",
            "\"wall_s\":0.01,\"busy_s\":0.009,\"chunks\":8,\"threads\":1,\"efficiency\":0.9}\n",
            "{\"type\":\"summary\",\"total_s\":0.04,\"profile\":[{\"phase\":\"place.solve_x\",",
            "\"calls\":2,\"total_s\":0.02,\"mean_s\":0.01}]}\n",
        );
        ("a.jsonl".to_string(), read_run(text).expect("run a parses"))
    }

    fn run_b() -> (String, RunReport) {
        let text = concat!(
            "{\"type\":\"meta\",\"netlist\":\"demo\",\"mode\":\"fast\",\"threads\":8}\n",
            "{\"iteration\":1,\"hpwl\":118.0,\"peak_density\":2.9,\"cg_iterations\":48,",
            "\"wall_s\":0.01,\"phases\":{\"place.solve_x\":0.005,\"place.metrics\":0.001}}\n",
            "{\"type\":\"utilization\",\"span\":\"place.field_solve\",\"samples\":1,",
            "\"wall_s\":0.004,\"busy_s\":0.01984,\"chunks\":8,\"threads\":8,\"efficiency\":0.62}\n",
            "{\"type\":\"summary\",\"total_s\":0.01,\"profile\":[{\"phase\":\"place.solve_x\",",
            "\"calls\":1,\"total_s\":0.005,\"mean_s\":0.005},{\"phase\":\"place.metrics\",",
            "\"calls\":1,\"total_s\":0.001,\"mean_s\":0.001}]}\n",
        );
        ("b.jsonl".to_string(), read_run(text).expect("run b parses"))
    }

    #[test]
    fn comparison_renders_every_section_for_two_runs() {
        let html = render_comparison(&[run_a(), run_b()]);
        for id in ["runs", "convergence", "solvers", "phases", "memory", "utilization", "meta"] {
            assert!(html.contains(&format!("<section id=\"{id}\">")), "section #{id}");
        }
        assert!(html.contains("a.jsonl"));
        assert!(html.contains("b.jsonl"));
        // Overlaid HPWL chart exists and the delta column is computed:
        // place.solve_x went 0.02 → 0.005, i.e. −75%.
        assert!(html.contains("id=\"cmp-hpwl\""));
        assert!(html.contains("-75.0%"));
        // Memory table covers run A and marks run B's missing data.
        assert!(html.contains("1.0 MiB"));
        assert!(html.contains("<td>—</td>"));
        // Parallel-efficiency table shows both runs' spans.
        assert!(html.contains("90% · 1 thr"));
        assert!(html.contains("62% · 8 thr"));
        // Solver curve from run A renders even though run B has none.
        assert!(html.contains("id=\"cmp-cg\""));
        for tag in ["html", "head", "body", "section", "svg", "table"] {
            let open = html.matches(&format!("<{tag}>")).count()
                + html.matches(&format!("<{tag} ")).count();
            let close = html.matches(&format!("</{tag}>")).count();
            assert_eq!(open, close, "unbalanced <{tag}>");
        }
    }

    #[test]
    fn comparison_is_deterministic() {
        let runs = [run_a(), run_b()];
        assert_eq!(render_comparison(&runs), render_comparison(&runs));
    }
}
