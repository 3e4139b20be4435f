//! Dashboard assembly: one self-contained HTML document per run.
//!
//! The document embeds everything inline — CSS in a `<style>` block,
//! every chart as a static `<svg>` — so the file can be mailed, diffed,
//! or archived with no external references and no scripts. Section ids
//! are stable (`#convergence`, `#phases`, `#watchdog`, `#fields`,
//! `#histograms`, `#meta`) and every `<nav>` link targets a section that
//! is always rendered, even when it only carries a "nothing recorded"
//! placeholder — the golden test checks exactly that.

use crate::svg::{
    self, empty_chart, heatmap, histogram_chart, line_chart, phase_breakdown, scatter,
    timeline_strip, PhaseSlice, Series, TimelineMark,
};
use crate::{display, last_iteration, meta_text, metric};
use kraftwerk_trace::{RunReport, Value};

pub(crate) const STYLE: &str = "\
body{font-family:system-ui,sans-serif;margin:0;background:#f8fafc;color:#0f172a}\
header{background:#0f172a;color:#f8fafc;padding:14px 24px}\
header h1{margin:0;font-size:20px}\
header p{margin:4px 0 0;color:#94a3b8;font-size:13px}\
nav{position:sticky;top:0;background:#e2e8f0;padding:8px 24px;font-size:14px}\
nav a{margin-right:16px;color:#1d4ed8;text-decoration:none}\
section{padding:12px 24px;max-width:1080px}\
section h2{font-size:16px;border-bottom:1px solid #cbd5e1;padding-bottom:4px}\
svg{background:#ffffff;border:1px solid #e2e8f0;border-radius:4px;margin:6px 8px 6px 0}\
.ct{font-size:13px;font-weight:600;fill:#0f172a}\
.cn{font-size:12px;fill:#64748b}\
.tick{font-size:10px;fill:#475569}\
.grid{stroke:#e2e8f0;stroke-width:1}\
.axis{stroke:#475569;stroke-width:1}\
table{border-collapse:collapse;font-size:13px}\
td,th{border:1px solid #cbd5e1;padding:3px 10px;text-align:left}\
.phase-legend{font-size:12px;color:#334155;columns:2;margin:4px 0;padding-left:18px}\
.sw{display:inline-block;width:9px;height:9px;margin-right:5px;border-radius:2px}\
.gallery{display:flex;flex-wrap:wrap}\
figure{margin:0 10px 10px 0}\
figcaption{font-size:12px;color:#64748b;text-align:center}";

/// Pushes one `<section>` with heading and body.
pub(crate) fn section(out: &mut String, id: &str, heading: &str, body: &str) {
    out.push_str(&format!(
        "<section id=\"{}\"><h2>{}</h2>{}</section>",
        svg::esc(id),
        svg::esc(heading),
        body
    ));
}

fn meta_table(run: &RunReport) -> String {
    if run.meta.is_empty() {
        return "<p class=\"cn\">no run metadata recorded</p>".to_string();
    }
    let mut rows = String::from("<table><tbody>");
    for (key, value) in &run.meta {
        rows.push_str(&format!(
            "<tr><th>{}</th><td>{}</td></tr>",
            svg::esc(key),
            svg::esc(&display(value))
        ));
    }
    rows.push_str("</tbody></table>");
    rows
}

fn convergence_section(run: &RunReport) -> String {
    let points = |key| -> Vec<(f64, f64)> {
        run.iterations
            .iter()
            .filter_map(|r| metric(r, key).map(|y| (r.iteration() as f64, y)))
            .collect()
    };
    let mut out = String::new();
    out.push_str(&line_chart(
        "chart-hpwl",
        "HPWL per transformation (log scale)",
        &[Series { label: "hpwl", color: "#2563eb", points: points("hpwl") }],
        true,
    ));
    out.push_str(&line_chart(
        "chart-density",
        "Peak density overflow per transformation",
        &[Series { label: "peak density", color: "#dc2626", points: points("peak_density") }],
        false,
    ));
    out.push_str(&line_chart(
        "chart-cg",
        "CG effort per transformation (x + y solves)",
        &[Series { label: "cg iterations", color: "#059669", points: points("cg_iterations") }],
        false,
    ));
    out.push_str(&line_chart(
        "chart-displacement",
        "Max cell displacement per transformation (log scale)",
        &[Series {
            label: "max displacement",
            color: "#7c3aed",
            points: points("max_displacement"),
        }],
        true,
    ));
    out
}

fn phases_section(run: &RunReport) -> String {
    let slices: Vec<PhaseSlice> = run
        .profile
        .iter()
        .map(|p| PhaseSlice { name: p.name.clone(), seconds: p.seconds, calls: p.calls })
        .collect();
    phase_breakdown("phase-breakdown", "Where the wall-clock went", &slices)
}

fn watchdog_section(run: &RunReport) -> String {
    // The detail lists every field the strip does not show on its own.
    let marks: Vec<TimelineMark> = run
        .timeline
        .iter()
        .map(|t| TimelineMark {
            iteration: t.get("iteration").and_then(Value::as_u64).unwrap_or(0),
            action: t
                .get("action")
                .and_then(Value::as_str)
                .unwrap_or("")
                .to_string(),
            detail: t
                .fields
                .iter()
                .filter(|(key, _)| key != "iteration" && key != "action")
                .map(|(key, value)| format!("{key}={}", display(value)))
                .collect::<Vec<_>>()
                .join(", "),
        })
        .collect();
    let mut out = timeline_strip(
        "watchdog-timeline",
        "Watchdog trips and recoveries",
        last_iteration(run),
        &marks,
    );
    if !marks.is_empty() {
        out.push_str("<table><tbody>");
        for mark in &marks {
            out.push_str(&format!(
                "<tr><td>iteration {}</td><td>{}</td><td>{}</td></tr>",
                mark.iteration,
                svg::esc(&mark.action),
                svg::esc(&mark.detail)
            ));
        }
        out.push_str("</tbody></table>");
    }
    out
}

fn fields_section(run: &RunReport) -> String {
    let snapshots_of = |kind| run.snapshots.iter().filter(move |s| s.kind == kind);
    let mut out = String::new();
    let mut any = false;
    for kind in ["density", "potential"] {
        if snapshots_of(kind).next().is_none() {
            continue;
        }
        any = true;
        out.push_str("<div class=\"gallery\">");
        for grid in snapshots_of(kind) {
            out.push_str("<figure>");
            out.push_str(&heatmap(
                &format!("heatmap-{}-{}", kind, grid.position),
                &format!("{kind} @ iteration {}", grid.iteration),
                grid.nx,
                grid.ny,
                &grid.values,
            ));
            out.push_str(&format!(
                "<figcaption>{} field, {}×{} bins</figcaption></figure>",
                svg::esc(kind),
                grid.nx,
                grid.ny
            ));
        }
        out.push_str("</div>");
    }
    if snapshots_of("cells").next().is_some() {
        any = true;
        out.push_str("<div class=\"gallery\">");
        for grid in snapshots_of("cells") {
            out.push_str("<figure>");
            out.push_str(&scatter(
                &format!("scatter-cells-{}", grid.position),
                &format!("cells @ iteration {}", grid.iteration),
                &grid.values,
            ));
            out.push_str(&format!(
                "<figcaption>{} sampled positions</figcaption></figure>",
                grid.nx
            ));
        }
        out.push_str("</div>");
    }
    if !any {
        out.push_str(&empty_chart(
            "fields-none",
            "Field snapshots",
            "no snapshots captured — run with --snapshot-every N",
        ));
    }
    out
}

/// Sanitizes a histogram name into an HTML id fragment.
fn id_fragment(name: &str) -> String {
    name.chars()
        .map(|c| if c.is_ascii_alphanumeric() { c } else { '-' })
        .collect()
}

fn histograms_section(run: &RunReport) -> String {
    if run.histograms.is_empty() {
        return empty_chart(
            "hist-none",
            "Histograms",
            "no histogram metrics recorded — run with --trace",
        );
    }
    let palette = ["#2563eb", "#d97706", "#059669", "#7c3aed"];
    let mut out = String::new();
    for (i, hist) in run.histograms.iter().enumerate() {
        out.push_str(&histogram_chart(
            &format!("hist-{}", id_fragment(&hist.name)),
            &format!("{} ({} samples, log2 buckets)", hist.name, hist.count()),
            &hist.buckets,
            palette.get(i % palette.len()).copied().unwrap_or("#6b7280"),
        ));
    }
    out
}

/// Renders the complete dashboard document for a run.
#[must_use]
pub fn render(run: &RunReport) -> String {
    let netlist = meta_text(run, "netlist").unwrap_or_else(|| "unnamed run".to_string());
    let mode = meta_text(run, "mode").unwrap_or_else(|| "?".to_string());
    let mut out = String::with_capacity(64 * 1024);
    out.push_str("<!DOCTYPE html><html lang=\"en\"><head><meta charset=\"utf-8\">");
    out.push_str(&format!(
        "<title>kraftwerk run — {}</title>",
        svg::esc(&netlist)
    ));
    out.push_str("<style>");
    out.push_str(STYLE);
    out.push_str("</style></head><body>");
    out.push_str(&format!(
        "<header><h1>kraftwerk run report — {}</h1>\
         <p>{} transformations · mode {} · {} snapshots · {} watchdog events</p></header>",
        svg::esc(&netlist),
        run.iterations.len(),
        svg::esc(&mode),
        run.snapshots.len(),
        run.timeline.len()
    ));
    out.push_str(
        "<nav><a href=\"#convergence\">Convergence</a>\
         <a href=\"#phases\">Phase breakdown</a>\
         <a href=\"#watchdog\">Watchdog</a>\
         <a href=\"#fields\">Field snapshots</a>\
         <a href=\"#histograms\">Histograms</a>\
         <a href=\"#meta\">Run metadata</a></nav>",
    );
    section(&mut out, "convergence", "Convergence", &convergence_section(run));
    section(&mut out, "phases", "Phase breakdown", &phases_section(run));
    section(&mut out, "watchdog", "Watchdog timeline", &watchdog_section(run));
    section(&mut out, "fields", "Field snapshots", &fields_section(run));
    section(&mut out, "histograms", "Histogram metrics", &histograms_section(run));
    section(&mut out, "meta", "Run metadata", &meta_table(run));
    out.push_str("</body></html>");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::read_run;

    fn demo_run() -> RunReport {
        read_run(concat!(
            "{\"iteration\":1,\"hpwl\":120.0,\"peak_density\":3.0,\"cg_iterations\":50,",
            "\"max_displacement\":8.0,\"wall_s\":0.02,\"phases\":{\"place.solve_x\":0.01}}\n",
            "{\"type\":\"snapshot\",\"kind\":\"density\",\"iteration\":1,\"nx\":2,\"ny\":1,",
            "\"values\":[1.0,-1.0]}\n",
            "{\"type\":\"snapshot\",\"kind\":\"cells\",\"iteration\":1,\"nx\":2,\"ny\":2,",
            "\"values\":[0.0,0.0,3.0,4.0]}\n",
            "{\"type\":\"watchdog\",\"iteration\":1,\"reason\":\"r\",\"action\":\"rollback\"}\n",
            "{\"type\":\"histogram\",\"name\":\"place.displacement\",\"count\":1,",
            "\"buckets\":[[20,1]]}\n",
            "{\"iteration\":2,\"hpwl\":100.0,\"peak_density\":2.0,\"cg_iterations\":40,",
            "\"max_displacement\":4.0,\"wall_s\":0.02,\"phases\":{\"place.solve_x\":0.01}}\n",
        ))
        .expect("demo stream parses")
    }

    #[test]
    fn every_nav_target_exists_and_structure_is_balanced() {
        let html = render(&demo_run());
        for id in ["convergence", "phases", "watchdog", "fields", "histograms", "meta"] {
            assert!(html.contains(&format!("href=\"#{id}\"")), "nav link #{id}");
            assert!(html.contains(&format!("<section id=\"{id}\">")), "section #{id}");
        }
        for tag in ["html", "head", "body", "section", "svg", "figure"] {
            // `<head` alone would also match `<header>`: count exact
            // `<tag>` plus attribute-carrying `<tag ` openings.
            let open = html.matches(&format!("<{tag}>")).count()
                + html.matches(&format!("<{tag} ")).count();
            let close = html.matches(&format!("</{tag}>")).count();
            assert_eq!(open, close, "unbalanced <{tag}>");
        }
        assert!(html.contains("id=\"chart-hpwl\""));
        assert!(html.contains("id=\"heatmap-density-1\""));
        assert!(html.contains("id=\"scatter-cells-1\""));
        assert!(html.contains("id=\"watchdog-timeline\""));
        assert!(html.contains("id=\"hist-place-displacement\""));
    }

    #[test]
    fn sparse_runs_render_placeholders_not_errors() {
        let run = read_run("{\"iteration\":1,\"hpwl\":1.0,\"phases\":{}}").expect("minimal run");
        let html = render(&run);
        assert!(html.contains("no snapshots captured"));
        assert!(html.contains("no histogram metrics recorded"));
        assert!(html.contains("no watchdog events"));
        assert!(html.contains("no phase timings recorded"));
    }

    #[test]
    fn rendering_is_deterministic() {
        let run = demo_run();
        assert_eq!(render(&run), render(&run));
    }
}
