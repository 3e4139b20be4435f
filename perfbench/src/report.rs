//! The metrics every workload reports, and the result line.
//!
//! Every workload fills the same two structs, so every workload emits
//! exactly the metric names `BENCHMARK.json` declares; the drift test at
//! the bottom holds the two lists together.

use kraftwerk_trace::json::JsonObject;

/// One reported number.
pub type Entry = (&'static str, &'static str, f64);

/// End-to-end metrics: what a user of the placer or the daemon sees.
#[derive(Debug, Clone)]
pub struct EndToEnd {
    /// Sum over the workload's distinct inputs of the time from request to
    /// placed result: mean over passes for placement flows, median client
    /// latency for daemon jobs.
    pub place_s: f64,
    /// Completed operations (flows or jobs) per second of measured time.
    pub ops_per_s: f64,
    /// Final wire length summed over the distinct inputs, meters.
    pub hpwl_m: f64,
    /// Median set-up time before the measured work.
    pub setup_s: f64,
    /// Peak resident memory after input generation, MiB.
    pub peak_rss_mb: f64,
}

impl EndToEnd {
    /// Name, unit and value of every metric, in `BENCHMARK.json` order.
    pub fn entries(&self) -> Vec<Entry> {
        vec![
            ("place_s", "s", self.place_s),
            ("ops_per_s", "1/s", self.ops_per_s),
            ("hpwl_m", "m", self.hpwl_m),
            ("setup_s", "s", self.setup_s),
            ("peak_rss_mb", "MiB", self.peak_rss_mb),
        ]
    }
}

/// Per-layer metrics from the traced run. A layer a workload bypasses
/// reports 0 there; times of such layers are given as shares of the
/// operation's wall time.
#[derive(Debug, Clone)]
pub struct PerLayer {
    /// Sum over inputs of the median `read_netlist` time.
    pub read_ms: f64,
    /// Sum over inputs of the median `Netlist::validate` time.
    pub validate_ms: f64,
    /// Mean `metrics::hpwl` probe time on a finest-level placement.
    pub hpwl_ms: f64,
    /// Mean `PlacementSession` construction time.
    pub session_new_ms: f64,
    /// Accepted transformations per pass over the inputs, all levels.
    pub transforms: f64,
    /// Mean finest-level transformation time, probes excluded.
    pub transform_ms: f64,
    /// Mean `QuadraticSystem::assemble` probe time.
    pub assemble_ms: f64,
    /// Most hierarchy levels of any input (1 for a flat flow).
    pub levels: f64,
    /// Share of placer-call time in `build_hierarchy`.
    pub coarsen_share: f64,
    /// Share of placer-call time in coarse-level transformation loops.
    pub coarse_levels_share: f64,
    /// Share of placer-call time in `Clustering::expand`.
    pub expand_share: f64,
    /// Watchdog trips per pass over the inputs.
    pub watchdog_trips: f64,
    /// Mean CG iterations (x + y) per finest-level transformation.
    pub cg_iters_per_transform: f64,
    /// Transformations per pass whose CG solves missed tolerance.
    pub cg_unconverged: f64,
    /// Mean `density_map_into` probe time at the session's grid.
    pub density_map_ms: f64,
    /// Mean `largest_empty_square` probe time at the session's resolution.
    pub empty_square_ms: f64,
    /// Mean over inputs of the last transformation's peak density.
    pub final_peak_density: f64,
    /// Share of flow time in `legalize`.
    pub abacus_share: f64,
    /// Share of flow time in `refine`.
    pub refine_share: f64,
    /// Mean distance from global to legal position per movable cell, um.
    pub mean_disp_um: f64,
    /// Share of client latency spent outside the daemon's job wall time.
    pub outside_job_share: f64,
    /// Share of client latency the daemon spends decoding request frames.
    pub decode_share: f64,
    /// Highest job-latency percentile with ten samples beyond it, over p50.
    pub tail_ratio: f64,
    /// Share of jobs that reused a pooled scratch arena.
    pub arena_hit_frac: f64,
    /// `busy` answers retried by the clients.
    pub busy_retries: f64,
    /// Jobs the daemon retried at damped force scale.
    pub degraded_retries: f64,
    /// Inputs whose replayed wire length differs from the production call.
    pub replay_mismatches: f64,
    /// Replayed placement time without probes over production time, minus 1.
    pub overhead_frac: f64,
}

impl PerLayer {
    /// Name, unit and value of every metric, in `BENCHMARK.json` order.
    pub fn entries(&self) -> Vec<Entry> {
        vec![
            ("netlist.read_ms", "ms", self.read_ms),
            ("netlist.validate_ms", "ms", self.validate_ms),
            ("netlist.hpwl_ms", "ms", self.hpwl_ms),
            ("core.session_new_ms", "ms", self.session_new_ms),
            ("core.transforms", "count", self.transforms),
            ("core.transform_ms", "ms", self.transform_ms),
            ("core.assemble_ms", "ms", self.assemble_ms),
            ("core.levels", "count", self.levels),
            ("core.coarsen_share", "1", self.coarsen_share),
            ("core.coarse_levels_share", "1", self.coarse_levels_share),
            ("core.expand_share", "1", self.expand_share),
            ("core.watchdog_trips", "count", self.watchdog_trips),
            (
                "sparse.cg_iters_per_transform",
                "count",
                self.cg_iters_per_transform,
            ),
            ("sparse.cg_unconverged", "count", self.cg_unconverged),
            ("field.density_map_ms", "ms", self.density_map_ms),
            ("field.empty_square_ms", "ms", self.empty_square_ms),
            ("field.final_peak_density", "1", self.final_peak_density),
            ("legalize.abacus_share", "1", self.abacus_share),
            ("legalize.refine_share", "1", self.refine_share),
            ("legalize.mean_disp_um", "um", self.mean_disp_um),
            ("serve.outside_job_share", "1", self.outside_job_share),
            ("serve.decode_share", "1", self.decode_share),
            ("serve.tail_ratio", "1", self.tail_ratio),
            ("serve.arena_hit_frac", "1", self.arena_hit_frac),
            ("serve.busy_retries", "count", self.busy_retries),
            ("serve.degraded_retries", "count", self.degraded_retries),
            ("trace.replay_mismatches", "count", self.replay_mismatches),
            ("trace.overhead_frac", "1", self.overhead_frac),
        ]
    }
}

/// The result line: `correct`, `attempted`, `failed` and `metrics`.
pub fn result_json(correct: bool, attempted: u64, failed: u64, metrics: &[Entry]) -> String {
    let mut m = JsonObject::new();
    for &(name, unit, value) in metrics {
        let mut v = JsonObject::new();
        v.f64_field("value", value);
        v.str_field("unit", unit);
        m.raw_field(name, &v.finish());
    }
    let mut o = JsonObject::new();
    o.bool_field("correct", correct);
    o.u64_field("attempted", attempted);
    o.u64_field("failed", failed);
    o.raw_field("metrics", &m.finish());
    o.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use kraftwerk_trace::json::{parse, Json};

    fn declared(doc: &Json, key: &str) -> Vec<(String, String)> {
        doc.get(key)
            .and_then(Json::as_array)
            .expect("metric list")
            .iter()
            .map(|m| {
                let field = |k: &str| m.get(k).and_then(Json::as_str).expect("string").to_owned();
                (field("name"), field("unit"))
            })
            .collect()
    }

    fn emitted(entries: &[Entry]) -> Vec<(String, String)> {
        entries
            .iter()
            .map(|&(n, u, _)| (n.to_owned(), u.to_owned()))
            .collect()
    }

    fn end_to_end() -> EndToEnd {
        EndToEnd {
            place_s: 1.0,
            ops_per_s: 1.0,
            hpwl_m: 1.0,
            setup_s: 1.0,
            peak_rss_mb: 1.0,
        }
    }

    fn per_layer() -> PerLayer {
        PerLayer {
            read_ms: 0.0,
            validate_ms: 0.0,
            hpwl_ms: 0.0,
            session_new_ms: 0.0,
            transforms: 0.0,
            transform_ms: 0.0,
            assemble_ms: 0.0,
            levels: 0.0,
            coarsen_share: 0.0,
            coarse_levels_share: 0.0,
            expand_share: 0.0,
            watchdog_trips: 0.0,
            cg_iters_per_transform: 0.0,
            cg_unconverged: 0.0,
            density_map_ms: 0.0,
            empty_square_ms: 0.0,
            final_peak_density: 0.0,
            abacus_share: 0.0,
            refine_share: 0.0,
            mean_disp_um: 0.0,
            outside_job_share: 0.0,
            decode_share: 0.0,
            tail_ratio: 0.0,
            arena_hit_frac: 0.0,
            busy_retries: 0.0,
            degraded_retries: 0.0,
            replay_mismatches: 0.0,
            overhead_frac: 0.0,
        }
    }

    #[test]
    fn benchmark_json_declares_exactly_the_emitted_metrics() {
        let doc = parse(include_str!("../../BENCHMARK.json")).expect("BENCHMARK.json parses");
        assert_eq!(
            declared(&doc, "end_to_end"),
            emitted(&end_to_end().entries())
        );
        assert_eq!(declared(&doc, "per_layer"), emitted(&per_layer().entries()));
        let workloads: Vec<&str> = doc
            .get("workloads")
            .and_then(Json::as_array)
            .expect("workloads")
            .iter()
            .map(|w| w.get("name").and_then(Json::as_str).expect("name"))
            .collect();
        let emitted: Vec<&str> = crate::inputs::Workload::ALL
            .iter()
            .map(|w| w.name())
            .collect();
        assert_eq!(workloads, emitted);
    }

    #[test]
    fn result_line_has_the_contract_keys() {
        let line = result_json(true, 3, 0, &end_to_end().entries());
        let doc = parse(&line).expect("result parses");
        let keys: Vec<&str> = doc
            .as_object()
            .expect("object")
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        let place = doc
            .get("metrics")
            .and_then(|m| m.get("place_s"))
            .expect("place_s");
        assert_eq!(place.get("unit").and_then(Json::as_str), Some("s"));
        assert_eq!(place.get("value").and_then(Json::as_f64), Some(1.0));
    }
}
