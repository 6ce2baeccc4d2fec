//! The metric catalogue and the result line.
//!
//! Every run prints every metric of its kind (end-to-end for an untraced
//! run, per-layer for a traced one), so the catalogue lists each name once
//! with its unit; a layer a workload never calls reads 0 and the run says
//! so on stderr. `BENCHMARK.json` declares the same names (a test checks).

use std::collections::BTreeMap;

use crate::stats::Tally;

/// End-to-end metrics, measured with tracing off: (name, unit).
pub const END_TO_END: &[(&str, &str)] = &[
    ("wall_s", "s"),
    ("setup_s", "s"),
    ("peak_rss_mib", "MiB"),
    ("ops_per_s", "1/s"),
    ("latency_p50_ms", "ms"),
    ("latency_p99_ms", "ms"),
];

/// Per-layer metrics, measured by the traced run: (name, unit).
pub const PER_LAYER: &[(&str, &str)] = &[
    // scord-sim, summed over every simulation of one pass.
    ("sim.run_s", "s"),
    ("sim.new_ms", "ms"),
    ("sim.ns_per_cycle", "ns"),
    ("sim.ns_per_warp_inst", "ns"),
    ("sim.cell_max_s", "s"),
    ("sim.cycles", "count"),
    ("sim.cycles_skipped", "count"),
    ("sim.warp_instructions", "count"),
    ("sim.stall.lhd", "count"),
    ("sim.stall.noc_full", "count"),
    ("sim.stall.memory", "count"),
    ("sim.stall.barrier", "count"),
    ("sim.l1.hits", "count"),
    ("sim.l1.misses", "count"),
    ("sim.l2.data_hits", "count"),
    ("sim.l2.data_misses", "count"),
    ("sim.l2.md_hits", "count"),
    ("sim.l2.md_misses", "count"),
    ("sim.dram.data", "count"),
    ("sim.dram.metadata", "count"),
    ("sim.noc.flits", "count"),
    ("sim.detector_unit.events", "count"),
    ("sim.detector_unit.lane_accesses", "count"),
    // scord-core detector and metadata store.
    ("core.detector.replay_ns_per_event", "ns"),
    ("core.store.bytes", "bytes"),
    ("core.store.entries", "count"),
    // scord-harness executor.
    ("harness.exec.busy_s", "s"),
    ("harness.exec.speedup", "ratio"),
    // scord-serve and the wire codec.
    ("serve.client.send_ms_p50", "ms"),
    ("serve.client.wait_ms_p50", "ms"),
    ("serve.client.wait_ms_p99", "ms"),
    ("core.wire.encode_ns_per_event", "ns"),
    ("core.wire.decode_ns_per_event", "ns"),
    ("serve.overhead_ms_p50", "ms"),
    ("serve.accepted", "count"),
    ("serve.completed", "count"),
    ("serve.shed_busy", "count"),
    ("serve.quarantined", "count"),
    ("serve.reaped_deadline", "count"),
    ("serve.disconnected", "count"),
    ("serve.drained_partial", "count"),
    ("serve.threads", "count"),
    ("serve.open_fds", "count"),
    // scord-core schedule space: explorer, predictor, oracle, fuzzer.
    ("core.explore.s", "s"),
    ("core.predict.s", "s"),
    ("core.oracle.replay_ns_per_event", "ns"),
    ("core.explore.schedules_attempted", "count"),
    ("core.explore.schedules_run", "count"),
    ("core.explore.redundant", "count"),
    ("core.explore.keys_beyond_baseline", "count"),
    ("core.explore.new_keys_per_schedule", "ratio"),
    ("core.explore.race_keys", "count"),
    ("core.predict.raw_candidates", "count"),
    ("core.predict.confirmed", "count"),
    ("core.predict.lock_mutex", "count"),
    ("core.predict.atomic_commute", "count"),
    ("core.predict.sync_forced", "count"),
    ("core.predict.unconfirmed", "count"),
    ("core.fuzz.gen_ms", "ms"),
    // The tracing itself.
    ("bench.untraced_s", "s"),
    ("bench.traced_s", "s"),
    ("bench.trace_overhead_s", "s"),
    ("bench.trace_overhead_pct", "%"),
    ("bench.spans", "count"),
];

/// Metric values a workload produced, by name.
#[derive(Debug, Default)]
pub struct Metrics(BTreeMap<&'static str, f64>);

impl Metrics {
    /// Sets `name`, which must be in one of the catalogues.
    ///
    /// # Panics
    ///
    /// On a name outside both catalogues: a typo here is a benchmark bug.
    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(
            END_TO_END.iter().chain(PER_LAYER).any(|(n, _)| *n == name),
            "metric {name} is not in the catalogue"
        );
        self.0.insert(name, value);
    }

    /// Value of `name`, if set.
    #[must_use]
    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.get(name).copied()
    }
}

/// Renders the result line: every catalogue metric, with 0 for unset ones
/// (their names are returned so the caller can say which layers the
/// workload did not exercise).
#[must_use]
pub fn result_line(
    tally: Tally,
    correct: bool,
    catalogue: &[(&'static str, &'static str)],
    metrics: &Metrics,
) -> (String, Vec<&'static str>) {
    let mut unset = Vec::new();
    let body: Vec<String> = catalogue
        .iter()
        .map(|&(name, unit)| {
            let value = metrics.get(name).unwrap_or_else(|| {
                unset.push(name);
                0.0
            });
            let value = if value.is_finite() { value } else { 0.0 };
            format!("\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    let line = format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        tally.attempted,
        tally.failed,
        body.join(", ")
    );
    (line, unset)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Names declared under `key` in BENCHMARK.json, in order.
    fn declared(doc: &str, key: &str) -> Vec<(String, String)> {
        let start = doc.find(&format!("\"{key}\"")).expect("section present");
        let section = &doc[start..];
        let end = section.find(']').expect("section closes");
        let field = |obj: &str, f: &str| -> String {
            let at = obj.find(&format!("\"{f}\"")).expect("field present") + f.len() + 2;
            let rest = &obj[at..];
            let open = rest.find('"').expect("string value") + 1;
            let close = rest[open..].find('"').expect("string closes");
            rest[open..open + close].to_string()
        };
        section[..end]
            .split('{')
            .skip(1)
            .map(|obj| (field(obj, "name"), field(obj, "unit")))
            .collect()
    }

    fn owned(list: &[(&str, &str)]) -> Vec<(String, String)> {
        list.iter()
            .map(|(n, u)| ((*n).to_string(), (*u).to_string()))
            .collect()
    }

    #[test]
    fn catalogue_matches_benchmark_json() {
        let doc = include_str!("../../BENCHMARK.json");
        assert_eq!(declared(doc, "end_to_end"), owned(END_TO_END));
        assert_eq!(declared(doc, "per_layer"), owned(PER_LAYER));
    }

    #[test]
    fn result_line_lists_every_metric_once() {
        let mut m = Metrics::default();
        m.set("wall_s", 1.25);
        let tally = Tally {
            attempted: 3,
            failed: 0,
        };
        let (line, unset) = result_line(tally, true, END_TO_END, &m);
        assert!(line.starts_with("{\"correct\": true, \"attempted\": 3, \"failed\": 0,"));
        assert!(line.contains("\"wall_s\": {\"value\": 1.25, \"unit\": \"s\"}"));
        assert_eq!(unset.len(), END_TO_END.len() - 1);
        for (name, _) in END_TO_END {
            assert_eq!(line.matches(&format!("\"{name}\"")).count(), 1);
        }
    }

    #[test]
    #[should_panic(expected = "not in the catalogue")]
    fn unknown_metric_is_a_bug() {
        Metrics::default().set("no_such_metric", 1.0);
    }
}
