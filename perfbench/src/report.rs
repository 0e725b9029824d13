//! The metric tables (they mirror `BENCHMARK.json`), the result each
//! workload hands back, and the one JSON line the benchmark ends with.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// End-to-end metrics, reported by untraced runs: `(name, unit)`.
/// Each workload fills every one with its own reading of it (see the
/// workload modules and `perfbench/README.md`).
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("work_per_s", "1/s"),
    ("latency_p50_ms", "ms"),
    ("latency_tail_ms", "ms"),
    ("summary_build_s", "s"),
    ("quality_error", "1"),
];

/// Per-layer metrics, reported by traced runs: `(name, unit)`. Every
/// workload measures each of them, on its own inputs. The layers only
/// one workload has (serve, distributed, observe, and sparsify, which
/// no workload's budget needs) are printed by that workload's traced
/// run as report lines instead.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("weights.bfs_s", "s"),
    ("working.new_s", "s"),
    ("shingle.attach_s", "s"),
    ("pegasus.candidates_s", "s"),
    ("pegasus.evaluate_s", "s"),
    ("pegasus.commit_s", "s"),
    ("pegasus.unattributed_s", "s"),
    ("pegasus.evals", "count"),
    ("pegasus.merges", "count"),
    ("pegasus.iterations", "count"),
    ("pegasus.evals_per_s", "1/s"),
    ("pegasus.merge_yield", "ratio"),
    ("exec.speedup", "x"),
    ("partition.louvain_s", "s"),
    ("queries.plan_s", "s"),
    ("queries.rwr_ms", "ms"),
    ("queries.php_ms", "ms"),
    ("queries.hop_ms", "ms"),
    ("trace.overhead_frac", "ratio"),
];

/// A metric reading with the number of samples behind it.
#[derive(Clone, Copy, Debug)]
pub struct Reading {
    /// The value, in the metric's unit.
    pub value: f64,
    /// Samples it was computed from.
    pub n: usize,
}

/// What one workload run hands back.
#[derive(Default)]
pub struct Outcome {
    /// Metric readings by name.
    pub metrics: BTreeMap<&'static str, Reading>,
    /// Human-readable lines under the workload's own metric names.
    pub lines: Vec<String>,
    /// Per-layer readings of layers only this workload has, printed as
    /// report lines: `(name, reading, unit)`.
    pub extras: Vec<(&'static str, Reading, &'static str)>,
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that failed or failed a check.
    pub failed: u64,
    /// Descriptions of failed operations and checks.
    pub failures: Vec<String>,
    /// Values that must repeat exactly for a given seed: `(key, value)`.
    pub fingerprint: Vec<(String, String)>,
    /// Nodes of the workload's graph.
    pub nodes: usize,
    /// Edges of the workload's graph.
    pub edges: usize,
}

impl Outcome {
    /// Records `name = value` over `n` samples.
    pub fn set(&mut self, name: &'static str, value: f64, n: usize) {
        self.metrics.insert(name, Reading { value, n });
    }

    /// Records a per-layer reading outside [`PER_LAYER`].
    pub fn extra(&mut self, name: &'static str, value: f64, unit: &'static str, n: usize) {
        self.extras.push((name, Reading { value, n }, unit));
    }

    /// Adds a human-readable line.
    pub fn line(&mut self, line: String) {
        self.lines.push(line);
    }

    /// Counts one operation, failed if `problems` is non-empty.
    pub fn op(&mut self, what: &str, problems: Vec<String>) {
        self.attempted += 1;
        self.failed += u64::from(!problems.is_empty());
        self.failures
            .extend(problems.into_iter().map(|p| format!("{what}: {p}")));
    }

    /// Records a value that must be identical on every run of this seed.
    pub fn pin(&mut self, key: impl Into<String>, value: impl ToString) {
        self.fingerprint.push((key.into(), value.to_string()));
    }
}

/// The result line: `correct`, `attempted`, `failed` and the metrics of
/// `table`, each with its value and unit. Panics if a workload left a
/// metric of the table unset, which is a bug in the benchmark.
pub fn result_json(out: &Outcome, table: &[(&str, &str)]) -> String {
    let (attempted, failed) = (out.attempted, out.failed);
    let mut s = format!(
        "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{",
        failed == 0
    );
    for (i, (name, unit)) in table.iter().enumerate() {
        let r = out
            .metrics
            .get(name)
            .unwrap_or_else(|| panic!("metric {name} was not measured"));
        assert!(r.value.is_finite(), "metric {name} is not finite");
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            s,
            "{sep}\"{name}\": {{\"value\": {:?}, \"unit\": \"{unit}\"}}",
            r.value
        );
    }
    s.push_str("}}");
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tables_match_benchmark_json() {
        let spec =
            std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
                .expect("BENCHMARK.json sits at the repository root");
        let entries = spec.matches("\"name\"").count();
        for (name, unit) in END_TO_END.iter().chain(PER_LAYER) {
            let entry = format!("\"name\": \"{name}\", \"unit\": \"{unit}\"");
            assert!(spec.contains(&entry), "BENCHMARK.json lacks {entry}");
        }
        // Every named entry is a workload or one of the two tables.
        let workloads = spec.matches("\"why\"").count();
        assert_eq!(entries, workloads + END_TO_END.len() + PER_LAYER.len());
    }

    #[test]
    fn result_line_carries_every_metric_with_its_unit() {
        let mut out = Outcome::default();
        out.set("a", 1.5, 3);
        out.set("b", 2.0, 1);
        out.op("op", vec![]);
        let line = result_json(&out, &[("a", "s"), ("b", "count")]);
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 1, \"failed\": 0, \"metrics\": {\"a\": {\"value\": 1.5, \"unit\": \"s\"}, \"b\": {\"value\": 2.0, \"unit\": \"count\"}}}"
        );
    }

    #[test]
    fn failed_operations_are_counted_once() {
        let mut out = Outcome::default();
        out.op("job 1", vec![]);
        out.op("job 2", vec!["x".into(), "y".into()]);
        assert_eq!((out.attempted, out.failed), (2, 1));
        assert_eq!(out.failures.len(), 2);
    }
}
