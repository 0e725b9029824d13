//! Merge-evaluation throughput experiment: summarizes a generated
//! Barabási–Albert graph with both evaluators — `cached` (the
//! group-local superedge-weight cache of DESIGN.md §7, the default) and
//! `scan` (canonical-order member-edge rescans, the equivalence
//! oracle) — and writes a machine-readable `BENCH_summarize.json` with
//! merge-evals/sec and end-to-end wall time for each, plus the
//! cached-vs-scan speedup. Output identity across evaluators is
//! measured and *reported* (`scan_output_identical_to_cached`), not
//! asserted — the fixed-seed suite in
//! `crates/core/tests/eval_equivalence.rs` is the equivalence
//! regression gate. The only hard assertion here is cross-repetition
//! determinism per evaluator.
//!
//! ```text
//! cargo run --release --bin exp_summarize [-- <out.json>]
//! PGS_SUM_NODES=50000 PGS_SUM_DEG=10 cargo run --release --bin exp_summarize
//! ```
//!
//! Knobs: `PGS_SUM_NODES` (default 20_000), `PGS_SUM_DEG` (default 10 —
//! about `nodes × deg` edges), `PGS_SUM_RATIO` (default 0.25, the
//! paper's compression-heavy regime), `PGS_SUM_REPS` (default 3 — reps
//! interleave across the evaluators and each reports its fastest run,
//! the standard defense against scheduler noise), `PGS_THREADS`
//! (default 0 = all hardware threads).

use std::fmt::Write as _;

use pgs_bench::{env_or, num_threads, timed};
use pgs_core::api::{Budget, Pegasus, StopReason, SummarizeRequest, Summarizer};
use pgs_core::pegasus::{PegasusConfig, RunStats};
use pgs_core::working::MergeEvaluator;
use pgs_core::Summary;
use pgs_graph::gen::barabasi_albert;

struct Run {
    label: &'static str,
    wall_secs: f64,
    stats: RunStats,
    stop: StopReason,
}

impl Run {
    fn evals_per_sec(&self) -> f64 {
        self.stats.evals as f64 / self.stats.phases.evaluate.max(1e-12)
    }
}

fn fingerprint(s: &Summary) -> Vec<u32> {
    (0..s.num_nodes() as u32)
        .map(|u| s.supernode_of(u))
        .collect()
}

fn main() {
    let out_path = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "BENCH_summarize.json".to_string());
    let nodes: usize = env_or("PGS_SUM_NODES", 20_000);
    let deg: usize = env_or("PGS_SUM_DEG", 10);
    let ratio: f64 = env_or("PGS_SUM_RATIO", 0.25);
    let reps: usize = env_or("PGS_SUM_REPS", 3).max(1);
    let threads = num_threads();

    let (g, gen_secs) = timed(|| barabasi_albert(nodes, deg, 42));
    let budget = ratio * g.size_bits();
    eprintln!(
        "# graph: |V| = {}, |E| = {}, budget ratio {ratio}; threads {threads} \
         (hardware {}); generated in {gen_secs:.2}s",
        g.num_nodes(),
        g.num_edges(),
        rayon::current_num_threads()
    );

    // Two evaluators: `cached` (the default) and `scan` (dense scratch,
    // canonical order — byte-identical to cached in every regime
    // measured; pinned on fixed seeds by eval_equivalence.rs).
    //
    // Repetitions are *interleaved* (cached, scan, cached, …)
    // and each evaluator reports its fastest rep: on a shared box where
    // load drifts over minutes, interleaving exposes every evaluator to
    // the same conditions, and best-of-N discards the stolen-CPU
    // samples. Summaries must not vary across reps — the engine is
    // deterministic, so any variation is a bug.
    const EVALUATORS: [(&str, MergeEvaluator); 2] = [
        ("cached", MergeEvaluator::Cached),
        ("scan", MergeEvaluator::Scan),
    ];
    let mut best: [Option<(Summary, RunStats, StopReason)>; 2] = [None, None];
    let mut walls = [f64::INFINITY; 2];
    for _ in 0..reps {
        for (slot, &(label, evaluator)) in EVALUATORS.iter().enumerate() {
            let alg = Pegasus(PegasusConfig {
                num_threads: threads,
                evaluator,
                ..Default::default()
            });
            let req = SummarizeRequest::new(Budget::Bits(budget)).targets(&[0, 1, 2]);
            let (out, wall) = timed(|| alg.run(&g, &req).expect("valid request"));
            let (summary, stats, stop) = (out.summary, out.stats, out.stop);
            walls[slot] = walls[slot].min(wall);
            best[slot] = match best[slot].take() {
                None => Some((summary, stats, stop)),
                Some((prev, prev_stats, prev_stop)) => {
                    assert_eq!(
                        fingerprint(&prev),
                        fingerprint(&summary),
                        "{label}: summaries varied across repetitions — determinism bug"
                    );
                    if stats.phases.evaluate < prev_stats.phases.evaluate {
                        Some((summary, stats, stop))
                    } else {
                        Some((prev, prev_stats, prev_stop))
                    }
                }
            };
        }
    }

    let mut runs = Vec::new();
    let mut reference: Option<Vec<u32>> = None;
    // Scan-vs-cached identity holds on every graph we've measured, but
    // DESIGN.md §7 documents a legitimate ulp-level escape hatch after
    // intra-group merges — so the identity flag is *reported*, not
    // asserted (the fixed-seed tests in eval_equivalence.rs are the
    // regression gate).
    let mut scan_identical = true;
    for (slot, &(label, _)) in EVALUATORS.iter().enumerate() {
        let (summary, stats, stop) = best[slot].take().expect("reps >= 1");
        let wall_secs = walls[slot];
        let fp = fingerprint(&summary);
        match &reference {
            None => reference = Some(fp),
            Some(r) => {
                scan_identical = *r == fp;
                if !scan_identical {
                    eprintln!(
                        "# WARNING: scan summary differs from cached on this graph — \
                         a documented ulp-tie effect, or a regression; check \
                         eval_equivalence tests"
                    );
                }
            }
        }
        let run = Run {
            label,
            wall_secs,
            stats,
            stop,
        };
        eprintln!(
            "# {label:>12}: {wall_secs:>7.2}s end-to-end, {:.2}s in evaluate, \
             {} merge-evals ({:.0}/s), {} merges, |S| {}, stop {}",
            stats.phases.evaluate,
            stats.evals,
            run.evals_per_sec(),
            stats.merges,
            summary.num_supernodes(),
            stop
        );
        runs.push(run);
    }

    let (cached, scan) = (&runs[0], &runs[1]);
    let speedup_evals = cached.evals_per_sec() / scan.evals_per_sec();
    let speedup_wall = scan.wall_secs / cached.wall_secs;
    eprintln!(
        "# speedup vs scan: {speedup_evals:.2}x merge-evals/sec, \
         {speedup_wall:.2}x end-to-end wall time"
    );

    // Hand-rolled JSON (the workspace is offline — no serde).
    let mut json = String::new();
    writeln!(json, "{{").unwrap();
    writeln!(json, "  \"benchmark\": \"summarize_merge_eval\",").unwrap();
    writeln!(json, "  \"graph\": {{").unwrap();
    writeln!(json, "    \"generator\": \"barabasi_albert\",").unwrap();
    writeln!(json, "    \"nodes\": {},", g.num_nodes()).unwrap();
    writeln!(json, "    \"edges\": {},", g.num_edges()).unwrap();
    writeln!(json, "    \"seed\": 42,").unwrap();
    writeln!(json, "    \"budget_ratio\": {ratio}").unwrap();
    writeln!(json, "  }},").unwrap();
    writeln!(json, "  \"threads\": {threads},").unwrap();
    writeln!(json, "  \"reps_best_of\": {reps},").unwrap();
    writeln!(
        json,
        "  \"hardware_threads\": {},",
        rayon::current_num_threads()
    )
    .unwrap();
    writeln!(
        json,
        "  \"scan_output_identical_to_cached\": {scan_identical},"
    )
    .unwrap();
    writeln!(json, "  \"runs\": [").unwrap();
    for (i, run) in runs.iter().enumerate() {
        let comma = if i + 1 < runs.len() { "," } else { "" };
        writeln!(
            json,
            "    {{\"evaluator\": \"{}\", \"wall_secs\": {:.4}, \
             \"eval_secs\": {:.4}, \"merge_evals\": {}, \
             \"merge_evals_per_sec\": {:.1}, \"merges\": {}, \
             \"iterations\": {}, \"stop_reason\": \"{}\"}}{comma}",
            run.label,
            run.wall_secs,
            run.stats.phases.evaluate,
            run.stats.evals,
            run.evals_per_sec(),
            run.stats.merges,
            run.stats.iterations,
            run.stop
        )
        .unwrap();
    }
    writeln!(json, "  ],").unwrap();
    writeln!(
        json,
        "  \"speedup_merge_evals_per_sec\": {speedup_evals:.4},"
    )
    .unwrap();
    writeln!(json, "  \"speedup_wall\": {speedup_wall:.4}").unwrap();
    writeln!(json, "}}").unwrap();
    std::fs::write(&out_path, &json).expect("writing BENCH_summarize.json");
    eprintln!("# wrote {out_path}");
    println!("{json}");
}
