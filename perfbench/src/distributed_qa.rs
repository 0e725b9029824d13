//! `distributed_qa`: the paper's application (c). Set-up builds a
//! four-machine cluster of personalized PeGaSus summaries over the DB
//! stand-in (a degree-corrected planted partition); then one client
//! sends batches of RWR, PHP and HOP queries back to back (a closed
//! loop), each answered by its node's machine alone.
//!
//! End-to-end readings: `work_per_s` is query nodes answered per second
//! (each batch answers 32 nodes for each of the three query types),
//! the latencies are batch times, `summary_build_s` is the
//! `Cluster::try_build` call, and `quality_error` is the SMAPE of the
//! cluster's RWR answers against exact RWR on a fixed sample.
//!
//! The graph and the cluster are fixed (the DB stand-in has its own
//! generator seed); the seed draws the query nodes.

use std::sync::Arc;
use std::time::{Duration, Instant};

use pgs_core::api::Budget;
use pgs_core::exec::Exec;
use pgs_core::pegasus::PegasusConfig;
use pgs_distributed::{Backend, BatchQuery, Cluster, MachineStore};
use pgs_graph::{Graph, NodeId};
use pgs_queries::{rwr_exact, smape, QueryEngine, PHP_DECAY, RWR_RESTART};

use crate::layers::{
    check_answer, check_run, check_summary, fnv1a, probe_louvain, probe_setup, run_pegasus,
    summary_hash, MACHINES, PARTITION_SEED, PROBE_REPS,
};
use crate::report::Outcome;
use crate::stats::{describe, median, tail, SplitMix};
use crate::trace::{Trace, Tracer};
use crate::{finish_trace, phase_metrics, repeat_setup};

const RATIO: f64 = 0.25;
/// Query nodes per batch, for each query type.
const BATCH: usize = 32;
/// Size of the fixed RWR sample `quality_error` is measured on.
const SMAPE_SAMPLE: usize = 16;
/// The query types of a batch: span name, per-query metric, query.
const QUERIES: [(&str, &str, BatchQuery); 3] = [
    (
        "queries.rwr_batch",
        "queries.rwr_ms",
        BatchQuery::Rwr(RWR_RESTART),
    ),
    (
        "queries.php_batch",
        "queries.php_ms",
        BatchQuery::Php(PHP_DECAY),
    ),
    ("queries.hop_batch", "queries.hop_ms", BatchQuery::Hop),
];

fn build(g: &Graph) -> Cluster {
    let budget = RATIO * g.size_bits();
    let backend = Backend::Pegasus(PegasusConfig::default());
    Cluster::try_build(g, MACHINES, budget, &backend, PARTITION_SEED)
        .expect("the DB stand-in and a positive budget are valid")
}

fn summary(cluster: &Cluster, i: usize) -> &pgs_core::Summary {
    match cluster.machine(i) {
        MachineStore::Summary(s) => s,
        MachineStore::Subgraph(_) => unreachable!("the PeGaSus backend stores summaries"),
    }
}

/// Runs the workload for `seconds`, traced when `trace` is set.
pub fn run(seed: u64, seconds: f64, trace: bool) -> Outcome {
    let mut out = Outcome::default();
    let mut builds = Vec::new();
    let ((g, cluster), setup) = repeat_setup(|| {
        let g = pgs_bench::dataset("DB").graph;
        let t0 = Instant::now();
        let cluster = build(&g);
        builds.push(t0.elapsed().as_secs_f64());
        (g, cluster)
    });
    for i in 0..MACHINES {
        let s = summary(&cluster, i);
        out.op(
            &format!("machine {i} summary"),
            check_summary(&g, s, RATIO * g.size_bits()),
        );
        out.pin(format!("qa/machine{i}/summary"), summary_hash(s));
    }
    out.nodes = g.num_nodes();
    out.edges = g.num_edges();
    out.set("setup_s", median(&setup), setup.len());
    out.set("summary_build_s", median(&builds), builds.len());
    out.line(format!(
        "setup_s {:.4} s, cluster_build_s {:.4} s (n={}): DB stand-in, {MACHINES} machines at ratio {RATIO}",
        median(&setup),
        median(&builds),
        setup.len()
    ));

    let rwr_smape = sample_smape(&g, &cluster, &mut out);
    out.set("quality_error", rwr_smape, SMAPE_SAMPLE);
    out.line(format!(
        "rwr_smape {rwr_smape} (fixed sample of {SMAPE_SAMPLE})"
    ));

    let exec = Exec::new(0);
    let mut rng = SplitMix::new(seed, 2);
    if !trace {
        let batches: Vec<f64> = closed_loop(&g, &cluster, &exec, None, &mut rng, seconds, &mut out)
            .into_iter()
            .map(|(t, _)| t)
            .collect();
        let n = batches.len();
        let answered = (n * BATCH * QUERIES.len()) as f64;
        let qps = answered / batches.iter().sum::<f64>();
        let t = tail(&batches);
        out.set("work_per_s", qps, n);
        out.set("latency_p50_ms", median(&batches) * 1e3, n);
        out.set("latency_tail_ms", t.value * 1e3, n);
        out.line(format!(
            "queries_per_s {qps:.1} 1/s ({answered} answered in {n} batches)"
        ));
        out.line(format!(
            "batch_p50_ms {}; batch_tail_ms p{:.0} {:.2} ms ({} beyond)",
            describe(&batches, 1e3),
            t.pct,
            t.value * 1e3,
            t.beyond
        ));
        return out;
    }

    // Traced run: every other batch traced, then the standalone layer
    // probes.
    let on = Arc::new(Tracer::new(true));
    let batches = closed_loop(&g, &cluster, &exec, Some(&on), &mut rng, seconds, &mut out);
    let pick = |traced: bool| -> Vec<f64> {
        batches
            .iter()
            .filter(|b| b.1 == traced)
            .map(|b| b.0)
            .collect()
    };
    let (bare, traced) = (pick(false), pick(true));
    let overhead = median(&traced) / median(&bare) - 1.0;
    probe_layers(&g, &cluster, &on, &mut out);
    let spans = Trace::new(on.take());
    for (span, metric, _) in QUERIES {
        let per_query: Vec<f64> = spans
            .durations(span)
            .iter()
            .map(|d| d * 1e3 / BATCH as f64)
            .collect();
        out.set(metric, median(&per_query), per_query.len());
    }
    out.set("trace.overhead_frac", overhead, bare.len() + traced.len());
    out.line(format!(
        "trace.overhead_frac {overhead:.4}: traced batch {:.2} ms (n={}) vs untraced {:.2} ms (n={})",
        median(&traced) * 1e3,
        traced.len(),
        median(&bare) * 1e3,
        bare.len()
    ));
    finish_trace(&mut out, &format!("distributed_qa-{seed}"), &spans);
    out
}

/// SMAPE of the cluster's RWR answers against exact RWR on a sample of
/// query nodes that is the same for every seed.
fn sample_smape(g: &Graph, cluster: &Cluster, out: &mut Outcome) -> f64 {
    let sample = SplitMix::new(0, 3).distinct(SMAPE_SAMPLE, g.num_nodes());
    let approx = cluster.query_batch(&sample, BatchQuery::Rwr(RWR_RESTART), &Exec::new(0));
    let mut scores = Vec::new();
    for (q, a) in sample.iter().zip(&approx) {
        let exact = rwr_exact(g, *q, RWR_RESTART);
        out.op(&format!("smape sample {q}"), check_answer(g, a, true));
        scores.push(smape(&exact, a));
    }
    let s = scores.iter().sum::<f64>() / scores.len() as f64;
    out.pin("qa/rwr_smape", s);
    s
}

/// Sends query batches back to back for `seconds` and checks every
/// answer; returns each batch's seconds and whether it was traced
/// (every other batch, given a tracer).
fn closed_loop(
    g: &Graph,
    cluster: &Cluster,
    exec: &Exec,
    on: Option<&Tracer>,
    rng: &mut SplitMix,
    seconds: f64,
    out: &mut Outcome,
) -> Vec<(f64, bool)> {
    let off = Tracer::new(false);
    let stop = Instant::now() + Duration::from_secs_f64(seconds);
    let mut times = Vec::new();
    // With tracing, at least one untraced and one traced batch.
    let min = if on.is_some() { 2 } else { 1 };
    while times.len() < min || Instant::now() < stop {
        let b = times.len() as u64;
        let tracer = on.filter(|_| b % 2 == 1).unwrap_or(&off);
        let qs: Vec<NodeId> = rng.distinct(BATCH, g.num_nodes());
        let t0 = Instant::now();
        let span = tracer.open("qa.batch", None, b, t0);
        let mut answers = Vec::with_capacity(QUERIES.len());
        for (name, _, query) in QUERIES {
            let s = Instant::now();
            answers.push(cluster.query_batch(&qs, query, exec));
            tracer.record_between(name, span, b, s, Instant::now());
        }
        let t1 = Instant::now();
        tracer.close(span, t1);
        times.push(((t1 - t0).as_secs_f64(), tracer.enabled()));
        let mut bad = Vec::new();
        let mut bytes = Vec::new();
        for ((_, _, query), batch) in QUERIES.iter().zip(&answers) {
            if batch.len() != qs.len() {
                bad.push(format!(
                    "{} answers for {} query nodes",
                    batch.len(),
                    qs.len()
                ));
            }
            let finite = !matches!(query, BatchQuery::Hop);
            for a in batch {
                bad.extend(check_answer(g, a, finite));
                bytes.extend(a.iter().flat_map(|x| x.to_bits().to_le_bytes()));
            }
        }
        out.op(&format!("batch {b}"), bad);
        let key = fnv1a(&qs.iter().flat_map(|q| q.to_le_bytes()).collect::<Vec<u8>>());
        out.pin(format!("qa/batch-{key:016x}"), fnv1a(&bytes));
    }
    times
}

/// The standalone probes of the traced run: Louvain, each machine's
/// PeGaSus run as the cluster makes it, the set-up layers on the
/// largest machine's weights, thread scaling of the slowest machine,
/// and the query plans.
fn probe_layers(g: &Graph, cluster: &Cluster, on: &Arc<Tracer>, out: &mut Outcome) {
    let (louvain_s, part) = probe_louvain(g, on, 0);
    out.set("partition.louvain_s", louvain_s, PROBE_REPS);

    // Each machine as `Cluster::try_build` runs it: personalized to its
    // subset, with the hardware threads split over the machines.
    let mut subsets: Vec<Vec<NodeId>> = vec![Vec::new(); MACHINES];
    for (u, &p) in part.iter().enumerate() {
        subsets[p as usize].push(u as NodeId);
    }
    let budget = Budget::Bits(RATIO * g.size_bits());
    let inner = PegasusConfig {
        num_threads: (Exec::new(0).threads() / MACHINES).max(1),
        ..PegasusConfig::default()
    };
    let mut machines = Vec::new();
    for (i, subset) in subsets.iter().enumerate() {
        let t = run_pegasus(g, subset, budget, &inner, on, 1000 + i as u64, None);
        out.op(
            &format!("machine {i} run"),
            check_run(g, &t.out, RATIO * g.size_bits(), t.run_s),
        );
        let same = summary_hash(&t.out.summary) == summary_hash(summary(cluster, i));
        out.op(
            &format!("machine {i} matches the cluster"),
            (!same)
                .then(|| "standalone summary differs from the cluster's".to_string())
                .into_iter()
                .collect(),
        );
        machines.push(t);
    }
    let totals: Vec<f64> = machines.iter().map(|t| t.total_s()).collect();
    let bfs: Vec<f64> = machines.iter().map(|t| t.weights_s).collect();
    out.set("weights.bfs_s", median(&bfs), bfs.len());
    let max = totals.iter().copied().fold(0.0, f64::max);
    let mean = totals.iter().sum::<f64>() / totals.len() as f64;
    out.extra("distributed.machine_max_s", max, "s", totals.len());
    out.extra("distributed.machine_mean_s", mean, "s", totals.len());
    out.line(format!(
        "machine runs {totals:.3?} s at {} inner thread(s)",
        inner.num_threads
    ));
    let runs: Vec<_> = machines.iter().map(|t| (&t.out.stats, t.run_s)).collect();
    phase_metrics(out, &runs);

    let largest = (0..MACHINES).max_by_key(|&i| subsets[i].len()).unwrap_or(0);
    let (new_s, attach_s) = probe_setup(g, &machines[largest].weights, on, 2000);
    out.set("working.new_s", new_s, PROBE_REPS);
    out.set("shingle.attach_s", attach_s, PROBE_REPS);

    // Thread scaling of the slowest machine: its inner-thread run
    // against the same run on every hardware thread.
    let slowest = (0..MACHINES)
        .max_by(|&a, &b| totals[a].total_cmp(&totals[b]))
        .unwrap_or(0);
    let wide = run_pegasus(
        g,
        &subsets[slowest],
        budget,
        &PegasusConfig::default(),
        on,
        3000,
        None,
    );
    let same = summary_hash(&wide.out.summary) == summary_hash(&machines[slowest].out.summary);
    out.op(
        "thread-count byte identity",
        (!same)
            .then(|| "all-thread machine summary differs".to_string())
            .into_iter()
            .collect(),
    );
    let speedup = machines[slowest].total_s() / wide.total_s();
    out.set("exec.speedup", speedup, 1);
    out.line(format!(
        "exec.speedup {speedup:.3} x: machine {slowest} at {} thread(s) {:.3} s / all threads {:.3} s",
        inner.num_threads,
        machines[slowest].total_s(),
        wide.total_s()
    ));

    // Plan compilation for every machine, as each batch pays it.
    let mut plans = Vec::new();
    for _ in 0..PROBE_REPS {
        let t0 = Instant::now();
        for i in 0..MACHINES {
            std::hint::black_box(QueryEngine::new(summary(cluster, i)));
        }
        let t1 = Instant::now();
        on.record_between("queries.plan", None, 4000, t0, t1);
        plans.push((t1 - t0).as_secs_f64());
    }
    out.set("queries.plan_s", median(&plans), plans.len());
}
