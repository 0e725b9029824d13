//! Calls into the engine layers shared by the workloads: one traced
//! PeGaSus request, the standalone set-up probes, and the output checks.

use std::sync::{Arc, Mutex};
use std::time::Instant;

use pgs_core::api::{Budget, Pegasus, RunOutput, StopReason, SummarizeRequest, Summarizer};
use pgs_core::cost::CostModel;
use pgs_core::exec::Exec;
use pgs_core::pegasus::{PegasusConfig, PhaseTimings, RunStats};
use pgs_core::shingle::attach_signatures;
use pgs_core::summary_io::write_summary_to;
use pgs_core::working::WorkingSummary;
use pgs_core::{NodeWeights, Summary};
use pgs_graph::{Graph, NodeId};
use pgs_partition::Method;
use pgs_queries::{QueryEngine, PHP_DECAY, RWR_RESTART};

use crate::report::Outcome;
use crate::stats::{median, SplitMix};
use crate::trace::Tracer;

/// One PeGaSus request as the benchmark timed it.
pub struct Timed {
    /// What the summarizer returned.
    pub out: RunOutput,
    /// Seconds in `NodeWeights::personalized`.
    pub weights_s: f64,
    /// Seconds in `Summarizer::run`.
    pub run_s: f64,
    /// The weights the run was personalized with.
    pub weights: NodeWeights,
}

impl Timed {
    /// Seconds of the whole request, weights included.
    pub fn total_s(&self) -> f64 {
        self.weights_s + self.run_s
    }
}

/// Runs one PeGaSus request: builds the Eq.-2 weights for `targets`,
/// then summarizes with them prebuilt. With tracing on, records the
/// request's `weights.bfs` and `pegasus.run` spans under `parent`, and
/// per-iteration spans with their phase children from the request's
/// observer hook.
pub fn run_pegasus(
    g: &Graph,
    targets: &[NodeId],
    budget: Budget,
    cfg: &PegasusConfig,
    tracer: &Arc<Tracer>,
    request: u64,
    parent: Option<usize>,
) -> Timed {
    let t0 = Instant::now();
    let weights = NodeWeights::personalized(g, targets, cfg.alpha);
    let t1 = Instant::now();
    tracer.record_between("weights.bfs", parent, request, t0, t1);
    let mut req = SummarizeRequest::new(budget).weights(weights.clone());
    let run_span = tracer.open("pegasus.run", parent, request, t1);
    if tracer.enabled() {
        req = req.observer(iteration_observer(
            Arc::clone(tracer),
            run_span,
            request,
            t1,
        ));
    }
    let t2 = Instant::now();
    let out = Pegasus(cfg.clone())
        .run(g, &req)
        .expect("benchmark requests are valid by construction");
    let t3 = Instant::now();
    tracer.close(run_span, t3);
    if tracer.enabled() && out.stats.phases.sparsify > 0.0 {
        let end = tracer.at(t3);
        tracer.record(
            "pegasus.sparsify",
            run_span,
            request,
            end - out.stats.phases.sparsify,
            end,
        );
    }
    Timed {
        out,
        weights_s: (t1 - t0).as_secs_f64(),
        run_s: (t3 - t2).as_secs_f64(),
        weights,
    }
}

/// An observer that turns each iteration's notification into a
/// `pegasus.iteration` span from the previous notification, with the
/// differenced cumulative phases laid back to back before it in the
/// order the engine runs them.
pub fn iteration_observer(
    tracer: Arc<Tracer>,
    run_span: Option<usize>,
    request: u64,
    start: Instant,
) -> impl Fn(&RunStats) + Send + Sync + 'static {
    let prev = Mutex::new((tracer.at(start), PhaseTimings::default()));
    move |stats: &RunStats| {
        let now = tracer.at(Instant::now());
        let mut prev = prev.lock().expect("observer state poisoned");
        let (from, before) = *prev;
        let p = stats.phases;
        let it = tracer.record("pegasus.iteration", run_span, request, from, now);
        let mut end = now;
        for (name, d) in [
            ("pegasus.commit", p.commit - before.commit),
            ("pegasus.evaluate", p.evaluate - before.evaluate),
            ("pegasus.candidates", p.candidates - before.candidates),
        ] {
            tracer.record(name, it, request, end - d, end);
            end -= d;
        }
        *prev = (now, p);
    }
}

/// Times each standalone probe is repeated; a probe reports the median.
pub const PROBE_REPS: usize = 3;

/// Times standalone `WorkingSummary::new` and `attach_signatures` calls
/// on `g` with `weights`, [`PROBE_REPS`] times each, recording `working.new` and
/// `shingle.attach` spans. The bank gets the lanes PeGaSus gives its
/// default shingle depth (the depth clamped to 8..32). Returns the
/// median seconds of each.
pub fn probe_setup(g: &Graph, weights: &NodeWeights, tracer: &Tracer, request: u64) -> (f64, f64) {
    let exec = Exec::new(0);
    let cfg = PegasusConfig::default();
    let lanes = cfg.shingle_depth.clamp(8, 32);
    let (mut new_s, mut attach_s) = (Vec::new(), Vec::new());
    for _ in 0..PROBE_REPS {
        let t0 = Instant::now();
        let mut ws = WorkingSummary::new(g, weights, CostModel::ErrorCorrection);
        let t1 = Instant::now();
        attach_signatures(&mut ws, cfg.seed, lanes, &exec);
        let t2 = Instant::now();
        std::hint::black_box(&ws);
        tracer.record_between("working.new", None, request, t0, t1);
        tracer.record_between("shingle.attach", None, request, t1, t2);
        new_s.push((t1 - t0).as_secs_f64());
        attach_s.push((t2 - t1).as_secs_f64());
    }
    (median(&new_s), median(&attach_s))
}

/// Machines the partition probe splits a graph into, as the
/// distributed application does.
pub const MACHINES: usize = 4;
/// Louvain seed of the partition probe and of the cluster build.
pub const PARTITION_SEED: u64 = 7;

/// Times a standalone Louvain partition of `g` into [`MACHINES`] parts,
/// [`PROBE_REPS`] times, recording `partition.louvain` spans. Returns the median
/// seconds and the last partition.
pub fn probe_louvain(g: &Graph, tracer: &Tracer, request: u64) -> (f64, Vec<u32>) {
    let mut times = Vec::new();
    let mut part = Vec::new();
    for _ in 0..PROBE_REPS {
        let t0 = Instant::now();
        part = Method::Louvain.partition(g, MACHINES, PARTITION_SEED);
        let t1 = Instant::now();
        tracer.record_between("partition.louvain", None, request, t0, t1);
        times.push((t1 - t0).as_secs_f64());
    }
    (median(&times), part)
}

/// Query nodes per type in the query probe.
const PROBE_QUERIES: usize = 16;

/// Times the query engine on summary `s` of `g`: [`PROBE_REPS`] plan builds,
/// then one batch of each query type over seeded nodes, checking every
/// answer. Sets `queries.plan_s` and the per-query `queries.*_ms`.
pub fn probe_queries(
    g: &Graph,
    s: &Summary,
    rng: &mut SplitMix,
    tracer: &Tracer,
    out: &mut Outcome,
) {
    let mut plans = Vec::new();
    for _ in 0..PROBE_REPS {
        let t0 = Instant::now();
        std::hint::black_box(QueryEngine::new(s));
        let t1 = Instant::now();
        tracer.record_between("queries.plan", None, u64::MAX, t0, t1);
        plans.push((t1 - t0).as_secs_f64());
    }
    out.set("queries.plan_s", median(&plans), plans.len());
    let engine = QueryEngine::new(s);
    let exec = Exec::new(0);
    let qs = rng.distinct(PROBE_QUERIES, g.num_nodes());
    let per_query = |t0: Instant| t0.elapsed().as_secs_f64() * 1e3 / qs.len() as f64;
    let t0 = Instant::now();
    let rwr = engine.rwr_batch(&qs, RWR_RESTART, &exec);
    out.set("queries.rwr_ms", per_query(t0), qs.len());
    let t0 = Instant::now();
    let php = engine.php_batch(&qs, PHP_DECAY, &exec);
    out.set("queries.php_ms", per_query(t0), qs.len());
    let t0 = Instant::now();
    let hops = engine.hops_batch(&qs, &exec);
    out.set("queries.hop_ms", per_query(t0), qs.len());
    let mut bad = Vec::new();
    for a in rwr.iter().chain(&php) {
        bad.extend(check_answer(g, a, true));
    }
    for h in &hops {
        if h.len() != g.num_nodes() {
            bad.push(format!("hop answer has {} entries", h.len()));
        }
    }
    out.op("query probe", bad);
}

/// A query answer has one entry per node, and finite scores where
/// `finite` (RWR and PHP; HOP marks unreachable nodes infinite).
pub fn check_answer(g: &Graph, a: &[f64], finite: bool) -> Vec<String> {
    let mut bad = Vec::new();
    if a.len() != g.num_nodes() {
        bad.push(format!(
            "answer has {} entries for {} nodes",
            a.len(),
            g.num_nodes()
        ));
    }
    if finite && a.iter().any(|x| !x.is_finite()) {
        bad.push("answer has a non-finite score".into());
    }
    bad
}

/// Checks one summary against its input graph and budget. Returns a
/// description of each failed check.
pub fn check_summary(g: &Graph, s: &Summary, budget_bits: f64) -> Vec<String> {
    let mut bad = Vec::new();
    if s.size_bits() > budget_bits {
        bad.push(format!(
            "summary size {} bits over budget {budget_bits}",
            s.size_bits()
        ));
    }
    if s.num_nodes() != g.num_nodes() {
        bad.push(format!(
            "summary covers {} nodes, graph has {}",
            s.num_nodes(),
            g.num_nodes()
        ));
    }
    bad
}

/// Checks a finished run: its summary, a met budget, and the phase-sum
/// invariant (the engine's phases fit in the measured run span).
pub fn check_run(g: &Graph, out: &RunOutput, budget_bits: f64, span_s: f64) -> Vec<String> {
    let mut bad = check_summary(g, &out.summary, budget_bits);
    if out.stop != StopReason::BudgetMet {
        bad.push(format!(
            "stopped with {}, not budget-met",
            out.stop.as_str()
        ));
    }
    let phases = out.stats.phases.total();
    if phases > span_s {
        bad.push(format!(
            "phases sum to {phases} s, over the run span {span_s} s"
        ));
    }
    bad
}

/// FNV-1a hash of the summary's serialized bytes.
pub fn summary_hash(s: &Summary) -> u64 {
    let mut bytes = Vec::new();
    write_summary_to(s, &mut bytes).expect("writing to memory cannot fail");
    fnv1a(&bytes)
}

/// FNV-1a over `bytes`.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ b as u64).wrapping_mul(0x0100_0000_01b3)
    })
}
