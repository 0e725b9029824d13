//! `summarize`: one client sends PeGaSus requests back to back (a
//! closed loop) on a Barabási–Albert graph. It exercises the core engine
//! alone: no query, serve or partition code runs.
//!
//! The graph and the pool of target sets are the same for every seed;
//! the seed sets only the order in which requests go through the pool,
//! so that runs of different seeds do the same work.
//!
//! End-to-end readings: `work_per_s` is input edges summarized per
//! second of request time, the latencies are request times (weights BFS
//! plus run), `summary_build_s` is the run alone, and `quality_error`
//! is the Eq.-1 personalized error of each summary under its own target
//! weights, averaged over the target sets.

use std::sync::Arc;
use std::time::{Duration, Instant};

use pgs_core::api::Budget;
use pgs_core::error::personalized_error;
use pgs_core::pegasus::PegasusConfig;
use pgs_graph::gen::barabasi_albert;
use pgs_graph::{Graph, NodeId};

use crate::layers::{
    check_run, probe_louvain, probe_queries, probe_setup, run_pegasus, summary_hash, Timed,
    PROBE_REPS,
};
use crate::report::Outcome;
use crate::stats::{describe, median, tail, Blocks, SplitMix};
use crate::trace::{Trace, Tracer};
use crate::{phase_metrics, repeat_setup};

/// Sized so that a request takes about a second on two hardware
/// threads: a run of 30 s then holds well over the 21 requests the tail
/// rule needs to pick a percentile above the median.
const NODES: usize = 20_000;
const ATTACH: usize = 5;
const TARGETS: usize = 100;
const RATIO: f64 = 0.25;
/// Distinct target sets the requests go through, in seeded blocks that
/// hold each set once; each set repeats, so every run checks that a
/// repeated request gives the same summary.
const POOL: usize = 4;
/// Generator seed of the graph and of the target pool, which are the
/// same for every run.
const INPUT_SEED: u64 = 20;

struct Inputs {
    g: Graph,
    pool: Vec<Vec<NodeId>>,
}

fn make_inputs() -> Inputs {
    let g = barabasi_albert(NODES, ATTACH, INPUT_SEED);
    let mut rng = SplitMix::new(INPUT_SEED, 1);
    let pool = (0..POOL).map(|_| rng.distinct(TARGETS, NODES)).collect();
    Inputs { g, pool }
}

/// Runs the workload for `seconds`, traced when `trace` is set.
pub fn run(seed: u64, seconds: f64, trace: bool) -> Outcome {
    let mut out = Outcome::default();
    let (Inputs { g, pool }, setup) = repeat_setup(make_inputs);
    out.nodes = g.num_nodes();
    out.edges = g.num_edges();
    out.set("setup_s", median(&setup), setup.len());
    out.line(format!(
        "setup_ms {}: barabasi_albert({NODES}, {ATTACH}, {INPUT_SEED}) and {POOL} target sets of {TARGETS}",
        describe(&setup, 1e3)
    ));

    let budget_bits = RATIO * g.size_bits();
    let cfg = PegasusConfig::default();
    if !trace {
        let reqs = closed_loop(&g, &pool, &cfg, budget_bits, None, seed, seconds, &mut out);
        let totals: Vec<f64> = reqs.iter().map(|r| r.t.total_s()).collect();
        let runs: Vec<f64> = reqs.iter().map(|r| r.t.run_s).collect();
        let n = totals.len();
        let edges_per_s = g.num_edges() as f64 / median(&totals);
        let t = tail(&totals);
        out.set("work_per_s", edges_per_s, n);
        out.set("latency_p50_ms", median(&totals) * 1e3, n);
        out.set("latency_tail_ms", t.value * 1e3, n);
        out.set("summary_build_s", median(&runs), n);
        // Every request of a set gives the same error (pinned), so the
        // first block, which holds each set once, stands for them.
        let err = reqs[..POOL].iter().map(|r| r.error).sum::<f64>() / POOL as f64;
        out.set("quality_error", err, POOL);
        out.line(format!(
            "edges_per_s {edges_per_s:.1} 1/s (n={n}, |E|={} over the median request)",
            g.num_edges()
        ));
        out.line(format!(
            "request_ms {}; tail p{:.0} {:.1} ms ({} beyond); run alone {:.3} s",
            describe(&totals, 1e3),
            t.pct,
            t.value * 1e3,
            t.beyond,
            median(&runs)
        ));
        out.line(format!("target_error {err} (mean over {POOL} target sets)"));
        return out;
    }

    // Traced run: every other block of requests traced (so each target
    // set runs both ways), then the standalone probes.
    let on = Arc::new(Tracer::new(true));
    let reqs = closed_loop(
        &g,
        &pool,
        &cfg,
        budget_bits,
        Some(&on),
        seed,
        seconds,
        &mut out,
    );
    let pick =
        |traced: bool| -> Vec<&Done> { reqs.iter().filter(|r| r.traced == traced).collect() };
    let (bare, traced) = (pick(false), pick(true));
    let bare_t: Vec<f64> = bare.iter().map(|r| r.t.total_s()).collect();
    let traced_t: Vec<f64> = traced.iter().map(|r| r.t.total_s()).collect();
    let overhead = median(&traced_t) / median(&bare_t) - 1.0;

    // Thread-count independence: the same request on one thread must
    // give the same bytes.
    let serial_cfg = PegasusConfig {
        num_threads: 1,
        ..cfg.clone()
    };
    let serial = run_pegasus(
        &g,
        &pool[0],
        Budget::Ratio(RATIO),
        &serial_cfg,
        &on,
        u64::MAX,
        None,
    );
    out.op(
        "one-thread request",
        check_run(&g, &serial.out, budget_bits, serial.run_s),
    );
    let set0: Vec<&Done> = reqs.iter().filter(|r| r.set == 0).collect();
    let serial_hash = summary_hash(&serial.out.summary);
    let differ = set0.iter().filter(|r| r.hash != serial_hash).count();
    out.op(
        "thread-count byte identity",
        (differ > 0)
            .then(|| format!("{differ} all-thread summaries differ from the 1-thread one"))
            .into_iter()
            .collect(),
    );
    let set0_t: Vec<f64> = set0.iter().map(|r| r.t.total_s()).collect();
    let speedup = serial.total_s() / median(&set0_t);

    let (new_s, attach_s) = probe_setup(&g, &reqs[0].t.weights, &on, u64::MAX - 1);
    let (louvain_s, _) = probe_louvain(&g, &on, u64::MAX - 2);
    let mut rng = SplitMix::new(seed, 3);
    probe_queries(&g, &reqs[0].t.out.summary, &mut rng, &on, &mut out);
    let spans = Trace::new(on.take());
    let runs: Vec<_> = reqs.iter().map(|r| (&r.t.out.stats, r.t.run_s)).collect();
    phase_metrics(&mut out, &runs);
    let bfs: Vec<f64> = reqs.iter().map(|r| r.t.weights_s).collect();
    out.set("weights.bfs_s", median(&bfs), bfs.len());
    out.set("partition.louvain_s", louvain_s, PROBE_REPS);
    out.set("working.new_s", new_s, PROBE_REPS);
    out.set("shingle.attach_s", attach_s, PROBE_REPS);
    out.set("exec.speedup", speedup, set0_t.len());
    out.set(
        "trace.overhead_frac",
        overhead,
        bare_t.len() + traced_t.len(),
    );
    out.line(format!(
        "exec.speedup {speedup:.3} x: 1 thread {:.3} s / {} threads {:.3} s (n={})",
        serial.total_s(),
        pgs_core::exec::Exec::new(0).threads(),
        median(&set0_t),
        set0_t.len()
    ));
    out.line(format!(
        "trace.overhead_frac {overhead:.4}: traced {:.3} s (n={}) vs untraced {:.3} s (n={})",
        median(&traced_t),
        traced_t.len(),
        median(&bare_t),
        bare_t.len()
    ));
    crate::finish_trace(&mut out, &format!("summarize-{seed}"), &spans);
    out
}

/// One finished request of the closed loop.
struct Done {
    set: usize,
    traced: bool,
    t: Timed,
    hash: u64,
    error: f64,
}

/// Sends requests back to back for `seconds`, going through the target
/// pool in blocks the seed orders, and checks each answer.
#[allow(clippy::too_many_arguments)]
fn closed_loop(
    g: &Graph,
    pool: &[Vec<NodeId>],
    cfg: &PegasusConfig,
    budget_bits: f64,
    on: Option<&Arc<Tracer>>,
    seed: u64,
    seconds: f64,
    out: &mut Outcome,
) -> Vec<Done> {
    let off = Arc::new(Tracer::new(false));
    let stop = Instant::now() + Duration::from_secs_f64(seconds);
    let mut order = Blocks::new(SplitMix::new(seed, 2), POOL);
    let mut done = Vec::new();
    // At least one request per set, and with tracing one traced and one
    // untraced request per set; then whole blocks, so that every run
    // requests each set equally often.
    let min = if on.is_some() { 2 * POOL } else { POOL };
    while done.len() < min || Instant::now() < stop || done.len() % POOL != 0 {
        let (i, set) = (done.len(), order.draw());
        let tracer = on.filter(|_| (i / POOL) % 2 == 1).unwrap_or(&off);
        let t0 = Instant::now();
        let span = tracer.open("summarize.request", None, i as u64, t0);
        let t = run_pegasus(
            g,
            &pool[set],
            Budget::Ratio(RATIO),
            cfg,
            tracer,
            i as u64,
            span,
        );
        tracer.close(span, Instant::now());
        out.op(
            &format!("request {i}"),
            check_run(g, &t.out, budget_bits, t.run_s),
        );
        let error = personalized_error(g, &t.out.summary, &t.weights)
            .expect("summary and weights cover the graph");
        let hash = summary_hash(&t.out.summary);
        let s = &t.out.stats;
        let key = format!("summarize/set{set}");
        out.pin(format!("{key}/evals"), s.evals);
        out.pin(format!("{key}/merges"), s.merges);
        out.pin(format!("{key}/iterations"), s.iterations);
        out.pin(format!("{key}/target_error"), error);
        out.pin(format!("{key}/summary"), hash);
        done.push(Done {
            set,
            traced: tracer.enabled(),
            t,
            hash,
            error,
        });
    }
    done
}
