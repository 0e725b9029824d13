//! `serve`: the multi-tenant `SummaryService` under an open loop. One
//! generator thread submits jobs at a fixed rate below saturation for
//! four tenants over a skewed, dense R-MAT graph, and polls
//! `metrics_snapshot()` between arrivals. Each job's targets come from
//! a pool of sets, so repeats hit the weight cache.
//!
//! The graph and the pool are the same for every seed. Each job is one
//! (target set, budget) pair, and the jobs go through all the pairs in
//! blocks that hold each pair once; the seed sets only their order, so
//! that runs of different seeds offer the same mix of work.
//!
//! End-to-end readings: `work_per_s` is jobs completed per second (it
//! stays at the offered rate until a backlog grows), the latencies are
//! job latencies timed from each job's due time, `summary_build_s` is
//! the median worker time of a job, and `quality_error` is the mean
//! Eq.-1 personalized error of the served summaries under their own
//! target weights, over the distinct (target set, budget) pairs served.

use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

use pgs_core::api::{Budget, Pegasus, StopReason, SummarizeRequest};
use pgs_core::error::personalized_error;
use pgs_core::pegasus::PegasusConfig;
use pgs_core::NodeWeights;
use pgs_graph::gen::rmat;
use pgs_graph::{Graph, NodeId};
use pgs_serve::{JobTimings, ServiceConfig, SubmitRequest, SummaryHandle, SummaryService};

use crate::layers::{
    check_run, check_summary, iteration_observer, probe_louvain, probe_queries, probe_setup,
    run_pegasus, summary_hash, PROBE_REPS,
};
use crate::report::Outcome;
use crate::stats::{describe, median, open_loop_timing, tail, Blocks, Schedule, SplitMix};
use crate::trace::{Trace, Tracer};
use crate::{finish_trace, phase_metrics, repeat_setup};

const SCALE: u32 = 12;
const EDGES: usize = 50_000;
const TENANTS: usize = 4;
const BUDGETS: [f64; 4] = [0.7, 0.55, 0.4, 0.25];
/// Target sets in the pool jobs draw from.
const POOL: usize = 8;
const TARGETS: usize = 16;
/// Offered load, jobs per second: 30 s then offers three whole blocks
/// of (target set, budget) pairs.
const RATE: f64 = 3.2;
/// Generator seed of the R-MAT graph and of the target pool, which are
/// the same for every run.
const INPUT_SEED: u64 = 106;
/// How often the generator polls `metrics_snapshot()`.
const POLL: Duration = Duration::from_millis(100);

struct Inputs {
    g: Arc<Graph>,
    pool: Vec<Vec<NodeId>>,
    svc: SummaryService,
}

fn make_inputs() -> Inputs {
    let g = Arc::new(rmat(SCALE, EDGES, 0.57, 0.19, 0.19, INPUT_SEED));
    let mut rng = SplitMix::new(INPUT_SEED, 1);
    let pool = (0..POOL)
        .map(|_| rng.distinct(TARGETS, g.num_nodes()))
        .collect();
    let svc = SummaryService::new(
        Arc::clone(&g),
        Arc::new(Pegasus::default()),
        ServiceConfig::default(),
    );
    Inputs { g, pool, svc }
}

/// One submitted job.
struct Sent {
    handle: SummaryHandle,
    pair: usize,
    set: usize,
    budget: f64,
    due: Instant,
    sent: Instant,
    admit_s: f64,
}

/// One finished job.
struct Served {
    pair: usize,
    traced: bool,
    timings: JobTimings,
    latency_s: f64,
    late_s: f64,
    admit_s: f64,
    finished: Instant,
    stats: pgs_core::pegasus::RunStats,
    error: f64,
}

/// What one open-loop window measured.
struct Window {
    jobs: Vec<Served>,
    start: Instant,
    depth_max: usize,
    polls: Vec<f64>,
}

impl Window {
    fn jobs_per_s(&self) -> f64 {
        let end = self
            .jobs
            .iter()
            .map(|j| j.finished)
            .max()
            .unwrap_or(self.start);
        self.jobs.len() as f64 / (end - self.start).as_secs_f64()
    }
}

/// Runs the workload for `seconds`, traced when `trace` is set.
pub fn run(seed: u64, seconds: f64, trace: bool) -> Outcome {
    let mut out = Outcome::default();
    let (Inputs { g, pool, svc }, setup) = repeat_setup(make_inputs);
    out.nodes = g.num_nodes();
    out.edges = g.num_edges();
    out.set("setup_s", median(&setup), setup.len());
    out.line(format!(
        "setup_ms {}: rmat({SCALE}, {EDGES}, {INPUT_SEED}), {POOL} target sets of {TARGETS}, service start",
        describe(&setup, 1e3)
    ));
    let oracle: Vec<NodeWeights> = pool
        .iter()
        .map(|t| NodeWeights::personalized(&g, t, PegasusConfig::default().alpha))
        .collect();
    let mut order = Blocks::new(SplitMix::new(seed, 2), POOL * BUDGETS.len());

    if !trace {
        let w = open_loop(
            &svc, &g, &pool, &oracle, None, &mut order, seconds, &mut out,
        );
        let lat: Vec<f64> = w.jobs.iter().map(|j| j.latency_s).collect();
        let runs: Vec<f64> = w.jobs.iter().map(|j| j.timings.run_secs).collect();
        let n = lat.len();
        let t = tail(&lat);
        let jps = w.jobs_per_s();
        // Every job of a pair gives the same error (pinned), so each
        // pair served counts once.
        let mut by_pair = BTreeMap::new();
        for j in &w.jobs {
            by_pair.insert(j.pair, j.error);
        }
        let err = by_pair.values().sum::<f64>() / by_pair.len() as f64;
        out.set("work_per_s", jps, n);
        out.set("latency_p50_ms", median(&lat) * 1e3, n);
        out.set("latency_tail_ms", t.value * 1e3, n);
        out.set("summary_build_s", median(&runs), n);
        out.set("quality_error", err, by_pair.len());
        out.line(format!(
            "jobs_per_s {jps:.3} 1/s ({n} jobs offered at {RATE} 1/s)"
        ));
        out.line(format!(
            "job_p50_s {}; job_tail_s p{:.0} {:.4} s ({} beyond); from each due time",
            describe(&lat, 1.0),
            t.pct,
            t.value,
            t.beyond
        ));
        let late: Vec<f64> = w.jobs.iter().map(|j| j.late_s).collect();
        out.line(format!(
            "generator lateness max {:.3} ms; queue depth max {}",
            late.iter().copied().fold(0.0, f64::max) * 1e3,
            w.depth_max
        ));
        out.line(format!(
            "target_error {err} (mean over {} (target set, budget) pairs of {n} jobs)",
            by_pair.len()
        ));
        return out;
    }

    // Traced run: every other job traced, then the probes.
    let on = Arc::new(Tracer::new(true));
    let w = open_loop(
        &svc,
        &g,
        &pool,
        &oracle,
        Some(&on),
        &mut order,
        seconds,
        &mut out,
    );
    let run_of = |traced: bool| {
        let runs: Vec<f64> = w
            .jobs
            .iter()
            .filter(|j| j.traced == traced)
            .map(|j| j.timings.run_secs)
            .collect();
        (median(&runs), runs.len())
    };
    let ((bare_run, bare_n), (traced_run, traced_n)) = (run_of(false), run_of(true));
    let overhead = traced_run / bare_run - 1.0;
    let n = w.jobs.len();
    let col = |f: &dyn Fn(&Served) -> f64| w.jobs.iter().map(f).collect::<Vec<f64>>();

    let runs: Vec<_> = w
        .jobs
        .iter()
        .map(|j| (&j.stats, j.timings.run_secs))
        .collect();
    phase_metrics(&mut out, &runs);
    let cache = svc.cache_stats();
    let lookups = cache.hits + cache.misses;
    let hit_ratio = cache.hits as f64 / lookups.max(1) as f64;
    let waits = col(&|j| j.timings.wait_secs);
    out.extra(
        "serve.admit_ms",
        median(&col(&|j| j.admit_s)) * 1e3,
        "ms",
        n,
    );
    out.extra("serve.wait_p50_s", median(&waits), "s", n);
    out.extra("serve.wait_tail_s", tail(&waits).value, "s", n);
    out.extra("serve.run_s", median(&col(&|j| j.timings.run_secs)), "s", n);
    out.extra(
        "serve.job_evaluate_s",
        median(&col(&|j| j.stats.phases.evaluate)),
        "s",
        n,
    );
    out.extra("serve.queue_depth_max", w.depth_max as f64, "count", n);
    out.extra(
        "serve.gen_late_ms",
        tail(&col(&|j| j.late_s)).value * 1e3,
        "ms",
        n,
    );
    out.extra(
        "serve.cache_hit_ratio",
        hit_ratio,
        "ratio",
        lookups as usize,
    );
    out.extra(
        "serve.cache_lookups",
        lookups as f64,
        "count",
        lookups as usize,
    );
    out.extra(
        "observe.snapshot_ms",
        median(&w.polls) * 1e3,
        "ms",
        w.polls.len(),
    );
    out.set("trace.overhead_frac", overhead, n);
    out.line(format!(
        "serve.cache_hit_ratio {hit_ratio:.3}: {} hits of {lookups} lookups",
        cache.hits
    ));
    out.line(format!(
        "trace.overhead_frac {overhead:.4}: traced job run {traced_run:.4} s (n={traced_n}) vs untraced {bare_run:.4} s (n={bare_n})"
    ));

    // A lone job on the idle machine, on every hardware thread and on
    // one: the contention baseline and the thread scaling.
    drop(svc);
    let ratio = BUDGETS[BUDGETS.len() - 1];
    let cfg = PegasusConfig::default();
    let lone = run_pegasus(&g, &pool[0], Budget::Ratio(ratio), &cfg, &on, 5000, None);
    let serial_cfg = PegasusConfig {
        num_threads: 1,
        ..cfg.clone()
    };
    let serial = run_pegasus(
        &g,
        &pool[0],
        Budget::Ratio(ratio),
        &serial_cfg,
        &on,
        5001,
        None,
    );
    let bits = ratio * g.size_bits();
    out.op("lone job", check_run(&g, &lone.out, bits, lone.run_s));
    out.op(
        "one-thread lone job",
        check_run(&g, &serial.out, bits, serial.run_s),
    );
    let same = summary_hash(&lone.out.summary) == summary_hash(&serial.out.summary);
    out.op(
        "thread-count byte identity",
        (!same)
            .then(|| "1-thread summary differs".to_string())
            .into_iter()
            .collect(),
    );
    out.extra(
        "serve.lone_evaluate_s",
        lone.out.stats.phases.evaluate,
        "s",
        1,
    );
    out.set("exec.speedup", serial.total_s() / lone.total_s(), 1);
    out.line(format!(
        "lone job evaluate {:.4} s vs served median {:.4} s; 1 thread {:.4} s / all threads {:.4} s",
        lone.out.stats.phases.evaluate,
        median(&col(&|j| j.stats.phases.evaluate)),
        serial.total_s(),
        lone.total_s()
    ));

    // The set-up layers, standalone: the Eq.-2 BFS of every pool set
    // (what a cache miss pays at admission) and the working summary.
    let mut bfs = Vec::new();
    for t in &pool {
        let t0 = Instant::now();
        std::hint::black_box(NodeWeights::personalized(&g, t, cfg.alpha));
        let t1 = Instant::now();
        on.record_between("weights.bfs", None, 6000, t0, t1);
        bfs.push((t1 - t0).as_secs_f64());
    }
    out.set("weights.bfs_s", median(&bfs), bfs.len());
    let (new_s, attach_s) = probe_setup(&g, &oracle[0], &on, 7000);
    out.set("working.new_s", new_s, PROBE_REPS);
    out.set("shingle.attach_s", attach_s, PROBE_REPS);
    let (louvain_s, _) = probe_louvain(&g, &on, 8000);
    out.set("partition.louvain_s", louvain_s, PROBE_REPS);
    let mut qrng = SplitMix::new(seed, 3);
    probe_queries(&g, &lone.out.summary, &mut qrng, &on, &mut out);
    let spans = Trace::new(on.take());
    finish_trace(&mut out, &format!("serve-{seed}"), &spans);
    out
}

/// Submits jobs on the open-loop schedule for `seconds`, polling the
/// metrics snapshot between arrivals, then waits for every job and
/// checks it.
#[allow(clippy::too_many_arguments)]
fn open_loop(
    svc: &SummaryService,
    g: &Graph,
    pool: &[Vec<NodeId>],
    oracle: &[NodeWeights],
    on: Option<&Arc<Tracer>>,
    order: &mut Blocks,
    seconds: f64,
    out: &mut Outcome,
) -> Window {
    let off = Arc::new(Tracer::new(false));
    let poll_tracer = on.unwrap_or(&off);
    let start = Instant::now();
    let sched = Schedule::new(start, RATE);
    // Whole blocks of pairs, so that every run offers the same mix of
    // work; at least one, so that a traced window has one job of each
    // kind.
    let pairs = (POOL * BUDGETS.len()) as f64;
    let jobs_due = ((seconds * RATE / pairs).round().max(1.0) * pairs) as u32;
    let mut sent = Vec::new();
    let mut polls = Vec::new();
    let mut depth_max = 0;
    let mut next_poll = start;
    for i in 0..jobs_due {
        let due = sched.due(i);
        loop {
            let now = Instant::now();
            if now >= due {
                break;
            }
            if now >= next_poll {
                let snap = svc.metrics_snapshot();
                let t1 = Instant::now();
                std::hint::black_box(&snap);
                poll_tracer.record_between("observe.snapshot", None, u64::MAX, now, t1);
                polls.push((t1 - now).as_secs_f64());
                next_poll += POLL;
            } else {
                std::thread::sleep(due.min(next_poll) - now);
            }
        }
        let i = i as usize;
        let tracer = on.filter(|_| i % 2 == 1).unwrap_or(&off);
        let pair = order.draw();
        let (set, budget) = (pair % POOL, BUDGETS[pair / POOL]);
        depth_max = depth_max.max(svc.pending());
        let t0 = Instant::now();
        let job_span = tracer.open("serve.job", None, i as u64, due);
        let mut req = SummarizeRequest::new(Budget::Ratio(budget)).targets(&pool[set]);
        if tracer.enabled() {
            // The first iteration's span starts at admission, so it also
            // covers admission and queueing; the admit span is therefore
            // recorded beside the job's span rather than under it.
            req = req.observer(iteration_observer(
                Arc::clone(tracer),
                job_span,
                i as u64,
                t0,
            ));
        }
        let handle = svc
            .submit(SubmitRequest::new(format!("tenant-{}", i % TENANTS), req))
            .expect("the default service admits every job");
        let t1 = Instant::now();
        tracer.record_between("serve.admit", None, i as u64, t0, t1);
        sent.push((
            job_span,
            Arc::clone(tracer),
            Sent {
                handle,
                pair,
                set,
                budget,
                due,
                sent: t0,
                admit_s: (t1 - t0).as_secs_f64(),
            },
        ));
    }

    let mut jobs = Vec::new();
    for (i, (span, tracer, s)) in sent.into_iter().enumerate() {
        let result = s.handle.wait();
        let timings = s.handle.timings().expect("a waited job has timings");
        let t = open_loop_timing(s.due, s.sent, s.admit_s + timings.total_secs());
        let finished = s.due + Duration::from_secs_f64(t.latency_s);
        tracer.close(span, finished);
        let what = format!("job {i}");
        let out_ok = match result {
            Ok(o) => o,
            Err(e) => {
                out.op(&what, vec![format!("failed: {e}")]);
                continue;
            }
        };
        let bits = s.budget * g.size_bits();
        let mut bad = check_summary(g, &out_ok.summary, bits);
        if out_ok.stop != StopReason::BudgetMet {
            bad.push(format!("stopped with {}", out_ok.stop.as_str()));
        }
        if timings.attempts != 1 {
            bad.push(format!("{} attempts", timings.attempts));
        }
        if out_ok.stats.phases.total() > timings.run_secs {
            bad.push(format!(
                "phases sum to {} s, over the run span {} s",
                out_ok.stats.phases.total(),
                timings.run_secs
            ));
        }
        out.op(&what, bad);
        let error = personalized_error(g, &out_ok.summary, &oracle[s.set])
            .expect("summary and weights cover the graph");
        let key = format!("serve/set{}/budget{}", s.set, s.budget);
        let st = &out_ok.stats;
        out.pin(format!("{key}/evals"), st.evals);
        out.pin(format!("{key}/merges"), st.merges);
        out.pin(format!("{key}/iterations"), st.iterations);
        out.pin(format!("{key}/target_error"), error);
        out.pin(format!("{key}/summary"), summary_hash(&out_ok.summary));
        jobs.push(Served {
            pair: s.pair,
            traced: tracer.enabled(),
            timings,
            latency_s: t.latency_s,
            late_s: t.late_s,
            admit_s: s.admit_s,
            finished,
            stats: out_ok.stats,
            error,
        });
    }
    Window {
        jobs,
        start,
        depth_max,
        polls,
    }
}
