//! The Alg.-1 driver, parallel evaluate/commit edition — one loop for
//! both PeGaSus and SSumM.
//!
//! Repeats candidate generation (Sect. III-C) and within-group greedy
//! merging (Sect. III-D) under a threshold policy until the summary
//! fits the bit budget or `t_max` iterations elapse, then sparsifies
//! (Sect. III-F) if needed. PeGaSus decays its threshold adaptively
//! (Sect. III-E); SSumM (Sect. III-G, [`crate::ssumm`]) runs the same
//! loop with a fixed schedule and its own cost model ([`LoopKind`]).
//!
//! Each iteration fans out across [`PegasusConfig::num_threads`] workers:
//! candidate groups are disjoint supernode sets, so their Alg.-2 rounds
//! are *evaluated* concurrently against the frozen iteration-start
//! summary ([`crate::working::evaluate_group`]), and the resulting merge
//! logs are *committed* serially in canonical group order. All
//! randomness is drawn serially (per-round hash seeds, per-group RNG
//! seeds), which makes the output a pure function of the seed — the same
//! summary comes back at any thread count (see DESIGN.md §2).

use rand::rngs::StdRng;
use rand::{RngCore, SeedableRng};

use crate::api::{RunControl, StopReason};
use crate::checkpoint::{iteration_seed, RunCheckpoint, ALGO_PEGASUS, ALGO_SSUMM};
use crate::cost::CostModel;
use crate::exec::Exec;
use crate::shingle::{attach_signatures, candidate_groups_incremental, lane_count, ShingleParams};
use crate::sparsify::sparsify;
use crate::summary::{Summary, SuperId};
use crate::threshold::{ssumm_schedule, AdaptiveThreshold};
use crate::weights::NodeWeights;
use crate::working::{evaluate_group_with, MergeEvaluator, Scratch, WorkingSummary};
use pgs_graph::{Graph, NodeId};

/// Configuration of PeGaSus (paper defaults from Sect. V-A).
#[derive(Clone, Debug)]
pub struct PegasusConfig {
    /// Degree of personalization `α ≥ 1` (default 1.25).
    pub alpha: f64,
    /// Adaptive-thresholding quantile `β ∈ [0, 1]` (default 0.1).
    pub beta: f64,
    /// Maximum number of iterations `t_max` (default 20).
    pub t_max: usize,
    /// RNG seed (shingle hashes and pair sampling).
    pub seed: u64,
    /// Maximum candidate-group size (paper constant 500).
    pub max_group: usize,
    /// Maximum recursive shingle-splitting depth (paper constant 10).
    pub shingle_depth: usize,
    /// Ablation switch: rank merges by the absolute reduction Eq. (10)
    /// instead of the relative reduction Eq. (11).
    pub use_absolute_cost: bool,
    /// Worker threads for the evaluate phases (candidate generation and
    /// group evaluation). `0` means one per available hardware thread.
    /// The output is identical at any setting; only wall-clock changes.
    pub num_threads: usize,
    /// Which merge evaluator prices candidate pairs: the group-local
    /// weight-vector cache (default) or the member-edge scan (kept as
    /// the bitwise equivalence oracle, DESIGN.md §7).
    pub evaluator: MergeEvaluator,
}

impl Default for PegasusConfig {
    fn default() -> Self {
        PegasusConfig {
            alpha: 1.25,
            beta: 0.1,
            t_max: 20,
            seed: 0,
            max_group: 500,
            shingle_depth: 10,
            use_absolute_cost: false,
            num_threads: 0,
            evaluator: MergeEvaluator::default(),
        }
    }
}

/// Wall-clock seconds per engine phase — the coherent profiling
/// taxonomy of DESIGN.md §14, replacing the ad-hoc per-phase fields
/// that used to live directly on [`RunStats`].
///
/// Every iteration of both drivers decomposes into candidate
/// generation (Sect. III-C), parallel group evaluation (Sect. III-D),
/// and the serial commit of the merge logs; sparsification
/// (Sect. III-F) runs once at the end when the budget is still unmet.
/// All four accumulate across checkpoint/resume like the other
/// wall-clock stats, and all four live *outside* the byte-identity
/// contract: they are measured around the phases, never read by them.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct PhaseTimings {
    /// Candidate-group generation (Sect. III-C) — the denominator of
    /// the candidate-throughput metric.
    pub candidates: f64,
    /// Parallel merge evaluation (Sect. III-D) — the denominator of
    /// the merge-evals/sec throughput metric.
    pub evaluate: f64,
    /// Serial commit of the merge logs (threshold folds included —
    /// everything between evaluate and the iteration boundary).
    pub commit: f64,
    /// Final sparsification (Sect. III-F), zero when the budget was
    /// met by merging alone.
    pub sparsify: f64,
}

impl PhaseTimings {
    /// Sum over all phases — the engine-attributed share of a run's
    /// wall clock.
    pub fn total(&self) -> f64 {
        self.candidates + self.evaluate + self.commit + self.sparsify
    }
}

impl std::ops::AddAssign for PhaseTimings {
    /// Field-wise accumulation (serving layers total phases per tenant).
    fn add_assign(&mut self, other: PhaseTimings) {
        self.candidates += other.candidates;
        self.evaluate += other.evaluate;
        self.commit += other.commit;
        self.sparsify += other.sparsify;
    }
}

/// Summary statistics of a PeGaSus or SSumM run (for experiments and
/// logging).
#[derive(Clone, Copy, Debug, Default)]
pub struct RunStats {
    /// Iterations executed.
    pub iterations: usize,
    /// Total successful merges.
    pub merges: usize,
    /// Final threshold value.
    pub final_theta: f64,
    /// Whether sparsification was needed to meet the budget.
    pub sparsified: bool,
    /// Candidate-pair merge evaluations performed (thread-count
    /// independent, like every other count here).
    pub evals: u64,
    /// Checkpoints written successfully (cumulative across resume).
    pub checkpoints: u64,
    /// Checkpoint writes that failed (real or injected); the run keeps
    /// going on the previous good checkpoint.
    pub checkpoint_failures: u64,
    /// Per-phase wall-clock breakdown (candidate-gen / evaluate /
    /// commit / sparsify), cumulative across resume.
    pub phases: PhaseTimings,
    /// Candidate groups formed across the run (thread-count independent).
    pub groups: u64,
    /// Supernodes placed into candidate groups across the run (each live
    /// supernode counts at most once per iteration) — the numerator of
    /// the candidate-throughput metric.
    pub grouped_supernodes: u64,
}

/// Summarizes `g` personalized to `targets` within `budget_bits`
/// (Problem 1). An empty `targets` slice means `T = V`
/// (non-personalized). Returns the frozen summary.
///
/// # Example
/// ```
/// use pgs_graph::gen::barabasi_albert;
/// use pgs_core::pegasus::{summarize, PegasusConfig};
///
/// let g = barabasi_albert(300, 3, 1);
/// let summary = summarize(&g, &[0], 0.5 * g.size_bits(), &PegasusConfig::default());
/// assert!(summary.size_bits() <= 0.5 * g.size_bits());
/// ```
pub fn summarize(g: &Graph, targets: &[NodeId], budget_bits: f64, cfg: &PegasusConfig) -> Summary {
    summarize_with_stats(g, targets, budget_bits, cfg).0
}

/// [`summarize`] returning run statistics alongside the summary.
pub fn summarize_with_stats(
    g: &Graph,
    targets: &[NodeId],
    budget_bits: f64,
    cfg: &PegasusConfig,
) -> (Summary, RunStats) {
    let all_nodes: Vec<NodeId>;
    let targets = if targets.is_empty() {
        all_nodes = g.nodes().collect();
        &all_nodes
    } else {
        targets
    };
    let weights = NodeWeights::personalized(g, targets, cfg.alpha);
    summarize_with_weights(g, &weights, budget_bits, cfg)
}

/// Runs the PeGaSus loop against externally built node weights — the
/// entry point for experiments that reuse one BFS across many runs.
pub fn summarize_with_weights(
    g: &Graph,
    weights: &NodeWeights,
    budget_bits: f64,
    cfg: &PegasusConfig,
) -> (Summary, RunStats) {
    let (summary, stats, _) = merge_loop(
        g,
        weights,
        budget_bits,
        cfg,
        LoopKind::PEGASUS,
        &RunControl::default(),
        None,
    );
    (summary, stats)
}

/// How the driver sets the merge threshold `θ` of each iteration.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum ThresholdPolicy {
    /// PeGaSus (Sect. III-E): start at 0.5, then take the
    /// `⌊β·|L|⌋`-th largest rejected reduction, with `β` =
    /// [`PegasusConfig::beta`], capped by the stall guard.
    Adaptive,
    /// SSumM (Sect. III-G): the fixed schedule [`ssumm_schedule`].
    Schedule,
}

/// What sets one instance of the Alg.-1 loop apart from another: the
/// per-pair cost model, the threshold policy, and the algorithm tag
/// stamped into (and checked against) checkpoints.
#[derive(Clone, Copy, Debug)]
pub(crate) struct LoopKind {
    pub model: CostModel,
    pub threshold: ThresholdPolicy,
    pub algorithm: u8,
}

impl LoopKind {
    /// PeGaSus: error-correction encoding, adaptive threshold.
    pub const PEGASUS: LoopKind = LoopKind {
        model: CostModel::ErrorCorrection,
        threshold: ThresholdPolicy::Adaptive,
        algorithm: ALGO_PEGASUS,
    };
    /// SSumM: the better of two encodings, fixed schedule.
    pub const SSUMM: LoopKind = LoopKind {
        model: CostModel::SsummMin,
        threshold: ThresholdPolicy::Schedule,
        algorithm: ALGO_SSUMM,
    };
}

/// The Alg.-1 driver with run control threaded in — the engine behind
/// the free functions of both algorithms and [`crate::api::Pegasus`] /
/// [`crate::api::Ssumm`]. `cfg` supplies the knobs both algorithms
/// share; `kind` supplies the three that differ.
///
/// Cancel/deadline checks sit at the top of each iteration — a commit
/// boundary: the previous iteration's merge log is fully committed, so
/// an interrupted run returns a structurally valid partial summary.
/// Interrupted runs skip final sparsification (they return promptly and
/// report [`StopReason::Cancelled`] / [`StopReason::DeadlineExceeded`]
/// instead of a met budget).
///
/// Each iteration draws its randomness from a fresh RNG seeded with
/// [`iteration_seed`]`(cfg.seed, t)` rather than one sequential stream,
/// so a run resumed from a `resume` checkpoint at iteration `k` replays
/// iterations `k..` bit-identically to the uninterrupted run — the
/// checkpoint/resume correctness contract of DESIGN.md §10.
pub(crate) fn merge_loop(
    g: &Graph,
    weights: &NodeWeights,
    budget_bits: f64,
    cfg: &PegasusConfig,
    kind: LoopKind,
    control: &RunControl,
    resume: Option<&RunCheckpoint>,
) -> (Summary, RunStats, StopReason) {
    let started = std::time::Instant::now();
    let mut scratch = Scratch::default();
    let exec = Exec::new(cfg.num_threads);
    let shingle_params = ShingleParams {
        max_group: cfg.max_group,
        depth: cfg.shingle_depth,
    };
    let (mut ws, mut stats, mut t, theta_bits, mut stall_cap) = match resume {
        Some(ck) => (
            ck.restore_working(g, weights, kind.model),
            ck.stats,
            ck.next_iteration as usize,
            Some(ck.theta_bits),
            f64::from_bits(ck.stall_cap_bits),
        ),
        None => (
            WorkingSummary::new(g, weights, kind.model),
            RunStats::default(),
            1,
            None,
            f64::INFINITY,
        ),
    };
    // The adaptive state is θ alone at an iteration boundary; the fixed
    // schedule is a pure function of `t` and keeps none.
    let mut adaptive = (kind.threshold == ThresholdPolicy::Adaptive).then(|| match theta_bits {
        Some(bits) => AdaptiveThreshold::restore(cfg.beta, f64::from_bits(bits)),
        None => AdaptiveThreshold::new(cfg.beta),
    });
    // Attach the persistent lane bank once (bit-identical at any thread
    // count). The bank is a pure function of (graph, seed, current
    // partition), so attaching after a checkpoint restore reproduces
    // exactly the signatures the uninterrupted run maintained
    // (composition under union, DESIGN.md §11).
    attach_signatures(&mut ws, cfg.seed, lane_count(cfg.shingle_depth), &exec);

    let stop = loop {
        if ws.size_bits() <= budget_bits {
            break StopReason::BudgetMet;
        }
        if t > cfg.t_max {
            break StopReason::MaxIters;
        }
        if let Some(reason) = control.interrupted(started) {
            break reason;
        }
        control.beat();
        control.fault_point(t as u64);
        let mut rng = StdRng::seed_from_u64(iteration_seed(cfg.seed, t as u64));
        let cand_start = std::time::Instant::now();
        let groups = candidate_groups_incremental(&ws, &mut rng, &shingle_params);
        stats.phases.candidates += cand_start.elapsed().as_secs_f64();
        stats.groups += groups.len() as u64;
        stats.grouped_supernodes += groups.iter().map(|grp| grp.len() as u64).sum::<u64>();
        let before = ws.num_supernodes();
        let theta = match &adaptive {
            Some(threshold) => threshold.theta().min(stall_cap),
            None => ssumm_schedule(t, cfg.t_max),
        };

        // Evaluate phase (parallel, read-only): every group gets a seed
        // drawn serially here, then workers run the Alg.-2 sampling loop
        // against the frozen summary, producing merge logs.
        let seeded: Vec<(Vec<SuperId>, u64)> = groups
            .into_iter()
            .map(|grp| (grp, rng.next_u64()))
            .collect();
        let eval_start = std::time::Instant::now();
        let outcomes = exec.map_indexed(&seeded, |_, (group, seed)| {
            control.beat();
            evaluate_group_with(
                &ws,
                group,
                theta,
                *seed,
                cfg.use_absolute_cost,
                cfg.evaluator,
            )
        });
        stats.phases.evaluate += eval_start.elapsed().as_secs_f64();
        stats.evals += outcomes.iter().map(|o| o.evals).sum::<u64>();

        // Commit phase (serial, deterministic group order): replay each
        // group's merge log against the shared summary (which repairs
        // the signature bank lane-wise in O(K) per merge) and fold its
        // rejection samples into the adaptive threshold.
        let commit_start = std::time::Instant::now();
        for outcome in &outcomes {
            for &(a, b) in &outcome.merges {
                ws.merge(a, b, &mut scratch);
            }
            if let Some(threshold) = adaptive.as_mut() {
                threshold.fold_rejections(&outcome.rejected);
            }
        }
        stats.phases.commit += commit_start.elapsed().as_secs_f64();
        let merged = before - ws.num_supernodes();
        stats.merges += merged;
        match adaptive.as_mut() {
            Some(threshold) => {
                threshold.end_iteration();
                // Stall guard (see DESIGN.md): on graphs whose relative
                // reductions cluster at discrete values, the
                // ⌊β|L|⌋-th-largest update can plateau just above the
                // cluster and merging stops while the summary is still
                // over budget. When an iteration merges less than 0.5% of
                // the supernodes under budget pressure, fall back to
                // SSumM's guaranteed-decay schedule as a cap.
                if merged * 200 < before && ws.size_bits() > budget_bits {
                    stall_cap = ssumm_schedule(t, cfg.t_max).min(stall_cap);
                }
            }
            None => stats.final_theta = theta,
        }
        stats.iterations = t;
        control.notify(&stats);
        // Snapshot after the commit + threshold/stall updates: this is
        // the consistency point a resumed run restarts from (at t + 1).
        let (ck_theta, ck_cap) = match &adaptive {
            Some(threshold) => (threshold.theta(), stall_cap),
            None => (theta, f64::INFINITY),
        };
        let snapshot = stats;
        control.maybe_checkpoint(t as u64, &mut stats, || {
            RunCheckpoint::capture(
                kind.algorithm,
                (t + 1) as u64,
                ck_theta,
                ck_cap,
                snapshot,
                &ws,
            )
        });
        t += 1;
    };
    if let Some(threshold) = &adaptive {
        stats.final_theta = threshold.theta();
    }

    // Only uninterrupted runs sparsify down to the budget; a cancelled
    // or deadline-stopped run hands back its partial summary promptly.
    if matches!(stop, StopReason::BudgetMet | StopReason::MaxIters) && ws.size_bits() > budget_bits
    {
        stats.sparsified = true;
        let sparsify_start = std::time::Instant::now();
        sparsify(&mut ws, budget_bits, &exec);
        stats.phases.sparsify += sparsify_start.elapsed().as_secs_f64();
    }
    (ws.into_summary(), stats, stop)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::error::{personalized_error, reconstruction_error};
    use pgs_graph::gen::{barabasi_albert, planted_partition};

    #[test]
    fn meets_budget_at_various_ratios() {
        let g = barabasi_albert(300, 4, 11);
        for &ratio in &[0.2, 0.5, 0.8] {
            let budget = ratio * g.size_bits();
            let s = summarize(&g, &[0], budget, &PegasusConfig::default());
            assert!(
                s.size_bits() <= budget + 1e-9,
                "ratio {ratio}: {} > {budget}",
                s.size_bits()
            );
            assert_eq!(s.num_nodes(), 300);
        }
    }

    #[test]
    fn generous_budget_keeps_graph_nearly_intact() {
        let g = barabasi_albert(200, 3, 5);
        let budget = 2.0 * g.size_bits(); // no compression pressure
        let (s, stats) = summarize_with_stats(&g, &[0], budget, &PegasusConfig::default());
        assert!(!stats.sparsified);
        // Only strictly cost-reducing merges happen; error should be small
        // relative to total possible error.
        let err = reconstruction_error(&g, &s).unwrap();
        assert!(err < 2.0 * g.num_edges() as f64);
    }

    #[test]
    fn empty_targets_means_whole_v() {
        let g = barabasi_albert(150, 3, 2);
        let budget = 0.5 * g.size_bits();
        let s1 = summarize(&g, &[], budget, &PegasusConfig::default());
        let all: Vec<u32> = g.nodes().collect();
        let s2 = summarize(&g, &all, budget, &PegasusConfig::default());
        // Same uniform weights and same seed → identical output.
        assert_eq!(s1.num_supernodes(), s2.num_supernodes());
        assert_eq!(s1.num_superedges(), s2.num_superedges());
    }

    #[test]
    fn deterministic_under_seed() {
        let g = planted_partition(200, 4, 600, 100, 3);
        let cfg = PegasusConfig::default();
        let s1 = summarize(&g, &[0], 0.4 * g.size_bits(), &cfg);
        let s2 = summarize(&g, &[0], 0.4 * g.size_bits(), &cfg);
        assert_eq!(s1.num_supernodes(), s2.num_supernodes());
        assert_eq!(s1.num_superedges(), s2.num_superedges());
        for u in g.nodes() {
            assert_eq!(s1.supernode_of(u), s2.supernode_of(u));
        }
    }

    #[test]
    fn personalization_reduces_error_near_targets() {
        // The core claim (Fig. 5): summarizing with weights focused on a
        // target yields lower personalized error *at that target* than a
        // non-personalized summary of the same size.
        let g = planted_partition(400, 8, 1600, 200, 7);
        let budget = 0.3 * g.size_bits();
        let target = [0u32];
        let personalized = summarize(
            &g,
            &target,
            budget,
            &PegasusConfig {
                alpha: 1.5,
                ..Default::default()
            },
        );
        let uniform = summarize(&g, &[], budget, &PegasusConfig::default());
        let w_eval = NodeWeights::personalized(&g, &target, 1.5);
        let err_p = personalized_error(&g, &personalized, &w_eval).unwrap();
        let err_u = personalized_error(&g, &uniform, &w_eval).unwrap();
        assert!(
            err_p < err_u,
            "personalized error {err_p} should beat non-personalized {err_u}"
        );
    }

    #[test]
    fn absolute_cost_ablation_runs() {
        let g = barabasi_albert(200, 3, 4);
        let cfg = PegasusConfig {
            use_absolute_cost: true,
            ..Default::default()
        };
        let s = summarize(&g, &[0], 0.5 * g.size_bits(), &cfg);
        assert!(s.size_bits() <= 0.5 * g.size_bits());
    }

    #[test]
    fn stats_are_populated() {
        let g = barabasi_albert(300, 4, 9);
        let (_, stats) =
            summarize_with_stats(&g, &[0], 0.3 * g.size_bits(), &PegasusConfig::default());
        assert!(stats.iterations >= 1);
        assert!(stats.merges > 0);
    }

    #[test]
    fn stall_guard_merges_low_redundancy_graphs() {
        // A sparse hub-and-leaf graph under uniform weights produces
        // discrete relative reductions that stall the adaptive
        // threshold; the guard must still deliver the budget mostly via
        // merging, not by dropping nearly all superedges.
        let g = pgs_graph::gen::barabasi_albert_mixed(3000, 0.55, 7);
        let budget = 0.4 * g.size_bits();
        let (s, stats) = summarize_with_stats(&g, &[], budget, &PegasusConfig::default());
        assert!(s.size_bits() <= budget + 1e-9);
        assert!(
            stats.merges > g.num_nodes() / 2,
            "only {} merges — threshold stalled",
            stats.merges
        );
        // The summary must retain a meaningful superedge set.
        assert!(
            s.num_superedges() * 10 > s.num_supernodes(),
            "superedges nearly annihilated: |P|={} |S|={}",
            s.num_superedges(),
            s.num_supernodes()
        );
    }

    #[test]
    fn tiny_graph_edge_cases() {
        let g = pgs_graph::builder::graph_from_edges(2, &[(0, 1)]);
        // Note the |V|·log2|S| membership term is a floor that
        // sparsification alone cannot undercut: with |S|=2 the floor is
        // 2 bits, so that is the tightest meetable budget here.
        let s = summarize(&g, &[0], 2.0, &PegasusConfig::default());
        assert_eq!(s.num_nodes(), 2);
        assert!(s.size_bits() <= 2.0);
    }
}
