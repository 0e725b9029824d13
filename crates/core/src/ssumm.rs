//! SSumM (Lee et al., KDD 2020) — the state-of-the-art non-personalized
//! summarizer PeGaSus is built on, re-implemented per Sect. III-G as the
//! primary baseline.
//!
//! Differences from PeGaSus, exactly as the paper lists them:
//!
//! * **No personalization** — uniform pair weights (plain reconstruction
//!   error).
//! * **Fixed threshold schedule** — `θ(t) = (1 + t)^{-1}` for `t < t_max`
//!   and 0 afterwards, instead of adaptive thresholding.
//! * **Encoding** — per-pair cost is the better of entropy coding and
//!   error correction ([`crate::cost::CostModel::SsummMin`]), while
//!   PeGaSus assumes error correction only.
//!
//! All three are arguments of the shared Alg.-1 driver
//! ([`crate::pegasus`]); everything else — candidate generation, the
//! parallel evaluate/commit engine, checkpoints — is the same code.

use crate::api::RunControl;
use crate::pegasus::{merge_loop, LoopKind, PegasusConfig, RunStats};
use crate::summary::Summary;
use crate::weights::NodeWeights;
use crate::working::MergeEvaluator;
use pgs_graph::Graph;

/// Configuration of the SSumM baseline (paper defaults from Sect. V-A).
#[derive(Clone, Debug)]
pub struct SsummConfig {
    /// Maximum number of iterations (default 20).
    pub t_max: usize,
    /// RNG seed.
    pub seed: u64,
    /// Maximum candidate-group size (500, as for PeGaSus).
    pub max_group: usize,
    /// Maximum recursive shingle-splitting depth (10).
    pub shingle_depth: usize,
    /// Worker threads for the evaluate phases (same engine as PeGaSus;
    /// `0` = all hardware threads; output identical at any setting).
    pub num_threads: usize,
    /// Merge evaluator (same engine as PeGaSus; cached by default).
    pub evaluator: MergeEvaluator,
}

impl Default for SsummConfig {
    fn default() -> Self {
        SsummConfig {
            t_max: 20,
            seed: 0,
            max_group: 500,
            shingle_depth: 10,
            num_threads: 0,
            evaluator: MergeEvaluator::default(),
        }
    }
}

impl SsummConfig {
    /// The shared driver's knobs for this configuration. `alpha` and
    /// `beta` keep their defaults and are never read: SSumM weights are
    /// uniform and its threshold follows the fixed schedule.
    pub(crate) fn engine(&self) -> PegasusConfig {
        PegasusConfig {
            t_max: self.t_max,
            seed: self.seed,
            max_group: self.max_group,
            shingle_depth: self.shingle_depth,
            use_absolute_cost: false,
            num_threads: self.num_threads,
            evaluator: self.evaluator,
            ..PegasusConfig::default()
        }
    }
}

/// Summarizes `g` within `budget_bits` using SSumM.
pub fn ssumm_summarize(g: &Graph, budget_bits: f64, cfg: &SsummConfig) -> Summary {
    ssumm_summarize_with_stats(g, budget_bits, cfg).0
}

/// [`ssumm_summarize`] returning run statistics.
pub fn ssumm_summarize_with_stats(
    g: &Graph,
    budget_bits: f64,
    cfg: &SsummConfig,
) -> (Summary, RunStats) {
    let weights = NodeWeights::uniform(g.num_nodes());
    let (summary, stats, _) = merge_loop(
        g,
        &weights,
        budget_bits,
        &cfg.engine(),
        LoopKind::SSUMM,
        &RunControl::default(),
        None,
    );
    (summary, stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::error::reconstruction_error;
    use pgs_graph::gen::{barabasi_albert, planted_partition};

    #[test]
    fn meets_budget() {
        let g = barabasi_albert(300, 4, 13);
        for &ratio in &[0.3, 0.6] {
            let budget = ratio * g.size_bits();
            let s = ssumm_summarize(&g, budget, &SsummConfig::default());
            assert!(s.size_bits() <= budget + 1e-9);
        }
    }

    #[test]
    fn deterministic_under_seed() {
        let g = barabasi_albert(200, 3, 1);
        let s1 = ssumm_summarize(&g, 0.5 * g.size_bits(), &SsummConfig::default());
        let s2 = ssumm_summarize(&g, 0.5 * g.size_bits(), &SsummConfig::default());
        assert_eq!(s1.num_supernodes(), s2.num_supernodes());
        for u in g.nodes() {
            assert_eq!(s1.supernode_of(u), s2.supernode_of(u));
        }
    }

    #[test]
    fn community_graph_summarizes_with_moderate_error() {
        // Dense planted blocks are the friendly case for summarization:
        // the error at ratio 0.5 should be well below the trivial
        // all-singleton-after-sparsify bound (2|E| = dropping all edges).
        let g = planted_partition(300, 6, 1800, 150, 5);
        let s = ssumm_summarize(&g, 0.5 * g.size_bits(), &SsummConfig::default());
        let err = reconstruction_error(&g, &s).unwrap();
        // Strictly better than the trivial summary that drops every edge
        // (error 2|E|): the summary must retain real structure.
        assert!(err < 2.0 * g.num_edges() as f64, "error {err} too high");
    }

    #[test]
    fn merges_happen_under_pressure() {
        let g = barabasi_albert(400, 3, 3);
        let (_, stats) =
            ssumm_summarize_with_stats(&g, 0.2 * g.size_bits(), &SsummConfig::default());
        assert!(stats.merges > 0, "SSumM should merge under a tight budget");
    }
}
