//! The candidate generator's contract (DESIGN.md §11), pinned from
//! outside the crate:
//!
//! * **Signature composition** — a merged supernode's maintained
//!   signature is lane-wise bitwise equal to a from-scratch recompute
//!   after *arbitrary* merge sequences (property test).
//! * **Determinism** — for a fixed seed the lane generator yields a
//!   byte-identical summary at 1, 2, and 8 threads, and across every
//!   checkpoint/resume cut.
//! * **Accounting** — PeGaSus and SSumM both meet the budget and report
//!   their candidate groups and candidate time.

use std::sync::{Arc, Mutex};

use proptest::prelude::*;

use pgs_core::api::{Budget, Pegasus, SummarizeRequest, Summarizer};
use pgs_core::cost::CostModel;
use pgs_core::exec::Exec;
use pgs_core::shingle::attach_signatures;
use pgs_core::ssumm::{ssumm_summarize_with_stats, SsummConfig};
use pgs_core::weights::NodeWeights;
use pgs_core::working::{Scratch, WorkingSummary};
use pgs_core::{summarize, CheckpointSink, PegasusConfig, Summary};
use pgs_graph::gen::{barabasi_albert, erdos_renyi, planted_partition};
use pgs_graph::Graph;

type CheckpointStore = Arc<Mutex<Vec<(u64, Vec<u8>)>>>;

fn fingerprint(s: &Summary) -> (Vec<u32>, Vec<(u32, u32)>, u64) {
    let assignment: Vec<u32> = (0..s.num_nodes() as u32)
        .map(|u| s.supernode_of(u))
        .collect();
    let mut superedges: Vec<(u32, u32)> = s.superedges().map(|(a, b, _)| (a, b)).collect();
    superedges.sort_unstable();
    (assignment, superedges, s.size_bits().to_bits())
}

fn arb_graph() -> impl Strategy<Value = Graph> {
    (8usize..40, any::<u64>()).prop_map(|(n, seed)| {
        let m = (2 * n).min(n * (n - 1) / 2);
        erdos_renyi(n, m, seed)
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The composition-under-union invariant: replay an arbitrary merge
    /// sequence with maintained signatures, then rebuild the bank from
    /// scratch over the final partition — every live supernode's lanes
    /// must match bitwise.
    #[test]
    fn maintained_signatures_equal_recompute_under_arbitrary_merges(
        g in arb_graph(),
        bank_seed in any::<u64>(),
        picks in proptest::collection::vec((any::<u32>(), any::<u32>()), 1..30),
    ) {
        let w = NodeWeights::uniform(g.num_nodes());
        let mut ws = WorkingSummary::new(&g, &w, CostModel::ErrorCorrection);
        let lanes = 8;
        attach_signatures(&mut ws, bank_seed, lanes, &Exec::serial());
        let mut scratch = Scratch::default();
        for (ra, rb) in picks {
            if ws.num_supernodes() < 2 {
                break;
            }
            let live: Vec<u32> = ws.live_iter().collect();
            let a = live[ra as usize % live.len()];
            let b = live[rb as usize % live.len()];
            if a != b {
                ws.merge(a, b, &mut scratch);
            }
        }
        let maintained: Vec<(u32, Vec<u64>)> = ws
            .live_iter()
            .map(|s| (s, (0..lanes).map(|k| ws.signature(s, k)).collect()))
            .collect();
        // `attach_signatures` IS the from-scratch recompute: node lane
        // values depend only on (graph, seed), so re-attaching over the
        // merged partition rebuilds every supernode minimum directly.
        attach_signatures(&mut ws, bank_seed, lanes, &Exec::serial());
        for (s, maintained_lanes) in maintained {
            let fresh: Vec<u64> = (0..lanes).map(|k| ws.signature(s, k)).collect();
            prop_assert_eq!(maintained_lanes, fresh);
        }
    }
}

/// Fixed seed ⇒ byte-identical summary at any thread count, on a
/// community graph whose lanes collide often (`parallel_determinism.rs`
/// pins the same contract on other graphs and on SSumM).
#[test]
fn incremental_path_is_byte_identical_at_any_thread_count() {
    let g = planted_partition(400, 8, 1600, 250, 3);
    for seed in [0u64, 7, 42] {
        let reference = summarize(
            &g,
            &[0, 9],
            0.4 * g.size_bits(),
            &PegasusConfig {
                num_threads: 1,
                seed,
                ..Default::default()
            },
        );
        for threads in [2usize, 8] {
            let got = summarize(
                &g,
                &[0, 9],
                0.4 * g.size_bits(),
                &PegasusConfig {
                    num_threads: threads,
                    seed,
                    ..Default::default()
                },
            );
            assert_eq!(
                fingerprint(&reference),
                fingerprint(&got),
                "seed={seed} threads={threads}"
            );
        }
    }
}

/// Resume from every checkpoint cut: the rebuilt signature bank must
/// replay the remaining iterations bit-identically.
#[test]
fn incremental_resume_is_byte_identical_across_cuts() {
    let g = barabasi_albert(500, 4, 3);
    for seed in [1u64, 42] {
        let algo = Pegasus(PegasusConfig {
            seed,
            ..Default::default()
        });
        let req = SummarizeRequest::new(Budget::Ratio(0.35)).targets(&[0, 5]);
        let store: CheckpointStore = Arc::new(Mutex::new(Vec::new()));
        let writer = Arc::clone(&store);
        let sink: CheckpointSink = Arc::new(move |t, blob| {
            writer.lock().unwrap().push((t, blob));
            Ok(())
        });
        let full = algo
            .run(&g, &req.clone().checkpoint(1, sink))
            .expect("uninterrupted run");
        let checkpoints = store.lock().unwrap().clone();
        assert!(!checkpoints.is_empty());
        for (t, blob) in &checkpoints {
            let resumed = algo
                .run(&g, &req.clone().resume_from(Arc::new(blob.clone())))
                .unwrap_or_else(|e| panic!("resume from t={t} failed: {e}"));
            assert_eq!(
                fingerprint(&full.summary),
                fingerprint(&resumed.summary),
                "seed={seed} cut t={t}"
            );
            assert_eq!(full.stats.iterations, resumed.stats.iterations);
            assert_eq!(full.stats.merges, resumed.stats.merges);
        }
    }
}

/// PeGaSus and SSumM share the one candidate path: both deliver the
/// budget and attribute their candidate time separately from eval time.
#[test]
fn both_algorithms_meet_budget_and_populate_candidate_stats() {
    let g = barabasi_albert(400, 4, 11);
    let budget = 0.4 * g.size_bits();
    let (s, stats) =
        pgs_core::pegasus::summarize_with_stats(&g, &[0], budget, &PegasusConfig::default());
    let (s2, stats2) = ssumm_summarize_with_stats(&g, budget, &SsummConfig::default());
    for (name, s, stats) in [("pegasus", s, stats), ("ssumm", s2, stats2)] {
        assert!(s.size_bits() <= budget + 1e-9, "{name} missed the budget");
        assert!(stats.groups > 0, "{name} formed no groups");
        assert!(stats.grouped_supernodes >= stats.groups, "{name} counters");
        assert!(stats.phases.candidates > 0.0, "{name} candidate time");
    }
}
