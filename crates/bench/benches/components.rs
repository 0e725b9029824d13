//! Criterion micro-benchmarks for PeGaSus's internal phases: candidate
//! generation (shingles), merge evaluation (Lemma 1), personalized
//! weights (multi-source BFS), error evaluation, and partitioning.

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

use pgs_core::cost::CostModel;
use pgs_core::error::personalized_error;
use pgs_core::shingle::{attach_signatures, candidate_groups_incremental, ShingleParams};
use pgs_core::weights::NodeWeights;
use pgs_core::working::{Scratch, WorkingSummary};
use pgs_core::{summarize, PegasusConfig};
use pgs_graph::gen::{barabasi_albert, planted_partition};
use pgs_graph::traverse::multi_source_bfs;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn bench_components(c: &mut Criterion) {
    let g = barabasi_albert(10_000, 5, 1);
    let w = NodeWeights::personalized(&g, &[0, 1, 2], 1.25);

    c.bench_function("weights/multi_source_bfs_10k", |b| {
        let sources: Vec<u32> = (0..100).collect();
        b.iter(|| black_box(multi_source_bfs(&g, &sources)))
    });

    c.bench_function("weights/personalized_build_10k", |b| {
        b.iter(|| black_box(NodeWeights::personalized(&g, &[0, 1, 2], 1.25)))
    });

    c.bench_function("shingle/candidate_groups_10k", |b| {
        let mut ws = WorkingSummary::new(&g, &w, CostModel::ErrorCorrection);
        let params = ShingleParams::default();
        attach_signatures(&mut ws, 3, params.depth, &pgs_core::exec::Exec::serial());
        let mut rng = StdRng::seed_from_u64(3);
        b.iter(|| black_box(candidate_groups_incremental(&ws, &mut rng, &params)))
    });

    c.bench_function("merge/eval_merge_pair", |b| {
        let ws = WorkingSummary::new(&g, &w, CostModel::ErrorCorrection);
        let mut scratch = Scratch::default();
        let mut i = 0u32;
        b.iter(|| {
            i = (i + 2) % 9_000;
            black_box(ws.eval_merge(i, i + 1, &mut scratch))
        })
    });

    c.bench_function("merge/merge_and_readd", |b| {
        b.iter_batched(
            || WorkingSummary::new(&g, &w, CostModel::ErrorCorrection),
            |mut ws| {
                let mut scratch = Scratch::default();
                for i in 0..50u32 {
                    ws.merge(2 * i, 2 * i + 1, &mut scratch);
                }
                black_box(ws.num_superedges())
            },
            criterion::BatchSize::LargeInput,
        )
    });

    c.bench_function("error/personalized_error_eval", |b| {
        let s = summarize(&g, &[0], 0.5 * g.size_bits(), &PegasusConfig::default());
        b.iter(|| black_box(personalized_error(&g, &s, &w).unwrap()))
    });

    let community = planted_partition(5_000, 50, 35_000, 5_000, 2);
    c.bench_function("partition/louvain_5k", |b| {
        b.iter(|| black_box(pgs_partition::louvain(&community, 1)))
    });
    c.bench_function("partition/blp_5k", |b| {
        b.iter(|| black_box(pgs_partition::blp_partition(&community, 8, 10, 1)))
    });
}

criterion_group!(benches, bench_components);
criterion_main!(benches);
