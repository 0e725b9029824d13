//! Criterion micro-benchmarks for candidate generation (DESIGN.md §11):
//! the persistent-lane grouper on a mid-run summary state, plus the
//! one-time signature attachment cost it amortizes.

use criterion::{criterion_group, criterion_main, Criterion};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::hint::black_box;

use pgs_core::cost::CostModel;
use pgs_core::exec::Exec;
use pgs_core::shingle::{attach_signatures, candidate_groups_incremental, ShingleParams};
use pgs_core::weights::NodeWeights;
use pgs_core::working::{Scratch, WorkingSummary};
use pgs_graph::gen::barabasi_albert;
use pgs_graph::Graph;

const LANES: usize = 16;

/// A summary state mid-run: every even singleton merged with its odd
/// neighbor id, so signatures span multiple members and live traversal
/// skips dead slots — the regime the grouper actually sees.
fn premerged<'a>(g: &'a Graph, w: &'a NodeWeights, pairs: u32) -> WorkingSummary<'a> {
    let mut ws = WorkingSummary::new(g, w, CostModel::ErrorCorrection);
    let mut scratch = Scratch::default();
    for i in 0..pairs {
        ws.merge(
            ws.supernode_of(2 * i),
            ws.supernode_of(2 * i + 1),
            &mut scratch,
        );
    }
    ws
}

fn bench_candidates(c: &mut Criterion) {
    let g = barabasi_albert(10_000, 5, 1);
    let w = NodeWeights::uniform(g.num_nodes());
    let mut ws = premerged(&g, &w, 2_000);
    attach_signatures(&mut ws, 42, LANES, &Exec::serial());
    let params = ShingleParams::default();
    let exec = Exec::serial();

    c.bench_function("candidates/incremental", |b| {
        let mut rng = StdRng::seed_from_u64(7);
        b.iter(|| black_box(candidate_groups_incremental(&ws, &mut rng, &params)))
    });

    // The one-time cost paid at run start (and on resume) instead of a
    // fresh min-hash pass every iteration.
    c.bench_function("candidates/attach_signatures", |b| {
        b.iter(|| {
            attach_signatures(&mut ws, 42, LANES, &exec);
            black_box(ws.signature(ws.live_iter().next().unwrap(), 0))
        })
    });
}

criterion_group!(benches, bench_candidates);
criterion_main!(benches);
