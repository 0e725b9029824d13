//! The mutable summary state evolved by the greedy search (Alg. 1–2),
//! including the Lemma-1 `O(deg)` merge-cost evaluation and the
//! merging-with-selective-superedge-addition step of Sect. III-D.
//!
//! # Evaluate/commit split (DESIGN.md §2)
//!
//! The API is split into two halves so candidate groups can be processed
//! in parallel:
//!
//! * **Evaluate** — read-only. [`eval_merge_view`] prices a merge against
//!   any [`SummaryView`]; [`evaluate_group`] runs the whole Alg.-2
//!   sampling loop for one candidate group against a *frozen*
//!   [`WorkingSummary`] plus a group-local overlay ([`GroupView`]),
//!   returning a [`GroupOutcome`] merge log instead of mutating shared
//!   state. Groups are disjoint supernode sets, so overlays never
//!   conflict and workers share the summary immutably.
//! * **Commit** — serial. [`WorkingSummary::merge`] applies one logged
//!   merge to the shared summary; the driver replays each group's log in
//!   deterministic group order (Alg. 2's superedge re-addition then runs
//!   against the true global state).
//!
//! # The merge-evaluation hot loop (DESIGN.md §7)
//!
//! Two structures keep the Alg.-2 inner loop off the allocator and the
//! hash functions:
//!
//! * An **epoch-stamped dense scratch** ([`Scratch`]): per-supernode
//!   accumulators are flat `stamp`/`val` arrays indexed by `SuperId`
//!   plus a `touched` list, cleared in `O(touched)` by bumping an epoch
//!   counter — no hashing, no per-call allocation.
//! * A **group-local superedge-weight cache** ([`GroupView::with_cache`]):
//!   at group start every member's aggregated neighbor-supernode weight
//!   vector is computed once and stored as a sorted `(SuperId, f64)`
//!   span in a bump arena; every subsequent evaluation answers from the
//!   cached spans instead of re-walking member edges. Intra-group merges
//!   combine the two member spans incrementally and stale span keys are
//!   remapped dead→kept lazily at read time, so the cache survives the
//!   whole group round.
//!
//! Both the cached and the scan evaluator accumulate per-neighbor sums
//! in member-edge visit order and price pairs in ascending-`SuperId`
//! order, so on any snapshot state their [`DeltaEval`]s are **bitwise
//! identical** — the property `tests/eval_equivalence.rs` pins down and
//! the byte-identical-at-any-thread-count guarantee rests on.

use std::cell::RefCell;

use pgs_graph::{FxHashMap, FxHashSet, Graph, NodeId};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::cost::{best_pair_cost, pair_cost, CostModel, CostParams};
use crate::summary::{Summary, SuperId};
use crate::weights::NodeWeights;

/// Per-supernode aggregate state.
#[derive(Clone, Debug)]
struct SuperData {
    /// Member nodes (unsorted during the run; sorted when frozen).
    members: Vec<NodeId>,
    /// Sum of normalized node weights `Σ ŵ_u`.
    wsum: f64,
    /// Sum of squared normalized node weights `Σ ŵ_u²`.
    sqsum: f64,
}

/// One epoch-stamped dense accumulator: `val[s]` is live iff
/// `stamp[s]` equals the current epoch, and `touched` lists the live
/// slots. Clearing is an epoch bump plus truncating `touched` — the
/// `stamp`/`val` arrays are never rewritten wholesale.
#[derive(Default)]
pub(crate) struct DenseLane {
    stamp: Vec<u32>,
    val: Vec<f64>,
    touched: Vec<SuperId>,
}

impl DenseLane {
    fn ensure(&mut self, n: usize) {
        if self.stamp.len() < n {
            self.stamp.resize(n, 0);
            self.val.resize(n, 0.0);
        }
    }

    /// Adds `v` into slot `s` under `epoch`, registering first touches.
    #[inline]
    fn add(&mut self, s: SuperId, v: f64, epoch: u32) {
        let i = s as usize;
        if self.stamp[i] == epoch {
            self.val[i] += v;
        } else {
            self.stamp[i] = epoch;
            self.val[i] = v;
            self.touched.push(s);
        }
    }

    /// The accumulated value of slot `s`, if touched this epoch.
    #[inline]
    pub(crate) fn get(&self, s: SuperId, epoch: u32) -> Option<f64> {
        let i = s as usize;
        (self.stamp[i] == epoch).then(|| self.val[i])
    }

    /// Sorts `touched` ascending — the canonical pricing order. A span
    /// loaded without remapping arrives already sorted, so the common
    /// case is a no-op scan.
    fn sort_touched(&mut self) {
        if !self.touched.is_sorted() {
            self.touched.sort_unstable();
        }
    }

    /// Caps the lane's dense arrays to `cap` supernode-id slots,
    /// returning the backing allocations beyond it. Stamps below the cap
    /// stay valid (values are only live under the current epoch, and
    /// every consumer opens a fresh epoch via [`Scratch::begin`] before
    /// reading).
    fn shrink_to_ids(&mut self, cap: usize) {
        if self.stamp.len() > cap {
            self.stamp.truncate(cap);
            self.stamp.shrink_to_fit();
            self.val.truncate(cap);
            self.val.shrink_to_fit();
            self.touched.clear();
            self.touched.shrink_to_fit();
        }
    }
}

/// Reusable evaluation scratch: two epoch-stamped dense lanes (one per
/// merge endpoint). One allocation serves the millions of evaluations a
/// run performs; [`Scratch::begin`] clears both lanes in `O(touched)`.
#[derive(Default)]
pub struct Scratch {
    epoch: u32,
    a: DenseLane,
    b: DenseLane,
}

impl Scratch {
    /// Opens a fresh epoch with both lanes empty, sizing lane `a` for
    /// `n` supernode ids. Lane `b` is sized on demand
    /// ([`Scratch::ensure_b`]): the cached evaluator and the commit
    /// path only ever touch lane `a`, so the default pipeline pays for
    /// one dense lane per worker thread, not two.
    fn begin(&mut self, n: usize) {
        self.a.ensure(n);
        self.a.touched.clear();
        self.b.touched.clear();
        if self.epoch == u32::MAX {
            // Once per 2^32 epochs: retire every stale stamp so old
            // epochs can never alias the restarted counter.
            self.a.stamp.fill(0);
            self.b.stamp.fill(0);
            self.epoch = 0;
        }
        self.epoch += 1;
    }

    /// Sizes lane `b` (the scan evaluator's second accumulator).
    fn ensure_b(&mut self, n: usize) {
        self.b.ensure(n);
    }

    /// Caps both dense lanes to at most `cap` supernode-id slots,
    /// returning any memory beyond that to the allocator — the scratch
    /// lifetime hook (ROADMAP): a lane sized for the largest graph a
    /// thread ever processed shrinks back to the active graph. A later
    /// run against a bigger graph simply regrows it.
    pub fn shrink_to(&mut self, cap: usize) {
        self.a.shrink_to_ids(cap);
        self.b.shrink_to_ids(cap);
    }

    /// Frees both lanes entirely (capacity and epoch state). Safe at any
    /// quiescent point: the next [`Scratch::begin`] restarts from a
    /// fresh epoch over zeroed stamps.
    pub fn release(&mut self) {
        *self = Scratch::default();
    }
}

thread_local! {
    static THREAD_SCRATCH: RefCell<Scratch> = RefCell::new(Scratch::default());
}

/// Runs `f` with this thread's reusable [`Scratch`]. Epoch stamping
/// makes reuse across unrelated calls free, so evaluate-phase workers
/// share one allocation across all the groups they process.
pub(crate) fn with_thread_scratch<R>(f: impl FnOnce(&mut Scratch) -> R) -> R {
    THREAD_SCRATCH.with(|cell| f(&mut cell.borrow_mut()))
}

/// Caps the *current thread's* reusable evaluation scratch to `cap`
/// supernode-id slots ([`Scratch::shrink_to`]). Called by the request
/// API at run finalization so a long-lived server thread keeps lanes
/// sized to the graph it is actually serving, not the largest one it
/// ever saw. (Under the vendored scoped executor, evaluate-phase worker
/// threads are per-phase and their lanes free with the threads; this
/// hook covers the persistent driver thread — and every worker, under a
/// pooled executor, if routed through it.)
pub fn shrink_thread_scratch(cap: usize) {
    with_thread_scratch(|s| s.shrink_to(cap));
}

/// Frees the current thread's reusable evaluation scratch entirely
/// ([`Scratch::release`]), along with its pooled group-cache arena —
/// for workers being retired or parked.
pub fn release_thread_scratch() {
    with_thread_scratch(|s| s.release());
    GROUP_CACHE_POOL.with(|cell| *cell.borrow_mut() = None);
}

/// Outcome of evaluating a candidate merge `{A, B}` (Eq. 10–11).
#[derive(Clone, Copy, Debug)]
pub struct DeltaEval {
    /// Absolute cost reduction `ΔCost` (Eq. 10).
    pub delta: f64,
    /// Relative cost reduction `ΔCost / (Cost_A + Cost_B − Cost_AB)`
    /// (Eq. 11); 0 when the denominator vanishes.
    pub relative: f64,
}

/// Read access to summary state sufficient to price a merge (Lemma 1).
///
/// Implemented by [`WorkingSummary`] (the live shared state) and by
/// [`GroupView`] (a frozen snapshot plus a group-local overlay, used by
/// the parallel evaluate phase). Everything [`eval_merge_view`] needs
/// goes through this trait, so evaluation is physically unable to mutate
/// shared state.
pub trait SummaryView {
    /// The input graph.
    fn graph_ref(&self) -> &Graph;
    /// The node weights in force.
    fn weights_ref(&self) -> &NodeWeights;
    /// Cost parameters (log2|V|, encoding model).
    fn cost_params(&self) -> &CostParams;
    /// Number of live supernodes in this view.
    fn live_count(&self) -> usize;
    /// Member nodes of a live supernode.
    fn members_of(&self, s: SuperId) -> &[NodeId];
    /// `Σ ŵ_u` over the members of `s`.
    fn wsum_of(&self, s: SuperId) -> f64;
    /// `Σ ŵ_u²` over the members of `s`.
    fn sqsum_of(&self, s: SuperId) -> f64;
    /// Supernode currently containing node `u`.
    fn super_of(&self, u: NodeId) -> SuperId;
    /// True if the superedge `{a, b}` exists in this view.
    fn has_superedge_in(&self, a: SuperId, b: SuperId) -> bool;

    /// `log2` of the live supernode count (0 when ≤ 1 remain).
    #[inline]
    fn view_log_s(&self) -> f64 {
        let live = self.live_count();
        if live <= 1 {
            0.0
        } else {
            (live as f64).log2()
        }
    }
}

/// Total pair weight between distinct supernodes: `ŵ_A · ŵ_B`.
#[inline]
fn tot_between_view<V: SummaryView + ?Sized>(v: &V, a: SuperId, b: SuperId) -> f64 {
    v.wsum_of(a) * v.wsum_of(b)
}

/// Total pair weight inside a supernode: `(ŵ_A² − Σŵ_u²)/2`.
#[inline]
fn tot_within_view<V: SummaryView + ?Sized>(v: &V, a: SuperId) -> f64 {
    let w = v.wsum_of(a);
    ((w * w - v.sqsum_of(a)) / 2.0).max(0.0)
}

/// The Lemma-1 `O(Σ |N_u|)` scan: accumulates, per neighbor supernode
/// `X`, the summed personalized edge weight between `s` and `X` into
/// `lane`, in member-edge visit order (the canonical per-key
/// accumulation order — span building and the scan evaluator both use
/// it, which is what makes their sums bitwise identical).
/// Intra-supernode edges accumulate twice their weight (visited from
/// both endpoints); divide by two before using as `e_ss`.
fn accumulate_edge_weights_view<V: SummaryView + ?Sized>(
    v: &V,
    s: SuperId,
    lane: &mut DenseLane,
    epoch: u32,
) {
    let g = v.graph_ref();
    let w = v.weights_ref();
    for &u in v.members_of(s) {
        let wu = w.node(u);
        for &nb in g.neighbors(u) {
            lane.add(v.super_of(nb), wu * w.node(nb), epoch);
        }
    }
}

/// Fills this thread's scratch with `s`'s aggregated neighbor-supernode
/// weight vector and hands the lane plus its epoch to `f` — the
/// accumulation primitive behind sparsification pricing. The lane is
/// *not* sorted: per-key sums are order-independent of `touched`, and
/// the only consumer does point lookups ([`DenseLane::get`]).
pub(crate) fn with_weight_vector<V, R>(v: &V, s: SuperId, f: impl FnOnce(&DenseLane, u32) -> R) -> R
where
    V: SummaryView + ?Sized,
{
    with_thread_scratch(|scratch| {
        scratch.begin(v.graph_ref().num_nodes());
        accumulate_edge_weights_view(v, s, &mut scratch.a, scratch.epoch);
        f(&scratch.a, scratch.epoch)
    })
}

/// **The** canonical pricing routine (Eq. 10–11): prices the merge
/// `{a, b}` from two *sorted* neighbor-supernode weight vectors,
/// generically over their storage (positional span columns, or a dense
/// lane projected through its `touched` list). Every evaluator funnels
/// through this one function, so the f64 accumulation order —
/// per-supernode costs in ascending-`SuperId` order, the merged
/// supernode's externals in sorted merge-join union order — is shared
/// **by construction**: identical vector contents give bitwise-identical
/// [`DeltaEval`]s (the DESIGN.md §7 invariant).
///
/// `va(i)`/`vb(i)` read side a/b's `i`-th value; `pa(i, x)`/`pb(i, x)`
/// resolve superedge presence for the `i`-th entry with key `x`;
/// `wx(x)` resolves a supernode's weight sum — callers must pass a
/// function extensionally equal to `|x| v.wsum_of(x)` (the cached fast
/// path hoists its overlay-or-snapshot branch out of the per-entry
/// loops this way).
#[allow(clippy::too_many_arguments)]
fn price_merge_canonical<V, WX, VA, VB, PA, PB>(
    v: &V,
    a: SuperId,
    b: SuperId,
    ka: &[SuperId],
    va: VA,
    pa: PA,
    kb: &[SuperId],
    vb: VB,
    pb: PB,
    wx: WX,
) -> DeltaEval
where
    V: SummaryView + ?Sized,
    WX: Fn(SuperId) -> f64,
    VA: Fn(usize) -> f64,
    VB: Fn(usize) -> f64,
    PA: Fn(usize, SuperId) -> bool,
    PB: Fn(usize, SuperId) -> bool,
{
    let p = v.cost_params();
    let log_s = v.view_log_s();
    let (wa, wb) = (wx(a), wx(b));

    // Cost_A and Cost_B (Eq. 9), ascending key order.
    let mut cost_a = 0.0;
    for (i, &x) in ka.iter().enumerate() {
        let e_raw = va(i);
        let (tot, e) = if x == a {
            (tot_within_view(v, a), e_raw / 2.0)
        } else {
            (wa * wx(x), e_raw)
        };
        cost_a += pair_cost(pa(i, x), tot, e, log_s, p);
    }
    let mut cost_b = 0.0;
    for (i, &x) in kb.iter().enumerate() {
        let e_raw = vb(i);
        let (tot, e) = if x == b {
            (tot_within_view(v, b), e_raw / 2.0)
        } else {
            (wb * wx(x), e_raw)
        };
        cost_b += pair_cost(pb(i, x), tot, e, log_s, p);
    }

    let e_ab = match ka.binary_search(&b) {
        Ok(i) => va(i),
        Err(_) => 0.0,
    };
    let cost_ab = pair_cost(v.has_superedge_in(a, b), wa * wb, e_ab, log_s, p);
    let denom = cost_a + cost_b - cost_ab;

    // Cost of the merged supernode C = A ∪ B with optimal re-encoding of
    // its incident pairs, priced at |S| − 1 supernodes.
    let live = v.live_count();
    let log_s_after = if live <= 2 {
        0.0
    } else {
        ((live - 1) as f64).log2()
    };
    let wc = wa + wb;
    let sqc = v.sqsum_of(a) + v.sqsum_of(b);
    let tot_cc = ((wc * wc - sqc) / 2.0).max(0.0);
    let e_aa = match ka.binary_search(&a) {
        Ok(i) => va(i),
        Err(_) => 0.0,
    };
    let e_bb = match kb.binary_search(&b) {
        Ok(i) => vb(i),
        Err(_) => 0.0,
    };
    let e_cc = e_aa / 2.0 + e_bb / 2.0 + e_ab;
    let mut cost_c = best_pair_cost(tot_cc, e_cc, log_s_after, p).0;

    // Externals of C: two-pointer merge-join over the two sorted key
    // lists (ascending union order — the canonical cost_c summation
    // order), with straight-line tails once either side is exhausted.
    let mut external = |x: SuperId, e: f64| {
        if x != a && x != b {
            cost_c += best_pair_cost(wc * wx(x), e, log_s_after, p).0;
        }
    };
    let (mut i, mut j) = (0usize, 0usize);
    while i < ka.len() && j < kb.len() {
        let (xa, xb) = (ka[i], kb[j]);
        if xa == xb {
            external(xa, va(i) + vb(j));
            i += 1;
            j += 1;
        } else if xa < xb {
            external(xa, va(i));
            i += 1;
        } else {
            external(xb, vb(j));
            j += 1;
        }
    }
    while i < ka.len() {
        external(ka[i], va(i));
        i += 1;
    }
    while j < kb.len() {
        external(kb[j], vb(j));
        j += 1;
    }

    let delta = denom - cost_c;
    let relative = if denom > f64::EPSILON {
        delta / denom
    } else {
        0.0
    };
    DeltaEval { delta, relative }
}

/// Evaluates the merge of live supernodes `a != b` (Eq. 10–11) against
/// any [`SummaryView`], without mutating anything. `O(Σ_{u∈A∪B} |N_u|)`
/// per Lemma 1 — the *scan* evaluator: it re-walks member edges on every
/// call. The group evaluator answers from cached spans instead
/// ([`GroupView::eval_merge_cached`]) and agrees with this function
/// bitwise on any snapshot state (both price through
/// [`price_merge_canonical`]).
pub fn eval_merge_view<V: SummaryView + ?Sized>(
    v: &V,
    a: SuperId,
    b: SuperId,
    scratch: &mut Scratch,
) -> DeltaEval {
    debug_assert!(a != b);
    scratch.begin(v.graph_ref().num_nodes());
    scratch.ensure_b(v.graph_ref().num_nodes());
    accumulate_edge_weights_view(v, a, &mut scratch.a, scratch.epoch);
    accumulate_edge_weights_view(v, b, &mut scratch.b, scratch.epoch);
    scratch.a.sort_touched();
    scratch.b.sort_touched();
    let (la, lb) = (&scratch.a, &scratch.b);
    price_merge_canonical(
        v,
        a,
        b,
        &la.touched,
        |i| la.val[la.touched[i] as usize],
        |_, x| v.has_superedge_in(a, x),
        &lb.touched,
        |i| lb.val[lb.touched[i] as usize],
        |_, x| v.has_superedge_in(b, x),
        |x| v.wsum_of(x),
    )
}

/// Null link of the intrusive live list.
const LIVE_NIL: SuperId = SuperId::MAX;

/// The persistent live-supernode set: an intrusive doubly-linked list
/// threaded through the `SuperId` space. Ids are linked in ascending
/// order at construction and only ever *removed* (a merge kills one
/// id), so in-order traversal stays ascending for the whole run —
/// the canonical enumeration order `live_ids()` used to rebuild with
/// an `O(|V|)` scan per call. Removal is `O(1)` at commit.
#[derive(Clone, Debug)]
struct LiveList {
    next: Vec<SuperId>,
    prev: Vec<SuperId>,
    head: SuperId,
}

impl LiveList {
    /// Links exactly the ids for which `alive` holds, ascending.
    fn new(n: usize, mut alive: impl FnMut(usize) -> bool) -> Self {
        let mut next = vec![LIVE_NIL; n];
        let mut prev = vec![LIVE_NIL; n];
        let mut head = LIVE_NIL;
        let mut last = LIVE_NIL;
        for i in 0..n {
            if !alive(i) {
                continue;
            }
            let i = i as SuperId;
            if last == LIVE_NIL {
                head = i;
            } else {
                next[last as usize] = i;
                prev[i as usize] = last;
            }
            last = i;
        }
        LiveList { next, prev, head }
    }

    /// Unlinks `s` in O(1). `s` must currently be linked.
    #[inline]
    fn remove(&mut self, s: SuperId) {
        let (p, nx) = (self.prev[s as usize], self.next[s as usize]);
        if p == LIVE_NIL {
            self.head = nx;
        } else {
            self.next[p as usize] = nx;
        }
        if nx != LIVE_NIL {
            self.prev[nx as usize] = p;
        }
    }
}

/// Ascending iterator over the live supernode ids
/// ([`WorkingSummary::live_iter`]).
pub struct LiveIter<'s> {
    next: &'s [SuperId],
    cur: SuperId,
}

impl Iterator for LiveIter<'_> {
    type Item = SuperId;

    #[inline]
    fn next(&mut self) -> Option<SuperId> {
        if self.cur == LIVE_NIL {
            return None;
        }
        let s = self.cur;
        self.cur = self.next[s as usize];
        Some(s)
    }
}

/// Persistent per-supernode min-hash signatures (DESIGN.md §11): `lanes`
/// independent hash lanes per supernode, flat-indexed `s * lanes + k`.
/// Lane `k` of supernode `U` holds `min_{u∈U} min_{v∈N(u)∪{u}}
/// f_k(v)` — Eq. (12) under the `k`-th bank hash. Because `u64::min` is
/// exactly associative and commutative, a commit-phase merge repairs the
/// survivor's signature as the lane-wise min of the two sides in
/// `O(lanes)`, and the maintained value is **bitwise equal** to a
/// from-scratch recompute over the merged member set (pinned by
/// `signatures_match_recompute_after_merges` and the proptest in
/// `tests/core_props.rs`).
struct SigBank {
    lanes: usize,
    data: Vec<u64>,
}

impl SigBank {
    /// Folds the dead side's signature into the survivor, lane-wise.
    #[inline]
    fn fold_into(&mut self, keep: SuperId, dead: SuperId) {
        let l = self.lanes;
        let d0 = dead as usize * l;
        let k0 = keep as usize * l;
        for k in 0..l {
            let dv = self.data[d0 + k];
            let kv = &mut self.data[k0 + k];
            if dv < *kv {
                *kv = dv;
            }
        }
    }
}

/// The summary graph under construction: supernode partition, superedge
/// adjacency, and the incremental statistics needed to evaluate merges in
/// `O(Σ_{u∈A∪B} |N_u|)` (Lemma 1).
pub struct WorkingSummary<'a> {
    g: &'a Graph,
    w: &'a NodeWeights,
    params: CostParams,
    /// Supernode of each node.
    node_super: Vec<SuperId>,
    /// Member lists indexed by `SuperId`; `None` = merged away.
    members: Vec<Option<Vec<NodeId>>>,
    /// Dense weight-sum columns indexed by `SuperId` (`Σ ŵ_u` and
    /// `Σ ŵ_u²` over the members) — flat `f64` reads on the evaluator's
    /// hottest access path. Dead slots hold stale values, never read.
    wsum: Vec<f64>,
    sqsum: Vec<f64>,
    /// Superedge adjacency per supernode; a self-loop is the supernode's
    /// own id. Dead slots are empty.
    adj: Vec<FxHashSet<SuperId>>,
    /// Number of live supernodes `|S|`.
    live: usize,
    /// Number of superedges `|P|` (self-loops count once).
    num_superedges: usize,
    /// Persistent live-id list, maintained in O(1) by `merge`.
    live_list: LiveList,
    /// Persistent min-hash signature lanes; attached by the incremental
    /// candidate generator ([`crate::shingle::attach_signatures`]) and
    /// repaired lane-wise at every commit-phase merge.
    sigs: Option<SigBank>,
}

impl<'a> WorkingSummary<'a> {
    /// Initializes the summary with singleton supernodes and one superedge
    /// per input edge (Alg. 1 line 1).
    pub fn new(g: &'a Graph, w: &'a NodeWeights, model: CostModel) -> Self {
        assert_eq!(g.num_nodes(), w.len(), "weights must cover all nodes");
        let n = g.num_nodes();
        let node_super: Vec<SuperId> = (0..n as SuperId).collect();
        let members: Vec<Option<Vec<NodeId>>> = (0..n).map(|u| Some(vec![u as NodeId])).collect();
        let wsum: Vec<f64> = (0..n).map(|u| w.node(u as NodeId)).collect();
        let sqsum: Vec<f64> = wsum.iter().map(|&wu| wu * wu).collect();
        let mut adj: Vec<FxHashSet<SuperId>> = Vec::with_capacity(n);
        for u in 0..n as NodeId {
            let mut set = FxHashSet::with_capacity_and_hasher(g.degree(u), Default::default());
            set.extend(g.neighbors(u).iter().map(|&v| v as SuperId));
            adj.push(set);
        }
        WorkingSummary {
            g,
            w,
            params: CostParams::new(n, model),
            node_super,
            members,
            wsum,
            sqsum,
            adj,
            live: n,
            num_superedges: g.num_edges(),
            live_list: LiveList::new(n, |_| true),
            sigs: None,
        }
    }

    /// Rebuilds a mid-run summary from checkpointed parts: per live
    /// supernode its id, **verbatim** `Σ ŵ_u` / `Σ ŵ_u²` (rounding from
    /// the incremental merge sums preserved), and members in their
    /// original in-memory order; plus the superedge pair set. The
    /// resulting state is indistinguishable from the one
    /// [`WorkingSummary::merge`] built live — the checkpoint/resume
    /// byte-identity contract (DESIGN.md §10).
    ///
    /// # Panics
    /// Panics unless the member lists partition `0..|V|` and superedge
    /// pairs are unique — [`crate::checkpoint::RunCheckpoint::decode`]
    /// validates both before this runs.
    pub fn from_checkpoint<'s>(
        g: &'a Graph,
        w: &'a NodeWeights,
        model: CostModel,
        supers: impl Iterator<Item = (SuperId, f64, f64, &'s [NodeId])>,
        superedges: &[(SuperId, SuperId)],
    ) -> Self {
        assert_eq!(g.num_nodes(), w.len(), "weights must cover all nodes");
        let n = g.num_nodes();
        let mut node_super: Vec<SuperId> = vec![SuperId::MAX; n];
        let mut members: Vec<Option<Vec<NodeId>>> = vec![None; n];
        let mut wsum = vec![0.0; n];
        let mut sqsum = vec![0.0; n];
        let mut live = 0usize;
        for (id, ws_, sq, mem) in supers {
            for &u in mem {
                node_super[u as usize] = id;
            }
            members[id as usize] = Some(mem.to_vec());
            wsum[id as usize] = ws_;
            sqsum[id as usize] = sq;
            live += 1;
        }
        assert!(
            node_super.iter().all(|&s| s != SuperId::MAX),
            "checkpoint members must partition the node set"
        );
        let mut adj: Vec<FxHashSet<SuperId>> = vec![FxHashSet::default(); n];
        for &(a, b) in superedges {
            adj[a as usize].insert(b);
            if a != b {
                adj[b as usize].insert(a);
            }
        }
        let live_list = LiveList::new(n, |i| members[i].is_some());
        WorkingSummary {
            g,
            w,
            params: CostParams::new(n, model),
            node_super,
            members,
            wsum,
            sqsum,
            adj,
            live,
            num_superedges: superedges.len(),
            live_list,
            sigs: None,
        }
    }

    /// The input graph.
    #[inline]
    pub fn graph(&self) -> &Graph {
        self.g
    }

    /// `Σ ŵ_u` of a live supernode, for checkpointing (the raw column
    /// value — stored verbatim so resume preserves merge-sum rounding).
    #[inline]
    pub fn wsum_raw(&self, s: SuperId) -> f64 {
        debug_assert!(self.is_live(s), "dead supernode");
        self.wsum[s as usize]
    }

    /// `Σ ŵ_u²` of a live supernode, for checkpointing.
    #[inline]
    pub fn sqsum_raw(&self, s: SuperId) -> f64 {
        debug_assert!(self.is_live(s), "dead supernode");
        self.sqsum[s as usize]
    }

    /// The node weights in force.
    #[inline]
    pub fn weights(&self) -> &NodeWeights {
        self.w
    }

    /// Cost parameters (log2|V|, encoding model).
    #[inline]
    pub fn params(&self) -> &CostParams {
        &self.params
    }

    /// Number of live supernodes `|S|`.
    #[inline]
    pub fn num_supernodes(&self) -> usize {
        self.live
    }

    /// Number of superedges `|P|`.
    #[inline]
    pub fn num_superedges(&self) -> usize {
        self.num_superedges
    }

    /// `log2 |S|` (0 when a single supernode remains).
    #[inline]
    pub fn log_s(&self) -> f64 {
        if self.live <= 1 {
            0.0
        } else {
            (self.live as f64).log2()
        }
    }

    /// Current size in bits per Eq. (3).
    pub fn size_bits(&self) -> f64 {
        (2.0 * self.num_superedges as f64 + self.g.num_nodes() as f64) * self.log_s()
    }

    /// True if `s` names a live supernode.
    #[inline]
    pub fn is_live(&self, s: SuperId) -> bool {
        (s as usize) < self.members.len() && self.members[s as usize].is_some()
    }

    /// Ids of all live supernodes, ascending — a collected
    /// [`WorkingSummary::live_iter`]. Prefer the iterator where a `Vec`
    /// is not required: it walks the persistent live list in `O(|S|)`
    /// without allocating (the old implementation scanned all `|V|`
    /// member slots into a fresh `Vec` per call).
    pub fn live_ids(&self) -> Vec<SuperId> {
        let mut ids = Vec::with_capacity(self.live);
        ids.extend(self.live_iter());
        ids
    }

    /// Ascending iterator over the live supernode ids, backed by the
    /// persistent live list `merge` maintains in O(1) per commit.
    pub fn live_iter(&self) -> LiveIter<'_> {
        LiveIter {
            next: &self.live_list.next,
            cur: self.live_list.head,
        }
    }

    /// Member nodes of a live supernode.
    ///
    /// # Panics
    /// Panics if `s` is dead.
    pub fn members(&self, s: SuperId) -> &[NodeId] {
        // pgs-allow: PGS004 documented `# Panics` contract: callers pass live supernodes
        self.members[s as usize].as_ref().expect("dead supernode")
    }

    /// Installs the persistent signature bank (`lanes` min-hash values
    /// per supernode, flat-indexed `s * lanes + k`). Built by
    /// [`crate::shingle::attach_signatures`]; from here on every
    /// [`WorkingSummary::merge`] repairs the survivor lane-wise in
    /// `O(lanes)`.
    pub(crate) fn set_signature_bank(&mut self, lanes: usize, data: Vec<u64>) {
        debug_assert_eq!(data.len(), self.g.num_nodes() * lanes);
        self.sigs = Some(SigBank { lanes, data });
    }

    /// Number of signature lanes attached (0 = no bank).
    pub fn signature_lanes(&self) -> usize {
        self.sigs.as_ref().map_or(0, |b| b.lanes)
    }

    /// Lane `lane` of live supernode `s`'s maintained min-hash
    /// signature.
    ///
    /// # Panics
    /// Panics if no bank is attached or `lane` is out of range.
    #[inline]
    pub fn signature(&self, s: SuperId, lane: usize) -> u64 {
        // pgs-allow: PGS004 documented `# Panics` contract: a bank must be attached first
        let bank = self.sigs.as_ref().expect("no signature bank attached");
        assert!(lane < bank.lanes, "lane {lane} out of range");
        debug_assert!(self.is_live(s), "dead supernode");
        bank.data[s as usize * bank.lanes + lane]
    }

    /// Supernode currently containing node `u`.
    #[inline]
    pub fn supernode_of(&self, u: NodeId) -> SuperId {
        self.node_super[u as usize]
    }

    /// True if the superedge `{a, b}` currently exists.
    #[inline]
    pub fn has_superedge(&self, a: SuperId, b: SuperId) -> bool {
        self.adj[a as usize].contains(&b)
    }

    /// Superedge neighbors of `s` (self-loop included as `s`).
    pub fn superedge_neighbors(&self, s: SuperId) -> impl Iterator<Item = SuperId> + '_ {
        self.adj[s as usize].iter().copied()
    }

    /// Superedge adjacency set of `s` (self-loop stored as `s` itself).
    #[inline]
    pub(crate) fn adj_set(&self, s: SuperId) -> &FxHashSet<SuperId> {
        &self.adj[s as usize]
    }

    /// Evaluates the merge of live supernodes `a != b` (Eq. 10–11) without
    /// mutating anything. `O(Σ_{u∈A∪B} |N_u|)` per Lemma 1. Delegates to
    /// [`eval_merge_view`], the generic read-only evaluate half.
    pub fn eval_merge(&self, a: SuperId, b: SuperId, scratch: &mut Scratch) -> DeltaEval {
        debug_assert!(a != b && self.is_live(a) && self.is_live(b));
        eval_merge_view(self, a, b, scratch)
    }

    /// Merges supernodes `a` and `b` (Alg. 2 lines 6–9): removes all
    /// superedges incident to either, unions the member sets (smaller
    /// into larger, so total relabeling work is `O(n log n)` across a
    /// run), and selectively re-adds superedges incident to `A ∪ B` so
    /// that `Cost_{A∪B}` (Eq. 9) is minimized. Returns the id of the
    /// merged supernode (the survivor's id is reused).
    pub fn merge(&mut self, a: SuperId, b: SuperId, scratch: &mut Scratch) -> SuperId {
        assert!(
            a != b && self.is_live(a) && self.is_live(b),
            "merge needs two live supernodes"
        );
        // Weighted union: keep the larger side's id.
        // pgs-allow: PGS004 liveness asserted at entry
        let size_a = self.members[a as usize].as_ref().unwrap().len();
        // pgs-allow: PGS004 liveness asserted at entry
        let size_b = self.members[b as usize].as_ref().unwrap().len();
        let (keep, dead) = if size_a >= size_b { (a, b) } else { (b, a) };

        // Drop all superedges incident to either endpoint (Alg. 2 line 8).
        for s in [keep, dead] {
            let incident = std::mem::take(&mut self.adj[s as usize]);
            self.num_superedges -= incident.len();
            for x in incident {
                if x != s {
                    self.adj[x as usize].remove(&s);
                }
            }
        }
        // Note: if the superedge {keep, dead} existed it was stored in both
        // adjacency sets but counted once in `num_superedges`; removing
        // keep's set deletes it from dead's set first, so it is not
        // double-subtracted.

        // Union member sets and aggregates.
        // pgs-allow: PGS004 liveness asserted at entry
        let dead_members = self.members[dead as usize].take().expect("dead side live");
        {
            let keep_members = self.members[keep as usize]
                .as_mut()
                // pgs-allow: PGS004 liveness asserted at entry
                .expect("keep side live");
            for &u in &dead_members {
                self.node_super[u as usize] = keep;
            }
            keep_members.extend_from_slice(&dead_members);
        }
        self.wsum[keep as usize] += self.wsum[dead as usize];
        self.sqsum[keep as usize] += self.sqsum[dead as usize];
        self.live -= 1;
        self.live_list.remove(dead);
        if let Some(bank) = &mut self.sigs {
            bank.fold_into(keep, dead);
        }

        // Selective superedge addition (Alg. 2 line 9): re-scan the merged
        // supernode's incident input edges and keep exactly the
        // cost-reducing superedges.
        scratch.begin(self.g.num_nodes());
        accumulate_edge_weights_view(self, keep, &mut scratch.a, scratch.epoch);
        scratch.a.sort_touched();
        let log_s = self.log_s();
        let mut added = 0usize;
        for &x in &scratch.a.touched {
            let e_raw = scratch.a.val[x as usize];
            let (tot, e) = if x == keep {
                (tot_within_view(self, keep), e_raw / 2.0)
            } else {
                (tot_between_view(self, keep, x), e_raw)
            };
            let (_, add) = best_pair_cost(tot, e, log_s, &self.params);
            if add {
                self.adj[keep as usize].insert(x);
                if x != keep {
                    self.adj[x as usize].insert(keep);
                }
                added += 1;
            }
        }
        self.num_superedges += added;
        keep
    }

    /// Drops the superedge `{a, b}` if present (used by sparsification,
    /// Sect. III-F). Returns whether anything was removed.
    pub fn remove_superedge(&mut self, a: SuperId, b: SuperId) -> bool {
        if self.adj[a as usize].remove(&b) {
            if a != b {
                self.adj[b as usize].remove(&a);
            }
            self.num_superedges -= 1;
            true
        } else {
            false
        }
    }

    /// Total pair weight between two (possibly equal) live supernodes:
    /// `Σ W_uv` over all node pairs of the block — the `tot` operand of
    /// the Eq. (6) pair cost. Exposed for sparsification and tests.
    pub fn pair_tot(&self, a: SuperId, b: SuperId) -> f64 {
        if a == b {
            tot_within_view(self, a)
        } else {
            tot_between_view(self, a, b)
        }
    }

    /// Freezes into an immutable [`Summary`] (superedge weights 1.0).
    pub fn into_summary(self) -> Summary {
        let n = self.g.num_nodes();
        let assignment: Vec<u32> = self.node_super.clone();
        let mut superedges = Vec::with_capacity(self.num_superedges);
        // pgs-allow: PGS001 Summary::new sorts superedges canonically
        for (s, set) in self.adj.iter().enumerate() {
            let s = s as SuperId;
            // pgs-allow: PGS001 Summary::new sorts superedges canonically
            for &x in set {
                if s <= x {
                    superedges.push((s, x, 1.0f32));
                }
            }
        }
        Summary::new(n, assignment, &superedges)
    }
}

impl SummaryView for WorkingSummary<'_> {
    #[inline]
    fn graph_ref(&self) -> &Graph {
        self.g
    }

    #[inline]
    fn weights_ref(&self) -> &NodeWeights {
        self.w
    }

    #[inline]
    fn cost_params(&self) -> &CostParams {
        &self.params
    }

    #[inline]
    fn live_count(&self) -> usize {
        self.live
    }

    #[inline]
    fn members_of(&self, s: SuperId) -> &[NodeId] {
        self.members(s)
    }

    #[inline]
    fn wsum_of(&self, s: SuperId) -> f64 {
        debug_assert!(self.is_live(s), "dead supernode");
        self.wsum[s as usize]
    }

    #[inline]
    fn sqsum_of(&self, s: SuperId) -> f64 {
        debug_assert!(self.is_live(s), "dead supernode");
        self.sqsum[s as usize]
    }

    #[inline]
    fn super_of(&self, u: NodeId) -> SuperId {
        self.node_super[u as usize]
    }

    #[inline]
    fn has_superedge_in(&self, a: SuperId, b: SuperId) -> bool {
        self.adj[a as usize].contains(&b)
    }
}

/// The group-local superedge-weight cache: per group member, the
/// aggregated neighbor-supernode weight vector as a sorted
/// `(SuperId, f64)` span in a bump arena (parallel `keys`/`vals`
/// columns). Spans are immutable once written; an intra-group merge
/// appends the combined span and retires the inputs, and span keys that
/// name locally-dead supernodes are remapped dead→kept lazily at read
/// time through `forward`.
#[derive(Default)]
struct GroupCache {
    keys: Vec<SuperId>,
    vals: Vec<f64>,
    /// Snapshot superedge presence of `{member, key}` per entry — lets
    /// the clean-span fast path price without adjacency-set lookups.
    /// Only meaningful while the owning span is clean (merged spans are
    /// born dirty and never read it).
    pres: Vec<bool>,
    /// Live member supernode → its span in the arena.
    spans: FxHashMap<SuperId, Span>,
    /// Locally-dead supernode → its surviving merge target (one step;
    /// reads follow the chain).
    forward: FxHashMap<SuperId, SuperId>,
    /// Total length of the spans currently mapped — the live fraction of
    /// the arena. Everything beyond it is retired garbage; once garbage
    /// is the majority the arena compacts in place
    /// ([`GroupCache::compact`]).
    live_len: usize,
}

/// Arena entries below which compaction is never worth the copy.
const COMPACT_MIN_ARENA: usize = 256;

/// One cached weight-vector span: an arena window plus a staleness bit.
///
/// A span is **dirty** once any of its keys or presence bits may
/// disagree with the overlay — it was rebuilt by a merge, or it
/// references a supernode that merged locally. Dirty spans price
/// through the lane path (lazy remap); clean spans price straight off
/// the arena with zero hash lookups.
#[derive(Clone, Copy)]
struct Span {
    start: u32,
    len: u32,
    dirty: bool,
}

impl GroupCache {
    /// Follows dead→kept links to the currently-live supernode.
    #[inline]
    fn resolve(&self, mut s: SuperId) -> SuperId {
        while let Some(&t) = self.forward.get(&s) {
            s = t;
        }
        s
    }

    /// A span's `(keys, vals, presence)` slices.
    #[inline]
    fn slices(&self, span: Span) -> (&[SuperId], &[f64], &[bool]) {
        let (start, len) = (span.start as usize, span.len as usize);
        (
            &self.keys[start..start + len],
            &self.vals[start..start + len],
            &self.pres[start..start + len],
        )
    }

    /// Marks every clean span referencing `keep` or `dead` dirty — their
    /// keys (dead) or presence bits (keep's superedges were dropped and
    /// re-added) no longer reflect the overlay. Spans are sorted, so
    /// each check is two binary searches.
    fn mark_dirty_referencing(&mut self, keep: SuperId, dead: SuperId) {
        let keys = &self.keys;
        // pgs-allow: PGS001 order-insensitive: only sets dirty bits, no output depends on visit order
        for span in self.spans.values_mut() {
            if span.dirty {
                continue;
            }
            let ks = &keys[span.start as usize..(span.start + span.len) as usize];
            if ks.binary_search(&keep).is_ok() || ks.binary_search(&dead).is_ok() {
                span.dirty = true;
            }
        }
    }

    /// Accumulates `s`'s cached span into `lane`, remapping stale keys.
    /// Entries are added in span (ascending original key) order — the
    /// canonical order the equivalence invariant is defined over.
    fn load(&self, s: SuperId, lane: &mut DenseLane, epoch: u32) {
        let Span { start, len, .. } = self.spans[&s];
        let (start, len) = (start as usize, len as usize);
        if self.forward.is_empty() {
            for i in start..start + len {
                lane.add(self.keys[i], self.vals[i], epoch);
            }
        } else {
            for i in start..start + len {
                lane.add(self.resolve(self.keys[i]), self.vals[i], epoch);
            }
        }
    }

    /// Bump-appends the lane's sorted contents as the new span of `s`,
    /// with presence bits from `present` (called with each entry's
    /// position and key). The single owner of the arena-append
    /// invariant: `keys`/`vals`/`pres` grow in lockstep with the
    /// recorded `Span { start, len }`.
    fn store_from_lane(
        &mut self,
        s: SuperId,
        lane: &DenseLane,
        dirty: bool,
        present: impl Fn(usize, SuperId) -> bool,
    ) -> Span {
        // Replacing a member's span retires the old one; compact first if
        // retired entries dominate the arena (long-running groups churn
        // spans every refresh/merge, and nothing else reclaims them).
        if let Some(old) = self.spans.remove(&s) {
            self.live_len -= old.len as usize;
        }
        if self.keys.len() >= COMPACT_MIN_ARENA && self.keys.len() >= 2 * self.live_len {
            self.compact();
        }
        let start = self.keys.len() as u32;
        for (i, &x) in lane.touched.iter().enumerate() {
            self.keys.push(x);
            self.vals.push(lane.val[x as usize]);
            self.pres.push(present(i, x));
        }
        let span = Span {
            start,
            len: lane.touched.len() as u32,
            dirty,
        };
        self.spans.insert(s, span);
        self.live_len += span.len as usize;
        span
    }

    /// Drops a member's span (it merged away locally).
    fn retire(&mut self, s: SuperId) {
        if let Some(span) = self.spans.remove(&s) {
            self.live_len -= span.len as usize;
        }
    }

    /// Compacts the arena in place: live spans slide down in arena
    /// order, retired entries vanish, capacity is kept for reuse. Span
    /// contents are copied verbatim (same keys, same value bits, same
    /// presence and dirty state), so every subsequent read is unchanged.
    fn compact(&mut self) {
        let mut order: Vec<(u32, SuperId)> = self
            .spans
            .iter()
            .map(|(&owner, span)| (span.start, owner))
            .collect();
        order.sort_unstable();
        let mut write = 0usize;
        for (start, owner) in order {
            let len = self.spans[&owner].len as usize;
            let start = start as usize;
            if start != write {
                self.keys.copy_within(start..start + len, write);
                self.vals.copy_within(start..start + len, write);
                self.pres.copy_within(start..start + len, write);
                // pgs-allow: PGS004 owner came from iterating these same spans
                self.spans.get_mut(&owner).expect("live span").start = write as u32;
            }
            write += len;
        }
        self.keys.truncate(write);
        self.vals.truncate(write);
        self.pres.truncate(write);
        debug_assert_eq!(write, self.live_len);
    }

    /// Clears all state, keeping allocations — the pooled-reuse hook.
    fn reset(&mut self) {
        self.keys.clear();
        self.vals.clear();
        self.pres.clear();
        self.spans.clear();
        self.forward.clear();
        self.live_len = 0;
    }
}

thread_local! {
    static GROUP_CACHE_POOL: RefCell<Option<GroupCache>> = const { RefCell::new(None) };
}

/// A cleared [`GroupCache`], reusing the previous group's arena and map
/// allocations when this thread processed one before.
fn pooled_group_cache() -> GroupCache {
    GROUP_CACHE_POOL
        .with(|cell| cell.borrow_mut().take())
        .unwrap_or_default()
}

/// Returns a group's cache to this thread's pool for the next group.
fn recycle_group_cache(mut cache: GroupCache) {
    cache.reset();
    GROUP_CACHE_POOL.with(|cell| *cell.borrow_mut() = Some(cache));
}

/// A frozen [`WorkingSummary`] plus a group-local overlay: the parallel
/// evaluate phase's view of the summary.
///
/// Merges simulated through [`GroupView::merge_local`] touch only the
/// overlay; the underlying summary is shared immutably between all
/// workers of an iteration. Supernodes outside the owning group are seen
/// at their iteration-start state — the same staleness the paper's
/// distributed variant accepts within a round — and `log2|S|` is priced
/// against the snapshot live count minus this group's own merges (each
/// group prices as if it alone were shrinking the summary; see
/// DESIGN.md §2).
///
/// Built through [`GroupView::with_cache`], the view additionally
/// carries the group-local weight-vector cache and answers evaluations
/// from spans ([`GroupView::eval_merge_cached`]) instead of member-edge
/// scans (see DESIGN.md §7).
pub struct GroupView<'w, 'a> {
    ws: &'w WorkingSummary<'a>,
    /// Locally-merged survivors (members/weight aggregates diverge from
    /// the snapshot).
    local: FxHashMap<SuperId, SuperData>,
    /// Supernodes merged away locally.
    dead: FxHashSet<SuperId>,
    /// Node → supernode for members of locally-dead supernodes.
    remap: FxHashMap<NodeId, SuperId>,
    /// Copy-on-write superedge adjacency overlay.
    adj_local: FxHashMap<SuperId, FxHashSet<SuperId>>,
    /// Local merge count (prices `log2|S|` within this view).
    merged: usize,
    /// Group-local weight-vector cache (None = scan evaluation).
    cache: Option<GroupCache>,
}

impl<'w, 'a> GroupView<'w, 'a> {
    /// A fresh overlay over the frozen summary, without a weight-vector
    /// cache — evaluations go through the scan path
    /// ([`eval_merge_view`]).
    pub fn new(ws: &'w WorkingSummary<'a>) -> Self {
        GroupView {
            ws,
            local: FxHashMap::default(),
            dead: FxHashSet::default(),
            remap: FxHashMap::default(),
            adj_local: FxHashMap::default(),
            merged: 0,
            cache: None,
        }
    }

    /// A fresh overlay carrying the group-local weight-vector cache:
    /// every member's neighbor-supernode weight vector is aggregated
    /// once, here, and every subsequent [`GroupView::eval_merge_cached`]
    /// answers from the cached spans.
    pub fn with_cache(
        ws: &'w WorkingSummary<'a>,
        group: &[SuperId],
        scratch: &mut Scratch,
    ) -> Self {
        let mut cache = pooled_group_cache();
        let n = ws.g.num_nodes();
        for &s in group {
            scratch.begin(n);
            accumulate_edge_weights_view(ws, s, &mut scratch.a, scratch.epoch);
            scratch.a.sort_touched();
            cache.store_from_lane(s, &scratch.a, false, |_, x| ws.has_superedge(s, x));
        }
        let mut view = GroupView::new(ws);
        view.cache = Some(cache);
        view
    }

    /// Adjacency of `s` as this view sees it.
    #[inline]
    fn adjacency(&self, s: SuperId) -> &FxHashSet<SuperId> {
        self.adj_local.get(&s).unwrap_or_else(|| self.ws.adj_set(s))
    }

    /// Mutable adjacency of `s`, cloned from the snapshot on first touch.
    fn adjacency_mut(&mut self, s: SuperId) -> &mut FxHashSet<SuperId> {
        let ws = self.ws;
        self.adj_local
            .entry(s)
            .or_insert_with(|| ws.adj_set(s).clone())
    }

    /// Evaluates the merge `{a, b}` from the group cache — no
    /// member-edge walk, `O(|span_a| + |span_b|)`.
    ///
    /// A dirty span on either side is first refreshed (keys resolved
    /// dead→kept through the dense scratch, values compacted, presence
    /// bits recomputed against the overlay — the lazy-remap pass, run
    /// once instead of per evaluation). Pricing then walks the two
    /// sorted clean spans directly: presence from the span bits, weights
    /// from the frozen summary (or the overlay where local merges
    /// diverge), zero hash lookups in the per-entry loops. The
    /// accumulation orders match [`eval_merge_view`] exactly, so results
    /// are bitwise identical to the scan evaluator on snapshot states.
    ///
    /// # Panics
    /// Panics if the view was built without a cache.
    pub fn eval_merge_cached(
        &mut self,
        a: SuperId,
        b: SuperId,
        scratch: &mut Scratch,
    ) -> DeltaEval {
        debug_assert!(a != b && !self.dead.contains(&a) && !self.dead.contains(&b));
        // Refresh both before reading either span: a refresh bump-stores
        // and may compact the arena, relocating previously read spans.
        self.refreshed_span(a, scratch);
        self.refreshed_span(b, scratch);
        // pgs-allow: PGS004 constructor invariant: every GroupView is built with a cache
        let cache = self.cache.as_ref().expect("GroupView built without cache");
        let (sa, sb) = (cache.spans[&a], cache.spans[&b]);
        self.eval_from_spans(cache, sa, sb, a, b)
    }

    /// `s`'s span, re-canonicalized first if dirty: stale keys resolved
    /// and combined via the dense scratch (span order in, ascending
    /// order out — the canonical remap-combine), presence bits
    /// recomputed against the overlay, result bump-stored as the
    /// member's new clean span.
    fn refreshed_span(&mut self, s: SuperId, scratch: &mut Scratch) -> Span {
        // pgs-allow: PGS004 constructor invariant: every GroupView is built with a cache
        let cache = self.cache.as_ref().expect("GroupView built without cache");
        let span = cache.spans[&s];
        if !span.dirty {
            return span;
        }
        scratch.begin(self.ws.g.num_nodes());
        cache.load(s, &mut scratch.a, scratch.epoch);
        scratch.a.sort_touched();
        let pres: Vec<bool> = scratch
            .a
            .touched
            .iter()
            .map(|&x| self.has_superedge_in(s, x))
            .collect();
        // pgs-allow: PGS004 same Option checked non-empty at function entry
        let cache = self.cache.as_mut().expect("checked above");
        cache.store_from_lane(s, &scratch.a, false, |i, _| pres[i])
    }

    /// The span fast path: prices `{a, b}` straight from the two sorted
    /// clean spans through [`price_merge_canonical`] — positional value
    /// and presence columns, zero hash lookups in the per-entry loops.
    /// Weight reads short-circuit to the frozen summary while the
    /// overlay is empty; once the group has merged locally they route
    /// through the overlay (one hoisted branch per entry).
    fn eval_from_spans(
        &self,
        cache: &GroupCache,
        sa: Span,
        sb: Span,
        a: SuperId,
        b: SuperId,
    ) -> DeltaEval {
        let ws = self.ws;
        let (ka, va, pa) = cache.slices(sa);
        let (kb, vb, pb) = cache.slices(sb);
        let overlay = !self.local.is_empty();
        // Extensionally `|x| self.wsum_of(x)`, with the overlay branch
        // hoisted: clean spans only reference supernodes whose weights
        // the local merges did not touch.
        let wx = |x: SuperId| -> f64 {
            if overlay {
                self.wsum_of(x)
            } else {
                ws.wsum_of(x)
            }
        };
        price_merge_canonical(
            self,
            a,
            b,
            ka,
            |i| va[i],
            |i, _| pa[i],
            kb,
            |i| vb[i],
            |i, _| pb[i],
            wx,
        )
    }

    /// Simulates the merge of `a` and `b` in the overlay, mirroring
    /// [`WorkingSummary::merge`] (drop incident superedges, union member
    /// sets keeping the larger side's id, selectively re-add
    /// cost-reducing superedges). Returns the surviving id.
    ///
    /// Replaying the same `(a, b)` sequence through
    /// [`WorkingSummary::merge`] performs the identical unions: the
    /// keep/dead choice depends only on member counts, which evolve the
    /// same way in both (the overlay starts from the snapshot and other
    /// groups never touch this group's supernodes).
    ///
    /// With a cache, the merged supernode's weight vector is the linear
    /// merge of the two member spans (keep's entries folded first, then
    /// dead's — the canonical combine order), stored as a fresh span; the
    /// superedge re-addition prices straight from it instead of
    /// re-scanning member edges.
    pub fn merge_local(&mut self, a: SuperId, b: SuperId, scratch: &mut Scratch) -> SuperId {
        debug_assert!(a != b && !self.dead.contains(&a) && !self.dead.contains(&b));
        let size_a = self.members_of(a).len();
        let size_b = self.members_of(b).len();
        let (keep, dead) = if size_a >= size_b { (a, b) } else { (b, a) };

        // Drop all superedges incident to either endpoint.
        for s in [keep, dead] {
            let incident = std::mem::take(self.adjacency_mut(s));
            for x in incident {
                if x != s {
                    self.adjacency_mut(x).remove(&s);
                }
            }
        }

        // Union member sets and weight aggregates into the overlay.
        let dead_data = match self.local.remove(&dead) {
            Some(d) => d,
            None => SuperData {
                members: self.ws.members(dead).to_vec(),
                wsum: self.ws.wsum_of(dead),
                sqsum: self.ws.sqsum_of(dead),
            },
        };
        let ws = self.ws;
        let keep_data = self.local.entry(keep).or_insert_with(|| SuperData {
            members: ws.members(keep).to_vec(),
            wsum: ws.wsum_of(keep),
            sqsum: ws.sqsum_of(keep),
        });
        keep_data.members.extend_from_slice(&dead_data.members);
        keep_data.wsum += dead_data.wsum;
        keep_data.sqsum += dead_data.sqsum;
        for &u in &dead_data.members {
            self.remap.insert(u, keep);
        }
        self.dead.insert(dead);
        self.merged += 1;

        // The merged supernode's weight vector lands in scratch lane `a`:
        // from the cached spans when the cache is on (keep's span first,
        // then dead's, stale keys resolved — the merged span is stored
        // back compacted), else from a member-edge rescan.
        scratch.begin(self.ws.g.num_nodes());
        if let Some(cache) = self.cache.as_mut() {
            cache.forward.insert(dead, keep);
            cache.load(keep, &mut scratch.a, scratch.epoch);
            cache.load(dead, &mut scratch.a, scratch.epoch);
            scratch.a.sort_touched();
            cache.retire(dead);
            // The merged span is born dirty (hierarchical values, no
            // presence bits — the next evaluation refreshes it against
            // the overlay); clean spans referencing either endpoint go
            // stale too and must refresh before their next fast read.
            cache.store_from_lane(keep, &scratch.a, true, |_, _| false);
            cache.mark_dirty_referencing(keep, dead);
        } else {
            accumulate_edge_weights_view(self, keep, &mut scratch.a, scratch.epoch);
            scratch.a.sort_touched();
        }

        // Selective superedge re-addition against the overlay.
        let log_s = self.view_log_s();
        let mut to_add: Vec<SuperId> = Vec::new();
        for &x in &scratch.a.touched {
            let e_raw = scratch.a.val[x as usize];
            let (tot, e) = if x == keep {
                (tot_within_view(self, keep), e_raw / 2.0)
            } else {
                (tot_between_view(self, keep, x), e_raw)
            };
            if best_pair_cost(tot, e, log_s, self.cost_params()).1 {
                to_add.push(x);
            }
        }
        for x in to_add {
            self.adjacency_mut(keep).insert(x);
            if x != keep {
                self.adjacency_mut(x).insert(keep);
            }
        }
        keep
    }
}

impl SummaryView for GroupView<'_, '_> {
    #[inline]
    fn graph_ref(&self) -> &Graph {
        self.ws.graph_ref()
    }

    #[inline]
    fn weights_ref(&self) -> &NodeWeights {
        self.ws.weights_ref()
    }

    #[inline]
    fn cost_params(&self) -> &CostParams {
        self.ws.cost_params()
    }

    #[inline]
    fn live_count(&self) -> usize {
        self.ws.live_count() - self.merged
    }

    #[inline]
    fn members_of(&self, s: SuperId) -> &[NodeId] {
        debug_assert!(!self.dead.contains(&s), "locally-dead supernode queried");
        match self.local.get(&s) {
            Some(d) => &d.members,
            None => self.ws.members(s),
        }
    }

    #[inline]
    fn wsum_of(&self, s: SuperId) -> f64 {
        match self.local.get(&s) {
            Some(d) => d.wsum,
            None => self.ws.wsum_of(s),
        }
    }

    #[inline]
    fn sqsum_of(&self, s: SuperId) -> f64 {
        match self.local.get(&s) {
            Some(d) => d.sqsum,
            None => self.ws.sqsum_of(s),
        }
    }

    #[inline]
    fn super_of(&self, u: NodeId) -> SuperId {
        match self.remap.get(&u) {
            Some(&s) => s,
            None => self.ws.super_of(u),
        }
    }

    #[inline]
    fn has_superedge_in(&self, a: SuperId, b: SuperId) -> bool {
        self.adjacency(a).contains(&b)
    }
}

/// The merge log and rejection samples one candidate group produced
/// during the parallel evaluate phase.
#[derive(Clone, Debug, Default)]
pub struct GroupOutcome {
    /// Accepted merges in simulation order; replay through
    /// [`WorkingSummary::merge`] in this order to commit.
    pub merges: Vec<(SuperId, SuperId)>,
    /// Best-of-attempt reductions that failed the threshold (the group's
    /// contribution to the list `L` of Sect. III-E).
    pub rejected: Vec<f64>,
    /// Candidate-pair evaluations performed (throughput accounting).
    pub evals: u64,
}

/// Which evaluator [`evaluate_group_with`] prices candidate merges with.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum MergeEvaluator {
    /// Group-local superedge-weight cache (DESIGN.md §7) — the default.
    #[default]
    Cached,
    /// Member-edge rescans through the dense scratch, pricing in the
    /// same canonical order as `Cached` — the bitwise equivalence
    /// oracle (`tests/eval_equivalence.rs`).
    Scan,
}

/// The read-only half of one group's Alg.-2 round with the default
/// cached evaluator; see [`evaluate_group_with`].
pub fn evaluate_group(
    ws: &WorkingSummary<'_>,
    group: &[SuperId],
    theta: f64,
    seed: u64,
    use_absolute_cost: bool,
) -> GroupOutcome {
    evaluate_group_with(
        ws,
        group,
        theta,
        seed,
        use_absolute_cost,
        MergeEvaluator::Cached,
    )
}

/// The read-only half of one group's Alg.-2 round: repeatedly samples
/// `|C_i|` supernode pairs, picks the best relative (or absolute, for
/// the Eq.-10 ablation) cost reduction, and accepts it when it clears
/// `theta` — all against a frozen summary plus a [`GroupView`] overlay,
/// logging decisions instead of mutating shared state. Stops when one
/// supernode remains or after `log2|C_i|` consecutive failures. (See
/// [`merge_group`] for the serial evaluate-then-commit convenience
/// form.)
///
/// All randomness comes from `seed` (drawn serially by the driver), so
/// the outcome is a pure function of `(ws, group, theta, seed,
/// evaluator)` — workers can evaluate any number of groups concurrently,
/// in any order, and the committed result stays identical.
pub fn evaluate_group_with(
    ws: &WorkingSummary<'_>,
    group: &[SuperId],
    theta: f64,
    seed: u64,
    use_absolute_cost: bool,
    evaluator: MergeEvaluator,
) -> GroupOutcome {
    with_thread_scratch(|scratch| {
        let mut view = match evaluator {
            MergeEvaluator::Cached => GroupView::with_cache(ws, group, scratch),
            MergeEvaluator::Scan => GroupView::new(ws),
        };
        let mut group: Vec<SuperId> = group.to_vec();
        let mut rng = StdRng::seed_from_u64(seed);
        let mut outcome = GroupOutcome::default();

        let mut fails = 0usize;
        while group.len() > 1 {
            let max_fails = (group.len() as f64).log2().ceil() as usize;
            if fails > max_fails {
                break;
            }
            let samples = group.len();
            // The ranking key is fixed for the whole round: track it
            // directly instead of re-deriving it from `best` per sample.
            let mut best: Option<(usize, usize)> = None;
            let mut best_key: Option<f64> = None;
            for _ in 0..samples {
                let i = rng.random_range(0..group.len());
                let j = rng.random_range(0..group.len());
                if i == j {
                    continue;
                }
                let (a, b) = (group[i], group[j]);
                let eval = match evaluator {
                    MergeEvaluator::Cached => view.eval_merge_cached(a, b, scratch),
                    MergeEvaluator::Scan => eval_merge_view(&view, a, b, scratch),
                };
                outcome.evals += 1;
                let key = if use_absolute_cost {
                    eval.delta
                } else {
                    eval.relative
                };
                if best_key.is_none_or(|bk| key > bk) {
                    best_key = Some(key);
                    best = Some((i, j));
                }
            }
            let Some((i, j)) = best else {
                fails += 1;
                continue;
            };
            // pgs-allow: PGS004 best and best_key are always set together
            let score = best_key.expect("best implies a key");
            if score >= theta {
                let (a, b) = (group[i], group[j]);
                let kept = view.merge_local(a, b, scratch);
                outcome.merges.push((a, b));
                // O(1) removal of the dead id at its known index (the
                // survivor cannot be displaced out of the vector).
                let dead_idx = if kept == a { j } else { i };
                group.swap_remove(dead_idx);
                debug_assert!(group.contains(&kept));
                fails = 0;
            } else {
                outcome.rejected.push(score);
                fails += 1;
            }
        }
        if let Some(cache) = view.cache.take() {
            recycle_group_cache(cache);
        }
        outcome
    })
}

/// Evaluates one group and immediately commits its merge log — the
/// serial convenience form of the evaluate/commit pair (one Alg.-2
/// round). Returns the outcome so callers can inspect the rejection
/// samples.
pub fn merge_group(
    ws: &mut WorkingSummary<'_>,
    group: &[SuperId],
    theta: f64,
    seed: u64,
    use_absolute_cost: bool,
    scratch: &mut Scratch,
) -> GroupOutcome {
    let outcome = evaluate_group(ws, group, theta, seed, use_absolute_cost);
    for &(a, b) in &outcome.merges {
        ws.merge(a, b, scratch);
    }
    outcome
}

#[cfg(test)]
mod tests {
    use super::*;
    use pgs_graph::builder::graph_from_edges;
    use pgs_graph::gen::barabasi_albert;
    use rand::SeedableRng;

    fn uniform_ws(g: &Graph) -> (NodeWeights, CostModel) {
        (
            NodeWeights::uniform(g.num_nodes()),
            CostModel::ErrorCorrection,
        )
    }

    /// Brute-force total personalized cost (Eq. 5 without the constant
    /// |V| log2|S| term): sums pair costs over *all* supernode pairs.
    fn brute_force_pair_costs(ws: &WorkingSummary<'_>) -> f64 {
        let live = ws.live_ids();
        let log_s = ws.log_s();
        let mut total = 0.0;
        for (i, &a) in live.iter().enumerate() {
            for &b in &live[i..] {
                let mut e = 0.0;
                for &u in ws.members(a) {
                    for &v in ws.members(b) {
                        if a == b && u >= v {
                            continue;
                        }
                        if ws.graph().has_edge(u, v) {
                            e += ws.weights().pair(u, v);
                        }
                    }
                }
                let tot = ws.pair_tot(a, b);
                total += pair_cost(ws.has_superedge(a, b), tot, e, log_s, ws.params());
            }
        }
        total
    }

    #[test]
    fn initialization_mirrors_graph() {
        let g = graph_from_edges(5, &[(0, 1), (1, 2), (2, 3), (3, 4)]);
        let (w, m) = uniform_ws(&g);
        let ws = WorkingSummary::new(&g, &w, m);
        assert_eq!(ws.num_supernodes(), 5);
        assert_eq!(ws.num_superedges(), 4);
        assert!(ws.has_superedge(0, 1));
        assert!(!ws.has_superedge(0, 2));
        let size = ws.size_bits();
        assert!((size - (2.0 * 4.0 + 5.0) * 5f64.log2()).abs() < 1e-12);
    }

    #[test]
    fn merge_twins_is_lossless() {
        // Nodes 0,1 share neighbors {2,3} exactly (Fig. 3: A,B with same
        // connectivity) — merging them should produce a supernode with
        // superedges to 2 and 3, no self-loop, and positive delta.
        let g = graph_from_edges(4, &[(0, 2), (0, 3), (1, 2), (1, 3)]);
        let (w, m) = uniform_ws(&g);
        let mut ws = WorkingSummary::new(&g, &w, m);
        let mut scratch = Scratch::default();
        let eval = ws.eval_merge(0, 1, &mut scratch);
        assert!(eval.delta > 0.0, "merging twins must reduce cost");
        assert!(eval.relative > 0.0 && eval.relative <= 1.0);
        let c = ws.merge(0, 1, &mut scratch);
        assert_eq!(ws.num_supernodes(), 3);
        assert!(ws.has_superedge(c, 2));
        assert!(ws.has_superedge(c, 3));
        assert!(!ws.has_superedge(c, c), "no intra edges, no self-loop");
        assert_eq!(ws.num_superedges(), 2);
    }

    #[test]
    fn merge_clique_creates_self_loop() {
        // Triangle 0-1-2: merging 0 and 1 leaves intra edge (0,1) inside C
        // plus both-to-2; with a 3-node graph, log2|V| dominates and the
        // dense connections are kept via superedges.
        let g = graph_from_edges(3, &[(0, 1), (0, 2), (1, 2)]);
        let (w, m) = uniform_ws(&g);
        let mut ws = WorkingSummary::new(&g, &w, m);
        let mut scratch = Scratch::default();
        let c = ws.merge(0, 1, &mut scratch);
        assert!(
            ws.has_superedge(c, c),
            "intra edge should become a self-loop"
        );
        assert!(ws.has_superedge(c, 2));
    }

    #[test]
    fn merged_members_and_mapping_consistent() {
        let g = barabasi_albert(50, 2, 3);
        let (w, m) = uniform_ws(&g);
        let mut ws = WorkingSummary::new(&g, &w, m);
        let mut scratch = Scratch::default();
        let c1 = ws.merge(0, 1, &mut scratch);
        let c2 = ws.merge(c1, 2, &mut scratch);
        assert_eq!(ws.num_supernodes(), 48);
        let mut members = ws.members(c2).to_vec();
        members.sort_unstable();
        assert_eq!(members, vec![0, 1, 2]);
        for &u in &[0u32, 1, 2] {
            assert_eq!(ws.supernode_of(u), c2);
        }
    }

    #[test]
    fn delta_matches_brute_force_cost_difference() {
        // The engine's ΔCost must equal the actual decrease of the global
        // pair-cost sum — up to the log2|S| repricing of *non-incident*
        // superedges, which the algorithm deliberately ignores (Sect.
        // III-D "while fixing all non-incident superedges"). Neutralize
        // that by comparing at the same |S|: we recompute the brute-force
        // costs with the post-merge |S| on both sides... simpler: use a
        // graph where non-incident superedges don't exist.
        // Star: center 0, leaves 1..5. Merging leaves 1,2 touches every
        // superedge (all are incident to 0 via leaves? no: superedges
        // {0,3},{0,4},{0,5} are not incident to 1 or 2).
        // Instead use a 4-node path where the merge touches all edges.
        let g = graph_from_edges(3, &[(0, 1), (1, 2)]);
        let (w, m) = uniform_ws(&g);
        let mut ws = WorkingSummary::new(&g, &w, m);
        let mut scratch = Scratch::default();
        let before = brute_force_pair_costs(&ws);
        let eval = ws.eval_merge(0, 2, &mut scratch);
        ws.merge(0, 2, &mut scratch);
        let after = brute_force_pair_costs(&ws);
        assert!(
            (eval.delta - (before - after)).abs() < 1e-9,
            "delta {} vs brute force {}",
            eval.delta,
            before - after
        );
    }

    #[test]
    fn eval_does_not_mutate() {
        let g = barabasi_albert(40, 3, 1);
        let (w, m) = uniform_ws(&g);
        let ws = WorkingSummary::new(&g, &w, m);
        let mut scratch = Scratch::default();
        let e1 = ws.eval_merge(3, 7, &mut scratch);
        let e2 = ws.eval_merge(3, 7, &mut scratch);
        assert_eq!(e1.delta, e2.delta);
        assert_eq!(ws.num_supernodes(), 40);
        assert_eq!(ws.num_superedges(), g.num_edges());
    }

    #[test]
    fn cached_eval_matches_scan_eval_bitwise() {
        // The §7 invariant on a snapshot state: the cached evaluator and
        // the scan evaluator agree bit for bit (the proptest suite in
        // tests/eval_equivalence.rs broadens this to random graphs).
        let g = barabasi_albert(80, 4, 21);
        let (w, m) = uniform_ws(&g);
        let mut ws = WorkingSummary::new(&g, &w, m);
        let mut scratch = Scratch::default();
        // Multi-member supernodes make the spans non-trivial.
        ws.merge(0, 1, &mut scratch);
        ws.merge(2, 3, &mut scratch);
        let group: Vec<SuperId> = ws.live_ids().into_iter().take(20).collect();
        let mut view = GroupView::with_cache(&ws, &group, &mut scratch);
        for i in 0..group.len() {
            for j in (i + 1)..group.len() {
                let scan = ws.eval_merge(group[i], group[j], &mut scratch);
                let cached = view.eval_merge_cached(group[i], group[j], &mut scratch);
                assert_eq!(scan.delta.to_bits(), cached.delta.to_bits());
                assert_eq!(scan.relative.to_bits(), cached.relative.to_bits());
            }
        }
    }

    #[test]
    fn epoch_wrap_resets_stamps() {
        // A stamp written in the epoch before the u32 wrap must not
        // alias the restarted counter.
        let mut scratch = Scratch {
            epoch: u32::MAX - 1,
            ..Default::default()
        };
        scratch.begin(4); // epoch == u32::MAX
        scratch.a.add(2, 1.5, scratch.epoch);
        assert_eq!(scratch.a.get(2, scratch.epoch), Some(1.5));
        scratch.begin(4); // wrap: stamps cleared, epoch == 1
        assert_eq!(scratch.epoch, 1);
        assert_eq!(scratch.a.get(2, scratch.epoch), None);
        scratch.a.add(2, 2.5, scratch.epoch);
        assert_eq!(scratch.a.get(2, scratch.epoch), Some(2.5));
    }

    #[test]
    fn scratch_shrink_and_release_preserve_correctness() {
        let g = barabasi_albert(60, 3, 2);
        let (w, m) = uniform_ws(&g);
        let ws = WorkingSummary::new(&g, &w, m);
        let mut scratch = Scratch::default();
        let before = ws.eval_merge(3, 7, &mut scratch);
        assert!(scratch.a.stamp.len() >= 60);

        // Cap below the graph size, then evaluate again: lanes regrow
        // and the result is bit-identical.
        scratch.shrink_to(10);
        assert!(scratch.a.stamp.len() <= 10 && scratch.b.stamp.len() <= 10);
        let after = ws.eval_merge(3, 7, &mut scratch);
        assert_eq!(before.delta.to_bits(), after.delta.to_bits());

        // Full release also round-trips.
        scratch.release();
        assert_eq!(scratch.a.stamp.len(), 0);
        let again = ws.eval_merge(3, 7, &mut scratch);
        assert_eq!(before.delta.to_bits(), again.delta.to_bits());

        // The thread-local hooks are callable at any quiescent point.
        shrink_thread_scratch(16);
        release_thread_scratch();
    }

    #[test]
    fn superedge_count_stays_consistent() {
        let g = barabasi_albert(60, 3, 9);
        let (w, m) = uniform_ws(&g);
        let mut ws = WorkingSummary::new(&g, &w, m);
        let mut scratch = Scratch::default();
        let mut rng = StdRng::seed_from_u64(5);
        let mut live = ws.live_ids();
        for _ in 0..30 {
            let i = rng.random_range(0..live.len());
            let j = rng.random_range(0..live.len());
            if i == j {
                continue;
            }
            let (a, b) = (live[i], live[j]);
            let kept = ws.merge(a, b, &mut scratch);
            let dead = if kept == a { b } else { a };
            live.retain(|&s| s != dead);
            // Recount superedges from adjacency sets.
            let mut count = 0usize;
            for &s in &live {
                for x in ws.superedge_neighbors(s) {
                    if s <= x {
                        count += 1;
                    }
                }
            }
            assert_eq!(count, ws.num_superedges());
        }
    }

    #[test]
    fn remove_superedge_updates_count() {
        let g = graph_from_edges(3, &[(0, 1), (1, 2)]);
        let (w, m) = uniform_ws(&g);
        let mut ws = WorkingSummary::new(&g, &w, m);
        assert!(ws.remove_superedge(0, 1));
        assert!(!ws.remove_superedge(0, 1));
        assert_eq!(ws.num_superedges(), 1);
        assert!(!ws.has_superedge(0, 1));
        assert!(!ws.has_superedge(1, 0));
    }

    #[test]
    fn into_summary_preserves_structure() {
        let g = graph_from_edges(4, &[(0, 2), (0, 3), (1, 2), (1, 3)]);
        let (w, m) = uniform_ws(&g);
        let mut ws = WorkingSummary::new(&g, &w, m);
        let mut scratch = Scratch::default();
        ws.merge(0, 1, &mut scratch);
        let merged_count = ws.num_superedges();
        let s = ws.into_summary();
        assert_eq!(s.num_supernodes(), 3);
        assert_eq!(s.num_superedges(), merged_count);
        assert_eq!(s.supernode_of(0), s.supernode_of(1));
        assert_ne!(s.supernode_of(0), s.supernode_of(2));
    }

    #[test]
    fn merge_group_reduces_supernodes_at_zero_threshold() {
        let g = barabasi_albert(80, 3, 4);
        let w = NodeWeights::uniform(g.num_nodes());
        let mut ws = WorkingSummary::new(&g, &w, CostModel::ErrorCorrection);
        let mut scratch = Scratch::default();
        let group: Vec<SuperId> = (0..40).collect();
        let outcome = merge_group(&mut ws, &group, -f64::INFINITY, 0, false, &mut scratch);
        // With threshold -inf every attempt merges: group collapses to one.
        assert_eq!(outcome.merges.len(), 39);
        assert_eq!(ws.num_supernodes(), 80 - 39);
        assert!(outcome.rejected.is_empty());
        assert!(outcome.evals >= 39, "evals must be accounted");
    }

    #[test]
    fn merge_group_respects_high_threshold() {
        let g = barabasi_albert(80, 3, 4);
        let w = NodeWeights::uniform(g.num_nodes());
        let mut ws = WorkingSummary::new(&g, &w, CostModel::ErrorCorrection);
        let mut scratch = Scratch::default();
        let group: Vec<SuperId> = (0..40).collect();
        // Relative reduction can never reach 2.0.
        let outcome = merge_group(&mut ws, &group, 2.0, 0, false, &mut scratch);
        assert_eq!(ws.num_supernodes(), 80, "nothing should merge");
        assert!(outcome.merges.is_empty());
        assert!(
            !outcome.rejected.is_empty(),
            "failures must be recorded in L"
        );
        assert!(outcome.rejected.iter().all(|&r| r < 2.0));
    }

    #[test]
    fn evaluate_group_log_replays_identically() {
        // The commit contract: replaying a GroupOutcome's merge log on
        // the shared summary yields exactly the supernode structure the
        // overlay simulated.
        let g = barabasi_albert(120, 4, 8);
        let w = NodeWeights::uniform(g.num_nodes());
        let mut ws = WorkingSummary::new(&g, &w, CostModel::ErrorCorrection);
        let mut scratch = Scratch::default();
        let group: Vec<SuperId> = (10..60).collect();
        let outcome = evaluate_group(&ws, &group, 0.0, 7, false);
        assert!(!outcome.merges.is_empty(), "seed 7 should accept merges");
        for &(a, b) in &outcome.merges {
            let kept = ws.merge(a, b, &mut scratch);
            assert!(kept == a || kept == b);
        }
        assert_eq!(ws.num_supernodes(), 120 - outcome.merges.len());
        // Supernodes outside the group were never touched.
        for s in 0..10u32 {
            assert_eq!(ws.members(s), &[s]);
        }
    }

    #[test]
    fn evaluate_group_evaluators_agree_on_outcome() {
        // Cached and scan evaluation of the same group walk the same
        // sampling sequence and land on the same merge log.
        let g = barabasi_albert(150, 4, 13);
        let w = NodeWeights::uniform(g.num_nodes());
        let ws = WorkingSummary::new(&g, &w, CostModel::ErrorCorrection);
        let group: Vec<SuperId> = (20..90).collect();
        for seed in 0..4 {
            let cached = evaluate_group_with(&ws, &group, 0.0, seed, false, MergeEvaluator::Cached);
            let scan = evaluate_group_with(&ws, &group, 0.0, seed, false, MergeEvaluator::Scan);
            assert_eq!(cached.merges, scan.merges, "seed {seed}");
            assert_eq!(cached.rejected, scan.rejected, "seed {seed}");
            assert_eq!(cached.evals, scan.evals, "seed {seed}");
        }
    }

    #[test]
    fn from_checkpoint_reproduces_live_state() {
        // Merge a few pairs live, capture the parts, rebuild, and check
        // the rebuilt summary is indistinguishable: same members (order
        // included), same weight-sum bits, same superedges, and
        // bit-identical merge evaluations from the restored state.
        let g = barabasi_albert(80, 3, 11);
        let (w, m) = uniform_ws(&g);
        let mut ws = WorkingSummary::new(&g, &w, m);
        let mut scratch = Scratch::default();
        ws.merge(0, 1, &mut scratch);
        ws.merge(2, 3, &mut scratch);
        ws.merge(ws.supernode_of(0), 10, &mut scratch);

        let live = ws.live_ids();
        let parts: Vec<(SuperId, f64, f64, Vec<NodeId>)> = live
            .iter()
            .map(|&s| (s, ws.wsum_raw(s), ws.sqsum_raw(s), ws.members(s).to_vec()))
            .collect();
        let mut edges: Vec<(SuperId, SuperId)> = Vec::new();
        for &s in &live {
            for x in ws.superedge_neighbors(s) {
                if s <= x {
                    edges.push((s, x));
                }
            }
        }
        edges.sort_unstable();
        let restored = WorkingSummary::from_checkpoint(
            &g,
            &w,
            CostModel::ErrorCorrection,
            parts
                .iter()
                .map(|(s, ws_, sq, mem)| (*s, *ws_, *sq, mem.as_slice())),
            &edges,
        );
        assert_eq!(restored.num_supernodes(), ws.num_supernodes());
        assert_eq!(restored.num_superedges(), ws.num_superedges());
        for &s in &live {
            assert_eq!(restored.members(s), ws.members(s));
            assert_eq!(restored.wsum_raw(s).to_bits(), ws.wsum_raw(s).to_bits());
            assert_eq!(restored.sqsum_raw(s).to_bits(), ws.sqsum_raw(s).to_bits());
        }
        for u in g.nodes() {
            assert_eq!(restored.supernode_of(u), ws.supernode_of(u));
        }
        let (a, b) = (live[0], live[live.len() - 1]);
        let e1 = ws.eval_merge(a, b, &mut scratch);
        let e2 = restored.eval_merge(a, b, &mut scratch);
        assert_eq!(e1.delta.to_bits(), e2.delta.to_bits());
        assert_eq!(e1.relative.to_bits(), e2.relative.to_bits());
    }

    #[test]
    fn group_cache_compaction_bounds_arena_and_preserves_values() {
        // Repeatedly re-storing a member's span retires the old copy;
        // without compaction the arena grows linearly with churn. Drive
        // enough churn to trip compaction and verify both the bound and
        // that live spans read back unchanged.
        let mut cache = GroupCache::default();
        let mut lane = DenseLane::default();
        lane.ensure(64);
        let epoch = 1;
        for x in 0..32u32 {
            lane.add(x, x as f64 + 0.5, epoch);
        }
        lane.sort_touched();
        for round in 0..100 {
            for s in 0..4u32 {
                cache.store_from_lane(s, &lane, false, |_, _| false);
            }
            assert!(
                cache.keys.len() <= (2 * cache.live_len).max(COMPACT_MIN_ARENA + 4 * 32),
                "round {round}: arena {} entries for {} live",
                cache.keys.len(),
                cache.live_len
            );
        }
        assert_eq!(cache.live_len, 4 * 32);
        for s in 0..4u32 {
            let (ks, vs, _) = cache.slices(cache.spans[&s]);
            assert_eq!(ks, (0..32u32).collect::<Vec<_>>().as_slice());
            for (i, &v) in vs.iter().enumerate() {
                assert_eq!(v.to_bits(), (i as f64 + 0.5).to_bits());
            }
        }
        // Retiring spans keeps the accounting consistent through the
        // next compaction.
        cache.retire(0);
        cache.retire(1);
        assert_eq!(cache.live_len, 2 * 32);
        for _ in 0..100 {
            cache.store_from_lane(2, &lane, true, |_, _| false);
        }
        assert!(cache.keys.len() <= (2 * cache.live_len).max(COMPACT_MIN_ARENA + 32));
        assert!(cache.spans[&2].dirty, "dirty bit survives compaction");
    }

    #[test]
    fn group_cache_pool_reuse_is_invisible_to_results() {
        // Two groups evaluated back-to-back on one thread share the
        // pooled arena; outcomes must match a fresh-per-group run
        // (pinned indirectly: same outcome as the scan evaluator, which
        // never touches the pool).
        let g = barabasi_albert(150, 4, 17);
        let w = NodeWeights::uniform(g.num_nodes());
        let ws = WorkingSummary::new(&g, &w, CostModel::ErrorCorrection);
        for (lo, hi) in [(0u32, 50u32), (50, 100), (100, 150)] {
            let group: Vec<SuperId> = (lo..hi).collect();
            let cached = evaluate_group_with(&ws, &group, 0.0, 99, false, MergeEvaluator::Cached);
            let scan = evaluate_group_with(&ws, &group, 0.0, 99, false, MergeEvaluator::Scan);
            assert_eq!(cached.merges, scan.merges);
            assert_eq!(cached.rejected, scan.rejected);
        }
        release_thread_scratch();
    }

    #[test]
    #[should_panic(expected = "merge needs two live supernodes")]
    fn merging_dead_supernode_panics() {
        let g = graph_from_edges(3, &[(0, 1), (1, 2)]);
        let (w, m) = uniform_ws(&g);
        let mut ws = WorkingSummary::new(&g, &w, m);
        let mut scratch = Scratch::default();
        let kept = ws.merge(0, 1, &mut scratch);
        let dead = if kept == 0 { 1 } else { 0 };
        let _ = ws.merge(dead, 2, &mut scratch);
    }
}
