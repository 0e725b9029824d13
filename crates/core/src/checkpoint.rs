//! Iteration-boundary run checkpoints (DESIGN.md §10).
//!
//! Both engine loops commit one iteration's merge log serially and only
//! then mutate shared state again, so the top of an iteration is the one
//! point where the whole run is describable by plain data: the
//! [`crate::working::WorkingSummary`] partition, the adaptive-threshold
//! scalar, the stall cap, and the iteration counter. [`RunCheckpoint`]
//! captures exactly that state and [`RunCheckpoint::encode`] freezes it
//! into a compact, versioned binary blob a serving layer can stash
//! per-job and replay after a worker death.
//!
//! # Byte-identical resume
//!
//! A resumed run must finish bitwise equal to the uninterrupted one, so
//! the checkpoint preserves everything the remaining iterations read:
//!
//! * **`wsum`/`sqsum` verbatim** — they were built by incremental `+=`
//!   during merges, and f64 addition order affects rounding, so they are
//!   stored as raw bits rather than recomputed from members.
//! * **Member order** — [`accumulate_edge_weights_view`'s] per-span
//!   accumulation order follows the stored member list, so lists are
//!   serialized in their in-memory order, not sorted.
//! * **Superedges as a set** — adjacency is only ever queried for
//!   membership, and [`crate::summary::Summary::new`] canonicalizes
//!   superedge order on freeze, so the sorted pair list loses nothing.
//! * **Per-iteration randomness** — [`iteration_seed`] makes iteration
//!   `t`'s RNG stream a pure function of `(seed, t)`; no generator state
//!   crosses the checkpoint.
//!
//! [`accumulate_edge_weights_view`'s]: crate::working::eval_merge_view

use crate::cost::CostModel;
use crate::pegasus::{PhaseTimings, RunStats};
use crate::summary::{Summary, SuperId};
use crate::weights::NodeWeights;
use crate::working::WorkingSummary;
use pgs_graph::{Graph, NodeId};

/// Algorithm tag of a PeGaSus checkpoint.
pub const ALGO_PEGASUS: u8 = 1;
/// Algorithm tag of an SSumM checkpoint.
pub const ALGO_SSUMM: u8 = 2;

const MAGIC: [u8; 4] = *b"PGSC";
/// Format version — the only one [`RunCheckpoint::decode`] accepts.
/// Earlier versions carried per-supernode scheduler state this engine
/// no longer has; rather than guess at their fields, every other
/// version is rejected as [`CheckpointError::Corrupt`].
pub const VERSION: u16 = 4;

/// Deterministic per-iteration seed derivation: iteration `t` of a run
/// seeded with `seed` draws every random decision (shingle hashes,
/// group seeds, pair samples) from a fresh generator seeded with
/// `iteration_seed(seed, t)`. Randomness is thereby a pure function of
/// `(seed, t)` — a run resumed at iteration `k` replays iterations
/// `k..` bit-for-bit without serializing generator state.
pub fn iteration_seed(seed: u64, t: u64) -> u64 {
    splitmix64(seed ^ splitmix64(t.wrapping_mul(0x9E37_79B9_7F4A_7C15)))
}

/// SplitMix64 finalizer — the standard 64-bit avalanche mix.
pub(crate) fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// Why a checkpoint could not be decoded, validated, or persisted.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum CheckpointError {
    /// The blob is not a well-formed checkpoint (bad magic, truncated,
    /// internally inconsistent partition or superedge list).
    Corrupt(String),
    /// A structurally valid checkpoint that does not belong to this run
    /// (wrong algorithm or graph size).
    Mismatch(String),
    /// The sink failed to persist the blob (I/O error or injected
    /// fault); the run continues from the previous good checkpoint.
    WriteFailed(String),
}

impl std::fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CheckpointError::Corrupt(why) => write!(f, "corrupt checkpoint: {why}"),
            CheckpointError::Mismatch(why) => write!(f, "checkpoint mismatch: {why}"),
            CheckpointError::WriteFailed(why) => write!(f, "checkpoint write failed: {why}"),
        }
    }
}

impl std::error::Error for CheckpointError {}

/// One live supernode's serialized state.
#[derive(Clone, Debug, PartialEq)]
pub struct SuperRecord {
    /// The supernode id (a surviving original singleton id).
    pub id: SuperId,
    /// `Σ ŵ_u` as raw bits (incremental-sum rounding preserved).
    pub wsum_bits: u64,
    /// `Σ ŵ_u²` as raw bits.
    pub sqsum_bits: u64,
    /// Member nodes in their in-memory (merge-history) order.
    pub members: Vec<NodeId>,
}

/// A run snapshot at an iteration-commit boundary.
#[derive(Clone, Debug)]
pub struct RunCheckpoint {
    /// [`ALGO_PEGASUS`] or [`ALGO_SSUMM`].
    pub algorithm: u8,
    /// `|V|` of the graph the run is summarizing.
    pub num_nodes: u32,
    /// The iteration the resumed loop starts at (the first one whose
    /// effects are *not* in this snapshot).
    pub next_iteration: u64,
    /// Adaptive threshold θ after the last committed iteration (raw
    /// bits; SSumM's fixed schedule ignores it).
    pub theta_bits: u64,
    /// Stall-guard cap after the last committed iteration (raw bits).
    pub stall_cap_bits: u64,
    /// Cumulative run statistics at the boundary (wall-clock fields keep
    /// accumulating across resumes; counts replay exactly).
    pub stats: RunStats,
    /// Live supernodes, ascending by id.
    pub supers: Vec<SuperRecord>,
    /// Superedges as sorted `(min, max)` pairs, self-loops as `(s, s)`.
    ///
    /// The signature bank is *not* stored: it is a pure function of
    /// `(graph, seed, partition)` and is rebuilt on resume (composition
    /// under union, DESIGN.md §11).
    pub superedges: Vec<(SuperId, SuperId)>,
}

impl RunCheckpoint {
    /// Snapshots a live [`WorkingSummary`] plus the driver scalars.
    pub fn capture(
        algorithm: u8,
        next_iteration: u64,
        theta: f64,
        stall_cap: f64,
        stats: RunStats,
        ws: &WorkingSummary<'_>,
    ) -> Self {
        let mut supers = Vec::with_capacity(ws.num_supernodes());
        let mut superedges = Vec::with_capacity(ws.num_superedges());
        for s in ws.live_iter() {
            supers.push(SuperRecord {
                id: s,
                wsum_bits: ws.wsum_raw(s).to_bits(),
                sqsum_bits: ws.sqsum_raw(s).to_bits(),
                members: ws.members(s).to_vec(),
            });
            for x in ws.superedge_neighbors(s) {
                if s <= x {
                    superedges.push((s, x));
                }
            }
        }
        superedges.sort_unstable();
        RunCheckpoint {
            algorithm,
            num_nodes: ws.graph().num_nodes() as u32,
            next_iteration,
            theta_bits: theta.to_bits(),
            stall_cap_bits: stall_cap.to_bits(),
            stats,
            supers,
            superedges,
        }
    }

    /// Rebuilds the [`WorkingSummary`] this checkpoint describes.
    /// Infallible after [`RunCheckpoint::decode`]'s structural checks
    /// and a [`RunCheckpoint::validate_for`] pass against the run.
    pub fn restore_working<'a>(
        &self,
        g: &'a Graph,
        w: &'a NodeWeights,
        model: CostModel,
    ) -> WorkingSummary<'a> {
        WorkingSummary::from_checkpoint(
            g,
            w,
            model,
            self.supers.iter().map(|r| {
                (
                    r.id,
                    f64::from_bits(r.wsum_bits),
                    f64::from_bits(r.sqsum_bits),
                    r.members.as_slice(),
                )
            }),
            &self.superedges,
        )
    }

    /// The snapshot frozen into an immutable [`Summary`] — the valid
    /// partial result a serving layer degrades to when its retry budget
    /// runs out mid-run.
    pub fn partial_summary(&self) -> Summary {
        let n = self.num_nodes as usize;
        let mut assignment = vec![0u32; n];
        for rec in &self.supers {
            for &u in &rec.members {
                assignment[u as usize] = rec.id;
            }
        }
        let superedges: Vec<(SuperId, SuperId, f32)> =
            self.superedges.iter().map(|&(a, b)| (a, b, 1.0)).collect();
        Summary::new(n, assignment, &superedges)
    }

    /// Checks that this checkpoint belongs to a run of `algorithm` over
    /// a graph with `num_nodes` nodes.
    pub fn validate_for(&self, algorithm: u8, num_nodes: usize) -> Result<(), CheckpointError> {
        if self.algorithm != algorithm {
            return Err(CheckpointError::Mismatch(format!(
                "checkpoint is for algorithm tag {}, run uses {}",
                self.algorithm, algorithm
            )));
        }
        if self.num_nodes as usize != num_nodes {
            return Err(CheckpointError::Mismatch(format!(
                "checkpoint covers {} nodes, graph has {}",
                self.num_nodes, num_nodes
            )));
        }
        Ok(())
    }

    /// Serializes to the compact versioned binary form.
    pub fn encode(&self) -> Vec<u8> {
        let member_total: usize = self.supers.iter().map(|r| r.members.len()).sum();
        let mut buf = Vec::with_capacity(
            64 + self.supers.len() * 24 + member_total * 4 + self.superedges.len() * 8,
        );
        buf.extend_from_slice(&MAGIC);
        buf.extend_from_slice(&VERSION.to_le_bytes());
        buf.push(self.algorithm);
        buf.push(0); // reserved
        buf.extend_from_slice(&self.num_nodes.to_le_bytes());
        buf.extend_from_slice(&self.next_iteration.to_le_bytes());
        buf.extend_from_slice(&self.theta_bits.to_le_bytes());
        buf.extend_from_slice(&self.stall_cap_bits.to_le_bytes());
        buf.extend_from_slice(&(self.stats.iterations as u64).to_le_bytes());
        buf.extend_from_slice(&(self.stats.merges as u64).to_le_bytes());
        buf.extend_from_slice(&self.stats.final_theta.to_bits().to_le_bytes());
        buf.push(self.stats.sparsified as u8);
        buf.extend_from_slice(&self.stats.evals.to_le_bytes());
        buf.extend_from_slice(&self.stats.checkpoints.to_le_bytes());
        buf.extend_from_slice(&self.stats.checkpoint_failures.to_le_bytes());
        buf.extend_from_slice(&self.stats.groups.to_le_bytes());
        buf.extend_from_slice(&self.stats.grouped_supernodes.to_le_bytes());
        let p = &self.stats.phases;
        for secs in [p.candidates, p.evaluate, p.commit, p.sparsify] {
            buf.extend_from_slice(&secs.to_bits().to_le_bytes());
        }
        buf.extend_from_slice(&(self.supers.len() as u32).to_le_bytes());
        for rec in &self.supers {
            buf.extend_from_slice(&rec.id.to_le_bytes());
            buf.extend_from_slice(&rec.wsum_bits.to_le_bytes());
            buf.extend_from_slice(&rec.sqsum_bits.to_le_bytes());
            buf.extend_from_slice(&(rec.members.len() as u32).to_le_bytes());
            for &u in &rec.members {
                buf.extend_from_slice(&u.to_le_bytes());
            }
        }
        buf.extend_from_slice(&(self.superedges.len() as u64).to_le_bytes());
        for &(a, b) in &self.superedges {
            buf.extend_from_slice(&a.to_le_bytes());
            buf.extend_from_slice(&b.to_le_bytes());
        }
        buf
    }

    /// Parses and structurally validates a blob produced by
    /// [`RunCheckpoint::encode`]: the member lists must partition
    /// `0..num_nodes`, supernode ids must be unique members of
    /// themselves, and superedges must be sorted unique `(min, max)`
    /// pairs between live supernodes. Any version other than
    /// [`VERSION`] is [`CheckpointError::Corrupt`].
    pub fn decode(bytes: &[u8]) -> Result<Self, CheckpointError> {
        let mut r = Reader { bytes, pos: 0 };
        let magic = r.take(4)?;
        if magic != MAGIC {
            return Err(CheckpointError::Corrupt("bad magic".into()));
        }
        let version = r.u16()?;
        if version != VERSION {
            return Err(CheckpointError::Corrupt(format!(
                "unsupported checkpoint version {version}"
            )));
        }
        let algorithm = r.u8()?;
        if algorithm != ALGO_PEGASUS && algorithm != ALGO_SSUMM {
            return Err(CheckpointError::Corrupt(format!(
                "unknown algorithm tag {algorithm}"
            )));
        }
        let _reserved = r.u8()?;
        let num_nodes = r.u32()?;
        if num_nodes == 0 {
            return Err(CheckpointError::Corrupt("zero-node checkpoint".into()));
        }
        // Plausibility bound before any |V|-sized allocation: a valid
        // blob lists every node once as a supernode member (≥ 4 bytes
        // per node), so a header claiming more nodes than bytes/4 is
        // corrupt — reject it instead of allocating gigabytes on a
        // flipped length field.
        if num_nodes as usize > bytes.len() / 4 {
            return Err(CheckpointError::Corrupt(format!(
                "implausible node count {num_nodes} for a {}-byte blob",
                bytes.len()
            )));
        }
        let next_iteration = r.u64()?;
        let theta_bits = r.u64()?;
        let stall_cap_bits = r.u64()?;
        let stats = RunStats {
            iterations: r.u64()? as usize,
            merges: r.u64()? as usize,
            final_theta: f64::from_bits(r.u64()?),
            sparsified: r.u8()? != 0,
            evals: r.u64()?,
            checkpoints: r.u64()?,
            checkpoint_failures: r.u64()?,
            groups: r.u64()?,
            grouped_supernodes: r.u64()?,
            phases: PhaseTimings {
                candidates: f64::from_bits(r.u64()?),
                evaluate: f64::from_bits(r.u64()?),
                commit: f64::from_bits(r.u64()?),
                sparsify: f64::from_bits(r.u64()?),
            },
        };
        let num_supers = r.u32()? as usize;
        if num_supers == 0 || num_supers > num_nodes as usize {
            return Err(CheckpointError::Corrupt(format!(
                "implausible supernode count {num_supers} for {num_nodes} nodes"
            )));
        }
        let mut seen = vec![false; num_nodes as usize];
        let mut supers = Vec::with_capacity(num_supers);
        let mut prev_id: Option<SuperId> = None;
        for _ in 0..num_supers {
            let id = r.u32()?;
            if id >= num_nodes {
                return Err(CheckpointError::Corrupt(format!(
                    "supernode id {id} out of range"
                )));
            }
            if prev_id.is_some_and(|p| p >= id) {
                return Err(CheckpointError::Corrupt(
                    "supernode ids not strictly ascending".into(),
                ));
            }
            prev_id = Some(id);
            let wsum_bits = r.u64()?;
            let sqsum_bits = r.u64()?;
            let count = r.u32()? as usize;
            if count == 0 || count > num_nodes as usize {
                return Err(CheckpointError::Corrupt(format!(
                    "implausible member count {count}"
                )));
            }
            let mut members = Vec::with_capacity(count);
            let mut contains_id = false;
            for _ in 0..count {
                let u = r.u32()?;
                if u >= num_nodes {
                    return Err(CheckpointError::Corrupt(format!(
                        "member node {u} out of range"
                    )));
                }
                if seen[u as usize] {
                    return Err(CheckpointError::Corrupt(format!(
                        "node {u} appears in two supernodes"
                    )));
                }
                seen[u as usize] = true;
                contains_id |= u == id;
                members.push(u);
            }
            if !contains_id {
                return Err(CheckpointError::Corrupt(format!(
                    "supernode {id} does not contain its own id"
                )));
            }
            supers.push(SuperRecord {
                id,
                wsum_bits,
                sqsum_bits,
                members,
            });
        }
        if seen.iter().any(|&s| !s) {
            return Err(CheckpointError::Corrupt(
                "member lists do not cover every node".into(),
            ));
        }
        let num_superedges = r.u64()? as usize;
        let mut superedges = Vec::with_capacity(num_superedges.min(1 << 20));
        let mut prev_edge: Option<(SuperId, SuperId)> = None;
        let live = |s: SuperId| supers.binary_search_by_key(&s, |rec| rec.id).is_ok();
        for _ in 0..num_superedges {
            let a = r.u32()?;
            let b = r.u32()?;
            if a > b || !live(a) || !live(b) {
                return Err(CheckpointError::Corrupt(format!(
                    "superedge ({a}, {b}) is not a (min, max) pair of live supernodes"
                )));
            }
            if prev_edge.is_some_and(|p| p >= (a, b)) {
                return Err(CheckpointError::Corrupt(
                    "superedges not strictly ascending".into(),
                ));
            }
            prev_edge = Some((a, b));
            superedges.push((a, b));
        }
        if r.pos != r.bytes.len() {
            return Err(CheckpointError::Corrupt(format!(
                "{} trailing bytes",
                r.bytes.len() - r.pos
            )));
        }
        Ok(RunCheckpoint {
            algorithm,
            num_nodes,
            next_iteration,
            theta_bits,
            stall_cap_bits,
            stats,
            supers,
            superedges,
        })
    }
}

struct Reader<'b> {
    bytes: &'b [u8],
    pos: usize,
}

impl Reader<'_> {
    fn take(&mut self, n: usize) -> Result<&[u8], CheckpointError> {
        if self.pos + n > self.bytes.len() {
            return Err(CheckpointError::Corrupt("truncated checkpoint".into()));
        }
        let s = &self.bytes[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    fn u8(&mut self) -> Result<u8, CheckpointError> {
        Ok(self.take(1)?[0])
    }

    fn u16(&mut self) -> Result<u16, CheckpointError> {
        Ok(u16::from_le_bytes(Self::array(self.take(2)?)?))
    }

    fn u32(&mut self) -> Result<u32, CheckpointError> {
        Ok(u32::from_le_bytes(Self::array(self.take(4)?)?))
    }

    fn u64(&mut self) -> Result<u64, CheckpointError> {
        Ok(u64::from_le_bytes(Self::array(self.take(8)?)?))
    }

    /// `take(N)` always returns exactly `N` bytes, so the conversion
    /// cannot fail — but a typed error beats a panic if that invariant
    /// ever breaks.
    fn array<const N: usize>(bytes: &[u8]) -> Result<[u8; N], CheckpointError> {
        bytes
            .try_into()
            .map_err(|_| CheckpointError::Corrupt("truncated integer field".into()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::working::Scratch;
    use pgs_graph::gen::barabasi_albert;

    fn sample_checkpoint() -> (Graph, NodeWeights, RunCheckpoint) {
        let g = barabasi_albert(60, 3, 5);
        let w = NodeWeights::uniform(g.num_nodes());
        let mut ws = WorkingSummary::new(&g, &w, CostModel::ErrorCorrection);
        let mut scratch = Scratch::default();
        ws.merge(0, 1, &mut scratch);
        ws.merge(4, 5, &mut scratch);
        let stats = RunStats {
            iterations: 3,
            merges: 2,
            evals: 17,
            groups: 5,
            grouped_supernodes: 40,
            phases: crate::pegasus::PhaseTimings {
                candidates: 0.5,
                evaluate: 1.25,
                commit: 0.25,
                sparsify: 0.125,
            },
            ..Default::default()
        };
        let ck = RunCheckpoint::capture(ALGO_PEGASUS, 4, 0.25, f64::INFINITY, stats, &ws);
        (g, w, ck)
    }

    #[test]
    fn encode_decode_roundtrip() {
        let (_, _, ck) = sample_checkpoint();
        let decoded = RunCheckpoint::decode(&ck.encode()).unwrap();
        assert_eq!(decoded.algorithm, ck.algorithm);
        assert_eq!(decoded.num_nodes, ck.num_nodes);
        assert_eq!(decoded.next_iteration, ck.next_iteration);
        assert_eq!(decoded.theta_bits, ck.theta_bits);
        assert_eq!(decoded.stall_cap_bits, ck.stall_cap_bits);
        assert_eq!(decoded.stats.iterations, 3);
        assert_eq!(decoded.stats.evals, 17);
        assert_eq!(decoded.stats.groups, 5);
        assert_eq!(decoded.stats.grouped_supernodes, 40);
        assert_eq!(decoded.stats.phases, ck.stats.phases);
        assert_eq!(decoded.supers, ck.supers);
        assert_eq!(decoded.superedges, ck.superedges);
    }

    #[test]
    fn restore_matches_captured_state() {
        let (g, w, ck) = sample_checkpoint();
        let decoded = RunCheckpoint::decode(&ck.encode()).unwrap();
        let ws = decoded.restore_working(&g, &w, CostModel::ErrorCorrection);
        assert_eq!(ws.num_supernodes(), 58);
        assert_eq!(ws.num_superedges(), ck.superedges.len());
        for rec in &decoded.supers {
            assert_eq!(ws.members(rec.id), &rec.members[..]);
            assert_eq!(ws.wsum_raw(rec.id).to_bits(), rec.wsum_bits);
            assert_eq!(ws.sqsum_raw(rec.id).to_bits(), rec.sqsum_bits);
        }
        for &(a, b) in &decoded.superedges {
            assert!(ws.has_superedge(a, b) && ws.has_superedge(b, a));
        }
    }

    #[test]
    fn partial_summary_is_valid() {
        let (g, _, ck) = sample_checkpoint();
        let s = ck.partial_summary();
        assert_eq!(s.num_nodes(), g.num_nodes());
        assert_eq!(s.num_supernodes(), 58);
        assert_eq!(s.supernode_of(0), s.supernode_of(1));
        assert_eq!(s.supernode_of(4), s.supernode_of(5));
    }

    #[test]
    fn corrupt_blobs_are_rejected() {
        let (_, _, ck) = sample_checkpoint();
        let good = ck.encode();
        assert!(matches!(
            RunCheckpoint::decode(&[]),
            Err(CheckpointError::Corrupt(_))
        ));
        assert!(matches!(
            RunCheckpoint::decode(&good[..good.len() - 3]),
            Err(CheckpointError::Corrupt(_))
        ));
        let mut bad_magic = good.clone();
        bad_magic[0] = b'X';
        assert!(matches!(
            RunCheckpoint::decode(&bad_magic),
            Err(CheckpointError::Corrupt(_))
        ));
        let mut trailing = good.clone();
        trailing.push(0);
        assert!(matches!(
            RunCheckpoint::decode(&trailing),
            Err(CheckpointError::Corrupt(_))
        ));
        // Only the current version decodes.
        for version in [0u16, 1, 2, 3, 5, u16::MAX] {
            let mut other = good.clone();
            other[4..6].copy_from_slice(&version.to_le_bytes());
            assert!(
                matches!(
                    RunCheckpoint::decode(&other),
                    Err(CheckpointError::Corrupt(_))
                ),
                "version {version} must not decode"
            );
        }
    }

    #[test]
    fn validate_for_rejects_mismatches() {
        let (g, _, ck) = sample_checkpoint();
        assert!(ck.validate_for(ALGO_PEGASUS, g.num_nodes()).is_ok());
        assert!(matches!(
            ck.validate_for(ALGO_SSUMM, g.num_nodes()),
            Err(CheckpointError::Mismatch(_))
        ));
        assert!(matches!(
            ck.validate_for(ALGO_PEGASUS, g.num_nodes() + 1),
            Err(CheckpointError::Mismatch(_))
        ));
    }

    #[test]
    fn iteration_seed_is_stable_and_spread() {
        assert_eq!(iteration_seed(7, 3), iteration_seed(7, 3));
        assert_ne!(iteration_seed(7, 3), iteration_seed(7, 4));
        assert_ne!(iteration_seed(7, 3), iteration_seed(8, 3));
        // Adjacent (seed, t) pairs must not collide pairwise.
        let mut seen = std::collections::HashSet::new();
        for seed in 0..16u64 {
            for t in 1..=32u64 {
                assert!(
                    seen.insert(iteration_seed(seed, t)),
                    "collision at ({seed}, {t})"
                );
            }
        }
    }
}
