//! Multi-granularity (hierarchical) locking: the context layer.
//!
//! The paper's conclusion points at Gamma-style mixed granularity:
//! "providing granularity at the block level and at the file level … may
//! be adequate for practical purposes". This module holds everything
//! Gray's multi-granularity protocol needs to know about the granule tree
//! (database → file → block → record or any subset of levels), while the
//! [`LockTable`](crate::table::LockTable) underneath stays blind to it:
//!
//! * [`GranuleTree`] — the geometry. The tree is *implicit*: levels have
//!   fixed fan-outs, node ids are computed arithmetically, and a node id
//!   is globally unique across levels, so a single flat lock table stores
//!   the whole hierarchy.
//! * [`GranuleTree::intent_chain_into`] — to lock a node in mode `M`, a
//!   transaction first holds the matching intention mode (`IS` for reads,
//!   `IX` for writes) on every ancestor, root first. The chain is written
//!   into the caller's buffer, so building a request never allocates.
//! * [`escalate_predeclared_into`] — lock escalation over a predeclared
//!   set: the adaptive counterpart of the paper's static granule-size
//!   sweep.

use crate::mode::LockMode;
use crate::table::GranuleId;

/// A level in the granule hierarchy, 0 = root (whole database).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct HierarchyLevel(pub usize);

/// A node in the granule tree: `(level, index within level)`.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct NodeId {
    /// Depth, 0 = root.
    pub level: HierarchyLevel,
    /// 0-based index among nodes of this level.
    pub index: u64,
}

/// An implicit granule tree with fixed per-level fan-outs.
///
/// `fanouts[k]` is the number of children each level-`k` node has; a tree
/// with `fanouts = [10, 50]` has 1 root, 10 files, 500 blocks.
#[derive(Clone, Debug)]
pub struct GranuleTree {
    fanouts: Vec<u64>,
    /// `level_sizes[k]` = number of nodes at level `k`.
    level_sizes: Vec<u64>,
    /// `level_offsets[k]` = flat id of the first node at level `k`.
    level_offsets: Vec<u64>,
}

impl GranuleTree {
    /// Build a tree from per-level fan-outs (root excluded; an empty slice
    /// yields a single-node tree — whole-database locking).
    ///
    /// # Panics
    /// Panics if any fan-out is zero.
    pub fn new(fanouts: &[u64]) -> Self {
        assert!(fanouts.iter().all(|&f| f > 0), "fan-outs must be positive");
        let mut level_sizes = vec![1u64];
        let mut last = 1u64;
        for &f in fanouts {
            last *= f;
            level_sizes.push(last);
        }
        let mut level_offsets = Vec::with_capacity(level_sizes.len());
        let mut acc = 0;
        for &s in &level_sizes {
            level_offsets.push(acc);
            acc += s;
        }
        GranuleTree {
            fanouts: fanouts.to_vec(),
            level_sizes,
            level_offsets,
        }
    }

    /// Number of levels (≥ 1; level 0 is the root).
    pub fn levels(&self) -> usize {
        self.level_sizes.len()
    }

    /// Number of nodes at `level`.
    pub fn level_size(&self, level: HierarchyLevel) -> u64 {
        self.level_sizes[level.0]
    }

    /// Total nodes in the tree.
    pub fn total_nodes(&self) -> u64 {
        self.level_sizes.iter().sum()
    }

    /// Leaf level (finest granularity).
    pub fn leaf_level(&self) -> HierarchyLevel {
        HierarchyLevel(self.levels() - 1)
    }

    /// Flat, globally unique granule id for a node.
    ///
    /// # Panics
    /// Panics if the node is out of range.
    pub fn flat_id(&self, node: NodeId) -> GranuleId {
        assert!(node.level.0 < self.levels(), "level out of range");
        assert!(
            node.index < self.level_sizes[node.level.0],
            "index {} out of range for level {}",
            node.index,
            node.level.0
        );
        GranuleId(self.level_offsets[node.level.0] + node.index)
    }

    /// Parent of a node (`None` for the root).
    pub fn parent(&self, node: NodeId) -> Option<NodeId> {
        if node.level.0 == 0 {
            return None;
        }
        Some(NodeId {
            level: HierarchyLevel(node.level.0 - 1),
            index: node.index / self.fanouts[node.level.0 - 1],
        })
    }

    /// Append the requests that lock `node` in `mode` under Gray's
    /// protocol to `out`: the intention mode `mode` requires on every
    /// ancestor, root first, then `node` itself in `mode`.
    pub fn intent_chain_into(
        &self,
        node: NodeId,
        mode: LockMode,
        out: &mut Vec<(GranuleId, LockMode)>,
    ) {
        let intent = mode.required_ancestor_intent();
        let start = out.len();
        let mut cur = node;
        while let Some(p) = self.parent(cur) {
            out.push((self.flat_id(p), intent));
            cur = p;
        }
        out[start..].reverse();
        out.push((self.flat_id(node), mode));
    }
}

/// Escalation policy: when a transaction declares at least `threshold`
/// children under one parent, it locks the parent instead.
#[derive(Clone, Copy, Debug)]
pub struct EscalationPolicy {
    /// Child count that triggers escalation.
    pub threshold: usize,
}

impl EscalationPolicy {
    /// A policy that never escalates (the threshold is unreachable) —
    /// pure multigranularity locking.
    pub fn never() -> Self {
        EscalationPolicy {
            threshold: usize::MAX,
        }
    }
}

/// Apply the escalation policy to a *predeclared* request set.
///
/// The conservative protocol (the one the paper simulates) declares every
/// leaf up front, so escalation runs on the whole set before any lock is
/// taken: wherever at least `policy.threshold` requested children share a
/// parent, the children are replaced by the parent requested whole in
/// `mode`. The promotion cascades bottom-up — promoted parents that
/// themselves cluster under one grandparent can escalate again, so
/// `threshold = 1` always collapses a non-empty set to the root
/// (whole-database locking).
///
/// `kept` receives the surviving requests (cleared first), each to be
/// taken in `mode`; callers still owe intention locks on the ancestors of
/// every survivor. `current` and `promoted` are pure scratch whose
/// contents after the call are unspecified. Returns the number of
/// promotions performed.
pub fn escalate_predeclared_into(
    tree: &GranuleTree,
    policy: EscalationPolicy,
    leaves: &[NodeId],
    mode: LockMode,
    kept: &mut Vec<(NodeId, LockMode)>,
    current: &mut Vec<NodeId>,
    promoted: &mut Vec<NodeId>,
) -> u64 {
    kept.clear();
    let mut escalations = 0u64;
    // Sort (and dedup) so nodes sharing a parent are contiguous; every
    // round works on a single level, so ordering by index suffices.
    current.clear();
    current.extend_from_slice(leaves);
    current.sort_unstable_by_key(|n| (n.level.0, n.index));
    current.dedup();
    while let Some(&first) = current.first() {
        if first.level.0 == 0 {
            // The root cannot escalate further.
            kept.extend(current.drain(..).map(|n| (n, mode)));
            break;
        }
        promoted.clear();
        let mut i = 0;
        while i < current.len() {
            #[expect(clippy::expect_used, reason = "non-root nodes always have a parent")]
            let parent = tree.parent(current[i]).expect("non-root node has a parent");
            let mut j = i;
            while j < current.len() && tree.parent(current[j]) == Some(parent) {
                j += 1;
            }
            if j - i >= policy.threshold {
                escalations += 1;
                promoted.push(parent);
            } else {
                kept.extend(current[i..j].iter().map(|&n| (n, mode)));
            }
            i = j;
        }
        std::mem::swap(current, promoted);
    }
    escalations
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::conservative::{ConservativeOutcome, ConservativeScheduler};
    use crate::table::TxnId;
    use LockMode::{IS, IX, S, X};

    fn t(n: u64) -> TxnId {
        TxnId(n)
    }

    fn node(level: usize, index: u64) -> NodeId {
        NodeId {
            level: HierarchyLevel(level),
            index,
        }
    }

    /// database -> 10 files -> 50 blocks each = 500 blocks.
    fn tree() -> GranuleTree {
        GranuleTree::new(&[10, 50])
    }

    fn chain(tr: &GranuleTree, n: NodeId, mode: LockMode) -> Vec<(GranuleId, LockMode)> {
        let mut out = Vec::new();
        tr.intent_chain_into(n, mode, &mut out);
        out
    }

    /// Lock `n` in `mode` with its intent chain, as one conservative
    /// request (the production path).
    fn lock(
        s: &mut ConservativeScheduler,
        tr: &GranuleTree,
        txn: TxnId,
        n: NodeId,
        mode: LockMode,
    ) -> ConservativeOutcome {
        s.request_all(txn, &chain(tr, n, mode))
    }

    fn escalate(
        tr: &GranuleTree,
        policy: EscalationPolicy,
        leaves: &[NodeId],
        mode: LockMode,
    ) -> (Vec<(NodeId, LockMode)>, u64) {
        let (mut kept, mut current, mut promoted) = (Vec::new(), Vec::new(), Vec::new());
        let n = escalate_predeclared_into(
            tr,
            policy,
            leaves,
            mode,
            &mut kept,
            &mut current,
            &mut promoted,
        );
        (kept, n)
    }

    #[test]
    fn geometry() {
        let tr = tree();
        assert_eq!(tr.levels(), 3);
        assert_eq!(tr.level_size(HierarchyLevel(0)), 1);
        assert_eq!(tr.level_size(HierarchyLevel(1)), 10);
        assert_eq!(tr.level_size(HierarchyLevel(2)), 500);
        assert_eq!(tr.total_nodes(), 511);
        assert_eq!(tr.leaf_level(), HierarchyLevel(2));
    }

    #[test]
    fn flat_ids_are_unique_across_levels() {
        let tr = tree();
        let mut ids: Vec<GranuleId> = (0..tr.levels())
            .flat_map(|level| {
                let tr = &tr;
                (0..tr.level_size(HierarchyLevel(level))).map(move |i| tr.flat_id(node(level, i)))
            })
            .collect();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len() as u64, tr.total_nodes(), "collision");
    }

    #[test]
    fn parent_chain() {
        let tr = tree();
        // Block 123 belongs to file 123 / 50 = 2; file 2's parent is root.
        let b = node(2, 123);
        assert_eq!(tr.parent(b), Some(node(1, 2)));
        assert_eq!(tr.parent(node(1, 2)), Some(node(0, 0)));
        assert_eq!(tr.parent(node(0, 0)), None);
        assert_eq!(
            chain(&tr, b, X),
            vec![
                (tr.flat_id(node(0, 0)), IX),
                (tr.flat_id(node(1, 2)), IX),
                (tr.flat_id(b), X),
            ]
        );
        // Reads take IS intents; the chain appends to the buffer.
        let mut out = chain(&tr, b, X);
        tr.intent_chain_into(node(1, 3), S, &mut out);
        assert_eq!(
            &out[3..],
            &[(tr.flat_id(node(0, 0)), IS), (tr.flat_id(node(1, 3)), S)]
        );
        assert_eq!(chain(&tr, node(0, 0), X), vec![(GranuleId(0), X)]);
    }

    #[test]
    fn read_and_write_different_files_coexist() {
        let tr = tree();
        let mut s = ConservativeScheduler::new();
        // t1 writes a block in file 0; t2 reads a block in file 3.
        assert_eq!(
            lock(&mut s, &tr, t(1), node(2, 5), X),
            ConservativeOutcome::Granted
        );
        assert_eq!(
            lock(&mut s, &tr, t(2), node(2, 170), S),
            ConservativeOutcome::Granted
        );
        // Root carries IX (t1) + IS (t2): compatible.
        let root = tr.flat_id(node(0, 0));
        assert_eq!(s.table().held_mode(t(1), root), Some(IX));
        assert_eq!(s.table().held_mode(t(2), root), Some(IS));
        s.check_invariants().unwrap();
    }

    #[test]
    fn file_lock_blocks_block_write_within_it() {
        let tr = tree();
        let mut s = ConservativeScheduler::new();
        // t1 S-locks file 2 (covers blocks 100..149).
        assert_eq!(
            lock(&mut s, &tr, t(1), node(1, 2), S),
            ConservativeOutcome::Granted
        );
        // t2 writing block 120 needs IX on file 2 -> conflicts with S.
        assert_eq!(
            lock(&mut s, &tr, t(2), node(2, 120), X),
            ConservativeOutcome::Blocked { blocker: t(1) }
        );
        // All or nothing: t2 holds nothing, not even the root intent.
        assert!(s.holdings(t(2)).next().is_none());
        s.check_invariants().unwrap();
    }

    #[test]
    fn block_write_blocks_covering_file_read() {
        let tr = tree();
        let mut s = ConservativeScheduler::new();
        assert_eq!(
            lock(&mut s, &tr, t(1), node(2, 120), X),
            ConservativeOutcome::Granted
        );
        // t2 reading all of file 2 needs S on file 2, which conflicts with
        // t1's IX there.
        assert_eq!(
            lock(&mut s, &tr, t(2), node(1, 2), S),
            ConservativeOutcome::Blocked { blocker: t(1) }
        );
        // But reading a *different* file is fine.
        assert_eq!(
            lock(&mut s, &tr, t(3), node(1, 3), S),
            ConservativeOutcome::Granted
        );
        s.check_invariants().unwrap();
    }

    #[test]
    fn single_level_tree_degenerates_to_flat_locking() {
        let tr = GranuleTree::new(&[]);
        let mut s = ConservativeScheduler::new();
        assert_eq!(
            lock(&mut s, &tr, t(1), node(0, 0), X),
            ConservativeOutcome::Granted
        );
        assert_eq!(
            lock(&mut s, &tr, t(2), node(0, 0), S),
            ConservativeOutcome::Blocked { blocker: t(1) }
        );
    }

    fn leaves(ids: &[u64]) -> Vec<NodeId> {
        ids.iter().map(|&i| node(2, i)).collect()
    }

    #[test]
    fn predeclared_threshold_one_collapses_to_root() {
        let tr = tree();
        let pol = EscalationPolicy { threshold: 1 };
        // Any non-empty leaf set cascades all the way to the root.
        let (kept, escalations) = escalate(&tr, pol, &leaves(&[7]), X);
        assert_eq!(kept, vec![(node(0, 0), X)]);
        assert_eq!(escalations, 2); // file 0, then the database

        let (kept, escalations) = escalate(&tr, pol, &leaves(&[0, 60, 499]), X);
        assert_eq!(kept, vec![(node(0, 0), X)]);
        assert_eq!(escalations, 4); // three files, then the database
    }

    #[test]
    fn predeclared_never_policy_keeps_all_leaves() {
        let tr = tree();
        let (kept, escalations) = escalate(&tr, EscalationPolicy::never(), &leaves(&[3, 1, 2]), X);
        assert_eq!(escalations, 0);
        assert_eq!(
            kept,
            vec![(node(2, 1), X), (node(2, 2), X), (node(2, 3), X)],
            "survivors come back sorted"
        );
    }

    #[test]
    fn predeclared_escalates_only_dense_parents() {
        let tr = tree();
        let pol = EscalationPolicy { threshold: 3 };
        // Three blocks in file 0 (escalates), two in file 1 (kept).
        let (kept, escalations) = escalate(&tr, pol, &leaves(&[0, 1, 2, 50, 51]), X);
        assert_eq!(escalations, 1);
        assert_eq!(
            kept,
            vec![(node(2, 50), X), (node(2, 51), X), (node(1, 0), X)]
        );
    }

    #[test]
    fn predeclared_cascades_through_intermediate_levels() {
        // 2 files × 2 blocks; threshold 2: both files escalate, then the
        // two file locks escalate to the root.
        let tr = GranuleTree::new(&[2, 2]);
        let pol = EscalationPolicy { threshold: 2 };
        let all: Vec<NodeId> = (0..4).map(|i| node(2, i)).collect();
        let (kept, escalations) = escalate(&tr, pol, &all, X);
        assert_eq!(kept, vec![(node(0, 0), X)]);
        assert_eq!(escalations, 3);
    }

    #[test]
    fn predeclared_dedups_and_handles_empty_sets() {
        let tr = tree();
        let pol = EscalationPolicy { threshold: 2 };
        let (kept, escalations) = escalate(&tr, pol, &leaves(&[9, 9]), S);
        assert_eq!(escalations, 0);
        assert_eq!(kept, vec![(node(2, 9), S)]);
        let (kept, escalations) = escalate(&tr, pol, &[], X);
        assert!(kept.is_empty());
        assert_eq!(escalations, 0);
    }
}
