//! An exact work gate on the root of a granule hierarchy.
//!
//! Under Gray's protocol every running transaction holds an intention
//! lock on the database root, so the root's granted group holds them all.
//! A request from a transaction that holds nothing must not walk that
//! group, and a release must walk it only as far as the releaser's own
//! block. `LockTable::visit_count` counts the granted-group and
//! wait-queue blocks the table's walks visit. The counts are exact and
//! the same on every host, so they pin the table's work where no
//! hardware counter is available.

use lockgran_lockmgr::{
    merge_by_supremum, ConservativeOutcome, ConservativeScheduler, GranuleId, GranuleTree,
    HierarchyLevel, LockMode, NodeId, TxnId,
};

/// `capacity`'s hierarchical tree: 10 000 granules in 100 areas of 100.
fn tree() -> GranuleTree {
    GranuleTree::new(&[100, 100])
}

/// Transactions resident under the root: `capacity`'s multiprogramming
/// level.
const RESIDENTS: u64 = 64;

/// The request that writes the first two granules of `area`: an `IX`
/// intent chain per granule, merged by supremum, as the hierarchical
/// preset builds it.
fn request(tree: &GranuleTree, area: u64) -> Vec<(GranuleId, LockMode)> {
    let mut out = Vec::new();
    for index in [area * 100, area * 100 + 1] {
        let leaf = NodeId {
            level: tree.leaf_level(),
            index,
        };
        tree.intent_chain_into(leaf, LockMode::X, &mut out);
    }
    merge_by_supremum(&mut out);
    out
}

/// A scheduler whose first `RESIDENTS` transactions each hold their
/// chain in an area of their own, so the root's granted group holds all
/// of them, in transaction order.
fn residents(tree: &GranuleTree) -> ConservativeScheduler {
    let mut s = ConservativeScheduler::new();
    for txn in 0..RESIDENTS {
        let outcome = s.request_all(TxnId(txn), &request(tree, txn));
        assert_eq!(outcome, ConservativeOutcome::Granted, "resident {txn}");
    }
    s.check_invariants().unwrap();
    s
}

/// Visits made by `f`.
fn visits(s: &mut ConservativeScheduler, f: impl FnOnce(&mut ConservativeScheduler)) -> u64 {
    let before = s.table().visit_count();
    f(s);
    s.table().visit_count() - before
}

#[test]
fn a_fresh_grant_visits_no_block_and_a_release_stops_at_its_own() {
    let tree = tree();
    let mut s = residents(&tree);
    let newcomer = TxnId(RESIDENTS);
    // A fresh grant: root, area and both leaves through one index lookup
    // each. A probe and grant that walk the group would visit the root's
    // 64 holders four times.
    let grant = visits(&mut s, |s| {
        let outcome = s.request_all(newcomer, &request(&tree, 99));
        assert_eq!(outcome, ConservativeOutcome::Granted);
    });
    assert_eq!(grant, 0, "a fresh grant walks no group");
    // The release walks the root's group to the newcomer's block, the
    // 65th, and finds it first in its area and leaves.
    let mut woken = Vec::new();
    let release = visits(&mut s, |s| s.release_into(newcomer, &mut woken));
    assert!(woken.is_empty());
    assert_eq!(release, (RESIDENTS + 1) + 1 + 2);
    s.check_invariants().unwrap();
}

#[test]
fn a_release_from_the_middle_walks_only_to_its_position() {
    let tree = tree();
    let mut s = residents(&tree);
    // Resident 10 is the 11th holder of the root, alone in its area.
    let mut woken = Vec::new();
    let release = visits(&mut s, |s| s.release_into(TxnId(10), &mut woken));
    assert_eq!(release, 11 + 1 + 2);
    // The group it left keeps its order: resident 11 is now 11th.
    let release = visits(&mut s, |s| s.release_into(TxnId(11), &mut woken));
    assert_eq!(release, 11 + 1 + 2);
    s.check_invariants().unwrap();
}

#[test]
fn a_denial_walks_only_to_its_first_blocker() {
    let tree = tree();
    let mut s = residents(&tree);
    // Writing all of area 5 conflicts with resident 5's IX there: the
    // root probe is fresh, and the area's one holder is the blocker.
    let area = NodeId {
        level: HierarchyLevel(1),
        index: 5,
    };
    let mut whole_area = Vec::new();
    tree.intent_chain_into(area, LockMode::X, &mut whole_area);
    let denial = visits(&mut s, |s| {
        let outcome = s.request_all(TxnId(RESIDENTS), &whole_area);
        assert_eq!(outcome, ConservativeOutcome::Blocked { blocker: TxnId(5) });
    });
    assert_eq!(denial, 1);
    s.check_invariants().unwrap();
}
