//! `DetMap`: a deterministic open-addressing hash map over `u64` keys.
//!
//! The repo's D001 policy bans `std::collections::HashMap`/`HashSet`
//! because their iteration order is randomized per process, and an order
//! that leaks into any output breaks bit-identical goldens. `DetMap`
//! gets hash-map speed without that hazard *by construction*:
//!
//! * **Fixed multiplicative hash.** Slots come from
//!   `key.wrapping_mul(2^64 / φ) >> (64 - log2(capacity))` — no
//!   per-process seed, no `RandomState`. The same key set always lands
//!   in the same slots.
//! * **Insertion-order side list.** Every entry is threaded onto a
//!   doubly-linked list in insertion order, and [`DetMap::iter`] walks
//!   that list. Iteration order is therefore a pure function of the
//!   operation sequence, never of the probe layout — even code that
//!   *does* iterate cannot observe the hash.
//! * **Tombstone-free backward-shift deletion.** Removals compact the
//!   probe window in place (Knuth's algorithm R), so lookup cost never
//!   degrades with churn and the index needs no periodic rebuild.
//!
//! Entries live in a slab (`Vec<Node>`) recycled through a free list;
//! the open-addressed index stores `slot + 1` (0 = empty). [`clear`]
//! retains both the slab and index capacity, so a warmed map satisfies
//! the reset-equals-fresh RunArena contract: steady-state insert/remove
//! cycles after a clear allocate nothing.
//!
//! [`clear`]: DetMap::clear

/// Sentinel for "no node" in slab links.
const NIL: u32 = u32::MAX;

/// 2^64 divided by the golden ratio, the classic Fibonacci-hash
/// multiplier: consecutive keys scatter maximally.
const FIB: u64 = 0x9E37_79B9_7F4A_7C15;

/// Minimum index capacity (slots); must be a power of two.
const MIN_CAP: usize = 8;

#[derive(Clone, Debug)]
struct Node<V> {
    key: u64,
    /// `None` only while the slot sits on the free list.
    value: Option<V>,
    /// Insertion-order links (NIL-terminated). `next` doubles as the
    /// free-list link while the slot is free.
    prev: u32,
    next: u32,
}

/// A deterministic `u64 -> V` hash map. See the module docs for the
/// determinism argument.
#[derive(Clone, Debug)]
pub struct DetMap<V> {
    /// Open-addressed index of `slot + 1`; 0 = empty. Power-of-two len.
    index: Vec<u32>,
    /// Right-shift applied to the multiplied key: `64 - log2(index.len())`.
    shift: u32,
    /// Entry slab; freed slots are threaded through `free`.
    nodes: Vec<Node<V>>,
    free: u32,
    /// Insertion-order list endpoints.
    head: u32,
    tail: u32,
    len: usize,
}

impl<V> Default for DetMap<V> {
    fn default() -> Self {
        Self::new()
    }
}

impl<V> DetMap<V> {
    /// An empty map with the minimum index footprint.
    pub fn new() -> Self {
        Self::with_capacity(0)
    }

    /// An empty map pre-sized so `cap` entries insert without growth.
    pub fn with_capacity(cap: usize) -> Self {
        let slots = index_size_for(cap);
        DetMap {
            index: vec![0; slots],
            shift: 64 - slots.trailing_zeros(),
            nodes: Vec::with_capacity(cap),
            free: NIL,
            head: NIL,
            tail: NIL,
            len: 0,
        }
    }

    /// Number of live entries.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when no entries are live.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Drop every entry but retain the slab and index allocations, so a
    /// cleared map re-fills without touching the allocator
    /// (reset-equals-fresh).
    pub fn clear(&mut self) {
        self.nodes.clear();
        self.index.fill(0);
        self.free = NIL;
        self.head = NIL;
        self.tail = NIL;
        self.len = 0;
    }

    /// The ideal index slot for `key` at the current capacity.
    #[inline]
    fn ideal(&self, key: u64) -> usize {
        (key.wrapping_mul(FIB) >> self.shift) as usize
    }

    /// Find the index position holding `key`, if present.
    #[inline]
    fn find(&self, key: u64) -> Option<usize> {
        let mask = self.index.len() - 1;
        let mut pos = self.ideal(key);
        loop {
            let cell = self.index[pos];
            if cell == 0 {
                return None;
            }
            if self.nodes[(cell - 1) as usize].key == key {
                return Some(pos);
            }
            pos = (pos + 1) & mask;
        }
    }

    /// Borrow the value for `key`.
    #[inline]
    pub fn get(&self, key: u64) -> Option<&V> {
        let pos = self.find(key)?;
        let slot = (self.index[pos] - 1) as usize;
        self.nodes[slot].value.as_ref()
    }

    /// Insert or replace. Returns the previous value when `key` was
    /// already present (its insertion-order position is kept, matching
    /// `BTreeMap::insert` observable behavior for lookups).
    pub fn insert(&mut self, key: u64, value: V) -> Option<V> {
        if let Some(pos) = self.find(key) {
            let slot = (self.index[pos] - 1) as usize;
            return self.nodes[slot].value.replace(value);
        }
        self.grow_if_needed();
        // Claim a slab slot: recycle the free list before growing the Vec.
        let slot = if self.free != NIL {
            let s = self.free as usize;
            self.free = self.nodes[s].next;
            self.nodes[s] = Node {
                key,
                value: Some(value),
                prev: self.tail,
                next: NIL,
            };
            s as u32
        } else {
            self.nodes.push(Node {
                key,
                value: Some(value),
                prev: self.tail,
                next: NIL,
            });
            (self.nodes.len() - 1) as u32
        };
        // Append to the insertion-order list.
        if self.tail == NIL {
            self.head = slot;
        } else {
            self.nodes[self.tail as usize].next = slot;
        }
        self.tail = slot;
        // Link into the index at the first free probe position.
        let mask = self.index.len() - 1;
        let mut pos = self.ideal(key);
        while self.index[pos] != 0 {
            pos = (pos + 1) & mask;
        }
        self.index[pos] = slot + 1;
        self.len += 1;
        None
    }

    /// Remove `key`, returning its value. Backward-shift deletion keeps
    /// the probe sequences of every remaining key intact without
    /// tombstones.
    pub fn remove(&mut self, key: u64) -> Option<V> {
        let pos = self.find(key)?;
        let slot = self.index[pos] - 1;
        self.shift_out(pos);
        // Unlink from the insertion-order list.
        let (prev, next) = {
            let n = &self.nodes[slot as usize];
            (n.prev, n.next)
        };
        if prev == NIL {
            self.head = next;
        } else {
            self.nodes[prev as usize].next = next;
        }
        if next == NIL {
            self.tail = prev;
        } else {
            self.nodes[next as usize].prev = prev;
        }
        // Return the slab slot to the free list.
        let value = self.nodes[slot as usize].value.take();
        self.nodes[slot as usize].next = self.free;
        self.free = slot;
        self.len -= 1;
        value
    }

    /// Knuth algorithm R: compact the probe window after vacating `pos`.
    /// An entry at `j` moves back into the hole at `i` iff its ideal slot
    /// lies at or before `i` in probe order, i.e. its displacement from
    /// ideal is at least its distance from the hole.
    fn shift_out(&mut self, mut i: usize) {
        let mask = self.index.len() - 1;
        let mut j = i;
        loop {
            j = (j + 1) & mask;
            let cell = self.index[j];
            if cell == 0 {
                break;
            }
            let ideal = self.ideal(self.nodes[(cell - 1) as usize].key);
            if (j.wrapping_sub(ideal) & mask) >= (j.wrapping_sub(i) & mask) {
                self.index[i] = cell;
                i = j;
            }
        }
        self.index[i] = 0;
    }

    /// Pre-size the map so `cap` live entries fit without any further
    /// allocation — the warm-up hook for closed-system callers whose
    /// concurrent-entry count has a known bound (e.g. the
    /// multiprogramming level). Existing entries are preserved; index
    /// layout is never observable, so a reserve is invisible to
    /// iteration.
    pub fn reserve(&mut self, cap: usize) {
        if cap > self.nodes.capacity() {
            self.nodes.reserve(cap - self.nodes.len());
        }
        let slots = index_size_for(cap.max(self.len));
        if slots > self.index.len() {
            self.rebuild_index(slots);
        }
    }

    /// Double the index when the next insert would push the load factor
    /// past 7/8. Re-links every live entry in insertion order (layout is
    /// never observable, but determinism costs nothing here).
    fn grow_if_needed(&mut self) {
        if (self.len + 1) * 8 <= self.index.len() * 7 {
            return;
        }
        self.rebuild_index(self.index.len() * 2);
    }

    /// Rebuild the index at `slots` capacity (a power of two), re-linking
    /// every live entry in insertion order.
    fn rebuild_index(&mut self, slots: usize) {
        self.index.clear();
        self.index.resize(slots, 0);
        self.shift = 64 - slots.trailing_zeros();
        let mask = slots - 1;
        let mut cur = self.head;
        while cur != NIL {
            let key = self.nodes[cur as usize].key;
            let mut pos = self.ideal(key);
            while self.index[pos] != 0 {
                pos = (pos + 1) & mask;
            }
            self.index[pos] = cur + 1;
            cur = self.nodes[cur as usize].next;
        }
    }

    /// Iterate `(key, &value)` in insertion order.
    pub fn iter(&self) -> Iter<'_, V> {
        Iter {
            map: self,
            cur: self.head,
        }
    }
}

/// Insertion-order iterator over a [`DetMap`].
pub struct Iter<'a, V> {
    map: &'a DetMap<V>,
    cur: u32,
}

impl<'a, V> Iterator for Iter<'a, V> {
    type Item = (u64, &'a V);

    fn next(&mut self) -> Option<Self::Item> {
        if self.cur == NIL {
            return None;
        }
        let node = &self.map.nodes[self.cur as usize];
        self.cur = node.next;
        node.value.as_ref().map(|v| (node.key, v))
    }
}

/// Smallest power-of-two slot count that keeps `cap` entries under the
/// 7/8 load ceiling.
fn index_size_for(cap: usize) -> usize {
    let mut slots = MIN_CAP;
    while cap * 8 > slots * 7 {
        slots *= 2;
    }
    slots
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::SimRng;
    use std::collections::BTreeMap;

    #[test]
    fn insert_get_remove_roundtrip() {
        let mut m = DetMap::new();
        assert!(m.is_empty());
        assert_eq!(m.insert(7, "a"), None);
        assert_eq!(m.insert(7, "b"), Some("a"));
        assert_eq!(m.get(7), Some(&"b"));
        assert_eq!(m.len(), 1);
        assert_eq!(m.remove(7), Some("b"));
        assert_eq!(m.remove(7), None);
        assert!(m.get(7).is_none());
        assert!(m.is_empty());
    }

    #[test]
    fn iteration_is_insertion_order() {
        let mut m = DetMap::new();
        for k in [9u64, 2, 400, 3, 77] {
            m.insert(k, k * 10);
        }
        let keys: Vec<u64> = m.iter().map(|(k, _)| k).collect();
        assert_eq!(keys, vec![9, 2, 400, 3, 77]);
        m.remove(400);
        m.insert(400, 1); // re-insert moves to the back
        let keys: Vec<u64> = m.iter().map(|(k, _)| k).collect();
        assert_eq!(keys, vec![9, 2, 3, 77, 400]);
    }

    #[test]
    fn replacing_insert_keeps_position() {
        let mut m = DetMap::new();
        for k in [1u64, 2, 3] {
            m.insert(k, 0u32);
        }
        m.insert(2, 9);
        let pairs: Vec<(u64, u32)> = m.iter().map(|(k, v)| (k, *v)).collect();
        assert_eq!(pairs, vec![(1, 0), (2, 9), (3, 0)]);
    }

    #[test]
    fn growth_preserves_entries() {
        let mut m = DetMap::with_capacity(0);
        for k in 0..1000u64 {
            m.insert(k * 0x1_0001, k);
        }
        assert_eq!(m.len(), 1000);
        for k in 0..1000u64 {
            assert_eq!(m.get(k * 0x1_0001), Some(&k), "key {k}");
        }
    }

    #[test]
    fn backward_shift_keeps_colliding_keys_reachable() {
        // Craft keys that collide: same ideal slot at MIN_CAP. With the
        // multiplicative hash, keys k and k + 2^shift * inv collide only
        // accidentally, so instead brute-force a colliding cluster.
        let mut m: DetMap<u64> = DetMap::new();
        let probe = DetMap::<u64>::new();
        let target = probe.ideal(1);
        let cluster: Vec<u64> = (1..5000u64).filter(|&k| probe.ideal(k) == target).collect();
        assert!(cluster.len() >= 3, "need a collision cluster to test");
        for &k in cluster.iter().take(3) {
            m.insert(k, k);
        }
        // Remove the first inserted (earliest probe position): the
        // backward shift must pull the later ones into reach.
        m.remove(cluster[0]);
        assert_eq!(m.get(cluster[1]), Some(&cluster[1]));
        assert_eq!(m.get(cluster[2]), Some(&cluster[2]));
    }

    #[test]
    fn clear_retains_capacity_and_reuses_slots() {
        let mut m = DetMap::with_capacity(64);
        for k in 0..64u64 {
            m.insert(k, k);
        }
        let index_cap = m.index.len();
        let slab_cap = m.nodes.capacity();
        m.clear();
        assert!(m.is_empty());
        assert_eq!(m.index.len(), index_cap);
        for k in 0..64u64 {
            m.insert(k, k + 1);
        }
        assert_eq!(m.index.len(), index_cap, "clear+refill must not grow");
        assert_eq!(m.nodes.capacity(), slab_cap);
        assert_eq!(m.get(5), Some(&6));
    }

    #[test]
    fn free_list_recycles_before_slab_growth() {
        let mut m = DetMap::new();
        for k in 0..16u64 {
            m.insert(k, k);
        }
        let slab = m.nodes.len();
        for k in 0..8u64 {
            m.remove(k);
        }
        for k in 100..108u64 {
            m.insert(k, k);
        }
        assert_eq!(m.nodes.len(), slab, "freed slots must be reused");
    }

    /// Seeded differential loop against `BTreeMap`: same operations,
    /// identical lookups and identical sorted content at every step.
    #[test]
    fn differential_against_btreemap() {
        let mut rng = SimRng::new(0xD37);
        let mut det: DetMap<u64> = DetMap::new();
        let mut reference: BTreeMap<u64, u64> = BTreeMap::new();
        for step in 0..20_000u64 {
            // Small key space so hits, collisions and churn all occur.
            let key = rng.next_u64() % 257;
            match rng.next_u64() % 4 {
                0 | 1 => {
                    assert_eq!(det.insert(key, step), reference.insert(key, step));
                }
                2 => {
                    assert_eq!(det.remove(key), reference.remove(&key));
                }
                _ => {
                    assert_eq!(det.get(key), reference.get(&key));
                }
            }
            assert_eq!(det.len(), reference.len());
        }
        // Full content check: sorted pairs match.
        let mut pairs: Vec<(u64, u64)> = det.iter().map(|(k, v)| (k, *v)).collect();
        pairs.sort_unstable();
        let want: Vec<(u64, u64)> = reference.iter().map(|(&k, &v)| (k, v)).collect();
        assert_eq!(pairs, want);
    }

    /// The layout-determinism claim: two maps built by the same operation
    /// sequence iterate identically, and iteration never depends on
    /// remove/re-insert history beyond what insertion order dictates.
    #[test]
    fn iteration_order_is_a_function_of_the_operation_sequence() {
        let build = || {
            let mut m = DetMap::new();
            let mut rng = SimRng::new(99);
            for step in 0..5000u64 {
                let key = rng.next_u64() % 123;
                if rng.next_u64().is_multiple_of(3) {
                    m.remove(key);
                } else {
                    m.insert(key, step);
                }
            }
            m
        };
        let a: Vec<(u64, u64)> = build().iter().map(|(k, v)| (k, *v)).collect();
        let b: Vec<(u64, u64)> = build().iter().map(|(k, v)| (k, *v)).collect();
        assert_eq!(a, b);
    }
}
