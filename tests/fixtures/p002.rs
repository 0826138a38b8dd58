//! P002 fixture: O(n) front-removal from a `Vec` in library code.

pub fn drain_front(v: &mut Vec<u64>) -> Option<u64> {
    if v.is_empty() {
        return None;
    }
    Some(v.remove(0)) // VIOLATION
}

pub fn busy_wait_queue(queue: &mut Vec<String>) {
    while !queue.is_empty() {
        let _head = queue.remove(0); // VIOLATION
    }
}

pub fn positional_is_fine(v: &mut Vec<u64>) -> u64 {
    v.remove(1) // ok: not the front — no cheaper general substitute
}

pub fn variable_index_is_fine(v: &mut Vec<u64>, idx: usize) -> u64 {
    v.remove(idx) // ok: index unknown statically
}

pub fn keyed_is_fine(map: &mut std::collections::BTreeMap<u64, u64>) -> Option<u64> {
    map.remove(&0) // ok: keyed removal, not a front-shift
}

pub fn commented_is_fine(v: &mut Vec<u64>) -> Option<u64> {
    v.pop() // ok: a `.remove(0)` named in a comment
}

#[cfg(test)]
mod tests {
    #[test]
    fn front_removal_is_fine_in_tests() {
        let mut v = vec![1, 2];
        assert_eq!(v.remove(0), 1); // ok: test region
    }
}
