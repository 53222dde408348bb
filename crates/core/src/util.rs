//! Small internal utilities shared by the greedy algorithms.

use rmsa_diffusion::AdId;
use rmsa_graph::NodeId;
use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// A `(key, node, ad)` max-heap entry with a per-advertiser version stamp
/// used for CELF-style lazy greedy evaluation: an entry whose stamp is older
/// than its advertiser's current version carries a stale (upper-bound) key
/// and must be re-evaluated before it can be selected.
#[derive(Clone, Copy, Debug)]
pub struct LazyEntry {
    /// Cached key (marginal gain or marginal rate). By submodularity it is
    /// an upper bound on the current value whenever it is stale.
    pub key: f64,
    /// Candidate node.
    pub node: NodeId,
    /// Candidate advertiser.
    pub ad: AdId,
    /// Version of `ad`'s seed set when `key` was computed.
    pub version: u32,
}

impl PartialEq for LazyEntry {
    fn eq(&self, other: &Self) -> bool {
        self.key == other.key && self.node == other.node && self.ad == other.ad
    }
}

impl Eq for LazyEntry {}

impl PartialOrd for LazyEntry {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for LazyEntry {
    fn cmp(&self, other: &Self) -> Ordering {
        // Max-heap by key; NaN keys are rejected at construction time, and
        // total_cmp gives every float a total order regardless.
        self.key
            .total_cmp(&other.key)
            .then_with(|| self.node.cmp(&other.node))
            .then_with(|| self.ad.cmp(&other.ad))
    }
}

/// A CELF lazy-greedy priority queue over `(node, advertiser)` candidates.
#[derive(Clone, Debug)]
pub struct LazyQueue {
    heap: BinaryHeap<LazyEntry>,
}

impl LazyQueue {
    /// Empty queue with reserved capacity.
    pub fn with_capacity(cap: usize) -> Self {
        LazyQueue {
            heap: BinaryHeap::with_capacity(cap),
        }
    }

    /// Insert a candidate with the given cached key.
    pub fn push(&mut self, key: f64, node: NodeId, ad: AdId, version: u32) {
        debug_assert!(!key.is_nan(), "heap keys must not be NaN");
        self.heap.push(LazyEntry {
            key,
            node,
            ad,
            version,
        });
    }

    /// Pop the entry with the largest cached key.
    pub fn pop(&mut self) -> Option<LazyEntry> {
        self.heap.pop()
    }
}

impl From<Vec<LazyEntry>> for LazyQueue {
    /// Heapify `entries` in O(n). Entries order totally by
    /// `(key, node, ad)`, so the pop sequence equals that of pushing them
    /// one by one.
    fn from(entries: Vec<LazyEntry>) -> Self {
        debug_assert!(
            entries.iter().all(|e| !e.key.is_nan()),
            "heap keys must not be NaN"
        );
        LazyQueue {
            heap: BinaryHeap::from(entries),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn drain(q: &mut LazyQueue) -> Vec<(f64, NodeId, AdId)> {
        std::iter::from_fn(|| q.pop().map(|e| (e.key, e.node, e.ad))).collect()
    }

    #[test]
    fn pops_in_descending_key_order() {
        let mut q = LazyQueue::with_capacity(3);
        q.push(1.0, 0, 0, 0);
        q.push(5.0, 1, 0, 0);
        q.push(3.0, 2, 1, 0);
        let keys: Vec<f64> = drain(&mut q).into_iter().map(|e| e.0).collect();
        assert_eq!(keys, vec![5.0, 3.0, 1.0]);
        assert!(q.pop().is_none());
    }

    #[test]
    fn ties_are_broken_deterministically() {
        let mut q = LazyQueue::with_capacity(2);
        q.push(2.0, 3, 0, 0);
        q.push(2.0, 7, 0, 0);
        assert_eq!(q.pop().unwrap().node, 7);
        assert_eq!(q.pop().unwrap().node, 3);
    }

    #[test]
    fn heapify_pops_exactly_like_pushing() {
        let entries: Vec<LazyEntry> = (0..40u32)
            .map(|i| LazyEntry {
                key: f64::from((i * 7) % 5),
                node: i % 6,
                ad: (i as usize) % 3,
                version: i,
            })
            .collect();
        let mut pushed = LazyQueue::with_capacity(entries.len());
        for e in &entries {
            pushed.push(e.key, e.node, e.ad, e.version);
        }
        let mut heapified = LazyQueue::from(entries);
        assert_eq!(drain(&mut heapified), drain(&mut pushed));
    }
}
