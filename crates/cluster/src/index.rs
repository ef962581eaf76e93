//! The event engine's per-arch-class placement index.
//!
//! Within one architecture class every device predicts the same time
//! for a batch, so the class's best device is simply its smallest
//! `(backlog, device id)`. Each class keeps those pairs in an indexed
//! binary min-heap; a per-device position map lets a backlog change
//! re-key the device's single entry in place (sift up or down) instead
//! of pushing a fresh entry and leaving the old one to go stale. The
//! index therefore holds at most one entry per device, whatever the
//! run length.

/// Position-map marker for a device with no entry.
const ABSENT: u32 = u32::MAX;

#[derive(Debug)]
pub(crate) struct PlacementIndex {
    /// Per class: `(backlog key, device)` entries in heap order.
    heaps: Vec<Vec<(u64, u32)>>,
    /// Per device: index of its entry in its class heap, or [`ABSENT`].
    pos: Vec<u32>,
}

impl PlacementIndex {
    /// An empty index over `classes` classes and `devices` devices.
    pub(crate) fn new(classes: usize, devices: usize) -> Self {
        assert!(devices < ABSENT as usize, "device ids must fit the position map");
        PlacementIndex { heaps: vec![Vec::new(); classes], pos: vec![ABSENT; devices] }
    }

    /// Give `device` (a member of `class`) the key `key`: inserts its
    /// entry, or re-keys the existing one.
    pub(crate) fn set(&mut self, class: usize, device: usize, key: u64) {
        let at = self.pos[device];
        if at == ABSENT {
            let heap = &mut self.heaps[class];
            heap.push((key, device as u32));
            let i = heap.len() - 1;
            self.pos[device] = i as u32;
            self.sift_up(class, i);
            return;
        }
        let i = at as usize;
        let old = std::mem::replace(&mut self.heaps[class][i].0, key);
        if key < old {
            self.sift_up(class, i);
        } else {
            self.sift_down(class, i);
        }
    }

    /// Drop `device`'s entry from `class`, if it has one.
    pub(crate) fn remove(&mut self, class: usize, device: usize) {
        let at = self.pos[device];
        if at == ABSENT {
            return;
        }
        self.pos[device] = ABSENT;
        let i = at as usize;
        let heap = &mut self.heaps[class];
        heap.swap_remove(i);
        if i < heap.len() {
            self.pos[heap[i].1 as usize] = i as u32;
            self.sift_down(class, i);
            self.sift_up(class, i);
        }
    }

    /// The class's smallest `(key, device)`.
    pub(crate) fn peek(&self, class: usize) -> Option<(u64, usize)> {
        self.heaps[class].first().map(|&(key, device)| (key, device as usize))
    }

    /// Every `(key, device)` entry of `class`, in no particular order.
    #[cfg(test)]
    pub(crate) fn entries(&self, class: usize) -> impl Iterator<Item = (u64, usize)> + '_ {
        self.heaps[class].iter().map(|&(key, device)| (key, device as usize))
    }

    fn sift_up(&mut self, class: usize, mut i: usize) {
        let heap = &mut self.heaps[class];
        while i > 0 {
            let parent = (i - 1) / 2;
            if heap[i] >= heap[parent] {
                break;
            }
            heap.swap(i, parent);
            self.pos[heap[i].1 as usize] = i as u32;
            i = parent;
        }
        self.pos[heap[i].1 as usize] = i as u32;
    }

    fn sift_down(&mut self, class: usize, mut i: usize) {
        let heap = &mut self.heaps[class];
        loop {
            let left = 2 * i + 1;
            if left >= heap.len() {
                break;
            }
            let right = left + 1;
            let child = if right < heap.len() && heap[right] < heap[left] { right } else { left };
            if heap[i] <= heap[child] {
                break;
            }
            heap.swap(i, child);
            self.pos[heap[i].1 as usize] = i as u32;
            i = child;
        }
        self.pos[heap[i].1 as usize] = i as u32;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::BTreeMap;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Random set/remove scripts over two classes: every class's
        /// head is the brute-force minimum of its model, each device
        /// holds at most one entry, and the position map points at it.
        #[test]
        fn index_head_is_the_brute_force_minimum(
            ops in collection::vec((0usize..24, 0u64..8, 0u32..4), 1..=200),
        ) {
            let class_of = |d: usize| d % 2;
            let mut index = PlacementIndex::new(2, 24);
            let mut model: BTreeMap<usize, u64> = BTreeMap::new();
            for (device, key, op) in ops {
                if op == 0 {
                    index.remove(class_of(device), device);
                    model.remove(&device);
                } else {
                    index.set(class_of(device), device, key);
                    model.insert(device, key);
                }
                for class in 0..2 {
                    let want = model
                        .iter()
                        .filter(|(d, _)| class_of(**d) == class)
                        .map(|(d, k)| (*k, *d))
                        .min();
                    prop_assert_eq!(index.peek(class), want);
                    let mut got: Vec<(u64, usize)> = index.entries(class).collect();
                    got.sort_unstable();
                    let mut all: Vec<(u64, usize)> = model
                        .iter()
                        .filter(|(d, _)| class_of(**d) == class)
                        .map(|(d, k)| (*k, *d))
                        .collect();
                    all.sort_unstable();
                    prop_assert_eq!(got, all);
                }
                for (d, at) in index.pos.iter().enumerate() {
                    if *at != ABSENT {
                        prop_assert_eq!(index.heaps[class_of(d)][*at as usize].1 as usize, d);
                    }
                }
            }
        }
    }
}
