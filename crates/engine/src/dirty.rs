//! A generation-stamped dense dirty set keyed by cycle arena slots.
//!
//! The streaming engine used to track dirty cycles in a
//! `BTreeSet<CycleId>`: every insert paid a tree walk and an allocation,
//! and the per-refresh `clear()` freed the nodes again — on the hottest
//! path in the codebase. `CycleId`s are already dense arena indices, so a
//! flat stamp array does the same job with O(1) insert/remove/clear and
//! no steady-state allocation:
//!
//! * `stamps[slot] == generation` ⇔ slot is dirty;
//! * clearing the whole set is one generation bump;
//! * iteration scans the stamp array in slot order — exactly the
//!   ascending-`CycleId` order the old `BTreeSet` produced, so swapping
//!   the structure changes no observable engine behavior.
//!
//! The array only grows when the cycle arena itself grows (a new pool
//! opened cycles), never during a steady-state refresh.

use arb_graph::CycleId;

/// The dense dirty-cycle set. See the module docs for the design.
#[derive(Debug, Clone)]
pub(crate) struct DirtyCycleSet {
    /// `stamps[slot] == generation` marks slot dirty; any other value
    /// (including 0, which `generation` never takes) means clean.
    stamps: Vec<u32>,
    generation: u32,
    len: usize,
}

/// `generation` must start at 1 — a derived default's 0 would alias the
/// cleared-stamp sentinel and silently break `insert`.
impl Default for DirtyCycleSet {
    fn default() -> Self {
        Self::new()
    }
}

impl DirtyCycleSet {
    pub(crate) fn new() -> Self {
        DirtyCycleSet {
            stamps: Vec::new(),
            generation: 1,
            len: 0,
        }
    }

    /// Number of dirty slots.
    pub(crate) fn len(&self) -> usize {
        self.len
    }

    /// Arena slots this set has capacity for (the high-water cycle-arena
    /// size it has seen) — reported in `RuntimeStats` so the dense-bitset
    /// swap stays visible in telemetry.
    pub(crate) fn capacity(&self) -> usize {
        self.stamps.len()
    }

    /// Marks `id` dirty; returns `true` when it was clean before (the
    /// same contract as `BTreeSet::insert`). Grows the stamp array only
    /// when the arena has grown past its high-water mark.
    pub(crate) fn insert(&mut self, id: CycleId) -> bool {
        let slot = id.index();
        if slot >= self.stamps.len() {
            self.stamps.resize(slot + 1, 0);
        }
        if self.stamps[slot] == self.generation {
            return false;
        }
        self.stamps[slot] = self.generation;
        self.len += 1;
        true
    }

    /// Unmarks `id`; returns `true` when it was dirty.
    pub(crate) fn remove(&mut self, id: CycleId) -> bool {
        let slot = id.index();
        if slot < self.stamps.len() && self.stamps[slot] == self.generation {
            self.stamps[slot] = 0;
            self.len -= 1;
            return true;
        }
        false
    }

    /// Empties the set in O(1) by bumping the generation. On the (once
    /// per ~4 billion clears) wraparound past `u32::MAX`, the stamp array
    /// is rewound to zero so stale stamps can never alias the new
    /// generation.
    pub(crate) fn clear(&mut self) {
        self.len = 0;
        self.generation = match self.generation.checked_add(1) {
            Some(next) => next,
            None => {
                self.stamps.fill(0);
                1
            }
        };
    }

    /// The dirty slots in arena (ascending `CycleId`) order.
    pub(crate) fn iter(&self) -> impl Iterator<Item = CycleId> + '_ {
        self.stamps.iter().enumerate().filter_map(|(slot, &stamp)| {
            (stamp == self.generation).then_some(CycleId::from_index(slot))
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn c(i: usize) -> CycleId {
        CycleId::from_index(i)
    }

    #[test]
    fn insert_remove_clear_track_membership() {
        let mut set = DirtyCycleSet::new();
        assert_eq!(set.len(), 0);
        assert!(set.insert(c(3)));
        assert!(!set.insert(c(3)), "double insert reports already-dirty");
        assert!(set.insert(c(0)));
        assert_eq!(set.len(), 2);
        assert_eq!(set.iter().collect::<Vec<_>>(), vec![c(0), c(3)]);
        assert!(set.remove(c(3)));
        assert!(!set.remove(c(3)));
        assert!(!set.remove(c(7)), "never-seen slot is clean");
        assert_eq!(set.len(), 1);
        set.clear();
        assert_eq!(set.len(), 0);
        assert_eq!(set.iter().count(), 0);
        // Stamps from the previous generation never alias the new one.
        assert!(set.insert(c(0)));
        assert_eq!(set.iter().collect::<Vec<_>>(), vec![c(0)]);
    }

    #[test]
    fn iteration_is_arena_order_like_the_old_btreeset() {
        let mut set = DirtyCycleSet::new();
        for slot in [9, 2, 7, 0, 4] {
            set.insert(c(slot));
        }
        let order: Vec<usize> = set.iter().map(|id| id.index()).collect();
        assert_eq!(order, vec![0, 2, 4, 7, 9]);
        assert_eq!(set.capacity(), 10, "grows to the high-water slot");
    }

    #[test]
    fn default_is_equivalent_to_new() {
        // A derived Default would start generation at 0, aliasing the
        // cleared-stamp sentinel — insert() would silently no-op.
        let mut set = DirtyCycleSet::default();
        assert!(set.insert(c(0)), "default set must accept inserts");
        assert_eq!(set.len(), 1);
    }

    #[test]
    fn generation_wraparound_rewinds_stamps() {
        let mut set = DirtyCycleSet::new();
        set.insert(c(1));
        set.generation = u32::MAX;
        set.stamps[1] = u32::MAX; // as if inserted in the last generation
        set.clear();
        assert_eq!(set.generation, 1);
        assert!(set.insert(c(1)), "old stamp must not alias");
        assert_eq!(set.len(), 1);
    }
}
