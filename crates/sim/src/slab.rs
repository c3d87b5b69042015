//! The engine's in-flight walks: a slab whose ids carry a generation.
//!
//! Every hop handler starts by finding its walk from the [`QueryId`] its
//! message carries. A hash map answers that with a probe into a table
//! the size of the walks in flight; the slab answers it with one index:
//! an id is `generation << 32 | slot`, and the slot holds the walk. A
//! freed slot is reused last-freed first under the next generation, so
//! the slab never holds more slots than the peak count of live walks,
//! and no id is handed out twice (until one slot is reused 2³² times).
//!
//! Messages outlive walks — a `NextHopReply` lands after its walk
//! finished, a `Step` retries one that has since completed — so a
//! lookup compares the whole id, not just the slot: a stale id whose
//! slot now holds a younger walk misses, exactly as a removed key
//! misses in a map.

use crate::protocol::QueryId;
use sw_graph::prefetch::prefetch_span;

/// Values under ids the slab mints itself (`generation << 32 | slot`).
#[derive(Debug)]
pub(crate) struct Slab<T> {
    /// Each slot's id beside its value: the live value's id, or while
    /// the slot is vacant (listed in `free`), the last one it held.
    entries: Vec<(QueryId, Option<T>)>,
    /// Vacant slots, reused last-freed first.
    free: Vec<u32>,
}

impl<T> Slab<T> {
    pub(crate) fn new() -> Slab<T> {
        Slab {
            entries: Vec::new(),
            free: Vec::new(),
        }
    }

    /// Number of live values.
    pub(crate) fn len(&self) -> usize {
        self.entries.len() - self.free.len()
    }

    /// Stores `value` under a fresh id: the last-freed slot under its
    /// next generation, else a new slot at generation 0.
    pub(crate) fn insert(&mut self, value: T) -> QueryId {
        match self.free.pop() {
            Some(slot) => {
                let entry = &mut self.entries[slot as usize];
                entry.0 = entry.0.wrapping_add(1 << 32);
                entry.1 = Some(value);
                entry.0
            }
            None => {
                let id = QueryId::from(u32::try_from(self.entries.len()).expect("< 2^32 slots"));
                self.entries.push((id, Some(value)));
                id
            }
        }
    }

    /// The value under `id`, if `id` is live.
    #[inline]
    pub(crate) fn get(&self, id: QueryId) -> Option<&T> {
        match self.entries.get(id as u32 as usize)? {
            (at, Some(value)) if *at == id => Some(value),
            _ => None,
        }
    }

    /// [`Slab::get`], mutably.
    #[inline]
    pub(crate) fn get_mut(&mut self, id: QueryId) -> Option<&mut T> {
        match self.entries.get_mut(id as u32 as usize)? {
            (at, Some(value)) if *at == id => Some(value),
            _ => None,
        }
    }

    /// Takes the value under `id` out, if `id` is live, and frees its
    /// slot.
    pub(crate) fn remove(&mut self, id: QueryId) -> Option<T> {
        let slot = id as u32;
        let (at, value) = self.entries.get_mut(slot as usize)?;
        if *at != id {
            return None;
        }
        let value = value.take()?;
        self.free.push(slot);
        Some(value)
    }

    /// Hints the cache toward `id`'s slot. A hint only — reads nothing,
    /// any id is fine.
    #[inline]
    pub(crate) fn prefetch(&self, id: QueryId) {
        if let Some(entry) = self.entries.get(id as u32 as usize) {
            prefetch_span(std::slice::from_ref(entry));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use sw_graph::{IdMap, IdSet};
    use sw_keyspace::Rng;

    impl<T> Slab<T> {
        /// The live values, in slot order.
        pub(crate) fn values(&self) -> impl Iterator<Item = &T> {
            self.entries.iter().filter_map(|(_, value)| value.as_ref())
        }
    }

    // The slab against the map it replaced, over random inserts, gets,
    // get_muts and removes on live, stale and never-minted ids: every
    // hit and `len()` agree, no id is minted twice, ids of removed
    // values miss after their slot is reused, and the slab never holds
    // more slots than the peak count of live values.
    proptest! {
        #[test]
        fn walk_slab_matches_the_id_map_model(seed in 0u64..64) {
            let mut rng = Rng::new(seed ^ 0x51AB_5EED);
            let mut slab = Slab::new();
            let mut model: IdMap<QueryId, u64> = IdMap::default();
            let mut minted: Vec<QueryId> = Vec::new();
            let mut live: Vec<QueryId> = Vec::new();
            let mut unique = IdSet::default();
            let mut peak = 0usize;
            let mut reused_slots = 0usize;
            // Phases lean toward inserts, then toward removes, so the
            // live count rises and falls and freed slots are reused.
            for step in 0..4_000u64 {
                let insert_share = if (step / 500) % 2 == 0 { 5 } else { 2 };
                let id = match rng.bounded_u64(8) {
                    // A never-minted id: a slot past the end, or a
                    // generation the slab has not reached.
                    0 => rng.next_u64(),
                    1..=3 if !minted.is_empty() => {
                        minted[rng.bounded_u64(minted.len() as u64) as usize]
                    }
                    _ if !live.is_empty() => live[rng.bounded_u64(live.len() as u64) as usize],
                    _ => 0,
                };
                match rng.bounded_u64(10) {
                    r if r < insert_share => {
                        let id = slab.insert(step);
                        prop_assert!(unique.insert(id), "id {:#x} minted twice", id);
                        model.insert(id, step);
                        minted.push(id);
                        live.push(id);
                    }
                    5 | 6 => prop_assert_eq!(slab.get(id), model.get(&id), "get {:#x}", id),
                    7 => {
                        let bump = |v: &mut u64| {
                            *v += 1_000_000;
                            *v
                        };
                        let hit = slab.get_mut(id).map(bump);
                        prop_assert_eq!(hit, model.get_mut(&id).map(bump), "get_mut {:#x}", id);
                    }
                    _ => {
                        let removed = slab.remove(id);
                        prop_assert_eq!(removed, model.remove(&id), "remove {:#x}", id);
                        if removed.is_some() {
                            live.retain(|&l| l != id);
                        }
                    }
                }
                peak = peak.max(model.len());
                prop_assert_eq!(slab.len(), model.len());
                prop_assert!(
                    slab.entries.len() <= peak,
                    "{} slots for a peak of {peak} live values",
                    slab.entries.len()
                );
            }
            // Every id ever minted: live ones hit their value, removed
            // ones miss — their slots mostly hold younger values now.
            for &id in &minted {
                prop_assert_eq!(slab.get(id), model.get(&id), "final {:#x}", id);
                if !model.contains_key(&id) && slab.entries[id as u32 as usize].0 != id {
                    reused_slots += 1;
                }
            }
            prop_assert!(reused_slots > 0, "no removed id's slot was reused");
        }
    }
}
