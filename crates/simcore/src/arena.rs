//! Index-addressed node storage: the cache-friendly layouts behind the
//! engine core.
//!
//! Two layers live here:
//!
//! - `NodeStore` / `NodeMeta` (crate-private) — the engine's struct-of-arrays
//!   per-node bookkeeping. Protocol state (`N`), hot per-node metadata
//!   (online flag, timer epoch, per-origin event counter), RNG streams
//!   and churn models each live in their own dense `Vec` keyed by
//!   `NodeId`, so the dispatch loop's online/epoch checks and seq
//!   reservations stride over a few bytes per node instead of pulling
//!   whole actor structs through the cache.
//! - [`SlotArena`] — a generational slot arena for protocol-side state
//!   with churn-like lifecycles (e.g. Kademlia's in-flight lookups).
//!   Freed indices are reused, but each reuse bumps a generation
//!   counter so stale handles (late RPC replies, timers from before a
//!   crash) miss instead of resolving to an unrelated occupant.
//!
//! Both layouts are deterministic by construction: indices are dense
//! and allocation order is a pure function of the call sequence, so
//! nothing here can perturb the engine's byte-identical traces.

use crate::churn::ChurnModel;
use crate::engine::{pack_seq, NodeId};
use crate::rng::SimRng;

/// Hot per-node engine metadata, kept dense and separate from the
/// (typically much larger) protocol state.
#[derive(Clone, Copy, Debug)]
pub(crate) struct NodeMeta {
    /// Whether the node is currently online.
    pub(crate) online: bool,
    /// Timers from before the last offline period are invalidated by
    /// bumping this epoch on every stop.
    pub(crate) timer_epoch: u32,
    /// Per-origin event counter: low 32 bits of every seq this node
    /// originates. Sends reserve two slots (delivery + potential
    /// duplicate) so serial and sharded execution assign identical seqs.
    pub(crate) ctr: u32,
}

impl NodeMeta {
    pub(crate) fn new() -> Self {
        NodeMeta {
            online: false,
            timer_epoch: 0,
            ctr: 0,
        }
    }

    /// Reserves the next seq for a single event originated by this node.
    pub(crate) fn next_seq(&mut self, id: NodeId) -> u64 {
        let c = self.ctr;
        self.ctr += 1;
        pack_seq(id as u32, c)
    }

    /// Reserves the (delivery, duplicate) seq pair for one send.
    pub(crate) fn reserve_send_seqs(&mut self, id: NodeId) -> (u64, u64) {
        let c = self.ctr;
        self.ctr += 2;
        (pack_seq(id as u32, c), pack_seq(id as u32, c + 1))
    }
}

/// Struct-of-arrays storage for everything the engine keeps per node.
///
/// All vectors are indexed by dense [`NodeId`] and always have equal
/// length. Handler RNG streams are separate from protocol state so a
/// [`Context`](crate::engine::Context) can borrow a node and its RNG
/// simultaneously without touching the other arrays.
pub(crate) struct NodeStore<N> {
    pub(crate) nodes: Vec<N>,
    pub(crate) meta: Vec<NodeMeta>,
    /// Per-node handler/lifecycle RNG streams.
    pub(crate) rngs: Vec<SimRng>,
    pub(crate) churn: Vec<Option<ChurnModel>>,
}

impl<N> NodeStore<N> {
    pub(crate) fn new() -> Self {
        NodeStore {
            nodes: Vec::new(),
            meta: Vec::new(),
            rngs: Vec::new(),
            churn: Vec::new(),
        }
    }

    pub(crate) fn len(&self) -> usize {
        self.nodes.len()
    }

    pub(crate) fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    pub(crate) fn push(&mut self, node: N, rng: SimRng) -> NodeId {
        let id = self.nodes.len();
        self.nodes.push(node);
        self.meta.push(NodeMeta::new());
        self.rngs.push(rng);
        self.churn.push(None);
        id
    }

    /// One node's row, for the serial path.
    pub(crate) fn slot(&mut self, id: NodeId) -> SlotView<'_, N> {
        SlotView {
            node: &mut self.nodes[id],
            meta: &mut self.meta[id],
            rng: &mut self.rngs[id],
            churn: &mut self.churn[id],
        }
    }

    /// Splits the store into per-shard views (`id % shards`), preserving
    /// ascending id order within each shard. Workers index a shard's
    /// vector with `id / shards`.
    pub(crate) fn partition(&mut self, shards: usize) -> Vec<Vec<SlotView<'_, N>>> {
        let mut parts: Vec<Vec<SlotView<'_, N>>> = (0..shards)
            .map(|_| Vec::with_capacity(self.nodes.len() / shards + 1))
            .collect();
        let metas = self.meta.iter_mut();
        let rngs = self.rngs.iter_mut();
        let churns = self.churn.iter_mut();
        for (id, (((node, meta), rng), churn)) in self
            .nodes
            .iter_mut()
            .zip(metas)
            .zip(rngs)
            .zip(churns)
            .enumerate()
        {
            parts[id % shards].push(SlotView {
                node,
                meta,
                rng,
                churn,
            });
        }
        parts
    }
}

/// A view of one node's row across the [`NodeStore`] arrays: what the
/// dispatch kernel needs to run an event on the node, whether the row
/// was borrowed by the serial loop or handed to a shard worker.
pub(crate) struct SlotView<'a, N> {
    pub(crate) node: &'a mut N,
    pub(crate) meta: &'a mut NodeMeta,
    pub(crate) rng: &'a mut SimRng,
    pub(crate) churn: &'a mut Option<ChurnModel>,
}

/// A generational handle into a [`SlotArena`].
///
/// Handles from before a slot was freed carry the old generation and
/// miss on lookup, exactly like a stale key misses a map — but without
/// the map's per-entry allocation churn.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub struct SlotIdx {
    idx: u32,
    gen: u32,
}

impl SlotIdx {
    /// The raw slot index (stable for the lifetime of the occupant).
    pub fn index(self) -> usize {
        self.idx as usize
    }
}

struct SlotEntry<T> {
    gen: u32,
    val: Option<T>,
}

/// A generational slot arena: `O(1)` insert/remove with index reuse.
///
/// Designed for protocol state with churn-like lifecycles (in-flight
/// RPCs, lookups) that previously lived in ordered maps: entries are
/// addressed by [`SlotIdx`] handles, freed slots go on a freelist and
/// are reused LIFO, and every reuse bumps the slot's generation so
/// stale handles return `None` instead of aliasing the new occupant.
///
/// Determinism: insertion order and freelist behaviour are pure
/// functions of the call sequence; iteration ([`SlotArena::iter`]) is
/// in ascending slot-index order.
pub struct SlotArena<T> {
    slots: Vec<SlotEntry<T>>,
    free: Vec<u32>,
    len: usize,
}

impl<T> SlotArena<T> {
    /// Creates an empty arena.
    pub fn new() -> Self {
        SlotArena {
            slots: Vec::new(),
            free: Vec::new(),
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

    /// Inserts `val`, reusing the most recently freed slot if any.
    pub fn insert(&mut self, val: T) -> SlotIdx {
        self.len += 1;
        if let Some(idx) = self.free.pop() {
            let entry = &mut self.slots[idx as usize];
            debug_assert!(entry.val.is_none(), "freelist slot occupied");
            entry.val = Some(val);
            SlotIdx {
                idx,
                gen: entry.gen,
            }
        } else {
            let idx = u32::try_from(self.slots.len()).expect("more than 2^32 arena entries");
            self.slots.push(SlotEntry {
                gen: 0,
                val: Some(val),
            });
            SlotIdx { idx, gen: 0 }
        }
    }

    /// The live entry for `handle`, or `None` if it was removed (or the
    /// slot has since been reused).
    pub fn get(&self, handle: SlotIdx) -> Option<&T> {
        let entry = self.slots.get(handle.idx as usize)?;
        if entry.gen != handle.gen {
            return None;
        }
        entry.val.as_ref()
    }

    /// Mutable access to the live entry for `handle`.
    pub fn get_mut(&mut self, handle: SlotIdx) -> Option<&mut T> {
        let entry = self.slots.get_mut(handle.idx as usize)?;
        if entry.gen != handle.gen {
            return None;
        }
        entry.val.as_mut()
    }

    /// Removes and returns the entry for `handle`, freeing its slot for
    /// reuse under a new generation.
    pub fn remove(&mut self, handle: SlotIdx) -> Option<T> {
        let entry = self.slots.get_mut(handle.idx as usize)?;
        if entry.gen != handle.gen {
            return None;
        }
        let val = entry.val.take()?;
        entry.gen = entry.gen.wrapping_add(1);
        self.free.push(handle.idx);
        self.len -= 1;
        Some(val)
    }

    /// Removes every live entry (e.g. on node crash), freeing all slots.
    ///
    /// Slots are pushed onto the freelist in descending index order, so
    /// subsequent inserts reuse the lowest indices first — a fixed,
    /// deterministic recycling order.
    pub fn clear(&mut self) {
        for (i, entry) in self.slots.iter_mut().enumerate().rev() {
            if entry.val.take().is_some() {
                entry.gen = entry.gen.wrapping_add(1);
                self.free.push(i as u32);
            }
        }
        self.len = 0;
    }

    /// Iterates live entries in ascending slot-index order.
    pub fn iter(&self) -> impl Iterator<Item = (SlotIdx, &T)> {
        self.slots.iter().enumerate().filter_map(|(i, e)| {
            e.val.as_ref().map(|v| {
                (
                    SlotIdx {
                        idx: i as u32,
                        gen: e.gen,
                    },
                    v,
                )
            })
        })
    }
}

impl<T> Default for SlotArena<T> {
    fn default() -> Self {
        SlotArena::new()
    }
}

impl<T: std::fmt::Debug> std::fmt::Debug for SlotArena<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SlotArena")
            .field("len", &self.len)
            .field("capacity", &self.slots.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_get_remove_roundtrip() {
        let mut a: SlotArena<&str> = SlotArena::new();
        let h1 = a.insert("one");
        let h2 = a.insert("two");
        assert_eq!(a.len(), 2);
        assert_eq!(a.get(h1), Some(&"one"));
        assert_eq!(a.get(h2), Some(&"two"));
        assert_eq!(a.remove(h1), Some("one"));
        assert_eq!(a.get(h1), None);
        assert_eq!(a.len(), 1);
    }

    #[test]
    fn freed_indices_are_reused_lifo() {
        let mut a: SlotArena<u32> = SlotArena::new();
        let h1 = a.insert(1);
        let h2 = a.insert(2);
        a.remove(h1);
        a.remove(h2);
        // LIFO: h2's slot comes back first, then h1's.
        let h3 = a.insert(3);
        let h4 = a.insert(4);
        assert_eq!(h3.index(), h2.index());
        assert_eq!(h4.index(), h1.index());
        // No slab growth: two live entries fit in the two original slots.
        assert_eq!(a.slots.len(), 2);
    }

    #[test]
    fn stale_handles_miss_after_reuse() {
        let mut a: SlotArena<u32> = SlotArena::new();
        let old = a.insert(7);
        a.remove(old);
        let new = a.insert(8);
        assert_eq!(new.index(), old.index(), "slot must be reused");
        // The stale handle must not resolve to the new occupant: this is
        // the late-RPC-reply-after-crash case.
        assert_eq!(a.get(old), None);
        assert_eq!(a.get_mut(old), None);
        assert_eq!(a.remove(old), None);
        assert_eq!(a.get(new), Some(&8));
    }

    #[test]
    fn clear_frees_all_slots_for_ascending_reuse() {
        let mut a: SlotArena<u32> = SlotArena::new();
        let handles: Vec<_> = (0..4).map(|i| a.insert(i)).collect();
        a.clear();
        assert!(a.is_empty());
        for h in &handles {
            assert_eq!(a.get(*h), None, "cleared entry still resolves");
        }
        // Crash/restart: new lookups reuse the lowest indices first.
        let h = a.insert(99);
        assert_eq!(h.index(), 0);
        assert_eq!(a.slots.len(), 4, "clear must not shrink the slab");
    }

    #[test]
    fn iter_is_in_ascending_index_order() {
        let mut a: SlotArena<u32> = SlotArena::new();
        let h0 = a.insert(10);
        let _h1 = a.insert(11);
        let _h2 = a.insert(12);
        a.remove(h0);
        let seen: Vec<u32> = a.iter().map(|(_, &v)| v).collect();
        assert_eq!(seen, vec![11, 12]);
        let idxs: Vec<usize> = a.iter().map(|(h, _)| h.index()).collect();
        assert_eq!(idxs, vec![1, 2]);
    }
}
