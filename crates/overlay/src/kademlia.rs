//! Kademlia DHT (Maymounkov & Mazières, IPTPS 2002).
//!
//! An event-driven implementation of the protocol actually deployed in
//! eMule KAD and the BitTorrent Mainline DHT: k-buckets with LRU
//! maintenance, α-parallel iterative lookups with per-RPC timeouts, and
//! optional value STORE/FIND_VALUE.
//!
//! Two deployment pathologies the paper leans on (Section II-A, citing
//! Jiménez et al. \[20\]) are modelled explicitly:
//!
//! - **unresponsive nodes** (behind NATs/firewalls): they originate
//!   lookups but never answer inbound RPCs, so they pollute routing
//!   tables and cause timeouts;
//! - **bucket staleness**: routing tables may be pre-filled with entries
//!   pointing at departed nodes.
//!
//! [`KadNode`] is an ordinary engine [`Node`]: its handlers see only a
//! [`Context`], so the one implementation runs under `Simulation` and,
//! through [`crate::kadnet`]'s wire codec, on real TCP sockets
//! (DESIGN.md §4h).

use std::collections::BTreeSet;
use std::ops::Range;

use decent_sim::prelude::*;

use crate::id::{Distance, Key, KEY_BITS};

/// A `(simulation node, overlay key)` pair — one routing-table entry.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct Contact {
    /// Simulation-level node id (the "network address").
    pub node: NodeId,
    /// Overlay identifier.
    pub key: Key,
}

/// Kademlia wire messages.
#[derive(Clone, Debug)]
pub enum KadMsg {
    /// Request for the k closest contacts to `target`.
    FindNode {
        /// RPC correlation id.
        rpc: u64,
        /// Sender's overlay key (for routing-table updates).
        from_key: Key,
        /// Lookup target.
        target: Key,
    },
    /// Response carrying the k closest contacts known to the responder.
    FindNodeReply {
        /// RPC correlation id.
        rpc: u64,
        /// Responder's overlay key.
        from_key: Key,
        /// Closest contacts known to the responder. Interned: engine
        /// clones (duplicate fan-out, sharded commit) bump a refcount
        /// instead of deep-copying the contact list.
        closest: Interned<[Contact]>,
    },
    /// Request for a stored value (falls back to closest contacts).
    FindValue {
        /// RPC correlation id.
        rpc: u64,
        /// Sender's overlay key.
        from_key: Key,
        /// Content key.
        key: Key,
    },
    /// Response to [`KadMsg::FindValue`].
    FindValueReply {
        /// RPC correlation id.
        rpc: u64,
        /// Responder's overlay key.
        from_key: Key,
        /// Whether the responder held the value.
        found: bool,
        /// Closest contacts (when not found).
        closest: Interned<[Contact]>,
    },
    /// Store a (key-only) value at the receiver.
    Store {
        /// Sender's overlay key.
        from_key: Key,
        /// Content key to store.
        key: Key,
    },
}

/// Protocol parameters.
#[derive(Clone, Debug)]
pub struct KadConfig {
    /// Bucket size and lookup result-set size (the paper-standard 20 for
    /// Mainline, 10 for eMule KAD).
    pub k: usize,
    /// Lookup parallelism.
    pub alpha: usize,
    /// Per-RPC timeout before the peer is declared unresponsive.
    pub rpc_timeout: SimDuration,
    /// Bucket entries older than this may be evicted for newcomers.
    pub staleness: SimDuration,
    /// Interval for random bucket refresh; `None` disables refresh.
    pub refresh_interval: Option<SimDuration>,
    /// Cache found values along the lookup path (the Kademlia §2.3 /
    /// Beehive-style optimization the paper cites as \[23\]: popular keys
    /// converge to O(1) lookups).
    pub cache_values: bool,
}

impl Default for KadConfig {
    fn default() -> Self {
        KadConfig {
            k: 20,
            alpha: 3,
            rpc_timeout: SimDuration::from_secs(2.0),
            staleness: SimDuration::from_mins(15.0),
            refresh_interval: None,
            cache_values: false,
        }
    }
}

/// Outcome of one iterative lookup, recorded on the initiating node.
#[derive(Clone, Debug, PartialEq)]
pub struct LookupResult {
    /// Lookup id returned by [`KadNode::start_lookup`].
    pub id: u64,
    /// Target key.
    pub target: Key,
    /// Wall-clock (simulated) duration of the lookup.
    pub latency: SimDuration,
    /// RPCs issued.
    pub rpcs: usize,
    /// RPCs that timed out.
    pub timeouts: usize,
    /// Whether a value lookup found the value.
    pub found_value: bool,
    /// The closest live contacts discovered (sorted by distance).
    pub closest: Vec<Contact>,
}

#[derive(Copy, Clone, Debug, PartialEq, Eq)]
enum EntryState {
    Candidate,
    Waiting,
    Responded,
    Failed,
}

/// One shortlist entry. The contact's key is not stored: it is
/// `dist ^ target` ([`key_at`]), and only a finished lookup's `closest`
/// needs it.
#[derive(Clone, Debug)]
struct ShortEntry {
    dist: Distance,
    node: u32,
    state: EntryState,
}

#[derive(Debug)]
struct Lookup {
    /// Public id handed back by [`KadNode::start_lookup`] (the arena
    /// slot index is an internal, reusable handle).
    id: u64,
    target: Key,
    is_value: bool,
    started: SimTime,
    shortlist: Vec<ShortEntry>,
    inflight: usize,
    rpcs: usize,
    timeouts: usize,
}

impl Lookup {
    /// Records how the RPC to `peer` ended.
    fn mark(&mut self, peer: NodeId, state: EntryState) {
        let mut entries = self.shortlist.iter_mut();
        if let Some(e) = entries.find(|e| e.node as NodeId == peer) {
            e.state = state;
        }
    }
}

/// One in-flight RPC: correlation id, owning lookup slot, queried peer.
#[derive(Copy, Clone, Debug)]
struct RpcEntry {
    rpc: u64,
    lookup: SlotIdx,
    peer: NodeId,
}

/// One routing-table entry, 32 bytes. The simulator's dense ids and
/// `TcpRuntime`'s directory ids fit a `u32`; a contact whose id does not
/// is never stored ([`KadNode::bucket_of`]).
#[derive(Copy, Clone, Debug)]
struct BucketEntry {
    /// `bucket << 56 | last_seen_ns`. The bucket tag — the length of the
    /// key prefix this entry shares with the table's owner — is stored,
    /// not recomputed from the keys: `bucket_of`'s `partition_point`
    /// reads it from every entry it probes. Entries of one bucket share
    /// the top byte, so they order by this word as they do by
    /// `last_seen`.
    seen: u64,
    node: u32,
    key: Key,
}

const SEEN_BITS: u32 = 56;

const _: () = {
    assert!(KEY_BITS <= u8::MAX as usize + 1, "the bucket tag is a u8");
    assert!(std::mem::size_of::<BucketEntry>() <= 32);
    assert!(std::mem::size_of::<ShortEntry>() <= 28);
};

/// Bucket tag and `now` in one word.
///
/// # Panics
///
/// Panics if `now` does not fit 56 bits of nanoseconds.
fn pack_seen(tag: u8, now: SimTime) -> u64 {
    assert!(
        now.as_nanos() >> SEEN_BITS == 0,
        "a routing entry's last_seen holds 2^56 ns (2.28 simulated years), now is {now:?}"
    );
    u64::from(tag) << SEEN_BITS | now.as_nanos()
}

impl BucketEntry {
    fn bucket(&self) -> u8 {
        (self.seen >> SEEN_BITS) as u8
    }

    fn last_seen(&self) -> SimTime {
        SimTime::from_nanos(self.seen & ((1 << SEEN_BITS) - 1))
    }

    fn see(&mut self, now: SimTime) {
        self.seen = pack_seen(self.bucket(), now);
    }

    fn contact(&self) -> Contact {
        Contact {
            node: self.node as NodeId,
            key: self.key,
        }
    }
}

/// Entries a full table grows by. `Vec`'s own doubling would hold 56
/// entries' memory for a seeded node's 29th contact (DESIGN.md §4g has
/// the 4 / 8 / 16 measurement).
const STEP: usize = 8;

/// The key at distance `dist` from `target`.
fn key_at(dist: Distance, target: &Key) -> Key {
    *dist.as_key().xor_distance(target).as_key()
}

const REFRESH_TAG: u64 = 0;

/// A Kademlia node. Implements [`Node`] for the simulation engine.
#[derive(Debug)]
pub struct KadNode {
    key: Key,
    cfg: KadConfig,
    responsive: bool,
    sybil_directory: Option<Vec<Contact>>,
    // The routing table, all k-buckets in one vector: entries grouped
    // by ascending bucket tag (`bucket_of` finds a bucket's range), and
    // inside a bucket in LRU-list order: a new or re-seen entry goes to
    // the tail, an evicting entry takes the evicted one's place.
    table: Vec<BucketEntry>,
    // Ordered collections throughout: today every access is a point
    // lookup, but the determinism contract (DESIGN.md §4e) wants the
    // hasher structurally unable to leak into event order if a future
    // change starts iterating lookups or in-flight RPCs.
    store: BTreeSet<Key>,
    // Lookups live in a generational arena: slots (and their shortlist
    // allocations' peak footprint) are reused across the handful of
    // concurrent lookups a node ever runs, and stale RPC handles miss on
    // the generation check instead of aliasing a newer lookup. In-flight
    // RPCs are a small linear-scan vector (point lookups only, so scan
    // order never leaks into event order).
    lookups: SlotArena<Lookup>,
    rpc_to_lookup: Vec<RpcEntry>,
    next_id: u64,
    /// Completed lookups, harvested by the experiment harness.
    pub results: Vec<LookupResult>,
}

impl KadNode {
    /// Creates a node with the given overlay key and configuration.
    pub fn new(key: Key, cfg: KadConfig) -> Self {
        KadNode {
            key,
            cfg,
            responsive: true,
            sybil_directory: None,
            table: Vec::new(),
            store: BTreeSet::new(),
            lookups: SlotArena::new(),
            rpc_to_lookup: Vec::new(),
            next_id: 1,
            results: Vec::new(),
        }
    }

    /// Marks this node as never answering inbound RPCs (NAT model).
    pub fn unresponsive(mut self) -> Self {
        self.responsive = false;
        self
    }

    /// Turns this node into a sybil: it answers every FIND request with
    /// the closest contacts from the attacker's directory of fellow
    /// sybils, steering lookups into the adversary's identities.
    pub fn make_sybil(&mut self, directory: Vec<Contact>) {
        self.sybil_directory = Some(directory);
    }

    /// Whether this node is part of a sybil attack.
    pub fn is_sybil(&self) -> bool {
        self.sybil_directory.is_some()
    }

    /// Interns the k directory entries closest to `target` (sybil
    /// reply set).
    fn sybil_reply(&self, target: &Key) -> Interned<[Contact]> {
        let directory = self.sybil_directory.iter().flatten().copied();
        Interned::from_vec(closest_k(directory, target, self.cfg.k))
    }

    /// This node's overlay key.
    pub fn key(&self) -> Key {
        self.key
    }

    /// Whether the node answers inbound RPCs.
    pub fn is_responsive(&self) -> bool {
        self.responsive
    }

    /// Inserts contacts directly into the routing table (bootstrap).
    pub fn seed_routing_table(&mut self, contacts: &[Contact], now: SimTime) {
        self.table.reserve_exact(contacts.len());
        for &c in contacts {
            self.touch(c, now);
        }
    }

    /// Inserts contacts, evicting the least-recently-seen entry when a
    /// bucket is full. Models an active adversary that keeps pinging so
    /// its identities stay fresh while honest entries age out (the
    /// injection phase of the KAD attacks in Steiner et al. / Wang et
    /// al.).
    pub fn force_insert(&mut self, contacts: &[Contact], now: SimTime) {
        for &contact in contacts {
            let Some((entry, range)) = self.bucket_of(contact, now) else {
                continue;
            };
            let bucket = &mut self.table[range.clone()];
            if let Some(e) = bucket.iter_mut().find(|e| e.node == entry.node) {
                e.see(now);
            } else if bucket.len() < self.cfg.k {
                self.insert_entry(range.end, entry);
            } else if let Some(oldest) = bucket.iter_mut().min_by_key(|e| e.seen) {
                *oldest = entry;
            }
        }
    }

    /// Number of routing-table entries.
    pub fn table_size(&self) -> usize {
        self.table.len()
    }

    /// Whether `key` is stored locally.
    pub fn has_value(&self, key: &Key) -> bool {
        self.store.contains(key)
    }

    /// Stores `key` locally (as the final step of a publish).
    pub fn store_value(&mut self, key: Key) {
        self.store.insert(key);
    }

    /// Starts an iterative FIND_NODE (or FIND_VALUE) lookup and returns
    /// its id; the result appears in [`KadNode::results`] on completion.
    pub fn start_lookup(
        &mut self,
        target: Key,
        is_value: bool,
        ctx: &mut Context<'_, KadMsg>,
    ) -> u64 {
        let id = self.next_id;
        self.next_id += 1;
        // The closest contacts come nearest first, so the shortlist is
        // born in lookup order.
        let closest = self.closest_contacts(&target, self.cfg.k);
        let entries = closest.iter().filter_map(|contact| {
            Some(ShortEntry {
                dist: contact.key.xor_distance(&target),
                node: u32::try_from(contact.node).ok()?,
                state: EntryState::Candidate,
            })
        });
        let shortlist: Vec<ShortEntry> = entries.collect();
        let lookup = Lookup {
            id,
            target,
            is_value,
            started: ctx.now(),
            shortlist,
            inflight: 0,
            rpcs: 0,
            timeouts: 0,
        };
        // A value we already hold (possibly from path caching) resolves
        // without any network traffic at all.
        if is_value && self.store.contains(&target) {
            let idx = self.lookups.insert(lookup);
            self.finish_lookup(idx, true, ctx);
            return id;
        }
        let idx = self.lookups.insert(lookup);
        self.drive_lookup(idx, ctx);
        id
    }

    /// The `n` closest contacts to `target` from the routing table.
    pub fn closest_contacts(&self, target: &Key, n: usize) -> Vec<Contact> {
        closest_k(self.table.iter().map(BucketEntry::contact), target, n)
    }

    /// Interns the k closest contacts as a reply payload.
    fn closest_reply(&self, target: &Key) -> Interned<[Contact]> {
        Interned::from_vec(self.closest_contacts(target, self.cfg.k))
    }

    /// The entry `c` would get if seen at `now`, and the range of the
    /// table its bucket occupies today; `None` for this node's own key,
    /// which has no bucket, and for an id beyond `u32`, which no
    /// directory holds and a socket peer can still put in a reply.
    fn bucket_of(&self, c: Contact, now: SimTime) -> Option<(BucketEntry, Range<usize>)> {
        let node = u32::try_from(c.node).ok()?;
        // Bucket index counts from the most significant differing bit;
        // the tag is the shared-prefix length.
        let bucket = (KEY_BITS - 1 - self.key.xor_distance(&c.key).bucket()?) as u8;
        let start = self.table.partition_point(|e| e.bucket() < bucket);
        let len = self.table[start..].partition_point(|e| e.bucket() == bucket);
        let entry = BucketEntry {
            seen: pack_seen(bucket, now),
            node,
            key: c.key,
        };
        Some((entry, start..start + len))
    }

    fn insert_entry(&mut self, at: usize, entry: BucketEntry) {
        if self.table.len() == self.table.capacity() {
            self.table.reserve_exact(STEP);
        }
        self.table.insert(at, entry);
    }

    fn touch(&mut self, c: Contact, now: SimTime) {
        let Some((entry, range)) = self.bucket_of(c, now) else {
            return;
        };
        let bucket = &mut self.table[range.clone()];
        if let Some(pos) = bucket.iter().position(|e| e.node == entry.node) {
            // Seen again: most recently seen sits at the bucket's tail.
            bucket[pos].see(now);
            bucket[pos..].rotate_left(1);
        } else if bucket.len() < self.cfg.k {
            self.insert_entry(range.end, entry);
        } else if let Some(oldest) = bucket.iter_mut().min_by_key(|e| e.seen) {
            // Full: evict the least-recently-seen entry if it is stale.
            if now.saturating_since(oldest.last_seen()) > self.cfg.staleness {
                *oldest = entry;
            }
        }
    }

    fn note_failed(&mut self, node: NodeId) {
        self.table.retain(|e| e.node as NodeId != node);
    }

    fn drive_lookup(&mut self, idx: SlotIdx, ctx: &mut Context<'_, KadMsg>) {
        let from_key = self.key;
        let Self {
            cfg,
            lookups,
            rpc_to_lookup,
            next_id,
            ..
        } = self;
        let Some(lookup) = lookups.get_mut(idx) else {
            return;
        };
        // Fire queries at candidates among the k closest non-failed
        // entries until alpha are in flight.
        while lookup.inflight < cfg.alpha {
            let next = lookup
                .shortlist
                .iter_mut()
                .filter(|e| e.state != EntryState::Failed)
                .take(cfg.k)
                .find(|e| e.state == EntryState::Candidate);
            let Some(entry) = next else { break };
            entry.state = EntryState::Waiting;
            lookup.inflight += 1;
            lookup.rpcs += 1;
            let peer = entry.node as NodeId;
            let rpc = *next_id;
            *next_id += 1;
            rpc_to_lookup.push(RpcEntry {
                rpc,
                lookup: idx,
                peer,
            });
            let msg = if lookup.is_value {
                KadMsg::FindValue {
                    rpc,
                    from_key,
                    key: lookup.target,
                }
            } else {
                KadMsg::FindNode {
                    rpc,
                    from_key,
                    target: lookup.target,
                }
            };
            ctx.send(peer, msg);
            ctx.set_timer(cfg.rpc_timeout, rpc);
        }
        if lookup.inflight == 0 {
            self.finish_lookup(idx, false, ctx);
        }
    }

    fn finish_lookup(&mut self, idx: SlotIdx, found_value: bool, ctx: &mut Context<'_, KadMsg>) {
        let Some(lookup) = self.lookups.remove(idx) else {
            return;
        };
        let closest: Vec<Contact> = lookup
            .shortlist
            .iter()
            .filter(|e| e.state == EntryState::Responded)
            .take(self.cfg.k)
            .map(|e| Contact {
                node: e.node as NodeId,
                key: key_at(e.dist, &lookup.target),
            })
            .collect();
        // Path caching: replicate a found value to the closest queried
        // node that did not have it (and locally), so popular keys stop
        // needing full lookups.
        if found_value && self.cfg.cache_values {
            self.store.insert(lookup.target);
            if let Some(c) = closest.first() {
                ctx.send(
                    c.node,
                    KadMsg::Store {
                        from_key: self.key,
                        key: lookup.target,
                    },
                );
            }
        }
        self.results.push(LookupResult {
            id: lookup.id,
            target: lookup.target,
            latency: ctx.now().saturating_since(lookup.started),
            rpcs: lookup.rpcs,
            timeouts: lookup.timeouts,
            found_value,
            closest,
        });
    }

    fn merge_contacts(&mut self, idx: SlotIdx, contacts: &[Contact], target: &Key) {
        let my_key = self.key;
        let Some(lookup) = self.lookups.get_mut(idx) else {
            return;
        };
        let shortlist = &mut lookup.shortlist;
        for &c in contacts {
            if c.key == my_key {
                continue;
            }
            let Ok(node) = u32::try_from(c.node) else {
                continue;
            };
            if shortlist.iter().any(|e| e.node == node) {
                continue;
            }
            // The shortlist is strictly increasing in `(dist, node)`,
            // injective because it is deduplicated by node above: every
            // new contact has exactly one place in it.
            let dist = c.key.xor_distance(target);
            let at = shortlist.partition_point(|e| (e.dist, e.node) < (dist, node));
            shortlist.insert(
                at,
                ShortEntry {
                    dist,
                    node,
                    state: EntryState::Candidate,
                },
            );
        }
    }

    fn on_reply(
        &mut self,
        rpc: u64,
        from: NodeId,
        from_key: Key,
        contacts: &[Contact],
        found: bool,
        ctx: &mut Context<'_, KadMsg>,
    ) {
        self.touch(
            Contact {
                node: from,
                key: from_key,
            },
            ctx.now(),
        );
        let Some(pos) = self.rpc_to_lookup.iter().position(|e| e.rpc == rpc) else {
            return; // late reply after timeout: routing table updated above
        };
        let idx = self.rpc_to_lookup.swap_remove(pos).lookup;
        let target = match self.lookups.get_mut(idx) {
            Some(lookup) => {
                lookup.inflight = lookup.inflight.saturating_sub(1);
                lookup.mark(from, EntryState::Responded);
                lookup.target
            }
            None => return,
        };
        for &c in contacts {
            self.touch(c, ctx.now());
        }
        self.merge_contacts(idx, contacts, &target);
        if found {
            self.finish_lookup(idx, true, ctx);
            return;
        }
        self.drive_lookup(idx, ctx);
    }
}

impl Node for KadNode {
    type Msg = KadMsg;

    fn on_start(&mut self, ctx: &mut Context<'_, KadMsg>) {
        if let Some(every) = self.cfg.refresh_interval {
            ctx.set_timer(every, REFRESH_TAG);
        }
    }

    fn on_message(&mut self, from: NodeId, msg: KadMsg, ctx: &mut Context<'_, KadMsg>) {
        match msg {
            KadMsg::FindNode {
                rpc,
                from_key,
                target,
            } => {
                if !self.responsive {
                    return;
                }
                self.touch(
                    Contact {
                        node: from,
                        key: from_key,
                    },
                    ctx.now(),
                );
                let closest = if self.sybil_directory.is_some() {
                    self.sybil_reply(&target)
                } else {
                    self.closest_reply(&target)
                };
                ctx.send(
                    from,
                    KadMsg::FindNodeReply {
                        rpc,
                        from_key: self.key,
                        closest,
                    },
                );
            }
            KadMsg::FindValue { rpc, from_key, key } => {
                if !self.responsive {
                    return;
                }
                self.touch(
                    Contact {
                        node: from,
                        key: from_key,
                    },
                    ctx.now(),
                );
                let found = self.sybil_directory.is_none() && self.store.contains(&key);
                let closest = if found {
                    Interned::from_slice(&[])
                } else if self.sybil_directory.is_some() {
                    self.sybil_reply(&key)
                } else {
                    self.closest_reply(&key)
                };
                ctx.send(
                    from,
                    KadMsg::FindValueReply {
                        rpc,
                        from_key: self.key,
                        found,
                        closest,
                    },
                );
            }
            KadMsg::FindNodeReply {
                rpc,
                from_key,
                closest,
            } => {
                self.on_reply(rpc, from, from_key, &closest, false, ctx);
            }
            KadMsg::FindValueReply {
                rpc,
                from_key,
                found,
                closest,
            } => {
                self.on_reply(rpc, from, from_key, &closest, found, ctx);
            }
            KadMsg::Store { from_key, key } => {
                if !self.responsive {
                    return;
                }
                self.touch(
                    Contact {
                        node: from,
                        key: from_key,
                    },
                    ctx.now(),
                );
                self.store.insert(key);
            }
        }
    }

    fn on_timer(&mut self, tag: u64, ctx: &mut Context<'_, KadMsg>) {
        if tag == REFRESH_TAG {
            if let Some(every) = self.cfg.refresh_interval {
                // Refresh a random bucket by looking up a key inside it.
                let bucket = ctx.rng().gen_range(0..KEY_BITS);
                let target = self.key.random_in_bucket(bucket, ctx.rng());
                self.start_lookup(target, false, ctx);
                ctx.set_timer(every, REFRESH_TAG);
            }
            return;
        }
        // RPC timeout.
        let Some(pos) = self.rpc_to_lookup.iter().position(|e| e.rpc == tag) else {
            return; // reply arrived first
        };
        let RpcEntry {
            lookup: idx, peer, ..
        } = self.rpc_to_lookup.swap_remove(pos);
        self.note_failed(peer);
        if let Some(lookup) = self.lookups.get_mut(idx) {
            lookup.inflight = lookup.inflight.saturating_sub(1);
            lookup.timeouts += 1;
            lookup.mark(peer, EntryState::Failed);
        }
        self.drive_lookup(idx, ctx);
    }

    fn on_stop(&mut self, _ctx: &mut Context<'_, KadMsg>) {
        // Abandon in-flight lookups; keep the (now possibly stale) table.
        self.lookups.clear();
        self.rpc_to_lookup.clear();
    }
}

/// The `n` candidates closest to `target`, nearest first, ordered by
/// `(xor_distance, node)`. Each candidate's rank is computed once and
/// only the `n` winners are sorted. The distance determines the key, so
/// two candidates of equal rank are the same contact: the whole-tuple
/// order is total and the unstable selection and sort are deterministic.
///
/// The ranks are staged in a local vector, not in the node: `malloc`
/// hands every call the same hot chunk, where a per-node buffer is cold
/// memory touched once per request (DESIGN.md §4g has the measurement).
fn closest_k(candidates: impl Iterator<Item = Contact>, target: &Key, n: usize) -> Vec<Contact> {
    let mut ranked: Vec<(Distance, NodeId, Key)> = candidates
        .map(|c| (c.key.xor_distance(target), c.node, c.key))
        .collect();
    if n < ranked.len() {
        ranked.select_nth_unstable(n);
        ranked.truncate(n);
    }
    ranked.sort_unstable();
    let contacts = ranked.iter().map(|&(_, node, key)| Contact { node, key });
    contacts.collect()
}

use rand::Rng;

/// Builds a pre-converged Kademlia network of `n` nodes.
///
/// # Examples
///
/// ```
/// use decent_overlay::id::Key;
/// use decent_overlay::kademlia::{build_network, KadConfig};
/// use decent_sim::prelude::*;
///
/// let mut sim = Simulation::new(1, UniformLatency::from_millis(20.0, 80.0));
/// let ids = build_network(&mut sim, 150, &KadConfig::default(), 0.0, 8, 2);
/// sim.run_until(SimTime::from_secs(1.0));
/// sim.invoke(ids[0], |node, ctx| {
///     node.start_lookup(Key::from_u64(42), false, ctx);
/// });
/// sim.run_until(SimTime::from_secs(30.0));
/// assert!(!sim.node(ids[0]).results.is_empty());
/// ```
///
/// Routing tables are seeded from global knowledge (each node learns the
/// `k` globally closest peers plus `extra_random` random peers), the
/// standard shortcut for skipping the join phase in DHT studies. A
/// fraction `unresponsive` of nodes never answer inbound RPCs (the NAT
/// pathology measured on Mainline by Jiménez et al.).
///
/// Returns the node ids in insertion order.
pub fn build_network<S: SchedulerFor<KadNode>>(
    sim: &mut Simulation<KadNode, S>,
    n: usize,
    cfg: &KadConfig,
    unresponsive: f64,
    extra_random: usize,
    seed: u64,
) -> Vec<NodeId> {
    let mut rng = rng_from_seed(seed);
    let keys: Vec<Key> = (0..n).map(|_| Key::random(&mut rng)).collect();
    let ids: Vec<NodeId> = keys
        .iter()
        .map(|&key| {
            let node = KadNode::new(key, cfg.clone());
            let node = if rng.gen::<f64>() < unresponsive {
                node.unresponsive()
            } else {
                node
            };
            sim.add_node(node)
        })
        .collect();
    let contacts: Vec<Contact> = ids
        .iter()
        .zip(&keys)
        .map(|(&node, &key)| Contact { node, key })
        .collect();
    // Seed each node with (approximately) its k XOR-closest peers. Keys
    // sorted numerically place long-shared-prefix (and therefore
    // XOR-close) keys next to each other, so an O(k)-wide window around
    // the node's sorted position contains the true closest set; the
    // window is then ranked exactly. O(n log n) overall.
    let mut by_key: Vec<Contact> = contacts.clone();
    by_key.sort_by_key(|a| a.key);
    let window = (4 * cfg.k).max(16);
    for (i, &id) in ids.iter().enumerate() {
        let me = keys[i];
        let pos = by_key.partition_point(|c| c.key < me);
        let lo = pos.saturating_sub(window);
        let hi = (pos + window).min(by_key.len());
        let mut near: Vec<Contact> = by_key[lo..hi]
            .iter()
            .filter(|c| c.node != id)
            .cloned()
            .collect();
        near.sort_by_cached_key(|a| a.key.xor_distance(&me));
        let mut seeds: Vec<Contact> = near.into_iter().take(cfg.k).collect();
        for _ in 0..extra_random {
            seeds.push(contacts[rng.gen_range(0..n)]);
        }
        let now = sim.now();
        sim.node_mut(id).seed_routing_table(&seeds, now);
    }
    ids
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_net(n: usize, unresponsive: f64) -> (Simulation<KadNode>, Vec<NodeId>) {
        let mut sim = Simulation::new(9, UniformLatency::from_millis(20.0, 80.0));
        let cfg = KadConfig {
            k: 8,
            alpha: 3,
            ..KadConfig::default()
        };
        let ids = build_network(&mut sim, n, &cfg, unresponsive, 8, 13);
        sim.run_until(SimTime::from_secs(1.0)); // process starts
        (sim, ids)
    }

    #[test]
    fn lookup_converges_to_global_closest() {
        let (mut sim, ids) = small_net(150, 0.0);
        let target = Key::from_u64(0xDEAD_BEEF);
        sim.invoke(ids[0], |n, ctx| n.start_lookup(target, false, ctx));
        sim.run_until(SimTime::from_secs(60.0));
        let res = &sim.node(ids[0]).results;
        assert_eq!(res.len(), 1, "lookup must complete");
        let r = &res[0];
        assert!(!r.closest.is_empty());
        // The best contact found must be the true global minimum.
        let mut best_global: Option<(Distance, NodeId)> = None;
        for &id in &ids {
            if id == ids[0] {
                continue;
            }
            let d = sim.node(id).key().xor_distance(&target);
            if best_global.is_none_or(|(bd, _)| d < bd) {
                best_global = Some((d, id));
            }
        }
        assert_eq!(r.closest[0].node, best_global.unwrap().1);
        assert_eq!(r.timeouts, 0);
    }

    #[test]
    fn store_and_find_value() {
        let (mut sim, ids) = small_net(100, 0.0);
        let key = Key::from_u64(42);
        // Publish: lookup closest, then store.
        sim.invoke(ids[1], |n, ctx| n.start_lookup(key, false, ctx));
        sim.run_until(SimTime::from_secs(30.0));
        let closest = sim.node(ids[1]).results[0].closest.clone();
        for c in closest.iter().take(4) {
            let my_key = sim.node(ids[1]).key();
            sim.invoke(ids[1], |_n, ctx| {
                ctx.send(
                    c.node,
                    KadMsg::Store {
                        from_key: my_key,
                        key,
                    },
                )
            });
        }
        sim.run_until(SimTime::from_secs(40.0));
        // Retrieve from a different node.
        sim.invoke(ids[2], |n, ctx| n.start_lookup(key, true, ctx));
        sim.run_until(SimTime::from_secs(70.0));
        let r = sim.node(ids[2]).results.last().unwrap().clone();
        assert!(r.found_value, "value lookup failed: {r:?}");
    }

    #[test]
    fn unresponsive_nodes_cause_timeouts_and_slow_lookups() {
        let (mut sim_good, ids_good) = small_net(150, 0.0);
        let (mut sim_bad, ids_bad) = small_net(150, 0.6);
        let target = Key::from_u64(7777);
        for (sim, ids) in [(&mut sim_good, &ids_good), (&mut sim_bad, &ids_bad)] {
            for &id in ids.iter().take(20) {
                if sim.node(id).is_responsive() {
                    sim.invoke(id, |n, ctx| n.start_lookup(target, false, ctx));
                }
            }
            sim.run_until(SimTime::from_secs(120.0));
        }
        let collect = |sim: &Simulation<KadNode>, ids: &[NodeId]| {
            let mut lat = Histogram::new();
            let mut touts = 0usize;
            for &id in ids {
                for r in &sim.node(id).results {
                    lat.record(r.latency.as_secs());
                    touts += r.timeouts;
                }
            }
            (lat, touts)
        };
        let (mut good, good_t) = collect(&sim_good, &ids_good);
        let (mut bad, bad_t) = collect(&sim_bad, &ids_bad);
        assert!(good.count() >= 15 && bad.count() >= 5);
        assert_eq!(good_t, 0);
        assert!(bad_t > 0, "expected timeouts with 60% unresponsive nodes");
        assert!(
            bad.percentile(0.5) > 3.0 * good.percentile(0.5),
            "median with NATs {} vs clean {}",
            bad.percentile(0.5),
            good.percentile(0.5)
        );
    }

    #[test]
    fn path_caching_makes_popular_keys_cheap() {
        let mk = |cache: bool| {
            let mut sim = Simulation::new(7, UniformLatency::from_millis(20.0, 80.0));
            let cfg = KadConfig {
                k: 8,
                cache_values: cache,
                ..KadConfig::default()
            };
            let ids = build_network(&mut sim, 200, &cfg, 0.0, 8, 8);
            sim.run_until(SimTime::from_secs(1.0));
            // Publish the value at its home nodes.
            let key = Key::from_u64(777);
            sim.invoke(ids[0], |n, ctx| n.start_lookup(key, false, ctx));
            sim.run_until(SimTime::from_secs(20.0));
            let home = sim.node(ids[0]).results[0].closest.clone();
            let pk = sim.node(ids[0]).key();
            for c in home.iter().take(4) {
                sim.invoke(ids[0], |_n, ctx| {
                    ctx.send(c.node, KadMsg::Store { from_key: pk, key })
                });
            }
            sim.run_until(SimTime::from_secs(25.0));
            // 60 sequential lookups of the same popular key.
            let mut rpcs = Vec::new();
            for i in 0..60usize {
                let origin = ids[(i * 3) % ids.len()];
                sim.invoke(origin, |n, ctx| n.start_lookup(key, true, ctx));
                let next = sim.now() + SimDuration::from_secs(5.0);
                sim.run_until(next);
                let r = sim.node(origin).results.last().unwrap().clone();
                assert!(r.found_value, "lookup {i} failed (cache={cache})");
                rpcs.push(r.rpcs);
            }
            // Mean RPCs over the last third of the run.
            rpcs[40..].iter().sum::<usize>() as f64 / 20.0
        };
        let without = mk(false);
        let with = mk(true);
        assert!(
            with < without * 0.7,
            "caching should cut lookup traffic: {with} vs {without} RPCs"
        );
    }

    #[test]
    fn routing_table_eviction_prefers_fresh_entries() {
        let cfg = KadConfig {
            k: 2,
            staleness: SimDuration::from_secs(10.0),
            ..KadConfig::default()
        };
        let me = Key::ZERO;
        let mut n = KadNode::new(me, cfg);
        // Three contacts in the same (far) bucket.
        let mk = |v: u64| {
            let mut b = [0u8; 20];
            b[0] = 0x80; // top bit set: all land in the same (farthest) bucket
            b[19] = v as u8;
            Contact {
                node: v as NodeId,
                key: Key::from_bytes(b),
            }
        };
        n.touch(mk(1), SimTime::from_secs(0.0));
        n.touch(mk(2), SimTime::from_secs(1.0));
        // Bucket full and entries fresh: newcomer dropped.
        n.touch(mk(3), SimTime::from_secs(2.0));
        assert_eq!(n.table_size(), 2);
        assert!(n.closest_contacts(&me, 3).iter().all(|c| c.node != 3));
        // After staleness, the oldest entry is replaced.
        n.touch(mk(3), SimTime::from_secs(20.0));
        assert!(n.closest_contacts(&me, 3).iter().any(|c| c.node == 3));
        assert_eq!(n.table_size(), 2);
    }

    #[test]
    fn failed_peers_are_purged() {
        let (mut sim, ids) = small_net(60, 0.0);
        let victim = ids[5];
        sim.schedule_stop(victim, SimTime::from_secs(2.0));
        sim.run_until(SimTime::from_secs(3.0));
        // Lookups from everyone eventually notice the dead node.
        let target = sim.node(victim).key();
        for &id in ids.iter().take(10) {
            sim.invoke(id, |n, ctx| n.start_lookup(target, false, ctx));
        }
        sim.run_until(SimTime::from_secs(60.0));
        let with_victim = ids
            .iter()
            .take(10)
            .filter(|&&id| {
                sim.node(id)
                    .closest_contacts(&target, 60)
                    .iter()
                    .any(|c| c.node == victim)
            })
            .count();
        assert!(with_victim < 10, "dead node should be evicted somewhere");
    }

    // The three mechanisms below each replaced a simpler one — a `Vec`
    // per bucket, collect-all + full sort, append + full sort — that is
    // kept here as the model the replacement must agree with, over
    // seeded random operation sequences (a failure prints its seed).

    /// The routing table as one `Vec` per bucket.
    struct NestedTable {
        key: Key,
        cfg: KadConfig,
        buckets: Vec<Vec<(Contact, SimTime)>>,
    }

    impl NestedTable {
        fn new(key: Key, cfg: KadConfig) -> Self {
            NestedTable {
                key,
                cfg,
                buckets: vec![Vec::new(); KEY_BITS],
            }
        }

        fn bucket(&mut self, c: &Contact) -> Option<&mut Vec<(Contact, SimTime)>> {
            let idx = KEY_BITS - 1 - self.key.xor_distance(&c.key).bucket()?;
            Some(&mut self.buckets[idx])
        }

        /// Position of the first entry with the smallest `last_seen`.
        fn oldest(bucket: &[(Contact, SimTime)]) -> usize {
            let mut oldest = 0;
            for (i, e) in bucket.iter().enumerate() {
                if e.1 < bucket[oldest].1 {
                    oldest = i;
                }
            }
            oldest
        }

        fn touch(&mut self, c: Contact, now: SimTime) {
            let (k, staleness) = (self.cfg.k, self.cfg.staleness);
            let Some(bucket) = self.bucket(&c) else {
                return;
            };
            if let Some(pos) = bucket.iter().position(|e| e.0.node == c.node) {
                let seen = bucket.remove(pos);
                bucket.push((seen.0, now));
            } else if bucket.len() < k {
                bucket.push((c, now));
            } else {
                let pos = Self::oldest(bucket);
                if now.saturating_since(bucket[pos].1) > staleness {
                    bucket[pos] = (c, now);
                }
            }
        }

        fn force_insert(&mut self, c: Contact, now: SimTime) {
            let k = self.cfg.k;
            let Some(bucket) = self.bucket(&c) else {
                return;
            };
            if let Some(e) = bucket.iter_mut().find(|e| e.0.node == c.node) {
                e.1 = now;
            } else if bucket.len() < k {
                bucket.push((c, now));
            } else {
                let pos = Self::oldest(bucket);
                bucket[pos] = (c, now);
            }
        }

        fn note_failed(&mut self, node: NodeId) {
            for bucket in &mut self.buckets {
                bucket.retain(|e| e.0.node != node);
            }
        }
    }

    /// The flat table read back as one `Vec` per bucket.
    fn nested(node: &KadNode) -> Vec<Vec<(Contact, SimTime)>> {
        assert!(node.table.is_sorted_by_key(|e| e.bucket()));
        let mut buckets = vec![Vec::new(); KEY_BITS];
        for e in &node.table {
            buckets[e.bucket() as usize].push((e.contact(), e.last_seen()));
        }
        buckets
    }

    /// Node ids 0..40 over five buckets of a k = 3 table, so buckets
    /// fill; now and then a known id under a key of another bucket. The
    /// deepest bucket holds a single key, so its ids tie on distance.
    fn random_contact(me: &Key, rng: &mut SimRng) -> Contact {
        const PREFIXES: [usize; 5] = [0, 1, 2, 7, KEY_BITS - 1];
        let node: NodeId = rng.gen_range(0..40);
        let home = if rng.gen_bool(0.05) {
            rng.gen_range(0..PREFIXES.len())
        } else {
            node % PREFIXES.len()
        };
        // Derived from the id, so an id keeps its key across draws.
        let mut key_rng = rng_from_seed((node * PREFIXES.len() + home) as u64);
        Contact {
            node,
            key: me.random_in_bucket(PREFIXES[home], &mut key_rng),
        }
    }

    fn random_contacts(me: &Key, rng: &mut SimRng) -> Vec<Contact> {
        (0..rng.gen_range(1..8))
            .map(|_| random_contact(me, rng))
            .collect()
    }

    #[test]
    fn flat_table_keeps_the_nested_tables_buckets() {
        for seed in 0..40 {
            let mut rng = rng_from_seed(seed);
            let me = Key::random(&mut rng);
            let cfg = KadConfig {
                k: 3,
                staleness: SimDuration::from_secs(10.0),
                ..KadConfig::default()
            };
            let mut node = KadNode::new(me, cfg.clone());
            let mut model = NestedTable::new(me, cfg);
            let mut now = SimTime::ZERO;
            for step in 0..400 {
                // Equal times tie `last_seen`; 30 s makes every entry stale.
                now += SimDuration::from_secs([0.0, 0.0, 1.0, 30.0][rng.gen_range(0..4usize)]);
                match rng.gen_range(0..10) {
                    0..=4 => {
                        let c = random_contact(&me, &mut rng);
                        node.touch(c, now);
                        model.touch(c, now);
                    }
                    5 => {
                        let own = Contact { node: 99, key: me };
                        node.touch(own, now);
                        model.touch(own, now);
                    }
                    6 => {
                        let cs = random_contacts(&me, &mut rng);
                        node.seed_routing_table(&cs, now);
                        cs.iter().for_each(|&c| model.touch(c, now));
                    }
                    7 => {
                        let cs = random_contacts(&me, &mut rng);
                        node.force_insert(&cs, now);
                        cs.iter().for_each(|&c| model.force_insert(c, now));
                    }
                    _ => {
                        let failed = rng.gen_range(0..40);
                        node.note_failed(failed);
                        model.note_failed(failed);
                    }
                }
                assert_eq!(nested(&node), model.buckets, "seed {seed} step {step}");
                assert_eq!(node.table_size(), model.buckets.iter().map(Vec::len).sum());
            }
        }
    }

    /// Collect every candidate, sort them all, keep `n`.
    fn full_sort_closest(all: &[Contact], target: &Key, n: usize) -> Vec<Contact> {
        let mut all = all.to_vec();
        all.sort_by_key(|c| (c.key.xor_distance(target), c.node));
        all.truncate(n);
        all
    }

    #[test]
    fn closest_k_is_the_head_of_the_full_sort() {
        for seed in 0..40 {
            let mut rng = rng_from_seed(seed);
            let me = Key::random(&mut rng);
            let mut node = KadNode::new(me, KadConfig::default());
            let k = node.cfg.k;
            // An empty table first, then one of 1 to 300 entries over
            // every bucket random keys reach; every eighth id shares
            // one key, so distances tie.
            let shared = Key::random(&mut rng);
            for fill in [0, rng.gen_range(1..300)] {
                let seeds: Vec<Contact> = (0..fill)
                    .map(|node| Contact {
                        node,
                        key: if node % 8 == 0 {
                            shared
                        } else {
                            Key::random(&mut rng)
                        },
                    })
                    .collect();
                node.seed_routing_table(&seeds, SimTime::ZERO);
                let all: Vec<Contact> = node.table.iter().map(BucketEntry::contact).collect();
                let target = Key::random(&mut rng);
                for n in [0, 1, k, all.len(), all.len() + 1] {
                    assert_eq!(
                        node.closest_contacts(&target, n),
                        full_sort_closest(&all, &target, n),
                        "seed {seed} n {n} of {}",
                        all.len()
                    );
                }
                // The sybil directory goes through the same helper.
                node.make_sybil(seeds.clone());
                assert_eq!(
                    node.sybil_reply(&target)[..],
                    full_sort_closest(&seeds, &target, k),
                    "seed {seed} directory of {fill}"
                );
            }
        }
    }

    #[test]
    fn shortlist_stays_sorted_as_the_full_sort_would_leave_it() {
        for seed in 0..40 {
            let mut rng = rng_from_seed(seed);
            let me = Key::random(&mut rng);
            let mut node = KadNode::new(me, KadConfig::default());
            node.seed_routing_table(&random_contacts(&me, &mut rng), SimTime::ZERO);
            let target = Key::random(&mut rng);
            let mut effects = Vec::new();
            let mut ctx_rng = rng_from_seed(seed);
            let mut ctx = Context::new(SimTime::ZERO, 0, &mut ctx_rng, &mut effects);
            node.start_lookup(target, false, &mut ctx);
            let idx = node.rpc_to_lookup[0].lookup;
            let shortlist = |node: &KadNode| -> Vec<(Distance, Contact, EntryState)> {
                let lookup = node.lookups.get(idx).expect("lookup in flight");
                let entries = lookup.shortlist.iter().map(|e| {
                    let contact = Contact {
                        node: e.node as NodeId,
                        key: key_at(e.dist, &target),
                    };
                    (e.dist, contact, e.state)
                });
                entries.collect()
            };
            let mut model = shortlist(&node);
            for reply in 0..60 {
                // Ids repeat within a reply and across replies, some
                // under a second key; sometimes the node's own key.
                let mut contacts = random_contacts(&me, &mut rng);
                if rng.gen_bool(0.2) {
                    contacts.push(Contact { node: 99, key: me });
                }
                node.merge_contacts(idx, &contacts, &target);
                // Append what is new by node id, then sort everything.
                for &c in contacts.iter().filter(|c| c.key != me) {
                    if model.iter().all(|e| e.1.node != c.node) {
                        model.push((c.key.xor_distance(&target), c, EntryState::Candidate));
                    }
                }
                model.sort_by_key(|e| (e.0, e.1.node));
                let got = shortlist(&node);
                assert_eq!(got, model, "seed {seed} reply {reply}");
                assert!(
                    got.windows(2)
                        .all(|w| (w[0].0, w[0].1.node) < (w[1].0, w[1].1.node)),
                    "seed {seed} reply {reply}: not strictly increasing"
                );
            }
            // `closest` carries the keys the replies carried, rebuilt
            // from the distances.
            let lookup = node.lookups.get_mut(idx).expect("lookup in flight");
            for e in &mut lookup.shortlist {
                e.state = EntryState::Responded;
            }
            node.finish_lookup(idx, false, &mut ctx);
            let want: Vec<Contact> = model.iter().take(node.cfg.k).map(|e| e.1).collect();
            assert_eq!(node.results[0].closest, want, "seed {seed}");
        }
    }

    /// A contact in bucket `bucket` of a `Key::ZERO` table.
    fn contact_in(bucket: usize, node: NodeId) -> Contact {
        let key = Key::ZERO.random_in_bucket(bucket, &mut rng_from_seed(node as u64));
        Contact { node, key }
    }

    #[test]
    fn table_grows_by_a_step_and_a_seeded_table_is_exact() {
        // 17 buckets of k = 20, so every touch inserts.
        let mut node = KadNode::new(Key::ZERO, KadConfig::default());
        for i in 0..340 {
            node.touch(contact_in(i / 20, i), SimTime::ZERO);
            assert_eq!(node.table.len(), i + 1);
            assert!(
                node.table.capacity() < node.table.len() + STEP,
                "{} slots for {} entries",
                node.table.capacity(),
                node.table.len()
            );
        }
        let mut node = KadNode::new(Key::ZERO, KadConfig::default());
        let seeds: Vec<Contact> = (0..28).map(|i| contact_in(i / 20, i)).collect();
        node.seed_routing_table(&seeds, SimTime::ZERO);
        assert_eq!(node.table.len(), 28);
        assert_eq!(node.table.capacity(), 28);
    }

    #[test]
    fn an_id_beyond_u32_is_ignored_not_truncated() {
        let run = |hostile: &[NodeId]| {
            let mut node = KadNode::new(Key::ZERO, KadConfig::default());
            node.seed_routing_table(&[contact_in(0, 1)], SimTime::ZERO);
            let mut effects = Vec::new();
            let mut rng = rng_from_seed(1);
            let mut ctx = Context::new(SimTime::ZERO, 0, &mut rng, &mut effects);
            let target = Key::from_u64(7);
            node.start_lookup(target, false, &mut ctx);
            let rpc = node.rpc_to_lookup[0].rpc;
            let mut closest: Vec<Contact> = hostile.iter().map(|&id| contact_in(3, id)).collect();
            closest.push(contact_in(3, 5));
            let reply = KadMsg::FindNodeReply {
                rpc,
                from_key: contact_in(0, 1).key,
                closest: Interned::from_vec(closest),
            };
            node.on_message(1, reply, &mut ctx);
            let table: Vec<(Contact, SimTime)> = nested(&node).concat();
            let lookup = node.lookups.iter().next().expect("one lookup").1;
            let shortlist: Vec<(Distance, u32)> =
                lookup.shortlist.iter().map(|e| (e.dist, e.node)).collect();
            // The one new contact is queried next; its reply ends the lookup.
            let rpc = node.rpc_to_lookup[0].rpc;
            assert_eq!(node.rpc_to_lookup[0].peer, 5);
            let reply = KadMsg::FindNodeReply {
                rpc,
                from_key: contact_in(3, 5).key,
                closest: Interned::from_slice(&[]),
            };
            node.on_message(5, reply, &mut ctx);
            assert_eq!(node.results.len(), 1, "lookup completes");
            (table, shortlist, node.results[0].closest.clone())
        };
        let valid_alone = run(&[]);
        assert_eq!(valid_alone.0.len(), 2);
        assert_eq!(valid_alone.1.len(), 2);
        assert_eq!(run(&[usize::MAX, u32::MAX as usize + 1]), valid_alone);
        // Truncated with `as u32` this one is the valid contact's id, and
        // comes before it.
        assert_eq!(run(&[u32::MAX as usize + 1 + 5]), valid_alone);
    }

    #[test]
    fn the_packed_word_holds_the_last_bucket_at_the_last_nanosecond() {
        let last = SimTime::from_nanos((1 << SEEN_BITS) - 1);
        let mut node = KadNode::new(Key::ZERO, KadConfig::default());
        let c = contact_in(KEY_BITS - 1, 7);
        node.touch(c, last);
        assert_eq!(node.table[0].bucket() as usize, KEY_BITS - 1);
        assert_eq!(node.table[0].last_seen(), last);
        // Seen again, through `see`.
        node.touch(c, SimTime::ZERO);
        node.touch(c, last);
        assert_eq!(nested(&node)[KEY_BITS - 1], [(c, last)]);
    }

    #[test]
    #[should_panic(expected = "2^56 ns")]
    fn a_time_beyond_the_packed_word_is_refused() {
        let mut node = KadNode::new(Key::ZERO, KadConfig::default());
        node.touch(contact_in(0, 1), SimTime::from_nanos(1 << SEEN_BITS));
    }
}
