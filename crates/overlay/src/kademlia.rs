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

#[derive(Clone, Debug)]
struct ShortEntry {
    dist: Distance,
    contact: Contact,
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

/// One in-flight RPC: correlation id, owning lookup slot, queried peer.
#[derive(Copy, Clone, Debug)]
struct RpcEntry {
    rpc: u64,
    lookup: SlotIdx,
    peer: NodeId,
}

#[derive(Copy, Clone, Debug)]
struct BucketEntry {
    contact: Contact,
    last_seen: SimTime,
}

const REFRESH_TAG: u64 = 0;

/// A Kademlia node. Implements [`Node`] for the simulation engine.
#[derive(Debug)]
pub struct KadNode {
    key: Key,
    cfg: KadConfig,
    responsive: bool,
    sybil_directory: Option<Vec<Contact>>,
    buckets: Vec<Vec<BucketEntry>>,
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
    // Reusable staging buffer for closest-contact computation; contents
    // are dead between handler activations.
    scratch: Vec<Contact>,
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
            buckets: vec![Vec::new(); KEY_BITS],
            store: BTreeSet::new(),
            lookups: SlotArena::new(),
            rpc_to_lookup: Vec::new(),
            next_id: 1,
            scratch: Vec::new(),
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
    /// reply set), staged through the scratch buffer.
    fn sybil_reply(&mut self, target: &Key) -> Interned<[Contact]> {
        self.scratch.clear();
        if let Some(dir) = &self.sybil_directory {
            self.scratch.extend_from_slice(dir);
        }
        self.scratch
            // decent-lint: allow(D009) reason="(xor_distance, node) is injective: node ids are unique per entry"
            .sort_unstable_by_key(|a| (a.key.xor_distance(target), a.node));
        self.scratch.truncate(self.cfg.k);
        Interned::from_slice(&self.scratch)
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
            if contact.key == self.key {
                continue;
            }
            let Some(bucket_idx) = self.key.xor_distance(&contact.key).bucket() else {
                continue;
            };
            let idx = KEY_BITS - 1 - bucket_idx;
            let k = self.cfg.k;
            let bucket = &mut self.buckets[idx];
            if let Some(pos) = bucket.iter().position(|e| e.contact.node == contact.node) {
                bucket[pos].last_seen = now;
                continue;
            }
            if bucket.len() < k {
                bucket.push(BucketEntry {
                    contact,
                    last_seen: now,
                });
            } else if let Some((pos, _)) =
                bucket.iter().enumerate().min_by_key(|(_, e)| e.last_seen)
            {
                bucket[pos] = BucketEntry {
                    contact,
                    last_seen: now,
                };
            }
        }
    }

    /// Number of routing-table entries.
    pub fn table_size(&self) -> usize {
        self.buckets.iter().map(|b| b.len()).sum()
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
        let k = self.cfg.k;
        {
            let Self {
                buckets, scratch, ..
            } = self;
            Self::closest_into(buckets, &target, k, scratch);
        }
        // closest_into leaves the scratch buffer distance-sorted, so the
        // shortlist is born in lookup order.
        let mut shortlist: Vec<ShortEntry> = Vec::with_capacity(self.scratch.len());
        shortlist.extend(self.scratch.iter().map(|&contact| ShortEntry {
            dist: contact.key.xor_distance(&target),
            contact,
            state: EntryState::Candidate,
        }));
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

    /// The k closest contacts to `target` from the routing table.
    pub fn closest_contacts(&self, target: &Key, n: usize) -> Vec<Contact> {
        let mut all = Vec::new();
        Self::closest_into(&self.buckets, target, n, &mut all);
        all
    }

    /// Fills `out` with the `n` closest routing-table contacts to
    /// `target`, sorted by distance. The `(distance, node)` sort key is
    /// a total order over distinct contacts, so the unstable sort is
    /// deterministic; distances tie only for equal keys.
    fn closest_into(buckets: &[Vec<BucketEntry>], target: &Key, n: usize, out: &mut Vec<Contact>) {
        out.clear();
        out.extend(buckets.iter().flatten().map(|e| e.contact));
        // decent-lint: allow(D009) reason="(xor_distance, node) is injective: one entry per node id across buckets"
        out.sort_unstable_by_key(|c| (c.key.xor_distance(target), c.node));
        out.truncate(n);
    }

    /// Stages the k closest contacts in the scratch buffer and interns
    /// them as a reply payload with one exact-size allocation.
    fn closest_reply(&mut self, target: &Key) -> Interned<[Contact]> {
        let k = self.cfg.k;
        let Self {
            buckets, scratch, ..
        } = self;
        Self::closest_into(buckets, target, k, scratch);
        Interned::from_slice(scratch)
    }

    fn touch(&mut self, contact: Contact, now: SimTime) {
        if contact.key == self.key {
            return;
        }
        let Some(bucket_idx) = self.key.xor_distance(&contact.key).bucket() else {
            return;
        };
        // Bucket index counts from the most significant differing bit;
        // store in vector position = shared-prefix length.
        let idx = KEY_BITS - 1 - bucket_idx;
        let k = self.cfg.k;
        let staleness = self.cfg.staleness;
        let bucket = &mut self.buckets[idx];
        if let Some(pos) = bucket.iter().position(|e| e.contact.node == contact.node) {
            let mut e = bucket.remove(pos);
            e.last_seen = now;
            bucket.push(e);
            return;
        }
        if bucket.len() < k {
            bucket.push(BucketEntry {
                contact,
                last_seen: now,
            });
            return;
        }
        // Full: evict the least-recently-seen entry if it is stale.
        if let Some((pos, oldest)) = bucket
            .iter()
            .enumerate()
            .min_by_key(|(_, e)| e.last_seen)
            .map(|(i, e)| (i, e.last_seen))
        {
            if now.saturating_since(oldest) > staleness {
                bucket[pos] = BucketEntry {
                    contact,
                    last_seen: now,
                };
            }
        }
    }

    fn note_failed(&mut self, node: NodeId) {
        for bucket in &mut self.buckets {
            bucket.retain(|e| e.contact.node != node);
        }
    }

    fn drive_lookup(&mut self, idx: SlotIdx, ctx: &mut Context<'_, KadMsg>) {
        let (k, alpha, timeout, from_key) =
            (self.cfg.k, self.cfg.alpha, self.cfg.rpc_timeout, self.key);
        let mut to_send: Vec<NodeId> = Vec::new();
        let mut finished = false;
        {
            let Some(lookup) = self.lookups.get_mut(idx) else {
                return;
            };
            // Fire queries at candidates among the k closest non-failed
            // entries until alpha are in flight.
            while lookup.inflight < alpha {
                let next = lookup
                    .shortlist
                    .iter_mut()
                    .filter(|e| e.state != EntryState::Failed)
                    .take(k)
                    .find(|e| e.state == EntryState::Candidate);
                let Some(entry) = next else { break };
                entry.state = EntryState::Waiting;
                lookup.inflight += 1;
                lookup.rpcs += 1;
                to_send.push(entry.contact.node);
            }
            if lookup.inflight == 0 {
                finished = true;
            }
        }
        for peer in to_send {
            let rpc = self.next_id;
            self.next_id += 1;
            self.rpc_to_lookup.push(RpcEntry {
                rpc,
                lookup: idx,
                peer,
            });
            let lookup = self.lookups.get(idx).expect("live lookup");
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
            ctx.set_timer(timeout, rpc);
        }
        if finished {
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
            .map(|e| e.contact)
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
        for &c in contacts {
            if c.key == my_key {
                continue;
            }
            if lookup.shortlist.iter().any(|e| e.contact.node == c.node) {
                continue;
            }
            lookup.shortlist.push(ShortEntry {
                dist: c.key.xor_distance(target),
                contact: c,
                state: EntryState::Candidate,
            });
        }
        // The in-place sort skips the stable sort's temp buffer.
        lookup
            .shortlist
            // decent-lint: allow(D009) reason="(dist, node) is injective: the shortlist is deduplicated by node above"
            .sort_unstable_by_key(|a| (a.dist, a.contact.node));
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
                if let Some(e) = lookup.shortlist.iter_mut().find(|e| e.contact.node == from) {
                    e.state = EntryState::Responded;
                }
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
            if let Some(e) = lookup.shortlist.iter_mut().find(|e| e.contact.node == peer) {
                e.state = EntryState::Failed;
            }
        }
        self.drive_lookup(idx, ctx);
    }

    fn on_stop(&mut self, _ctx: &mut Context<'_, KadMsg>) {
        // Abandon in-flight lookups; keep the (now possibly stale) table.
        self.lookups.clear();
        self.rpc_to_lookup.clear();
    }
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
        near.sort_by_key(|a| a.key.xor_distance(&me));
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
}
