//! PBFT (Castro & Liskov, OSDI 1999) with batching and view changes.
//!
//! The permissioned-consensus workhorse the paper points to in Section
//! IV (BFT-SMaRt and Hyperledger Fabric's BFT orderer are descendants).
//! `n = 3f + 1` replicas run the three-phase protocol — pre-prepare,
//! prepare (2f matching), commit (2f + 1 matching) — over batches of
//! client operations. A silent or crashed primary is replaced through a
//! view change after `view_timeout`.
//!
//! Clients are modelled as broadcast submitters: every replica queues
//! each request, and every `batch_interval` the current primary takes
//! the next `batch_max` requests off the front of its queue, dropping
//! any it has already executed as it reaches them. Nothing bounds the
//! instances in flight: the primary proposes whenever it has work.
//! Duplicate suppression happens at execution by request id (a standard
//! modelling simplification; checkpoints/GC are out of scope).
//!
//! A replica's request bookkeeping grows with runs, not requests. The
//! queue is a [`RequestRuns`] (a preloaded range is one run) and the
//! execution record an [`ExecRuns`] (one batch executes at one time, so
//! it is one run); executed ids live in an [`IdSet`]. The view-change
//! watchdog asks whether any queued request is unexecuted by dropping
//! executed ids off the front of the queue, as the proposer does, so a
//! tick costs the ids it drops, never a scan of the backlog.
//!
//! The scaling shape the paper relies on — throughput falling as the
//! replica count grows — emerges from the primary's O(n) outbound
//! batches on a bandwidth-limited network ([`LanNet`]) plus the O(n²)
//! vote traffic.

use std::collections::{BTreeSet, HashMap, HashSet};

use decent_sim::prelude::*;

use crate::runs::{ExecRuns, RequestRuns};

/// One client operation: `(request id, submit time)`.
pub type Request = (u64, SimTime);

/// A proposed batch of requests. Interned so the primary's O(n) fan-out
/// clones are refcount bumps, and `Send` so sharded runs can move
/// replica state across worker threads.
pub type Batch = Interned<[Request]>;

/// PBFT wire messages.
#[derive(Clone, Debug)]
pub enum PbftMsg {
    /// The primary's proposal for slot `seq` in `view`.
    PrePrepare {
        /// Current view.
        view: u64,
        /// Sequence number.
        seq: u64,
        /// Proposed batch.
        batch: Batch,
    },
    /// A replica's prepare vote.
    Prepare {
        /// View the vote belongs to.
        view: u64,
        /// Sequence voted on.
        seq: u64,
        /// Digest of the batch (its identity in this model).
        digest: u64,
        /// Voting replica index.
        from: usize,
    },
    /// A replica's commit vote.
    Commit {
        /// View the vote belongs to.
        view: u64,
        /// Sequence voted on.
        seq: u64,
        /// Digest of the batch.
        digest: u64,
        /// Voting replica index.
        from: usize,
    },
    /// A vote to move to `new_view` after primary silence.
    ViewChange {
        /// Proposed view.
        new_view: u64,
        /// Voting replica index.
        from: usize,
    },
    /// The new primary's announcement that `view` has started.
    NewView {
        /// The new view.
        view: u64,
        /// Sequence to resume from.
        next_seq: u64,
    },
}

/// Behaviour of a replica (fault injection).
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum Behavior {
    /// Follows the protocol.
    Correct,
    /// When primary, proposes nothing (triggers view changes).
    SilentPrimary,
}

/// Protocol parameters.
#[derive(Clone, Debug)]
pub struct PbftConfig {
    /// Number of replicas (`n = 3f + 1`).
    pub n: usize,
    /// Maximum operations per batch.
    pub batch_max: usize,
    /// Primary batching interval.
    pub batch_interval: SimDuration,
    /// Bytes per operation (request payload).
    pub op_bytes: u64,
    /// Bytes of a vote message (signature + digest).
    pub vote_bytes: u64,
    /// Execution cost per operation.
    pub exec_per_op: SimDuration,
    /// Primary-silence timeout before a view change.
    pub view_timeout: SimDuration,
}

impl Default for PbftConfig {
    fn default() -> Self {
        PbftConfig {
            n: 4,
            batch_max: 512,
            batch_interval: SimDuration::from_millis(5.0),
            op_bytes: 512,
            vote_bytes: 128,
            exec_per_op: SimDuration::from_micros(10.0),
            view_timeout: SimDuration::from_secs(2.0),
        }
    }
}

impl PbftConfig {
    /// Maximum byzantine replicas tolerated.
    pub fn f(&self) -> usize {
        (self.n - 1) / 3
    }

    /// Prepare quorum (2f matching votes besides the pre-prepare).
    pub fn prepare_quorum(&self) -> usize {
        2 * self.f()
    }

    /// Commit quorum (2f + 1 matching votes).
    pub fn commit_quorum(&self) -> usize {
        2 * self.f() + 1
    }
}

#[derive(Debug, Default)]
struct Instance {
    batch: Option<Batch>,
    digest: u64,
    /// Replica indices that voted prepare / commit for `digest`.
    prepares: IdSet,
    commits: IdSet,
    prepared: bool,
    committed: bool,
}

const TIMER_BATCH: u64 = 1;
const TIMER_VIEWCHANGE_BASE: u64 = 1 << 32;

/// A PBFT replica. Implements [`Node`].
#[derive(Debug)]
pub struct PbftReplica {
    /// Replica index in `0..n`.
    index: usize,
    cfg: PbftConfig,
    behavior: Behavior,
    /// Peer simulation ids, indexed by replica index.
    peers: Vec<NodeId>,
    view: u64,
    next_seq: u64,
    log: HashMap<u64, Instance>,
    last_executed: u64,
    buffer: RequestRuns,
    executed_ids: IdSet,
    view_votes: HashMap<u64, HashSet<usize>>,
    /// Progress marker used by the view-change watchdog.
    progress: u64,
    /// Executed requests with submit/exec times (measurement output),
    /// each id's first execution only.
    pub executed: ExecRuns,
    /// View changes this replica has participated in.
    pub view_changes: u64,
}

impl PbftReplica {
    /// Creates replica `index` of `cfg.n`; `peers[i]` must be the
    /// simulation id of replica `i`.
    pub fn new(index: usize, cfg: PbftConfig, peers: Vec<NodeId>, behavior: Behavior) -> Self {
        assert_eq!(peers.len(), cfg.n, "need one peer id per replica");
        PbftReplica {
            index,
            cfg,
            behavior,
            peers,
            view: 0,
            next_seq: 1,
            log: HashMap::new(),
            last_executed: 0,
            buffer: RequestRuns::new(),
            executed_ids: IdSet::new(),
            view_votes: HashMap::new(),
            progress: 0,
            executed: ExecRuns::new(),
            view_changes: 0,
        }
    }

    /// Current view number.
    pub fn view(&self) -> u64 {
        self.view
    }

    /// Whether this replica is the current primary.
    pub fn is_primary(&self) -> bool {
        self.primary_of(self.view) == self.index
    }

    /// Replica index of `view`'s primary.
    fn primary_of(&self, view: u64) -> usize {
        (view % self.cfg.n as u64) as usize
    }

    /// Whether `sender` is replica `index` (an index out of range is no one).
    fn sent_by(&self, sender: NodeId, index: usize) -> bool {
        self.peers.get(index) == Some(&sender)
    }

    /// Buffers a client request (driver entry point).
    pub fn submit(&mut self, id: u64, ctx: &mut Context<'_, PbftMsg>) {
        self.buffer.push_back(id, ctx.now());
    }

    /// Buffers many requests at once (saturation workloads); a range
    /// is one run of the queue.
    pub fn submit_many(&mut self, ids: impl IntoIterator<Item = u64>, now: SimTime) {
        self.buffer.extend(ids.into_iter().map(|id| (id, now)));
    }

    /// Pops the next batch off the front of the queue: up to `batch_max`
    /// requests not yet executed. Executed ids are dropped when they
    /// reach the front and do not count toward `batch_max`; those deeper
    /// in the queue wait until they are reached, which yields the same
    /// batches as filtering the whole queue first (`executed_ids` only
    /// grows).
    fn take_batch(&mut self) -> Vec<Request> {
        let mut batch = Vec::with_capacity(self.buffer.len().min(self.cfg.batch_max));
        while batch.len() < self.cfg.batch_max {
            let Some(req) = self.buffer.pop_front() else {
                break;
            };
            if !self.executed_ids.contains(req.0) {
                batch.push(req);
            }
        }
        batch
    }

    /// Whether any buffered request is still unexecuted. Drops executed
    /// ids off the front of the queue, as `take_batch` would on reaching
    /// them, so the answer costs the ids dropped, not the backlog.
    fn has_buffered_work(&mut self) -> bool {
        while let Some((id, _)) = self.buffer.front() {
            if !self.executed_ids.contains(id) {
                return true;
            }
            self.buffer.pop_front();
        }
        false
    }

    fn digest_of(batch: &Batch) -> u64 {
        // A cheap stand-in for a cryptographic digest.
        batch.iter().fold(0xcbf29ce484222325u64, |h, (id, _)| {
            (h ^ id).wrapping_mul(0x100000001b3)
        })
    }

    fn broadcast(&self, msg: PbftMsg, bytes: u64, ctx: &mut Context<'_, PbftMsg>) {
        for (i, &peer) in self.peers.iter().enumerate() {
            if i != self.index {
                ctx.send_sized(peer, msg.clone(), bytes);
            }
        }
    }

    fn try_propose(&mut self, ctx: &mut Context<'_, PbftMsg>) {
        if !self.is_primary() || self.behavior == Behavior::SilentPrimary {
            return;
        }
        // Propose only requests not already executed (dedup after view
        // changes), skipping executed ids as they are taken. There is no
        // in-flight bound: a new instance starts every `batch_interval`
        // however many earlier ones are still uncommitted.
        let batch = self.take_batch();
        if batch.is_empty() {
            return;
        }
        let batch: Batch = Interned::from_vec(batch);
        let seq = self.next_seq;
        self.next_seq += 1;
        let digest = Self::digest_of(&batch);
        let inst = self.log.entry(seq).or_default();
        inst.batch = Some(batch.clone());
        inst.digest = digest;
        let bytes = 64 + batch.len() as u64 * self.cfg.op_bytes;
        self.broadcast(
            PbftMsg::PrePrepare {
                view: self.view,
                seq,
                batch,
            },
            bytes,
            ctx,
        );
        // The primary's own prepare is implicit in the pre-prepare.
        self.on_prepare(self.view, seq, digest, self.index, ctx);
    }

    fn on_prepare(
        &mut self,
        view: u64,
        seq: u64,
        digest: u64,
        from: usize,
        ctx: &mut Context<'_, PbftMsg>,
    ) {
        if view != self.view {
            return;
        }
        let quorum = self.cfg.prepare_quorum();
        let inst = self.log.entry(seq).or_default();
        if inst.digest != 0 && digest != inst.digest {
            return; // conflicting digest: ignore (equivocation defense)
        }
        inst.prepares.insert(from as u64);
        if !inst.prepared && inst.batch.is_some() && inst.prepares.len() >= quorum {
            inst.prepared = true;
            let vote = PbftMsg::Commit {
                view,
                seq,
                digest,
                from: self.index,
            };
            let bytes = self.cfg.vote_bytes;
            self.broadcast(vote, bytes, ctx);
            self.on_commit(view, seq, digest, self.index, ctx);
        }
    }

    fn on_commit(
        &mut self,
        view: u64,
        seq: u64,
        digest: u64,
        from: usize,
        ctx: &mut Context<'_, PbftMsg>,
    ) {
        if view != self.view {
            return;
        }
        let quorum = self.cfg.commit_quorum();
        let inst = self.log.entry(seq).or_default();
        if inst.digest != 0 && digest != inst.digest {
            return;
        }
        inst.commits.insert(from as u64);
        if !inst.committed && inst.batch.is_some() && inst.commits.len() >= quorum {
            inst.committed = true;
            self.progress += 1;
            self.execute_ready(ctx);
        }
    }

    fn execute_ready(&mut self, ctx: &mut Context<'_, PbftMsg>) {
        while let Some(inst) = self.log.get(&(self.last_executed + 1)) {
            if !inst.committed {
                break;
            }
            let batch = inst.batch.clone().expect("committed implies batch");
            self.last_executed += 1;
            let exec_done = ctx.now() + self.cfg.exec_per_op * batch.len() as f64;
            for &(id, submitted) in batch.iter() {
                if self.executed_ids.insert(id) {
                    self.executed.push(submitted, exec_done);
                }
            }
            // Free the instance memory (stand-in for checkpoint GC).
            self.log.remove(&self.last_executed);
        }
    }

    fn start_view_change(&mut self, ctx: &mut Context<'_, PbftMsg>) {
        let new_view = self.view + 1;
        self.view_changes += 1;
        let msg = PbftMsg::ViewChange {
            new_view,
            from: self.index,
        };
        let bytes = self.cfg.vote_bytes;
        self.broadcast(msg, bytes, ctx);
        self.on_view_change(new_view, self.index, ctx);
    }

    fn on_view_change(&mut self, new_view: u64, from: usize, ctx: &mut Context<'_, PbftMsg>) {
        if new_view <= self.view {
            return;
        }
        let votes = self.view_votes.entry(new_view).or_default();
        votes.insert(from);
        let enough = votes.len() >= self.cfg.commit_quorum();
        let i_am_new_primary = self.primary_of(new_view) == self.index;
        if enough && i_am_new_primary {
            self.enter_view(new_view, ctx);
            // A replica that was never primary has proposed nothing:
            // resume after what it executed, not at sequence 1, where
            // proposals would commit and never execute.
            self.next_seq = self.next_seq.max(self.last_executed + 1);
            let bytes = self.cfg.vote_bytes;
            self.broadcast(
                PbftMsg::NewView {
                    view: new_view,
                    next_seq: self.next_seq,
                },
                bytes,
                ctx,
            );
        }
    }

    fn enter_view(&mut self, view: u64, ctx: &mut Context<'_, PbftMsg>) {
        self.view = view;
        #[expect(
            clippy::disallowed_methods,
            reason = "pure predicate: the closure writes no captured state"
        )]
        self.view_votes.retain(|&v, _| v > view);
        // Re-buffer any proposed-but-uncommitted requests so the new
        // primary can propose them again, in ascending sequence order:
        // what it proposes next must not depend on the hasher.
        #[expect(
            clippy::disallowed_methods,
            reason = "collected into a BTreeSet: the hasher's visit order is sorted away"
        )]
        let stranded = self
            .log
            .iter()
            .filter(|(_, inst)| !inst.committed)
            .map(|(&seq, _)| seq)
            .collect::<BTreeSet<u64>>();
        for seq in stranded {
            let inst = self.log.remove(&seq).expect("listed above");
            if let Some(batch) = inst.batch {
                self.buffer.extend(batch.iter().copied());
            }
        }
        self.arm_watchdog(ctx);
    }

    fn arm_watchdog(&mut self, ctx: &mut Context<'_, PbftMsg>) {
        // Encode the progress marker so stale watchdogs are ignored.
        ctx.set_timer(
            self.cfg.view_timeout,
            TIMER_VIEWCHANGE_BASE | (self.progress & 0xFFFF_FFFF),
        );
    }
}

impl Node for PbftReplica {
    type Msg = PbftMsg;

    fn on_start(&mut self, ctx: &mut Context<'_, PbftMsg>) {
        ctx.set_timer(self.cfg.batch_interval, TIMER_BATCH);
        self.arm_watchdog(ctx);
    }

    fn on_message(&mut self, sender: NodeId, msg: PbftMsg, ctx: &mut Context<'_, PbftMsg>) {
        // A message speaks only for the node that sent it: a vote counts
        // for the replica index it names only if that replica sent it,
        // and a proposal or a new view only from that view's primary.
        match msg {
            PbftMsg::PrePrepare { view, seq, batch } => {
                if view != self.view {
                    return;
                }
                let primary = self.primary_of(view);
                if primary == self.index || !self.sent_by(sender, primary) {
                    return; // only the primary proposes, and not to itself
                }
                let digest = Self::digest_of(&batch);
                let inst = self.log.entry(seq).or_default();
                if inst.batch.is_some() {
                    return; // duplicate proposal for this slot
                }
                inst.batch = Some(batch);
                inst.digest = digest;
                let vote = PbftMsg::Prepare {
                    view,
                    seq,
                    digest,
                    from: self.index,
                };
                let bytes = self.cfg.vote_bytes;
                self.broadcast(vote, bytes, ctx);
                self.on_prepare(view, seq, digest, self.index, ctx);
            }
            PbftMsg::Prepare {
                view,
                seq,
                digest,
                from,
            } if self.sent_by(sender, from) => self.on_prepare(view, seq, digest, from, ctx),
            PbftMsg::Commit {
                view,
                seq,
                digest,
                from,
            } if self.sent_by(sender, from) => self.on_commit(view, seq, digest, from, ctx),
            PbftMsg::ViewChange { new_view, from } if self.sent_by(sender, from) => {
                self.on_view_change(new_view, from, ctx)
            }
            PbftMsg::NewView { view, next_seq } => {
                if view > self.view && self.sent_by(sender, self.primary_of(view)) {
                    self.next_seq = next_seq;
                    self.enter_view(view, ctx);
                }
            }
            // A vote in another replica's name, or in no replica's.
            PbftMsg::Prepare { .. } | PbftMsg::Commit { .. } | PbftMsg::ViewChange { .. } => {}
        }
    }

    fn on_timer(&mut self, tag: u64, ctx: &mut Context<'_, PbftMsg>) {
        if tag == TIMER_BATCH {
            self.try_propose(ctx);
            ctx.set_timer(self.cfg.batch_interval, TIMER_BATCH);
            return;
        }
        if tag >= TIMER_VIEWCHANGE_BASE {
            let marker = tag & 0xFFFF_FFFF;
            // Pending work = unexecuted buffered requests (backups keep
            // their request copies until execution) or stuck instances.
            #[expect(
                clippy::disallowed_methods,
                reason = "`any` over a pure predicate: the same answer in every visit order"
            )]
            let has_work = self.has_buffered_work()
                || self.log.values().any(|i| i.batch.is_some() && !i.committed);
            if has_work && marker == (self.progress & 0xFFFF_FFFF) {
                // No progress since the watchdog was armed.
                self.start_view_change(ctx);
            }
            self.arm_watchdog(ctx);
        }
    }
}

/// Builds a PBFT cluster on a datacenter LAN; `behaviors[i]` applies to
/// replica `i` (pad with [`Behavior::Correct`]). Returns the node ids.
///
/// # Examples
///
/// ```
/// use decent_bft::pbft::{build_cluster, PbftConfig};
/// use decent_sim::prelude::*;
///
/// let mut sim = Simulation::new(1, LanNet::datacenter());
/// let ids = build_cluster(&mut sim, &PbftConfig::default(), &[]);
/// for &id in &ids {
///     sim.node_mut(id).submit_many(0..100, SimTime::ZERO);
/// }
/// sim.run_until(SimTime::from_secs(2.0));
/// assert_eq!(sim.node(ids[0]).executed.len(), 100);
/// ```
pub fn build_cluster(
    sim: &mut Simulation<PbftReplica>,
    cfg: &PbftConfig,
    behaviors: &[Behavior],
) -> Vec<NodeId> {
    // Node ids are assigned sequentially from the current count.
    let base = sim.len();
    let peers: Vec<NodeId> = (0..cfg.n).map(|i| base + i).collect();
    (0..cfg.n)
        .map(|i| {
            let b = behaviors.get(i).copied().unwrap_or(Behavior::Correct);
            sim.add_node(PbftReplica::new(i, cfg.clone(), peers.clone(), b))
        })
        .collect()
}

/// Saturation throughput/latency of a cluster: pre-loads `ops`
/// operations on every replica, runs for `horizon`, and measures on a
/// correct replica. Returns `(ops/s, commit-latency summary)`.
pub fn saturation_run(
    cfg: &PbftConfig,
    ops: u64,
    horizon: SimDuration,
    seed: u64,
) -> (f64, Summary) {
    let mut sim = Simulation::new(seed, LanNet::datacenter());
    let ids = build_cluster(&mut sim, cfg, &[]);
    for &id in &ids {
        sim.node_mut(id).submit_many(0..ops, SimTime::ZERO);
    }
    sim.run_until(SimTime::ZERO + horizon);
    let replica = sim.node(ids[1]);
    let tput = replica.executed.len() as f64 / horizon.as_secs();
    (tput, replica.executed.latencies().summary())
}

#[cfg(test)]
mod tests {
    use rand::Rng;

    use super::*;

    #[test]
    fn commits_and_executes_in_order() {
        let cfg = PbftConfig::default();
        let mut sim = Simulation::new(61, LanNet::datacenter());
        let ids = build_cluster(&mut sim, &cfg, &[]);
        for &id in &ids {
            sim.node_mut(id).submit_many(0..1000, SimTime::ZERO);
        }
        sim.run_until(SimTime::from_secs(5.0));
        for &id in &ids {
            let r = sim.node(id);
            assert_eq!(r.executed.len(), 1000, "replica missing executions");
            assert_eq!(r.view_changes, 0);
            // Execution times are monotone (ordered execution).
            let times: Vec<_> = r.executed.iter().map(|(_, e)| e).collect();
            let mut sorted = times.clone();
            sorted.sort();
            assert_eq!(times, sorted);
            // The watchdog dropped the executed requests off the queue.
            assert!(
                r.buffer.is_empty(),
                "{} requests left queued",
                r.buffer.len()
            );
        }
    }

    #[test]
    fn replicas_agree_on_request_set() {
        let cfg = PbftConfig {
            n: 7,
            ..PbftConfig::default()
        };
        let mut sim = Simulation::new(62, LanNet::datacenter());
        let ids = build_cluster(&mut sim, &cfg, &[]);
        for &id in &ids {
            sim.node_mut(id).submit_many(0..5000, SimTime::ZERO);
        }
        sim.run_until(SimTime::from_secs(10.0));
        let reference: IdSet = sim.node(ids[0]).executed_ids.clone();
        assert_eq!(reference.len(), 5000);
        for &id in &ids {
            assert_eq!(sim.node(id).executed_ids, reference);
        }
    }

    #[test]
    fn throughput_falls_as_n_grows() {
        let tput = |n: usize| {
            let cfg = PbftConfig {
                n,
                ..PbftConfig::default()
            };
            // Scale the pre-loaded buffer down with n to bound memory
            // while staying saturated (throughput falls with n).
            let ops = 800_000 / n as u64;
            saturation_run(&cfg, ops, SimDuration::from_secs(2.0), 63).0
        };
        let t4 = tput(4);
        let t16 = tput(16);
        let t64 = tput(64);
        assert!(t4 > t16 && t16 > t64, "t4 {t4} t16 {t16} t64 {t64}");
        assert!(t4 > 3.0 * t64, "expected a strong decline: {t4} vs {t64}");
        assert!(t4 > 10_000.0, "small clusters should do >10k ops/s: {t4}");
    }

    #[test]
    fn batching_amortizes_vote_traffic() {
        // Saturated tx/s of a 4-replica cluster at batch size `batch`:
        // without batching the O(n²) vote traffic is paid per operation.
        let tps = |batch: usize| {
            let cfg = PbftConfig {
                n: 4,
                batch_max: batch,
                ..PbftConfig::default()
            };
            let seed = 0xAB2 ^ batch as u64;
            saturation_run(&cfg, 200_000 / 4, SimDuration::from_secs(2.0), seed).0
        };
        let (small, big) = (tps(16), tps(1024));
        assert!(
            big > 5.0 * small,
            "batch 16 gives {small} tx/s, batch 1024 gives {big} tx/s"
        );
    }

    #[test]
    fn silent_primary_is_replaced_and_progress_resumes() {
        let cfg = PbftConfig {
            view_timeout: SimDuration::from_millis(500.0),
            ..PbftConfig::default()
        };
        let mut sim = Simulation::new(64, LanNet::datacenter());
        let ids = build_cluster(&mut sim, &cfg, &[Behavior::SilentPrimary]);
        for &id in &ids {
            sim.node_mut(id).submit_many(0..500, SimTime::ZERO);
        }
        sim.run_until(SimTime::from_secs(10.0));
        let r = sim.node(ids[1]);
        assert!(r.view() >= 1, "view change must have happened");
        assert_eq!(
            r.executed.len(),
            500,
            "work must complete under the new primary"
        );
    }

    /// A saturated cluster whose primary dies with proposals in flight,
    /// while backup 3 is away: what the primary proposed last reached
    /// replicas 1 and 2 only, one commit vote short of a quorum. Returns
    /// the new primary's buffer as it takes over and its execution
    /// record at the end.
    fn primary_dies_with_instances_in_flight() -> (Vec<Request>, ExecRuns) {
        const OPS: u64 = 20_000;
        let cfg = PbftConfig {
            view_timeout: SimDuration::from_millis(500.0),
            ..PbftConfig::default()
        };
        let mut sim = Simulation::new(67, LanNet::datacenter());
        let ids = build_cluster(&mut sim, &cfg, &[]);
        for &id in &ids {
            sim.node_mut(id).submit_many(0..OPS, SimTime::ZERO);
        }
        sim.schedule_stop(ids[3], SimTime::from_secs(0.050));
        sim.schedule_stop(ids[0], SimTime::from_secs(0.080));
        sim.schedule_start(ids[3], SimTime::from_secs(0.120));
        // The dead primary's transmit queue has drained; no watchdog
        // has seen a silent half second yet.
        sim.run_until(SimTime::from_secs(0.9));
        let next = sim.node(ids[1]);
        assert_eq!(next.view(), 0);
        #[expect(
            clippy::disallowed_methods,
            reason = "collected into a BTreeMap: the hasher's visit order is sorted away"
        )]
        let in_flight = next
            .log
            .iter()
            .filter(|(_, inst)| !inst.committed)
            .filter_map(|(&seq, inst)| Some((seq, inst.batch.clone()?)))
            .collect::<std::collections::BTreeMap<u64, Batch>>();
        assert!(
            in_flight.len() >= 2,
            "the scenario must strand at least two instances, got {}",
            in_flight.len()
        );
        let ascending: Vec<Request> = in_flight.values().flat_map(|b| b.iter().copied()).collect();
        while sim.node(ids[1]).view() == 0 {
            sim.run_until(sim.now() + SimDuration::from_millis(1.0));
        }
        let buffer: Vec<Request> = sim.node(ids[1]).buffer.iter().collect();
        assert!(
            buffer.ends_with(&ascending),
            "stranded batches must be re-buffered in ascending sequence order"
        );
        sim.run_until(SimTime::from_secs(10.0));
        for &id in &ids[1..3] {
            let r = sim.node(id);
            assert_eq!(r.view(), 1);
            // `executed` records an id's first execution only.
            assert_eq!(r.executed.len() as u64, OPS, "every request executes");
        }
        (buffer, sim.node(ids[1]).executed.clone())
    }

    #[test]
    fn view_change_rebuffers_stranded_instances_in_sequence_order() {
        // Every `HashMap` draws a fresh `RandomState`, so a second run in
        // the same process iterates `log` in a different order.
        assert_eq!(
            primary_dies_with_instances_in_flight(),
            primary_dies_with_instances_in_flight()
        );
    }

    #[test]
    fn crashed_backup_does_not_stop_the_cluster() {
        let cfg = PbftConfig::default();
        let mut sim = Simulation::new(65, LanNet::datacenter());
        let ids = build_cluster(&mut sim, &cfg, &[]);
        sim.schedule_stop(ids[3], SimTime::from_secs(0.001));
        for &id in &ids {
            sim.node_mut(id).submit_many(0..800, SimTime::ZERO);
        }
        sim.run_until(SimTime::from_secs(5.0));
        assert_eq!(sim.node(ids[0]).executed.len(), 800);
    }

    #[test]
    fn latency_is_milliseconds_on_a_lan() {
        let (tput, lat) = saturation_run(
            &PbftConfig::default(),
            50_000,
            SimDuration::from_secs(2.0),
            66,
        );
        assert!(tput > 10_000.0);
        // Commit latency under saturation stays sub-second.
        assert!(lat.p50 < 1.0, "p50 {}", lat.p50);
    }

    /// The proposer before the queue: drop every executed id from the
    /// whole backlog, then take `batch_max` off the front.
    fn retain_then_take(
        backlog: &mut Vec<Request>,
        executed_ids: &IdSet,
        batch_max: usize,
    ) -> Vec<Request> {
        backlog.retain(|&(id, _)| !executed_ids.contains(id));
        let take = backlog.len().min(batch_max);
        backlog.drain(..take).collect()
    }

    #[test]
    fn queue_takes_the_batches_of_retain_then_take() {
        let (mut head_skips, mut deep_skips) = (0, 0);
        for seed in 0..40 {
            let mut rng = rng_from_seed(seed);
            let peers = (0..4).collect();
            let mut r = PbftReplica::new(0, PbftConfig::default(), peers, Behavior::Correct);
            let mut model: Vec<Request> = Vec::new();
            let mut proposed: Vec<Vec<Request>> = Vec::new();
            for step in 0..200 {
                let now = SimTime::from_secs(step as f64);
                match rng.gen_range(0..10) {
                    // Ids repeat, and some are executed already.
                    0..=2 => {
                        let ids: Vec<u64> = (0..rng.gen_range(1..12))
                            .map(|_| rng.gen_range(0..64))
                            .collect();
                        r.submit_many(ids.iter().copied(), now);
                        model.extend(ids.iter().map(|&id| (id, now)));
                    }
                    3..=4 => {
                        r.executed_ids.insert(rng.gen_range(0..64));
                    }
                    5..=8 => {
                        r.cfg.batch_max = rng.gen_range(1..=8);
                        let before: Vec<Request> = r.buffer.iter().collect();
                        let got = r.take_batch();
                        let want = retain_then_take(&mut model, &r.executed_ids, r.cfg.batch_max);
                        assert_eq!(got, want, "seed {seed} step {step}");
                        let popped = before.len() - r.buffer.len();
                        let any_executed = |reqs: &[Request]| {
                            reqs.iter().any(|&(id, _)| r.executed_ids.contains(id))
                        };
                        head_skips += usize::from(any_executed(&before[..popped]));
                        deep_skips += usize::from(any_executed(&before[popped..]));
                        proposed.push(got);
                    }
                    // A view change re-buffers a stranded batch at the back.
                    _ if !proposed.is_empty() => {
                        let stranded = proposed.swap_remove(rng.gen_range(0..proposed.len()));
                        r.buffer.extend(stranded.iter().copied());
                        model.extend(stranded);
                    }
                    _ => {}
                }
                let model_has_work = model.iter().any(|&(id, _)| !r.executed_ids.contains(id));
                assert_eq!(
                    r.has_buffered_work(),
                    model_has_work,
                    "seed {seed} step {step}"
                );
            }
        }
        assert!(
            head_skips > 0 && deep_skips > 0,
            "executed ids skipped at the head {head_skips} times, left deep {deep_skips} times"
        );
    }

    /// Seven replicas (f = 2) of which only the primary, replica 1 and
    /// replica 6 are up. The primary's first proposal reaches replica 1,
    /// but three live replicas are one short of a prepare quorum, so
    /// nothing commits honestly. Returns the cluster and that
    /// proposal's digest.
    fn three_of_seven_up() -> (Simulation<PbftReplica>, Vec<NodeId>, u64) {
        let cfg = PbftConfig {
            n: 7,
            view_timeout: SimDuration::from_secs(60.0),
            ..PbftConfig::default()
        };
        let mut sim = Simulation::new(68, LanNet::datacenter());
        let ids = build_cluster(&mut sim, &cfg, &[]);
        for &id in &ids[2..6] {
            sim.schedule_stop(id, SimTime::from_secs(0.001));
        }
        sim.node_mut(ids[0]).submit_many(0..10, SimTime::ZERO);
        sim.run_until(SimTime::from_secs(0.5));
        let inst = &sim.node(ids[1]).log[&1];
        assert!(inst.batch.is_some() && !inst.committed);
        let digest = inst.digest;
        (sim, ids, digest)
    }

    #[test]
    fn one_replica_cannot_forge_a_commit_quorum() {
        let (mut sim, ids, digest) = three_of_seven_up();
        let (victim, forger) = (ids[1], ids[6]);
        // Replica 6 votes commit in the name of every replica but 1.
        sim.invoke(forger, |_, ctx| {
            for from in [0, 2, 3, 4, 5, 6] {
                let vote = PbftMsg::Commit {
                    view: 0,
                    seq: 1,
                    digest,
                    from,
                };
                ctx.send_sized(victim, vote, 128);
            }
        });
        sim.run_until(SimTime::from_secs(1.0));
        let r = sim.node(victim);
        assert!(r.executed.is_empty(), "forged votes made a commit quorum");
        assert!(!r.log[&1].committed);
    }

    #[test]
    fn votes_proposals_and_new_views_count_only_from_their_sender() {
        let (mut sim, ids, digest) = three_of_seven_up();
        let (victim, forger) = (ids[1], ids[6]);
        sim.invoke(forger, |_, ctx| {
            // Indices past the cluster are no one's votes.
            for from in 7..20 {
                let vote = PbftMsg::Commit {
                    view: 0,
                    seq: 1,
                    digest,
                    from,
                };
                ctx.send_sized(victim, vote, 128);
            }
            // Five view-change votes that make replica 1 view 1's
            // primary, a backup's proposal, and a new view announced for
            // replica 5.
            for from in [0, 2, 3, 4, 5] {
                let vote = PbftMsg::ViewChange { new_view: 1, from };
                ctx.send_sized(victim, vote, 128);
            }
            let batch = Interned::from_vec(vec![(99, SimTime::ZERO)]);
            ctx.send_sized(
                victim,
                PbftMsg::PrePrepare {
                    view: 0,
                    seq: 2,
                    batch,
                },
                128,
            );
            ctx.send_sized(
                victim,
                PbftMsg::NewView {
                    view: 5,
                    next_seq: 1,
                },
                128,
            );
        });
        sim.run_until(SimTime::from_secs(1.0));
        let r = sim.node(victim);
        assert!(r.executed.is_empty(), "out-of-range indices made a quorum");
        assert!(
            r.log.get(&2).is_none_or(|inst| inst.batch.is_none()),
            "a backup's proposal was accepted"
        );
        assert_eq!(
            r.view(),
            0,
            "forged view-change votes or a non-primary's new view"
        );
    }

    #[test]
    fn quorum_arithmetic() {
        let cfg = PbftConfig {
            n: 10,
            ..PbftConfig::default()
        };
        assert_eq!(cfg.f(), 3);
        assert_eq!(cfg.prepare_quorum(), 6);
        assert_eq!(cfg.commit_quorum(), 7);
    }
}
