//! Raft (Ongaro & Ousterhout, USENIX ATC 2014) — the crash-fault-
//! tolerant baseline.
//!
//! Hyperledger Fabric ships a Raft ordering service as its CFT option;
//! the paper contrasts such protocols with costly proof-of-work
//! (Section IV). Implemented here: randomized-timeout leader election,
//! log replication with the prev-index consistency check and conflict
//! truncation, majority commit, and application in log order.
//!
//! As in the PBFT module, clients broadcast requests to every node and
//! duplicates are suppressed at apply time by request id.
//!
//! Request bookkeeping grows with runs, not requests: the client queue
//! is a [`RequestRuns`], the log a [`LogRuns`] (a burst is logged in one
//! term, so it is one run on the leader and on every follower that
//! appends it), and the apply record an [`ExecRuns`] (one commit applies
//! its entries at one time). The applied ids, like the logged ids the
//! leader collects for each client burst, are an [`IdSet`].
//! AppendEntries still carries the entries themselves, at most
//! `batch_max` of them.

use std::collections::HashSet;

use rand::Rng;

use decent_sim::prelude::*;

use crate::runs::{ExecRuns, LogRuns, RequestRuns};

/// A log entry: `(term, request id, submit time)`.
pub type Entry = (u64, u64, SimTime);

/// Raft wire messages.
#[derive(Clone, Debug)]
pub enum RaftMsg {
    /// A candidate's vote solicitation.
    RequestVote {
        /// Candidate's term.
        term: u64,
        /// Candidate index.
        candidate: usize,
        /// Index of the candidate's last log entry.
        last_log_index: u64,
        /// Term of the candidate's last log entry.
        last_log_term: u64,
    },
    /// A vote response.
    Vote {
        /// Voter's current term.
        term: u64,
        /// Voter index.
        from: usize,
        /// Whether the vote was granted.
        granted: bool,
    },
    /// Log replication / heartbeat.
    AppendEntries {
        /// Leader's term.
        term: u64,
        /// Leader index.
        leader: usize,
        /// Index of the entry preceding `entries`.
        prev_index: u64,
        /// Term of that entry.
        prev_term: u64,
        /// Entries to append (empty = heartbeat). Interned: the leader
        /// replicates the same slice to every follower, so each extra
        /// delivery clone is a refcount bump.
        entries: Interned<[Entry]>,
        /// Leader's commit index.
        leader_commit: u64,
    },
    /// Follower's response to AppendEntries.
    AppendReply {
        /// Follower's current term.
        term: u64,
        /// Follower index.
        from: usize,
        /// Whether the append matched.
        success: bool,
        /// Highest index known replicated on the follower.
        match_index: u64,
    },
}

/// Raft's three roles.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum Role {
    /// Passive replica.
    Follower,
    /// Election in progress.
    Candidate,
    /// The (unique per term) leader.
    Leader,
}

/// Protocol parameters.
#[derive(Clone, Debug)]
pub struct RaftConfig {
    /// Cluster size (majority = n/2 + 1).
    pub n: usize,
    /// Leader heartbeat / replication interval.
    pub heartbeat: SimDuration,
    /// Minimum election timeout (randomized up to 2x).
    pub election_timeout: SimDuration,
    /// Maximum entries per AppendEntries.
    pub batch_max: usize,
    /// Bytes per operation.
    pub op_bytes: u64,
}

impl Default for RaftConfig {
    fn default() -> Self {
        RaftConfig {
            n: 5,
            heartbeat: SimDuration::from_millis(50.0),
            election_timeout: SimDuration::from_millis(150.0),
            batch_max: 1024,
            op_bytes: 512,
        }
    }
}

impl RaftConfig {
    /// Votes needed to win an election or commit an entry.
    pub fn majority(&self) -> usize {
        self.n / 2 + 1
    }
}

const TIMER_HEARTBEAT: u64 = 1;
const TIMER_ELECTION_BASE: u64 = 1 << 32;

/// A Raft server. Implements [`Node`].
#[derive(Debug)]
pub struct RaftNode {
    index: usize,
    cfg: RaftConfig,
    peers: Vec<NodeId>,
    role: Role,
    term: u64,
    voted_for: Option<usize>,
    votes: HashSet<usize>,
    /// 1-based log (index 0 is a sentinel).
    log: LogRuns,
    commit_index: u64,
    last_applied: u64,
    next_index: Vec<u64>,
    match_index: Vec<u64>,
    buffer: RequestRuns,
    applied_ids: IdSet,
    election_epoch: u64,
    /// Applied requests with submit/apply times (measurement output),
    /// each id's first application only.
    pub applied: ExecRuns,
    /// Elections this node has started.
    pub elections_started: u64,
}

impl RaftNode {
    /// Creates server `index` of `cfg.n`; `peers[i]` must be the
    /// simulation id of server `i`.
    pub fn new(index: usize, cfg: RaftConfig, peers: Vec<NodeId>) -> Self {
        assert_eq!(peers.len(), cfg.n, "need one peer id per server");
        let n = cfg.n;
        RaftNode {
            index,
            cfg,
            peers,
            role: Role::Follower,
            term: 0,
            voted_for: None,
            votes: HashSet::new(),
            log: LogRuns::new(),
            commit_index: 0,
            last_applied: 0,
            next_index: vec![1; n],
            match_index: vec![0; n],
            buffer: RequestRuns::new(),
            applied_ids: IdSet::new(),
            election_epoch: 0,
            applied: ExecRuns::new(),
            elections_started: 0,
        }
    }

    /// Current role.
    pub fn role(&self) -> Role {
        self.role
    }

    /// Current term.
    pub fn term(&self) -> u64 {
        self.term
    }

    /// Committed log length (excluding the sentinel).
    pub fn committed_len(&self) -> u64 {
        self.commit_index
    }

    /// The committed request ids in log order (for consistency checks).
    pub fn committed_ids(&self) -> Vec<u64> {
        let committed = self.log.iter().take(self.commit_index as usize);
        committed.map(|(_, id, _)| id).collect()
    }

    /// Buffers a client request.
    pub fn submit(&mut self, id: u64, now: SimTime) {
        self.buffer.push_back(id, now);
    }

    /// Buffers many requests at once; a range is one run of the queue.
    pub fn submit_many(&mut self, ids: impl IntoIterator<Item = u64>, now: SimTime) {
        self.buffer.extend(ids.into_iter().map(|id| (id, now)));
    }

    fn last_log_index(&self) -> u64 {
        self.log.len()
    }

    fn last_log_term(&self) -> u64 {
        self.log.term(self.log.len())
    }

    fn reset_election_timer(&mut self, ctx: &mut Context<'_, RaftMsg>) {
        self.election_epoch += 1;
        let spread = ctx.rng().gen::<f64>();
        let timeout = self.cfg.election_timeout * (1.0 + spread);
        ctx.set_timer(timeout, TIMER_ELECTION_BASE | self.election_epoch);
    }

    fn become_follower(&mut self, term: u64, ctx: &mut Context<'_, RaftMsg>) {
        if term > self.term {
            self.term = term;
            self.voted_for = None;
        }
        self.role = Role::Follower;
        self.reset_election_timer(ctx);
    }

    fn start_election(&mut self, ctx: &mut Context<'_, RaftMsg>) {
        self.role = Role::Candidate;
        self.term += 1;
        self.voted_for = Some(self.index);
        self.votes = HashSet::from([self.index]);
        self.elections_started += 1;
        self.reset_election_timer(ctx);
        let msg = RaftMsg::RequestVote {
            term: self.term,
            candidate: self.index,
            last_log_index: self.last_log_index(),
            last_log_term: self.last_log_term(),
        };
        for (i, &p) in self.peers.iter().enumerate() {
            if i != self.index {
                ctx.send_sized(p, msg.clone(), 64);
            }
        }
        if self.cfg.n == 1 {
            self.become_leader(ctx);
        }
    }

    fn become_leader(&mut self, ctx: &mut Context<'_, RaftMsg>) {
        self.role = Role::Leader;
        let next = self.last_log_index() + 1;
        self.next_index = vec![next; self.cfg.n];
        self.match_index = vec![0; self.cfg.n];
        self.match_index[self.index] = self.last_log_index();
        self.replicate(ctx);
        ctx.set_timer(self.cfg.heartbeat, TIMER_HEARTBEAT);
    }

    /// Appends fresh buffered requests to the leader log and sends
    /// AppendEntries to every follower.
    fn replicate(&mut self, ctx: &mut Context<'_, RaftMsg>) {
        debug_assert_eq!(self.role, Role::Leader);
        // Move unapplied buffered requests into the log. The set of logged
        // ids costs the whole log, so it is built once per client burst,
        // not at every heartbeat.
        if !self.buffer.is_empty() {
            let in_log: IdSet = self.log.iter().map(|(_, id, _)| id).collect();
            for (id, t) in std::mem::take(&mut self.buffer).iter() {
                if !in_log.contains(id) && !self.applied_ids.contains(id) {
                    self.log.push((self.term, id, t));
                }
            }
        }
        self.match_index[self.index] = self.last_log_index();
        for (i, &p) in self.peers.iter().enumerate() {
            if i == self.index {
                continue;
            }
            let from = self.next_index[i];
            let prev_index = from - 1;
            let prev_term = self.log.term(prev_index);
            let entries = self.log.slice(from, self.cfg.batch_max);
            let bytes = 64 + entries.len() as u64 * self.cfg.op_bytes;
            ctx.send_sized(
                p,
                RaftMsg::AppendEntries {
                    term: self.term,
                    leader: self.index,
                    prev_index,
                    prev_term,
                    entries: Interned::from_vec(entries),
                    leader_commit: self.commit_index,
                },
                bytes,
            );
        }
    }

    fn advance_commit(&mut self, ctx: &mut Context<'_, RaftMsg>) {
        // Commit index = highest index replicated on a majority whose
        // entry is from the current term (Raft's commit rule).
        let mut sorted = self.match_index.clone();
        sorted.sort_unstable();
        let majority_idx = sorted[self.cfg.n - self.cfg.majority()];
        if majority_idx > self.commit_index && self.log.term(majority_idx) == self.term {
            self.commit_index = majority_idx;
            self.apply_ready(ctx);
        }
    }

    fn apply_ready(&mut self, ctx: &mut Context<'_, RaftMsg>) {
        while self.last_applied < self.commit_index {
            self.last_applied += 1;
            let (_, id, submitted) = self.log.entry(self.last_applied);
            if self.applied_ids.insert(id) {
                self.applied.push(submitted, ctx.now());
            }
        }
    }
}

impl Node for RaftNode {
    type Msg = RaftMsg;

    fn on_start(&mut self, ctx: &mut Context<'_, RaftMsg>) {
        // (Re)start as a follower; the persistent state (term, vote,
        // log) survives crashes as if on stable storage.
        self.role = Role::Follower;
        self.reset_election_timer(ctx);
    }

    fn on_message(&mut self, from: NodeId, msg: RaftMsg, ctx: &mut Context<'_, RaftMsg>) {
        match msg {
            RaftMsg::RequestVote {
                term,
                candidate,
                last_log_index,
                last_log_term,
            } => {
                if term > self.term {
                    self.become_follower(term, ctx);
                }
                let up_to_date = (last_log_term, last_log_index)
                    >= (self.last_log_term(), self.last_log_index());
                let grant = term == self.term
                    && up_to_date
                    && self.voted_for.is_none_or(|v| v == candidate);
                if grant {
                    self.voted_for = Some(candidate);
                    self.reset_election_timer(ctx);
                }
                ctx.send_sized(
                    from,
                    RaftMsg::Vote {
                        term: self.term,
                        from: self.index,
                        granted: grant,
                    },
                    32,
                );
            }
            RaftMsg::Vote {
                term,
                from,
                granted,
            } => {
                if term > self.term {
                    self.become_follower(term, ctx);
                    return;
                }
                if self.role == Role::Candidate && term == self.term && granted {
                    self.votes.insert(from);
                    if self.votes.len() >= self.cfg.majority() {
                        self.become_leader(ctx);
                    }
                }
            }
            RaftMsg::AppendEntries {
                term,
                leader,
                prev_index,
                prev_term,
                entries,
                leader_commit,
            } => {
                if term < self.term {
                    ctx.send_sized(
                        self.peers[leader],
                        RaftMsg::AppendReply {
                            term: self.term,
                            from: self.index,
                            success: false,
                            match_index: 0,
                        },
                        32,
                    );
                    return;
                }
                self.become_follower(term, ctx);
                // Consistency check.
                let ok = prev_index <= self.log.len() && self.log.term(prev_index) == prev_term;
                let mut match_index = 0;
                if ok {
                    // Truncate conflicts and append.
                    let mut insert_at = prev_index + 1;
                    for &e in entries.iter() {
                        if insert_at <= self.log.len() {
                            if self.log.term(insert_at) != e.0 {
                                self.log.truncate(insert_at - 1);
                                self.log.push(e);
                            }
                        } else {
                            self.log.push(e);
                        }
                        insert_at += 1;
                    }
                    match_index = insert_at - 1;
                    if leader_commit > self.commit_index {
                        self.commit_index = leader_commit.min(self.last_log_index());
                        self.apply_ready(ctx);
                    }
                }
                ctx.send_sized(
                    self.peers[leader],
                    RaftMsg::AppendReply {
                        term: self.term,
                        from: self.index,
                        success: ok,
                        match_index,
                    },
                    32,
                );
            }
            RaftMsg::AppendReply {
                term,
                from,
                success,
                match_index,
            } => {
                if term > self.term {
                    self.become_follower(term, ctx);
                    return;
                }
                if self.role != Role::Leader || term != self.term {
                    return;
                }
                if success {
                    self.match_index[from] = self.match_index[from].max(match_index);
                    self.next_index[from] = self.match_index[from] + 1;
                    self.advance_commit(ctx);
                } else {
                    self.next_index[from] = self.next_index[from].saturating_sub(1).max(1);
                }
            }
        }
    }

    fn on_timer(&mut self, tag: u64, ctx: &mut Context<'_, RaftMsg>) {
        if tag == TIMER_HEARTBEAT {
            if self.role == Role::Leader {
                self.replicate(ctx);
                ctx.set_timer(self.cfg.heartbeat, TIMER_HEARTBEAT);
            }
            return;
        }
        if tag >= TIMER_ELECTION_BASE {
            let epoch = tag & (TIMER_ELECTION_BASE - 1);
            if epoch != self.election_epoch || self.role == Role::Leader {
                return;
            }
            self.start_election(ctx);
        }
    }
}

/// Builds a Raft cluster on a datacenter LAN. Returns the node ids.
///
/// # Examples
///
/// ```
/// use decent_bft::raft::{build_cluster, current_leader, RaftConfig};
/// use decent_sim::prelude::*;
///
/// let mut sim = Simulation::new(1, LanNet::datacenter());
/// let ids = build_cluster(&mut sim, &RaftConfig::default());
/// sim.run_until(SimTime::from_secs(2.0));
/// assert!(current_leader(&sim, &ids).is_some());
/// ```
pub fn build_cluster(sim: &mut Simulation<RaftNode>, cfg: &RaftConfig) -> Vec<NodeId> {
    let base = sim.len();
    let peers: Vec<NodeId> = (0..cfg.n).map(|i| base + i).collect();
    (0..cfg.n)
        .map(|i| sim.add_node(RaftNode::new(i, cfg.clone(), peers.clone())))
        .collect()
}

/// Finds the current leader, if exactly one exists among online nodes.
pub fn current_leader(sim: &Simulation<RaftNode>, ids: &[NodeId]) -> Option<NodeId> {
    let leaders: Vec<NodeId> = ids
        .iter()
        .copied()
        .filter(|&id| sim.is_online(id) && sim.node(id).role() == Role::Leader)
        .collect();
    // Multiple stale leaders can coexist briefly; prefer the highest term.
    leaders.into_iter().max_by_key(|&id| sim.node(id).term())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cluster(n: usize, seed: u64) -> (Simulation<RaftNode>, Vec<NodeId>) {
        let mut sim = Simulation::new(seed, LanNet::datacenter());
        let ids = build_cluster(
            &mut sim,
            &RaftConfig {
                n,
                ..RaftConfig::default()
            },
        );
        (sim, ids)
    }

    #[test]
    fn elects_exactly_one_leader() {
        let (mut sim, ids) = cluster(5, 71);
        sim.run_until(SimTime::from_secs(2.0));
        let leader = current_leader(&sim, &ids).expect("a leader");
        let term = sim.node(leader).term();
        let leaders_in_term = ids
            .iter()
            .filter(|&&id| sim.node(id).role() == Role::Leader && sim.node(id).term() == term)
            .count();
        assert_eq!(leaders_in_term, 1);
    }

    #[test]
    fn replicates_and_applies_everywhere() {
        let (mut sim, ids) = cluster(5, 72);
        sim.run_until(SimTime::from_secs(1.0));
        for &id in &ids {
            sim.node_mut(id)
                .submit_many(0..2000, SimTime::from_secs(1.0));
        }
        sim.run_until(SimTime::from_secs(8.0));
        for &id in &ids {
            assert_eq!(sim.node(id).applied.len(), 2000, "node {id}");
        }
        // Committed logs agree.
        let reference = sim.node(ids[0]).committed_ids();
        for &id in &ids {
            assert_eq!(sim.node(id).committed_ids(), reference);
        }
    }

    #[test]
    fn survives_leader_crash_without_losing_commits() {
        let (mut sim, ids) = cluster(5, 73);
        sim.run_until(SimTime::from_secs(1.0));
        for &id in &ids {
            sim.node_mut(id)
                .submit_many(0..1000, SimTime::from_secs(1.0));
        }
        sim.run_until(SimTime::from_secs(4.0));
        let old_leader = current_leader(&sim, &ids).expect("leader");
        let committed_before = sim.node(old_leader).committed_ids();
        sim.schedule_stop(old_leader, SimTime::from_secs(4.0));
        // New work for the new leader.
        sim.run_until(SimTime::from_secs(5.0));
        for &id in &ids {
            if id != old_leader {
                sim.node_mut(id)
                    .submit_many(10_000..10_500, SimTime::from_secs(5.0));
            }
        }
        sim.run_until(SimTime::from_secs(15.0));
        let new_leader = current_leader(&sim, &ids).expect("new leader");
        assert_ne!(new_leader, old_leader);
        let after = sim.node(new_leader).committed_ids();
        // No committed entry may be lost.
        assert!(after.len() >= committed_before.len() + 500);
        assert_eq!(&after[..committed_before.len()], &committed_before[..]);
    }

    #[test]
    fn minority_partition_cannot_commit() {
        let (mut sim, ids) = cluster(5, 74);
        sim.run_until(SimTime::from_secs(1.0));
        // Stop three of five servers: the remaining two are a minority.
        for &id in &ids[2..] {
            sim.schedule_stop(id, SimTime::from_secs(1.0));
        }
        sim.run_until(SimTime::from_secs(2.0));
        let before: u64 = ids[..2]
            .iter()
            .map(|&id| sim.node(id).committed_len())
            .max()
            .unwrap();
        for &id in &ids[..2] {
            sim.node_mut(id)
                .submit_many(0..100, SimTime::from_secs(2.0));
        }
        sim.run_until(SimTime::from_secs(10.0));
        for &id in &ids[..2] {
            assert_eq!(
                sim.node(id).committed_len(),
                before,
                "minority must not commit"
            );
        }
    }

    #[test]
    fn recovered_follower_catches_up() {
        let (mut sim, ids) = cluster(5, 75);
        sim.run_until(SimTime::from_secs(1.0));
        let victim = ids[4];
        sim.schedule_stop(victim, SimTime::from_secs(1.0));
        for &id in &ids {
            sim.node_mut(id)
                .submit_many(0..1500, SimTime::from_secs(1.0));
        }
        sim.run_until(SimTime::from_secs(6.0));
        sim.schedule_start(victim, SimTime::from_secs(6.0));
        sim.run_until(SimTime::from_secs(20.0));
        assert_eq!(
            sim.node(victim).applied.len(),
            1500,
            "recovered node must catch up"
        );
    }

    #[test]
    fn an_overlapping_burst_is_logged_once() {
        // Ten entries per AppendEntries keep the first burst replicating
        // when the second arrives: only the set of logged ids keeps its
        // unapplied overlap out of the log a second time.
        let mut sim = Simulation::new(77, LanNet::datacenter());
        let cfg = RaftConfig {
            batch_max: 10,
            ..RaftConfig::default()
        };
        let ids = build_cluster(&mut sim, &cfg);
        sim.run_until(SimTime::from_secs(1.0));
        for &id in &ids {
            sim.node_mut(id)
                .submit_many(0..100, SimTime::from_secs(1.0));
        }
        sim.run_until(SimTime::from_secs(1.12));
        let leader = sim.node(current_leader(&sim, &ids).expect("leader"));
        assert!(
            (50..100)
                .any(|id| leader.log.iter().any(|e| e.1 == id) && !leader.applied_ids.contains(id)),
            "the overlap must be logged and not yet applied"
        );
        for &id in &ids {
            sim.node_mut(id)
                .submit_many(50..150, SimTime::from_secs(1.12));
        }
        sim.run_until(SimTime::from_secs(5.0));
        let leader = sim.node(current_leader(&sim, &ids).expect("leader"));
        let mut logged: Vec<u64> = leader.log.iter().map(|e| e.1).collect();
        logged.sort_unstable();
        assert_eq!(logged, (0..150).collect::<Vec<u64>>());
        let reference = leader.committed_ids();
        assert_eq!(reference.len(), 150);
        for &id in &ids {
            assert_eq!(sim.node(id).committed_ids(), reference, "node {id}");
        }
    }

    #[test]
    fn commit_latency_is_one_round_trip_plus_batching() {
        let (mut sim, ids) = cluster(5, 76);
        sim.run_until(SimTime::from_secs(1.0));
        let leader = current_leader(&sim, &ids).unwrap();
        sim.node_mut(leader)
            .submit_many([42], SimTime::from_secs(1.0));
        sim.run_until(SimTime::from_secs(2.0));
        let (sub, applied) = sim
            .node(leader)
            .applied
            .iter()
            .find(|_| true)
            .expect("applied");
        let latency = applied.saturating_since(sub);
        // One heartbeat of batching delay + ~1ms RTT.
        assert!(
            latency < SimDuration::from_millis(120.0),
            "latency {latency}"
        );
    }
}
