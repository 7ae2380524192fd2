//! A Hyperledger-Fabric-style permissioned ledger: membership,
//! channels, and the execute → order → validate pipeline.
//!
//! Section IV singles out Fabric's distinguishing property: "consensus
//! or replication can be configured between a subset of the nodes of
//! the network" — channels. This module models that pipeline:
//!
//! 1. **Execute**: a gateway peer sends a proposal to one endorsing
//!    peer per organization; endorsers simulate chaincode and sign.
//! 2. **Order**: with enough endorsements the transaction goes to the
//!    ordering service (a leader orderer replicating to followers,
//!    majority-ack, per-channel block cutting).
//! 3. **Validate**: every channel peer checks the endorsement policy
//!    and MVCC read/write conflicts, then commits.
//!
//! Identity is permissioned: every message carries an implicit member
//!    certificate; non-members of a channel never receive its traffic
//!    (asserted in tests).

use std::collections::{BTreeMap, HashMap, VecDeque};

use decent_sim::prelude::*;

/// A transaction flowing through the pipeline.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct TxEnvelope {
    /// Unique transaction id.
    pub id: u64,
    /// Channel the transaction belongs to.
    pub channel: u32,
    /// Submission time (for end-to-end latency).
    pub submitted: SimTime,
    /// Endorsements collected (distinct orgs).
    pub endorsements: u32,
}

/// A block cut by the ordering service for one channel.
#[derive(Clone, Debug, PartialEq)]
pub struct FabricBlock {
    /// Channel id.
    pub channel: u32,
    /// Per-channel sequence number.
    pub seq: u64,
    /// Ordered transactions.
    pub txs: Vec<TxEnvelope>,
}

/// Fabric-pipeline messages.
#[derive(Clone, Debug)]
pub enum FabricMsg {
    /// Gateway → endorser: simulate chaincode on this proposal.
    Propose {
        /// The transaction.
        tx: TxEnvelope,
    },
    /// Endorser → gateway: signed endorsement.
    Endorse {
        /// Transaction endorsed.
        tx_id: u64,
        /// Endorsing organization.
        org: u32,
    },
    /// Gateway → lead orderer: ordered delivery requested.
    Submit {
        /// The endorsed transaction.
        tx: TxEnvelope,
    },
    /// Lead orderer → follower orderers: replicate a cut block.
    Replicate {
        /// The block. Interned: one allocation per cut block, shared by
        /// every replication and delivery copy.
        block: Interned<FabricBlock>,
    },
    /// Follower orderer → leader: block persisted.
    Ack {
        /// Channel of the acknowledged block.
        channel: u32,
        /// Sequence acknowledged.
        seq: u64,
        /// Acknowledging orderer index.
        from: u32,
    },
    /// Orderer → channel peers: committed block delivery.
    Deliver {
        /// The block.
        block: Interned<FabricBlock>,
    },
}

/// Pipeline parameters.
#[derive(Clone, Debug)]
pub struct FabricConfig {
    /// Number of organizations.
    pub orgs: usize,
    /// Peers per organization (first peer of each org endorses).
    pub peers_per_org: usize,
    /// Orderer cluster size.
    pub orderers: usize,
    /// Endorsements (distinct orgs) required by the policy.
    pub endorsement_policy: u32,
    /// Simulated chaincode execution time per proposal.
    pub chaincode_exec: SimDuration,
    /// Validation cost per transaction at commit.
    pub validate_per_tx: SimDuration,
    /// Ordering-service block-cut interval.
    pub block_interval: SimDuration,
    /// Maximum transactions per block.
    pub block_max: usize,
    /// Probability a transaction hits an MVCC conflict (deterministic
    /// per id, so all peers agree).
    pub mvcc_conflict: f64,
    /// Transaction size in bytes.
    pub tx_bytes: u64,
}

impl Default for FabricConfig {
    fn default() -> Self {
        FabricConfig {
            orgs: 4,
            peers_per_org: 2,
            orderers: 3,
            endorsement_policy: 2,
            chaincode_exec: SimDuration::from_millis(2.0),
            validate_per_tx: SimDuration::from_micros(100.0),
            block_interval: SimDuration::from_millis(100.0),
            block_max: 500,
            mvcc_conflict: 0.0,
            tx_bytes: 1024,
        }
    }
}

/// A channel: a subset of organizations sharing a ledger.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Channel {
    /// Channel id.
    pub id: u32,
    /// Member organizations.
    pub orgs: Vec<u32>,
}

/// A committed transaction record on a peer.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Commit {
    /// Transaction id.
    pub tx_id: u64,
    /// Channel.
    pub channel: u32,
    /// Submission time.
    pub submitted: SimTime,
    /// Commit time at this peer.
    pub committed: SimTime,
    /// Whether the transaction passed validation.
    pub valid: bool,
}

const TIMER_BLOCK_CUT: u64 = 1;
const TIMER_EXEC_BASE: u64 = 1 << 20;
const TIMER_VALIDATE_BASE: u64 = 1 << 40;

/// Role and state of a node in the Fabric network.
#[derive(Debug)]
pub enum FabricNode {
    /// An org peer (possibly endorsing, possibly acting as gateway).
    Peer {
        /// Owning organization.
        org: u32,
        /// Channels this peer (via its org) belongs to.
        channels: Vec<Channel>,
        /// Pipeline parameters.
        cfg: FabricConfig,
        /// Endorsing peer (one per org) simulation ids per channel org.
        endorsers: HashMap<u32, Vec<NodeId>>,
        /// Lead orderer simulation id.
        lead_orderer: NodeId,
        /// Gateway state: txs awaiting endorsements.
        pending: HashMap<u64, TxEnvelope>,
        /// Proposals queued for simulated chaincode execution (FIFO).
        exec_queue: VecDeque<(TxEnvelope, NodeId)>,
        /// Blocks queued for validation (FIFO).
        validate_queue: VecDeque<Interned<FabricBlock>>,
        /// Committed transactions in order.
        committed: Vec<Commit>,
        /// Messages received (channel-isolation accounting).
        messages_seen: u64,
    },
    /// An ordering-service node.
    Orderer {
        /// Index within the orderer cluster (0 = leader).
        index: u32,
        /// Cluster size.
        cluster: u32,
        /// Pipeline parameters.
        cfg: FabricConfig,
        /// Fellow orderers' simulation ids.
        peers: Vec<NodeId>,
        /// Channel peer ids for delivery.
        subscribers: HashMap<u32, Vec<NodeId>>,
        /// Per-channel pending batch. A `BTreeMap` because block
        /// cutting walks the channels: the visit order must be the
        /// channel-id order, not the hasher's.
        batches: BTreeMap<u32, Vec<TxEnvelope>>,
        /// Per-channel next sequence.
        next_seq: HashMap<u32, u64>,
        /// Blocks awaiting follower acks: (channel, seq) -> (block, acks).
        inflight: HashMap<(u32, u64), (Interned<FabricBlock>, u32)>,
        /// Messages received.
        messages_seen: u64,
    },
}

/// Deterministic MVCC-conflict decision shared by all peers.
fn conflicts(tx_id: u64, prob: f64) -> bool {
    if prob <= 0.0 {
        return false;
    }
    // SplitMix-style scramble to a uniform in [0,1).
    let mut z = tx_id.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^= z >> 31;
    (z as f64 / u64::MAX as f64) < prob
}

impl FabricNode {
    /// Committed transactions, when this is a peer.
    pub fn committed(&self) -> &[Commit] {
        match self {
            FabricNode::Peer { committed, .. } => committed,
            FabricNode::Orderer { .. } => &[],
        }
    }

    /// Messages this node has received (any role).
    pub fn messages_seen(&self) -> u64 {
        match self {
            FabricNode::Peer { messages_seen, .. } | FabricNode::Orderer { messages_seen, .. } => {
                *messages_seen
            }
        }
    }

    /// Submits a transaction through this peer acting as gateway:
    /// proposals go to one endorser per channel org.
    ///
    /// # Panics
    ///
    /// Panics if called on an orderer or for an unknown channel.
    pub fn submit(&mut self, id: u64, channel: u32, ctx: &mut Context<'_, FabricMsg>) {
        let FabricNode::Peer {
            channels,
            endorsers,
            pending,
            cfg,
            ..
        } = self
        else {
            panic!("orderers do not accept client transactions");
        };
        let ch = channels
            .iter()
            .find(|c| c.id == channel)
            .expect("gateway must belong to the channel");
        let tx = TxEnvelope {
            id,
            channel,
            submitted: ctx.now(),
            endorsements: 0,
        };
        pending.insert(id, tx);
        let targets = endorsers.get(&channel).expect("endorsers per channel");
        for (org_pos, &peer) in targets.iter().enumerate() {
            let _ = ch.orgs.get(org_pos);
            ctx.send_sized(peer, FabricMsg::Propose { tx }, cfg.tx_bytes);
        }
    }
}

impl Node for FabricNode {
    type Msg = FabricMsg;

    fn on_start(&mut self, ctx: &mut Context<'_, FabricMsg>) {
        if let FabricNode::Orderer { index, cfg, .. } = self {
            if *index == 0 {
                ctx.set_timer(cfg.block_interval, TIMER_BLOCK_CUT);
            }
        }
    }

    fn on_message(&mut self, from: NodeId, msg: FabricMsg, ctx: &mut Context<'_, FabricMsg>) {
        match self {
            FabricNode::Peer {
                org,
                cfg,
                pending,
                exec_queue,
                validate_queue,
                lead_orderer,
                messages_seen,
                ..
            } => {
                *messages_seen += 1;
                match msg {
                    FabricMsg::Propose { tx } => {
                        // Simulate chaincode execution before endorsing.
                        exec_queue.push_back((tx, from));
                        ctx.set_timer(cfg.chaincode_exec, TIMER_EXEC_BASE);
                        let _ = org;
                    }
                    FabricMsg::Endorse { tx_id, org: _ } => {
                        if let Some(tx) = pending.get_mut(&tx_id) {
                            tx.endorsements += 1;
                            if tx.endorsements >= cfg.endorsement_policy {
                                let tx = pending.remove(&tx_id).expect("present");
                                ctx.send_sized(
                                    *lead_orderer,
                                    FabricMsg::Submit { tx },
                                    cfg.tx_bytes + 256,
                                );
                            }
                        }
                    }
                    FabricMsg::Deliver { block } => {
                        let delay = cfg.validate_per_tx * block.txs.len() as f64;
                        validate_queue.push_back(block);
                        ctx.set_timer(delay, TIMER_VALIDATE_BASE);
                    }
                    _ => {}
                }
            }
            FabricNode::Orderer {
                index,
                cluster,
                cfg,
                peers,
                subscribers,
                batches,
                next_seq,
                inflight,
                messages_seen,
            } => {
                *messages_seen += 1;
                match msg {
                    FabricMsg::Submit { tx } => {
                        batches.entry(tx.channel).or_default().push(tx);
                    }
                    FabricMsg::Replicate { block } => {
                        // Follower: persist and ack to the leader.
                        ctx.send_sized(
                            from,
                            FabricMsg::Ack {
                                channel: block.channel,
                                seq: block.seq,
                                from: *index,
                            },
                            64,
                        );
                    }
                    FabricMsg::Ack { channel, seq, .. } => {
                        let majority = *cluster / 2 + 1;
                        if let Some((block, acks)) = inflight.get_mut(&(channel, seq)) {
                            *acks += 1;
                            // Leader itself counts as one ack.
                            if *acks + 1 >= majority {
                                let block = block.clone();
                                inflight.remove(&(channel, seq));
                                let subs = subscribers.get(&channel).cloned().unwrap_or_default();
                                let bytes = 64 + block.txs.len() as u64 * cfg.tx_bytes;
                                for peer in subs {
                                    ctx.send_sized(
                                        peer,
                                        FabricMsg::Deliver {
                                            block: block.clone(),
                                        },
                                        bytes,
                                    );
                                }
                            }
                        }
                        let _ = peers;
                        let _ = next_seq;
                    }
                    _ => {}
                }
            }
        }
    }

    fn on_timer(&mut self, tag: u64, ctx: &mut Context<'_, FabricMsg>) {
        match self {
            FabricNode::Peer {
                org,
                cfg,
                exec_queue,
                validate_queue,
                committed,
                ..
            } => {
                if tag == TIMER_EXEC_BASE {
                    if let Some((tx, gateway)) = exec_queue.pop_front() {
                        ctx.send_sized(
                            gateway,
                            FabricMsg::Endorse {
                                tx_id: tx.id,
                                org: *org,
                            },
                            256,
                        );
                    }
                } else if tag == TIMER_VALIDATE_BASE {
                    if let Some(block) = validate_queue.pop_front() {
                        for tx in &block.txs {
                            let valid = tx.endorsements >= cfg.endorsement_policy
                                && !conflicts(tx.id, cfg.mvcc_conflict);
                            committed.push(Commit {
                                tx_id: tx.id,
                                channel: block.channel,
                                submitted: tx.submitted,
                                committed: ctx.now(),
                                valid,
                            });
                        }
                    }
                }
            }
            FabricNode::Orderer {
                index,
                cluster,
                cfg,
                peers,
                subscribers,
                batches,
                next_seq,
                inflight,
                ..
            } => {
                if tag != TIMER_BLOCK_CUT || *index != 0 {
                    return;
                }
                // Cut channels in id order so runs are reproducible
                // across processes (`batches` is a BTreeMap, so the
                // iteration is already sorted by channel id).
                let channels_due: Vec<u32> = batches
                    .iter()
                    .filter(|(_, b)| !b.is_empty())
                    .map(|(&c, _)| c)
                    .collect();
                for channel in channels_due {
                    let batch = batches.get_mut(&channel).expect("known channel");
                    let take = batch.len().min(cfg.block_max);
                    let txs: Vec<TxEnvelope> = batch.drain(..take).collect();
                    let seq = next_seq.entry(channel).or_insert(0);
                    *seq += 1;
                    let block = Interned::new(FabricBlock {
                        channel,
                        seq: *seq,
                        txs,
                    });
                    let bytes = 64 + block.txs.len() as u64 * cfg.tx_bytes;
                    if *cluster <= 1 {
                        // Single orderer: deliver straight away.
                        let subs = subscribers.get(&channel).cloned().unwrap_or_default();
                        for peer in subs {
                            ctx.send_sized(
                                peer,
                                FabricMsg::Deliver {
                                    block: block.clone(),
                                },
                                bytes,
                            );
                        }
                    } else {
                        inflight.insert((channel, *seq), (block.clone(), 0));
                        for &p in peers.iter() {
                            ctx.send_sized(
                                p,
                                FabricMsg::Replicate {
                                    block: block.clone(),
                                },
                                bytes,
                            );
                        }
                    }
                }
                ctx.set_timer(cfg.block_interval, TIMER_BLOCK_CUT);
            }
        }
    }
}

/// A built Fabric network: node ids by role.
#[derive(Clone, Debug)]
pub struct FabricNetwork {
    /// `peer_ids[org][i]` is the i-th peer of that org.
    pub peers: Vec<Vec<NodeId>>,
    /// Orderer ids (index 0 is the leader).
    pub orderers: Vec<NodeId>,
    /// The channels.
    pub channels: Vec<Channel>,
}

impl FabricNetwork {
    /// All peers of all orgs in `channel`.
    pub fn channel_peers(&self, channel: u32) -> Vec<NodeId> {
        let ch = self
            .channels
            .iter()
            .find(|c| c.id == channel)
            .expect("known channel");
        ch.orgs
            .iter()
            .flat_map(|&o| self.peers[o as usize].iter().copied())
            .collect()
    }

    /// A gateway peer for `channel` (the first peer of its first org).
    pub fn gateway(&self, channel: u32) -> NodeId {
        let ch = self
            .channels
            .iter()
            .find(|c| c.id == channel)
            .expect("known channel");
        self.peers[ch.orgs[0] as usize][0]
    }
}

/// Builds a Fabric network with the given channels over a datacenter
/// LAN topology.
pub fn build_network(
    sim: &mut Simulation<FabricNode>,
    cfg: &FabricConfig,
    channels: &[Channel],
) -> FabricNetwork {
    let base = sim.len();
    // Layout: orgs*peers_per_org peers, then orderers.
    let peer_id = |org: usize, i: usize| base + org * cfg.peers_per_org + i;
    let orderer_id = |i: usize| base + cfg.orgs * cfg.peers_per_org + i;
    let lead = orderer_id(0);
    // Peers.
    let mut peers = Vec::new();
    for org in 0..cfg.orgs {
        let mut ids = Vec::new();
        for _i in 0..cfg.peers_per_org {
            let my_channels: Vec<Channel> = channels
                .iter()
                .filter(|c| c.orgs.contains(&(org as u32)))
                .cloned()
                .collect();
            let mut endorsers = HashMap::new();
            for ch in &my_channels {
                endorsers.insert(
                    ch.id,
                    ch.orgs
                        .iter()
                        .map(|&o| peer_id(o as usize, 0))
                        .collect::<Vec<_>>(),
                );
            }
            let id = sim.add_node(FabricNode::Peer {
                org: org as u32,
                channels: my_channels,
                cfg: cfg.clone(),
                endorsers,
                lead_orderer: lead,
                pending: HashMap::new(),
                exec_queue: VecDeque::new(),
                validate_queue: VecDeque::new(),
                committed: Vec::new(),
                messages_seen: 0,
            });
            ids.push(id);
        }
        peers.push(ids);
    }
    // Orderers.
    let mut subscribers: HashMap<u32, Vec<NodeId>> = HashMap::new();
    for ch in channels {
        subscribers.insert(
            ch.id,
            ch.orgs
                .iter()
                .flat_map(|&o| (0..cfg.peers_per_org).map(move |i| (o, i)))
                .map(|(o, i)| peer_id(o as usize, i))
                .collect(),
        );
    }
    let orderer_peers: Vec<NodeId> = (1..cfg.orderers).map(orderer_id).collect();
    let mut orderers = Vec::new();
    for i in 0..cfg.orderers {
        let id = sim.add_node(FabricNode::Orderer {
            index: i as u32,
            cluster: cfg.orderers as u32,
            cfg: cfg.clone(),
            peers: orderer_peers.clone(),
            subscribers: subscribers.clone(),
            batches: BTreeMap::new(),
            next_seq: HashMap::new(),
            inflight: HashMap::new(),
            messages_seen: 0,
        });
        orderers.push(id);
    }
    FabricNetwork {
        peers,
        orderers,
        channels: channels.to_vec(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn two_channel_net() -> (Simulation<FabricNode>, FabricNetwork) {
        let mut sim = Simulation::new(81, LanNet::datacenter());
        let cfg = FabricConfig::default();
        let channels = vec![
            Channel {
                id: 1,
                orgs: vec![0, 1],
            },
            Channel {
                id: 2,
                orgs: vec![2, 3],
            },
        ];
        let net = build_network(&mut sim, &cfg, &channels);
        sim.run_until(SimTime::from_secs(0.01));
        (sim, net)
    }

    #[test]
    fn end_to_end_commit_on_all_channel_peers() {
        let (mut sim, net) = two_channel_net();
        let gw = net.gateway(1);
        for i in 0..100 {
            sim.invoke(gw, |n, ctx| n.submit(i, 1, ctx));
        }
        sim.run_until(SimTime::from_secs(5.0));
        for &p in &net.channel_peers(1) {
            let committed = sim.node(p).committed();
            assert_eq!(committed.len(), 100, "peer {p}");
            assert!(committed.iter().all(|c| c.valid));
        }
    }

    #[test]
    fn channel_isolation_holds() {
        let (mut sim, net) = two_channel_net();
        let gw = net.gateway(1);
        for i in 0..50 {
            sim.invoke(gw, |n, ctx| n.submit(i, 1, ctx));
        }
        sim.run_until(SimTime::from_secs(5.0));
        // Orgs 2 and 3 are not on channel 1: their peers see nothing.
        for &p in net.peers[2].iter().chain(net.peers[3].iter()) {
            assert_eq!(
                sim.node(p).messages_seen(),
                0,
                "non-member peer {p} received channel traffic"
            );
            assert!(sim.node(p).committed().is_empty());
        }
    }

    #[test]
    fn commit_latency_is_sub_second() {
        let (mut sim, net) = two_channel_net();
        let gw = net.gateway(2);
        sim.invoke(gw, |n, ctx| n.submit(7, 2, ctx));
        sim.run_until(SimTime::from_secs(3.0));
        let peer = net.channel_peers(2)[0];
        let c = sim.node(peer).committed()[0];
        let latency = c.committed.saturating_since(c.submitted);
        assert!(
            latency < SimDuration::from_millis(500.0),
            "latency {latency}"
        );
        // And above the floor set by chaincode + block interval.
        assert!(
            latency > SimDuration::from_millis(50.0),
            "latency {latency}"
        );
    }

    #[test]
    fn mvcc_conflicts_invalidate_deterministically() {
        let mut sim = Simulation::new(83, LanNet::datacenter());
        let cfg = FabricConfig {
            mvcc_conflict: 0.3,
            ..FabricConfig::default()
        };
        let channels = vec![Channel {
            id: 1,
            orgs: vec![0, 1],
        }];
        let net = build_network(&mut sim, &cfg, &channels);
        sim.run_until(SimTime::from_secs(0.01));
        let gw = net.gateway(1);
        for i in 0..500 {
            sim.invoke(gw, |n, ctx| n.submit(i, 1, ctx));
        }
        sim.run_until(SimTime::from_secs(10.0));
        let peers = net.channel_peers(1);
        let invalid: Vec<u64> = sim
            .node(peers[0])
            .committed()
            .iter()
            .filter(|c| !c.valid)
            .map(|c| c.tx_id)
            .collect();
        let share = invalid.len() as f64 / 500.0;
        assert!((share - 0.3).abs() < 0.08, "invalid share {share}");
        // Every peer agrees on exactly which txs failed.
        for &p in &peers {
            let theirs: Vec<u64> = sim
                .node(p)
                .committed()
                .iter()
                .filter(|c| !c.valid)
                .map(|c| c.tx_id)
                .collect();
            assert_eq!(theirs, invalid);
        }
    }

    #[test]
    fn unmet_endorsement_policy_blocks_ordering() {
        let mut sim = Simulation::new(84, LanNet::datacenter());
        let cfg = FabricConfig {
            endorsement_policy: 3, // channel has only 2 orgs
            ..FabricConfig::default()
        };
        let channels = vec![Channel {
            id: 1,
            orgs: vec![0, 1],
        }];
        let net = build_network(&mut sim, &cfg, &channels);
        sim.run_until(SimTime::from_secs(0.01));
        let gw = net.gateway(1);
        sim.invoke(gw, |n, ctx| n.submit(1, 1, ctx));
        sim.run_until(SimTime::from_secs(5.0));
        for &p in &net.channel_peers(1) {
            assert!(
                sim.node(p).committed().is_empty(),
                "tx without enough endorsements must never commit"
            );
        }
    }

    #[test]
    fn orderer_follower_crash_does_not_stop_delivery() {
        let (mut sim, net) = two_channel_net();
        // 3 orderers, majority = 2: one crashed follower is tolerable.
        sim.schedule_stop(net.orderers[2], SimTime::from_secs(0.02));
        sim.run_until(SimTime::from_secs(0.05));
        let gw = net.gateway(1);
        for i in 0..50 {
            sim.invoke(gw, |n, ctx| n.submit(i, 1, ctx));
        }
        sim.run_until(SimTime::from_secs(5.0));
        assert_eq!(sim.node(net.channel_peers(1)[0]).committed().len(), 50);
    }

    #[test]
    fn losing_the_orderer_majority_stalls_safely() {
        let (mut sim, net) = two_channel_net();
        sim.schedule_stop(net.orderers[1], SimTime::from_secs(0.02));
        sim.schedule_stop(net.orderers[2], SimTime::from_secs(0.02));
        sim.run_until(SimTime::from_secs(0.05));
        let gw = net.gateway(1);
        for i in 0..20 {
            sim.invoke(gw, |n, ctx| n.submit(i, 1, ctx));
        }
        sim.run_until(SimTime::from_secs(5.0));
        // No majority ack: nothing is delivered, nothing diverges.
        assert!(sim.node(net.channel_peers(1)[0]).committed().is_empty());
    }

    #[test]
    fn channels_process_independently() {
        let (mut sim, net) = two_channel_net();
        for i in 0..200u64 {
            let (gw, ch) = if i % 2 == 0 {
                (net.gateway(1), 1)
            } else {
                (net.gateway(2), 2)
            };
            sim.invoke(gw, |n, ctx| n.submit(i, ch, ctx));
        }
        sim.run_until(SimTime::from_secs(10.0));
        let c1 = sim.node(net.channel_peers(1)[0]).committed().len();
        let c2 = sim.node(net.channel_peers(2)[0]).committed().len();
        assert_eq!(c1, 100);
        assert_eq!(c2, 100);
    }
}
