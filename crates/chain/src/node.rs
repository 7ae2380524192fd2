//! Full nodes, miners and light clients on the simulated network.
//!
//! Implements the Section III-A machinery: an unstructured random
//! overlay where every node validates and relays every block
//! (inv → getblock → block), miners race exponentially on their current
//! tip, forks resolve by longest-chain, and difficulty retargets.
//!
//! Transaction load is modelled at the mempool level: transactions
//! arrive globally at `tx_rate`/s and miners drain the backlog up to the
//! block capacity — the standard simulator shortcut (SimBlock does the
//! same) that preserves throughput, block size, and propagation
//! behaviour without simulating per-transaction gossip.

use decent_sim::payload::Interned;
use std::collections::VecDeque;

use decent_sim::prelude::*;

use crate::block::{Block, BlockId, ChainView, IdMap, TxId};
use crate::pow::{PowParams, RetargetClock};

/// Block-relay messages.
#[derive(Clone, Debug)]
pub enum ChainMsg {
    /// Announcement of a new block id.
    InvBlock(BlockId),
    /// Request for the full block.
    GetBlock(BlockId),
    /// The full block.
    BlockData(Interned<Block>),
}

/// Mining strategy of a node.
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub enum MinerStrategy {
    /// Publish every block immediately.
    #[default]
    Honest,
    /// Eyal-Sirer selfish mining: withhold blocks and publish just in
    /// time to orphan honest work. The race parameter gamma is not an
    /// input here — it emerges from the attacker's network position.
    Selfish,
}

/// Per-node configuration.
#[derive(Clone, Debug)]
pub struct ChainNodeConfig {
    /// Consensus parameters.
    pub params: PowParams,
    /// This node's hashrate in hashes/s (0 = non-mining full node).
    pub hashrate: f64,
    /// Difficulty at genesis (expected hashes per block).
    pub initial_difficulty: f64,
    /// Maximum transactions per block (Bitcoin ≈ 1 MB / 500 B ≈ 2000).
    pub max_block_txs: u32,
    /// Average transaction size in bytes.
    pub tx_bytes: u64,
    /// Block header size in bytes.
    pub header_bytes: u64,
    /// Validation cost per transaction (signature checks etc.).
    pub validation_per_tx: SimDuration,
    /// Global transaction arrival rate (txs/s entering mempools).
    pub tx_rate: f64,
    /// Light client: accepts headers only, neither validates nor serves
    /// block bodies, and does not mine.
    pub light: bool,
    /// Mining strategy (honest by default).
    pub strategy: MinerStrategy,
}

impl Default for ChainNodeConfig {
    fn default() -> Self {
        ChainNodeConfig {
            params: PowParams::bitcoin(),
            hashrate: 0.0,
            initial_difficulty: 1.0,
            max_block_txs: 2000,
            tx_bytes: 500,
            header_bytes: 80,
            validation_per_tx: SimDuration::from_micros(50.0),
            tx_rate: 7.0,
            light: false,
            strategy: MinerStrategy::Honest,
        }
    }
}

const TIMER_VALIDATE: u64 = 1;
const MINING_EPOCH_BASE: u64 = 1_000;

/// A blockchain network participant. Implements [`Node`].
#[derive(Debug)]
pub struct ChainNode {
    cfg: ChainNodeConfig,
    neighbors: Vec<NodeId>,
    /// The node's view of the block tree.
    pub view: ChainView,
    orphans: IdMap<Vec<Interned<Block>>>,
    /// Block ids asked for and not yet accepted (0–2 at a time in
    /// practice). No id is both here and in `view`, so a miss here is
    /// decided without the view's index.
    requested: Vec<BlockId>,
    validating: VecDeque<Interned<Block>>,
    mining_epoch: u64,
    difficulty: f64,
    retarget: RetargetClock,
    /// Mempool backlog estimate (txs waiting for inclusion).
    backlog: f64,
    backlog_updated: SimTime,
    next_block_seq: u64,
    next_tx_seq: u64,
    /// Withheld own blocks (selfish mining), oldest first.
    unpublished: Vec<Interned<Block>>,
    /// Height of the best block known to the public network.
    public_height: u64,
    /// Bytes of block data received (bandwidth accounting).
    pub bytes_received: u64,
    /// Blocks this node mined.
    pub blocks_mined: u64,
}

impl ChainNode {
    /// Creates a node; all nodes must share the same `genesis`.
    pub fn new(cfg: ChainNodeConfig, neighbors: Vec<NodeId>, genesis: Interned<Block>) -> Self {
        let difficulty = cfg.initial_difficulty;
        ChainNode {
            cfg,
            neighbors,
            view: ChainView::new(genesis),
            orphans: IdMap::default(),
            requested: Vec::new(),
            validating: VecDeque::new(),
            mining_epoch: 0,
            difficulty,
            retarget: RetargetClock::new(),
            backlog: 0.0,
            backlog_updated: SimTime::ZERO,
            next_block_seq: 0,
            next_tx_seq: 0,
            unpublished: Vec::new(),
            public_height: 0,
            bytes_received: 0,
            blocks_mined: 0,
        }
    }

    /// Current difficulty at this node's tip.
    pub fn difficulty(&self) -> f64 {
        self.difficulty
    }

    /// Whether this node mines.
    pub fn is_miner(&self) -> bool {
        self.cfg.hashrate > 0.0 && !self.cfg.light
    }

    /// Storage consumed by the node's copy of the chain, in bytes
    /// (headers only for light clients).
    pub fn storage_bytes(&self) -> u64 {
        self.view
            .best_chain()
            .iter()
            .map(|b| {
                if self.cfg.light {
                    self.cfg.header_bytes
                } else {
                    b.size_bytes
                }
            })
            .sum()
    }

    fn refresh_backlog(&mut self, now: SimTime) {
        let dt = now.saturating_since(self.backlog_updated).as_secs();
        self.backlog += self.cfg.tx_rate * dt;
        self.backlog_updated = now;
    }

    fn schedule_mining(&mut self, ctx: &mut Context<'_, ChainMsg>) {
        if !self.is_miner() {
            return;
        }
        self.mining_epoch += 1;
        let dt = self
            .cfg
            .params
            .sample_block_time(self.cfg.hashrate, self.difficulty, ctx.rng());
        ctx.set_timer(dt, MINING_EPOCH_BASE + self.mining_epoch);
    }

    fn mine_block(&mut self, ctx: &mut Context<'_, ChainMsg>) {
        self.refresh_backlog(ctx.now());
        let tx_count = (self.backlog.floor() as u64).min(self.cfg.max_block_txs as u64);
        self.backlog -= tx_count as f64;
        let txs: Vec<TxId> = (0..tx_count)
            .map(|_| {
                self.next_tx_seq += 1;
                // Namespace tx ids by miner so blocks never share ids.
                TxId((ctx.id() as u64) << 40 | self.next_tx_seq)
            })
            .collect();
        self.next_block_seq += 1;
        let parent = self.view.tip().clone();
        let block = Interned::new(Block {
            // Block ids are namespaced by miner id: unique network-wide.
            id: BlockId((ctx.id() as u64) << 40 | self.next_block_seq),
            parent: Some(parent.id),
            height: parent.height + 1,
            miner: ctx.id(),
            mined_at: ctx.now(),
            txs,
            size_bytes: self.cfg.header_bytes + tx_count * self.cfg.tx_bytes,
            difficulty: self.difficulty,
        });
        self.blocks_mined += 1;
        if self.cfg.strategy == MinerStrategy::Selfish {
            self.accept_withheld(block, ctx);
        } else {
            self.accept_block(block, ctx);
        }
    }

    /// Accepts an own block into the local view without announcing it
    /// (the selfish miner's private chain), then keeps mining on it.
    fn accept_withheld(&mut self, block: Interned<Block>, ctx: &mut Context<'_, ChainMsg>) {
        debug_assert!(!self.requested.contains(&block.id), "own block in flight");
        let tip_moved = self.view.accept(block.clone());
        self.unpublished.push(block);
        if tip_moved {
            self.schedule_mining(ctx);
        }
    }

    /// Announces withheld blocks up to and including `up_to` (1-based
    /// count from the oldest), removing them from the private chain.
    fn publish_withheld(&mut self, up_to: usize, ctx: &mut Context<'_, ChainMsg>) {
        let n = up_to.min(self.unpublished.len());
        for block in self.unpublished.drain(..n) {
            self.public_height = self.public_height.max(block.height);
            for &peer in &self.neighbors {
                ctx.send_sized(peer, ChainMsg::InvBlock(block.id), 36);
            }
        }
    }

    /// The Eyal-Sirer reaction to the public chain reaching
    /// `public_height`.
    fn react_selfish(&mut self, ctx: &mut Context<'_, ChainMsg>) {
        if self.unpublished.is_empty() {
            return;
        }
        let private_tip = self.unpublished.last().expect("non-empty").height;
        if private_tip < self.public_height {
            // Honest chain won: abandon the private branch.
            self.unpublished.clear();
            return;
        }
        let lead = private_tip - self.public_height;
        match lead {
            // They caught up: publish everything and race head-to-head.
            0 => self.publish_withheld(usize::MAX, ctx),
            // One ahead: publish everything and override their block.
            1 => self.publish_withheld(usize::MAX, ctx),
            // Comfortably ahead: reveal only enough to match them.
            _ => {
                let reveal = self
                    .unpublished
                    .iter()
                    .take_while(|b| b.height <= self.public_height)
                    .count();
                self.publish_withheld(reveal, ctx);
            }
        }
    }

    /// Whether `id` is accepted. Asks the tip, then the ids in flight
    /// (never accepted), and only then the view's index.
    fn has_accepted(&self, id: BlockId) -> bool {
        self.view.is_tip(id) || (!self.requested.contains(&id) && self.view.contains(id))
    }

    /// Records `id` as in flight.
    fn request(&mut self, id: BlockId) {
        debug_assert!(!self.view.contains(id), "{id:?} requested once accepted");
        self.requested.push(id);
    }

    /// Accepts a validated block whose parent is known, relays it, and
    /// restarts mining if the tip moved.
    fn accept_block(&mut self, block: Interned<Block>, ctx: &mut Context<'_, ChainMsg>) {
        if self.has_accepted(block.id) {
            return;
        }
        let id = block.id;
        let height = block.height;
        self.public_height = self.public_height.max(height);
        if let Some(at) = self.requested.iter().position(|&r| r == id) {
            self.requested.swap_remove(at);
        }
        debug_assert!(!self.requested.contains(&id), "{id:?} in flight twice");
        let tip_moved = self.view.accept(block.clone());
        if tip_moved {
            self.refresh_backlog(ctx.now());
            self.backlog = (self.backlog - block.txs.len() as f64).max(0.0);
            if let Some(new_d) =
                self.retarget
                    .on_block(&self.cfg.params, height, ctx.now(), self.difficulty)
            {
                self.difficulty = new_d;
            }
        }
        // Relay the announcement to all neighbors.
        for &n in &self.neighbors {
            ctx.send_sized(n, ChainMsg::InvBlock(id), 36);
        }
        // Unblock any orphans waiting on this block.
        if let Some(children) = self.orphans.remove(&id) {
            for child in children {
                self.accept_block(child, ctx);
            }
        }
        if tip_moved {
            self.schedule_mining(ctx);
        }
        if self.cfg.strategy == MinerStrategy::Selfish {
            self.react_selfish(ctx);
        }
    }
}

impl Node for ChainNode {
    type Msg = ChainMsg;

    fn on_start(&mut self, ctx: &mut Context<'_, ChainMsg>) {
        self.backlog_updated = ctx.now();
        self.schedule_mining(ctx);
    }

    fn on_message(&mut self, from: NodeId, msg: ChainMsg, ctx: &mut Context<'_, ChainMsg>) {
        match msg {
            ChainMsg::InvBlock(id) => {
                if !self.view.is_tip(id) && !self.requested.contains(&id) && !self.view.contains(id)
                {
                    self.request(id);
                    ctx.send_sized(from, ChainMsg::GetBlock(id), 36);
                }
            }
            ChainMsg::GetBlock(id) => {
                if let Some(b) = self.view.get(id) {
                    // Light clients hold (and therefore serve) only the
                    // header; full nodes serve the whole body.
                    let bytes = if self.cfg.light {
                        self.cfg.header_bytes
                    } else {
                        b.size_bytes
                    };
                    ctx.send_sized(from, ChainMsg::BlockData(b.clone()), bytes);
                }
            }
            ChainMsg::BlockData(block) => {
                if self.has_accepted(block.id) {
                    return;
                }
                self.bytes_received += if self.cfg.light {
                    self.cfg.header_bytes
                } else {
                    block.size_bytes
                };
                // Light clients skip signature validation entirely.
                let delay = if self.cfg.light {
                    SimDuration::from_micros(100.0)
                } else {
                    self.cfg.validation_per_tx * block.txs.len() as f64
                };
                self.validating.push_back(block);
                ctx.set_timer(delay, TIMER_VALIDATE);
            }
        }
    }

    fn on_timer(&mut self, tag: u64, ctx: &mut Context<'_, ChainMsg>) {
        if tag == TIMER_VALIDATE {
            let Some(block) = self.validating.pop_front() else {
                return;
            };
            if self.has_accepted(block.id) {
                return;
            }
            let parent = block.parent.expect("mined blocks have parents");
            if self.has_accepted(parent) {
                self.accept_block(block, ctx);
            } else {
                // Orphan: hold it and fetch the parent from anyone who
                // announces it (we re-request opportunistically).
                if !self.requested.contains(&parent) {
                    self.request(parent);
                    for &n in &self.neighbors {
                        ctx.send_sized(n, ChainMsg::GetBlock(parent), 36);
                    }
                }
                self.orphans.entry(parent).or_default().push(block);
            }
            return;
        }
        if tag > MINING_EPOCH_BASE && tag == MINING_EPOCH_BASE + self.mining_epoch {
            self.mine_block(ctx);
        }
        // Stale epochs (tip changed since scheduling) are ignored.
    }
}

/// Configuration for a whole mined network.
#[derive(Clone, Debug)]
pub struct NetworkConfig {
    /// Number of nodes.
    pub nodes: usize,
    /// Fraction of nodes that mine.
    pub miner_fraction: f64,
    /// Total network hashrate (split among miners by `hashrate_skew`).
    pub total_hashrate: f64,
    /// Zipf exponent of the hashrate distribution (0 = equal split).
    pub hashrate_skew: f64,
    /// Outbound connections per node (Bitcoin: 8).
    pub degree: usize,
    /// Fraction of non-miners that are light clients.
    pub light_fraction: f64,
    /// Per-node protocol parameters.
    pub node: ChainNodeConfig,
}

impl Default for NetworkConfig {
    fn default() -> Self {
        NetworkConfig {
            nodes: 100,
            miner_fraction: 0.3,
            total_hashrate: 1e6,
            hashrate_skew: 0.0,
            degree: 8,
            light_fraction: 0.0,
            node: ChainNodeConfig::default(),
        }
    }
}

/// Builds a blockchain network over a random overlay; the difficulty is
/// initialized so the configured target interval holds at the configured
/// total hashrate. Returns the node ids.
pub fn build_network(
    sim: &mut Simulation<ChainNode>,
    cfg: &NetworkConfig,
    seed: u64,
) -> Vec<NodeId> {
    let mut rng = rng_from_seed(seed);
    let graph = Graph::random_outbound(cfg.nodes, cfg.degree, &mut rng);
    let genesis = Block::genesis(cfg.node.params.difficulty_for(cfg.total_hashrate));
    let n_miners = ((cfg.nodes as f64 * cfg.miner_fraction).round() as usize).max(1);
    // Hashrate shares: Zipf-like rank weights (equal when skew = 0).
    let weights: Vec<f64> = (1..=n_miners)
        .map(|r| 1.0 / (r as f64).powf(cfg.hashrate_skew))
        .collect();
    let wsum: f64 = weights.iter().sum();
    use rand::Rng as _;
    (0..cfg.nodes)
        .map(|i| {
            let mut node_cfg = cfg.node.clone();
            node_cfg.initial_difficulty = cfg.node.params.difficulty_for(cfg.total_hashrate);
            if i < n_miners {
                node_cfg.hashrate = cfg.total_hashrate * weights[i] / wsum;
            } else {
                node_cfg.hashrate = 0.0;
                node_cfg.light = rng.gen::<f64>() < cfg.light_fraction;
            }
            sim.add_node(ChainNode::new(
                node_cfg,
                graph.neighbors(i).to_vec(),
                genesis.clone(),
            ))
        })
        .collect()
}

/// Chain-level measurements taken from one observer node's view.
#[derive(Clone, Debug, PartialEq)]
pub struct ChainReport {
    /// Best-chain height.
    pub height: u64,
    /// Transactions on the best chain.
    pub total_txs: u64,
    /// Transactions per second over the observation span.
    pub tps: f64,
    /// Mean block interval on the best chain.
    pub mean_interval_secs: f64,
    /// Fraction of known blocks that are stale.
    pub stale_rate: f64,
    /// Mean block size on the best chain, bytes.
    pub mean_block_bytes: f64,
}

/// Summarizes the chain as seen by `observer` at the current time.
pub fn report(sim: &Simulation<ChainNode>, observer: NodeId) -> ChainReport {
    let view = &sim.node(observer).view;
    let chain = view.best_chain();
    let height = view.height();
    let total_txs: u64 = chain.iter().map(|b| b.txs.len() as u64).sum();
    let span = sim.now().as_secs().max(1e-9);
    let mined: Vec<&Interned<Block>> = chain.iter().rev().skip(1).copied().collect();
    let mean_interval_secs = if mined.len() >= 2 {
        (mined[mined.len() - 1].mined_at.as_secs() - mined[0].mined_at.as_secs())
            / (mined.len() - 1) as f64
    } else {
        0.0
    };
    let mean_block_bytes = if mined.is_empty() {
        0.0
    } else {
        mined.iter().map(|b| b.size_bytes as f64).sum::<f64>() / mined.len() as f64
    };
    ChainReport {
        height,
        total_txs,
        tps: total_txs as f64 / span,
        mean_interval_secs,
        stale_rate: view.stale_rate(),
        mean_block_bytes,
    }
}

/// Builds a network with one selfish miner holding `alpha` of the
/// hashrate against equal honest miners, runs it for `horizon`, and
/// returns `(selfish main-chain share, stale rate)` as seen by an
/// honest observer.
pub fn run_selfish_attack(
    alpha: f64,
    honest_miners: usize,
    interval: SimDuration,
    horizon: SimDuration,
    seed: u64,
) -> (f64, f64) {
    assert!((0.0..0.5).contains(&alpha));
    let n = honest_miners + 1 + 10; // + relays/observers
    let total_hashrate = 1e6;
    let mut sim: Simulation<ChainNode> = Simulation::new(seed, ConstantLatency::from_millis(80.0));
    let graph = Graph::random_outbound(n, 8, &mut rng_from_seed(seed ^ 1));
    let params = PowParams {
        target_interval: interval,
        retarget_window: u64::MAX / 2, // fixed difficulty for a clean race
        ..PowParams::bitcoin()
    };
    let genesis = Block::genesis(params.difficulty_for(total_hashrate));
    let selfish_id = 0usize;
    let ids: Vec<NodeId> = (0..n)
        .map(|i| {
            let hashrate = if i == selfish_id {
                alpha * total_hashrate
            } else if i <= honest_miners {
                (1.0 - alpha) * total_hashrate / honest_miners as f64
            } else {
                0.0
            };
            let cfg = ChainNodeConfig {
                params: params.clone(),
                hashrate,
                initial_difficulty: params.difficulty_for(total_hashrate),
                strategy: if i == selfish_id {
                    MinerStrategy::Selfish
                } else {
                    MinerStrategy::Honest
                },
                tx_rate: 1.0,
                ..ChainNodeConfig::default()
            };
            sim.add_node(ChainNode::new(
                cfg,
                graph.neighbors(i).to_vec(),
                genesis.clone(),
            ))
        })
        .collect();
    sim.run_until(SimTime::ZERO + horizon);
    let observer = &sim.node(ids[n - 1]).view;
    let chain = observer.best_chain();
    let total = chain.len() - 1; // exclude genesis
    let selfish_blocks = chain.iter().filter(|b| b.miner == ids[selfish_id]).count();
    (
        selfish_blocks as f64 / total.max(1) as f64,
        observer.stale_rate(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bitcoin_like(
        nodes: usize,
        hours: f64,
        interval_secs: f64,
    ) -> (Simulation<ChainNode>, Vec<NodeId>) {
        let mut rng = rng_from_seed(91);
        let net = RegionNet::sampled(nodes, &Region::BITCOIN_2019_DISTRIBUTION, &mut rng);
        let mut sim = Simulation::new(92, net);
        let cfg = NetworkConfig {
            nodes,
            miner_fraction: 0.2,
            total_hashrate: 1e6,
            node: ChainNodeConfig {
                params: PowParams {
                    target_interval: SimDuration::from_secs(interval_secs),
                    retarget_window: 2016,
                    ..PowParams::bitcoin()
                },
                tx_rate: 20.0, // saturate the 2000-tx blocks
                ..ChainNodeConfig::default()
            },
            ..NetworkConfig::default()
        };
        let ids = build_network(&mut sim, &cfg, 23);
        sim.run_until(SimTime::from_hours(hours));
        (sim, ids)
    }

    #[test]
    fn chain_grows_at_target_rate_and_converges() {
        let (sim, ids) = bitcoin_like(60, 24.0, 600.0);
        let r = report(&sim, ids[0]);
        let expected = 24.0 * 3600.0 / 600.0;
        assert!(
            (r.height as f64) > 0.7 * expected && (r.height as f64) < 1.4 * expected,
            "height {} vs expected ~{expected}",
            r.height
        );
        // All full nodes agree on the prefix: compare a few tips.
        let h0 = sim.node(ids[0]).view.height();
        for &id in ids.iter().take(10) {
            let h = sim.node(id).view.height();
            assert!(
                (h as i64 - h0 as i64).abs() <= 2,
                "node {id} at height {h}, observer at {h0}"
            );
        }
    }

    #[test]
    fn throughput_is_capped_by_block_capacity() {
        let (sim, ids) = bitcoin_like(60, 24.0, 600.0);
        let r = report(&sim, ids[0]);
        // 2000 txs / 600 s = 3.33 tps ceiling; offered load is 20 tps.
        // A 24 h run mines ~144 blocks, so Poisson noise on the block
        // count moves measured tps ~±17% around the ceiling (2 sigma).
        assert!(r.tps <= 4.0, "tps {}", r.tps);
        assert!(r.tps > 2.2, "tps {}", r.tps);
    }

    #[test]
    fn bigger_blocks_trade_forks_for_throughput() {
        // (tx/s, stale rate) at a capacity of `max_txs` per 600 s block
        // over six hours of 40 nodes: bigger blocks buy throughput
        // linearly but propagate slower, the trade-off behind the 1 MB
        // limit wars.
        let run = |max_txs: u32| {
            let (nodes, seed) = (40, 0xAB4u64);
            let mut rng = rng_from_seed(seed ^ max_txs as u64);
            let net = RegionNet::sampled(nodes, &Region::BITCOIN_2019_DISTRIBUTION, &mut rng);
            let mut sim = Simulation::new(seed ^ (max_txs as u64) << 8, net);
            let cfg = NetworkConfig {
                nodes,
                miner_fraction: 0.3,
                node: ChainNodeConfig {
                    params: PowParams::bitcoin(),
                    max_block_txs: max_txs,
                    tx_rate: 1000.0,
                    ..ChainNodeConfig::default()
                },
                ..NetworkConfig::default()
            };
            let ids = build_network(&mut sim, &cfg, seed ^ 11);
            sim.run_until(SimTime::from_hours(6.0));
            let r = report(&sim, ids[nodes - 1]);
            (r.tps, r.stale_rate)
        };
        let (small, big) = (run(500), run(16_000));
        assert!(big.0 > 5.0 * small.0, "throughput should scale with size");
        assert!(
            big.1 >= small.1,
            "stale rate must not fall with size: {} vs {}",
            big.1,
            small.1
        );
    }

    #[test]
    fn short_intervals_inflate_stale_rate() {
        let (sim_slow, ids_slow) = bitcoin_like(60, 6.0, 600.0);
        let (sim_fast, ids_fast) = bitcoin_like(60, 0.5, 5.0);
        let slow = report(&sim_slow, ids_slow[0]);
        let fast = report(&sim_fast, ids_fast[0]);
        assert!(
            fast.stale_rate > slow.stale_rate,
            "fast {} <= slow {}",
            fast.stale_rate,
            slow.stale_rate
        );
        assert!(fast.stale_rate > 0.01, "5s blocks must fork sometimes");
    }

    #[test]
    fn orphans_are_buffered_until_the_parent_arrives() {
        // Two nodes; deliver child before parent by hand.
        let params = PowParams::bitcoin();
        let genesis = Block::genesis(1.0);
        let mut sim: Simulation<ChainNode> =
            Simulation::new(98, ConstantLatency::from_millis(10.0));
        let cfg = ChainNodeConfig {
            initial_difficulty: 1.0,
            params,
            ..ChainNodeConfig::default()
        };
        let a = sim.add_node(ChainNode::new(cfg.clone(), vec![1], genesis.clone()));
        let b = sim.add_node(ChainNode::new(cfg, vec![0], genesis.clone()));
        sim.run_until(SimTime::from_secs(0.1));
        let parent = Interned::new(Block {
            id: BlockId(101),
            parent: Some(genesis.id),
            height: 1,
            miner: a,
            mined_at: SimTime::from_secs(0.1),
            txs: vec![],
            size_bytes: 100,
            difficulty: 1.0,
        });
        let child = Interned::new(Block {
            id: BlockId(102),
            parent: Some(parent.id),
            height: 2,
            miner: a,
            mined_at: SimTime::from_secs(0.2),
            txs: vec![],
            size_bytes: 100,
            difficulty: 1.0,
        });
        // Give node A both blocks so it can serve GetBlock requests.
        sim.node_mut(a).view.accept(parent.clone());
        sim.node_mut(a).view.accept(child.clone());
        // Node B hears about the CHILD only.
        sim.inject(
            b,
            ChainMsg::BlockData(child.clone()),
            SimDuration::from_millis(1.0),
        );
        sim.run_until(SimTime::from_secs(5.0));
        // B must have requested the parent from A and accepted both.
        assert!(sim.node(b).view.contains(parent.id), "parent fetched");
        assert!(sim.node(b).view.contains(child.id), "orphan resolved");
        assert_eq!(sim.node(b).view.height(), 2);
    }

    #[test]
    fn a_block_delivered_twice_after_its_child_is_accepted_once() {
        // B gets the child twice, then the parent from A (B asks for it)
        // and once more by hand while the first copy is still validating
        // (1 000 txs: 50 ms). Each block enters B's view once: a second
        // accept would panic, and in debug builds the in-flight list is
        // checked against the view at every step.
        let genesis = Block::genesis(1.0);
        let mut sim: Simulation<ChainNode> =
            Simulation::new(99, ConstantLatency::from_millis(10.0));
        let cfg = ChainNodeConfig {
            initial_difficulty: 1.0,
            ..ChainNodeConfig::default()
        };
        let a = sim.add_node(ChainNode::new(cfg.clone(), vec![1], genesis.clone()));
        let b = sim.add_node(ChainNode::new(cfg, vec![0], genesis.clone()));
        let mined = |id: u64, parent: BlockId, height: u64| {
            Interned::new(Block {
                id: BlockId(id),
                parent: Some(parent),
                height,
                miner: a,
                mined_at: SimTime::ZERO,
                txs: (0..1_000).map(TxId).collect(),
                size_bytes: 100,
                difficulty: 1.0,
            })
        };
        let parent = mined(201, genesis.id, 1);
        let child = mined(202, parent.id, 2);
        sim.node_mut(a).view.accept(parent.clone());
        sim.node_mut(a).view.accept(child.clone());
        for at_ms in [1.0, 2.0] {
            let data = ChainMsg::BlockData(child.clone());
            sim.inject(b, data, SimDuration::from_millis(at_ms));
        }
        let data = ChainMsg::BlockData(parent.clone());
        sim.inject(b, data, SimDuration::from_millis(75.0));
        sim.run_until(SimTime::from_secs(5.0));
        let node = sim.node(b);
        assert_eq!(node.view.len(), 3, "genesis, parent and child, once each");
        assert_eq!(node.view.tip().id, child.id);
        assert!(node.view.contains(parent.id));
        assert_eq!(node.bytes_received, 4 * 100, "two copies of each block");
        assert!(node.requested.is_empty() && node.orphans.is_empty());
        assert!(node.validating.is_empty());
    }

    #[test]
    fn miners_win_blocks_proportionally_to_hashrate() {
        let mut sim = Simulation::new(94, ConstantLatency::from_millis(50.0));
        let cfg = NetworkConfig {
            nodes: 20,
            miner_fraction: 0.5,
            hashrate_skew: 1.0, // rank-1 miner has ~34% of power
            node: ChainNodeConfig {
                params: PowParams {
                    target_interval: SimDuration::from_secs(60.0),
                    ..PowParams::bitcoin()
                },
                ..ChainNodeConfig::default()
            },
            ..NetworkConfig::default()
        };
        let ids = build_network(&mut sim, &cfg, 95);
        sim.run_until(SimTime::from_days(2.0));
        let total: u64 = ids.iter().map(|&i| sim.node(i).blocks_mined).sum();
        let top = sim.node(ids[0]).blocks_mined;
        let share = top as f64 / total as f64;
        // Zipf(1) over 10 miners: rank 1 weight = 1/H(10) ≈ 0.34.
        assert!((share - 0.34).abs() < 0.08, "top miner share {share}");
    }

    #[test]
    fn network_selfish_miner_beats_fair_share() {
        // A 42% selfish pool on a real relay network: gamma emerges from
        // propagation rather than being assumed. On two shards, as
        // `repro --shards 2` runs it.
        let _scope = decent_sim::engine::ExecPolicy::sharded(2).enter();
        let (share, stale) = run_selfish_attack(
            0.42,
            14,
            SimDuration::from_secs(60.0),
            SimDuration::from_days(3.0),
            0x5EF,
        );
        assert!(
            share > 0.45,
            "42% selfish hashrate should exceed its fair share: {share}"
        );
        assert!(stale > 0.02, "withholding must orphan honest work: {stale}");
    }

    #[test]
    fn network_honest_miner_earns_fair_share() {
        // Control: the same node mining honestly earns ~its hashrate.
        let n = 25;
        let mut sim: Simulation<ChainNode> =
            Simulation::new(0x5F0, ConstantLatency::from_millis(80.0));
        let graph = Graph::random_outbound(n, 8, &mut rng_from_seed(0x5F1));
        let params = PowParams {
            target_interval: SimDuration::from_secs(60.0),
            retarget_window: u64::MAX / 2,
            ..PowParams::bitcoin()
        };
        let genesis = Block::genesis(params.difficulty_for(1e6));
        let ids: Vec<NodeId> = (0..n)
            .map(|i| {
                let hashrate = if i == 0 {
                    0.42e6
                } else if i <= 14 {
                    0.58e6 / 14.0
                } else {
                    0.0
                };
                let cfg = ChainNodeConfig {
                    params: params.clone(),
                    hashrate,
                    initial_difficulty: params.difficulty_for(1e6),
                    tx_rate: 1.0,
                    ..ChainNodeConfig::default()
                };
                sim.add_node(ChainNode::new(
                    cfg,
                    graph.neighbors(i).to_vec(),
                    genesis.clone(),
                ))
            })
            .collect();
        sim.run_until(SimTime::from_days(3.0));
        let chain = sim.node(ids[n - 1]).view.best_chain();
        let total = chain.len() - 1;
        let big = chain.iter().filter(|b| b.miner == ids[0]).count();
        let share = big as f64 / total as f64;
        assert!(
            (share - 0.42).abs() < 0.04,
            "honest miner earns its hashrate share: {share}"
        );
    }

    #[test]
    fn light_clients_track_height_cheaply() {
        let mut sim = Simulation::new(96, ConstantLatency::from_millis(50.0));
        let cfg = NetworkConfig {
            nodes: 30,
            miner_fraction: 0.2,
            light_fraction: 1.0, // every non-miner is light
            node: ChainNodeConfig {
                params: PowParams {
                    target_interval: SimDuration::from_secs(120.0),
                    ..PowParams::bitcoin()
                },
                tx_rate: 20.0,
                ..ChainNodeConfig::default()
            },
            ..NetworkConfig::default()
        };
        let ids = build_network(&mut sim, &cfg, 97);
        sim.run_until(SimTime::from_hours(8.0));
        let miner = ids[0];
        let light = ids
            .iter()
            .copied()
            .find(|&i| !sim.node(i).is_miner())
            .unwrap();
        let hm = sim.node(miner).view.height();
        let hl = sim.node(light).view.height();
        assert!(hm > 50);
        assert!(
            (hm as i64 - hl as i64).abs() <= 2,
            "light {hl} vs miner {hm}"
        );
        // And pays orders of magnitude less storage.
        let full_storage = sim.node(miner).storage_bytes();
        let light_storage = sim.node(light).storage_bytes();
        assert!(
            light_storage * 100 < full_storage,
            "light {light_storage} vs full {full_storage}"
        );
    }
}
