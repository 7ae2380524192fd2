//! Epidemic (gossip) broadcast over a static overlay graph.
//!
//! Infect-and-die push gossip: on first receipt of a rumor, a node
//! forwards it to `fanout` random neighbors after a small processing
//! delay. The paper credits gossip protocols as one of the lasting
//! contributions of P2P research (Section II); permissioned ledgers use
//! exactly this dissemination layer.

use std::collections::HashMap;

use rand::seq::SliceRandom;

use decent_sim::prelude::*;

/// A rumor being disseminated.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Rumor {
    /// Rumor identity.
    pub id: u64,
    /// Hops from the source.
    pub hops: u32,
}

/// Gossip parameters.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct GossipConfig {
    /// Number of random neighbors each node pushes a fresh rumor to.
    pub fanout: usize,
    /// Local processing delay before forwarding.
    pub process_delay: SimDuration,
    /// Payload size in bytes (affects bandwidth-aware networks).
    pub payload_bytes: u64,
}

impl Default for GossipConfig {
    fn default() -> Self {
        GossipConfig {
            fanout: 4,
            process_delay: SimDuration::from_millis(2.0),
            payload_bytes: 1024,
        }
    }
}

/// A gossip participant. Implements [`Node`] for the engine.
#[derive(Debug)]
pub struct GossipNode {
    cfg: GossipConfig,
    neighbors: Vec<NodeId>,
    /// Receipt time and hop count per rumor id.
    pub received: HashMap<u64, (SimTime, u32)>,
    pending: Vec<Rumor>,
}

const TIMER_FORWARD: u64 = 1;

impl GossipNode {
    /// Creates a node with the given neighbor set.
    pub fn new(cfg: GossipConfig, neighbors: Vec<NodeId>) -> Self {
        GossipNode {
            cfg,
            neighbors,
            received: HashMap::new(),
            pending: Vec::new(),
        }
    }

    /// Originates a rumor from this node.
    pub fn publish(&mut self, id: u64, ctx: &mut Context<'_, Rumor>) {
        self.received.insert(id, (ctx.now(), 0));
        self.forward(Rumor { id, hops: 0 }, ctx);
    }

    fn forward(&mut self, rumor: Rumor, ctx: &mut Context<'_, Rumor>) {
        let mut targets = self.neighbors.clone();
        targets.shuffle(ctx.rng());
        targets.truncate(self.cfg.fanout);
        for t in targets {
            ctx.send_sized(
                t,
                Rumor {
                    id: rumor.id,
                    hops: rumor.hops + 1,
                },
                self.cfg.payload_bytes,
            );
        }
    }
}

impl Node for GossipNode {
    type Msg = Rumor;

    fn on_message(&mut self, _from: NodeId, msg: Rumor, ctx: &mut Context<'_, Rumor>) {
        if self.received.contains_key(&msg.id) {
            return; // infect-and-die: forward only the first copy
        }
        self.received.insert(msg.id, (ctx.now(), msg.hops));
        self.pending.push(msg);
        ctx.set_timer(self.cfg.process_delay, TIMER_FORWARD);
    }

    fn on_timer(&mut self, _tag: u64, ctx: &mut Context<'_, Rumor>) {
        if let Some(rumor) = self.pending.pop() {
            self.forward(rumor, ctx);
        }
    }
}

/// Builds a gossip network over `graph` and returns the node ids.
pub fn build_network(
    sim: &mut Simulation<GossipNode>,
    graph: &Graph,
    cfg: GossipConfig,
) -> Vec<NodeId> {
    (0..graph.len())
        .map(|i| sim.add_node(GossipNode::new(cfg, graph.neighbors(i).to_vec())))
        .collect()
}

/// Fraction of online nodes that received rumor `id`.
pub fn delivery_ratio(sim: &Simulation<GossipNode>, ids: &[NodeId], rumor: u64) -> f64 {
    let total = ids.len().max(1);
    let got = ids
        .iter()
        .filter(|&&n| sim.node(n).received.contains_key(&rumor))
        .count();
    got as f64 / total as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run_broadcast(fanout: usize, n: usize) -> (Simulation<GossipNode>, Vec<NodeId>) {
        let mut sim = Simulation::new(21, UniformLatency::from_millis(20.0, 100.0));
        let graph = Graph::random_outbound(n, 8, &mut rng_from_seed(22));
        let cfg = GossipConfig {
            fanout,
            ..GossipConfig::default()
        };
        let ids = build_network(&mut sim, &graph, cfg);
        sim.run_until(SimTime::from_secs(0.1));
        sim.invoke(ids[0], |node, ctx| node.publish(1, ctx));
        sim.run_until(SimTime::from_secs(30.0));
        (sim, ids)
    }

    #[test]
    fn high_fanout_reaches_almost_everyone() {
        let (sim, ids) = run_broadcast(6, 400);
        let ratio = delivery_ratio(&sim, &ids, 1);
        assert!(ratio > 0.95, "delivery ratio {ratio}");
    }

    #[test]
    fn fanout_one_dies_out() {
        let (sim, ids) = run_broadcast(1, 400);
        let ratio = delivery_ratio(&sim, &ids, 1);
        assert!(
            ratio < 0.8,
            "fanout 1 should not blanket the network: {ratio}"
        );
    }

    #[test]
    fn gossip_has_an_epidemic_threshold() {
        // (delivery ratio, messages per node) at fanout f over 300
        // nodes: the epidemic threshold in two rows.
        let run = |fanout: usize| {
            let seed = 0xAB3u64;
            let mut sim = Simulation::new(
                seed ^ fanout as u64,
                UniformLatency::from_millis(20.0, 100.0),
            );
            let graph = Graph::random_outbound(300, 8, &mut rng_from_seed(seed ^ 7));
            let cfg = GossipConfig {
                fanout,
                ..GossipConfig::default()
            };
            let ids = build_network(&mut sim, &graph, cfg);
            sim.run_until(SimTime::from_secs(0.1));
            sim.invoke(ids[0], |n, ctx| n.publish(1, ctx));
            sim.run_until(SimTime::from_secs(30.0));
            let ratio = delivery_ratio(&sim, &ids, 1);
            (ratio, sim.stats().sent as f64 / 300.0)
        };
        let (f1, f4) = (run(1), run(4));
        assert!(f1.0 < 0.9, "fanout 1 dies out: {}", f1.0);
        assert!(f4.0 > 0.95, "fanout 4 blankets: {}", f4.0);
        assert!(f4.1 > f1.1, "coverage costs messages");
    }

    #[test]
    fn dissemination_latency_grows_logarithmically() {
        let (sim, ids) = run_broadcast(6, 400);
        let mut hops = Histogram::new();
        for &id in &ids {
            if let Some(&(_, h)) = sim.node(id).received.get(&1) {
                hops.record(h as f64);
            }
        }
        // log_fanout(400) is ~3.3; allow generous slack for randomness.
        assert!(hops.mean() < 12.0, "mean hops {}", hops.mean());
        assert!(hops.max() < 30.0);
    }

    #[test]
    fn duplicate_suppression_bounds_traffic() {
        let (sim, ids) = run_broadcast(4, 300);
        // Each node forwards at most once: <= n * fanout messages.
        assert!(sim.stats().sent <= (ids.len() as u64) * 4);
    }
}
