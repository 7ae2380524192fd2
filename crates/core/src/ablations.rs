//! Ablation studies for the design choices the simulators bake in.
//!
//! Each study sweeps one parameter that a protocol designer actually
//! chose (Kademlia's α, PBFT's batch size, gossip fanout, Bitcoin's
//! block size) and regenerates the trade-off curve that justified the
//! choice. The four unit tests below run them.

use decent_bft::pbft::{saturation_run, PbftConfig};
use decent_chain::node::{
    build_network as build_chain, report as chain_report, ChainNodeConfig, NetworkConfig,
};
use decent_chain::pow::PowParams;
use decent_overlay::gossip::{self, GossipConfig};
use decent_overlay::id::Key;
use decent_overlay::kademlia::{self, KadConfig};
use decent_sim::prelude::*;

/// Sweeps Kademlia's lookup parallelism α and reports
/// `(alpha, p50 latency s, mean RPCs per lookup)` rows.
///
/// More parallelism masks slow/dead peers at the price of extra RPCs —
/// the reason deployed clients picked α = 3.
pub fn kademlia_parallelism(
    nodes: usize,
    lookups: usize,
    unresponsive: f64,
    seed: u64,
) -> Vec<(usize, f64, f64)> {
    [1usize, 2, 3, 5]
        .iter()
        .map(|&alpha| {
            let mut sim = Simulation::new(
                seed ^ alpha as u64,
                UniformLatency::from_millis(30.0, 120.0),
            );
            let cfg = KadConfig {
                k: 10,
                alpha,
                ..KadConfig::default()
            };
            let ids = kademlia::build_network(&mut sim, nodes, &cfg, unresponsive, 8, seed ^ 99);
            sim.run_until(SimTime::from_secs(1.0));
            let mut issued = 0;
            let mut i = 0;
            while issued < lookups {
                let origin = ids[i % ids.len()];
                i += 1;
                if !sim.node(origin).is_responsive() {
                    continue;
                }
                let t = Key::from_u64(3000 + issued as u64);
                sim.invoke(origin, |n, ctx| {
                    n.start_lookup(t, false, ctx);
                });
                issued += 1;
                let next = sim.now() + SimDuration::from_millis(200.0);
                sim.run_until(next);
            }
            sim.run_until(sim.now() + SimDuration::from_secs(120.0));
            let mut lat = Histogram::new();
            let mut rpcs = Histogram::new();
            for &id in &ids {
                for r in &sim.node(id).results {
                    lat.record(r.latency.as_secs());
                    rpcs.record(r.rpcs as f64);
                }
            }
            (alpha, lat.percentile(0.5), rpcs.mean())
        })
        .collect()
}

/// Sweeps PBFT's batch size and reports `(batch, tx/s, p50 commit s)`.
///
/// Without batching the O(n²) vote traffic is paid per operation;
/// batching amortizes it — the difference between tens and tens of
/// thousands of operations per second.
pub fn pbft_batching(n: usize, seed: u64) -> Vec<(usize, f64, f64)> {
    [16usize, 64, 256, 1024]
        .iter()
        .map(|&batch| {
            let cfg = PbftConfig {
                n,
                batch_max: batch,
                ..PbftConfig::default()
            };
            let (tps, lat) = saturation_run(
                &cfg,
                200_000 / n as u64,
                SimDuration::from_secs(2.0),
                seed ^ batch as u64,
            );
            (batch, tps, lat.p50)
        })
        .collect()
}

/// Sweeps the gossip fanout and reports `(fanout, delivery ratio,
/// messages per node)` — the epidemic threshold in one table.
pub fn gossip_fanout(nodes: usize, seed: u64) -> Vec<(usize, f64, f64)> {
    (1usize..=6)
        .map(|fanout| {
            let mut sim = Simulation::new(
                seed ^ fanout as u64,
                UniformLatency::from_millis(20.0, 100.0),
            );
            let graph = Graph::random_outbound(nodes, 8, &mut rng_from_seed(seed ^ 7));
            let cfg = GossipConfig {
                fanout,
                ..GossipConfig::default()
            };
            let ids = gossip::build_network(&mut sim, &graph, cfg);
            sim.run_until(SimTime::from_secs(0.1));
            sim.invoke(ids[0], |n, ctx| n.publish(1, ctx));
            sim.run_until(SimTime::from_secs(30.0));
            let ratio = gossip::delivery_ratio(&sim, &ids, 1);
            let msgs = sim.stats().sent as f64 / nodes as f64;
            (fanout, ratio, msgs)
        })
        .collect()
}

/// The block-size debate: sweeps Bitcoin's block capacity at a fixed
/// 600 s interval and reports `(max txs per block, tx/s, stale rate)`.
///
/// Bigger blocks buy throughput linearly but propagate slower, so the
/// stale rate climbs — the trade-off behind the 1 MB limit wars.
pub fn block_size(nodes: usize, hours: f64, seed: u64) -> Vec<(u32, f64, f64)> {
    [500u32, 2_000, 16_000]
        .iter()
        .map(|&max_txs| {
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
            let ids = build_chain(&mut sim, &cfg, seed ^ 11);
            sim.run_until(SimTime::from_hours(hours));
            let r = chain_report(&sim, ids[nodes - 1]);
            (max_txs, r.tps, r.stale_rate)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parallelism_masks_timeouts() {
        let rows = kademlia_parallelism(250, 40, 0.4, 0xAB1);
        let alpha1 = rows[0];
        let alpha3 = rows[2];
        // α=3 is much faster than α=1 in a polluted network...
        assert!(
            alpha3.1 * 1.5 < alpha1.1,
            "alpha3 p50 {} vs alpha1 p50 {}",
            alpha3.1,
            alpha1.1
        );
        // ...but costs more RPCs.
        assert!(alpha3.2 > alpha1.2, "parallelism costs traffic");
    }

    #[test]
    fn batching_amortizes_vote_traffic() {
        let rows = pbft_batching(4, 0xAB2);
        let small = rows[0];
        let big = rows[3];
        assert!(
            big.1 > 5.0 * small.1,
            "batch {} gives {} tx/s, batch {} gives {} tx/s",
            small.0,
            small.1,
            big.0,
            big.1
        );
    }

    #[test]
    fn gossip_has_an_epidemic_threshold() {
        let rows = gossip_fanout(300, 0xAB3);
        let f1 = rows[0];
        let f4 = rows[3];
        assert!(f1.1 < 0.9, "fanout 1 dies out: {}", f1.1);
        assert!(f4.1 > 0.95, "fanout 4 blankets: {}", f4.1);
        assert!(f4.2 > f1.2, "coverage costs messages");
    }

    #[test]
    fn bigger_blocks_trade_forks_for_throughput() {
        let rows = block_size(40, 6.0, 0xAB4);
        let small = rows[0];
        let big = rows[2];
        assert!(big.1 > 5.0 * small.1, "throughput should scale with size");
        assert!(
            big.2 >= small.2,
            "stale rate must not fall with size: {} vs {}",
            big.2,
            small.2
        );
    }
}
