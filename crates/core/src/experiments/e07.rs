//! E7 — Transaction throughput: VISA vs. Bitcoin vs. Ethereum.
//!
//! Paper (III-C Problem 2): "While VISA is processing 24,000
//! transactions per second, Bitcoin can process between 3.3 and 7
//! transactions per second, and Ethereum around 15 per second. ...
//! VISA can rely on a smaller pool of cloud servers that partition
//! traffic and handle tons of transactions per second."
//!
//! Bitcoin and Ethereum are simulated on the planet-scale relay
//! network; VISA is simulated as what the paper says it is — a
//! shared-nothing partitioned cluster of stable servers.

use decent_chain::node::{build_network, report as chain_report, ChainNodeConfig, NetworkConfig};
use decent_chain::pow::PowParams;
use decent_sim::prelude::*;

use crate::report::{Expect, ExperimentReport, Table};
use crate::scenario::{Experiment, Param};

/// Experiment parameters.
#[derive(Clone, Debug)]
pub struct Config {
    /// Nodes in each blockchain network.
    pub chain_nodes: usize,
    /// Simulated hours for the Bitcoin-like run.
    pub bitcoin_hours: f64,
    /// Simulated minutes for the Ethereum-like run.
    pub ethereum_mins: f64,
    /// OLTP shards in the "VISA" cluster.
    pub oltp_shards: usize,
    /// Base RNG seed.
    pub seed: u64,
}

impl Default for Config {
    fn default() -> Self {
        Config {
            chain_nodes: 120,
            bitcoin_hours: 24.0,
            ethereum_mins: 90.0,
            oltp_shards: 64,
            seed: 0xE7,
        }
    }
}

fn run_chain(
    cfg: &Config,
    params: PowParams,
    max_block_txs: u32,
    horizon: SimDuration,
    seed: u64,
) -> (f64, f64, MetricsSnapshot) {
    let mut rng = rng_from_seed(seed);
    let net = RegionNet::sampled(
        cfg.chain_nodes,
        &Region::BITCOIN_2019_DISTRIBUTION,
        &mut rng,
    );
    let mut sim = Simulation::new(seed ^ 7, net);
    let ncfg = NetworkConfig {
        nodes: cfg.chain_nodes,
        miner_fraction: 0.25,
        total_hashrate: 1e6,
        node: ChainNodeConfig {
            params,
            max_block_txs,
            tx_rate: 1000.0, // offered load far above capacity
            ..ChainNodeConfig::default()
        },
        ..NetworkConfig::default()
    };
    let ids = build_network(&mut sim, &ncfg, seed ^ 8);
    sim.run_until(SimTime::ZERO + horizon);
    let r = chain_report(&sim, ids[cfg.chain_nodes - 1]);
    (r.tps, r.stale_rate, sim.metrics_snapshot())
}

/// A shard in the partitioned OLTP cluster (the "VISA" model).
#[derive(Debug, Default)]
struct OltpShard {
    busy_until: SimTime,
    served: u64,
}

impl Node for OltpShard {
    type Msg = u32; // a transaction of ~x hundred bytes

    fn on_message(&mut self, _from: NodeId, _msg: u32, ctx: &mut Context<'_, u32>) {
        // 2.5 ms of CPU per transaction, FIFO.
        let start = self.busy_until.max(ctx.now());
        self.busy_until = start + SimDuration::from_micros(2500.0);
        self.served += 1;
    }
}

/// Simulates the partitioned cluster at saturation and returns TPS.
fn run_oltp(cfg: &Config, horizon: SimDuration, seed: u64) -> (f64, MetricsSnapshot) {
    let mut sim: Simulation<OltpShard> = Simulation::new(seed, ConstantLatency::from_millis(0.5));
    let shards: Vec<NodeId> = (0..cfg.oltp_shards)
        .map(|_| sim.add_node(OltpShard::default()))
        .collect();
    // Saturating open load, hash-partitioned across shards.
    let per_shard_capacity = 400.0; // 1 / 2.5ms
    let offered = per_shard_capacity * cfg.oltp_shards as f64 * 1.5;
    let total = (offered * horizon.as_secs()) as u64;
    // One queue entry for every arrival, evenly spaced and dealt round
    // robin.
    let targets = shards.clone();
    sim.inject_stream(total, move |i| {
        let shard = targets[(i % targets.len() as u64) as usize];
        (shard, 1, SimDuration::from_secs(i as f64 / offered))
    });
    sim.run_until(SimTime::ZERO + horizon);
    let served: u64 = shards.iter().map(|&s| sim.node(s).served).sum();
    (served as f64 / horizon.as_secs(), sim.metrics_snapshot())
}

impl Experiment for Config {
    const ID: &'static str = "E7";
    const TITLE: &'static str = "Throughput: VISA vs. Bitcoin vs. Ethereum (III-C P2)";
    const PARAMS: &'static [Param<Self>] = &[
        Param {
            name: "chain_nodes",
            help: "nodes in each blockchain network (min 8)",
            get: |c| c.chain_nodes as f64,
            set: |c, v| c.chain_nodes = v.round().max(8.0) as usize,
        },
        Param {
            name: "bitcoin_hours",
            help: "simulated hours for the Bitcoin-like run (min 1)",
            get: |c| c.bitcoin_hours,
            set: |c, v| c.bitcoin_hours = v.max(1.0),
        },
        Param {
            name: "ethereum_mins",
            help: "simulated minutes for the Ethereum-like run (min 5)",
            get: |c| c.ethereum_mins,
            set: |c, v| c.ethereum_mins = v.max(5.0),
        },
        Param {
            name: "oltp_shards",
            help: "OLTP shards in the VISA cluster (min 1)",
            get: |c| c.oltp_shards as f64,
            set: |c, v| c.oltp_shards = v.round().max(1.0) as usize,
        },
    ];

    /// A CI-sized configuration.
    fn quick() -> Self {
        Config {
            chain_nodes: 50,
            bitcoin_hours: 8.0,
            ethereum_mins: 30.0,
            oltp_shards: 32,
            ..Config::default()
        }
    }

    fn seed_mut(&mut self) -> Option<&mut u64> {
        Some(&mut self.seed)
    }

    fn run(&self) -> ExperimentReport {
        let mut report = Self::report();
        let (btc_tps, btc_stale, btc_metrics) = run_chain(
            self,
            PowParams::bitcoin(),
            2000,
            SimDuration::from_hours(self.bitcoin_hours),
            self.seed ^ 0x100,
        );
        let (eth_tps, eth_stale, eth_metrics) = run_chain(
            self,
            PowParams::ethereum(),
            200, // ~gas-limited block of ~200 txs every 13 s
            SimDuration::from_mins(self.ethereum_mins),
            self.seed ^ 0x200,
        );
        let (visa_tps, visa_metrics) =
            run_oltp(self, SimDuration::from_secs(30.0), self.seed ^ 0x300);
        report.absorb_metrics(btc_metrics);
        report.absorb_metrics(eth_metrics);
        report.absorb_metrics(visa_metrics);

        let mut t = Table::new(
            "Sustained transaction throughput",
            &["system", "architecture", "tx/s", "stale blocks"],
        );
        t.row([
            "Bitcoin (sim)".to_string(),
            "global broadcast + PoW, 1 MB / 600 s".to_string(),
            fmt_f(btc_tps),
            fmt_pct(btc_stale),
        ]);
        t.row([
            "Ethereum-like (sim)".to_string(),
            "global broadcast + PoW, gas-limited / 13 s".to_string(),
            fmt_f(eth_tps),
            fmt_pct(eth_stale),
        ]);
        t.row([
            format!("VISA-like (sim, {} shards)", self.oltp_shards),
            "shared-nothing partitioned cloud".to_string(),
            fmt_si(visa_tps),
            "n/a".to_string(),
        ]);
        t.row([
            "paper's figures".to_string(),
            "—".to_string(),
            "3.3-7 / ~15 / 24k".to_string(),
            "—".to_string(),
        ]);
        report.table(t);

        report.check(
            "E7.btc-band",
            "Bitcoin lands in the 3.3-7 tx/s band",
            "Bitcoin can process between 3.3 and 7 tx/s",
            format!("{} tx/s", fmt_f(btc_tps)),
            btc_tps,
            Expect::Within { lo: 2.5, hi: 8.0 },
        );
        report.check(
            "E7.eth-band",
            "Ethereum lands around 15 tx/s",
            "Ethereum processes around 15 tx/s",
            format!("{} tx/s", fmt_f(eth_tps)),
            eth_tps,
            Expect::Within { lo: 8.0, hi: 25.0 },
        );
        report.check(
            "E7.visa-gap",
            "partitioned cloud is three orders of magnitude faster",
            "VISA processes 24,000 tx/s on partitioned stable servers",
            format!(
                "{} tx/s, {}x Bitcoin",
                fmt_si(visa_tps),
                fmt_si(visa_tps / btc_tps.max(0.1))
            ),
            visa_tps,
            Expect::MoreThan(1000.0 * btc_tps),
        );
        report
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_run_reproduces_throughput_gap() {
        let r = Config::quick().run();
        assert!(r.all_hold(), "{r}");
    }
}
