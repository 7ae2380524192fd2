//! E12 — Permissioned BFT performance vs. proof-of-work.
//!
//! Paper (IV): permissioned blockchains avoid "costly proof-of-work by
//! using different consensus algorithms such as crash fault-tolerant
//! (CFT) or byzantine fault tolerant (BFT) protocols, the latter based
//! on BFT-SMaRt", and "consensus or replication can be configured
//! between a subset of the nodes of the network".

use decent_bft::pbft::{saturation_run, PbftConfig};
use decent_bft::raft::{build_cluster, current_leader, RaftConfig};
use decent_chain::node::{build_network, report as chain_report, ChainNodeConfig, NetworkConfig};
use decent_chain::pow::PowParams;
use decent_sim::prelude::*;

use crate::report::{Expect, ExperimentReport, Table};
use crate::scenario::{Experiment, Param};

/// Experiment parameters.
#[derive(Clone, Debug)]
pub struct Config {
    /// PBFT cluster sizes to sweep.
    pub committee_sizes: Vec<usize>,
    /// Nodes in the PoW comparison network.
    pub chain_nodes: usize,
    /// Simulated hours for the PoW run.
    pub chain_hours: f64,
    /// Base RNG seed.
    pub seed: u64,
    /// Execution shards per simulation (1 = serial). Not a sweepable
    /// parameter and absent from reports: sharding never changes
    /// results, so it must never appear in canonical output.
    pub shards: usize,
}

impl Default for Config {
    fn default() -> Self {
        Config {
            committee_sizes: vec![4, 7, 16, 31, 64],
            chain_nodes: 80,
            chain_hours: 12.0,
            seed: 0xE12,
            shards: 1,
        }
    }
}

fn measure_raft(seed: u64, shards: usize) -> (f64, f64, MetricsSnapshot) {
    let mut sim = Simulation::new(seed, LanNet::datacenter());
    sim.set_shards(shards);
    let ids = build_cluster(&mut sim, &RaftConfig::default());
    sim.run_until(SimTime::from_secs(1.0));
    let _ = current_leader(&sim, &ids);
    let ops = 200_000u64;
    for &id in &ids {
        sim.node_mut(id)
            .submit_many(0..ops, SimTime::from_secs(1.0));
    }
    let horizon = 4.0;
    sim.run_until(SimTime::from_secs(1.0 + horizon));
    let mut lat = Histogram::new();
    let node = ids
        .iter()
        .map(|&i| sim.node(i))
        .max_by_key(|n| n.applied.len())
        .expect("nodes");
    for &(sub, app) in &node.applied {
        lat.record(app.saturating_since(sub).as_secs());
    }
    let tps = node.applied.len() as f64 / horizon;
    let p50 = lat.percentile(0.5);
    (tps, p50, sim.metrics_snapshot())
}

impl Experiment for Config {
    const ID: &'static str = "E12";
    const TITLE: &'static str = "Permissioned BFT/CFT vs. proof-of-work (IV, [34][35])";
    /// Sweepable knobs. `committee_max` drives the largest PBFT committee,
    /// which both throughput claims compare against.
    const PARAMS: &'static [Param<Self>] = &[
        Param {
            name: "committee_max",
            help: "largest PBFT committee size swept (min 4)",
            get: |c| *c.committee_sizes.last().expect("at least one size") as f64,
            set: |c, v| {
                *c.committee_sizes.last_mut().expect("at least one size") =
                    v.round().max(4.0) as usize
            },
        },
        Param {
            name: "chain_nodes",
            help: "nodes in the PoW comparison network (min 8)",
            get: |c| c.chain_nodes as f64,
            set: |c, v| c.chain_nodes = v.round().max(8.0) as usize,
        },
        Param {
            name: "chain_hours",
            help: "simulated hours for the PoW run (min 1)",
            get: |c| c.chain_hours,
            set: |c, v| c.chain_hours = v.max(1.0),
        },
    ];

    /// A CI-sized configuration.
    fn quick() -> Self {
        Config {
            committee_sizes: vec![4, 16, 64],
            chain_nodes: 40,
            chain_hours: 6.0,
            ..Config::default()
        }
    }

    fn seed_mut(&mut self) -> Option<&mut u64> {
        Some(&mut self.seed)
    }

    fn shards_mut(&mut self) -> Option<&mut usize> {
        Some(&mut self.shards)
    }

    fn run(&self) -> ExperimentReport {
        let mut report = Self::report();
        let mut t = Table::new(
            "Ordering throughput and commit latency",
            &["system", "replicas", "tx/s", "commit p50"],
        );
        let mut pbft_tps = Vec::new();
        for (i, &n) in self.committee_sizes.iter().enumerate() {
            let (tps, lat) = saturation_run(
                &PbftConfig {
                    n,
                    ..PbftConfig::default()
                },
                800_000 / n as u64,
                SimDuration::from_secs(2.0),
                self.seed ^ ((i as u64 + 1) << 8),
            );
            t.row([
                "PBFT".to_string(),
                n.to_string(),
                fmt_si(tps),
                format!("{:.1} ms", lat.p50 * 1e3),
            ]);
            pbft_tps.push(tps);
        }
        let (raft_tps, raft_p50, raft_metrics) = measure_raft(self.seed ^ 0x4A, self.shards);
        report.absorb_metrics(raft_metrics);
        t.row([
            "Raft (CFT)".to_string(),
            "5".to_string(),
            fmt_si(raft_tps),
            format!("{:.1} ms", raft_p50 * 1e3),
        ]);

        // The PoW comparison network.
        let mut rng = rng_from_seed(self.seed ^ 0x50);
        let net = RegionNet::sampled(
            self.chain_nodes,
            &Region::BITCOIN_2019_DISTRIBUTION,
            &mut rng,
        );
        let mut sim = Simulation::new(self.seed ^ 0x51, net);
        sim.set_shards(self.shards);
        let ncfg = NetworkConfig {
            nodes: self.chain_nodes,
            miner_fraction: 0.25,
            node: ChainNodeConfig {
                params: PowParams::bitcoin(),
                tx_rate: 1000.0,
                ..ChainNodeConfig::default()
            },
            ..NetworkConfig::default()
        };
        let ids = build_network(&mut sim, &ncfg, self.seed ^ 0x52);
        sim.run_until(SimTime::from_hours(self.chain_hours));
        let pow = chain_report(&sim, ids[self.chain_nodes - 1]);
        report.absorb_metrics(sim.metrics_snapshot());
        t.row([
            "PoW (Bitcoin-like)".to_string(),
            format!("{} (all validate)", self.chain_nodes),
            fmt_f(pow.tps),
            "~60 min (6 confirmations)".to_string(),
        ]);
        report.table(t);

        let first = pbft_tps[0];
        let last = *pbft_tps.last().expect("sizes");
        let biggest = *self.committee_sizes.last().expect("sizes");
        report.check(
            "E12.bft-committee-cost",
            "BFT throughput falls with committee size",
            "traditional BFT limits the number of participating entities",
            format!(
                "{} tx/s at n={} -> {} tx/s at n={}",
                fmt_si(first),
                self.committee_sizes[0],
                fmt_si(last),
                biggest
            ),
            first,
            Expect::MoreThan(2.0 * last),
        );
        report.check(
            "E12.bft-beats-pow",
            "even a large committee crushes PoW throughput",
            "permissioned blockchains avoid costly proof-of-work",
            format!(
                "PBFT n={biggest}: {} tx/s vs PoW {} tx/s ({}x)",
                fmt_si(last),
                fmt_f(pow.tps),
                fmt_si(last / pow.tps.max(0.1))
            ),
            last,
            Expect::MoreThan(100.0 * pow.tps),
        );
        report.structural(
            "E12.finality-gap",
            "commit latency: milliseconds vs an hour",
            "performance and finality motivate permissioned designs",
            "PBFT p50 in milliseconds; PoW needs ~6 blocks (~1 h) for confidence",
        );
        report
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_run_reproduces_bft_advantage() {
        let r = Config::quick().run();
        assert!(r.all_hold(), "{r}");
    }
}
