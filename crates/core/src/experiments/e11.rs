//! E11 — The scalability trilemma.
//!
//! Paper (III-C Problem 2, citing Buterin \[31\]): "a blockchain
//! technology can only address two of the three challenges:
//! scalability, decentralization, and security."
//!
//! We measure four design points with the same machinery used
//! elsewhere in the laboratory and score each on the three axes:
//! throughput (tx/s), decentralization (validators, open membership),
//! and security (fraction of total network resources an attacker must
//! control).

use decent_bft::pbft::{saturation_run, PbftConfig};
use decent_chain::node::{build_network, report as chain_report, ChainNodeConfig, NetworkConfig};
use decent_chain::pow::PowParams;
use decent_sim::prelude::*;

use crate::report::{Expect, ExperimentReport, Table};
use crate::scenario::{Experiment, Param};

/// Experiment parameters.
#[derive(Clone, Debug)]
pub struct Config {
    /// Nodes in the permissionless base chain.
    pub chain_nodes: usize,
    /// Simulated hours for the base chain.
    pub chain_hours: f64,
    /// Shard counts for the sharded variant.
    pub shards: usize,
    /// Committee size for the permissioned variant.
    pub committee: usize,
    /// Base RNG seed.
    pub seed: u64,
}

impl Default for Config {
    fn default() -> Self {
        Config {
            chain_nodes: 100,
            chain_hours: 12.0,
            shards: 16,
            committee: 16,
            seed: 0xE11,
        }
    }
}

struct DesignPoint {
    name: String,
    tps: f64,
    validators: usize,
    open: bool,
    /// Fraction of *total system* resources an attacker needs.
    attack_fraction: f64,
}

impl Experiment for Config {
    const ID: &'static str = "E11";
    const TITLE: &'static str = "The scalability trilemma (III-C P2, [31])";
    const PARAMS: &'static [Param<Self>] = &[
        Param {
            name: "chain_nodes",
            help: "nodes in the permissionless base chain (min 8)",
            get: |c| c.chain_nodes as f64,
            set: |c, v| c.chain_nodes = v.round().max(8.0) as usize,
        },
        Param {
            name: "chain_hours",
            help: "simulated hours for the base chain (min 1)",
            get: |c| c.chain_hours,
            set: |c, v| c.chain_hours = v.max(1.0),
        },
        Param {
            name: "shards",
            help: "shard count for the sharded variant (min 2)",
            get: |c| c.shards as f64,
            set: |c, v| c.shards = v.round().max(2.0) as usize,
        },
        Param {
            name: "committee",
            help: "committee size for the permissioned variant (min 4)",
            get: |c| c.committee as f64,
            set: |c, v| c.committee = v.round().max(4.0) as usize,
        },
    ];

    /// A CI-sized configuration.
    fn quick() -> Self {
        Config {
            chain_nodes: 40,
            chain_hours: 6.0,
            ..Config::default()
        }
    }

    fn seed_mut(&mut self) -> Option<&mut u64> {
        Some(&mut self.seed)
    }

    fn run(&self) -> ExperimentReport {
        let mut report = Self::report();

        // Base permissionless chain.
        let mut rng = rng_from_seed(self.seed);
        let net = RegionNet::sampled(
            self.chain_nodes,
            &Region::BITCOIN_2019_DISTRIBUTION,
            &mut rng,
        );
        let mut sim = Simulation::new(self.seed ^ 1, net);
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
        let ids = build_network(&mut sim, &ncfg, self.seed ^ 2);
        sim.run_until(SimTime::from_hours(self.chain_hours));
        let base = chain_report(&sim, ids[self.chain_nodes - 1]);
        report.absorb_metrics(sim.metrics_snapshot());

        // Permissioned committee.
        let (pbft_tps, _lat) = saturation_run(
            &PbftConfig {
                n: self.committee,
                ..PbftConfig::default()
            },
            400_000 / self.committee as u64,
            SimDuration::from_secs(2.0),
            self.seed ^ 3,
        );
        // Delegated / layer-2 style: 21 validators, measured the same way.
        let (dpos_tps, _lat21) = saturation_run(
            &PbftConfig {
                n: 21,
                ..PbftConfig::default()
            },
            400_000 / 21,
            SimDuration::from_secs(2.0),
            self.seed ^ 4,
        );

        let points = vec![
            DesignPoint {
                name: "permissionless PoW (Bitcoin-like)".to_string(),
                tps: base.tps,
                validators: self.chain_nodes,
                open: true,
                attack_fraction: 0.5,
            },
            DesignPoint {
                name: format!("sharded permissionless ({} shards)", self.shards),
                tps: base.tps * self.shards as f64,
                validators: self.chain_nodes,
                open: true,
                // One shard holds 1/k of the power; controlling 51% of a
                // single shard corrupts that shard's transactions.
                attack_fraction: 0.5 / self.shards as f64,
            },
            DesignPoint {
                name: format!("permissioned BFT committee (n={})", self.committee),
                tps: pbft_tps,
                validators: self.committee,
                open: false,
                attack_fraction: 1.0 / 3.0,
            },
            DesignPoint {
                name: "delegated / layer-2 (21 validators)".to_string(),
                tps: dpos_tps,
                validators: 21,
                open: false,
                attack_fraction: 1.0 / 3.0,
            },
        ];

        let mut t = Table::new(
            "Design points on the trilemma",
            &[
                "design",
                "tx/s",
                "validators",
                "open membership",
                "attack needs (fraction of system)",
            ],
        );
        for p in &points {
            t.row([
                p.name.clone(),
                fmt_si(p.tps),
                p.validators.to_string(),
                p.open.to_string(),
                fmt_pct(p.attack_fraction),
            ]);
        }
        report.table(t);

        // Trilemma check: call a point "scalable" if tps >= 1000, "decentralized"
        // if open with >= 50 validators, "secure" if attack fraction >= 1/3.
        let scores: Vec<(bool, bool, bool)> = points
            .iter()
            .map(|p| {
                (
                    p.tps >= 1000.0,
                    p.open && p.validators >= 50,
                    p.attack_fraction >= 1.0 / 3.0 - 1e-9,
                )
            })
            .collect();
        let any_all_three = scores.iter().any(|&(s, d, c)| s && d && c);
        let each_has_two = scores
            .iter()
            .filter(|&&(s, d, c)| (s as u8 + d as u8 + c as u8) >= 2)
            .count();
        report.check_with(
            "E11.no-triple-point",
            "no design point achieves all three",
            "a blockchain can only address two of scalability, decentralization, security",
            format!(
                "0 of {} designs scored scalable+decentralized+secure; {} scored two",
                points.len(),
                each_has_two
            ),
            each_has_two as f64,
            Expect::AtLeast(2.0),
            !any_all_three,
        );
        report.structural(
            "E11.sharding-tradeoff",
            "sharding trades security for throughput",
            "scalability is O(n) > O(c) only by shrinking per-transaction validation",
            format!(
                "{} shards: throughput x{}, attack threshold down to {}",
                self.shards,
                self.shards,
                fmt_pct(0.5 / self.shards as f64)
            ),
        );
        report
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_run_reproduces_trilemma() {
        let r = Config::quick().run();
        assert!(r.all_hold(), "{r}");
    }
}
