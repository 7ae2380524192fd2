//! E15 — Chain growth: full nodes vs. light clients.
//!
//! Paper (III-C Problem 1): "In a broadcast network where all nodes
//! validate transactions, and where the history of transactions grows,
//! each node requires more bandwidth, more storage, and more computing
//! power to cope with the flow. To avoid network shrinkage ... some
//! networks are retagging nodes as light nodes ... Full clients
//! validate transactions whereas light clients do not."

use decent_chain::node::{build_network, ChainNodeConfig, NetworkConfig};
use decent_chain::pow::PowParams;
use decent_sim::prelude::*;

use crate::report::{Expect, ExperimentReport, Table};
use crate::scenario::{Experiment, Param};

/// Experiment parameters.
#[derive(Clone, Debug)]
pub struct Config {
    /// Network size.
    pub nodes: usize,
    /// Simulated days of saturated chain activity.
    pub days: f64,
    /// Years to extrapolate.
    pub years: Vec<f64>,
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
            nodes: 60,
            days: 3.0,
            years: vec![1.0, 5.0, 10.0],
            seed: 0xE15,
            shards: 1,
        }
    }
}

impl Experiment for Config {
    const ID: &'static str = "E15";
    const TITLE: &'static str = "Resource growth: full nodes vs. light clients (III-C P1)";
    const PARAMS: &'static [Param<Self>] = &[
        Param {
            name: "nodes",
            help: "network size (min 8)",
            get: |c| c.nodes as f64,
            set: |c, v| c.nodes = v.round().max(8.0) as usize,
        },
        Param {
            name: "days",
            help: "simulated days of saturated chain activity (min 0.5)",
            get: |c| c.days,
            set: |c, v| c.days = v.max(0.5),
        },
    ];

    /// A CI-sized configuration.
    fn quick() -> Self {
        Config {
            nodes: 30,
            days: 1.0,
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
        let mut sim = Simulation::new(self.seed, ConstantLatency::from_millis(80.0));
        sim.set_shards(self.shards);
        let ncfg = NetworkConfig {
            nodes: self.nodes,
            miner_fraction: 0.2,
            light_fraction: 0.5,
            node: ChainNodeConfig {
                params: PowParams::bitcoin(),
                tx_rate: 1000.0, // saturated 1 MB blocks
                ..ChainNodeConfig::default()
            },
            ..NetworkConfig::default()
        };
        let ids = build_network(&mut sim, &ncfg, self.seed ^ 1);
        sim.run_until(SimTime::from_days(self.days));
        let full = ids
            .iter()
            .copied()
            .find(|&i| !sim.node(i).is_miner() && sim.node(i).storage_bytes() > 1_000_000)
            .or_else(|| ids.iter().copied().find(|&i| sim.node(i).is_miner()))
            .expect("a full node");
        let light = ids
            .iter()
            .copied()
            .find(|&i| sim.node(i).storage_bytes() < 1_000_000 && !sim.node(i).is_miner())
            .expect("a light node");
        let full_storage = sim.node(full).storage_bytes() as f64;
        let light_storage = sim.node(light).storage_bytes() as f64;
        let full_bw = sim.node(full).bytes_received as f64;
        let light_bw = sim.node(light).bytes_received as f64;
        let per_day_full = full_storage / self.days;
        let per_day_light = light_storage / self.days;

        let mut t = Table::new(
            "Measured over the simulated window",
            &[
                "node type",
                "storage",
                "storage/day",
                "block bytes received/day",
            ],
        );
        t.row([
            "full (validates)".to_string(),
            fmt_si(full_storage),
            fmt_si(per_day_full),
            fmt_si(full_bw / self.days),
        ]);
        t.row([
            "light (headers only)".to_string(),
            fmt_si(light_storage),
            fmt_si(per_day_light),
            fmt_si(light_bw / self.days),
        ]);
        report.table(t);

        let mut t2 = Table::new(
            "Extrapolated history size",
            &["years", "full node", "light client", "ratio"],
        );
        for &y in &self.years {
            let f = per_day_full * 365.25 * y;
            let l = per_day_light * 365.25 * y;
            t2.row([
                fmt_f(y),
                fmt_si(f),
                fmt_si(l),
                format!("{}x", fmt_si(f / l.max(1.0))),
            ]);
        }
        report.table(t2);

        let ten_year_gb = per_day_full * 365.25 * 10.0 / 1e9;
        report.absorb_metrics(sim.metrics_snapshot());
        report.check(
            "E15.history-growth",
            "full-node history grows without bound",
            "each node requires more bandwidth, storage and compute to cope",
            format!(
                "{} GB after 10 years of saturated 1 MB blocks",
                fmt_f(ten_year_gb)
            ),
            ten_year_gb,
            Expect::MoreThan(200.0),
        );
        report.check_with(
            "E15.light-client-shed",
            "light clients shed the cost by shedding validation",
            "full clients validate transactions whereas light clients do not",
            format!(
                "light client stores {}x less and receives {}x less",
                fmt_si(full_storage / light_storage.max(1.0)),
                fmt_si(full_bw / light_bw.max(1.0))
            ),
            full_storage,
            Expect::MoreThan(500.0 * light_storage),
            full_bw > 100.0 * light_bw,
        );
        report
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_run_reproduces_growth_gap() {
        let r = Config::quick().run();
        assert!(r.all_hold(), "{r}");
    }
}
