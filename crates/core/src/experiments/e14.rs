//! E14 — Forks are ephemeral; difficulty holds the block interval.
//!
//! Paper (III-A): "the blockchain may occasionally fork ... such
//! ephemeral forks quickly disappear" and "the difficulty target is
//! periodically adjusted in such a way that a new block is generated
//! every 10 minutes."

use decent_chain::node::{
    build_network, report as chain_report, ChainNode, ChainNodeConfig, NetworkConfig,
};
use decent_chain::pow::PowParams;
use decent_sim::prelude::*;

use crate::report::{Expect, ExperimentReport, Table};
use crate::scenario::{Experiment, Param};

/// Experiment parameters.
#[derive(Clone, Debug)]
pub struct Config {
    /// Network size.
    pub nodes: usize,
    /// Block intervals (seconds) to sweep for the fork-rate series.
    pub intervals_secs: Vec<f64>,
    /// Blocks to observe per interval level.
    pub blocks_per_level: u64,
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
            nodes: 80,
            intervals_secs: vec![5.0, 30.0, 120.0, 600.0],
            blocks_per_level: 250,
            seed: 0xE14,
            shards: 1,
        }
    }
}

fn run_level(cfg: &Config, interval: f64, seed: u64) -> (f64, f64, MetricsSnapshot) {
    let mut rng = rng_from_seed(seed);
    let net = RegionNet::sampled(cfg.nodes, &Region::BITCOIN_2019_DISTRIBUTION, &mut rng);
    let mut sim = Simulation::new(seed ^ 1, net);
    sim.set_shards(cfg.shards);
    let ncfg = NetworkConfig {
        nodes: cfg.nodes,
        miner_fraction: 0.3,
        node: ChainNodeConfig {
            params: PowParams {
                target_interval: SimDuration::from_secs(interval),
                ..PowParams::bitcoin()
            },
            tx_rate: 20.0,
            ..ChainNodeConfig::default()
        },
        ..NetworkConfig::default()
    };
    let ids = build_network(&mut sim, &ncfg, seed ^ 2);
    sim.run_until(SimTime::from_secs(interval * cfg.blocks_per_level as f64));
    let r = chain_report(&sim, ids[cfg.nodes - 1]);
    (r.stale_rate, r.mean_interval_secs, sim.metrics_snapshot())
}

/// Measures retarget convergence: the network starts with a difficulty
/// set for half its actual hashrate; returns mean block interval in the
/// first and in the last retarget window.
fn run_retarget(cfg: &Config, seed: u64) -> (f64, f64, f64, MetricsSnapshot) {
    let window = 72u64;
    let target = 120.0;
    // Build the network by hand so the genesis difficulty can be set
    // for *half* the real hashrate (the 2x surprise).
    let mut sim: Simulation<ChainNode> =
        Simulation::new(seed ^ 9, ConstantLatency::from_millis(100.0));
    sim.set_shards(cfg.shards);
    let genesis = decent_chain::block::Block::genesis(0.0);
    let graph = Graph::random_outbound(30, 6, &mut rng_from_seed(seed ^ 4));
    let params = PowParams {
        target_interval: SimDuration::from_secs(target),
        retarget_window: window,
        ..PowParams::bitcoin()
    };
    let wrong_difficulty = params.difficulty_for(1e6); // half the real power
    let ids: Vec<NodeId> = (0..30)
        .map(|i| {
            let node_cfg = ChainNodeConfig {
                params: params.clone(),
                hashrate: if i < 15 { 2e6 / 15.0 } else { 0.0 },
                initial_difficulty: wrong_difficulty,
                tx_rate: 5.0,
                ..ChainNodeConfig::default()
            };
            sim.add_node(ChainNode::new(
                node_cfg,
                graph.neighbors(i).to_vec(),
                genesis.clone(),
            ))
        })
        .collect();
    sim.run_until(SimTime::from_secs(target * 8.0 * window as f64));
    let view = &sim.node(ids[29]).view;
    let chain = view.best_chain();
    let mut mined: Vec<SimTime> = chain.iter().rev().skip(1).map(|b| b.mined_at).collect();
    mined.sort();
    let window = window as usize;
    let mean_between = |xs: &[SimTime]| -> f64 {
        if xs.len() < 2 {
            return 0.0;
        }
        (xs[xs.len() - 1].as_secs() - xs[0].as_secs()) / (xs.len() - 1) as f64
    };
    let first = mean_between(&mined[..window.min(mined.len())]);
    // Retargeting overshoots then damps; judge convergence over the
    // last two windows.
    let tail_start = mined.len().saturating_sub(2 * window);
    let last = mean_between(&mined[tail_start..]);
    (first, last, target, sim.metrics_snapshot())
}

impl Experiment for Config {
    const ID: &'static str = "E14";
    const TITLE: &'static str = "Fork rate vs. block interval; difficulty retargeting (III-A)";
    /// Sweepable knobs. `fastest_interval` moves the shortest block interval
    /// in the series — the one the fork-rate claim keys on.
    const PARAMS: &'static [Param<Self>] = &[
        Param {
            name: "nodes",
            help: "network size (min 8)",
            get: |c| c.nodes as f64,
            set: |c, v| c.nodes = v.round().max(8.0) as usize,
        },
        Param {
            name: "fastest_interval",
            help: "shortest target block interval swept, seconds (min 1)",
            get: |c| c.intervals_secs[0],
            set: |c, v| c.intervals_secs[0] = v.max(1.0),
        },
        Param {
            name: "blocks_per_level",
            help: "blocks observed per interval level (min 30)",
            get: |c| c.blocks_per_level as f64,
            set: |c, v| c.blocks_per_level = v.round().max(30.0) as u64,
        },
    ];

    /// A CI-sized configuration.
    fn quick() -> Self {
        Config {
            nodes: 40,
            intervals_secs: vec![5.0, 120.0, 600.0],
            blocks_per_level: 120,
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
            "Stale-block rate vs. target interval (planet-scale propagation)",
            &["target interval (s)", "measured interval (s)", "stale rate"],
        );
        let mut stales = Vec::new();
        for (i, &interval) in self.intervals_secs.iter().enumerate() {
            let (stale, mean, metrics) =
                run_level(self, interval, self.seed ^ ((i as u64 + 1) << 8));
            report.absorb_metrics(metrics);
            t.row([fmt_f(interval), fmt_f(mean), fmt_pct(stale)]);
            stales.push(stale);
        }
        report.table(t);

        let (first, last, target, retarget_metrics) = run_retarget(self, self.seed ^ 0xADA);
        report.absorb_metrics(retarget_metrics);
        let mut t2 = Table::new(
            "Retarget convergence after a 2x hashrate surprise",
            &["window", "mean interval (s)", "target (s)"],
        );
        t2.row(["first".to_string(), fmt_f(first), fmt_f(target)]);
        t2.row(["after retargets".to_string(), fmt_f(last), fmt_f(target)]);
        report.table(t2);

        report.check_with(
            "E14.fork-vs-interval",
            "forks grow as the interval shrinks toward propagation delay",
            "forks are occasional at 10-minute blocks (and would dominate otherwise)",
            format!(
                "stale rate {} at {}s vs {} at {}s",
                fmt_pct(stales[0]),
                self.intervals_secs[0],
                fmt_pct(*stales.last().expect("levels")),
                self.intervals_secs.last().expect("levels")
            ),
            stales[0],
            Expect::MoreThan(3.0 * stales.last().expect("levels")),
            *stales.last().unwrap() < 0.05,
        );
        report.check_with(
            "E14.retarget-converges",
            "retargeting restores the target interval",
            "difficulty is adjusted so a block appears every 10 minutes",
            format!(
                "first window {}s (fast), settled to {}s (target {}s)",
                fmt_f(first),
                fmt_f(last),
                fmt_f(target)
            ),
            first,
            Expect::LessThan(0.8 * target),
            (last - target).abs() < 0.3 * target,
        );
        report
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_run_reproduces_fork_behaviour() {
        let r = Config::quick().run();
        assert!(r.all_hold(), "{r}");
    }
}
