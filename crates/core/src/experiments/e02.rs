//! E2 — Free riding on Gnutella.
//!
//! Paper (II-B Problem 1, citing Adar & Huberman \[21\]): free riding was
//! extensively reported on Gnutella. The original study found that
//! about two thirds of peers share no files and that the top 1% of
//! sharing hosts serve roughly a third to a half of all responses.

use std::collections::HashSet;

use decent_overlay::flood::{build_network, FloodConfig};
use decent_sim::prelude::*;

use crate::report::{Expect, ExperimentReport, Table};
use crate::scenario::{Experiment, Param};

/// Experiment parameters.
#[derive(Clone, Debug)]
pub struct Config {
    /// Overlay size.
    pub nodes: usize,
    /// Number of flooded queries.
    pub queries: usize,
    /// Query TTL.
    pub ttl: u32,
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
            nodes: 2000,
            queries: 3000,
            ttl: 5,
            seed: 0xE2,
            shards: 1,
        }
    }
}

impl Experiment for Config {
    const ID: &'static str = "E2";
    const TITLE: &'static str = "Free riding on Gnutella (II-B P1)";
    const PARAMS: &'static [Param<Self>] = &[
        Param {
            name: "nodes",
            help: "overlay size (min 16)",
            get: |c| c.nodes as f64,
            set: |c, v| c.nodes = v.round().max(16.0) as usize,
        },
        Param {
            name: "queries",
            help: "flooded queries (min 1)",
            get: |c| c.queries as f64,
            set: |c, v| c.queries = v.round().max(1.0) as usize,
        },
        Param {
            name: "ttl",
            help: "query time-to-live in hops (1-16)",
            get: |c| c.ttl as f64,
            set: |c, v| c.ttl = v.round().clamp(1.0, 16.0) as u32,
        },
    ];

    /// A CI-sized configuration.
    fn quick() -> Self {
        Config {
            nodes: 500,
            queries: 500,
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
        let flood_cfg = FloodConfig::default();
        let mut sim = Simulation::new(self.seed, UniformLatency::from_millis(30.0, 120.0));
        sim.set_shards(self.shards);
        let ids = build_network(&mut sim, self.nodes, &flood_cfg, self.seed ^ 2);
        sim.run_until(SimTime::from_secs(0.1));
        let zipf = Zipf::new(flood_cfg.catalog_size, flood_cfg.popularity_exponent);
        for q in 0..self.queries as u64 {
            let origin = ids[(q as usize * 17) % ids.len()];
            let file = {
                let rng = sim.rng();
                zipf.sample_rank(rng) as u32
            };
            let ttl = self.ttl;
            sim.invoke(origin, |n, ctx| n.query(q, file, ttl, ctx));
            let next = sim.now() + SimDuration::from_millis(40.0);
            sim.run_until(next);
        }
        sim.run_until(sim.now() + SimDuration::from_secs(60.0));

        // Population and load statistics.
        let free_riders = ids.iter().filter(|&&i| sim.node(i).is_free_rider()).count();
        let mut served: Vec<f64> = ids
            .iter()
            .map(|&i| sim.node(i).hits_served as f64)
            .collect();
        let total_hits: f64 = served.iter().sum();
        served.sort_by(|a, b| b.total_cmp(a));
        let share_of_top = |frac: f64| -> f64 {
            let k = ((ids.len() as f64 * frac).ceil() as usize).max(1);
            if total_hits == 0.0 {
                0.0
            } else {
                served.iter().take(k).sum::<f64>() / total_hits
            }
        };
        // Adar & Huberman's headline number counts *files provided*: the
        // share of all shared file instances held by the top hosts.
        let mut libraries: Vec<f64> = ids
            .iter()
            .map(|&i| sim.node(i).shared_count() as f64)
            .collect();
        let total_instances: f64 = libraries.iter().sum();
        libraries.sort_by(|a, b| b.total_cmp(a));
        let files_top = |frac: f64| -> f64 {
            let k = ((ids.len() as f64 * frac).ceil() as usize).max(1);
            libraries.iter().take(k).sum::<f64>() / total_instances.max(1.0)
        };
        let answered: HashSet<u64> = ids
            .iter()
            .flat_map(|&i| sim.node(i).hits_received.iter().map(|&(q, _, _)| q))
            .collect();
        let success = answered.len() as f64 / self.queries as f64;
        let relay_load: f64 = ids
            .iter()
            .map(|&i| sim.node(i).queries_relayed as f64)
            .sum::<f64>()
            / self.queries as f64;

        let mut report = Self::report();
        let mut t = Table::new("Population and answer concentration", &["metric", "value"]);
        t.row(["peers".to_string(), self.nodes.to_string()]);
        t.row([
            "free riders (share nothing)".to_string(),
            fmt_pct(free_riders as f64 / ids.len() as f64),
        ]);
        t.row(["queries answered".to_string(), fmt_pct(success)]);
        t.row([
            "files provided by top 1% of peers".to_string(),
            fmt_pct(files_top(0.01)),
        ]);
        t.row([
            "answers served by top 1% of peers".to_string(),
            fmt_pct(share_of_top(0.01)),
        ]);
        t.row([
            "answers served by top 5% of peers".to_string(),
            fmt_pct(share_of_top(0.05)),
        ]);
        t.row([
            "answers served by top 25% of peers".to_string(),
            fmt_pct(share_of_top(0.25)),
        ]);
        t.row([
            "mean nodes relaying each query".to_string(),
            fmt_f(relay_load),
        ]);
        report.table(t);
        report.absorb_metrics(sim.metrics_snapshot());
        report.check(
            "E2.free-riders",
            "most peers share nothing",
            "~66-70% of Gnutella peers shared no files",
            fmt_pct(free_riders as f64 / ids.len() as f64),
            free_riders as f64 / ids.len() as f64,
            Expect::Within { lo: 0.55, hi: 0.8 },
        );
        report.check_with(
            "E2.top1-elite",
            "a tiny elite provides most content",
            "top 1% of hosts provide ~37% of all shared files (Adar & Huberman)",
            format!(
                "top 1% hold {} of file instances and serve {} of answers",
                fmt_pct(files_top(0.01)),
                fmt_pct(share_of_top(0.01))
            ),
            files_top(0.01),
            Expect::AtLeast(0.25),
            share_of_top(0.01) >= 0.1,
        );
        report.check(
            "E2.flood-cost",
            "flooding burdens everyone",
            "flooding is slow and inefficient (II)",
            format!("each query touches {} peers on average", fmt_f(relay_load)),
            relay_load,
            Expect::MoreThan(self.nodes as f64 * 0.3),
        );
        report
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_run_reproduces_free_riding() {
        let r = Config::quick().run();
        assert!(r.all_hold(), "{r}");
    }
}
