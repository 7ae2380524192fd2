//! E4 — Churn vs. lookup performance; stable servers as the baseline.
//!
//! Paper (II-B Problem 2): "P2P networks show high heterogeneity and
//! high degrees of churn ... this can cause performance problems and
//! latency. When one needs any kind of guaranteed quality of service
//! with stringent constraints such as millisecond response time ...
//! stable cloud servers have no rival in P2P networks."

use decent_overlay::id::Key;
use decent_overlay::kademlia::{build_network, KadConfig, KadNode};
use decent_sim::prelude::*;

use crate::report::{Expect, ExperimentReport, Table};
use crate::scenario::{Experiment, Param};

/// Experiment parameters.
#[derive(Clone, Debug)]
pub struct Config {
    /// Network size.
    pub nodes: usize,
    /// Lookups per churn level.
    pub lookups: usize,
    /// Mean session lengths to sweep (minutes); `None` = stable.
    pub sessions_mins: Vec<Option<f64>>,
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
            nodes: 800,
            lookups: 250,
            sessions_mins: vec![Some(10.0), Some(30.0), Some(120.0), None],
            seed: 0xE4,
            shards: 1,
        }
    }
}

struct Row {
    label: String,
    p50: f64,
    p99: f64,
    timeout_free: f64,
    metrics: MetricsSnapshot,
}

fn run_level(cfg: &Config, session: Option<f64>, lan: bool, seed: u64) -> Row {
    let mut sim: Simulation<KadNode> = if lan {
        Simulation::new(seed, ConstantLatency::from_millis(0.5))
    } else {
        Simulation::new(seed, UniformLatency::from_millis(30.0, 120.0))
    };
    sim.set_shards(cfg.shards);
    let kad = KadConfig {
        k: 10,
        alpha: 3,
        ..KadConfig::default()
    };
    let ids = build_network(&mut sim, cfg.nodes, &kad, 0.0, 8, seed ^ 3);
    if let Some(mins) = session {
        for &id in &ids {
            sim.set_churn(id, ChurnModel::kad_measured(SimDuration::from_mins(mins)));
        }
        // Let churn churn for a while so tables go stale realistically.
        sim.run_until(SimTime::from_mins(mins.min(30.0)));
    } else {
        sim.run_until(SimTime::from_secs(1.0));
    }
    let mut issued = 0;
    let mut i = 0;
    while issued < cfg.lookups {
        let origin = ids[i % ids.len()];
        i += 1;
        if !sim.is_online(origin) {
            continue;
        }
        let target = Key::from_u64(900_000 + issued as u64);
        sim.invoke(origin, |n, ctx| {
            n.start_lookup(target, false, ctx);
        });
        issued += 1;
        let next = sim.now() + SimDuration::from_millis(300.0);
        sim.run_until(next);
    }
    sim.run_until(sim.now() + SimDuration::from_secs(120.0));
    let mut lat = Histogram::new();
    let mut clean = 0usize;
    let mut total = 0usize;
    for &id in &ids {
        for r in &sim.node(id).results {
            lat.record(r.latency.as_secs());
            total += 1;
            if r.timeouts == 0 {
                clean += 1;
            }
        }
    }
    let label = match (session, lan) {
        (Some(m), _) => format!("P2P, mean session {m:.0} min"),
        (None, false) => "P2P, no churn".to_string(),
        (None, true) => "stable cloud servers (LAN)".to_string(),
    };
    Row {
        label,
        p50: lat.percentile(0.5),
        p99: lat.percentile(0.99),
        timeout_free: clean as f64 / total.max(1) as f64,
        metrics: sim.metrics_snapshot(),
    }
}

impl Experiment for Config {
    const ID: &'static str = "E4";
    const TITLE: &'static str = "Churn vs. performance; stable servers have no rival (II-B P2)";
    /// Sweepable knobs. `session_mins` is the churn axis the paper's claim
    /// hinges on: it drives the *churniest* level (the first entry of
    /// `sessions_mins`), which the claim checks compare against the stable
    /// baseline — sweeping it charts where the churn penalty fades.
    const PARAMS: &'static [Param<Self>] = &[
        Param {
            name: "nodes",
            help: "network size (min 16)",
            get: |c| c.nodes as f64,
            set: |c, v| c.nodes = v.round().max(16.0) as usize,
        },
        Param {
            name: "lookups",
            help: "lookups per churn level (min 1)",
            get: |c| c.lookups as f64,
            set: |c, v| c.lookups = v.round().max(1.0) as usize,
        },
        Param {
            name: "session_mins",
            help: "mean session length of the churniest level, minutes (min 1)",
            get: |c| c.sessions_mins[0].unwrap_or(0.0),
            set: |c, v| c.sessions_mins[0] = Some(v.max(1.0)),
        },
    ];

    /// A CI-sized configuration.
    fn quick() -> Self {
        Config {
            nodes: 300,
            lookups: 80,
            sessions_mins: vec![Some(10.0), Some(120.0), None],
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
            "Lookup latency under churn",
            &["deployment", "p50 (s)", "p99 (s)", "timeout-free lookups"],
        );
        let mut rows = Vec::new();
        for (i, &session) in self.sessions_mins.iter().enumerate() {
            let row = run_level(self, session, false, self.seed ^ ((i as u64 + 1) << 4));
            report.absorb_metrics(row.metrics.clone());
            t.row([
                row.label.clone(),
                fmt_f(row.p50),
                fmt_f(row.p99),
                fmt_pct(row.timeout_free),
            ]);
            rows.push(row);
        }
        // The cloud baseline: same protocol, stable LAN boxes.
        let cloud = run_level(self, None, true, self.seed ^ 0xC10D);
        report.absorb_metrics(cloud.metrics.clone());
        t.row([
            cloud.label.clone(),
            fmt_f(cloud.p50),
            fmt_f(cloud.p99),
            fmt_pct(cloud.timeout_free),
        ]);
        report.table(t);

        let churniest = &rows[0];
        let stable_p2p = rows.last().expect("at least one level");
        report.check_with(
            "E4.churn-tail-latency",
            "churn degrades tail latency",
            "churn causes performance problems and latency",
            format!(
                "p99 {}s at {:.0}-min sessions vs {}s with no churn",
                fmt_f(churniest.p99),
                self.sessions_mins[0].unwrap_or(0.0),
                fmt_f(stable_p2p.p99)
            ),
            churniest.p99,
            Expect::MoreThan(2.0 * stable_p2p.p99),
            churniest.timeout_free < stable_p2p.timeout_free,
        );
        report.check_with(
            "E4.cloud-millisecond",
            "cloud is millisecond-class",
            "stringent millisecond response times need stable servers",
            format!(
                "cloud p50 {}s vs best P2P p50 {}s",
                fmt_f(cloud.p50),
                fmt_f(stable_p2p.p50)
            ),
            cloud.p50,
            Expect::LessThan(0.05),
            cloud.p50 * 10.0 < stable_p2p.p50,
        );
        report
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_run_reproduces_churn_penalty() {
        let r = Config::quick().run();
        assert!(r.all_hold(), "{r}");
    }
}
