//! E1 — DHT lookup latency: eMule KAD vs. BitTorrent Mainline.
//!
//! Paper (II-A, citing Jiménez et al. \[20\]): "lookups were performed
//! within 5 seconds 90% of the time in eMule's Kad, but the median
//! lookup time was around a minute in both BitTorrent DHTs."
//!
//! The measured gap is driven by deployment pathologies, not protocol
//! differences: Mainline tables were full of unreachable (NATed) nodes
//! and clients used conservative sequential lookups with long RPC
//! timeouts. We simulate both operating points on the same Kademlia
//! implementation.

use decent_overlay::id::Key;
use decent_overlay::kademlia::{build_network, KadConfig};
use decent_sim::prelude::*;

use crate::report::{Expect, ExperimentReport, Table};
use crate::scenario::{Experiment, Param};

/// Experiment parameters.
#[derive(Clone, Debug)]
pub struct Config {
    /// Network size per deployment.
    pub nodes: usize,
    /// Lookups per deployment.
    pub lookups: usize,
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
            nodes: 1500,
            lookups: 400,
            seed: 0xE1,
            shards: 1,
        }
    }
}

struct Deployment {
    name: &'static str,
    kad: KadConfig,
    unresponsive: f64,
}

fn deployments() -> Vec<Deployment> {
    vec![
        Deployment {
            // eMule KAD: parallel lookups with snappy timeouts, and
            // clean routing tables — KAD verifies a contact with a
            // handshake before inserting it into a bucket (Steiner et
            // al.), so unreachable peers rarely pollute lookups.
            name: "eMule KAD",
            kad: KadConfig {
                k: 10,
                alpha: 3,
                rpc_timeout: SimDuration::from_secs(1.5),
                ..KadConfig::default()
            },
            unresponsive: 0.10,
        },
        Deployment {
            // Mainline BitTorrent: sequential lookups, long timeouts,
            // and routing tables dominated by unreachable NATed nodes
            // (Jiménez et al. measured well over half unreachable).
            name: "Mainline BT",
            kad: KadConfig {
                k: 8,
                alpha: 1,
                rpc_timeout: SimDuration::from_secs(5.0),
                ..KadConfig::default()
            },
            unresponsive: 0.65,
        },
    ]
}

/// Runs one deployment and returns the lookup-latency histogram plus
/// the engine's metrics snapshot.
fn run_deployment(cfg: &Config, dep: &Deployment, seed: u64) -> (Histogram, MetricsSnapshot) {
    let mut sim = Simulation::new(seed, UniformLatency::from_millis(30.0, 120.0));
    sim.set_shards(cfg.shards);
    let ids = build_network(&mut sim, cfg.nodes, &dep.kad, dep.unresponsive, 8, seed ^ 1);
    sim.run_until(SimTime::from_secs(1.0));
    let mut issued = 0usize;
    let mut i = 0usize;
    while issued < cfg.lookups {
        let origin = ids[i % ids.len()];
        i += 1;
        if !sim.node(origin).is_responsive() {
            continue; // NATed peers also look things up, but sampling
                      // responsive origins keeps the comparison clean
        }
        let target = Key::from_u64(0xD47 + issued as u64);
        sim.invoke(origin, |n, ctx| {
            n.start_lookup(target, false, ctx);
        });
        issued += 1;
        // Pace lookups so they do not all contend at once.
        let next = sim.now() + SimDuration::from_millis(250.0);
        sim.run_until(next);
    }
    sim.run_until(sim.now() + SimDuration::from_secs(300.0));
    let mut lat = Histogram::new();
    for &id in &ids {
        for r in &sim.node(id).results {
            lat.record(r.latency.as_secs());
        }
    }
    (lat, sim.metrics_snapshot())
}

impl Experiment for Config {
    const ID: &'static str = "E1";
    const TITLE: &'static str = "DHT lookup latency: eMule KAD vs. BitTorrent Mainline (II-A)";
    const PARAMS: &'static [Param<Self>] = &[
        Param {
            name: "nodes",
            help: "network size per deployment (min 16)",
            get: |c| c.nodes as f64,
            set: |c, v| c.nodes = v.round().max(16.0) as usize,
        },
        Param {
            name: "lookups",
            help: "lookups per deployment (min 1)",
            get: |c| c.lookups as f64,
            set: |c, v| c.lookups = v.round().max(1.0) as usize,
        },
    ];

    /// A CI-sized configuration.
    fn quick() -> Self {
        Config {
            nodes: 400,
            lookups: 120,
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
        let mut table = Table::new(
            "Lookup latency by deployment",
            &[
                "deployment",
                "lookups",
                "p50 (s)",
                "p90 (s)",
                "p99 (s)",
                "% ≤ 5 s",
            ],
        );
        let mut stats = Vec::new();
        for (d, dep) in deployments().iter().enumerate() {
            let (mut lat, metrics) = run_deployment(self, dep, self.seed ^ ((d as u64 + 1) << 8));
            report.absorb_metrics(metrics);
            let within_5s = lat.samples().iter().filter(|&&s| s <= 5.0).count() as f64
                / lat.count().max(1) as f64;
            table.row([
                dep.name.to_string(),
                lat.count().to_string(),
                fmt_f(lat.percentile(0.5)),
                fmt_f(lat.percentile(0.9)),
                fmt_f(lat.percentile(0.99)),
                fmt_pct(within_5s),
            ]);
            stats.push((lat.percentile(0.5), lat.percentile(0.9), within_5s));
        }
        report.table(table);
        let (kad_p50, _kad_p90, kad_within) = stats[0];
        let (bt_p50, _, _) = stats[1];
        report.check(
            "E1.kad-fast",
            "KAD is fast",
            "KAD lookups ≤ 5 s 90% of the time",
            format!("{} of KAD lookups ≤ 5 s", fmt_pct(kad_within)),
            kad_within,
            Expect::AtLeast(0.85),
        );
        report.check_with(
            "E1.mainline-slow",
            "Mainline is an order of magnitude slower",
            "Mainline median ≈ 1 min vs seconds on KAD",
            format!(
                "medians: KAD {}s vs Mainline {}s",
                fmt_f(kad_p50),
                fmt_f(bt_p50)
            ),
            bt_p50,
            Expect::AtLeast(10.0),
            bt_p50 >= 5.0 * kad_p50,
        );
        report
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_run_reproduces_the_gap() {
        let r = Config::quick().run();
        assert!(r.all_hold(), "{r}");
    }
}
