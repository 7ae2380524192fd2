//! E13 — Edge-centric computing with permissioned trust vs. the
//! centralized cloud (the quantitative version of Fig. 1).
//!
//! Paper (V): "Control must be at the edge ... modern services are
//! data-intensive and latency-sensitive, sometimes making a
//! centralized cloud a poor match for them. ... The level of trust and
//! the speed needed by decentralized edge services may be achieved
//! through permissioned blockchains."

use decent_bft::ledger::{build_network as build_fabric, Channel, FabricConfig};
use decent_edge::service::{run_workload, EdgeConfig, Strategy};
use decent_sim::prelude::*;

use crate::report::{Expect, ExperimentReport, Table};
use crate::scenario::{Experiment, Param};

/// Experiment parameters.
#[derive(Clone, Debug)]
pub struct Config {
    /// Devices per region.
    pub devices_per_region: usize,
    /// Requests per device.
    pub requests_per_device: usize,
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
            devices_per_region: 120,
            requests_per_device: 5,
            seed: 0xE13,
            shards: 1,
        }
    }
}

/// Measures the one-time federation-join cost on the permissioned
/// ledger (a channel transaction committing on all peers).
fn federation_join_ms(seed: u64, shards: usize) -> (f64, MetricsSnapshot) {
    let mut sim = Simulation::new(seed, LanNet::datacenter());
    sim.set_shards(shards);
    let cfg = FabricConfig::default();
    let channels = vec![Channel {
        id: 1,
        orgs: vec![0, 1],
    }];
    let net = build_fabric(&mut sim, &cfg, &channels);
    sim.run_until(SimTime::from_secs(0.01));
    let gw = net.gateway(1);
    sim.invoke(gw, |n, ctx| n.submit(1, 1, ctx));
    sim.run_until(SimTime::from_secs(5.0));
    let peer = net.channel_peers(1)[0];
    let c = sim.node(peer).committed()[0];
    let ms = c.committed.saturating_since(c.submitted).as_millis();
    (ms, sim.metrics_snapshot())
}

impl Experiment for Config {
    const ID: &'static str = "E13";
    const TITLE: &'static str =
        "Edge-centric + permissioned trust vs. centralized cloud (V, Fig. 1)";
    const PARAMS: &'static [Param<Self>] = &[
        Param {
            name: "devices_per_region",
            help: "edge devices per region (min 8)",
            get: |c| c.devices_per_region as f64,
            set: |c, v| c.devices_per_region = v.round().max(8.0) as usize,
        },
        Param {
            name: "requests_per_device",
            help: "requests issued per device (min 1)",
            get: |c| c.requests_per_device as f64,
            set: |c, v| c.requests_per_device = v.round().max(1.0) as usize,
        },
    ];

    /// A CI-sized configuration.
    fn quick() -> Self {
        Config {
            devices_per_region: 40,
            requests_per_device: 3,
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
        let mut rows = Vec::new();
        let mut t = Table::new(
            "Service quality by architecture",
            &[
                "architecture",
                "p50 (ms)",
                "p99 (ms)",
                "WAN traffic (MB)",
                "control locality",
            ],
        );
        for strategy in [Strategy::EdgeCentric, Strategy::CentralizedCloud] {
            let ecfg = EdgeConfig {
                strategy,
                devices_per_region: self.devices_per_region,
                shards: self.shards,
                ..EdgeConfig::default()
            };
            let (mut lat, wan, locality) = run_workload(&ecfg, self.requests_per_device, self.seed);
            t.row([
                match strategy {
                    Strategy::EdgeCentric => "edge-centric + permissioned chain",
                    Strategy::CentralizedCloud => "centralized cloud + TTP",
                }
                .to_string(),
                fmt_f(lat.percentile(0.5)),
                fmt_f(lat.percentile(0.99)),
                fmt_f(wan as f64 / 1e6),
                fmt_pct(locality),
            ]);
            rows.push((lat.percentile(0.5), lat.percentile(0.99), wan, locality));
        }
        report.table(t);

        let (join_ms, join_metrics) = federation_join_ms(self.seed ^ 0xFED, self.shards);
        report.absorb_metrics(join_metrics);
        let mut t2 = Table::new("Trust establishment cost", &["mechanism", "cost", "paid"]);
        t2.row([
            "federation join via permissioned chain".to_string(),
            format!("{} ms", fmt_f(join_ms)),
            "once per member".to_string(),
        ]);
        t2.row([
            "TTP credential check".to_string(),
            "one cloud round trip (~60-300 ms)".to_string(),
            "every cold session".to_string(),
        ]);
        report.table(t2);

        let (edge_p50, _, edge_wan, edge_local) = rows[0];
        let (cloud_p50, _, cloud_wan, cloud_local) = rows[1];
        report.check(
            "E13.edge-latency",
            "edge placement wins on latency",
            "latency-sensitive services are a poor match for a centralized cloud",
            format!(
                "p50 {} ms (edge) vs {} ms (cloud)",
                fmt_f(edge_p50),
                fmt_f(cloud_p50)
            ),
            cloud_p50,
            Expect::MoreThan(4.0 * edge_p50),
        );
        report.check_with(
            "E13.control-locality",
            "control moves to the edge",
            "control must be at the edge",
            format!(
                "locality {} (edge) vs {} (cloud); WAN {} MB vs {} MB",
                fmt_pct(edge_local),
                fmt_pct(cloud_local),
                fmt_f(edge_wan as f64 / 1e6),
                fmt_f(cloud_wan as f64 / 1e6)
            ),
            edge_local,
            Expect::MoreThan(0.9),
            cloud_local < 0.1 && cloud_wan > 5 * edge_wan.max(1),
        );
        report.check(
            "E13.trust-amortizes",
            "permissioned trust amortizes",
            "trust through permissioned blockchains enables decentralized control",
            format!(
                "{} ms once per member vs a TTP round trip on every cold session",
                fmt_f(join_ms)
            ),
            join_ms,
            Expect::LessThan(1000.0),
        );
        report
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_run_reproduces_edge_advantage() {
        let r = Config::quick().run();
        assert!(r.all_hold(), "{r}");
    }
}
