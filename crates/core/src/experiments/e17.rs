//! E17 — Layer-2 payment channels: performance through centralization.
//!
//! Paper (III-C Problem 2): "many of the new and existing networks are
//! proposing more centralized designs to increase the overall
//! performance. The so-called layer 2 or off-chain solutions like
//! Lightning network (Bitcoin), Plasma (Ethereum) or EOS follow this
//! trend. In these cases, transactions are processed by a much smaller
//! set of peers (outside the core network) to increase performance."

use decent_chain::channels::{run_workload, Topology};
use decent_sim::report::{fmt_f, fmt_pct, fmt_si};

use crate::report::{Expect, ExperimentReport, Table};
use crate::scenario::{Experiment, Param};

/// Experiment parameters.
#[derive(Clone, Debug)]
pub struct Config {
    /// Participants in the channel network.
    pub participants: usize,
    /// Payments attempted.
    pub payments: u64,
    /// Channel funding per side.
    pub funding: f64,
    /// Payment amount.
    pub amount: f64,
    /// Base RNG seed.
    pub seed: u64,
}

impl Default for Config {
    fn default() -> Self {
        Config {
            participants: 500,
            payments: 50_000,
            funding: 200.0,
            amount: 1.0,
            seed: 0xE17,
        }
    }
}

impl Experiment for Config {
    const ID: &'static str = "E17";
    const TITLE: &'static str = "Layer-2 channels: throughput through centralization (III-C P2)";
    const PARAMS: &'static [Param<Self>] = &[
        Param {
            name: "participants",
            help: "participants in the channel network (min 20)",
            get: |c| c.participants as f64,
            set: |c, v| c.participants = v.round().max(20.0) as usize,
        },
        Param {
            name: "payments",
            help: "payments attempted (min 500)",
            get: |c| c.payments as f64,
            set: |c, v| c.payments = v.round().max(500.0) as u64,
        },
        Param {
            name: "funding",
            help: "channel funding per side (min 1)",
            get: |c| c.funding,
            set: |c, v| c.funding = v.max(1.0),
        },
        Param {
            name: "amount",
            help: "payment amount (min 0.01)",
            get: |c| c.amount,
            set: |c, v| c.amount = v.max(0.01),
        },
    ];

    /// A CI-sized configuration.
    fn quick() -> Self {
        Config {
            participants: 150,
            payments: 8_000,
            ..Config::default()
        }
    }

    fn seed_mut(&mut self) -> Option<&mut u64> {
        Some(&mut self.seed)
    }

    fn run(&self) -> ExperimentReport {
        let mut report = Self::report();
        let mut t = Table::new(
            "Channel-network workload (same payments, two topologies)",
            &[
                "topology",
                "on-chain txs",
                "off-chain payments",
                "amplification",
                "success rate",
                "top-5 hub share of routing",
                "routing gini",
            ],
        );
        let mut rows = Vec::new();
        for (name, topology) in [
            ("hub-and-spoke (5 hubs)", Topology::HubAndSpoke { hubs: 5 }),
            (
                "random egalitarian (4 ch/peer)",
                Topology::Random { channels_each: 4 },
            ),
        ] {
            let net = run_workload(
                self.participants,
                topology,
                self.funding,
                self.payments,
                self.amount,
                self.seed,
            );
            let success =
                net.payments_ok as f64 / (net.payments_ok + net.payments_failed).max(1) as f64;
            t.row([
                name.to_string(),
                net.onchain_txs.to_string(),
                fmt_si(net.payments_ok as f64),
                format!("{}x", fmt_f(net.amplification())),
                fmt_pct(success),
                fmt_pct(net.hub_share(5)),
                fmt_f(net.routing_gini()),
            ]);
            rows.push((net.amplification(), success, net.hub_share(5)));
        }
        report.table(t);

        let (hub_amp, hub_ok, hub_share) = rows[0];
        let (_flat_amp, flat_ok, flat_share) = rows[1];
        report.check(
            "E17.offchain-amplification",
            "off-chain processing multiplies throughput",
            "layer-2 increases performance by taking txs off the core network",
            format!("{}x payments per on-chain transaction", fmt_f(hub_amp)),
            hub_amp,
            Expect::MoreThan(20.0),
        );
        report.check(
            "E17.hub-concentration",
            "the price is a much smaller set of peers",
            "transactions are processed by a much smaller set of peers",
            format!(
                "5 hubs ({} of participants) forward {} of all payments",
                fmt_pct(5.0 / self.participants as f64),
                fmt_pct(hub_share)
            ),
            hub_share,
            Expect::MoreThan(0.9),
        );
        report.check_with(
            "E17.hub-efficiency",
            "hub topologies use the scarce on-chain capacity better",
            "(why users flock to hubs: fewer channels, same reach)",
            format!(
                "amplification {}x via hubs vs {}x on the egalitarian graph \
                 (success {} vs {}, hub share {} vs {})",
                fmt_f(hub_amp),
                fmt_f(_flat_amp),
                fmt_pct(hub_ok),
                fmt_pct(flat_ok),
                fmt_pct(hub_share),
                fmt_pct(flat_share)
            ),
            hub_amp,
            Expect::MoreThan(2.0 * _flat_amp),
            hub_ok >= flat_ok - 0.02,
        );
        report
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_run_reproduces_layer2_tradeoff() {
        let r = Config::quick().run();
        assert!(r.all_hold(), "{r}");
    }
}
