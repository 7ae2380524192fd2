//! E18 — The CryptoKitties incident: one viral dapp congests the chain.
//!
//! Paper (III-C Problem 3): "in 2017, a game called CryptoKitties
//! (built using smart contracts) went viral and traffic on Ethereum's
//! network rose sixfold provoking the failure of many transactions."

use decent_chain::feemarket::{simulate_congestion, FeeMarketConfig};
use decent_sim::report::{fmt_f, fmt_pct};

use crate::report::{Expect, ExperimentReport, Table};
use crate::scenario::{Experiment, Param};

/// Experiment parameters.
#[derive(Clone, Debug)]
pub struct Config {
    /// Fee-market configuration.
    pub market: FeeMarketConfig,
    /// Base RNG seed.
    pub seed: u64,
}

impl Default for Config {
    fn default() -> Self {
        Config {
            market: FeeMarketConfig::default(),
            seed: 0xE18,
        }
    }
}

impl Experiment for Config {
    const ID: &'static str = "E18";
    const TITLE: &'static str = "A viral dapp congests the whole chain (III-C P3, CryptoKitties)";
    /// Sweepable knobs (reaching through to the fee-market model).
    const PARAMS: &'static [Param<Self>] = &[
        Param {
            name: "viral_multiplier",
            help: "demand multiplier during the viral window (min 1)",
            get: |c| c.market.viral_multiplier,
            set: |c, v| c.market.viral_multiplier = v.max(1.0),
        },
        Param {
            name: "block_capacity",
            help: "transactions per block (min 10)",
            get: |c| c.market.block_capacity as f64,
            set: |c, v| c.market.block_capacity = v.round().max(10.0) as usize,
        },
        Param {
            name: "viral_blocks",
            help: "length of the viral window in blocks (min 10)",
            get: |c| c.market.viral_blocks as f64,
            set: |c, v| c.market.viral_blocks = v.round().max(10.0) as usize,
        },
    ];

    /// A CI-sized configuration.
    fn quick() -> Self {
        Config {
            market: FeeMarketConfig {
                warmup_blocks: 50,
                viral_blocks: 100,
                cooldown_blocks: 50,
                ..FeeMarketConfig::default()
            },
            ..Config::default()
        }
    }

    fn seed_mut(&mut self) -> Option<&mut u64> {
        Some(&mut self.seed)
    }

    fn run(&self) -> ExperimentReport {
        let mut report = Self::report();
        let mut r = simulate_congestion(&self.market, self.seed);
        let mut t = Table::new(
            "Fee market before / during / after the viral window",
            &[
                "phase",
                "submitted",
                "failed",
                "failure rate",
                "median fee paid",
            ],
        );
        let rows: Vec<(&str, &mut decent_chain::feemarket::PhaseStats)> = vec![
            ("before", &mut r.before),
            ("during (6x demand)", &mut r.during),
            ("after", &mut r.after),
        ];
        let mut stats = Vec::new();
        for (name, phase) in rows {
            t.row([
                name.to_string(),
                phase.submitted.to_string(),
                phase.failed.to_string(),
                fmt_pct(phase.failure_rate()),
                fmt_f(phase.median_paid_fee()),
            ]);
            stats.push((phase.failure_rate(), phase.median_paid_fee()));
        }
        report.table(t);

        // The counterfactual the paper implies: a provisioned cloud absorbs it.
        let provisioned = {
            let mut m = self.market.clone();
            m.block_capacity = (m.base_demand_per_block as f64 * m.viral_multiplier * 1.3) as usize;
            simulate_congestion(&m, self.seed ^ 1)
        };
        let mut t2 = Table::new(
            "Counterfactual: capacity provisioned for the spike (cloud-style)",
            &["phase", "failure rate"],
        );
        t2.row([
            "during (6x demand)".to_string(),
            fmt_pct(provisioned.during.failure_rate()),
        ]);
        report.table(t2);

        let (calm_fail, calm_fee) = stats[0];
        let (viral_fail, viral_fee) = stats[1];
        let (after_fail, _) = stats[2];
        report.check_with(
            "E18.viral-failures",
            "a sixfold spike fails many transactions",
            "traffic rose sixfold provoking the failure of many transactions",
            format!(
                "failure rate {} -> {} when demand multiplies by {}",
                fmt_pct(calm_fail),
                fmt_pct(viral_fail),
                self.market.viral_multiplier
            ),
            viral_fail,
            Expect::MoreThan(0.3),
            calm_fail < 0.05,
        );
        report.check(
            "E18.congestion-tax",
            "every unrelated user pays the congestion tax",
            "storing state on-chain becomes extremely expensive (III-C P4)",
            format!(
                "median fee paid: {} -> {}",
                fmt_f(calm_fee),
                fmt_f(viral_fee)
            ),
            viral_fee,
            Expect::MoreThan(2.0 * calm_fee),
        );
        report.check_with(
            "E18.no-elasticity",
            "the chain cannot scale out; a cloud can",
            "(the paper's contrast with elastic cloud services)",
            format!(
                "fixed capacity: {} failures during the spike; provisioned capacity: {}; post-fad recovery to {}",
                fmt_pct(viral_fail),
                fmt_pct(provisioned.during.failure_rate()),
                fmt_pct(after_fail)
            ),
            provisioned.during.failure_rate(),
            Expect::LessThan(0.02),
            after_fail < viral_fail / 2.0,
        );
        report
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_run_reproduces_the_incident() {
        let r = Config::quick().run();
        assert!(r.all_hold(), "{r}");
    }
}
