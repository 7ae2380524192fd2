//! E8 — Mining centralization and the death of desktop mining.
//!
//! Paper (III-C Problem 1): "In 2013 six mining pools controlled 75% of
//! overall Bitcoin hashing power. Nowadays it is almost impossible for
//! a normal user to mine bitcoins with a normal desktop computer."

use decent_chain::economics::{form_pools, Market, MarketConfig};
use decent_sim::metrics::top_k_share;
use decent_sim::report::{fmt_f, fmt_pct, fmt_si};

use crate::report::{Expect, ExperimentReport, Table};
use crate::scenario::{Experiment, Param};

/// Experiment parameters.
#[derive(Clone, Debug)]
pub struct Config {
    /// Market configuration (months, populations, price path).
    pub market: MarketConfig,
    /// Pools available for miners to join.
    pub pools: usize,
    /// Base RNG seed.
    pub seed: u64,
}

impl Default for Config {
    fn default() -> Self {
        Config {
            market: MarketConfig::default(),
            pools: 20,
            seed: 0xE8,
        }
    }
}

impl Experiment for Config {
    const ID: &'static str = "E8";
    const TITLE: &'static str = "Mining centralization: pools, farms, and dead desktops (III-C P1)";
    /// Sweepable knobs (reaching through to the market model).
    const PARAMS: &'static [Param<Self>] = &[
        Param {
            name: "pools",
            help: "pools available for miners to join (min 2)",
            get: |c| c.pools as f64,
            set: |c, v| c.pools = v.round().max(2.0) as usize,
        },
        Param {
            name: "months",
            help: "months of market evolution simulated (min 12)",
            get: |c| c.market.months as f64,
            set: |c, v| c.market.months = v.round().max(12.0) as usize,
        },
        Param {
            name: "hobbyists",
            help: "desktop miners at month 0 (min 10)",
            get: |c| c.market.hobbyists as f64,
            set: |c, v| c.market.hobbyists = v.round().max(10.0) as usize,
        },
        Param {
            name: "price_growth",
            help: "monthly BTC price growth factor (0.9-1.2)",
            get: |c| c.market.price_growth,
            set: |c, v| c.market.price_growth = v.clamp(0.9, 1.2),
        },
    ];

    /// A CI-sized configuration.
    fn quick() -> Self {
        Config {
            market: MarketConfig {
                months: 48,
                hobbyists: 800,
                ..MarketConfig::default()
            },
            ..Config::default()
        }
    }

    fn seed_mut(&mut self) -> Option<&mut u64> {
        Some(&mut self.seed)
    }

    fn run(&self) -> ExperimentReport {
        let mut report = Self::report();
        let mut market = Market::new(self.market.clone(), self.seed);
        let snaps = market.run();
        let mut t = Table::new(
            "Mining market over time",
            &[
                "month",
                "BTC price ($)",
                "hashrate (GH/s)",
                "farm top-6 share",
                "gini",
                "profitable hobbyists",
                "energy (TWh/yr)",
            ],
        );
        for s in snaps.iter().filter(|s| s.month % 6 == 0 || s.month == 1) {
            t.row([
                s.month.to_string(),
                fmt_f(s.price),
                fmt_si(s.total_hashrate_ghs),
                fmt_pct(s.top6_share),
                fmt_f(s.gini),
                s.profitable_hobbyists.to_string(),
                fmt_f(s.energy_twh_per_year),
            ]);
        }
        report.table(t);

        // Pool formation on top of the evolved farm distribution.
        let rates: Vec<f64> = market.active().map(|m| m.hashrate_ghs).collect();
        let pools = form_pools(&rates, self.pools, 30, 0.2, self.seed ^ 0x99);
        let pool6 = top_k_share(&pools, 6);
        let mut t2 = Table::new(
            "Pool shares after variance-seeking pooling",
            &["pool", "share"],
        );
        let mut sorted = pools.clone();
        sorted.sort_by(|a, b| b.total_cmp(a));
        let total: f64 = sorted.iter().sum();
        for (i, p) in sorted.iter().take(8).enumerate() {
            t2.row([format!("#{}", i + 1), fmt_pct(p / total)]);
        }
        report.table(t2);

        let first = &snaps[0];
        let last = snaps.last().expect("months > 0");
        report.check(
            "E8.pool-dominance",
            "six pools dominate",
            "in 2013 six pools controlled 75% of hashing power",
            format!("top-6 pools hold {}", fmt_pct(pool6)),
            pool6,
            Expect::MoreThan(0.6),
        );
        report.check(
            "E8.desktop-death",
            "desktop mining dies",
            "almost impossible to mine with a normal desktop computer",
            format!(
                "profitable hobbyists: {} -> {} of {}",
                first.profitable_hobbyists, last.profitable_hobbyists, self.market.hobbyists
            ),
            last.profitable_hobbyists as f64,
            Expect::LessThan(0.05 * self.market.hobbyists as f64),
        );
        // Note: end-of-run gini is not a robust concentration measure here —
        // it swings with the price path (a boom pulls in many similar-sized
        // young farms, which *lowers* gini even as the giants grow). The top-6
        // farm share rises monotonically on every stream, so that is the check.
        report.check_with(
            "E8.industrial-capital",
            "incentives attract industrial capital",
            "huge commercial BitFarms with specialized hardware emerged",
            format!(
                "hashrate grew {}x; top-6 farm share {} -> {}",
                fmt_f(last.total_hashrate_ghs / first.total_hashrate_ghs.max(1e-9)),
                fmt_pct(first.top6_share),
                fmt_pct(last.top6_share)
            ),
            last.total_hashrate_ghs,
            Expect::MoreThan(10.0 * first.total_hashrate_ghs),
            last.top6_share > first.top6_share + 0.1,
        );
        report
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_run_reproduces_centralization() {
        let r = Config::quick().run();
        assert!(r.all_hold(), "{r}");
    }
}
