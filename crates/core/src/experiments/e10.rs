//! E10 — Bitcoin's energy consumption.
//!
//! Paper (III-B, citing The Economist \[28\]): "the Bitcoin energy
//! consumption peaked at 70 TWh in 2018, which is roughly what a
//! country like Austria consumes."

use decent_chain::economics::network_energy_twh_per_year;
use decent_sim::report::{fmt_f, fmt_si};

use crate::report::{Expect, ExperimentReport, Table};
use crate::scenario::{Experiment, Param};

/// Austria's annual electricity consumption, TWh (c. 2018).
pub const AUSTRIA_TWH: f64 = 70.0;

/// Experiment parameters.
#[derive(Clone, Debug)]
pub struct Config {
    /// Network hashrates to tabulate (hashes/s).
    pub hashrates: Vec<f64>,
    /// Fleet mix as `(share, J/GH)` rows.
    pub fleet: Vec<(f64, f64)>,
    /// Bitcoin's sustained transaction rate (for per-tx energy).
    pub tps: f64,
}

impl Default for Config {
    fn default() -> Self {
        Config {
            // 2016 -> peak-2018 hashrate trajectory.
            hashrates: vec![1.5e18, 10e18, 40e18, 60e18],
            // 2018 fleet: a majority of S9-class units (0.098 J/GH),
            // the rest older hardware, plus datacenter overhead folded
            // into the J/GH figures.
            fleet: vec![(0.6, 0.098), (0.4, 0.25)],
            tps: 3.5,
        }
    }
}

impl Experiment for Config {
    const ID: &'static str = "E10";
    const TITLE: &'static str = "Bitcoin energy consumption (III-B)";
    const PARAMS: &'static [Param<Self>] = &[
        Param {
            name: "tps",
            help: "sustained transaction rate used for per-tx energy (min 0.1)",
            get: |c| c.tps,
            set: |c, v| c.tps = v.max(0.1),
        },
        Param {
            name: "peak_hashrate",
            help: "peak network hashrate tabulated, hashes/s (min 1e15)",
            get: |c| *c.hashrates.last().expect("at least one hashrate"),
            set: |c, v| *c.hashrates.last_mut().expect("at least one hashrate") = v.max(1e15),
        },
    ];

    /// A CI-sized configuration (identical — this experiment is cheap).
    fn quick() -> Self {
        Config::default()
    }

    /// Closed-form arithmetic over the fleet mix: there is no RNG, so
    /// there is no seed, and `--seed` is visibly a no-op here.
    fn seed_mut(&mut self) -> Option<&mut u64> {
        None
    }

    fn run(&self) -> ExperimentReport {
        let mut report = Self::report();
        let mut t = Table::new(
            "Annualized network energy vs. hashrate",
            &[
                "hashrate (H/s)",
                "TWh/yr",
                "vs. Austria",
                "kWh per transaction",
            ],
        );
        let mut peak = 0.0;
        for &h in &self.hashrates {
            let twh = network_energy_twh_per_year(h, &self.fleet);
            peak = twh;
            let per_tx = twh * 1e9 / (self.tps * 365.25 * 86_400.0);
            t.row([
                fmt_si(h),
                fmt_f(twh),
                format!("{}x", fmt_f(twh / AUSTRIA_TWH)),
                fmt_f(per_tx),
            ]);
        }
        report.table(t);

        let per_tx_peak = peak * 1e9 / (self.tps * 365.25 * 86_400.0);
        report.check(
            "E10.austria-scale",
            "peak consumption is country-scale",
            "energy consumption peaked at ~70 TWh in 2018 (≈ Austria)",
            format!(
                "{} TWh/yr at peak hashrate ({}x Austria)",
                fmt_f(peak),
                fmt_f(peak / AUSTRIA_TWH)
            ),
            peak / AUSTRIA_TWH,
            Expect::Within { lo: 0.4, hi: 2.0 },
        );
        report.check(
            "E10.per-tx-energy",
            "per-transaction energy is absurd for a payment rail",
            "(implied by 70 TWh/yr at < 7 tx/s)",
            format!("{} kWh per transaction", fmt_f(per_tx_peak)),
            per_tx_peak,
            Expect::MoreThan(100.0),
        );
        report
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_run_reproduces_energy_scale() {
        let r = Config::quick().run();
        assert!(r.all_hold(), "{r}");
    }
}
