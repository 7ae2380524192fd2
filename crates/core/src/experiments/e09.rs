//! E9 — Selfish mining: the incentive mechanism is flawed.
//!
//! Paper (III-C Problem 1, citing Eyal & Sirer \[30\]): "Some recent
//! research work indicates that the incentive mechanism of Bitcoin is
//! furthermore flawed. They present an attack where a minority
//! colluding pool can obtain more revenue than the pool's fair share."
//!
//! Regenerates the paper's Figure-2-style curve (revenue vs. pool size
//! for several γ) from the Monte Carlo state machine, cross-checked
//! against the closed form.

use decent_chain::node::run_selfish_attack;
use decent_chain::selfish::{closed_form, profit_threshold, simulate};
use decent_sim::prelude::SimDuration;
use decent_sim::report::{fmt_f, fmt_pct};

use crate::report::{Expect, ExperimentReport, Table};
use crate::scenario::{Experiment, Param};

/// Experiment parameters.
#[derive(Clone, Debug)]
pub struct Config {
    /// Pool sizes (α) to sweep.
    pub alphas: Vec<f64>,
    /// Race-win propensities (γ) to sweep.
    pub gammas: Vec<f64>,
    /// Block discoveries per Monte Carlo run.
    pub blocks: u64,
    /// Selfish pool share (α) for the relay-network validation run.
    pub pool_share: f64,
    /// Base RNG seed.
    pub seed: u64,
}

impl Default for Config {
    fn default() -> Self {
        Config {
            alphas: vec![0.10, 0.20, 0.25, 0.30, 1.0 / 3.0, 0.40, 0.45],
            gammas: vec![0.0, 0.5, 1.0],
            blocks: 2_000_000,
            pool_share: 0.42,
            seed: 0xE9,
        }
    }
}

impl Experiment for Config {
    const ID: &'static str = "E9";
    const TITLE: &'static str =
        "Selfish mining: minority pools beat their fair share (III-C P1, [30])";
    /// Sweepable knobs. `pool_share` is the selfish-mining axis: it drives
    /// the relay-network validation the `E9.relay-network` claim checks, so
    /// sweeping it locates the share below which the attack stops paying on
    /// a real propagation network.
    const PARAMS: &'static [Param<Self>] = &[
        Param {
            name: "pool_share",
            help: "selfish pool share α in the relay-network validation (0.05-0.49)",
            get: |c| c.pool_share,
            set: |c, v| c.pool_share = v.clamp(0.05, 0.49),
        },
        Param {
            name: "blocks",
            help: "block discoveries per Monte Carlo run (min 10k)",
            get: |c| c.blocks as f64,
            set: |c, v| c.blocks = v.round().max(10_000.0) as u64,
        },
    ];

    /// A CI-sized configuration.
    fn quick() -> Self {
        Config {
            blocks: 300_000,
            ..Config::default()
        }
    }

    fn seed_mut(&mut self) -> Option<&mut u64> {
        Some(&mut self.seed)
    }

    fn run(&self) -> ExperimentReport {
        let mut report = Self::report();
        let mut max_dev: f64 = 0.0;
        for &gamma in &self.gammas {
            let mut t = Table::new(
                format!("Relative revenue vs. pool size (gamma = {gamma})"),
                &[
                    "pool size α",
                    "simulated share",
                    "closed form",
                    "fair share",
                    "profits?",
                ],
            );
            for (i, &alpha) in self.alphas.iter().enumerate() {
                let sim = simulate(
                    alpha,
                    gamma,
                    self.blocks,
                    self.seed ^ ((i as u64 + 1) << 8) ^ ((gamma * 64.0) as u64),
                );
                let analytic = closed_form(alpha, gamma);
                max_dev = max_dev.max((sim.attacker_share() - analytic).abs());
                t.row([
                    fmt_f(alpha),
                    fmt_pct(sim.attacker_share()),
                    fmt_pct(analytic),
                    fmt_pct(alpha),
                    (sim.attacker_share() > alpha).to_string(),
                ]);
            }
            report.table(t);
        }
        // Validation on the full relay network: gamma is not assumed but
        // emerges from block propagation.
        let (net_share, net_stale) = run_selfish_attack(
            self.pool_share,
            14,
            SimDuration::from_secs(60.0),
            SimDuration::from_days(if self.blocks > 1_000_000 { 6.0 } else { 2.0 }),
            self.seed ^ 0xE77,
        );
        let mut t_net = Table::new(
            format!(
                "Network-level validation ({:.0}% pool, gamma emergent)",
                self.pool_share * 100.0
            ),
            &["metric", "value"],
        );
        t_net.row(["selfish revenue share".to_string(), fmt_pct(net_share)]);
        t_net.row(["fair share".to_string(), fmt_pct(self.pool_share)]);
        t_net.row([
            "stale-block rate under attack".to_string(),
            fmt_pct(net_stale),
        ]);
        report.table(t_net);

        let mut t2 = Table::new(
            "Profitability thresholds",
            &["γ", "threshold α (analytic)", "meaning"],
        );
        for &gamma in &self.gammas {
            t2.row([
                fmt_f(gamma),
                fmt_f(profit_threshold(gamma)),
                if gamma == 0.0 {
                    "honest network: attack needs > 1/3"
                } else if gamma == 1.0 {
                    "attacker always wins races: any size profits"
                } else {
                    "partial race wins: threshold shrinks"
                }
                .to_string(),
            ]);
        }
        report.table(t2);

        let big_pool = simulate(0.40, 0.0, self.blocks, self.seed ^ 0xF00);
        let small_pool = simulate(0.25, 0.0, self.blocks, self.seed ^ 0xF01);
        report.check(
            "E9.forty-beats-fair",
            "a 40% pool beats its fair share",
            "a minority colluding pool obtains more than its fair share",
            format!("40% pool earns {}", fmt_pct(big_pool.attacker_share())),
            big_pool.attacker_share(),
            Expect::MoreThan(0.42),
        );
        report.check(
            "E9.one-third-threshold",
            "the γ=0 threshold sits at 1/3",
            "Eyal-Sirer threshold: (1-γ)/(3-2γ) = 1/3 at γ=0",
            format!(
                "25% pool earns {} (loses); 40% pool earns {} (wins)",
                fmt_pct(small_pool.attacker_share()),
                fmt_pct(big_pool.attacker_share())
            ),
            small_pool.attacker_share(),
            Expect::LessThan(0.25),
        );
        report.check(
            "E9.closed-form-match",
            "Monte Carlo matches the closed form",
            "(model validation)",
            format!("max |sim - analytic| = {}", fmt_f(max_dev)),
            max_dev,
            Expect::LessThan(0.02),
        );
        report.check_with(
            "E9.relay-network",
            "the attack survives a real relay network",
            "(gamma emerges from propagation instead of being assumed)",
            format!(
                "{:.0}% pool earns {} on the event-simulated network (stale rate {})",
                self.pool_share * 100.0,
                fmt_pct(net_share),
                fmt_pct(net_stale)
            ),
            net_share,
            Expect::MoreThan(0.44),
            net_stale > 0.01,
        );
        report
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_run_reproduces_selfish_mining() {
        let r = Config::quick().run();
        assert!(r.all_hold(), "{r}");
    }
}
