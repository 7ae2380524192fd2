//! E16 — Nothing-at-stake: proof-of-X does not fix the waste problem.
//!
//! Paper (III-C Problem 2, citing Houy \[32\]): "Alternative approaches
//! based on proof-of-X, where X could be stake, space, activity, etc.
//! seem not be able to fully address this problem so far" — the cited
//! paper being "It will cost you nothing to 'kill' a proof-of-stake
//! crypto-currency".

use decent_chain::pos::{attack_cost_units, simulate_pos_attack, simulate_pow_attack, PosAttack};
use decent_sim::report::{fmt_pct, fmt_si};

use crate::report::{Expect, ExperimentReport, Table};
use crate::scenario::{Experiment, Param};

/// Experiment parameters.
#[derive(Clone, Debug)]
pub struct Config {
    /// Attacker stake/hashpower share.
    pub attacker: f64,
    /// Fractions of rational (multi-minting) stake to sweep.
    pub rational_fractions: Vec<f64>,
    /// Monte Carlo attempts per point.
    pub attempts: u64,
    /// Base RNG seed.
    pub seed: u64,
}

impl Default for Config {
    fn default() -> Self {
        Config {
            attacker: 0.10,
            rational_fractions: vec![0.0, 0.25, 0.5, 0.75, 0.95],
            attempts: 20_000,
            seed: 0xE16,
        }
    }
}

impl Experiment for Config {
    const ID: &'static str = "E16";
    const TITLE: &'static str =
        "Nothing-at-stake: 'killing' proof-of-stake is free (III-C P2, [32])";
    const PARAMS: &'static [Param<Self>] = &[
        Param {
            name: "attacker",
            help: "attacker stake/hashpower share (0.01-0.45)",
            get: |c| c.attacker,
            set: |c, v| c.attacker = v.clamp(0.01, 0.45),
        },
        Param {
            name: "attempts",
            help: "Monte Carlo attempts per point (min 500)",
            get: |c| c.attempts as f64,
            set: |c, v| c.attempts = v.round().max(500.0) as u64,
        },
    ];

    /// A CI-sized configuration.
    fn quick() -> Self {
        Config {
            rational_fractions: vec![0.0, 0.5, 0.95],
            attempts: 5_000,
            ..Config::default()
        }
    }

    fn seed_mut(&mut self) -> Option<&mut u64> {
        Some(&mut self.seed)
    }

    fn run(&self) -> ExperimentReport {
        let mut report = Self::report();
        let mut t = Table::new(
            "Probability of reversing a 6-confirmed payment (10% attacker)",
            &[
                "system",
                "multi-minting stake",
                "reversal probability",
                "marginal attack cost",
            ],
        );
        let pow = simulate_pow_attack(self.attacker, 6, self.attempts, self.seed ^ 1);
        t.row([
            "PoW".to_string(),
            "impossible (hashes are exclusive)".to_string(),
            fmt_pct(pow),
            fmt_si(attack_cost_units(true, 600, 1e12)),
        ]);
        let mut curve = Vec::new();
        for (i, &frac) in self.rational_fractions.iter().enumerate() {
            let out = simulate_pos_attack(
                &PosAttack {
                    attacker_stake: self.attacker,
                    rational_fraction: frac,
                    ..PosAttack::default()
                },
                self.attempts,
                self.seed ^ ((i as u64 + 2) << 8),
            );
            t.row([
                "PoS".to_string(),
                fmt_pct(frac),
                fmt_pct(out.reversal_probability()),
                fmt_si(attack_cost_units(false, 600, 1e12)),
            ]);
            curve.push(out.reversal_probability());
        }
        report.table(t);

        let disciplined = curve[0];
        let rational = *curve.last().expect("points");
        report.check_with(
            "E16.nothing-at-stake",
            "PoS security rests on unenforceable discipline",
            "it costs nothing to 'kill' a proof-of-stake currency (Houy)",
            format!(
                "10% attacker reverses {} of payments with honest stake but {} once {} of stake multi-mints — at zero marginal cost",
                fmt_pct(disciplined),
                fmt_pct(rational),
                fmt_pct(*self.rational_fractions.last().expect("points"))
            ),
            rational,
            Expect::MoreThan(0.5),
            disciplined < 0.05,
        );
        report.check(
            "E16.pow-energy-safety",
            "PoW buys safety with energy",
            "proof-of-work defends against sybils at a huge energy price (III)",
            format!(
                "same attacker against PoW: {} reversal probability, but every attempt burns real energy",
                fmt_pct(pow)
            ),
            pow,
            Expect::LessThan(0.05),
        );
        report
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_run_reproduces_nothing_at_stake() {
        let r = Config::quick().run();
        assert!(r.all_hold(), "{r}");
    }
}
