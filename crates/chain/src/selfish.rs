//! Selfish mining (Eyal & Sirer, "Majority is not enough", CACM 2018).
//!
//! The paper cites this attack (\[30\]) as evidence that Bitcoin's
//! incentive mechanism is flawed: a colluding minority pool can earn
//! more than its fair share. Two implementations are provided:
//!
//! - [`closed_form`]: the paper's analytic relative-revenue formula;
//! - [`simulate`]: a Monte Carlo run of the strategy's Markov chain,
//!   with explicit `gamma` (the fraction of honest power that mines on
//!   the attacker's branch during a race).
//!
//! Experiment E9 sweeps `alpha` and `gamma` with both and checks they
//! agree, reproducing the attack's famous thresholds (1/3 at γ=0, 1/4 at
//! γ=1/2, 0 at γ=1).

use rand::Rng;

use decent_sim::rng::rng_from_seed;

/// Outcome of a selfish-mining simulation.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct SelfishOutcome {
    /// Blocks of the attacker on the final main chain.
    pub attacker_blocks: u64,
    /// Honest blocks on the final main chain.
    pub honest_blocks: u64,
    /// Blocks discovered in total (including orphaned ones).
    pub total_discovered: u64,
}

impl SelfishOutcome {
    /// The attacker's share of main-chain revenue.
    pub fn attacker_share(&self) -> f64 {
        let total = self.attacker_blocks + self.honest_blocks;
        if total == 0 {
            0.0
        } else {
            self.attacker_blocks as f64 / total as f64
        }
    }

    /// Fraction of discovered blocks that were orphaned by the attack
    /// (wasted work — the chain's effective throughput loss).
    pub fn orphan_rate(&self) -> f64 {
        if self.total_discovered == 0 {
            return 0.0;
        }
        1.0 - (self.attacker_blocks + self.honest_blocks) as f64 / self.total_discovered as f64
    }
}

/// The Eyal–Sirer closed-form relative revenue of a selfish pool with
/// power `alpha` and race-win propensity `gamma`.
///
/// Equation (8) of the paper. The pool profits whenever the result
/// exceeds `alpha`.
///
/// # Panics
///
/// Panics if `alpha` is not in `[0, 0.5)` or `gamma` not in `[0, 1]`.
///
/// # Examples
///
/// ```
/// use decent_chain::selfish::closed_form;
///
/// // At gamma = 0 the threshold is 1/3: below it selfish mining loses.
/// assert!(closed_form(0.30, 0.0) < 0.30);
/// assert!(closed_form(0.40, 0.0) > 0.40);
/// ```
pub fn closed_form(alpha: f64, gamma: f64) -> f64 {
    assert!((0.0..0.5).contains(&alpha), "alpha must be in [0, 0.5)");
    assert!((0.0..=1.0).contains(&gamma), "gamma must be in [0, 1]");
    let a = alpha;
    let num = a * (1.0 - a) * (1.0 - a) * (4.0 * a + gamma * (1.0 - 2.0 * a)) - a * a * a;
    let den = 1.0 - a * (1.0 + (2.0 - a) * a);
    num / den
}

/// The minimum pool size at which selfish mining becomes profitable for
/// a given `gamma` (Eyal–Sirer threshold `(1-γ)/(3-2γ)`).
pub fn profit_threshold(gamma: f64) -> f64 {
    (1.0 - gamma) / (3.0 - 2.0 * gamma)
}

/// Runs the selfish-mining Markov chain for `blocks` block discoveries.
///
/// `alpha` is the attacker's hashrate share; `gamma` the fraction of
/// honest hashrate that mines on the attacker's block during a race.
///
/// # Panics
///
/// Panics if `alpha` is not in `[0, 0.5)` or `gamma` not in `[0, 1]`.
pub fn simulate(alpha: f64, gamma: f64, blocks: u64, seed: u64) -> SelfishOutcome {
    assert!((0.0..0.5).contains(&alpha), "alpha must be in [0, 0.5)");
    assert!((0.0..=1.0).contains(&gamma), "gamma must be in [0, 1]");
    let mut rng = rng_from_seed(seed);
    let mut out = SelfishOutcome::default();
    // `lead` is the attacker's private lead; `racing` marks state 0'
    // (two competing public branches of length one).
    let mut lead: u64 = 0;
    let mut racing = false;
    for _ in 0..blocks {
        out.total_discovered += 1;
        let attacker_found = rng.gen::<f64>() < alpha;
        if racing {
            // State 0': one attacker block and one honest block public.
            if attacker_found {
                // Attacker extends its own branch: takes both blocks.
                out.attacker_blocks += 2;
            } else if rng.gen::<f64>() < gamma {
                // Honest miner on the attacker's branch: one block each.
                out.attacker_blocks += 1;
                out.honest_blocks += 1;
            } else {
                // Honest branch wins: two honest blocks on-chain.
                out.honest_blocks += 2;
            }
            racing = false;
            lead = 0;
            continue;
        }
        match (lead, attacker_found) {
            (0, true) => lead = 1,
            (0, false) => out.honest_blocks += 1,
            (1, true) => lead = 2,
            (1, false) => {
                // Publish the private block: a race begins. The honest
                // block just found competes; resolution on next event.
                racing = true;
            }
            (2, false) => {
                // Publish both private blocks and override.
                out.attacker_blocks += 2;
                lead = 0;
            }
            (n, false) => {
                // Lead > 2: release one block, which will win.
                out.attacker_blocks += 1;
                lead = n - 1;
            }
            (n, true) => lead = n + 1,
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn closed_form_known_points() {
        // From the paper: at gamma=0, alpha=1/3 is the break-even.
        let r = closed_form(1.0 / 3.0, 0.0);
        assert!((r - 1.0 / 3.0).abs() < 1e-9, "break-even at 1/3, got {r}");
        // gamma=1: any alpha profits.
        assert!(closed_form(0.1, 1.0) > 0.1);
        // Honest mining at alpha=0 earns nothing.
        assert!(closed_form(0.0, 0.5).abs() < 1e-12);
    }

    #[test]
    fn thresholds_match_formula() {
        assert!((profit_threshold(0.0) - 1.0 / 3.0).abs() < 1e-12);
        assert!((profit_threshold(0.5) - 0.25).abs() < 1e-12);
        assert!(profit_threshold(1.0).abs() < 1e-12);
        // closed_form crosses alpha exactly at the threshold.
        for gamma in [0.0, 0.25, 0.5, 0.75] {
            let t = profit_threshold(gamma);
            assert!(closed_form(t + 0.02, gamma) > t + 0.02);
            if t > 0.03 {
                assert!(closed_form(t - 0.02, gamma) < t - 0.02);
            }
        }
    }

    #[test]
    fn monte_carlo_matches_closed_form() {
        for &(alpha, gamma) in &[
            (0.2, 0.0),
            (0.3, 0.5),
            (0.4, 0.0),
            (0.45, 1.0),
            (0.35, 0.25),
        ] {
            let sim = simulate(alpha, gamma, 2_000_000, 7);
            let analytic = closed_form(alpha, gamma);
            assert!(
                (sim.attacker_share() - analytic).abs() < 0.01,
                "alpha {alpha} gamma {gamma}: sim {} vs analytic {analytic}",
                sim.attacker_share()
            );
        }
    }

    #[test]
    fn minority_pool_beats_fair_share_above_threshold() {
        let sim = simulate(0.4, 0.0, 1_000_000, 8);
        assert!(
            sim.attacker_share() > 0.43,
            "40% pool should exceed fair share: {}",
            sim.attacker_share()
        );
    }

    #[test]
    fn small_pool_loses_at_gamma_zero() {
        let sim = simulate(0.25, 0.0, 1_000_000, 9);
        assert!(
            sim.attacker_share() < 0.25,
            "25% pool below threshold must lose: {}",
            sim.attacker_share()
        );
    }

    #[test]
    fn attack_wastes_work() {
        let honest = simulate(0.0, 0.0, 100_000, 10);
        assert_eq!(honest.orphan_rate(), 0.0);
        let attacked = simulate(0.4, 0.5, 1_000_000, 11);
        assert!(
            attacked.orphan_rate() > 0.1,
            "selfish mining should orphan blocks: {}",
            attacked.orphan_rate()
        );
    }

    #[test]
    fn deterministic() {
        assert_eq!(
            simulate(0.3, 0.5, 100_000, 3),
            simulate(0.3, 0.5, 100_000, 3)
        );
    }
}
