//! E3 — Tit-for-tat incentives in BitTorrent.
//!
//! Paper (II-B Problem 1): "BitTorrent mitigated the free riding
//! problem by designing the protocol including incentives (tit-for-
//! tat). If peers do not contribute, others would not reciprocate. But
//! again, collaboration is only enforced during the download process."

use decent_overlay::swarm::{SwarmConfig, SwarmSim};

use crate::report::{Expect, ExperimentReport, Table};
use crate::scenario::{Experiment, Param};
use decent_sim::report::fmt_f;

/// Experiment parameters.
#[derive(Clone, Debug)]
pub struct Config {
    /// Leechers in the swarm.
    pub leechers: usize,
    /// Fraction of leechers that never upload.
    pub free_rider_fraction: f64,
    /// Initial seeds.
    pub seeds: usize,
    /// Pieces in the torrent.
    pub pieces: usize,
    /// Base RNG seed.
    pub seed: u64,
}

impl Default for Config {
    fn default() -> Self {
        Config {
            leechers: 300,
            free_rider_fraction: 0.25,
            seeds: 3,
            pieces: 200,
            seed: 0xE3,
        }
    }
}

impl Experiment for Config {
    const ID: &'static str = "E3";
    const TITLE: &'static str = "Tit-for-tat incentives (II-B P1)";
    const PARAMS: &'static [Param<Self>] = &[
        Param {
            name: "leechers",
            help: "leechers in the swarm (min 8)",
            get: |c| c.leechers as f64,
            set: |c, v| c.leechers = v.round().max(8.0) as usize,
        },
        Param {
            name: "free_rider_fraction",
            help: "fraction of leechers that never upload (0-1)",
            get: |c| c.free_rider_fraction,
            set: |c, v| c.free_rider_fraction = v.clamp(0.0, 1.0),
        },
        Param {
            name: "seeds",
            help: "initial seeds (min 1)",
            get: |c| c.seeds as f64,
            set: |c, v| c.seeds = v.round().max(1.0) as usize,
        },
        Param {
            name: "pieces",
            help: "pieces in the torrent (min 10)",
            get: |c| c.pieces as f64,
            set: |c, v| c.pieces = v.round().max(10.0) as usize,
        },
    ];

    /// A CI-sized configuration.
    fn quick() -> Self {
        Config {
            leechers: 120,
            pieces: 100,
            ..Config::default()
        }
    }

    fn seed_mut(&mut self) -> Option<&mut u64> {
        Some(&mut self.seed)
    }

    fn run(&self) -> ExperimentReport {
        let mut report = Self::report();
        let mut t = Table::new(
            "Completion time by peer class",
            &[
                "choking",
                "contributor p50 (s)",
                "free rider p50 (s)",
                "rider/contributor ratio",
                "unfinished",
            ],
        );
        let mut ratios = Vec::new();
        for tft in [true, false] {
            let swarm_cfg = SwarmConfig {
                pieces: self.pieces,
                tit_for_tat: tft,
                ..SwarmConfig::default()
            };
            let mut swarm = SwarmSim::with_population(
                swarm_cfg,
                self.leechers,
                self.free_rider_fraction,
                self.seeds,
                self.seed,
            );
            let mut r = swarm.run(4000);
            let c50 = r.contributor_times.percentile(0.5);
            let f50 = r.free_rider_times.percentile(0.5);
            let ratio = if c50 > 0.0 { f50 / c50 } else { 0.0 };
            t.row([
                if tft {
                    "tit-for-tat"
                } else {
                    "random (no incentives)"
                }
                .to_string(),
                fmt_f(c50),
                fmt_f(f50),
                fmt_f(ratio),
                r.unfinished.to_string(),
            ]);
            ratios.push(ratio);
        }
        report.table(t);
        report.check(
            "E3.tft-punishes-riders",
            "tit-for-tat punishes free riders",
            "peers that do not contribute are not reciprocated",
            format!(
                "free riders take {}x longer under tit-for-tat",
                fmt_f(ratios[0])
            ),
            ratios[0],
            Expect::AtLeast(1.5),
        );
        report.check(
            "E3.no-incentive-no-cost",
            "without incentives, free riding is free",
            "free riding was predominant before incentive design",
            format!(
                "rider/contributor ratio {} with random choking",
                fmt_f(ratios[1])
            ),
            ratios[1],
            Expect::LessThan(1.4),
        );
        // Structural: departure-at-completion is built into the model.
        report.structural(
            "E3.exit-after-download",
            "incentives only bind during the download",
            "collaboration is only enforced during the download process",
            "completed free riders leave immediately; the protocol cannot retain them",
        );
        report
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_run_reproduces_incentive_effect() {
        let r = Config::quick().run();
        assert!(r.all_hold(), "{r}");
    }
}
