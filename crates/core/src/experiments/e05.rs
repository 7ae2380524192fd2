//! E5 — Sybil attacks on open overlays.
//!
//! Paper (II-B Problem 3, citing Douceur \[19\] and the KAD measurement
//! studies \[17\]\[18\]): "open networks where peers can assign their
//! identities are prone to Sybil attacks. In a Sybil attack, the idea
//! is to impersonate thousands of identifiers with a few powerful
//! nodes."

use decent_overlay::id::Key;
use decent_overlay::kademlia::KadConfig;
use decent_overlay::sybil::{build_attacked_network, measure_capture, SybilConfig, SybilPlacement};
use decent_sim::prelude::*;

use crate::report::{Expect, ExperimentReport, Table};
use crate::scenario::{Experiment, Param};

/// Experiment parameters.
#[derive(Clone, Debug)]
pub struct Config {
    /// Honest population.
    pub honest: usize,
    /// Sybil-to-honest ratios to sweep.
    pub ratios: Vec<f64>,
    /// Lookups per attack level.
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
            honest: 600,
            ratios: vec![0.0, 0.25, 0.5, 1.0],
            lookups: 120,
            seed: 0xE5,
            shards: 1,
        }
    }
}

impl Experiment for Config {
    const ID: &'static str = "E5";
    const TITLE: &'static str = "Sybil attacks on open overlays (II-B P3)";
    /// Sweepable knobs. `sybil_ratio` drives the heaviest attack level (the
    /// last entry of `ratios`), which the capture claim is checked against.
    const PARAMS: &'static [Param<Self>] = &[
        Param {
            name: "honest",
            help: "honest population (min 32)",
            get: |c| c.honest as f64,
            set: |c, v| c.honest = v.round().max(32.0) as usize,
        },
        Param {
            name: "lookups",
            help: "lookups per attack level (min 1)",
            get: |c| c.lookups as f64,
            set: |c, v| c.lookups = v.round().max(1.0) as usize,
        },
        Param {
            name: "sybil_ratio",
            help: "sybil-to-honest ratio of the heaviest attack level (0.05-4)",
            get: |c| *c.ratios.last().expect("at least one ratio level"),
            set: |c, v| {
                *c.ratios.last_mut().expect("at least one ratio level") = v.clamp(0.05, 4.0)
            },
        },
    ];

    /// A CI-sized configuration.
    fn quick() -> Self {
        Config {
            honest: 250,
            ratios: vec![0.0, 0.5, 1.0],
            lookups: 60,
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
        let victim_key = Key::from_u64(0xBEEF);
        let mut t = Table::new(
            "Lookup capture vs. sybil identities",
            &[
                "attack",
                "sybils",
                "top result is sybil",
                "majority of results sybil",
                "entire result set sybil",
            ],
        );
        let mut capture_at = Vec::new();
        for (i, &ratio) in self.ratios.iter().enumerate() {
            let sybils =
                ((self.honest as f64 * ratio) as usize).max(if ratio > 0.0 { 1 } else { 0 });
            let scfg = SybilConfig {
                honest: self.honest,
                sybils: sybils.max(1),
                placement: SybilPlacement::Uniform,
                victim_key,
                kad: KadConfig {
                    k: 8,
                    ..KadConfig::default()
                },
            };
            let (mut sim, honest, sybil_ids) =
                build_attacked_network(&scfg, self.seed ^ ((i as u64 + 1) << 6));
            sim.set_shards(self.shards);
            // A zero-ratio level keeps one inert sybil for plumbing; ignore it.
            let out = measure_capture(&mut sim, &honest, &sybil_ids, victim_key, self.lookups);
            report.absorb_metrics(sim.metrics_snapshot());
            let top = out.top_captured as f64 / out.lookups.max(1) as f64;
            let full = out.fully_captured as f64 / out.lookups.max(1) as f64;
            t.row([
                format!("uniform, {}% sybils", (ratio * 100.0) as u32),
                sybils.to_string(),
                fmt_pct(top),
                fmt_pct(out.capture_rate()),
                fmt_pct(full),
            ]);
            capture_at.push(out.capture_rate());
        }
        // Eclipse: few identities, placed next to the victim key.
        let eclipse_cfg = SybilConfig {
            honest: self.honest,
            sybils: 30,
            placement: SybilPlacement::Eclipse { prefix_bits: 24 },
            victim_key,
            kad: KadConfig {
                k: 8,
                ..KadConfig::default()
            },
        };
        let (mut sim, honest, sybil_ids) = build_attacked_network(&eclipse_cfg, self.seed ^ 0xEC);
        sim.set_shards(self.shards);
        let eclipse = measure_capture(&mut sim, &honest, &sybil_ids, victim_key, self.lookups);
        report.absorb_metrics(sim.metrics_snapshot());
        let eclipse_top = eclipse.top_captured as f64 / eclipse.lookups.max(1) as f64;
        t.row([
            "eclipse, 30 targeted identities".to_string(),
            "30".to_string(),
            fmt_pct(eclipse_top),
            fmt_pct(eclipse.capture_rate()),
            fmt_pct(eclipse.fully_captured as f64 / eclipse.lookups.max(1) as f64),
        ]);
        report.table(t);

        let baseline = capture_at[0];
        let heavy = *capture_at.last().expect("levels");
        report.check_with(
            "E5.capture-scales",
            "identity is free, so capture scales with identities",
            "a few powerful nodes can impersonate thousands of identifiers",
            format!(
                "majority-capture {} -> {} as sybils go 0% -> 100% of honest population",
                fmt_pct(baseline),
                fmt_pct(heavy)
            ),
            heavy,
            Expect::MoreThan(0.3),
            baseline < 0.05,
        );
        report.check(
            "E5.eclipse-cheap",
            "targeted eclipse needs only a handful of identities",
            "massive identity problems reported in KAD / Mainline [17][18]",
            format!(
                "30 placed identities own the victim's top result {} of the time",
                fmt_pct(eclipse_top)
            ),
            eclipse_top,
            Expect::MoreThan(0.5),
        );
        report
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_run_reproduces_capture() {
        let r = Config::quick().run();
        assert!(r.all_hold(), "{r}");
    }
}
