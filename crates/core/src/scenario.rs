//! The experiment layer's two traits and its registry.
//!
//! An experiment is a **declaration**: its `Config` type implements
//! [`Experiment`], stating once what only that experiment knows — id,
//! title, the table of sweepable knobs, the two scales, where its seed
//! lives, and how to run. Everything else is derived from the
//! declaration here:
//!
//! - the object-safe [`Scenario`] surface (identity, seeding, the
//!   name → `f64` parameter map, `run`) is implemented once, for every
//!   [`Experiment`];
//! - the registry is one line per experiment; [`ids`], [`all`] and
//!   [`build`] read it, and `repro --list`, the runners
//!   ([`crate::experiments`]) and the sweeps ([`crate::sensitivity`])
//!   go through those;
//! - the report header comes from the same `ID`/`TITLE` consts
//!   ([`Experiment::report`]), so a listing line and a report cannot
//!   disagree.
//!
//! Integer-valued knobs round-trip exactly through their `f64` views
//! (`get` widens, `set` rounds), so setting a parameter to its current
//! value is a strict no-op and a one-point sweep reproduces a plain run
//! byte-for-byte.
//!
//! How a run executes is not declared anywhere: the runners enter an
//! [`ExecPolicy`] around each `run`, and every simulation built inside
//! asks for its shards.

use crate::experiments::{
    e01, e02, e03, e04, e05, e06, e07, e08, e09, e10, e11, e12, e13, e14, e15, e16, e17, e18, e19,
};
use crate::report::ExperimentReport;

/// A named, documented `f64` view over one sweepable knob of a config
/// type `C`. Each experiment declares its table as
/// [`Experiment::PARAMS`].
pub struct Param<C> {
    /// Parameter name (stable: `repro --sweep EXP:name=..` keys on it).
    pub name: &'static str,
    /// One-line description shown by `repro --list`.
    pub help: &'static str,
    /// Reads the knob as an `f64`.
    pub get: fn(&C) -> f64,
    /// Writes the knob from an `f64` (rounding/clamping as the field
    /// requires; must round-trip `set(get())` exactly).
    pub set: fn(&mut C, f64),
}

/// A parameter's name and help text, detached from its config type —
/// what [`Scenario::params`] hands to callers that only hold a trait
/// object.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ParamSpec {
    /// Parameter name.
    pub name: &'static str,
    /// One-line description.
    pub help: &'static str,
}

pub use decent_sim::engine::ExecPolicy;

/// What an experiment declares about itself, on its `Config` type
/// (`Default` = paper scale). [`Scenario`] is derived from this.
pub trait Experiment: Clone + Default + Send + Sync + 'static {
    /// Stable experiment id (`"E1"` … `"E19"`).
    const ID: &'static str;
    /// One-line title: the report header and the `repro --list` line.
    const TITLE: &'static str;
    /// The sweepable knobs.
    const PARAMS: &'static [Param<Self>];

    /// A CI-sized configuration.
    fn quick() -> Self;

    /// The base RNG seed the run derives its streams from, or `None`
    /// for a closed-form experiment with no RNG (E10).
    fn seed_mut(&mut self) -> Option<&mut u64>;

    /// Runs the experiment on this config.
    fn run(&self) -> ExperimentReport;

    /// An empty report carrying this experiment's id and title.
    fn report() -> ExperimentReport {
        ExperimentReport::new(Self::ID, Self::TITLE)
    }
}

/// One experiment behind a uniform, object-safe surface: identity,
/// seeding, a typed parameter map and `run`.
///
/// Implemented once, below, for every [`Experiment`]; constructed
/// through the registry ([`build`] / [`all`]) at either scale
/// (`quick` = CI, default = paper).
pub trait Scenario: Send + Sync {
    /// Stable experiment id (`"E1"` … `"E19"`).
    fn id(&self) -> &'static str;

    /// One-line title — the same string the experiment's report header
    /// carries.
    fn description(&self) -> &'static str;

    /// The base RNG seed the run derives its streams from, or `None`
    /// for closed-form scenarios with no RNG (E10).
    fn seed(&self) -> Option<u64>;

    /// Overrides the base seed. Returns whether the scenario consumes
    /// it — `false` means the run is seed-independent and the override
    /// had no effect (surfaced in `repro --list` instead of being
    /// silently accepted).
    fn set_seed(&mut self, seed: u64) -> bool;

    /// The sweepable knobs this scenario exposes.
    fn params(&self) -> Vec<ParamSpec>;

    /// Reads a knob by name (`None` = not a declared parameter).
    fn get_param(&self, name: &str) -> Option<f64>;

    /// Writes a knob by name. Rejects unknown names (the error lists
    /// what *is* sweepable) and non-finite values.
    fn set_param(&mut self, name: &str, value: f64) -> Result<(), String>;

    /// Runs the experiment on the current config.
    fn run(&self) -> ExperimentReport;
}

impl<E: Experiment> Scenario for E {
    fn id(&self) -> &'static str {
        E::ID
    }
    fn description(&self) -> &'static str {
        E::TITLE
    }
    fn seed(&self) -> Option<u64> {
        // The declaration names the seed's place once, as `seed_mut`;
        // reading it goes through a scratch copy of the (small) config.
        self.clone().seed_mut().copied()
    }
    fn set_seed(&mut self, seed: u64) -> bool {
        self.seed_mut().map(|s| *s = seed).is_some()
    }
    fn params(&self) -> Vec<ParamSpec> {
        E::PARAMS
            .iter()
            .map(|p| ParamSpec {
                name: p.name,
                help: p.help,
            })
            .collect()
    }
    fn get_param(&self, name: &str) -> Option<f64> {
        E::PARAMS
            .iter()
            .find(|p| p.name == name)
            .map(|p| (p.get)(self))
    }
    fn set_param(&mut self, name: &str, value: f64) -> Result<(), String> {
        if !value.is_finite() {
            return Err(format!("parameter {name} must be finite, got {value}"));
        }
        match E::PARAMS.iter().find(|p| p.name == name) {
            Some(p) => {
                (p.set)(self, value);
                Ok(())
            }
            None => {
                let known: Vec<&str> = E::PARAMS.iter().map(|p| p.name).collect();
                Err(if known.is_empty() {
                    format!("unknown parameter {name} (this scenario has no sweepable parameters)")
                } else {
                    format!("unknown parameter {name} (sweepable: {})", known.join(", "))
                })
            }
        }
    }
    fn run(&self) -> ExperimentReport {
        Experiment::run(self)
    }
}

/// One registry line: an experiment's id and how to construct it at
/// quick (CI) or default (paper) scale.
struct Entry {
    id: &'static str,
    build: fn(bool) -> Box<dyn Scenario>,
}

const fn entry<E: Experiment>() -> Entry {
    Entry {
        id: E::ID,
        build: |quick| Box::new(if quick { E::quick() } else { E::default() }),
    }
}

/// The experiment registry, in id order: ids ([`ids`]), listings
/// ([`all`]) and dispatch ([`build`]) all read it. E1–E15 reproduce
/// the paper's explicit quantitative claims; E16–E18 cover the
/// secondary claims it makes in passing (nothing-at-stake, layer-2
/// centralization, dapp congestion); E19 stresses both architectures
/// with scripted fault injection.
const REGISTRY: [Entry; 19] = [
    entry::<e01::Config>(),
    entry::<e02::Config>(),
    entry::<e03::Config>(),
    entry::<e04::Config>(),
    entry::<e05::Config>(),
    entry::<e06::Config>(),
    entry::<e07::Config>(),
    entry::<e08::Config>(),
    entry::<e09::Config>(),
    entry::<e10::Config>(),
    entry::<e11::Config>(),
    entry::<e12::Config>(),
    entry::<e13::Config>(),
    entry::<e14::Config>(),
    entry::<e15::Config>(),
    entry::<e16::Config>(),
    entry::<e17::Config>(),
    entry::<e18::Config>(),
    entry::<e19::Config>(),
];

/// Registered experiment ids, in registry order.
pub fn ids() -> Vec<&'static str> {
    REGISTRY.iter().map(|e| e.id).collect()
}

/// Builds every scenario at the given scale, in registry order.
pub fn all(quick: bool) -> Vec<Box<dyn Scenario>> {
    REGISTRY.iter().map(|e| (e.build)(quick)).collect()
}

/// Builds one scenario by id (case-insensitive: `"e19"` works).
/// Returns `None` for an unknown id.
pub fn build(id: &str, quick: bool) -> Option<Box<dyn Scenario>> {
    let entry = REGISTRY.iter().find(|e| e.id.eq_ignore_ascii_case(id))?;
    Some((entry.build)(quick))
}

/// [`build`], then the seed override (if any): the one way a point run
/// and a sweep point get a scenario ready to run.
pub(crate) fn configure(id: &str, quick: bool, seed: Option<u64>) -> Option<Box<dyn Scenario>> {
    let mut s = build(id, quick)?;
    if let Some(seed) = seed {
        s.set_seed(seed);
    }
    Some(s)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_ids_are_unique_and_well_formed() {
        let ids = ids();
        assert_eq!(ids.len(), REGISTRY.len());
        for (i, id) in ids.iter().enumerate() {
            assert_eq!(*id, format!("E{}", i + 1), "registry must stay in id order");
            assert!(ids.iter().filter(|x| **x == *id).count() == 1, "dup {id}");
        }
        // The id on a registry line is the id of what that line builds,
        // at both scales, and `all` is `build` over `ids`.
        for quick in [true, false] {
            let all = all(quick);
            assert_eq!(all.len(), ids.len());
            for (id, s) in ids.iter().zip(&all) {
                assert_eq!(s.id(), *id);
                assert_eq!(build(id, quick).expect("listed id builds").id(), *id);
            }
        }
    }

    #[test]
    fn build_is_case_insensitive_and_rejects_unknown() {
        for quick in [true, false] {
            assert_eq!(build("e19", quick).unwrap().id(), "E19");
            assert_eq!(build("E7", quick).unwrap().id(), "E7");
            assert!(build("E99", quick).is_none());
            assert!(build("", quick).is_none());
        }
        // The listing line is the module's title const, not a copy.
        assert_eq!(
            build("e1", true).unwrap().description(),
            <e01::Config as Experiment>::TITLE
        );
        assert_eq!(
            build("E10", false).unwrap().description(),
            <e10::Config as Experiment>::TITLE
        );
        assert_eq!(
            e19::Config::report().title,
            build("E19", true).unwrap().description()
        );
    }

    #[test]
    fn params_are_unique_and_round_trip_at_defaults() {
        for s in all(true).iter_mut() {
            let specs = s.params();
            for (i, p) in specs.iter().enumerate() {
                assert!(!p.help.is_empty(), "{}:{} has no help", s.id(), p.name);
                assert!(
                    !specs[..i].iter().any(|q| q.name == p.name),
                    "{} declares parameter {} twice",
                    s.id(),
                    p.name
                );
                // Integer and float knobs alike must round-trip their
                // current value exactly: a one-point sweep at the
                // default must be a strict no-op on the config.
                let v = s.get_param(p.name).expect("declared param readable");
                s.set_param(p.name, v).expect("declared param writable");
                assert_eq!(
                    s.get_param(p.name),
                    Some(v),
                    "{}:{} does not round-trip",
                    s.id(),
                    p.name
                );
            }
        }
    }

    #[test]
    fn set_param_rejects_unknown_names_and_non_finite_values() {
        let mut s = build("E4", true).unwrap();
        let err = s.set_param("frobnication", 1.0).unwrap_err();
        assert!(err.contains("unknown parameter"), "{err}");
        assert!(err.contains("session_mins"), "error lists knobs: {err}");
        let err = s.set_param("nodes", f64::NAN).unwrap_err();
        assert!(err.contains("finite"), "{err}");
    }

    #[test]
    fn e10_is_visibly_seedless() {
        for quick in [true, false] {
            // Every scenario but E10 consumes its seed.
            for mut s in all(quick) {
                if s.id() == "E10" {
                    assert_eq!(s.seed(), None);
                    assert!(!s.set_seed(42), "E10 must report the seed as unused");
                    assert_eq!(s.seed(), None);
                } else {
                    assert!(s.seed().is_some(), "{} has a built-in seed", s.id());
                    assert!(s.set_seed(7), "{} should use seeds", s.id());
                    assert_eq!(s.seed(), Some(7));
                }
            }
        }
    }
}
