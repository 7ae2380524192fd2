//! The typed rule set of the determinism contract (DESIGN.md §4e).

use std::fmt;

/// A determinism/hygiene rule, or one of the pragma meta-rules.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Rule {
    /// Iteration over `HashMap`/`HashSet` in sim-facing crates, where
    /// `RandomState` iteration order can leak into event order, RNG
    /// draws, or serialized output.
    D001,
    /// Wall-clock reads (`Instant::now`, `SystemTime::now`): simulated
    /// time must come from the engine clock.
    D002,
    /// Unseeded randomness (`thread_rng`, `rand::random`,
    /// `from_entropy`): every stream must derive from the run seed.
    D003,
    /// Ambient process state (`std::env`) in sim-facing crates: runs
    /// must not depend on the invoking environment.
    D004,
    /// `unsafe` blocks (doubly enforced by `#![forbid(unsafe_code)]`).
    D005,
    /// `std::rc::Rc` in a sim-facing crate: node and message state must
    /// be `Send` for the sharded executor — share with `Arc` or the
    /// engine's `Interned` payloads instead.
    D006,
    /// Shared-atomic mutation in a sim-facing crate. The sharded
    /// executor's window-barrier merge protocol tolerates *only*
    /// merge-only commutative counters read after the barrier:
    /// non-commutative operations (`store`, `swap`,
    /// `compare_exchange`) and non-`Relaxed` orderings make the final
    /// value depend on thread interleaving, and even commutative RMWs
    /// (`fetch_add` & co.) must carry a pragma documenting the
    /// merge-only discipline.
    D007,
    /// `partial_cmp(..).unwrap()`-style float comparison in sort
    /// comparators: `PartialOrd` on floats is not a total order, so the
    /// comparator can panic (NaN) or — worse — let the sort produce an
    /// implementation-defined permutation. Use `f64::total_cmp`.
    D008,
    /// `sort_unstable_by`/`sort_unstable_by_key` in a sim-facing crate
    /// without a pragma-documented injectivity argument: when the key
    /// can tie between distinct elements, the unstable sort's output
    /// permutation is unspecified and may leak into observable order.
    D009,
    /// Blocking synchronization (`Mutex`, `RwLock`, `mpsc`, `Condvar`)
    /// in a sim-facing crate: cross-shard blocking outside the
    /// executor's own window barrier makes the schedule depend on
    /// thread timing.
    D010,
    /// A `decent-lint: allow(...)` pragma that suppressed nothing —
    /// stale suppressions are errors so they cannot rot in place.
    P000,
    /// A pragma that does not parse (unknown rule id, missing or empty
    /// `reason`), which would otherwise silently suppress nothing.
    P001,
}

/// Every rule, in report order.
pub const ALL_RULES: [Rule; 12] = [
    Rule::D001,
    Rule::D002,
    Rule::D003,
    Rule::D004,
    Rule::D005,
    Rule::D006,
    Rule::D007,
    Rule::D008,
    Rule::D009,
    Rule::D010,
    Rule::P000,
    Rule::P001,
];

impl Rule {
    /// The stable rule id (`D001` ... `D010`, `P000`, `P001`).
    pub fn code(self) -> &'static str {
        match self {
            Rule::D001 => "D001",
            Rule::D002 => "D002",
            Rule::D003 => "D003",
            Rule::D004 => "D004",
            Rule::D005 => "D005",
            Rule::D006 => "D006",
            Rule::D007 => "D007",
            Rule::D008 => "D008",
            Rule::D009 => "D009",
            Rule::D010 => "D010",
            Rule::P000 => "P000",
            Rule::P001 => "P001",
        }
    }

    /// Parses a rule id as written inside an `allow(...)` pragma. Only
    /// the suppressible rules parse: the pragma meta-rules cannot be
    /// allowed away.
    pub fn parse_allowable(s: &str) -> Option<Rule> {
        match s {
            "D001" => Some(Rule::D001),
            "D002" => Some(Rule::D002),
            "D003" => Some(Rule::D003),
            "D004" => Some(Rule::D004),
            "D005" => Some(Rule::D005),
            "D006" => Some(Rule::D006),
            "D007" => Some(Rule::D007),
            "D008" => Some(Rule::D008),
            "D009" => Some(Rule::D009),
            "D010" => Some(Rule::D010),
            _ => None,
        }
    }

    /// Parses any rule id, including the pragma meta-rules (used by
    /// `--explain`, which must be able to explain P000/P001 too).
    pub fn parse_any(s: &str) -> Option<Rule> {
        match s {
            "P000" => Some(Rule::P000),
            "P001" => Some(Rule::P001),
            other => Rule::parse_allowable(other),
        }
    }

    /// One-line description used by `--rules` and the findings report.
    pub fn summary(self) -> &'static str {
        match self {
            Rule::D001 => "iteration over HashMap/HashSet in a sim-facing crate",
            Rule::D002 => "wall-clock read (Instant::now / SystemTime)",
            Rule::D003 => "unseeded randomness (thread_rng / rand::random / from_entropy)",
            Rule::D004 => "ambient process state (std::env) in a sim-facing crate",
            Rule::D005 => "unsafe block",
            Rule::D006 => "non-Send Rc shared state in a sim-facing crate (use Arc/Interned)",
            Rule::D007 => "shared-atomic mutation in a sim-facing crate (merge-only Relaxed counters need a pragma; anything else is a violation)",
            Rule::D008 => "partial_cmp in a comparator (floats are not totally ordered; use total_cmp)",
            Rule::D009 => "keyed unstable sort without a pragma-documented injectivity argument",
            Rule::D010 => "blocking synchronization (Mutex/RwLock/mpsc/Condvar) in a sim-facing crate",
            Rule::P000 => "unused decent-lint pragma",
            Rule::P001 => "malformed decent-lint pragma",
        }
    }

    /// The full rationale printed by `decent-lint --explain`.
    pub fn rationale(self) -> &'static str {
        match self {
            Rule::D001 => {
                "HashMap/HashSet iterate in RandomState order, which differs per process. \
                 If that order reaches event scheduling, RNG draws, or serialized output, two \
                 runs with the same seed diverge. Iterate BTreeMap/BTreeSet, or end the chain \
                 in a commutative terminator (sum/count/any/...) the analyzer can prove \
                 order-insensitive."
            }
            Rule::D002 => {
                "Simulated time must be a pure function of the event schedule. Instant::now() \
                 and SystemTime readings smuggle host wall-clock into the run, so reports stop \
                 being reproducible byte-for-byte. Use the engine clock (Context::now)."
            }
            Rule::D003 => {
                "thread_rng, rand::random and from_entropy seed from OS entropy, so every run \
                 draws a different stream. All randomness must derive from the run seed \
                 (derive_seed / per-node RNG streams) so a seed fully determines the run."
            }
            Rule::D004 => {
                "std::env reads make a run depend on the invoking shell (variables, cwd, \
                 argv). Sim-facing code must take configuration through typed params so a \
                 scenario is reproducible from its report alone."
            }
            Rule::D005 => {
                "unsafe blocks can introduce data races and uninitialized reads — exactly the \
                 nondeterminism this workspace exists to exclude — and are doubly banned via \
                 #![forbid(unsafe_code)] on every crate."
            }
            Rule::D006 => {
                "Rc is !Send, so any node or message state holding one cannot cross the \
                 sharded executor's worker threads. Share immutable data with Arc or the \
                 engine's Interned payloads instead."
            }
            Rule::D007 => {
                "Cross-thread shared state lives outside the (time, seq) merge order that \
                 makes sharded runs byte-identical to serial. The window-barrier protocol \
                 tolerates exactly one shape: commutative merge-only counters (fetch_add and \
                 friends, Relaxed), read only after the barrier — and even those must carry a \
                 pragma documenting that discipline. store/swap/compare_exchange make the \
                 final value depend on which thread ran last; Acquire/Release/SeqCst \
                 orderings advertise cross-thread happens-before relationships the merge \
                 protocol neither needs nor honours."
            }
            Rule::D008 => {
                "PartialOrd on floats is not a total order: NaN panics the unwrap, and an \
                 inconsistent comparator lets sort_by produce an implementation-defined \
                 permutation (or, since Rust 1.81, panic mid-sort). f64::total_cmp is a total \
                 order over every bit pattern and costs the same."
            }
            Rule::D009 => {
                "sort_unstable_by(_key) gives an unspecified permutation whenever the \
                 comparator ties distinct elements, and 'unspecified' may change across rustc \
                 releases — silently reordering observable output. Either the key is \
                 injective over the slice (document that with a pragma) or the sort must be \
                 stable. Plain sort_unstable() on the element's own Ord is exempt: equal \
                 elements are indistinguishable, so every permutation serializes identically."
            }
            Rule::D010 => {
                "A Mutex/RwLock/Condvar or mpsc channel in sim-facing code means some \
                 schedule depends on which thread wins a race. The only sanctioned blocking \
                 is the sharded executor's own window barrier, where workers park at a \
                 deterministic point and results are merged in (time, seq) order."
            }
            Rule::P000 => {
                "A pragma that suppresses nothing is a stale suppression: the site it \
                 justified was fixed or moved, and leaving it in place would silently allow a \
                 future violation. Remove it (or move it to the line it covers)."
            }
            Rule::P001 => {
                "A pragma that does not parse would silently suppress nothing while looking \
                 like a justification. The grammar is: \
                 // decent-lint: allow(D00x[,D00y]) reason=\"non-empty\"."
            }
        }
    }

    /// A minimal violating example for `--explain`, verified by a unit
    /// test to actually trigger the rule when analyzed as sim-facing.
    pub fn example(self) -> &'static str {
        match self {
            Rule::D001 => "fn f(m: &HashMap<u64, u32>) -> Vec<u64> {\n    m.keys().copied().collect()\n}",
            Rule::D002 => "fn f() {\n    let _t0 = Instant::now();\n}",
            Rule::D003 => "fn f() -> u64 {\n    thread_rng().gen()\n}",
            Rule::D004 => "fn f() -> Option<String> {\n    std::env::var(\"SEED\").ok()\n}",
            Rule::D005 => "fn f(p: *const u8) -> u8 {\n    unsafe { *p }\n}",
            Rule::D006 => "use std::rc::Rc;\nfn f() -> Rc<u64> {\n    Rc::new(1)\n}",
            Rule::D007 => "fn f(shared: &std::sync::atomic::AtomicU64) {\n    shared.store(7, Ordering::SeqCst);\n    shared.fetch_add(1, Ordering::Relaxed); // needs a merge-only pragma\n}",
            Rule::D008 => "fn f(xs: &mut [f64]) {\n    xs.sort_by(|a, b| a.partial_cmp(b).unwrap());\n}",
            Rule::D009 => "fn f(xs: &mut [(u64, String)]) {\n    xs.sort_unstable_by_key(|x| x.0); // ties between distinct elements\n}",
            Rule::D010 => "use std::sync::Mutex;\nfn f() -> Mutex<u64> {\n    Mutex::new(0)\n}",
            Rule::P000 => "// decent-lint: allow(D002) reason=\"nothing on the next line reads a clock\"\nfn f() {}",
            Rule::P001 => "// decent-lint: allow(D002)\nfn f() {}",
        }
    }
}

impl fmt::Display for Rule {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.code())
    }
}

/// One reported violation.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Finding {
    /// Path as reported (workspace-relative when walking a workspace).
    pub file: String,
    /// 1-indexed source line.
    pub line: u32,
    /// Violated rule.
    pub rule: Rule,
    /// Human-oriented detail (what was matched, and on what).
    pub message: String,
}

impl Finding {
    /// Sort key giving the stable file/line/rule report order.
    pub fn sort_key(&self) -> (String, u32, Rule, String) {
        (
            self.file.clone(),
            self.line,
            self.rule,
            self.message.clone(),
        )
    }
}

impl fmt::Display for Finding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}: {} {}: {}",
            self.file,
            self.line,
            self.rule,
            self.rule.summary(),
            self.message
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `--explain` must stay exhaustive: every rule carries a non-empty
    /// rationale and an example that *actually triggers the rule* when
    /// run through the analyzer (sim-facing), so the documentation can
    /// never drift from the implementation.
    #[test]
    fn every_rule_has_a_self_demonstrating_explanation() {
        for rule in ALL_RULES {
            assert!(
                rule.rationale().len() > 40,
                "{rule}: rationale too short to explain anything"
            );
            let example = rule.example();
            assert!(!example.is_empty(), "{rule}: no example");
            let findings = crate::analyze::analyze_source("explain.rs", example, true);
            assert!(
                findings.iter().any(|f| f.rule == rule),
                "{rule}: example does not trigger the rule; findings = {findings:?}"
            );
        }
    }

    #[test]
    fn parse_any_covers_meta_rules_and_rejects_unknown() {
        assert_eq!(Rule::parse_any("P000"), Some(Rule::P000));
        assert_eq!(Rule::parse_any("D010"), Some(Rule::D010));
        assert_eq!(Rule::parse_any("D011"), None);
        assert_eq!(Rule::parse_allowable("P000"), None);
    }

    #[test]
    fn all_rules_have_distinct_codes_in_order() {
        let codes: Vec<&str> = ALL_RULES.iter().map(|r| r.code()).collect();
        let mut sorted = codes.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), ALL_RULES.len());
        assert_eq!(codes.first(), Some(&"D001"));
        assert_eq!(codes.last(), Some(&"P001"));
    }
}
