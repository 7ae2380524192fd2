//! Hasher independence: `std::collections::HashMap` seeds a fresh
//! `RandomState` per instance, so two runs of the same experiment in
//! one process traverse any hash-ordered collection differently. If a
//! hash iteration order leaked into results, the runs below would
//! diverge — this is the dynamic counterpart of the static D001 rule
//! (clippy's `disallowed-methods` and `iter_over_hash_type`, DESIGN.md
//! §4e).

use decent::core::experiments::run_report;
use decent::sim::json::Json;

/// One Kademlia-backed experiment (E1 exercises `decent-overlay`'s
/// routing tables and lookup maps) and one edge-backed experiment (E13
/// exercises `decent-edge`'s pending-reply and cursor maps), each run
/// twice in-process with identical seeds. Every HashMap instance built
/// during the second run carries a different hasher state than its
/// first-run counterpart, so any order-sensitive iteration would show
/// up as a byte diff in the canonical JSON.
#[test]
fn repeated_runs_are_hasher_independent() {
    for id in ["E1", "E13"] {
        let first = run_report(&[id], true, None, 1).to_json_text();
        let second = run_report(&[id], true, None, 1).to_json_text();
        assert_eq!(
            first, second,
            "{id}: byte diff between in-process repeats — a hash-ordered \
             collection is leaking iteration order into the report"
        );
    }
}

/// The canonical run-report JSON must not carry a wall-clock field —
/// `wall_ms` is harness telemetry, measured behind an
/// `#[expect(clippy::disallowed_methods)]` exemption and deliberately
/// excluded from serialization so reports stay byte-comparable across
/// machines.
#[test]
fn canonical_report_has_no_wall_clock_field() {
    let run = run_report(&["E10"], true, None, 1);
    assert!(
        run.runs[0].wall_ms >= 0.0,
        "harness still measures wall time"
    );
    let text = run.to_json_text();
    assert!(
        !text.contains("wall"),
        "wall-clock leaked into canonical JSON"
    );
    // Defense in depth: no key anywhere in the document mentions time
    // in milliseconds either.
    fn keys(j: &Json, out: &mut Vec<String>) {
        match j {
            Json::Obj(pairs) => {
                for (k, v) in pairs {
                    out.push(k.clone());
                    keys(v, out);
                }
            }
            Json::Arr(items) => {
                for v in items {
                    keys(v, out);
                }
            }
            _ => {}
        }
    }
    let mut all = Vec::new();
    keys(&Json::parse(&text).expect("report parses"), &mut all);
    assert!(
        all.iter()
            .all(|k| !k.contains("wall") && !k.ends_with("_ms")),
        "wall-clock-shaped key in canonical report"
    );
}
