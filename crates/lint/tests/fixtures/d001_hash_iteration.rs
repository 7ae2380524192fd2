// Fixture: D001 — order-sensitive HashMap/HashSet iteration in
// sim-facing code. The legal block at the bottom must stay silent.
use std::collections::{HashMap, HashSet};

struct Tracker {
    pending: HashMap<u64, u64>,
}

fn violations(scores: HashMap<u64, u64>, seen: HashSet<u64>, t: &Tracker) -> Vec<u64> {
    let mut out = Vec::new();
    for k in scores.keys() {
        out.push(*k);
    }
    for v in &seen {
        out.push(*v);
    }
    let firsts: Vec<u64> = t.pending.values().copied().collect();
    out.extend(firsts);
    out.extend(scores.iter().map(|(k, _)| *k));
    out
}

fn retain_visits_in_hasher_order(t: &mut Tracker, moved: &mut Vec<u64>) {
    t.pending.retain(|_, v| {
        moved.push(*v);
        false
    });
    // decent-lint: allow(D001) reason="pure predicate: writes no captured state"
    t.pending.retain(|k, _| *k > 3);
}

fn legal(scores: &HashMap<u64, u64>, seen: &HashSet<u64>) -> u64 {
    let total: u64 = scores.values().sum();
    let hits = seen.iter().filter(|v| **v > 3).count();
    let sorted: std::collections::BTreeSet<u64> =
        scores.keys().copied().collect::<std::collections::BTreeSet<_>>();
    let any_big = scores.values().any(|v| *v > 10);
    let point = scores.get(&1).copied().unwrap_or(0);
    let n = scores.len() as u64;
    total + hits as u64 + sorted.len() as u64 + u64::from(any_big) + point + n
}
