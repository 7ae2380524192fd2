//! E6 — One-hop routing vs. multi-hop DHTs.
//!
//! Paper (II-B, citing Beehive \[23\] and Gupta–Liskov–Rodrigues \[24\]):
//! "for networks between 10K and 100K it is possible to have full
//! membership routing information and provide one-hop routing. If the
//! overlay is relatively stable like a corporate network, then O(1)
//! routing and full membership is the right decision instead of
//! maintaining routing tables and suffering multi-hop lookups."
//!
//! We simulate five overlays head-to-head at 1 000 nodes (300 at quick
//! scale): CAN, Chord and Pastry on the recursive lookup core, Kademlia,
//! and one-hop. The one-hop maintenance bandwidth at 10K and 100K is
//! the closed form Gupta et al. use, not a simulation.

use decent_overlay::can;
use decent_overlay::chord::{build_ring, ChordConfig};
use decent_overlay::id::Key;
use decent_overlay::kademlia::{self, Contact, KadConfig};
use decent_overlay::lookup::Outcome;
use decent_overlay::onehop::{self, OneHopConfig};
use decent_overlay::pastry::{self, PastryConfig};
use decent_sim::prelude::*;

use crate::report::{Expect, ExperimentReport, Table};
use crate::scenario::{Experiment, Param};

/// Experiment parameters.
#[derive(Clone, Debug)]
pub struct Config {
    /// Head-to-head network size (all five overlays simulated).
    pub nodes: usize,
    /// Lookups per protocol.
    pub lookups: usize,
    /// Mean node session length driving the membership event rate.
    pub session_mins: f64,
    /// Base RNG seed.
    pub seed: u64,
}

impl Default for Config {
    fn default() -> Self {
        Config {
            nodes: 1000,
            lookups: 200,
            session_mins: 60.0,
            seed: 0xE6,
        }
    }
}

struct ProtocolRow {
    name: String,
    hops: f64,
    p50_ms: f64,
    maint_msgs_per_node_min: f64,
    metrics: MetricsSnapshot,
}

impl ProtocolRow {
    fn new<N: Node>(name: String, lookups: (f64, f64), maint: f64, sim: &Simulation<N>) -> Self {
        let (hops, p50_ms) = lookups;
        ProtocolRow {
            name,
            hops,
            p50_ms,
            maint_msgs_per_node_min: maint,
            metrics: sim.metrics_snapshot(),
        }
    }
}

/// An empty simulation on E6's latency model.
fn simulation<N: Node>(seed: u64) -> Simulation<N> {
    Simulation::new(seed, UniformLatency::from_millis(30.0, 120.0))
}

/// Runs to t = 1 s, then a lookup-free two-minute window; returns its
/// maintenance messages per node per minute.
fn maintenance<N: Node>(sim: &mut Simulation<N>, nodes: usize) -> f64 {
    sim.run_until(SimTime::from_secs(1.0));
    let before = sim.stats().sent;
    sim.run_until(sim.now() + SimDuration::from_mins(2.0));
    (sim.stats().sent - before) as f64 / nodes as f64 / 2.0
}

/// Issues `lookups` lookups 150 ms apart, the `i`-th from
/// `ids[i * stride % n]` by `issue(sim, origin, i)`, then drains 60 s.
fn paced_lookups<N: Node>(
    sim: &mut Simulation<N>,
    ids: &[NodeId],
    lookups: usize,
    stride: usize,
    mut issue: impl FnMut(&mut Simulation<N>, NodeId, u64),
) {
    for i in 0..lookups {
        issue(sim, ids[(i * stride) % ids.len()], i as u64);
        let next = sim.now() + SimDuration::from_millis(150.0);
        sim.run_until(next);
    }
    sim.run_until(sim.now() + SimDuration::from_secs(60.0));
}

/// Mean hops and p50 latency (ms) of the successful lookups.
fn harvest<'a, T: 'a, O: 'a>(outcomes: impl Iterator<Item = &'a Outcome<T, O>>) -> (f64, f64) {
    let (mut hops, mut lat) = (Histogram::new(), Histogram::new());
    for r in outcomes.filter(|r| r.success) {
        hops.record(r.hops as f64);
        lat.record(r.latency.as_millis());
    }
    (hops.mean(), lat.percentile(0.5))
}

fn measure_chord(cfg: &Config, seed: u64) -> ProtocolRow {
    let mut sim = simulation(seed);
    let ids = build_ring(&mut sim, cfg.nodes, &ChordConfig::default(), seed ^ 1);
    let maint = maintenance(&mut sim, cfg.nodes);
    paced_lookups(&mut sim, &ids, cfg.lookups, 31, |sim, origin, i| {
        let t = Key::from_u64(5000 + i);
        sim.invoke(origin, |n, ctx| n.start_lookup(t, ctx));
    });
    let lookups = harvest(ids.iter().flat_map(|&id| &sim.node(id).results));
    ProtocolRow::new(format!("Chord (n={})", cfg.nodes), lookups, maint, &sim)
}

fn measure_kademlia(cfg: &Config, seed: u64) -> ProtocolRow {
    let mut sim = simulation(seed);
    let kad = KadConfig {
        k: 10,
        alpha: 3,
        refresh_interval: Some(SimDuration::from_mins(1.0)),
        ..KadConfig::default()
    };
    let ids = kademlia::build_network(&mut sim, cfg.nodes, &kad, 0.0, 8, seed ^ 2);
    let maint = maintenance(&mut sim, cfg.nodes);
    paced_lookups(&mut sim, &ids, cfg.lookups, 29, |sim, origin, i| {
        let t = Key::from_u64(7000 + i);
        sim.invoke(origin, |n, ctx| n.start_lookup(t, false, ctx));
    });
    let (mut rpc_rounds, mut lat) = (Histogram::new(), Histogram::new());
    for r in ids.iter().flat_map(|&id| &sim.node(id).results) {
        // Approximate "hops" as sequential RPC rounds (rpcs / alpha).
        rpc_rounds.record(r.rpcs as f64 / 3.0);
        lat.record(r.latency.as_millis());
    }
    let lookups = (rpc_rounds.mean(), lat.percentile(0.5));
    ProtocolRow::new(format!("Kademlia (n={})", cfg.nodes), lookups, maint, &sim)
}

fn measure_onehop(cfg: &Config, seed: u64) -> ProtocolRow {
    let mut sim = simulation(seed);
    let ids = onehop::build_network(&mut sim, cfg.nodes, OneHopConfig::default(), seed ^ 3);
    sim.run_until(SimTime::from_secs(1.0));
    // Membership events at the churn rate: 2 events per session cycle.
    let event_rate_per_min = 2.0 * cfg.nodes as f64 / (2.0 * cfg.session_mins); // joins + leaves
    let before = sim.stats().sent;
    let window_mins = 2.0;
    let events = (event_rate_per_min * window_mins) as usize;
    for e in 0..events {
        let subject = ids[(e * 13) % ids.len()];
        let observer = ids[(e * 13 + 1) % ids.len()];
        let contact = Contact {
            node: subject,
            key: sim.node(subject).key(),
        };
        let alive = e % 2 == 1;
        sim.invoke(observer, |n, _ctx| n.observe(contact, alive));
        let next = sim.now() + SimDuration::from_secs(60.0 * window_mins / events as f64);
        sim.run_until(next);
    }
    let maint = (sim.stats().sent - before) as f64 / cfg.nodes as f64 / window_mins;
    paced_lookups(&mut sim, &ids, cfg.lookups, 37, |sim, origin, i| {
        let t = Key::from_u64(9000 + i);
        sim.invoke(origin, |n, ctx| n.start_lookup(t, ctx));
    });
    let lookups = harvest(ids.iter().flat_map(|&id| &sim.node(id).results));
    ProtocolRow::new(format!("One-hop (n={})", cfg.nodes), lookups, maint, &sim)
}

fn measure_pastry(cfg: &Config, seed: u64) -> ProtocolRow {
    let mut sim = simulation(seed);
    let ids = pastry::build_network(&mut sim, cfg.nodes, &PastryConfig::default(), seed ^ 4);
    let maint = maintenance(&mut sim, cfg.nodes);
    paced_lookups(&mut sim, &ids, cfg.lookups, 41, |sim, origin, i| {
        let t = Key::from_u64(11_000 + i);
        sim.invoke(origin, |n, ctx| n.start_lookup(t, ctx));
    });
    let lookups = harvest(ids.iter().flat_map(|&id| &sim.node(id).results));
    ProtocolRow::new(format!("Pastry (n={})", cfg.nodes), lookups, maint, &sim)
}

fn measure_can(cfg: &Config, seed: u64) -> ProtocolRow {
    use rand::Rng;
    let mut sim = simulation(seed);
    let ids = can::build_network(&mut sim, cfg.nodes, seed ^ 5);
    sim.run_until(SimTime::from_secs(0.1));
    paced_lookups(&mut sim, &ids, cfg.lookups, 43, |sim, origin, _| {
        let t = [sim.rng().gen::<f64>(), sim.rng().gen::<f64>()];
        sim.invoke(origin, |n, ctx| n.start_lookup(t, ctx));
    });
    let lookups = harvest(ids.iter().flat_map(|&id| &sim.node(id).results));
    // Static zones: no repair traffic is modelled.
    ProtocolRow::new(format!("CAN d=2 (n={})", cfg.nodes), lookups, 0.0, &sim)
}

/// Closed-form one-hop maintenance bandwidth (Gupta et al. style):
/// every membership event must reach every node once (plus duplicate
/// factor); returns bytes/s per node.
pub fn onehop_bandwidth_per_node(n: usize, session_mins: f64, entry_bytes: f64, dup: f64) -> f64 {
    // Each node joins and leaves once per on+off cycle (2 * session).
    let events_per_sec = 2.0 * n as f64 / (2.0 * session_mins * 60.0);
    events_per_sec * entry_bytes * dup
}

impl Experiment for Config {
    const ID: &'static str = "E6";
    const TITLE: &'static str = "One-hop full membership vs. multi-hop DHTs (II-B, [23][24])";
    const PARAMS: &'static [Param<Self>] = &[
        Param {
            name: "nodes",
            help: "head-to-head network size (min 16)",
            get: |c| c.nodes as f64,
            set: |c, v| c.nodes = v.round().max(16.0) as usize,
        },
        Param {
            name: "lookups",
            help: "lookups per protocol (min 1)",
            get: |c| c.lookups as f64,
            set: |c, v| c.lookups = v.round().max(1.0) as usize,
        },
        Param {
            name: "session_mins",
            help: "mean session length driving membership events, minutes (min 1)",
            get: |c| c.session_mins,
            set: |c, v| c.session_mins = v.max(1.0),
        },
    ];

    /// A CI-sized configuration.
    fn quick() -> Self {
        Config {
            nodes: 300,
            lookups: 60,
            ..Config::default()
        }
    }

    fn seed_mut(&mut self) -> Option<&mut u64> {
        Some(&mut self.seed)
    }

    fn run(&self) -> ExperimentReport {
        let mut report = Self::report();
        let rows = vec![
            measure_can(self, self.seed ^ 0x05),
            measure_chord(self, self.seed ^ 0x10),
            measure_pastry(self, self.seed ^ 0x15),
            measure_kademlia(self, self.seed ^ 0x20),
            measure_onehop(self, self.seed ^ 0x30),
        ];
        let mut t = Table::new(
            "Head-to-head at simulated scale",
            &[
                "protocol",
                "mean hops/rounds",
                "lookup p50 (ms)",
                "maintenance msgs/node/min",
            ],
        );
        for r in &rows {
            report.absorb_metrics(r.metrics.clone());
            t.row([
                r.name.clone(),
                fmt_f(r.hops),
                fmt_f(r.p50_ms),
                fmt_f(r.maint_msgs_per_node_min),
            ]);
        }
        report.table(t);

        // Feasibility extrapolation for the paper's 10K-100K band.
        let mut t2 = Table::new(
            "One-hop maintenance bandwidth (closed form, 1-hour sessions)",
            &[
                "n",
                "events/s",
                "bytes/s per node",
                "feasible on broadband?",
            ],
        );
        for &n in &[self.nodes, 10_000, 100_000] {
            let bw = onehop_bandwidth_per_node(n, self.session_mins, 40.0, 4.0);
            let events = 2.0 * n as f64 / (2.0 * self.session_mins * 60.0);
            t2.row([
                fmt_si(n as f64),
                fmt_f(events),
                fmt_f(bw),
                (bw < 125_000.0).to_string(), // < 1 Mbit/s
            ]);
        }
        report.table(t2);

        let chord = &rows[1];
        let onehop_row = &rows[4];
        report.check_with(
            "E6.onehop-latency",
            "one-hop beats multi-hop on latency",
            "O(1) routing avoids multi-hop lookups",
            format!(
                "p50 {} ms (one-hop) vs {} ms (Chord, {} hops avg)",
                fmt_f(onehop_row.p50_ms),
                fmt_f(chord.p50_ms),
                fmt_f(chord.hops)
            ),
            chord.p50_ms,
            Expect::MoreThan(onehop_row.p50_ms * 1.5),
            chord.hops > 2.0,
        );
        let can_row = &rows[0];
        let pastry_row = &rows[2];
        report.check_with(
            "E6.geometry-hops",
            "geometry sets the hop count",
            "numerous DHT proposals: CAN, Chord, Pastry, Kademlia [5-8]",
            format!(
                "mean hops — CAN(d=2): {}, Chord: {}, Pastry: {}",
                fmt_f(can_row.hops),
                fmt_f(chord.hops),
                fmt_f(pastry_row.hops)
            ),
            can_row.hops,
            Expect::MoreThan(chord.hops),
            pastry_row.hops < chord.hops,
        );
        let bw100k = onehop_bandwidth_per_node(100_000, self.session_mins, 40.0, 4.0);
        report.check(
            "E6.onehop-bandwidth",
            "full membership is feasible at 10K-100K",
            "full membership routing is possible for 10K-100K nodes",
            format!(
                "{} B/s per node at n=100K with 1-hour sessions",
                fmt_f(bw100k)
            ),
            bw100k,
            Expect::LessThan(125_000.0),
        );
        report
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_run_reproduces_onehop_advantage() {
        let r = Config::quick().run();
        assert!(r.all_hold(), "{r}");
    }

    #[test]
    fn bandwidth_formula_scales_linearly() {
        let a = onehop_bandwidth_per_node(10_000, 60.0, 40.0, 4.0);
        let b = onehop_bandwidth_per_node(100_000, 60.0, 40.0, 4.0);
        assert!((b / a - 10.0).abs() < 1e-9);
    }
}
