//! Property-based equivalence suite for the sharded executor.
//!
//! The engine's headline guarantee after the sharding work: for any
//! workload, any fault plan, any seed, and any shard count, the
//! sharded run is *indistinguishable* from the serial run —
//! same events in the same order, same traces, same counters, same
//! report bytes. These properties drive randomized topologies and
//! fault plans through serial and sharded executions and require the
//! full fingerprints to match exactly. A single diverging event would
//! change the trace tuple stream and fail the property.
//!
//! The simulations here are small (2–150 nodes), and the executor's
//! policy would keep them serial however many shards they ask for, so
//! the engine-level runs force conservative windows
//! (`stress::force_windows`) to put the windowed path under test; the
//! report-level property runs both forced and as the policy decides.
//!
//! Three layers:
//!
//! - engine-level: a gossip workload under randomized partitions,
//!   degradation, duplication, and crash bursts, fingerprinted by
//!   (events, net stats, trace records, metrics, node state) at
//!   shards ∈ {1, 2, 4, 8}, and chain and PBFT clusters at shards
//!   ∈ {1, 2, 4};
//! - report-level: full experiment scenarios (`Scenario::run`) where
//!   the canonical RunReport JSON must be byte-identical between
//!   serial and sharded runs;
//! - window-level: one region-aligned chain configuration whose event
//!   and window counts are pinned with the per-link lookahead matrix
//!   active and hidden, and the `chain_dense` network of `benchmark/`,
//!   which the policy keeps serial at every shard count.

use proptest::prelude::*;
use rand::Rng;

use decent::bft::pbft::{build_cluster, PbftConfig};
use decent::chain::node::{build_network, ChainNode, ChainNodeConfig, NetworkConfig};
use decent::chain::pow::PowParams;
use decent::core::experiments::{e01, e05, e12, e14, e19};
use decent::core::report::{ExperimentRun, RunReport};
use decent::core::scenario::{ExecPolicy, Experiment, Scenario};
use decent::sim::prelude::*;
use decent::sim::stress::force_windows;
use decent::sim::trace::EventRecord;

/// A rumor-mongering node: forwards each first-seen rumor to a few
/// pseudo-randomly chosen peers, with a periodic anti-entropy timer.
/// Deliberately chatty and RNG-dependent so that any divergence in
/// event order or RNG stream discipline cascades into the fingerprint.
struct Gossip {
    n: usize,
    fanout: usize,
    seen: Vec<u64>,
    timer_fires: u64,
}

impl Node for Gossip {
    type Msg = u64;

    fn on_start(&mut self, ctx: &mut Context<'_, u64>) {
        ctx.set_timer(SimDuration::from_secs(1.0), 1);
    }

    fn on_message(&mut self, _from: NodeId, msg: u64, ctx: &mut Context<'_, u64>) {
        if self.seen.contains(&msg) {
            return;
        }
        self.seen.push(msg);
        let n = self.n;
        for _ in 0..self.fanout {
            let dst = ctx.rng().gen_range(0..n);
            ctx.send(dst, msg);
        }
    }

    fn on_timer(&mut self, _tag: u64, ctx: &mut Context<'_, u64>) {
        self.timer_fires += 1;
        if self.timer_fires < 20 {
            // Re-arm plus one low-rate rumor refresh to a random peer.
            ctx.set_timer(SimDuration::from_secs(1.0), 1);
            if let Some(&r) = self.seen.last() {
                let n = self.n;
                let dst = ctx.rng().gen_range(0..n);
                ctx.send(dst, r);
            }
        }
    }
}

/// Everything observable about a finished run. Trace records pin the
/// exact `(time, seq, node, tag)` stream, so two equal fingerprints
/// mean the executions were event-for-event identical.
#[derive(Debug, PartialEq)]
struct Fingerprint {
    events: u64,
    cancelled: u64,
    sent: u64,
    delivered: u64,
    dropped_offline: u64,
    bytes_sent: u64,
    now: SimTime,
    trace: Vec<EventRecord>,
    metrics: MetricsSnapshot,
    state: Vec<(Vec<u64>, u64)>,
}

/// Randomized fault-plan shape: each window is optional and the
/// generator picks times, the partition side, and intensities.
#[derive(Debug, Clone)]
struct PlanSpec {
    partition: Option<(f64, f64, usize)>,
    degrade: Option<(f64, f64, f64, f64)>,
    duplicate: Option<(f64, f64, f64)>,
    crash: Option<(f64, f64, usize)>,
}

fn plan_spec() -> impl Strategy<Value = PlanSpec> {
    let part = proptest::option::of((2.0f64..10.0, 4.0f64..15.0, 1usize..8));
    let degr = proptest::option::of((5.0f64..20.0, 2.0f64..10.0, 1.5f64..4.0, 0.0f64..0.2));
    let dupl = proptest::option::of((1.0f64..15.0, 2.0f64..10.0, 0.05f64..0.5));
    let crash = proptest::option::of((8.0f64..20.0, 2.0f64..8.0, 1usize..6));
    (part, degr, dupl, crash).prop_map(|(partition, degrade, duplicate, crash)| PlanSpec {
        partition: partition.map(|(at, d, k)| (at, at + d, k)),
        degrade: degrade.map(|(at, d, m, p)| (at, at + d, m, p)),
        duplicate: duplicate.map(|(at, d, p)| (at, at + d, p)),
        crash: crash.map(|(at, d, k)| (at, at + d, k)),
    })
}

impl PlanSpec {
    fn build(&self, n: usize) -> FaultPlan {
        let mut plan = FaultPlan::new();
        if let Some((at, heal, k)) = self.partition {
            let side: Vec<NodeId> = (0..n).skip(n.saturating_sub(k.min(n))).collect();
            plan = plan.partition(SimTime::from_secs(at), SimTime::from_secs(heal), side);
        }
        if let Some((at, until, mult, loss)) = self.degrade {
            plan = plan.degrade(
                SimTime::from_secs(at),
                SimTime::from_secs(until),
                LinkSet::All,
                mult,
                loss,
            );
        }
        if let Some((at, until, p)) = self.duplicate {
            plan = plan.duplicate(SimTime::from_secs(at), SimTime::from_secs(until), p);
        }
        if let Some((at, until, k)) = self.crash {
            let nodes: Vec<NodeId> = (0..k.min(n)).collect();
            plan = plan.crash_burst(SimTime::from_secs(at), SimTime::from_secs(until), nodes);
        }
        plan
    }
}

/// Runs the gossip workload under the given plan and returns the full
/// fingerprint.
fn run_gossip(seed: u64, n: usize, fanout: usize, spec: &PlanSpec, shards: usize) -> Fingerprint {
    let plan = spec.build(n);
    let mut sim = Simulation::new(
        seed,
        Faulty::new(UniformLatency::from_millis(10.0, 60.0), plan.clone()),
    );
    let _windows = force_windows();
    sim.set_shards(shards);
    sim.enable_trace(1 << 16);
    for _ in 0..n {
        sim.add_node(Gossip {
            n,
            fanout,
            seen: Vec::new(),
            timer_fires: 0,
        });
    }
    plan.schedule_crashes(&mut sim);
    // Seed a handful of rumors from distinct origins.
    for r in 0..4u64 {
        sim.inject(
            (r as usize * 7) % n,
            1000 + r,
            SimDuration::from_secs(0.1 + r as f64),
        );
    }
    sim.run_until(SimTime::from_secs(30.0));
    assert_eq!(sim.windows() > 0, shards > 1, "windows were not forced");
    let trace: Vec<EventRecord> = sim
        .trace()
        .expect("trace enabled")
        .records()
        .copied()
        .collect();
    let metrics = sim.metrics_snapshot();
    let state = (0..n)
        .map(|i| {
            let g = sim.node(i);
            (g.seen.clone(), g.timer_fires)
        })
        .collect();
    Fingerprint {
        events: sim.events_processed(),
        cancelled: sim.events_cancelled(),
        sent: sim.stats().sent,
        delivered: sim.stats().delivered,
        dropped_offline: sim.stats().dropped_offline,
        bytes_sent: sim.stats().bytes_sent,
        now: sim.now(),
        trace,
        metrics,
        state,
    }
}

proptest! {
    // Each case runs the workload at 4 shard counts, so keep the case
    // count well below the default 256.
    #![proptest_config(ProptestConfig::with_cases(12))]

    // The core equivalence property: for random topologies, fault
    // plans, and seeds, every shard count reproduces the serial
    // fingerprint exactly.
    #[test]
    fn sharded_runs_are_event_for_event_identical_to_serial(
        seed in any::<u64>(),
        n in 2usize..24,
        fanout in 1usize..4,
        spec in plan_spec(),
    ) {
        let serial = run_gossip(seed, n, fanout, &spec, 1);
        for shards in [2usize, 4, 8] {
            let sharded = run_gossip(seed, n, fanout, &spec, shards);
            prop_assert_eq!(
                &serial, &sharded,
                "sharded run diverged from serial at shards={}", shards
            );
        }
    }
}

/// Fingerprint of a PoW chain run: engine counters, the full trace,
/// and every node's view of the block tree. `Interned<Block>` payloads
/// (post-`Rc` migration) cross worker threads here, so a single
/// misrouted or reordered block delivery diverges tips or heights.
#[derive(Debug, PartialEq)]
struct ChainFingerprint {
    events: u64,
    trace: Vec<EventRecord>,
    metrics: MetricsSnapshot,
    state: Vec<(u64, usize, u64, u64, u64)>,
}

fn run_chain(seed: u64, shards: usize) -> ChainFingerprint {
    let mut sim = Simulation::new(seed, UniformLatency::from_millis(40.0, 120.0));
    let _windows = force_windows();
    sim.set_shards(shards);
    sim.enable_trace(1 << 16);
    let ncfg = NetworkConfig {
        nodes: 12,
        miner_fraction: 0.5,
        node: ChainNodeConfig {
            params: PowParams {
                target_interval: SimDuration::from_secs(20.0),
                ..PowParams::bitcoin()
            },
            ..ChainNodeConfig::default()
        },
        ..NetworkConfig::default()
    };
    let ids = build_network(&mut sim, &ncfg, seed ^ 0xC4A1);
    sim.run_until(SimTime::from_secs(600.0));
    assert_eq!(sim.windows() > 0, shards > 1, "windows were not forced");
    let state = ids
        .iter()
        .map(|&id| {
            let n = sim.node(id);
            (
                n.view.height(),
                n.view.len(),
                n.view.tip().id.0,
                n.blocks_mined,
                n.bytes_received,
            )
        })
        .collect();
    ChainFingerprint {
        events: sim.events_processed(),
        trace: sim
            .trace()
            .expect("trace enabled")
            .records()
            .copied()
            .collect(),
        metrics: sim.metrics_snapshot(),
        state,
    }
}

/// Fingerprint of a PBFT run: engine counters, trace, and each
/// replica's executed-request log and view-change count. The batches
/// are `Interned<[Request]>` payloads shared across shard workers.
#[derive(Debug, PartialEq)]
struct PbftFingerprint {
    events: u64,
    trace: Vec<EventRecord>,
    metrics: MetricsSnapshot,
    state: Vec<(Vec<(SimTime, SimTime)>, u64)>,
}

fn run_pbft(seed: u64, shards: usize) -> PbftFingerprint {
    let mut sim = Simulation::new(seed, LanNet::datacenter());
    let _windows = force_windows();
    sim.set_shards(shards);
    sim.enable_trace(1 << 16);
    let cfg = PbftConfig {
        n: 7,
        ..PbftConfig::default()
    };
    let ids = build_cluster(&mut sim, &cfg, &[]);
    sim.run_until(SimTime::from_secs(0.5));
    for round in 0..3u64 {
        sim.run_until(SimTime::from_secs(0.5 + round as f64));
        let now = sim.now();
        for &id in &ids {
            sim.node_mut(id).submit_many(
                (round * 1000 + id as u64 * 100)..(round * 1000 + id as u64 * 100 + 40),
                now,
            );
        }
    }
    sim.run_until(SimTime::from_secs(10.0));
    assert_eq!(sim.windows() > 0, shards > 1, "windows were not forced");
    let state = ids
        .iter()
        .map(|&id| {
            let r = sim.node(id);
            (r.executed.clone(), r.view_changes)
        })
        .collect();
    PbftFingerprint {
        events: sim.events_processed(),
        trace: sim
            .trace()
            .expect("trace enabled")
            .records()
            .copied()
            .collect(),
        metrics: sim.metrics_snapshot(),
        state,
    }
}

proptest! {
    // Chain and PBFT runs are heavier than the gossip workload (block
    // validation timers, batch pipelines), so fewer cases — each still
    // runs one serial and two sharded executions and compares full
    // traces.
    #![proptest_config(ProptestConfig::with_cases(4))]

    // The chain family under sharding: PoW mining races, inv/getblock
    // relay, and reorgs reproduce the serial fingerprint exactly at
    // every shard count.
    #[test]
    fn chain_runs_are_event_for_event_identical_to_serial(seed in any::<u64>()) {
        let serial = run_chain(seed, 1);
        for shards in [2usize, 4] {
            let sharded = run_chain(seed, shards);
            prop_assert_eq!(&serial, &sharded, "chain diverged at shards={}", shards);
        }
    }

    // The BFT family under sharding: three-phase commit with interned
    // batches reproduces the serial fingerprint exactly.
    #[test]
    fn pbft_runs_are_event_for_event_identical_to_serial(seed in any::<u64>()) {
        let serial = run_pbft(seed, 1);
        for shards in [2usize, 4] {
            let sharded = run_pbft(seed, shards);
            prop_assert_eq!(&serial, &sharded, "PBFT diverged at shards={}", shards);
        }
    }
}

/// Hides the inner model's per-link `shard_lookahead` matrix, forcing
/// the windowed executor back onto the single global bound. Everything
/// else forwards verbatim, so a run behind it replays the same events
/// and differs only in where the windows fall.
struct GlobalBoundOnly<M>(M);

impl<M: NetworkModel> NetworkModel for GlobalBoundOnly<M> {
    fn delay(
        &mut self,
        src: NodeId,
        dst: NodeId,
        bytes: u64,
        now: SimTime,
        rng: &mut SimRng,
    ) -> Option<SimDuration> {
        self.0.delay(src, dst, bytes, now, rng)
    }

    fn duplicate(
        &mut self,
        src: NodeId,
        dst: NodeId,
        bytes: u64,
        now: SimTime,
        rng: &mut SimRng,
    ) -> Option<SimDuration> {
        self.0.duplicate(src, dst, bytes, now, rng)
    }

    fn fault_stats(&self) -> Option<FaultStats> {
        self.0.fault_stats()
    }

    fn lookahead(&self) -> Option<SimDuration> {
        self.0.lookahead()
    }
}

/// A PoW relay (`benchmark/`'s `chain_dense` configuration) on a
/// `RegionNet` whose regions line up with `id % 4` sharding, run to
/// `horizon_s`. `per_link` false hides the model's `shard_lookahead`
/// matrix; `forced` true runs every event in a conservative window.
fn region_aligned_chain(
    seed: u64,
    nodes: usize,
    horizon_s: f64,
    shards: usize,
    per_link: bool,
    forced: bool,
) -> Simulation<ChainNode> {
    const REGIONS: [Region; 4] = [
        Region::NorthAmerica,
        Region::Europe,
        Region::AsiaPacific,
        Region::Japan,
    ];
    let net = RegionNet::new((0..nodes).map(|id| REGIONS[id % 4]).collect());
    let ncfg = NetworkConfig {
        nodes,
        miner_fraction: 0.3,
        node: ChainNodeConfig {
            params: PowParams {
                target_interval: SimDuration::from_secs(120.0),
                ..PowParams::bitcoin()
            },
            tx_rate: 20.0,
            ..ChainNodeConfig::default()
        },
        ..NetworkConfig::default()
    };
    let mut sim: Simulation<ChainNode> = if per_link {
        Simulation::new(seed, net)
    } else {
        Simulation::new(seed, GlobalBoundOnly(net))
    };
    let _windows = forced.then(force_windows);
    sim.set_shards(shards);
    build_network(&mut sim, &ncfg, seed ^ 2);
    sim.run_until(SimTime::from_secs(horizon_s));
    sim
}

/// The one deterministic finding behind `NetworkModel::shard_lookahead`
/// (DESIGN.md §4i): with 150 nodes on region-aligned shards every
/// cross-shard link has an inter-region floor (58 ms or more) where the
/// global bound is the matrix's intra-Europe 11 ms. `(events, windows)`
/// after an hour, with windows forced: at 4.6 events a window the
/// policy would open none.
#[test]
fn per_link_lookahead_needs_fewer_windows_for_the_same_events() {
    let run = |shards, per_link| {
        let sim = region_aligned_chain(0xB9, 150, 3_600.0, shards, per_link, true);
        (sim.events_processed(), sim.windows())
    };
    assert_eq!(run(1, true), (72_826, 0));
    assert_eq!(run(4, true), (72_826, 4_428));
    assert_eq!(run(4, false), (72_826, 5_612));
}

/// `benchmark/`'s `chain_dense` network (1 000 nodes, seed 185) cut to
/// 2 000 simulated seconds, with the policy deciding. "Event-dense" is
/// per wall second, not per window: the relay commits under two events
/// per 11 ms lookahead, so no window repays a barrier and every shard
/// count runs the serial loop on one queue.
#[test]
fn the_policy_keeps_a_chain_dense_shaped_run_serial() {
    for shards in [1, 2, 4] {
        let sim = region_aligned_chain(185, 1_000, 2_000.0, shards, true, false);
        assert_eq!(
            (sim.events_processed(), sim.windows(), sim.layout_switches()),
            (169_048, 0, 0),
            "shards={shards}"
        );
    }
}

/// Report-level equivalence: the canonical RunReport JSON from a
/// sharded experiment run is byte-identical to the serial run, with
/// conservative windows forced or left to the policy.
fn assert_report_bytes_hold(which: usize, shards: usize, seed: Option<u64>, forced: bool) {
    let run = |exec: ExecPolicy| {
        let mut s = shrunk_scenario(which);
        if let Some(seed) = seed {
            s.set_seed(seed);
        }
        s.set_exec(exec);
        RunReport {
            mode: "quick".to_string(),
            runs: vec![ExperimentRun {
                report: s.run(),
                seed,
                wall_ms: 0.0,
            }],
        }
    };
    let serial = run(ExecPolicy::serial());
    let sharded = {
        let _windows = forced.then(force_windows);
        run(ExecPolicy::sharded(shards))
    };
    let id = serial.runs[0].report.id;
    assert_eq!(
        serial.to_json_text(),
        sharded.to_json_text(),
        "{id} canonical RunReport JSON changed under shards={shards} forced={forced}"
    );
    assert_eq!(
        serial.runs[0].report.to_markdown(),
        sharded.runs[0].report.to_markdown(),
        "{id} rendered report changed under shards={shards} forced={forced}"
    );
}

proptest! {
    // Full experiments are expensive: a few cases suffice because each
    // one already covers thousands of events end-to-end. The pool spans
    // every family that drives a discrete-event simulation: overlay
    // (E1/E5), fault injection (E19), chain PoW (E14), and
    // BFT/permissioned (E12). Two properties over the same cases, so
    // the harness runs them side by side.
    #![proptest_config(ProptestConfig::with_cases(5))]

    // Every event in a conservative window.
    #[test]
    fn report_json_is_byte_identical_under_sharding(
        which in 0usize..5,
        shards in (1usize..4).prop_map(|i| 1usize << i),
        seed in proptest::option::of(any::<u64>()),
    ) {
        assert_report_bytes_hold(which, shards, seed, true);
    }

    // As `repro --shards N` runs it: the policy picks the layout.
    #[test]
    fn report_json_is_byte_identical_when_the_policy_decides(
        which in 0usize..5,
        shards in (1usize..4).prop_map(|i| 1usize << i),
        seed in proptest::option::of(any::<u64>()),
    ) {
        assert_report_bytes_hold(which, shards, seed, false);
    }
}

/// E1, E5, E19, E14 and E12, each shrunk below quick scale through its
/// own size fields: the properties above are about the executor, not the
/// workload, and every case runs its scenario twice. (E12's committee
/// list is built directly because `set_param` reaches only its largest
/// committee; the PBFT saturation runs it drives never run sharded —
/// `saturation_run` builds its own serial simulation — so each one
/// dropped is time saved, not coverage lost.)
fn shrunk_scenario(which: usize) -> Box<dyn Scenario> {
    match which {
        0 => Box::new(e01::Config {
            nodes: 150,
            ..e01::Config::quick()
        }),
        1 => Box::new(e05::Config {
            honest: 100,
            ..e05::Config::quick()
        }),
        2 => Box::new(e19::Config {
            lookups_per_phase: 20,
            ..e19::Config::quick()
        }),
        3 => Box::new(e14::Config {
            nodes: 16,
            blocks_per_level: 30,
            ..e14::Config::quick()
        }),
        _ => Box::new(e12::Config {
            committee_sizes: vec![16, 64],
            chain_nodes: 16,
            chain_hours: 2.0,
            ..e12::Config::quick()
        }),
    }
}
