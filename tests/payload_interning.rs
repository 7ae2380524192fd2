//! Equivalence suite for interned message payloads (DESIGN.md §4g).
//!
//! [`Interned`] exists so that every extra engine-side clone of a bulk
//! message — fault-injected duplicates, broadcast fan-out, the sharded
//! commit phase — is a refcount bump instead of a deep copy. That is
//! only sound if interning is *observationally invisible*: a workload
//! whose messages carry `Interned<[u32]>` payloads must produce the
//! exact run (trace records, metrics, counters, node state) of the same
//! workload carrying deep-cloned `Vec<u32>` payloads.
//!
//! The properties here drive one blob-gossip workload through both
//! payload representations under randomized duplication-heavy fault
//! plans, on both schedulers, serial and sharded, and require the full
//! fingerprints to match. A second set pins the arena-backed lookup
//! state in [`decent::overlay::kademlia`] across crash/restart churn:
//! slot reuse must never resurrect or alias an abandoned lookup.

use proptest::prelude::*;
use rand::Rng;

use decent::overlay::id::Key;
use decent::overlay::kademlia::{build_network, KadConfig, KadNode};
use decent::sim::prelude::*;
use decent::sim::trace::EventRecord;

/// Payload representation under test: deep-cloned vs interned bulk
/// data, constructed from the same values and reporting the same
/// digest and wire size, so runs differ *only* in clone mechanics.
trait Payload: Clone + std::fmt::Debug + Send + 'static {
    fn make(vals: Vec<u32>) -> Self;
    fn digest(&self) -> u64;
    fn wire_bytes(&self) -> u64;
}

impl Payload for Vec<u32> {
    fn make(vals: Vec<u32>) -> Self {
        vals
    }
    fn digest(&self) -> u64 {
        self.iter()
            .fold(0u64, |a, &v| a.wrapping_mul(31).wrapping_add(u64::from(v)))
    }
    fn wire_bytes(&self) -> u64 {
        16 + 4 * self.len() as u64
    }
}

impl Payload for Interned<[u32]> {
    fn make(vals: Vec<u32>) -> Self {
        Interned::from_vec(vals)
    }
    fn digest(&self) -> u64 {
        self.iter()
            .fold(0u64, |a, &v| a.wrapping_mul(31).wrapping_add(u64::from(v)))
    }
    fn wire_bytes(&self) -> u64 {
        16 + 4 * self.len() as u64
    }
}

/// Blob gossip: each first-seen rumor id is re-broadcast, with its
/// payload, to `fanout` pseudo-random peers. The payload digest folds
/// into node state, so a payload corrupted (or reordered) anywhere in
/// the clone/interning machinery changes the fingerprint.
struct Blob<P> {
    n: usize,
    fanout: usize,
    seen: Vec<u64>,
    digest: u64,
    marker: std::marker::PhantomData<P>,
}

impl<P: Payload> Node for Blob<P> {
    type Msg = (u64, P);

    fn on_start(&mut self, ctx: &mut Context<'_, Self::Msg>) {
        ctx.set_timer(SimDuration::from_secs(1.0), 1);
    }

    fn on_message(&mut self, _from: NodeId, msg: Self::Msg, ctx: &mut Context<'_, Self::Msg>) {
        let (rumor, payload) = msg;
        self.digest = self.digest.wrapping_add(payload.digest());
        if self.seen.contains(&rumor) {
            return;
        }
        self.seen.push(rumor);
        let n = self.n;
        for _ in 0..self.fanout {
            let dst = ctx.rng().gen_range(0..n);
            let bytes = payload.wire_bytes();
            ctx.send_sized(dst, (rumor, payload.clone()), bytes);
        }
    }

    fn on_timer(&mut self, _tag: u64, ctx: &mut Context<'_, Self::Msg>) {
        // Low-rate anti-entropy: refresh the last rumor with a fresh
        // payload derived from the node RNG (same stream either way).
        if ctx.now() < SimTime::from_secs(15.0) {
            ctx.set_timer(SimDuration::from_secs(1.0), 1);
            if let Some(&r) = self.seen.last() {
                let n = self.n;
                let len = ctx.rng().gen_range(1..24);
                let vals: Vec<u32> = (0..len).map(|_| ctx.rng().gen()).collect();
                let payload = P::make(vals);
                let dst = ctx.rng().gen_range(0..n);
                let bytes = payload.wire_bytes();
                ctx.send_sized(dst, (r, payload), bytes);
            }
        }
    }
}

/// Everything observable about a finished run, minus the payload type.
#[derive(Debug, PartialEq)]
struct Fingerprint {
    events: u64,
    cancelled: u64,
    sent: u64,
    delivered: u64,
    bytes_sent: u64,
    now: SimTime,
    trace: Vec<EventRecord>,
    metrics: MetricsSnapshot,
    state: Vec<(Vec<u64>, u64)>,
}

fn run_blob<P: Payload, S: SchedulerFor<Blob<P>> + Send>(
    seed: u64,
    n: usize,
    fanout: usize,
    dup_window: Option<(f64, f64, f64)>,
    shards: usize,
) -> Fingerprint {
    let mut plan = FaultPlan::new();
    if let Some((at, until, p)) = dup_window {
        plan = plan.duplicate(SimTime::from_secs(at), SimTime::from_secs(until), p);
    }
    let mut sim: Simulation<Blob<P>, S> = Simulation::with_scheduler(
        seed,
        Faulty::new(UniformLatency::from_millis(10.0, 60.0), plan),
    );
    // Payloads must cross worker threads: force the windows the policy
    // would not open for a sim this small.
    let _windows = decent::sim::stress::force_windows();
    sim.set_shards(shards);
    sim.enable_trace(1 << 16);
    for _ in 0..n {
        sim.add_node(Blob {
            n,
            fanout,
            seen: Vec::new(),
            digest: 0,
            marker: std::marker::PhantomData,
        });
    }
    // Seed rumors with deterministic payloads from distinct origins.
    for r in 0..4u64 {
        let vals: Vec<u32> = (0..8).map(|i| (r * 100 + i) as u32).collect();
        sim.inject(
            (r as usize * 7) % n,
            (1000 + r, P::make(vals)),
            SimDuration::from_secs(0.1 + r as f64),
        );
    }
    sim.run_until(SimTime::from_secs(25.0));
    let trace: Vec<EventRecord> = sim
        .trace()
        .expect("trace enabled")
        .records()
        .copied()
        .collect();
    let metrics = sim.metrics_snapshot();
    let state = (0..n)
        .map(|i| {
            let b = sim.node(i);
            (b.seen.clone(), b.digest)
        })
        .collect();
    Fingerprint {
        events: sim.events_processed(),
        cancelled: sim.events_cancelled(),
        sent: sim.stats().sent,
        delivered: sim.stats().delivered,
        bytes_sent: sim.stats().bytes_sent,
        now: sim.now(),
        trace,
        metrics,
        state,
    }
}

proptest! {
    // Each case runs the workload 2 (payloads) x 2 (schedulers) x 2
    // (shard counts) times; keep the case count modest.
    #![proptest_config(ProptestConfig::with_cases(10))]

    // The headline property: interned payload delivery is
    // observationally identical to deep-clone delivery — same trace
    // records, metrics, counters, and node state — under randomized
    // duplication windows (the engine's clone-heavy path), on both
    // schedulers, serial and sharded.
    #[test]
    fn interned_payloads_are_observationally_identical_to_clones(
        seed in any::<u64>(),
        n in 2usize..16,
        fanout in 1usize..4,
        dup in proptest::option::of((0.5f64..8.0, 4.0f64..16.0, 0.1f64..0.6)),
    ) {
        let dup = dup.map(|(at, d, p)| (at, at + d, p));
        for shards in [1usize, 4] {
            let cloned = run_blob::<Vec<u32>, TimingWheel<_>>(seed, n, fanout, dup, shards);
            let interned =
                run_blob::<Interned<[u32]>, TimingWheel<_>>(seed, n, fanout, dup, shards);
            prop_assert_eq!(
                &cloned, &interned,
                "interned run diverged from clone run (wheel, shards={})", shards
            );
            let interned_heap =
                run_blob::<Interned<[u32]>, BinaryHeapScheduler<_>>(seed, n, fanout, dup, shards);
            prop_assert_eq!(
                &cloned, &interned_heap,
                "interned run diverged from clone run (heap, shards={})", shards
            );
        }
    }
}

/// Fan-out without faults: one interned payload broadcast to every
/// node. Deterministic spot check that the shared-allocation fast path
/// (`Arc` clone + pointer-equality compare) behaves like value
/// semantics.
#[test]
fn broadcast_fanout_preserves_payload_content() {
    let payload: Interned<[u32]> = Interned::from_slice(&[7, 11, 13]);
    let copies: Vec<Interned<[u32]>> = (0..64).map(|_| payload.clone()).collect();
    for c in &copies {
        assert_eq!(c, &payload);
        assert_eq!(&c[..], &[7, 11, 13]);
    }
    let rebuilt: Interned<[u32]> = Interned::from_vec(vec![7, 11, 13]);
    assert_eq!(rebuilt, payload, "content equality across allocations");
}

/// Arena-reuse integration: Kademlia keeps its in-flight lookups in a
/// generational [`SlotArena`]. Crash/restart churn (`on_stop` clears
/// the arena; restart reuses its slots) must neither resurrect
/// abandoned lookups nor alias new ones: every completed lookup id is
/// unique and monotonically increasing per origin node.
#[test]
fn kademlia_lookup_slots_survive_crash_restart_reuse() {
    let mut sim: Simulation<KadNode> = Simulation::new(21, UniformLatency::from_millis(20.0, 80.0));
    let cfg = KadConfig {
        k: 8,
        alpha: 3,
        ..KadConfig::default()
    };
    let ids = build_network(&mut sim, 120, &cfg, 0.0, 8, 17);
    sim.run_until(SimTime::from_secs(1.0));

    let mut issued: Vec<u64> = Vec::new();

    // Wave 1: several overlapping lookups from one origin.
    for t in 0..5u64 {
        sim.invoke(ids[0], |n, ctx| {
            issued.push(n.start_lookup(Key::from_u64(0xA000 + t), false, ctx));
        });
    }
    sim.run_until(SimTime::from_secs(20.0));
    let after_wave1 = sim.node(ids[0]).results.len();
    assert!(after_wave1 >= 1, "wave-1 lookups must complete");

    // Crash the origin mid-lookup: start fresh lookups, then stop the
    // node before they can finish. `on_stop` clears the lookup arena.
    let mut abandoned: Vec<u64> = Vec::new();
    for t in 0..3u64 {
        sim.invoke(ids[0], |n, ctx| {
            abandoned.push(n.start_lookup(Key::from_u64(0xB000 + t), false, ctx));
        });
    }
    let now = sim.now();
    sim.schedule_stop(ids[0], now + SimDuration::from_millis(1.0));
    sim.schedule_start(ids[0], now + SimDuration::from_secs(5.0));
    sim.run_until(now + SimDuration::from_secs(10.0));
    let after_crash = sim.node(ids[0]).results.len();

    // Wave 2 after restart: arena slots from the cleared wave are
    // reused; new lookups must complete normally with fresh ids.
    for t in 0..5u64 {
        sim.invoke(ids[0], |n, ctx| {
            issued.push(n.start_lookup(Key::from_u64(0xC000 + t), false, ctx));
        });
    }
    sim.run_until(sim.now() + SimDuration::from_secs(30.0));
    let results = &sim.node(ids[0]).results;
    assert!(
        results.len() > after_crash,
        "post-restart lookups must complete ({} vs {after_crash})",
        results.len()
    );
    // Issued ids are globally unique (the per-node id counter never
    // rewinds, even though arena slots are reused).
    let mut unique = issued.clone();
    unique.sort_unstable();
    unique.dedup();
    assert_eq!(unique.len(), issued.len(), "start_lookup reused an id");
    // No duplicate, resurrected, or fabricated lookup ids in results.
    let mut seen_ids = Vec::new();
    for r in results {
        assert!(
            !seen_ids.contains(&r.id),
            "lookup id {} reported twice — arena slot aliasing",
            r.id
        );
        assert!(
            issued.contains(&r.id),
            "lookup id {} completed but was never issued",
            r.id
        );
        seen_ids.push(r.id);
    }
    // Abandoned mid-crash lookups never produce results: their slots
    // were cleared by the crash, and reuse must not revive them.
    for id in &abandoned {
        assert!(
            !seen_ids.contains(id),
            "crash-abandoned lookup {id} completed after restart"
        );
    }
    assert_eq!(
        after_crash, after_wave1,
        "crash-abandoned lookups must not complete"
    );
}
