//! Interleaving stress suite for the sharded executor.
//!
//! `sharded_equivalence.rs` already proves serial and sharded runs
//! agree — but on an idle machine the shard workers tend to proceed in
//! near-lockstep, so entire classes of cross-shard races can stay
//! invisible. This suite turns on the perturbation hook in
//! `decent_sim::stress`: with a nonzero seed every worker injects
//! deterministic-per-seed yields and micro-sleeps between event
//! dispatches, forcing window phases to overlap in orders a quiet run
//! would never produce. The assertion stays the strongest one we have:
//! the canonical report JSON and the engine-level trace fingerprint
//! must be *byte-identical* to the unperturbed serial run, for every
//! perturbation seed and shard count. Any hidden ordering dependence —
//! the dynamic shadow of determinism rules D007/D010 — shows up as a diff.
//!
//! The hook is a process-global knob, so everything lives in one test
//! function; the guard resets the seed even on assertion failure.
//! Perturbation only happens inside shard workers, and the policy would
//! start none for sims this small, so the whole test forces windows.

use decent::core::{experiments, scenario::ExecPolicy};
use decent::sim::prelude::*;
use decent::sim::stress::{force_windows, set_interleave_seed};
use decent::sim::trace::EventRecord;
use rand::Rng;

/// Resets the process-global perturbation seed when dropped, so a
/// failing assertion cannot leak perturbation into other code.
struct HookGuard;

impl Drop for HookGuard {
    fn drop(&mut self) {
        set_interleave_seed(0);
    }
}

/// A chatty rumor-mongering node (same shape as the equivalence
/// suite's): RNG-dependent fanout means any divergence in event order
/// cascades into the trace fingerprint within a few hops.
struct Gossip {
    n: usize,
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
        for _ in 0..3 {
            let dst = ctx.rng().gen_range(0..n);
            ctx.send(dst, msg);
        }
    }

    fn on_timer(&mut self, _tag: u64, ctx: &mut Context<'_, u64>) {
        self.timer_fires += 1;
        if self.timer_fires < 15 {
            ctx.set_timer(SimDuration::from_secs(1.0), 1);
            if let Some(&r) = self.seen.last() {
                let n = self.n;
                let dst = ctx.rng().gen_range(0..n);
                ctx.send(dst, r);
            }
        }
    }
}

/// Trace-plus-state fingerprint of a gossip run at the given shard
/// count under whatever perturbation seed is currently active.
fn gossip_fingerprint(seed: u64, n: usize, shards: usize) -> (Vec<EventRecord>, Vec<Vec<u64>>) {
    let mut sim: Simulation<Gossip> =
        Simulation::new(seed, UniformLatency::from_millis(10.0, 60.0));
    sim.set_shards(shards);
    sim.enable_trace(1 << 14);
    for _ in 0..n {
        sim.add_node(Gossip {
            n,
            seen: Vec::new(),
            timer_fires: 0,
        });
    }
    for r in 0..4u64 {
        sim.inject(
            (r as usize * 5) % n,
            700 + r,
            SimDuration::from_secs(0.1 + r as f64),
        );
    }
    sim.run_until(SimTime::from_secs(20.0));
    let trace = sim
        .trace()
        .expect("trace enabled")
        .records()
        .copied()
        .collect();
    let state = (0..n).map(|i| sim.node(i).seen.clone()).collect();
    (trace, state)
}

/// Report JSON for one quick experiment at the given shard policy.
fn report_json(id: &str, shards: usize) -> String {
    let policy = if shards == 1 {
        ExecPolicy::serial()
    } else {
        ExecPolicy::sharded(shards)
    };
    experiments::run_report_exec(&[id], true, None, 1, policy).to_json_text()
}

// One test function on purpose: the perturbation seed is a
// process-global knob, and the default harness runs `#[test]` fns in
// parallel threads of one process.
#[test]
fn perturbed_interleavings_reproduce_the_serial_bytes() {
    let _guard = HookGuard;
    let _windows = force_windows();

    // Baselines are captured with the hook off: the unperturbed serial
    // run is the contract every perturbed sharded run must hit.
    set_interleave_seed(0);
    let gossip_serial = gossip_fingerprint(0xDEC0DE, 16, 1);
    let e1_serial = report_json("E1", 1);
    let e19_serial = report_json("E19", 1);

    for perturb_seed in [1u64, 42, 0x9E37_79B9_7F4A_7C15] {
        set_interleave_seed(perturb_seed);
        for shards in [2usize, 4, 8] {
            let (trace, state) = gossip_fingerprint(0xDEC0DE, 16, shards);
            assert_eq!(
                gossip_serial.0, trace,
                "gossip trace diverged at shards={shards} perturb_seed={perturb_seed:#x}"
            );
            assert_eq!(
                gossip_serial.1, state,
                "gossip node state diverged at shards={shards} perturb_seed={perturb_seed:#x}"
            );
        }
        // Report-level: two quick experiment families (overlay + fault
        // injection) at one sharded width keep the runtime reasonable
        // while still driving the full scenario pipeline.
        assert_eq!(
            e1_serial,
            report_json("E1", 4),
            "E1 report bytes diverged under perturb_seed={perturb_seed:#x}"
        );
        assert_eq!(
            e19_serial,
            report_json("E19", 4),
            "E19 report bytes diverged under perturb_seed={perturb_seed:#x}"
        );
    }
}
