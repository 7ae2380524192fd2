//! Failure injection across the stack: churn storms on the DHT,
//! eclipse attacks, byzantine and crashing consensus members, and
//! network loss.

use decent::bft::pbft::{build_cluster as build_pbft, Behavior, PbftConfig};
use decent::bft::raft::{build_cluster as build_raft, current_leader, RaftConfig, Role};
use decent::overlay::id::Key;
use decent::overlay::kademlia::{build_network as build_kad, KadConfig};
use decent::sim::prelude::*;

/// A mass-departure "churn storm" must degrade but not wedge the DHT.
#[test]
fn dht_survives_a_churn_storm() {
    let mut sim = Simulation::new(61, UniformLatency::from_millis(20.0, 80.0));
    let ids = build_kad(&mut sim, 400, &KadConfig::default(), 0.0, 8, 62);
    sim.run_until(SimTime::from_secs(1.0));
    // 60% of the network leaves within one minute.
    for (i, &id) in ids.iter().enumerate() {
        if i % 5 < 3 {
            sim.schedule_stop(id, SimTime::from_secs(1.0 + (i % 60) as f64));
        }
    }
    sim.run_until(SimTime::from_mins(2.0));
    let survivors: Vec<NodeId> = ids.iter().copied().filter(|&i| sim.is_online(i)).collect();
    assert!(survivors.len() >= 140);
    for (i, &origin) in survivors.iter().take(30).enumerate() {
        let t = Key::from_u64(i as u64);
        sim.invoke(origin, |n, ctx| {
            n.start_lookup(t, false, ctx);
        });
    }
    sim.run_until(sim.now() + SimDuration::from_mins(5.0));
    let mut done = 0;
    let mut with_results = 0;
    for &id in &survivors {
        for r in &sim.node(id).results {
            done += 1;
            if !r.closest.is_empty() {
                with_results += 1;
            }
        }
    }
    assert_eq!(done, 30, "every lookup must terminate");
    assert!(
        with_results >= 25,
        "most lookups should still find live nodes: {with_results}/30"
    );
}

/// Message loss slows Kademlia down (timeouts) but does not break it.
#[test]
fn dht_tolerates_message_loss() {
    let run = |loss: f64| {
        let end = SimTime::from_mins(5.0);
        let plan = FaultPlan::new().degrade(SimTime::ZERO, end, LinkSet::All, 1.0, loss);
        let net = Faulty::new(UniformLatency::from_millis(20.0, 80.0), plan);
        let mut sim = Simulation::new(63, net);
        let ids = build_kad(&mut sim, 250, &KadConfig::default(), 0.0, 8, 64);
        sim.run_until(SimTime::from_secs(1.0));
        for i in 0..20u64 {
            let origin = ids[(i as usize * 11) % ids.len()];
            sim.invoke(origin, |n, ctx| {
                n.start_lookup(Key::from_u64(i), false, ctx);
            });
        }
        sim.run_until(end);
        let mut lat = Histogram::new();
        let mut timeouts = 0usize;
        for &id in &ids {
            for r in &sim.node(id).results {
                lat.record(r.latency.as_secs());
                timeouts += r.timeouts;
            }
        }
        (lat.count(), lat.mean(), timeouts)
    };
    let (done_clean, mean_clean, t_clean) = run(0.0);
    let (done_lossy, mean_lossy, t_lossy) = run(0.15);
    assert_eq!(done_clean, 20);
    assert_eq!(done_lossy, 20, "lossy lookups must still terminate");
    assert!(t_lossy > t_clean, "loss must cause timeouts");
    assert!(mean_lossy > mean_clean, "loss must cost latency");
}

/// Two consecutive byzantine primaries are voted out one after another.
#[test]
fn pbft_survives_two_silent_primaries_in_a_row() {
    let cfg = PbftConfig {
        n: 7,
        view_timeout: SimDuration::from_millis(400.0),
        ..PbftConfig::default()
    };
    let mut sim = Simulation::new(65, LanNet::datacenter());
    let ids = build_pbft(
        &mut sim,
        &cfg,
        &[Behavior::SilentPrimary, Behavior::SilentPrimary],
    );
    for &id in &ids {
        sim.node_mut(id).submit_many(0..1000, SimTime::ZERO);
    }
    sim.run_until(SimTime::from_secs(15.0));
    let honest = sim.node(ids[2]);
    assert!(
        honest.view() >= 2,
        "two view changes expected, got {}",
        honest.view()
    );
    assert_eq!(honest.executed.len(), 1000);
}

/// PBFT stalls (safely) beyond its fault budget: with f+1 crashed
/// replicas nothing commits, but nothing diverges either.
#[test]
fn pbft_halts_beyond_its_fault_budget() {
    let cfg = PbftConfig::default(); // n = 4, f = 1
    let mut sim = Simulation::new(66, LanNet::datacenter());
    let ids = build_pbft(&mut sim, &cfg, &[]);
    // Crash two backups: only 2 of 4 remain, below the 2f+1 = 3 quorum.
    sim.schedule_stop(ids[2], SimTime::from_secs(0.001));
    sim.schedule_stop(ids[3], SimTime::from_secs(0.001));
    for &id in &ids {
        sim.node_mut(id).submit_many(0..100, SimTime::ZERO);
    }
    sim.run_until(SimTime::from_secs(10.0));
    assert_eq!(
        sim.node(ids[0]).executed.len(),
        0,
        "no commit without a quorum"
    );
    assert_eq!(sim.node(ids[1]).executed.len(), 0);
}

/// A scripted 5/2 partition stalls exactly the minority side of a PBFT
/// cluster, and the quorum side never notices.
#[test]
fn scripted_partition_stalls_only_the_pbft_minority() {
    let cfg = PbftConfig {
        n: 7,
        ..PbftConfig::default()
    };
    let plan = FaultPlan::new().partition(
        SimTime::from_secs(2.0),
        SimTime::from_secs(30.0),
        vec![5, 6],
    );
    let mut sim = Simulation::new(68, Faulty::new(LanNet::datacenter(), plan));
    let ids = build_pbft(&mut sim, &cfg, &[]);
    sim.run_until(SimTime::from_secs(3.0));
    let now = sim.now();
    for &id in &ids {
        sim.node_mut(id).submit_many(0..500, now);
    }
    sim.run_until(SimTime::from_secs(20.0));
    // Majority (holds the 2f+1 = 5 quorum) executes everything; the cut
    // minority executes nothing and burns view-change attempts instead.
    assert_eq!(sim.node(ids[0]).executed.len(), 500);
    assert_eq!(sim.node(ids[4]).executed.len(), 500);
    assert_eq!(sim.node(ids[5]).executed.len(), 0, "minority must stall");
    assert_eq!(sim.node(ids[6]).executed.len(), 0, "minority must stall");
    assert!(sim.node(ids[6]).view_changes > 0, "futile view changes");
    // The engine accounted for every message that hit the cut.
    assert!(sim.metrics_snapshot().counter("msgs_dropped_partition") > 0);
}

/// Kademlia lookups on the majority side keep terminating while the
/// network is bisected, and the healed network answers for both sides.
#[test]
fn dht_lookups_terminate_across_a_bisection() {
    let plan = FaultPlan::new().bisect(
        SimTime::from_secs(5.0),
        SimTime::from_secs(60.0),
        &(0..300).collect::<Vec<_>>(),
    );
    let mut sim = Simulation::new(
        69,
        Faulty::new(UniformLatency::from_millis(20.0, 80.0), plan),
    );
    let ids = build_kad(&mut sim, 300, &KadConfig::default(), 0.0, 8, 70);
    sim.run_until(SimTime::from_secs(10.0));
    // Mid-partition: origins on the first half (the side `bisect` cuts
    // at the midpoint) can only see their own half.
    for i in 0..20u64 {
        let origin = ids[(i as usize * 7) % 150];
        sim.invoke(origin, |n, ctx| {
            n.start_lookup(Key::from_u64(i), false, ctx);
        });
    }
    sim.run_until(SimTime::from_secs(70.0));
    let mid: usize = ids[..150]
        .iter()
        .map(|&id| sim.node(id).results.len())
        .sum();
    assert_eq!(mid, 20, "every mid-partition lookup must terminate");
    // Post-heal: lookups work from either side again.
    for i in 0..20u64 {
        let origin = ids[(i as usize * 7) % 300];
        sim.invoke(origin, |n, ctx| {
            n.start_lookup(Key::from_u64(1000 + i), false, ctx);
        });
    }
    sim.run_until(SimTime::from_secs(120.0));
    let total: usize = ids.iter().map(|&id| sim.node(id).results.len()).sum();
    assert_eq!(total, 40, "post-heal lookups must terminate too");
}

/// `FaultPlan::schedule_crashes` takes the scripted node set down as
/// first-class engine events and brings it back at the window's end.
#[test]
fn crash_burst_downs_and_recovers_the_scripted_set() {
    let burst: Vec<NodeId> = (10..40).collect();
    let plan = FaultPlan::new().crash_burst(
        SimTime::from_secs(5.0),
        SimTime::from_secs(15.0),
        burst.clone(),
    );
    let mut sim = Simulation::new(71, UniformLatency::from_millis(20.0, 80.0));
    let ids = build_kad(&mut sim, 80, &KadConfig::default(), 0.0, 8, 72);
    plan.schedule_crashes(&mut sim);
    sim.run_until(SimTime::from_secs(10.0));
    assert!(burst.iter().all(|&id| !sim.is_online(ids[id])));
    assert!(sim.is_online(ids[0]) && sim.is_online(ids[79]));
    sim.run_until(SimTime::from_secs(20.0));
    assert!(
        burst.iter().all(|&id| sim.is_online(ids[id])),
        "burst nodes must recover at the window end"
    );
}

/// Raft under a crash-recover churn schedule never loses commits.
#[test]
fn raft_crash_recover_storm_preserves_committed_prefix() {
    let mut sim = Simulation::new(67, LanNet::datacenter());
    let ids = build_raft(&mut sim, &RaftConfig::default());
    sim.run_until(SimTime::from_secs(1.0));
    for &id in &ids {
        sim.node_mut(id)
            .submit_many(0..3000, SimTime::from_secs(1.0));
    }
    // Rolling restarts: each server crashes for 1 s, staggered.
    for (i, &id) in ids.iter().enumerate() {
        let down = 2.0 + i as f64 * 1.5;
        sim.schedule_stop(id, SimTime::from_secs(down));
        sim.schedule_start(id, SimTime::from_secs(down + 1.0));
    }
    sim.run_until(SimTime::from_secs(40.0));
    // All servers converge on an identical committed sequence.
    let leader = current_leader(&sim, &ids).expect("a leader after the storm");
    assert_eq!(sim.node(leader).role(), Role::Leader);
    let reference = sim.node(leader).committed_ids();
    assert_eq!(reference.len(), 3000, "all ops must eventually commit");
    for &id in &ids {
        let theirs = sim.node(id).committed_ids();
        let common = theirs.len().min(reference.len());
        assert_eq!(
            &theirs[..common],
            &reference[..common],
            "committed prefixes must agree"
        );
    }
}
