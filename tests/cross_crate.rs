//! Cross-crate integration: scenarios that span the substrate crates,
//! plus consistency of the claim catalog with the experiment registry.

use decent::core::{claims, scenario};
use decent::sim::prelude::*;

/// Every claim maps to a registered scenario and vice versa.
#[test]
fn claims_and_experiments_are_in_bijection() {
    let mut claimed: Vec<&str> = claims::CLAIMS.iter().map(|c| c.experiment).collect();
    claimed.sort_unstable();
    let mut registered = scenario::ids();
    registered.sort_unstable();
    assert_eq!(claimed, registered);
}

/// The registry rejects unknown ids and dispatches a registered one
/// (checked cheaply via the experiment that needs no simulation).
#[test]
fn experiment_registry_dispatches() {
    assert!(scenario::build("E99", true).is_none());
    let r = scenario::build("E10", true).expect("registered").run();
    assert_eq!(r.id, "E10");
    assert!(!r.tables.is_empty());
    assert!(!r.findings.is_empty());
}

/// The paper's core quantitative narrative, end to end at CI scale:
/// the permissionless stack loses to the permissioned/cloud stack on
/// every axis the paper cares about.
#[test]
fn the_papers_argument_holds_end_to_end() {
    use decent::bft::pbft::{saturation_run, PbftConfig};
    use decent::chain::node::{build_network, report, ChainNodeConfig, NetworkConfig};
    use decent::chain::pow::PowParams;

    // Permissionless: 40 nodes, planet-scale latency, saturated load.
    let mut rng = rng_from_seed(71);
    let net = RegionNet::sampled(40, &Region::BITCOIN_2019_DISTRIBUTION, &mut rng);
    let mut sim = Simulation::new(72, net);
    let cfg = NetworkConfig {
        nodes: 40,
        miner_fraction: 0.25,
        node: ChainNodeConfig {
            params: PowParams::bitcoin(),
            tx_rate: 100.0,
            ..ChainNodeConfig::default()
        },
        ..NetworkConfig::default()
    };
    let ids = build_network(&mut sim, &cfg, 73);
    sim.run_until(SimTime::from_hours(6.0));
    let pow = report(&sim, ids[39]);

    // Permissioned: a 16-replica PBFT committee on a LAN. Throughput is
    // measured saturated; latency at light load (a saturated pre-loaded
    // queue measures backlog wait, not protocol latency).
    let pbft = PbftConfig {
        n: 16,
        ..PbftConfig::default()
    };
    let (bft_tps, _) = saturation_run(&pbft, 50_000, SimDuration::from_secs(2.0), 74);
    let (_, bft_lat) = saturation_run(&pbft, 1_000, SimDuration::from_secs(2.0), 75);

    assert!(pow.tps < 8.0, "PoW stays in single digits: {}", pow.tps);
    assert!(
        bft_tps > 100.0 * pow.tps,
        "BFT ({bft_tps}) must be orders of magnitude above PoW ({})",
        pow.tps
    );
    assert!(
        bft_lat.p50 < 1.0,
        "BFT commits in well under a second: {}",
        bft_lat.p50
    );
}

/// The gossip substrate used conceptually by both worlds behaves the
/// same over the overlay graph and the chain relay network: denser
/// connectivity means faster, more complete dissemination.
#[test]
fn dissemination_improves_with_connectivity() {
    use decent::overlay::gossip::{build_network, delivery_ratio, GossipConfig};

    let run = |fanout: usize| {
        let mut sim = Simulation::new(81, UniformLatency::from_millis(20.0, 100.0));
        let graph = Graph::random_outbound(300, 8, &mut rng_from_seed(82));
        let cfg = GossipConfig {
            fanout,
            ..GossipConfig::default()
        };
        let ids = build_network(&mut sim, &graph, cfg);
        sim.run_until(SimTime::from_secs(0.1));
        sim.invoke(ids[0], |n, ctx| n.publish(1, ctx));
        sim.run_until(SimTime::from_secs(20.0));
        delivery_ratio(&sim, &ids, 1)
    };
    let sparse = run(1);
    let dense = run(6);
    assert!(dense > 0.95);
    assert!(dense > sparse);
}

/// Superpeer and flooding overlays answer the same workload; the
/// superpeer tier resolves queries with far less relay traffic.
#[test]
fn superpeers_beat_flooding_on_traffic() {
    use decent::overlay::flood::{build_network as build_flood, FloodConfig};
    use decent::overlay::superpeer::build_network as build_sp;

    // Flooding: 300 peers, one query.
    let mut sim = Simulation::new(91, UniformLatency::from_millis(20.0, 80.0));
    let ids = build_flood(&mut sim, 300, &FloodConfig::default(), 92);
    sim.run_until(SimTime::from_secs(0.1));
    sim.invoke(ids[0], |n, ctx| n.query(1, 0, 7, ctx));
    sim.run_until(SimTime::from_secs(20.0));
    let flood_msgs = sim.stats().sent;

    // Superpeers: 10 supers + 290 leaves, same catalog shape.
    let mut sim2 = Simulation::new(93, UniformLatency::from_millis(20.0, 80.0));
    let (_supers, leaves) = build_sp(
        &mut sim2,
        10,
        290,
        |i, _rng| {
            if i % 3 == 0 {
                vec![(i % 50) as u32]
            } else {
                vec![]
            }
        },
        94,
    );
    sim2.run_until(SimTime::from_secs(1.0));
    let baseline = sim2.stats().sent; // registrations
    sim2.invoke(leaves[1], |n, ctx| n.query(1, 3, ctx));
    sim2.run_until(SimTime::from_secs(20.0));
    let sp_msgs = sim2.stats().sent - baseline;

    assert!(
        sp_msgs * 5 < flood_msgs,
        "superpeer query traffic ({sp_msgs}) should be a fraction of flooding ({flood_msgs})"
    );
}

/// One-hop overlays trade lookup latency for membership traffic — both
/// directions of the trade must be visible in the same run.
#[test]
fn onehop_trades_bandwidth_for_latency() {
    use decent::overlay::id::Key;
    use decent::overlay::kademlia::Contact;
    use decent::overlay::onehop::{build_network, OneHopConfig};

    let mut sim = Simulation::new(95, UniformLatency::from_millis(30.0, 90.0));
    let ids = build_network(&mut sim, 200, OneHopConfig::default(), 96);
    sim.run_until(SimTime::from_secs(0.1));
    // Lookups are one round trip.
    sim.invoke(ids[0], |n, ctx| {
        n.start_lookup(Key::from_u64(5), ctx);
    });
    sim.run_until(SimTime::from_secs(5.0));
    let r = sim.node(ids[0]).results[0];
    assert!(r.success);
    assert!(r.latency < SimDuration::from_millis(200.0));
    // Membership events cost gossip traffic.
    let before = sim.stats().sent;
    let subject = Contact {
        node: ids[1],
        key: sim.node(ids[1]).key(),
    };
    sim.invoke(ids[2], |n, _| n.observe(subject, false));
    sim.run_until(sim.now() + SimDuration::from_mins(3.0));
    let traffic = sim.stats().sent - before;
    assert!(
        traffic > 100,
        "a single membership event must fan out through gossip: {traffic}"
    );
}
