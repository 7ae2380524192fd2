//! Loopback tests for the TCP backend.
//!
//! The same `KadNode` (crates/overlay/src/kademlia.rs) runs under the
//! simulator and under `TcpRuntime` against the same seeded topology
//! (`kadnet`'s deterministic demo roster, every node seeded with the
//! full roster). Because the initiator's shortlist then starts at the
//! true global k-closest set and no discovery can displace it, the
//! lookup's *values* — the closest-contact set and the found flag — are
//! timing-independent: wall-clock TCP and virtual-time sim must agree
//! exactly. Latencies and RPC interleaving legitimately differ and are
//! not compared.
//!
//! Nothing in the backend is Kademlia's: the last test hosts a
//! test-local `Node` with a test-local `Wire` message and checks the
//! stop semantics on it.

use std::net::SocketAddr;
use std::sync::atomic::{AtomicBool, AtomicU32, Ordering};
use std::sync::Arc;
use std::thread;

use decent_net::tcp::{TcpNetBuilder, TcpRuntime};
use decent_net::wire::{get_u64, put_u64, Wire, WireError};
use decent_overlay::id::Key;
use decent_overlay::kadnet;
use decent_sim::prelude::{Context, Node, NodeId, SimDuration, SimTime};

#[test]
fn tcp_and_sim_backends_agree_on_lookup_values() {
    let (seed, n) = (4242u64, 12usize);
    let cfg = kadnet::demo_config();
    let target = Key::from_u64(0xFEED_F00D);

    // Sim backend: virtual time, deterministic engine.
    let sim = kadnet::sim_lookup(seed, n, &cfg, target);

    // TCP backend: real listeners on ephemeral loopback ports, served
    // from a background thread while this thread probes.
    let bind: Vec<SocketAddr> = (0..n)
        .map(|_| SocketAddr::from(([127, 0, 0, 1], 0)))
        .collect();
    let mut mesh = kadnet::serve_mesh(seed, n, &cfg, &bind).expect("mesh binds on loopback");
    let addrs = mesh.addrs.clone();
    let stop = Arc::new(AtomicBool::new(false));
    let stop_server = stop.clone();
    let server = thread::spawn(move || {
        while !stop_server.load(Ordering::SeqCst) {
            mesh.runtime.poll(SimDuration::from_millis(20.0));
        }
        mesh
    });

    let probe = kadnet::probe_lookup(
        seed,
        &cfg,
        &addrs,
        SocketAddr::from(([127, 0, 0, 1], 0)),
        target,
        SimDuration::from_secs(30.0),
    )
    .expect("probe runtime starts")
    .expect("real-socket lookup completes before the deadline");

    stop.store(true, Ordering::SeqCst);
    let mesh = server.join().expect("server thread exits cleanly");
    drop(mesh);

    assert!(!probe.closest.is_empty(), "lookup discovered no contacts");
    assert_eq!(probe.timeouts, 0, "loopback RPCs must not time out");
    assert_eq!(
        probe.closest, sim.closest,
        "TCP and sim backends disagree on the k-closest set"
    );
    assert_eq!(probe.found_value, sim.found_value);
}

#[test]
fn mesh_serves_consecutive_probes() {
    // A served mesh is a long-lived process: two independent probe
    // runtimes (fresh sockets each) must both converge.
    let (seed, n) = (7u64, 8usize);
    let cfg = kadnet::demo_config();
    let bind: Vec<SocketAddr> = (0..n)
        .map(|_| SocketAddr::from(([127, 0, 0, 1], 0)))
        .collect();
    let mut mesh = kadnet::serve_mesh(seed, n, &cfg, &bind).expect("mesh binds on loopback");
    let addrs = mesh.addrs.clone();
    let stop = Arc::new(AtomicBool::new(false));
    let stop_server = stop.clone();
    let server = thread::spawn(move || {
        while !stop_server.load(Ordering::SeqCst) {
            mesh.runtime.poll(SimDuration::from_millis(20.0));
        }
    });

    let mut sets = Vec::new();
    for round in 0..2u64 {
        let r = kadnet::probe_lookup(
            seed,
            &cfg,
            &addrs,
            SocketAddr::from(([127, 0, 0, 1], 0)),
            Key::from_u64(0xABCD ^ round),
            SimDuration::from_secs(30.0),
        )
        .expect("probe runtime starts")
        .expect("lookup completes");
        sets.push(r.closest);
    }
    stop.store(true, Ordering::SeqCst);
    server.join().expect("server thread exits cleanly");

    // Different targets, but both sets come from the same 8-node
    // roster and must be full-size (k = 8, mesh = 8 responsive nodes).
    assert_eq!(sets[0].len(), n.min(kadnet::demo_config().k));
    assert_eq!(sets[1].len(), n.min(kadnet::demo_config().k));
}

#[derive(Clone)]
struct Count(u64);

impl Wire for Count {
    fn encode(&self, buf: &mut Vec<u8>) {
        put_u64(buf, self.0);
    }
    fn decode(r: &mut &[u8]) -> Result<Self, WireError> {
        Ok(Count(get_u64(r)?))
    }
}

/// Answers `n` with `n - 1`; whoever receives zero arms a timer and
/// leaves in the same activation.
struct Pinger {
    seen: u64,
    timers: u64,
    // Outlives the runtime, so a stop on drop is observable.
    stops: Arc<AtomicU32>,
}

impl Node for Pinger {
    type Msg = Count;

    fn on_message(&mut self, from: NodeId, msg: Count, ctx: &mut Context<'_, Count>) {
        self.seen += 1;
        if msg.0 > 0 {
            ctx.send(from, Count(msg.0 - 1));
        } else {
            ctx.set_timer(SimDuration::from_millis(1.0), 1);
            ctx.go_offline();
        }
    }

    fn on_timer(&mut self, _tag: u64, _ctx: &mut Context<'_, Count>) {
        self.timers += 1;
    }

    fn on_stop(&mut self, ctx: &mut Context<'_, Count>) {
        self.stops.fetch_add(1, Ordering::SeqCst);
        ctx.send(0, Count(99)); // discarded: a stopping node's effects go nowhere
    }
}

type PingRt = TcpRuntime<Pinger>;

/// Polls both runtimes from the calling thread until `done` holds,
/// giving up 30 s (of `a`'s clock) into the test.
fn pump(a: &mut PingRt, b: &mut PingRt, done: impl Fn(&PingRt, &PingRt) -> bool) {
    while !done(a, b) {
        assert!(
            a.now() < SimTime::from_secs(30.0),
            "loopback exchange stalled"
        );
        a.poll(SimDuration::from_millis(2.0));
        b.poll(SimDuration::from_millis(2.0));
    }
}

#[test]
fn any_node_runs_on_sockets_and_stops_once() {
    let any_port = SocketAddr::from(([127, 0, 0, 1], 0));
    let stops = [Arc::new(AtomicU32::new(0)), Arc::new(AtomicU32::new(0))];
    let pinger = |i: usize| Pinger {
        seen: 0,
        timers: 0,
        stops: stops[i].clone(),
    };
    let mut a = TcpNetBuilder::new(1)
        .host(0, any_port, pinger(0))
        .build()
        .expect("a binds on loopback");
    let a_addr = a.local_addr(0).expect("a is hosted");
    let mut b = TcpNetBuilder::new(1)
        .peer(0, a_addr)
        .host(1, any_port, pinger(1))
        .build()
        .expect("b binds on loopback");

    // b opens with 5: a sees 5, 3, 1 and b sees 4, 2, 0. a has no
    // directory entry for b and answers over the connection b dialed.
    b.invoke(1, |_, ctx| ctx.send(0, Count(5)));
    // b leaves on the zero; the timer it armed on the way out fires into
    // a stopped node.
    pump(&mut a, &mut b, |_, b| b.dropped() == 1);
    assert_eq!((a.node(0).seen, b.node(1).seen), (3, 3));
    assert_eq!(
        stops[1].load(Ordering::SeqCst),
        1,
        "go_offline runs on_stop"
    );

    // A frame for the stopped node is dropped and counted, not handled.
    a.invoke(0, |_, ctx| ctx.send(1, Count(7)));
    pump(&mut a, &mut b, |_, b| b.dropped() == 2);
    assert_eq!((b.node(1).seen, b.node(1).timers), (3, 0));
    assert_eq!(a.node(0).seen, 3, "on_stop's send was discarded");
    assert_eq!(a.dropped(), 0);

    // Dropping a runtime stops what is still running, and only that.
    drop(a);
    drop(b);
    assert_eq!(stops[0].load(Ordering::SeqCst), 1, "drop runs on_stop");
    assert_eq!(
        stops[1].load(Ordering::SeqCst),
        1,
        "on_stop never runs twice"
    );
}
