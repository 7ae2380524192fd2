//! Isolated layer probes of the traced run: single public calls, timed on
//! their own, at the sizes the workloads reach. They give a layer's cost
//! without the layers around it; each is a lower bound on what the layer
//! costs inside a workload, where its data is colder.

use std::hint::black_box;
use std::io::Cursor;
use std::net::{TcpListener, TcpStream};
use std::time::Instant;

use decent_core::experiments::run_report;
use decent_net::wire::{read_frame, write_frame, Wire};
use decent_overlay::id::Key;
use decent_overlay::kademlia::{Contact, KadMsg};
use decent_sim::json::Json;
use decent_sim::prelude::*;

use crate::outcome::Outcome;
use crate::span::Tracer;
use crate::{host, stats};

/// Queue depth of the scheduler probe when the workload has no simulated
/// network of its own to take a peak depth from.
const DEFAULT_DEPTH: usize = 16_384;

/// Forwards every message it gets to the next node of the ring.
struct TokenNode {
    next: NodeId,
}

impl Node for TokenNode {
    type Msg = u64;

    fn on_start(&mut self, ctx: &mut Context<'_, u64>) {
        ctx.send(self.next, 0);
    }

    fn on_message(&mut self, _from: NodeId, hops: u64, ctx: &mut Context<'_, u64>) {
        ctx.send(self.next, hops + 1);
    }
}

/// `simcore.engine.bare_ns_per_event`: the engine's floor per event, with
/// a handler that does nothing but send (1 024 tokens on a ring, a
/// constant 10 ms link, two million events).
fn engine(t: &mut Tracer, out: &mut Outcome) {
    const RING: usize = 1_024;
    const HOPS: f64 = 2_000.0;
    let mut sim: Simulation<TokenNode> = Simulation::new(1, ConstantLatency::from_millis(10.0));
    for i in 0..RING {
        sim.add_node(TokenNode {
            next: (i + 1) % RING,
        });
    }
    let (_, s) = t.span("simcore.run_until", |_| {
        sim.run_until(SimTime::from_secs(HOPS * 0.010));
    });
    out.layer(
        "simcore.engine.bare_ns_per_event",
        s * 1e9 / sim.events_processed() as f64,
    );
}

/// Holds `depth` events pending and times `ops` pop-then-schedule pairs.
fn sched_ns_per_op<S: Scheduler<u64>>(depth: usize, ops: usize, delays: &[SimDuration]) -> f64 {
    let mut q = S::new();
    for (i, d) in delays.iter().cycle().take(depth).enumerate() {
        q.schedule(SimTime::ZERO + *d, i as u64, i as u64);
    }
    let t0 = Instant::now();
    for (i, d) in delays.iter().cycle().take(ops).enumerate() {
        let (now, _, item) = q.pop().expect("queue stays at depth");
        q.schedule(now + *d, (depth + i) as u64, black_box(item));
    }
    host::secs_since(t0) * 1e9 / ops as f64
}

/// The two schedulers at the workload's own peak depth, and the two
/// network models the simulated workloads sample delays from.
fn sched_and_net(t: &mut Tracer, out: &mut Outcome) {
    const OPS: usize = 2_000_000;
    let depth = out
        .layer_value("simcore.peak_queue_depth")
        .map_or(DEFAULT_DEPTH, |d| (d as usize).max(1));
    let mut rng = rng_from_seed(2);
    let mut uniform = UniformLatency::from_millis(30.0, 120.0);
    let delays: Vec<SimDuration> = (0..4096)
        .map(|i| {
            uniform
                .delay(i, i + 1, 256, SimTime::ZERO, &mut rng)
                .expect("UniformLatency never drops")
        })
        .collect();
    let (ns, _) = t.span("simcore.sched.TimingWheel", |_| {
        sched_ns_per_op::<TimingWheel<u64>>(depth, OPS, &delays)
    });
    out.layer("simcore.sched.wheel_ns_per_op", ns);
    let (ns, _) = t.span("simcore.sched.BinaryHeapScheduler", |_| {
        sched_ns_per_op::<BinaryHeapScheduler<u64>>(depth, OPS, &delays)
    });
    out.layer("simcore.sched.heap_ns_per_op", ns);

    const NODES: usize = 1_000;
    let mut time_delays = |net: &mut dyn NetworkModel| {
        let t0 = Instant::now();
        for i in 0..OPS {
            black_box(net.delay(i % NODES, (i * 7 + 1) % NODES, 256, SimTime::ZERO, &mut rng));
        }
        host::secs_since(t0) * 1e9 / OPS as f64
    };
    let (ns, _) = t.span("simcore.net.UniformLatency.delay", |_| {
        time_delays(&mut uniform)
    });
    out.layer("simcore.net.uniform_ns_per_delay", ns);
    let mut region = crate::workloads::chain::region_net(NODES);
    let (ns, _) = t.span("simcore.net.RegionNet.delay", |_| time_delays(&mut region));
    out.layer("simcore.net.region_ns_per_delay", ns);
}

/// `simcore.json.*` on a report of the six experiments that need no
/// simulated network, and `simcore.metrics.hist_*` on a million samples.
fn json_and_hist(t: &mut Tracer, out: &mut Outcome) {
    const REPS: usize = 20;
    let report = run_report(&["E3", "E8", "E10", "E16", "E17", "E18"], true, None, 1);
    let doc = report.to_json();
    let mut text = String::new();
    let (_, s) = t.span("simcore.json.to_string_pretty", |_| {
        for _ in 0..REPS {
            text = black_box(&doc).to_string_pretty();
        }
    });
    out.layer("simcore.json.render_ms", s * 1e3 / REPS as f64);
    out.layer("simcore.json.doc_bytes", text.len() as f64);
    let (_, s) = t.span("simcore.json.parse", |_| {
        for _ in 0..REPS {
            black_box(Json::parse(&text).expect("rendered report parses"));
        }
    });
    out.layer("simcore.json.parse_ms", s * 1e3 / REPS as f64);

    const SAMPLES: u64 = 1_000_000;
    let mut h = Histogram::new();
    let (_, s) = t.span("simcore.metrics.Histogram.record", |_| {
        for i in 0..SAMPLES {
            h.record(derive_seed(3, i) as f64);
        }
    });
    out.layer(
        "simcore.metrics.hist_ns_per_record",
        s * 1e9 / SAMPLES as f64,
    );
    let (_, s) = t.span("simcore.metrics.Histogram.percentile", |_| {
        black_box(h.percentile(0.9));
    });
    out.layer("simcore.metrics.hist_percentile_ms", s * 1e3);
}

/// `net.wire.*`: codec and framing on a `FIND_NODE` reply of eight
/// contacts (what a `wire_kad` server sends), in memory and then over a
/// loopback socket pair with no runtime around it.
fn wire(t: &mut Tracer, out: &mut Outcome) {
    const MSGS: usize = 200_000;
    const ROUND_TRIPS: usize = 10;
    let contacts: Vec<Contact> = (0..8)
        .map(|node| Contact {
            node,
            key: Key::from_u64(node as u64),
        })
        .collect();
    let msg = KadMsg::FindNodeReply {
        rpc: 7,
        from_key: Key::from_u64(99),
        closest: Interned::from_vec(contacts),
    };
    let mut payload = Vec::new();
    let (_, s) = t.span("net.wire.encode", |_| {
        for _ in 0..MSGS {
            payload.clear();
            black_box(&msg).encode(&mut payload);
        }
    });
    out.layer("net.wire.encode_ns_per_msg", s * 1e9 / MSGS as f64);
    let (_, s) = t.span("net.wire.decode", |_| {
        for _ in 0..MSGS {
            let mut r = black_box(&payload[..]);
            black_box(KadMsg::decode(&mut r).expect("own encoding decodes"));
        }
    });
    out.layer("net.wire.decode_ns_per_msg", s * 1e9 / MSGS as f64);
    let mut framed = Vec::new();
    let (_, s) = t.span("net.wire.frame", |_| {
        for _ in 0..MSGS {
            framed.clear();
            write_frame(&mut framed, 3, &payload).expect("writing to a Vec cannot fail");
            black_box(read_frame(&mut Cursor::new(&framed)).expect("own frame reads back"));
        }
    });
    out.layer("net.wire.frame_ns_per_msg", s * 1e9 / MSGS as f64);

    let listener = TcpListener::bind(("127.0.0.1", 0)).expect("loopback binds");
    let addr = listener
        .local_addr()
        .expect("bound listener has an address");
    let echo = std::thread::spawn(move || {
        let (mut peer, _) = listener.accept().expect("probe connects");
        while let Ok(Some((from, body))) = read_frame(&mut peer) {
            if write_frame(&mut peer, from, &body).is_err() {
                break;
            }
        }
    });
    let mut stream = TcpStream::connect(addr).expect("loopback connects");
    let (rtt_us, _) = t.span("net.wire.frame_rtt", |_| {
        (0..ROUND_TRIPS)
            .map(|_| {
                let t0 = Instant::now();
                write_frame(&mut stream, 3, &payload).expect("loopback write");
                black_box(read_frame(&mut stream).expect("loopback read"));
                host::secs_since(t0) * 1e6
            })
            .collect::<Vec<f64>>()
    });
    drop(stream);
    echo.join().expect("echo thread does not panic");
    out.layer("net.wire.frame_rtt_us", stats::median(&rtt_us));
}

/// Runs every probe and records its metric.
pub fn run(t: &mut Tracer, out: &mut Outcome) {
    engine(t, out);
    sched_and_net(t, out);
    json_and_hist(t, out);
    wire(t, out);
}
