//! `wire_kad`: Kademlia lookups over loopback TCP.
//!
//! The only workload that runs `net::wire` and `net::tcp`: the same
//! `KadNode` core as `kad100k`, through the other backend. One thread
//! serves a 16-node mesh (`kadnet::serve_mesh`, ports chosen by the
//! kernel); the measuring thread is one probe in a closed loop with one
//! lookup in flight, so a slow system is offered less load. One pass is
//! one lookup; no delay is injected, so latency is processor, framing and
//! socket time only.

use std::io;
use std::net::SocketAddr;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{mpsc, Arc};
use std::thread::{self, JoinHandle};
use std::time::Instant;

use decent_net::tcp::{TcpNetBuilder, TcpRuntime};
use decent_overlay::id::Key;
use decent_overlay::kademlia::{Contact, KadNode, LookupResult};
use decent_overlay::kadnet::{
    demo_config, demo_contacts, demo_keys, probe_id, serve_mesh, sim_lookup,
};
use decent_sim::prelude::*;

use super::{measure_setups, shared_e2e, PassClock, RunConfig};
use crate::outcome::Outcome;
use crate::span::Tracer;
use crate::{host, stats};

/// Nodes of the served mesh.
const MESH: usize = 16;
/// Lookups that always run.
const LOOKUPS: usize = 20;
/// A lookup without a result after this long has failed.
const LOOKUP_TIMEOUT_S: f64 = 5.0;

/// The mesh and the thread that serves it.
struct Mesh {
    addrs: Vec<SocketAddr>,
    stop: Arc<AtomicBool>,
    served: Arc<AtomicU64>,
    thread: JoinHandle<u64>,
}

impl Mesh {
    /// Builds the mesh on its own thread and serves it until [`Mesh::stop`].
    fn start(seed: u64, n: usize) -> io::Result<Mesh> {
        let stop = Arc::new(AtomicBool::new(false));
        let served = Arc::new(AtomicU64::new(0));
        let (tx, rx) = mpsc::channel();
        let (stop_flag, served_count) = (stop.clone(), served.clone());
        let thread = thread::spawn(move || {
            let any_port: SocketAddr = ([127, 0, 0, 1], 0).into();
            let mut mesh = match serve_mesh(seed, n, &demo_config(), &vec![any_port; n]) {
                Ok(mesh) => mesh,
                Err(e) => {
                    let _ = tx.send(Err(e));
                    return 0;
                }
            };
            let _ = tx.send(Ok(mesh.addrs.clone()));
            // SeqCst on the flag; `served` is a statistic, hence Relaxed.
            while !stop_flag.load(Ordering::SeqCst) {
                let n = mesh.runtime.poll(SimDuration::from_millis(10.0));
                served_count.fetch_add(n as u64, Ordering::Relaxed);
            }
            mesh.runtime.dropped()
        });
        let addrs = rx
            .recv()
            .map_err(|_| io::Error::other("mesh thread ended before binding"))??;
        Ok(Mesh {
            addrs,
            stop,
            served,
            thread,
        })
    }

    fn served(&self) -> u64 {
        self.served.load(Ordering::Relaxed)
    }

    /// Stops serving, joins the thread and returns the messages it dropped.
    fn stop(self) -> u64 {
        self.stop.store(true, Ordering::SeqCst);
        self.thread.join().expect("mesh thread does not panic")
    }
}

/// The probe: one TCP runtime hosting one node that knows the roster.
struct Probe {
    runtime: TcpRuntime<KadNode>,
    id: NodeId,
    handled: u64,
}

/// One lookup as the probe saw it.
struct Lookup {
    target: Key,
    result: Option<LookupResult>,
    issue_s: f64,
    total_s: f64,
}

impl Probe {
    fn start(seed: u64, mesh: &[SocketAddr]) -> io::Result<Probe> {
        let n = mesh.len();
        let id = probe_id(n);
        let key = demo_keys(seed, n)[id];
        let any_port: SocketAddr = ([127, 0, 0, 1], 0).into();
        let mut builder =
            TcpNetBuilder::new(seed).host(id, any_port, KadNode::new(key, demo_config()));
        for (i, &addr) in mesh.iter().enumerate() {
            builder = builder.peer(i, addr);
        }
        let mut runtime = builder.build()?;
        let now = runtime.now();
        runtime
            .node_mut(id)
            .seed_routing_table(&demo_contacts(seed, n), now);
        Ok(Probe {
            runtime,
            id,
            handled: 0,
        })
    }

    /// One lookup, start to result.
    fn lookup(&mut self, target: Key, t: &mut Tracer) -> Lookup {
        let t0 = Instant::now();
        let id = self.id;
        let (lookup, issue_s) = t.span("net.tcp.invoke", |_| {
            self.runtime
                .invoke(id, |node, net| node.start_lookup(target, false, net))
        });
        let (result, _) = t.span("net.tcp.poll", |_| loop {
            self.handled += self.runtime.poll(SimDuration::from_millis(0.5)) as u64;
            let node = self.runtime.node_mut(id);
            if let Some(i) = node.results.iter().position(|r| r.id == lookup) {
                break Some(node.results.swap_remove(i));
            }
            if host::secs_since(t0) > LOOKUP_TIMEOUT_S {
                break None;
            }
        });
        Lookup {
            target,
            result,
            issue_s,
            total_s: host::secs_since(t0),
        }
    }
}

/// The `k` roster contacts closest to `target`, nearest first.
fn true_closest(roster: &[Contact], target: &Key, k: usize) -> Vec<Contact> {
    let mut sorted = roster.to_vec();
    sorted.sort_by_key(|c| c.key.xor_distance(target));
    sorted.truncate(k);
    sorted
}

/// Runs the workload.
pub fn run(cfg: &RunConfig, t: &mut Tracer, out: &mut Outcome) {
    let always = cfg.sizes.lookups.unwrap_or(LOOKUPS);
    let mesh_nodes = cfg.sizes.nodes.unwrap_or(MESH);
    let roster = demo_contacts(cfg.seed, mesh_nodes);

    let (mut build_s, mut warmup_s) = (Vec::new(), Vec::new());
    let mut warm_failed = 0;
    let mut dropped = 0;
    let ((mesh, mut probe), setup_s) = measure_setups(
        t,
        |t, _| {
            let ((mesh, mut probe), b) = t.span("net.tcp.build", |_| {
                let mesh = Mesh::start(cfg.seed, mesh_nodes).expect("mesh binds on loopback");
                let probe = Probe::start(cfg.seed, &mesh.addrs).expect("probe binds on loopback");
                (mesh, probe)
            });
            build_s.push(b);
            // A lookup for a node's own key asks that node, so one lookup
            // per roster key dials every peer before anything is timed.
            let (warm, w) = t.span("net.tcp.warmup", |t| {
                roster
                    .iter()
                    .filter(|c| probe.lookup(c.key, t).result.is_some())
                    .count()
            });
            warmup_s.push(w);
            warm_failed += (mesh_nodes - warm) as u64;
            (mesh, probe)
        },
        |_, (mesh, probe)| {
            dropped += probe.runtime.dropped();
            drop(probe);
            dropped += mesh.stop();
        },
    );
    out.ops(
        (mesh_nodes * setup_s.len()) as u64,
        warm_failed,
        "warm-up lookups timed out",
    );

    let mut rng = rng_from_seed(derive_seed(cfg.seed, 0x7A26));
    let mut lookups: Vec<Lookup> = Vec::new();
    let mut clock = PassClock::new(always, cfg.seconds);
    while clock.more() {
        clock.pass(t, |t| {
            let (served0, handled0) = (mesh.served(), probe.handled);
            lookups.push(probe.lookup(Key::random(&mut rng), t));
            (mesh.served() - served0) + (probe.handled - handled0)
        });
    }
    let passes = clock.finish();
    let served = mesh.served();
    dropped += probe.runtime.dropped();
    drop(probe);
    dropped += mesh.stop();

    // Checked after the window, so the checks cost the lookups nothing.
    // One protocol core behind two backends: at every seed the sockets
    // return what the simulator returns. Whether that is the roster's true
    // k-closest set depends on the seed (a k-bucket holds eight of the
    // sixteen contacts, and at seed 302 one node goes unseen), so that is
    // expected at the default seed only.
    let k = demo_config().k;
    let (mut wrong, mut off_true) = (0, 0);
    t.span("overlay.kadnet.sim_lookup", |_| {
        for l in &lookups {
            let Some(r) = &l.result else { continue };
            let simulated = sim_lookup(cfg.seed, mesh_nodes, &demo_config(), l.target);
            wrong += u64::from(r.closest != simulated.closest);
            off_true += u64::from(r.closest != true_closest(&roster, &l.target, k));
        }
    });
    let done: Vec<&LookupResult> = lookups.iter().filter_map(|l| l.result.as_ref()).collect();
    let timed_out = (lookups.len() - done.len()) as u64;
    out.ops(lookups.len() as u64, timed_out, "lookups timed out");
    out.ops(
        done.len() as u64,
        wrong,
        "lookups returned a set other than kadnet::sim_lookup's",
    );
    cfg.check_expected(out, "lookups_off_true_k_closest", off_true);

    shared_e2e(out, &setup_s, &passes);
    let rpcs: usize = done.iter().map(|r| r.rpcs).sum();
    let latency_s: f64 = lookups.iter().map(|l| l.total_s).sum();
    let issue_us: Vec<f64> = lookups.iter().map(|l| l.issue_s * 1e6).collect();
    out.layer("net.tcp.setup_s", stats::median(&build_s));
    out.layer("net.tcp.warmup_s", stats::median(&warmup_s));
    out.layer("net.tcp.issue_us", stats::median(&issue_us));
    out.layer("net.tcp.ms_per_rpc", latency_s * 1e3 / rpcs.max(1) as f64);
    out.layer(
        "net.tcp.rpcs_per_lookup",
        rpcs as f64 / done.len().max(1) as f64,
    );
    out.layer("net.tcp.served_events", served as f64);
    out.layer("net.tcp.dropped", dropped as f64);
    out.layer(
        "net.tcp.lookup_timeouts",
        timed_out as f64 + done.iter().map(|r| r.timeouts).sum::<usize>() as f64,
    );
}
