//! TCP backend: the simulator's [`Node`]s on real sockets.
//!
//! A [`TcpRuntime`] hosts one or more [`Node`]s behind real
//! `TcpListener`s and drives them from a single caller thread — the
//! event loop is [`TcpRuntime::poll`], mirroring the engine's
//! `run_until`. Each activation gets the engine's own [`Context`] over
//! a runtime-owned [`Effect`] buffer; when the handler returns the
//! runtime drains the buffer, writing sends to sockets and handing
//! timers to the timer thread. Helper threads do only I/O and
//! timekeeping:
//!
//! - one **acceptor** per hosted listener;
//! - one **reader** per live connection (accepted or dialed), decoding
//!   `[len][from][payload]` frames ([`crate::wire`]) and forwarding
//!   `(to, from, msg)` events to the loop's channel;
//! - one **timer** thread turning [`Context::set_timer`] calls into
//!   channel events when their wall-clock deadline passes.
//!
//! Node state is therefore never shared across threads: handlers run on
//! the caller thread exactly as they do in the sim.
//!
//! Addressing keeps the sim's dense `NodeId` space: a *directory* maps
//! ids to socket addresses. Outbound sends reuse a cached connection
//! per `(local, peer)` pair or dial the directory entry; **replies
//! prefer the connection a request arrived on**, so a client whose
//! listener is unknown to the server (e.g. `repro --probe` dialing a
//! serve mesh) still gets answers — its inbound connection is
//! registered under the sender id of the first frame it carries.
//!
//! Time is wall clock, reported as `SimTime` elapsed since
//! [`TcpRuntime`] construction so node code stays `std::time`-free.
//! Per-node RNG streams use the same `(seed, 2·id)` derivation as the
//! engine. Determinism, of course, ends at the socket boundary: real
//! networks reorder and delay, which is exactly what this backend is
//! for — demos and load tests, while claims and CI stay on the sim
//! backend (DESIGN.md §4h).

#![expect(
    clippy::disallowed_methods,
    clippy::disallowed_types,
    reason = "the real-time backend: wall-clock timers, helper threads and their channels and locks are its job; no simulation runs here (DESIGN.md §4e, §4h)"
)]

use std::cmp::Reverse;
use std::collections::{BTreeMap, BinaryHeap};
use std::fmt;
use std::io;
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

use decent_sim::engine::{Context, Effect, Node};
use decent_sim::prelude::{derive_seed, rng_from_seed, NodeId, SimDuration, SimRng, SimTime};

use crate::wire::{read_frame, write_frame, Wire};

fn to_std(d: SimDuration) -> Duration {
    Duration::from_nanos(d.as_nanos())
}

/// Event delivered to the caller-thread loop by the I/O and timer
/// threads.
enum Event<M> {
    Msg { to: NodeId, from: NodeId, msg: M },
    Timer { node: NodeId, tag: u64 },
}

struct TimerState {
    /// Min-heap of `(deadline, seq, node, tag)`; `seq` breaks deadline
    /// ties in schedule order.
    heap: BinaryHeap<Reverse<(Instant, u64, NodeId, u64)>>,
    seq: u64,
    shutdown: bool,
}

type SharedTimers = Arc<(Mutex<TimerState>, Condvar)>;
type Conns = Arc<Mutex<BTreeMap<(NodeId, NodeId), TcpStream>>>;

struct Hosted<N> {
    node: N,
    rng: SimRng,
    addr: SocketAddr,
    /// Cleared by [`TcpRuntime::stop`]; events for the node are then
    /// dropped, as the engine drops them for an offline node.
    online: bool,
}

/// Builder for a [`TcpRuntime`]: declare remote peers and locally
/// hosted nodes, then [`TcpNetBuilder::build`].
///
/// Hosting with port 0 binds an ephemeral port; the actual address is
/// available afterwards via [`TcpRuntime::local_addr`] (used by the
/// in-process loopback tests). Cross-process meshes use fixed ports so
/// both sides can compute the directory without a handshake.
pub struct TcpNetBuilder<N: Node> {
    seed: u64,
    peers: BTreeMap<NodeId, SocketAddr>,
    hosts: Vec<(NodeId, SocketAddr, N)>,
}

impl<N: Node> fmt::Debug for TcpNetBuilder<N> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("TcpNetBuilder")
            .field("seed", &self.seed)
            .field("peers", &self.peers.len())
            .field("hosts", &self.hosts.len())
            .finish()
    }
}

impl<N> TcpNetBuilder<N>
where
    N: Node,
    N::Msg: Wire + 'static,
{
    /// Starts a builder; `seed` roots the per-node RNG stream
    /// derivation (`derive_seed(seed, 2 * id)`, matching the engine).
    pub fn new(seed: u64) -> Self {
        TcpNetBuilder {
            seed,
            peers: BTreeMap::new(),
            hosts: Vec::new(),
        }
    }

    /// Declares a remote peer: `id` becomes dialable at `addr`.
    #[must_use]
    pub fn peer(mut self, id: NodeId, addr: SocketAddr) -> Self {
        self.peers.insert(id, addr);
        self
    }

    /// Hosts a node locally: binds a listener at `addr` (port 0 for
    /// ephemeral) and routes its inbound frames to `node`.
    #[must_use]
    pub fn host(mut self, id: NodeId, addr: SocketAddr, node: N) -> Self {
        self.hosts.push((id, addr, node));
        self
    }

    /// Binds all listeners, spawns the I/O and timer threads, and
    /// dispatches `on_start` to every hosted node in id order.
    pub fn build(mut self) -> io::Result<TcpRuntime<N>> {
        let (tx, rx) = channel();
        let conns: Conns = Arc::new(Mutex::new(BTreeMap::new()));
        let shutdown = Arc::new(AtomicBool::new(false));
        let reader_streams = Arc::new(Mutex::new(Vec::new()));
        let timers: SharedTimers = Arc::new((
            Mutex::new(TimerState {
                heap: BinaryHeap::new(),
                seq: 0,
                shutdown: false,
            }),
            Condvar::new(),
        ));

        let mut directory: Vec<Option<SocketAddr>> = Vec::new();
        let set_dir = |dir: &mut Vec<Option<SocketAddr>>, id: NodeId, addr: SocketAddr| {
            if dir.len() <= id {
                dir.resize(id + 1, None);
            }
            dir[id] = Some(addr);
        };
        for (&id, &addr) in &self.peers {
            set_dir(&mut directory, id, addr);
        }

        self.hosts.sort_by_key(|(id, _, _)| *id);
        let mut hosted = BTreeMap::new();
        let mut bound = Vec::new();
        for (id, addr, node) in self.hosts {
            let listener = TcpListener::bind(addr)?;
            let actual = listener.local_addr()?;
            set_dir(&mut directory, id, actual);
            bound.push((id, listener));
            hosted.insert(
                id,
                Hosted {
                    node,
                    rng: rng_from_seed(derive_seed(self.seed, 2 * id as u64)),
                    addr: actual,
                    online: true,
                },
            );
        }

        let mut threads = Vec::new();
        for (id, listener) in bound {
            let tx = tx.clone();
            let conns = conns.clone();
            let shutdown = shutdown.clone();
            let reader_streams = reader_streams.clone();
            threads.push(thread::spawn(move || {
                accept_loop::<N::Msg>(id, listener, tx, conns, shutdown, reader_streams)
            }));
        }
        {
            let timers = timers.clone();
            let tx = tx.clone();
            threads.push(thread::spawn(move || timer_loop::<N::Msg>(timers, tx)));
        }

        let mut rt = TcpRuntime {
            start: Instant::now(),
            directory,
            hosted,
            tx,
            rx,
            conns,
            timers,
            shutdown,
            reader_streams,
            threads,
            scratch: Vec::new(),
            dropped: 0,
        };
        for id in rt.hosted_ids() {
            rt.invoke(id, |node, ctx| node.on_start(ctx));
        }
        Ok(rt)
    }
}

/// A running TCP-backed node host: nodes, their listeners, and the
/// single-threaded event loop that drives them.
///
/// A node stops when a handler calls [`Context::go_offline`] or when
/// the runtime is dropped: `on_stop` runs once, and frames and timers
/// that arrive for it afterwards are dropped and counted. Dropping the
/// runtime also shuts the helper threads down and closes all sockets.
pub struct TcpRuntime<N: Node> {
    start: Instant,
    directory: Vec<Option<SocketAddr>>,
    hosted: BTreeMap<NodeId, Hosted<N>>,
    tx: Sender<Event<N::Msg>>,
    rx: Receiver<Event<N::Msg>>,
    conns: Conns,
    timers: SharedTimers,
    shutdown: Arc<AtomicBool>,
    reader_streams: Arc<Mutex<Vec<TcpStream>>>,
    threads: Vec<JoinHandle<()>>,
    scratch: Vec<Effect<N::Msg>>,
    dropped: u64,
}

impl<N: Node> fmt::Debug for TcpRuntime<N> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("TcpRuntime")
            .field("hosted", &self.hosted.len())
            .field("directory", &self.directory.len())
            .field("dropped", &self.dropped)
            .finish_non_exhaustive()
    }
}

impl<N: Node> TcpRuntime<N> {
    /// Wall-clock time elapsed since the runtime was built, as
    /// `SimTime` (the TCP image of the engine's virtual clock).
    pub fn now(&self) -> SimTime {
        SimTime::from_nanos(u64::try_from(self.start.elapsed().as_nanos()).unwrap_or(u64::MAX))
    }

    /// Ids of the locally hosted nodes, ascending.
    pub fn hosted_ids(&self) -> Vec<NodeId> {
        self.hosted.keys().copied().collect()
    }

    /// Takes a hosted node offline: runs `on_stop` once and discards
    /// whatever it asks for — the node is leaving. The TCP image of the
    /// engine's offline transition; a second call is a no-op.
    fn stop(&mut self, id: NodeId) {
        let now = self.now();
        let Some(host) = self.hosted.get_mut(&id) else {
            return;
        };
        if !std::mem::replace(&mut host.online, false) {
            return;
        }
        let mut discarded = Vec::new();
        host.node
            .on_stop(&mut Context::new(now, id, &mut host.rng, &mut discarded));
    }
}

impl<N> TcpRuntime<N>
where
    N: Node,
    N::Msg: Wire + 'static,
{
    /// The actual bound address of a hosted node's listener.
    pub fn local_addr(&self, id: NodeId) -> Option<SocketAddr> {
        self.hosted.get(&id).map(|h| h.addr)
    }

    /// Messages dropped: outbound to an unknown peer or over a failed
    /// dial or write, and inbound frames and timers for a stopped node.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Immutable access to a hosted node's state.
    ///
    /// # Panics
    ///
    /// Panics if `id` is not hosted here.
    pub fn node(&self, id: NodeId) -> &N {
        &self.hosted.get(&id).expect("node hosted here").node
    }

    /// Mutable access to a hosted node's state (setup only —
    /// mutations here bypass the event loop, like the engine's
    /// `node_mut`).
    ///
    /// # Panics
    ///
    /// Panics if `id` is not hosted here.
    pub fn node_mut(&mut self, id: NodeId) -> &mut N {
        &mut self.hosted.get_mut(&id).expect("node hosted here").node
    }

    /// One activation, the TCP mirror of `Simulation::invoke`: runs `f`
    /// against a hosted node with a live [`Context`], then applies the
    /// effects in the order `f` issued them.
    ///
    /// # Panics
    ///
    /// Panics if `id` is not hosted here.
    pub fn invoke<R>(
        &mut self,
        id: NodeId,
        f: impl FnOnce(&mut N, &mut Context<'_, N::Msg>) -> R,
    ) -> R {
        let now = self.now();
        let host = self.hosted.get_mut(&id).expect("node hosted here");
        let mut effects = std::mem::take(&mut self.scratch);
        let r = f(
            &mut host.node,
            &mut Context::new(now, id, &mut host.rng, &mut effects),
        );
        let mut offline = false;
        for effect in effects.drain(..) {
            match effect {
                // `bytes` is an input to the sim's network model; on the
                // wire the frame length is the encoded size.
                Effect::Send { dst, msg, .. } => self.send_msg(id, dst, &msg),
                Effect::Timer { delay, tag } => self.schedule_timer(id, delay, tag),
                Effect::GoOffline => offline = true,
            }
        }
        self.scratch = effects;
        if offline {
            self.stop(id);
        }
        r
    }

    /// Processes inbound events (messages, timer firings) for up to
    /// `budget` of wall-clock time; returns the number processed. The
    /// TCP mirror of `run_until`: call it in a loop to serve.
    pub fn poll(&mut self, budget: SimDuration) -> usize {
        let deadline = Instant::now() + to_std(budget);
        let mut processed = 0;
        loop {
            let remaining = deadline.saturating_duration_since(Instant::now());
            if remaining.is_zero() {
                return processed;
            }
            match self.rx.recv_timeout(remaining) {
                Ok(ev) => {
                    self.deliver(ev);
                    processed += 1;
                }
                Err(_) => return processed,
            }
        }
    }

    fn online(&self, id: NodeId) -> bool {
        self.hosted.get(&id).is_some_and(|h| h.online)
    }

    fn deliver(&mut self, ev: Event<N::Msg>) {
        match ev {
            Event::Msg { to, from, msg } if self.online(to) => {
                self.invoke(to, |node, ctx| node.on_message(from, msg, ctx));
            }
            Event::Timer { node, tag } if self.online(node) => {
                self.invoke(node, |n, ctx| n.on_timer(tag, ctx));
            }
            _ => self.dropped += 1,
        }
    }

    fn send_msg(&mut self, src: NodeId, dst: NodeId, msg: &N::Msg) {
        let mut payload = Vec::new();
        msg.encode(&mut payload);
        let mut map = self.conns.lock().expect("conns lock");
        if let Some(stream) = map.get_mut(&(src, dst)) {
            if write_frame(stream, src, &payload).is_ok() {
                return;
            }
            map.remove(&(src, dst));
        }
        let Some(&Some(addr)) = self.directory.get(dst) else {
            self.dropped += 1;
            return;
        };
        match TcpStream::connect(addr) {
            Ok(mut stream) => {
                if write_frame(&mut stream, src, &payload).is_err() {
                    self.dropped += 1;
                    return;
                }
                // Read replies coming back over this dialed connection;
                // register the stream for shutdown on drop.
                if let Ok(clone) = stream.try_clone() {
                    if let Ok(shutdown_handle) = stream.try_clone() {
                        self.reader_streams
                            .lock()
                            .expect("reader streams lock")
                            .push(shutdown_handle);
                    }
                    let tx = self.tx.clone();
                    thread::spawn(move || read_loop::<N::Msg>(src, clone, tx, None));
                }
                map.insert((src, dst), stream);
            }
            Err(_) => {
                self.dropped += 1;
            }
        }
    }

    fn schedule_timer(&self, node: NodeId, delay: SimDuration, tag: u64) {
        let deadline = Instant::now() + to_std(delay);
        let (lock, cvar) = &*self.timers;
        let mut st = lock.lock().expect("timer lock");
        let seq = st.seq;
        st.seq += 1;
        st.heap.push(Reverse((deadline, seq, node, tag)));
        cvar.notify_one();
    }
}

impl<N: Node> Drop for TcpRuntime<N> {
    fn drop(&mut self) {
        for id in self.hosted_ids() {
            self.stop(id);
        }
        self.shutdown.store(true, Ordering::SeqCst);
        {
            let (lock, cvar) = &*self.timers;
            lock.lock().expect("timer lock").shutdown = true;
            cvar.notify_all();
        }
        // Wake each acceptor out of accept() with a throwaway dial.
        for host in self.hosted.values() {
            let _ = TcpStream::connect(host.addr);
        }
        // Unblock reader threads stuck mid-read.
        for s in self
            .reader_streams
            .lock()
            .expect("reader streams lock")
            .drain(..)
        {
            let _ = s.shutdown(Shutdown::Both);
        }
        for t in self.threads.drain(..) {
            let _ = t.join();
        }
    }
}

/// Blocks until `addr` accepts a TCP connection, retrying up to
/// `attempts` times `delay` apart. Returns whether it became
/// reachable — the standard way for a probe to wait out a serve mesh's
/// startup without racing its RPC timeouts.
pub fn wait_reachable(addr: SocketAddr, attempts: u32, delay: SimDuration) -> bool {
    for i in 0..attempts {
        if TcpStream::connect(addr).is_ok() {
            return true;
        }
        if i + 1 < attempts {
            thread::sleep(to_std(delay));
        }
    }
    false
}

fn accept_loop<M: Wire + Send + 'static>(
    local: NodeId,
    listener: TcpListener,
    tx: Sender<Event<M>>,
    conns: Conns,
    shutdown: Arc<AtomicBool>,
    reader_streams: Arc<Mutex<Vec<TcpStream>>>,
) {
    loop {
        match listener.accept() {
            Ok((stream, _)) => {
                if shutdown.load(Ordering::SeqCst) {
                    return;
                }
                if let Ok(handle) = stream.try_clone() {
                    reader_streams
                        .lock()
                        .expect("reader streams lock")
                        .push(handle);
                }
                let tx = tx.clone();
                let conns = conns.clone();
                thread::spawn(move || read_loop::<M>(local, stream, tx, Some(conns)));
            }
            Err(_) => {
                if shutdown.load(Ordering::SeqCst) {
                    return;
                }
            }
        }
    }
}

/// Decodes frames off one connection and forwards them to the event
/// loop. For accepted connections (`register` set), the stream is also
/// cached under `(local, sender)` so replies travel back over the
/// inbound connection instead of requiring the sender's listener to be
/// in the directory.
fn read_loop<M: Wire + Send + 'static>(
    local: NodeId,
    mut stream: TcpStream,
    tx: Sender<Event<M>>,
    register: Option<Conns>,
) {
    let mut registered = false;
    loop {
        match read_frame(&mut stream) {
            Ok(Some((from, payload))) => {
                // Register the inbound connection on its first frame so
                // replies flow back over it. Overwrite (not or_insert):
                // a peer that reconnects — e.g. a fresh probe process
                // reusing the same node id — must supersede the stale
                // stream left behind by its predecessor.
                if !registered {
                    registered = true;
                    if let Some(conns) = &register {
                        if let Ok(clone) = stream.try_clone() {
                            conns
                                .lock()
                                .expect("conns lock")
                                .insert((local, from), clone);
                        }
                    }
                }
                let mut r = &payload[..];
                if let Ok(msg) = M::decode(&mut r) {
                    if tx
                        .send(Event::Msg {
                            to: local,
                            from,
                            msg,
                        })
                        .is_err()
                    {
                        return;
                    }
                }
                // Malformed payloads are dropped; the stream stays up.
            }
            Ok(None) | Err(_) => return,
        }
    }
}

fn timer_loop<M: Send + 'static>(timers: SharedTimers, tx: Sender<Event<M>>) {
    let (lock, cvar) = &*timers;
    let mut st = lock.lock().expect("timer lock");
    loop {
        if st.shutdown {
            return;
        }
        let now = Instant::now();
        let mut due = Vec::new();
        while let Some(&Reverse((deadline, _, node, tag))) = st.heap.peek() {
            if deadline <= now {
                st.heap.pop();
                due.push((node, tag));
            } else {
                break;
            }
        }
        if !due.is_empty() {
            drop(st);
            for (node, tag) in due {
                if tx.send(Event::Timer { node, tag }).is_err() {
                    return;
                }
            }
            st = lock.lock().expect("timer lock");
            continue;
        }
        st = match st.heap.peek() {
            Some(&Reverse((deadline, _, _, _))) => {
                let wait = deadline.saturating_duration_since(Instant::now());
                cvar.wait_timeout(st, wait).expect("timer lock").0
            }
            None => cvar.wait(st).expect("timer lock"),
        };
    }
}
