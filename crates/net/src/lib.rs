//! The TCP backend: any simulator [`Node`] on real sockets.
//!
//! Protocols in this workspace are written once, against the engine's
//! [`Node`] trait: four handlers, each handed a [`Context`] that gives
//! the time, the node's id and RNG stream, and collects the sends and
//! timers the handler asks for. A node never blocks, never sleeps,
//! never opens a socket; it only reacts and emits. Two drivers run it:
//!
//! | driver | where | time | delivery | determinism |
//! |---|---|---|---|---|
//! | `Simulation` | `decent-sim` | virtual (`SimTime`) | engine network model, fault plans | byte-identical across schedulers and `--shards` |
//! | [`tcp::TcpRuntime`] | here | wall clock mapped to `SimTime` | real sockets, length-prefixed frames ([`wire`]) | best-effort (the real world is not deterministic) |
//!
//! All a protocol needs to cross from the simulator to the wire is a
//! [`wire::Wire`] codec for its message type.
//!
//! [`Node`]: decent_sim::engine::Node
//! [`Context`]: decent_sim::engine::Context
//!
//! # Example
//!
//! A miniature request/reply protocol, written once and run by both
//! drivers:
//!
//! ```
//! use std::net::SocketAddr;
//!
//! use decent_net::tcp::TcpNetBuilder;
//! use decent_net::wire::{get_u64, put_u64, Wire, WireError};
//! use decent_sim::prelude::*;
//!
//! #[derive(Clone)]
//! struct Count(u64);
//!
//! impl Wire for Count {
//!     fn encode(&self, buf: &mut Vec<u8>) {
//!         put_u64(buf, self.0);
//!     }
//!     fn decode(r: &mut &[u8]) -> Result<Self, WireError> {
//!         Ok(Count(get_u64(r)?))
//!     }
//! }
//!
//! struct Echo {
//!     seen: usize,
//! }
//!
//! impl Node for Echo {
//!     type Msg = Count;
//!     fn on_message(&mut self, from: NodeId, msg: Count, ctx: &mut Context<'_, Count>) {
//!         self.seen += 1;
//!         if msg.0 > 0 {
//!             ctx.send(from, Count(msg.0 - 1)); // ping-pong down to zero
//!         }
//!     }
//! }
//!
//! // Simulated: virtual time, deterministic.
//! let mut sim = Simulation::new(1, UniformLatency::from_millis(5.0, 10.0));
//! let a = sim.add_node(Echo { seen: 0 });
//! let b = sim.add_node(Echo { seen: 0 });
//! sim.invoke(a, |_, ctx| ctx.send(b, Count(4)));
//! sim.run_until(SimTime::from_secs(1.0));
//! assert_eq!(sim.node(a).seen + sim.node(b).seen, 5);
//!
//! // Served: the same type behind two loopback listeners.
//! let any_port = SocketAddr::from(([127, 0, 0, 1], 0));
//! let mut rt = TcpNetBuilder::new(1)
//!     .host(a, any_port, Echo { seen: 0 })
//!     .host(b, any_port, Echo { seen: 0 })
//!     .build()?;
//! rt.invoke(a, |_, ctx| ctx.send(b, Count(4)));
//! for _ in 0..500 {
//!     if rt.node(a).seen + rt.node(b).seen == 5 {
//!         break;
//!     }
//!     rt.poll(SimDuration::from_millis(20.0));
//! }
//! assert_eq!(rt.node(a).seen + rt.node(b).seen, 5);
//! # Ok::<(), std::io::Error>(())
//! ```
//!
//! See DESIGN.md §4h for what the runtime does with each effect and
//! where determinism ends.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod tcp;
pub mod wire;
