//! # decent — a simulation laboratory for *"Please, do not decentralize
//! the Internet with (permissionless) blockchains!"* (ICDCS 2019)
//!
//! This umbrella crate re-exports the whole workspace:
//!
//! - [`sim`] — deterministic discrete-event engine, networks, metrics;
//! - [`overlay`] — Kademlia, Chord, one-hop, gossip, Gnutella flooding,
//!   superpeers, BitTorrent swarms, sybil adversaries (paper §II);
//! - [`chain`] — PoW blockchain, UTXO ledger, selfish mining, mining
//!   economics and energy (paper §III);
//! - [`bft`] — PBFT, Raft, and a Fabric-style permissioned ledger with
//!   channels (paper §IV);
//! - [`edge`] — edge-centric vs. centralized-cloud service placement
//!   with permissioned trust (paper §V / Fig. 1);
//! - [`core`] — the claim catalog and experiments E1–E19 that
//!   regenerate every quantitative statement in the paper;
//! - [`net`] — the TCP backend: any [`sim`] `Node` whose message type
//!   has a wire codec runs unchanged over real sockets
//!   (ARCHITECTURE.md, DESIGN.md §4h).
//!
//! # Examples
//!
//! ```
//! use decent::core::scenario;
//!
//! // Check one of the paper's claims end to end (CI scale).
//! let report = scenario::build("E10", true).unwrap().run();
//! assert!(report.all_hold());
//! ```
//!
//! See `examples/` for runnable scenarios and `crates/bench/src/bin/repro.rs`
//! for the full reproduction harness.

#![forbid(unsafe_code)]

pub use decent_bft as bft;
pub use decent_chain as chain;
pub use decent_core as core;
pub use decent_edge as edge;
pub use decent_net as net;
pub use decent_overlay as overlay;
pub use decent_sim as sim;

// Compile and run the README's code blocks as doctests so they cannot
// drift from the real API.
#[doc = include_str!("../README.md")]
#[cfg(doctest)]
struct ReadmeDoctests;
