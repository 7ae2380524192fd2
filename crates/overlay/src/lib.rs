//! # decent-overlay — the peer-to-peer overlays of Section II
//!
//! Structured overlays (CAN, Chord and Pastry on one recursive lookup
//! core, [`lookup`]; Kademlia; one-hop), unstructured overlays
//! (Gnutella-style flooding, superpeers), epidemic broadcast, a
//! BitTorrent-style swarm with tit-for-tat choking, and a sybil/eclipse
//! adversary — everything the paper's historical survey rests on.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod can;
pub mod chord;
pub mod flood;
pub mod gossip;
pub mod id;
pub mod kademlia;
pub mod kadnet;
pub mod lookup;
pub mod onehop;
pub mod pastry;
pub mod superpeer;
pub mod swarm;
pub mod sybil;
