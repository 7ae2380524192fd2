//! # decent-bft — the permissioned substrate of Section IV
//!
//! PBFT with batching and view changes, Raft as the crash-fault-tolerant
//! baseline, and a Hyperledger-Fabric-style permissioned ledger
//! (membership, channels, endorse → order → validate).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod bridge;
pub mod ledger;
pub mod pbft;
pub mod raft;
pub mod runs;
