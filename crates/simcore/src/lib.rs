//! # decent-sim — deterministic discrete-event simulation kernel
//!
//! The substrate for every experiment in the `decent` workspace, which
//! reproduces the quantitative claims of *"Please, do not decentralize
//! the Internet with (permissionless) blockchains!"* (ICDCS 2019).
//!
//! The kernel provides:
//!
//! - a deterministic event engine ([`engine::Simulation`]) over
//!   message-passing [`engine::Node`]s with timers and churn, with
//!   struct-of-arrays node storage and batched event delivery
//!   ([`arena`]);
//! - interned message payloads for fan-out-heavy protocols
//!   ([`payload`]) and a paged id bitmap for the dedupe and quorum sets
//!   handlers probe on every delivery ([`idset`]);
//! - composable network models ([`net`]) including a planet-scale
//!   region latency/bandwidth matrix;
//! - scripted fault injection ([`fault`]): partitions, crash bursts,
//!   link degradation, duplication — deterministic and replayable;
//! - overlay topology generators ([`topology`]);
//! - churn models fit to P2P measurement studies ([`churn`]);
//! - distributions ([`dist`]), deterministic RNG streams ([`rng`]);
//! - measurement primitives ([`metrics`]), result tables ([`report`]),
//!   and a dependency-free JSON value for machine-readable run reports
//!   ([`json`]).
//!
//! # Examples
//!
//! A two-node ping-pong over a 10 ms link:
//!
//! ```
//! use decent_sim::prelude::*;
//!
//! struct P(u32);
//! impl Node for P {
//!     type Msg = u32;
//!     fn on_message(&mut self, from: NodeId, msg: u32, ctx: &mut Context<'_, u32>) {
//!         self.0 = msg;
//!         if msg < 3 {
//!             ctx.send(from, msg + 1);
//!         }
//!     }
//! }
//!
//! let mut sim = Simulation::new(7, ConstantLatency::from_millis(10.0));
//! let a = sim.add_node(P(0));
//! let b = sim.add_node(P(0));
//! sim.invoke(a, |_n, ctx| ctx.send(b, 1));
//! sim.run_until(SimTime::from_secs(1.0));
//! assert_eq!(sim.node(a).0.max(sim.node(b).0), 3);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod arena;
pub mod churn;
pub mod dist;
pub mod engine;
pub mod fault;
pub mod idset;
pub mod json;
pub mod metrics;
pub mod net;
pub mod payload;
pub mod report;
pub mod rng;
pub mod sched;
mod shard;
pub mod stress;
pub mod sweep;
pub mod time;
pub mod topology;
pub mod trace;

/// One-stop import for simulation authors.
pub mod prelude {
    pub use crate::arena::{SlotArena, SlotIdx};
    pub use crate::churn::ChurnModel;
    pub use crate::dist::{Exp, LogNormal, Sample, Zipf};
    pub use crate::engine::{
        Context, EngineEvent, Node, NodeId, SchedulerFor, Simulation, EXTERNAL,
    };
    pub use crate::fault::{FaultEvent, FaultKind, FaultPlan, FaultStats, Faulty, LinkSet};
    pub use crate::idset::IdSet;
    pub use crate::json::Json;
    pub use crate::metrics::{gini, top_k_share, Histogram, Metric, MetricsSnapshot, Summary};
    pub use crate::net::{
        ConstantLatency, LanNet, NetworkModel, Region, RegionNet, UniformLatency,
    };
    pub use crate::payload::Interned;
    pub use crate::report::{fmt_f, fmt_pct, fmt_si, Table};
    pub use crate::rng::{derive_seed, rng_from_seed, SimRng};
    pub use crate::sched::{BinaryHeapScheduler, Scheduler, TimingWheel};
    pub use crate::time::{SimDuration, SimTime};
    pub use crate::topology::Graph;
    pub use crate::trace::{EventRecord, EventTag, Trace};
}
