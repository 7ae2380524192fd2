//! # decent-core — the paper's evaluation, operationalized
//!
//! *"Please, do not decentralize the Internet with (permissionless)
//! blockchains!"* (Garcia Lopez, Montresor, Datta; ICDCS 2019) is a
//! position paper: its evaluation is a set of quantitative claims about
//! P2P overlays, permissionless blockchains, permissioned BFT and
//! edge-centric computing. This crate catalogs each claim
//! ([`claims`]) and re-derives it with a discrete-event simulation
//! experiment ([`experiments`]), producing paper-vs-measured reports
//! ([`report`]).
//!
//! # Examples
//!
//! ```no_run
//! // Run the selfish-mining experiment at CI scale and print it.
//! let report = decent_core::scenario::build("E9", true).unwrap().run();
//! println!("{report}");
//! assert!(report.all_hold());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod claims;
pub mod experiments;
pub mod report;
pub mod scenario;
pub mod sensitivity;

pub use claims::{claim, Claim, CLAIMS};
pub use report::{
    diff_verdicts, verdicts_from_json, ClaimVerdict, Expect, ExperimentReport, ExperimentRun,
    Finding, RunReport,
};
pub use scenario::{ParamSpec, Scenario};
