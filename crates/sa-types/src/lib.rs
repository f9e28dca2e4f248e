//! Shared vocabulary types for the StreamApprox reproduction.
//!
//! This crate defines the domain types every other crate in the workspace
//! speaks: [`StreamItem`]s flowing through engines, [`StratumId`]s naming
//! sub-streams, [`EventTime`] and sliding [`WindowSpec`]s, user-facing
//! [`QueryBudget`]s, and the [`ApproxResult`]/[`ErrorBound`] pair in which
//! every approximate answer is reported.
//!
//! The paper ("StreamApprox: Approximate Computing for Stream Analytics",
//! Middleware 2017) stratifies the input stream by the *source* of data items
//! (§2.3): a stratum is one sub-stream. We model that with [`StratumId`], a
//! cheap copyable identifier attached to every item.
//!
//! # Example
//!
//! ```
//! use sa_types::{StreamItem, StratumId, EventTime, WindowSpec};
//!
//! let item = StreamItem::new(StratumId(0), EventTime::from_secs(7), 42.0);
//! let windows = WindowSpec::sliding_secs(10, 5);
//! // A 10s window sliding by 5s covers instants past the first slide twice.
//! assert_eq!(windows.windows_containing(item.time).count(), 2);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod budget;
mod checkpoint;
mod error;
mod fault;
mod item;
mod result;
mod sample;
mod seed;
mod session;
mod window;
pub mod wire;

pub use budget::{Confidence, QueryBudget, SizingDirective};
pub use checkpoint::{CheckpointPolicy, EngineSnapshot, SessionSnapshot};
pub use error::SaError;
pub use fault::{FaultPolicy, WorkerHealth};
pub use item::{EventTime, StratumId, StreamItem};
pub use result::{ApproxResult, ErrorBound, WindowResult};
pub use sample::{StratifiedSample, StratumSample};
pub use seed::RunSeed;
pub use session::{IngestCounters, SessionStatus, ShardIngest, WorkerStatus};
pub use window::{Window, WindowSpec};
pub use wire::{WireDecode, WireEncode, WireReader};
