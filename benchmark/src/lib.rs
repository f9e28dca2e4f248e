//! The repository benchmark for the StreamApprox reproduction.
//!
//! Six workloads, the throughput/accuracy/latency metrics, and a layer
//! ladder — all timed from outside `crates/`. `BENCHMARK.json` at the
//! repository root is the contract; `README.md` beside this package says
//! what each workload is for and which number each layer should move.
//!
//! Everything in this library stays on the session surface
//! (`StreamApprox` builder, `ApproxSession`, `DistributedSession`,
//! `connect_worker`, `FaultPolicy`, the `sa-workloads` generators), so the
//! end-to-end bin keeps compiling when a refactor renames anything
//! deeper. The deeper calls live in `src/layers.rs`, which only the
//! `sa-benchmark-traced` bin compiles.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cli;
pub mod compare;
pub mod dist;
pub mod json;
pub mod local;
pub mod report;
pub mod run;
pub mod score;
pub mod spans;
pub mod spec;
pub mod stats;
pub mod stream;
