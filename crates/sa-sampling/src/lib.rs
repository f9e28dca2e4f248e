//! Sampling algorithms for approximate stream analytics.
//!
//! This crate implements the sampling layer of the StreamApprox
//! reproduction (Middleware 2017):
//!
//! * [`Reservoir`] — classic fixed-capacity reservoir sampling
//!   (Vitter 1985; Algorithm 1 of the paper), with a skip-ahead gap
//!   sampler (Vitter's Algorithm X family) and batch `observe_run` /
//!   `observe_batch` entry points that skip whole rejected runs with
//!   zero RNG draws.
//! * [`OasrsSampler`] — **Online Adaptive Stratified Reservoir Sampling**
//!   (Algorithm 3), the paper's core contribution: one reservoir and one
//!   counter per sub-stream, Equation-1 weights, adaptive per-interval
//!   capacities, and synchronization-free distributed execution via
//!   [`OasrsSampler::for_worker`] + `StratifiedSample::union`.
//! * [`scasrs_sample`] — the two-threshold random-sort simple random
//!   sampling behind Apache Spark's `sample` (Meng, ICML 2013), used as the
//!   paper's SRS baseline.
//! * [`sample_by_key_exact`] — Spark's exact stratified sampler, used as
//!   the paper's STS baseline.
//!
//! # The mergeable-sampler layer
//!
//! Shard-local samples combine without bias, so sampling parallelizes
//! across workers. Two schemes are supported:
//!
//! * **split capacity** ([`OasrsSampler::for_worker`] +
//!   `StratifiedSample::union`): each of `w` workers runs reservoirs of
//!   size `N/w`, and the union concatenates them — the paper's §3.2
//!   distributed execution.
//! * **full capacity + weighted merge** ([`merge_all_stratified`]): each
//!   shard runs at full capacity and the shard-local finished samples are
//!   united by the seen-count-weighted reservoir union, which preserves
//!   uniform inclusion probabilities even when shards saw very different
//!   volumes. This is the mergeable path the sharded engine and the
//!   distributed coordinator build on.
//!
//! All samplers are deterministic given a seed, which keeps every
//! experiment in the benchmark harness reproducible.
//!
//! # Quick start
//!
//! ```
//! use sa_sampling::{OasrsSampler, SizingPolicy};
//! use sa_types::StratumId;
//!
//! let mut sampler = OasrsSampler::new(SizingPolicy::PerStratum(100), 7);
//! for i in 0..10_000u32 {
//!     sampler.observe(StratumId(i % 3), f64::from(i));
//! }
//! let sample = sampler.finish_interval();
//! assert_eq!(sample.num_strata(), 3);
//! assert_eq!(sample.total_sampled(), 300);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod oasrs;
mod reservoir;
mod scasrs;
mod stratified;
mod wire;

pub use oasrs::{OasrsSampler, SizingPolicy};
pub use reservoir::Reservoir;
pub use scasrs::{
    random_sort_sample, scasrs_sample, scasrs_sample_with_stats, scasrs_thresholds, ScasrsStats,
    SCASRS_DELTA,
};
pub use stratified::{merge_all_stratified, sample_by_key_exact};
