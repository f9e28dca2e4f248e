//! A batched stream-processing engine — the Apache Spark Streaming analogue
//! of the StreamApprox reproduction (§2.2, §4.1.1 of the paper).
//!
//! Three layers:
//!
//! * [`Cluster`] — a persistent worker pool with a `nodes × cores`
//!   topology; every stage is a real synchronization barrier.
//! * [`Pds`] — a partitioned dataset (RDD analogue) with narrow
//!   transformations, hash-shuffle wide transformations, and the sampling
//!   operators the paper benchmarks: Bernoulli `sample_fraction`,
//!   distributed-ScaSRS `sample_exact` (SRS baseline), and the
//!   groupBy-then-sort `sample_stratified_exact` (STS baseline).
//! * [`MicroBatch`] and [`completed_windows`] — one batch interval's
//!   items, and the windows a watermark advance completes. Cutting a
//!   stream into batches is not done here: every `streamapprox` engine
//!   shares one pane driver for that.
//!
//! The division of labour with the `streamapprox` crate: this crate is the
//! *substrate* (it knows nothing about query budgets or error bounds);
//! StreamApprox's Spark-style runner samples items with OASRS **before**
//! handing them to [`Pds::from_vec`], while the baselines build the full
//! `Pds` first and sample inside the engine — reproducing exactly the
//! architectural difference the paper measures.
//!
//! # Example
//!
//! ```
//! use sa_batched::{Cluster, Pds};
//! use sa_types::{StreamItem, StratumId, EventTime};
//!
//! let cluster = Cluster::new(2);
//! let batch: Vec<_> = (0..100)
//!     .map(|i| StreamItem::new(StratumId(0), EventTime::from_millis(i), i as u64))
//!     .collect();
//! let total = Pds::from_vec(batch, 4)
//!     .map(&cluster, |it| it.value)
//!     .aggregate(&cluster, 0u64, |a, x| a + x, |a, b| a + b);
//! assert_eq!(total, (0..100).sum::<u64>());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod cluster;
mod pds;
mod streaming;

pub use cluster::Cluster;
pub use pds::Pds;
pub use streaming::{completed_windows, MicroBatch};
