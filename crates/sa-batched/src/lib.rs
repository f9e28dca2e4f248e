//! A batched stream-processing engine — the Apache Spark Streaming analogue
//! of the StreamApprox reproduction (§2.2, §4.1.1 of the paper).
//!
//! Three layers:
//!
//! * [`Cluster`] — a persistent worker pool with a `nodes × cores`
//!   topology; every stage is a real synchronization barrier.
//! * [`Pds`] — a partitioned dataset (RDD analogue) with exactly the
//!   operators the engine's systems run: narrow `map`/`map_partitions`,
//!   the hash-shuffle `group_by_key`, distributed-ScaSRS `sample_exact`
//!   (SRS baseline), and the groupBy-then-sort `sample_stratified_exact`
//!   (STS baseline).
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
//! // Native: fold each partition in parallel, combine on the driver.
//! let total: u64 = Pds::from_vec(batch.clone(), 4)
//!     .map_partitions(&cluster, |_, part| vec![part.iter().map(|it| it.value).sum::<u64>()])
//!     .collect()
//!     .into_iter()
//!     .sum();
//! assert_eq!(total, (0..100).sum::<u64>());
//!
//! // SRS baseline: an exact-size simple random sample of 10 items.
//! let sample = Pds::from_vec(batch, 4).sample_exact(&cluster, 10, 7).collect();
//! assert_eq!(sample.len(), 10);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod cluster;
mod pds;
mod streaming;

pub use cluster::Cluster;
pub use pds::Pds;
pub use streaming::{completed_windows, MicroBatch};
