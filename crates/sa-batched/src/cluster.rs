//! A persistent worker pool modelling a small cluster: `nodes × cores`
//! workers executing stage tasks, with partition-to-node placement used by
//! the shuffle layer to charge cross-node transfers.

use crossbeam::channel::{unbounded, Sender};
use crossbeam::sync::WaitGroup;
use parking_lot::Mutex;
use std::sync::Arc;
use std::thread::JoinHandle;

type Job = Box<dyn FnOnce() + Send + 'static>;

/// A fixed pool of worker threads shared by every stage of a batched job.
///
/// The pool is the reproduction's stand-in for the paper's 4-worker-node
/// Spark cluster (§6.1): `nodes` groups of `cores_per_node` workers. The
/// topology matters to the engine in two ways: total parallelism, and which
/// partitions live on which node (cross-node shuffle traffic pays a
/// simulated serialization cost).
///
/// # Example
///
/// ```
/// use sa_batched::Cluster;
///
/// let cluster = Cluster::with_topology(2, 4); // 2 nodes × 4 cores
/// let doubled = cluster.run((0..8).collect(), |_, x: i32| x * 2);
/// assert_eq!(doubled, vec![0, 2, 4, 6, 8, 10, 12, 14]);
/// ```
#[derive(Debug, Clone)]
pub struct Cluster {
    inner: Arc<Inner>,
}

#[derive(Debug)]
struct Inner {
    nodes: usize,
    cores_per_node: usize,
    /// `None` only during teardown.
    sender: Option<Sender<Job>>,
    handles: Mutex<Vec<JoinHandle<()>>>,
}

impl Drop for Inner {
    fn drop(&mut self) {
        // Closing the channel makes every worker's `recv` fail and exit;
        // then reap the threads. Errors (a panicked worker) are ignored —
        // destructors must not fail.
        self.sender = None;
        for handle in self.handles.get_mut().drain(..) {
            let _ = handle.join();
        }
    }
}

impl Cluster {
    /// A single-node cluster with `cores` workers.
    ///
    /// # Panics
    ///
    /// Panics if `cores` is zero.
    pub fn new(cores: usize) -> Self {
        Self::with_topology(1, cores)
    }

    /// A cluster of `nodes` nodes with `cores_per_node` workers each.
    ///
    /// # Panics
    ///
    /// Panics if either dimension is zero.
    pub fn with_topology(nodes: usize, cores_per_node: usize) -> Self {
        assert!(nodes > 0, "cluster needs at least one node");
        assert!(
            cores_per_node > 0,
            "cluster needs at least one core per node"
        );
        let (sender, receiver) = unbounded::<Job>();
        let total = nodes * cores_per_node;
        let handles: Vec<JoinHandle<()>> = (0..total)
            .map(|i| {
                let rx = receiver.clone();
                std::thread::Builder::new()
                    .name(format!("sa-worker-{i}"))
                    .spawn(move || {
                        while let Ok(job) = rx.recv() {
                            // Isolate task panics: the worker must survive a
                            // failing task so the pool keeps its capacity;
                            // the failure surfaces on the driver via the
                            // task's unwritten result slot.
                            let _ = std::panic::catch_unwind(std::panic::AssertUnwindSafe(job));
                        }
                    })
                    .expect("spawning worker thread")
            })
            .collect();
        Cluster {
            inner: Arc::new(Inner {
                nodes,
                cores_per_node,
                sender: Some(sender),
                handles: Mutex::new(handles),
            }),
        }
    }

    /// Total worker count (`nodes × cores_per_node`).
    pub fn num_workers(&self) -> usize {
        self.inner.nodes * self.inner.cores_per_node
    }

    /// The node a partition is placed on (round-robin placement).
    pub fn node_of_partition(&self, partition: usize) -> usize {
        partition % self.inner.nodes
    }

    /// Runs one task per input element in parallel on the pool, returning
    /// the results in input order. The task receives `(index, element)`.
    ///
    /// This is the engine's "stage": every call is a synchronization barrier
    /// — it returns only when all tasks finished, exactly like a Spark stage
    /// boundary.
    pub fn run<T, R, F>(&self, inputs: Vec<T>, task: F) -> Vec<R>
    where
        T: Send + 'static,
        R: Send + 'static,
        F: Fn(usize, T) -> R + Send + Sync + 'static,
    {
        let n = inputs.len();
        if n == 0 {
            return Vec::new();
        }
        // Run short stages inline: dispatch overhead would dominate.
        let task = Arc::new(task);
        if n == 1 {
            let mut inputs = inputs;
            return vec![task(0, inputs.pop().expect("one input"))];
        }
        let slots: Arc<Vec<Mutex<Option<R>>>> =
            Arc::new((0..n).map(|_| Mutex::new(None)).collect());
        let wg = WaitGroup::new();
        for (i, input) in inputs.into_iter().enumerate() {
            let task = Arc::clone(&task);
            let slots = Arc::clone(&slots);
            let wg = wg.clone();
            self.inner
                .sender
                .as_ref()
                .expect("pool is alive while a Cluster handle exists")
                .send(Box::new(move || {
                    let r = task(i, input);
                    *slots[i].lock() = Some(r);
                    // Release the slot table before signalling completion so
                    // the waiter can observe a unique Arc.
                    drop(slots);
                    drop(task);
                    drop(wg);
                }))
                .expect("worker pool alive");
        }
        wg.wait();
        slots
            .iter()
            .enumerate()
            .map(|(i, m)| {
                m.lock()
                    .take()
                    .unwrap_or_else(|| panic!("stage task {i} panicked"))
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn results_preserve_input_order() {
        let cluster = Cluster::new(4);
        let out = cluster.run((0..100).collect(), |i, x: usize| {
            assert_eq!(i, x);
            x * x
        });
        assert_eq!(out, (0..100).map(|x| x * x).collect::<Vec<_>>());
    }

    #[test]
    fn empty_stage_is_noop() {
        let cluster = Cluster::new(2);
        let out: Vec<i32> = cluster.run(Vec::<i32>::new(), |_, x| x);
        assert!(out.is_empty());
    }

    #[test]
    fn single_task_runs_inline() {
        let cluster = Cluster::new(2);
        let out = cluster.run(vec![41], |_, x: i32| x + 1);
        assert_eq!(out, vec![42]);
    }

    #[test]
    fn tasks_actually_run_concurrently() {
        // All workers must be used: tasks that wait for each other would
        // deadlock a serial executor but finish on a pool of 4.
        let cluster = Cluster::new(4);
        let counter = Arc::new(AtomicUsize::new(0));
        let c2 = Arc::clone(&counter);
        let out = cluster.run((0..4).collect(), move |_, _x: usize| {
            c2.fetch_add(1, Ordering::SeqCst);
            // Wait until every sibling has started.
            while c2.load(Ordering::SeqCst) < 4 {
                std::thread::yield_now();
            }
            1
        });
        assert_eq!(out.len(), 4);
    }

    #[test]
    fn topology_placement_is_round_robin() {
        let cluster = Cluster::with_topology(3, 2);
        assert_eq!(cluster.num_workers(), 6);
        assert_eq!(cluster.node_of_partition(0), 0);
        assert_eq!(cluster.node_of_partition(4), 1);
        assert_eq!(cluster.node_of_partition(5), 2);
    }

    #[test]
    fn many_stages_reuse_the_pool() {
        let cluster = Cluster::new(3);
        for round in 0..50 {
            let out = cluster.run(vec![round; 5], |_, x: usize| x + 1);
            assert_eq!(out, vec![round + 1; 5]);
        }
    }

    #[test]
    #[should_panic(expected = "at least one node")]
    fn zero_nodes_rejected() {
        let _ = Cluster::with_topology(0, 1);
    }
}
