//! Fault-tolerance vocabulary for the distributed tier: the policy that
//! governs failure detection and recovery, and the per-worker liveness
//! states the coordinator surfaces.
//!
//! Following AF-Stream ("On the Performance and Convergence of Distributed
//! Stream Processing via Approximate Fault Tolerance"), worker loss is an
//! *accuracy* event, not a correctness event: the coordinator absorbs a
//! dead shard by widening the affected windows' error bounds instead of
//! failing the run. [`FaultPolicy`] holds the knobs of that trade —
//! how quickly a silent worker is declared dead, how long its shard is
//! held open for a replacement, and how many respawns are allowed before
//! the shard degrades permanently.

use std::fmt;
use std::time::Duration;

/// Failure-detection and recovery knobs for a distributed session.
///
/// The defaults are conservative enough that a healthy loopback run never
/// trips them; tests and latency-sensitive deployments shrink them.
///
/// # Example
///
/// ```
/// use sa_types::FaultPolicy;
/// use std::time::Duration;
///
/// let policy = FaultPolicy::default()
///     .with_heartbeat_interval(Duration::from_millis(100))
///     .with_miss_budget(5)
///     .with_backoff(Duration::from_millis(500));
/// assert_eq!(policy.dead_after(), Duration::from_millis(500));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultPolicy {
    /// Cadence at which each worker's automatic heartbeat thread reports
    /// liveness. `Duration::ZERO` disables both automatic heartbeats and
    /// heartbeat-based failure detection.
    pub heartbeat_interval: Duration,
    /// Consecutive heartbeat intervals a worker may stay silent before the
    /// coordinator declares it dead (clamped to at least 1).
    pub miss_budget: u32,
    /// Upper bound on how long the coordinator lets a pane wait for a
    /// live-but-straggling worker's digest (and on every coordinator-side
    /// handshake read) before merging the pane degraded.
    pub pane_timeout: Duration,
    /// How many times a dead worker's shard may be re-adopted by a
    /// replacement before the coordinator retires it permanently.
    pub max_respawn: u32,
    /// How long a dead worker's shard stays open for a replacement to
    /// rejoin before its panes degrade permanently.
    ///
    /// Panes wait out the backoff only while a replacement could refill
    /// them: for a worker that fell silent (it may still revive), or one
    /// whose connection dropped after it published a checkpoint a
    /// replacement can resume from. A worker whose connection dropped
    /// with no published checkpoint, or with its respawns spent, is
    /// retired at once — its panes merge degraded from then on — though
    /// its shard stays open for adoption until the backoff elapses.
    pub backoff: Duration,
}

impl FaultPolicy {
    /// Sets the automatic heartbeat cadence (`Duration::ZERO` disables
    /// heartbeat-based failure detection).
    pub fn with_heartbeat_interval(mut self, interval: Duration) -> Self {
        self.heartbeat_interval = interval;
        self
    }

    /// Sets how many heartbeat intervals of silence mean death.
    pub fn with_miss_budget(mut self, budget: u32) -> Self {
        self.miss_budget = budget;
        self
    }

    /// Sets the per-pane straggler timeout.
    pub fn with_pane_timeout(mut self, timeout: Duration) -> Self {
        self.pane_timeout = timeout;
        self
    }

    /// Sets how many respawns a shard is allowed before retiring.
    pub fn with_max_respawn(mut self, respawns: u32) -> Self {
        self.max_respawn = respawns;
        self
    }

    /// Sets how long a dead shard stays open for rejoin.
    pub fn with_backoff(mut self, backoff: Duration) -> Self {
        self.backoff = backoff;
        self
    }

    /// The silence span after which a worker is declared dead
    /// (`heartbeat_interval × miss_budget`); `Duration::ZERO` when
    /// heartbeat detection is disabled.
    pub fn dead_after(&self) -> Duration {
        self.heartbeat_interval * self.miss_budget.max(1)
    }
}

impl Default for FaultPolicy {
    /// Half-second heartbeats with a 10-beat miss budget (a worker silent
    /// for 5s is dead), a 30s straggler pane timeout, up to 3 respawns per
    /// shard, and a 10s rejoin window before a dead shard degrades
    /// permanently.
    fn default() -> Self {
        FaultPolicy {
            heartbeat_interval: Duration::from_millis(500),
            miss_budget: 10,
            pane_timeout: Duration::from_secs(30),
            max_respawn: 3,
            backoff: Duration::from_secs(10),
        }
    }
}

/// One worker's liveness as the coordinator sees it, surfaced on
/// `WorkerStatus::health`.
///
/// The transitions are: `Healthy ↔ Suspect` (heartbeats late but inside
/// the miss budget), `{Healthy, Suspect} → Dead` (miss budget exhausted or
/// the connection dropped), `Dead → Healthy` (a replacement adopted the
/// shard, or a silent worker spoke again), `Dead → Retired` (the rejoin
/// window or respawn budget ran out — the shard's remaining panes merge
/// degraded), `{Healthy, Suspect, Dead} → Retired` at once when the
/// connection dropped and no handoff is possible (no published checkpoint,
/// or the respawn budget spent), `Retired → Healthy` (a replacement adopted
/// the shard inside the rejoin window), and `Healthy → Done` (clean
/// shutdown).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum WorkerHealth {
    /// Heartbeats and digests are arriving on schedule.
    #[default]
    Healthy,
    /// Heartbeats are overdue but the miss budget is not yet exhausted.
    Suspect,
    /// Declared dead (missed heartbeats, dropped connection, or a protocol
    /// violation); the shard is open for a replacement to adopt.
    Dead,
    /// Permanently failed: the rejoin window or respawn budget ran out, or
    /// the connection dropped with no handoff possible, and the shard's
    /// remaining panes merge degraded.
    Retired,
    /// Shut down cleanly after shipping its trailing pane.
    Done,
}

impl fmt::Display for WorkerHealth {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            WorkerHealth::Healthy => "healthy",
            WorkerHealth::Suspect => "suspect",
            WorkerHealth::Dead => "dead",
            WorkerHealth::Retired => "retired",
            WorkerHealth::Done => "done",
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn policy_builders_compose() {
        let p = FaultPolicy::default()
            .with_heartbeat_interval(Duration::from_millis(100))
            .with_miss_budget(3)
            .with_pane_timeout(Duration::from_secs(1))
            .with_max_respawn(1)
            .with_backoff(Duration::from_millis(250));
        assert_eq!(p.heartbeat_interval, Duration::from_millis(100));
        assert_eq!(p.miss_budget, 3);
        assert_eq!(p.dead_after(), Duration::from_millis(300));
        assert_eq!(p.pane_timeout, Duration::from_secs(1));
        assert_eq!(p.max_respawn, 1);
        assert_eq!(p.backoff, Duration::from_millis(250));
    }

    #[test]
    fn dead_after_clamps_miss_budget() {
        let p = FaultPolicy::default()
            .with_heartbeat_interval(Duration::from_millis(40))
            .with_miss_budget(0);
        assert_eq!(p.dead_after(), Duration::from_millis(40));
        // Disabled heartbeats mean no silence threshold at all.
        let off = FaultPolicy::default().with_heartbeat_interval(Duration::ZERO);
        assert_eq!(off.dead_after(), Duration::ZERO);
    }
}
