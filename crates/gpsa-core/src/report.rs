//! Run results.

use std::time::Duration;

/// Where one superstep's time went, in wall-clock microseconds summed
/// across the actors of each role. `dispatch_us` covers the chunk scans
/// (including `gen_msg` and slab emission); `fold_us` the computers'
/// batch folds; `commit_us` the manager's end-of-superstep value-file
/// commit; `slab_wait_us` — a subset of `dispatch_us` — the time flushes
/// spent acquiring a replacement slab from the pool (backpressure from
/// computers still holding loaned slabs).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PhaseBreakdown {
    /// µs dispatchers spent scanning + emitting, summed across actors.
    pub dispatch_us: u64,
    /// µs computers spent folding slabs, summed across actors.
    pub fold_us: u64,
    /// µs the manager spent committing the value file.
    pub commit_us: u64,
    /// µs dispatch flushes spent waiting on the slab pool (⊆ dispatch).
    pub slab_wait_us: u64,
}

impl PhaseBreakdown {
    /// Element-wise sum, for whole-run totals.
    pub fn add(&mut self, other: &PhaseBreakdown) {
        self.dispatch_us += other.dispatch_us;
        self.fold_us += other.fold_us;
        self.commit_us += other.commit_us;
        self.slab_wait_us += other.slab_wait_us;
    }
}

/// How a run ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RunOutcome {
    /// The termination condition was met (fixed superstep count reached,
    /// quiescence, or delta convergence).
    Completed,
    /// The configured fault injection fired; the value file is left in a
    /// crashed state for recovery.
    Crashed,
}

/// Everything a completed (or crashed) run reports.
#[derive(Debug, Clone)]
pub struct RunReport<V> {
    /// Final vertex values (empty for crashed runs).
    pub values: Vec<V>,
    /// How the run ended.
    pub outcome: RunOutcome,
    /// Supersteps executed in this run (excludes pre-crash runs resumed
    /// from).
    pub supersteps: u64,
    /// Wall time of each superstep.
    pub step_times: Vec<Duration>,
    /// Vertices activated (updated) per superstep.
    pub activated: Vec<u64>,
    /// Summed convergence deltas per superstep.
    pub deltas: Vec<f64>,
    /// Total messages folded by compute actors.
    pub messages: u64,
    /// Messages sent per dispatch actor over the whole run — the paper's
    /// §V-A load-balance story made observable.
    pub dispatcher_messages: Vec<u64>,
    /// CSR body words actually read by dispatchers over the whole run
    /// (degree words + targets + separators). Under sparse dispatch this
    /// counts only the records seeked to; under a dense sweep it is the
    /// full interval each superstep.
    pub edges_streamed: u64,
    /// CSR body *bytes* actually read by dispatchers over the whole run —
    /// the physical I/O behind `edges_streamed`'s logical words. With the
    /// v2 compressed edge format this is what shrinks; the ratio
    /// `edge_bytes_streamed / (4 * edges_streamed)` is the effective
    /// compression on the bytes the run actually touched.
    pub edge_bytes_streamed: u64,
    /// CSR body words dispatchers did *not* read thanks to frontier-driven
    /// seeks (interval total minus streamed, per Range dispatcher per
    /// superstep). 0 for dense sweeps and strided assignments.
    pub edges_skipped: u64,
    /// Per superstep: `active vertices / total vertices` at dispatch time
    /// — the frontier density the sparse/dense decision was made from.
    pub frontier_density: Vec<f64>,
    /// Vertices seeded into the initial frontier by an incremental run
    /// (`Engine::run_incremental`): the distinct sources of added edges
    /// the prior values violate (relaxing the edge would change its
    /// destination). At most the number of added edges, whatever the size
    /// of the overlay; 0 for full runs.
    pub seeded_frontier: u64,
    /// Message-slab *bytes* of capacity served from the pool's free-list
    /// (recycled buffers) over the whole run. Byte-weighted so slabs of
    /// different column widths (message types) compare honestly.
    pub pool_hit_bytes: u64,
    /// Slab capacity bytes that had to be freshly allocated. At steady
    /// state the pool holds the maximum number of in-flight batches and
    /// misses stop growing.
    pub pool_miss_bytes: u64,
    /// Per superstep: where the time went (dispatch / fold / commit /
    /// slab wait), summed across the actors of each role.
    pub phases: Vec<PhaseBreakdown>,
    /// Per superstep: time from superstep start until the first message
    /// batch reached a compute actor — the paper's dispatch/compute
    /// overlap made observable (`None` when a superstep sent no
    /// messages). With chunked dispatch this should be on the order of
    /// one chunk, not a whole interval scan.
    pub first_batch: Vec<Option<Duration>>,
    /// Total wall time of the run (setup + supersteps + teardown).
    pub elapsed: Duration,
    /// In-process recovery attempts the self-healing loop made (fleet
    /// teardown + `ValueFile::recover` + re-spawn). 0 for a clean run.
    pub retry_attempts: u32,
    /// Why each retry happened (failure escalations, watchdog deadlines),
    /// in order.
    pub retry_causes: Vec<String>,
}

impl<V> RunReport<V> {
    /// A completed run that ran no superstep: `values` are final as given.
    pub(crate) fn unchanged(values: Vec<V>, elapsed: Duration) -> RunReport<V> {
        RunReport {
            values,
            outcome: RunOutcome::Completed,
            supersteps: 0,
            step_times: Vec::new(),
            activated: Vec::new(),
            deltas: Vec::new(),
            messages: 0,
            dispatcher_messages: Vec::new(),
            edges_streamed: 0,
            edge_bytes_streamed: 0,
            edges_skipped: 0,
            frontier_density: Vec::new(),
            seeded_frontier: 0,
            pool_hit_bytes: 0,
            pool_miss_bytes: 0,
            phases: Vec::new(),
            first_batch: Vec::new(),
            elapsed,
            retry_attempts: 0,
            retry_causes: Vec::new(),
        }
    }

    /// Mean superstep wall time over the first `n` supersteps (the paper's
    /// five-superstep methodology). Uses fewer if fewer ran.
    pub fn mean_superstep(&self, n: usize) -> Duration {
        let k = n.min(self.step_times.len());
        if k == 0 {
            return Duration::ZERO;
        }
        self.step_times[..k].iter().sum::<Duration>() / k as u32
    }

    /// Total superstep time (excluding setup/teardown).
    pub fn superstep_total(&self) -> Duration {
        self.step_times.iter().sum()
    }

    /// Fraction of slab capacity bytes served by recycling,
    /// `hit / (hit + miss)`; 0.0 if the pool was never used.
    pub fn pool_hit_rate(&self) -> f64 {
        let total = self.pool_hit_bytes + self.pool_miss_bytes;
        if total == 0 {
            0.0
        } else {
            self.pool_hit_bytes as f64 / total as f64
        }
    }

    /// Whole-run phase totals (element-wise sum over supersteps).
    pub fn phase_totals(&self) -> PhaseBreakdown {
        let mut total = PhaseBreakdown::default();
        for p in &self.phases {
            total.add(p);
        }
        total
    }

    /// Mean frontier density over the run's supersteps; 0.0 if none ran.
    pub fn mean_frontier_density(&self) -> f64 {
        if self.frontier_density.is_empty() {
            0.0
        } else {
            self.frontier_density.iter().sum::<f64>() / self.frontier_density.len() as f64
        }
    }

    /// Mean time-to-first-compute-batch over supersteps that sent
    /// messages, if any did.
    pub fn mean_first_batch(&self) -> Option<Duration> {
        let with: Vec<Duration> = self.first_batch.iter().flatten().copied().collect();
        if with.is_empty() {
            None
        } else {
            Some(with.iter().sum::<Duration>() / with.len() as u32)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mean_superstep_handles_short_runs() {
        let r = RunReport::<u32> {
            values: vec![],
            outcome: RunOutcome::Completed,
            supersteps: 2,
            step_times: vec![Duration::from_millis(10), Duration::from_millis(30)],
            activated: vec![5, 0],
            deltas: vec![],
            messages: 12,
            dispatcher_messages: vec![6, 6],
            edges_streamed: 40,
            edge_bytes_streamed: 160,
            edges_skipped: 8,
            frontier_density: vec![0.5, 0.1],
            seeded_frontier: 0,
            pool_hit_bytes: 9216,
            pool_miss_bytes: 3072,
            phases: vec![
                PhaseBreakdown {
                    dispatch_us: 100,
                    fold_us: 40,
                    commit_us: 5,
                    slab_wait_us: 2,
                },
                PhaseBreakdown {
                    dispatch_us: 50,
                    fold_us: 10,
                    commit_us: 5,
                    slab_wait_us: 0,
                },
            ],
            first_batch: vec![Some(Duration::from_millis(1)), None],
            elapsed: Duration::from_millis(50),
            retry_attempts: 0,
            retry_causes: vec![],
        };
        assert_eq!(r.mean_superstep(5), Duration::from_millis(20));
        assert_eq!(r.mean_superstep(1), Duration::from_millis(10));
        assert_eq!(r.superstep_total(), Duration::from_millis(40));
        assert!((r.pool_hit_rate() - 0.75).abs() < 1e-9);
        assert!((r.mean_frontier_density() - 0.3).abs() < 1e-9);
        assert_eq!(r.mean_first_batch(), Some(Duration::from_millis(1)));
        let totals = r.phase_totals();
        assert_eq!(totals.dispatch_us, 150);
        assert_eq!(totals.fold_us, 50);
        assert_eq!(totals.commit_us, 10);
        assert_eq!(totals.slab_wait_us, 2);
    }
}
