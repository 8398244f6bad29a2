//! Engine configuration.

use std::path::{Path, PathBuf};
use std::time::Duration;

/// When does a run stop?
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Termination {
    /// Run exactly this many supersteps (the paper's timing methodology:
    /// "the average elapsed time of five supersteps").
    Supersteps(u64),
    /// Run until a superstep activates no vertex (BFS, CC), bounded by
    /// `max_supersteps`.
    Quiescence {
        /// Upper bound on supersteps.
        max_supersteps: u64,
    },
    /// Run until the summed per-vertex delta falls to `epsilon` or below
    /// (PageRank-style convergence), bounded by `max_supersteps`.
    Delta {
        /// Convergence threshold.
        epsilon: f64,
        /// Upper bound on supersteps.
        max_supersteps: u64,
    },
}

/// How vertex intervals map to dispatch actors (paper §V-A).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IntervalStrategy {
    /// Ranges balanced by out-edge count so every dispatcher sends about
    /// the same number of messages.
    EdgeBalanced,
    /// The paper's "simple mod algorithm": dispatcher `i` owns every
    /// vertex `v` with `v % k == i`. Convenient but gives up sequential
    /// edge-file streaming.
    Strided,
}

/// Full engine configuration.
#[derive(Debug, Clone)]
pub struct EngineConfig {
    /// Number of dispatch actors.
    pub n_dispatchers: usize,
    /// Number of compute actors. Compute actor `v % n_computers` owns
    /// vertex `v` (the paper's default routing, §V-A).
    pub n_computers: usize,
    /// Kernel worker threads multiplexing all actors.
    pub workers: usize,
    /// `(dst, msg)` pairs per batch sent dispatcher → computer.
    pub msg_batch: usize,
    /// Edges (CSR body words) per cooperative dispatch chunk. Each
    /// dispatcher streams its interval as a sequence of roughly
    /// this-many-edge slices, re-enqueueing itself between slices, so
    /// dispatch work is subject to scheduler fairness and work stealing
    /// and compute batches interleave with later chunks.
    /// [`EngineConfig::MONOLITHIC_DISPATCH`] disables chunking (one
    /// activation scans the whole interval, the original behaviour).
    pub dispatch_chunk: usize,
    /// Stop condition.
    pub termination: Termination,
    /// Dispatch interval strategy.
    pub intervals: IntervalStrategy,
    /// Directory for the value file.
    pub work_dir: PathBuf,
    /// `msync` the value file at every superstep commit (cheap checkpoint;
    /// required for crash recovery across process death).
    pub durable: bool,
    /// Resume from an existing value file instead of reinitializing.
    pub resume: bool,
    /// Watchdog: if no superstep completes for this long, the engine
    /// declares the fleet wedged, abandons it, and retries from the last
    /// committed superstep. `None` disables the watchdog (failures are
    /// still caught via the actor runtime's `FailureEvent` escalation).
    /// Set it well above the worst-case superstep time.
    pub superstep_deadline: Option<Duration>,
    /// How many in-process recovery attempts (`ValueFile::recover` +
    /// fleet re-spawn, with exponential backoff) the engine makes before
    /// giving up and surfacing the causes in the error.
    pub max_superstep_retries: u32,
    /// Advise the kernel to back the CSR and value-file mappings with
    /// transparent huge pages (`madvise(MADV_HUGEPAGE)`). Best-effort:
    /// ignored where unsupported. Off by default — THP compaction stalls
    /// can hurt small runs; worth flipping for multi-GB graphs.
    pub hugepages: bool,
    /// Chaos harness: scripted fault injections consulted by the
    /// dispatcher/computer/manager hooks and `ValueFile::commit`,
    /// including the simulated crashes
    /// ([`crate::fault::FaultSpec::CrashAfterDispatch`],
    /// [`crate::fault::FaultSpec::CrashInCompute`]).
    #[cfg(feature = "chaos")]
    pub fault_plan: Option<std::sync::Arc<crate::fault::FaultPlan>>,
}

impl EngineConfig {
    /// `dispatch_chunk` value that disables chunking entirely.
    pub const MONOLITHIC_DISPATCH: usize = usize::MAX;

    /// Sensible defaults sized to the machine: one dispatcher and one
    /// computer per two cores, quiescence-bounded termination.
    pub fn new<P: AsRef<Path>>(work_dir: P) -> Self {
        let cores = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(4);
        EngineConfig {
            n_dispatchers: (cores / 2).max(1),
            n_computers: (cores / 2).max(1),
            workers: cores,
            msg_batch: 4096,
            dispatch_chunk: 32_768,
            termination: Termination::Quiescence {
                max_supersteps: 10_000,
            },
            intervals: IntervalStrategy::EdgeBalanced,
            work_dir: work_dir.as_ref().to_path_buf(),
            durable: false,
            resume: false,
            superstep_deadline: None,
            max_superstep_retries: 2,
            hugepages: false,
            #[cfg(feature = "chaos")]
            fault_plan: None,
        }
    }

    /// A small fixed configuration for tests and doctests: 2 dispatchers,
    /// 2 computers, 2 workers.
    pub fn small<P: AsRef<Path>>(work_dir: P) -> Self {
        EngineConfig {
            n_dispatchers: 2,
            n_computers: 2,
            workers: 2,
            msg_batch: 64,
            // Small enough that the test graphs exercise multi-chunk
            // supersteps, not just the single-chunk fast path.
            dispatch_chunk: 512,
            ..EngineConfig::new(work_dir)
        }
    }

    /// Builder-style: set the termination mode.
    pub fn with_termination(mut self, t: Termination) -> Self {
        self.termination = t;
        self
    }

    /// Builder-style: set actor counts.
    pub fn with_actors(mut self, dispatchers: usize, computers: usize) -> Self {
        self.n_dispatchers = dispatchers.max(1);
        self.n_computers = computers.max(1);
        self
    }

    /// Builder-style: set worker thread count.
    pub fn with_workers(mut self, workers: usize) -> Self {
        self.workers = workers.max(1);
        self
    }

    /// Builder-style: set the edges-per-chunk dispatch granularity
    /// (clamped to at least 1; pass
    /// [`EngineConfig::MONOLITHIC_DISPATCH`] to disable chunking).
    pub fn with_dispatch_chunk(mut self, edges: usize) -> Self {
        self.dispatch_chunk = edges.max(1);
        self
    }

    /// Builder-style: arm the per-superstep watchdog.
    pub fn with_superstep_deadline(mut self, deadline: Duration) -> Self {
        self.superstep_deadline = Some(deadline);
        self
    }

    /// Builder-style: set the recovery retry budget.
    pub fn with_max_superstep_retries(mut self, retries: u32) -> Self {
        self.max_superstep_retries = retries;
        self
    }

    /// Builder-style: request transparent-hugepage backing for the CSR
    /// and value-file mappings.
    pub fn with_hugepages(mut self, on: bool) -> Self {
        self.hugepages = on;
        self
    }

    /// Builder-style: install a chaos fault plan.
    #[cfg(feature = "chaos")]
    pub fn with_fault_plan(mut self, plan: std::sync::Arc<crate::fault::FaultPlan>) -> Self {
        self.fault_plan = Some(plan);
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_are_positive() {
        let c = EngineConfig::new("/tmp");
        assert!(c.n_dispatchers >= 1);
        assert!(c.n_computers >= 1);
        assert!(c.workers >= 1);
        assert!(c.msg_batch >= 1);
        assert!(c.dispatch_chunk >= 1);
        assert!(!c.durable);
        assert!(!c.hugepages);
        assert!(c.with_hugepages(true).hugepages);
    }

    #[test]
    fn builders_clamp_to_one() {
        let c = EngineConfig::new("/tmp")
            .with_actors(0, 0)
            .with_workers(0)
            .with_dispatch_chunk(0);
        assert_eq!(c.n_dispatchers, 1);
        assert_eq!(c.n_computers, 1);
        assert_eq!(c.workers, 1);
        assert_eq!(c.dispatch_chunk, 1);
    }

    #[test]
    fn monolithic_dispatch_survives_the_builder() {
        let c = EngineConfig::new("/tmp").with_dispatch_chunk(EngineConfig::MONOLITHIC_DISPATCH);
        assert_eq!(c.dispatch_chunk, EngineConfig::MONOLITHIC_DISPATCH);
    }
}
