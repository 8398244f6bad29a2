//! Cluster recovery machinery: failure attribution, the fleet teardown
//! guard, per-node shard handles, and the rollback-to-barrier step.
//!
//! The shape mirrors the single-node engine's self-healing loop
//! (`gpsa-core::engine`): one *attempt* spins up the whole fleet, a
//! wait loop watches one channel for the report or a failure
//! escalation, and a watchdog for a stall, and a failed attempt is torn
//! down, rolled back to the last committed barrier, and retried with
//! exponential backoff. The cluster-specific pieces live here: failures
//! are attributed to a *node* (so recovery can simulate that node's
//! restart by reopening its on-disk state), and rollback is driven by
//! the cluster manifest — the only authority on which barrier *every*
//! node completed.

use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Duration;

use actor::System;
use gpsa::ValueFile;
use gpsa_graph::DiskCsr;

use crate::cluster::ClusterError;
use crate::manifest::ClusterManifest;

/// What one attempt's wait loop receives, all on one channel: the
/// coordinator's end-of-run report, or a failure escalation attributed by
/// origin so recovery knows which node (if any) to restart.
#[derive(Debug)]
pub(crate) enum AttemptEvent {
    /// The coordinator finished. Per-superstep statistics travel through
    /// [`SharedStats`] instead (appended only after each barrier's
    /// manifest append, so rolled-back supersteps never double-count).
    Done {
        /// The value column holding the final values.
        final_dispatch_col: u32,
    },
    /// An actor on a node's system died; the node is considered crashed.
    Node {
        /// Index of the crashed node.
        node: usize,
        /// Human-readable cause (actor name + restart info).
        cause: String,
    },
    /// The coordinator's master system died (e.g. a failed commit or a
    /// torn manifest append escalated as a panic).
    Master {
        /// Human-readable cause.
        cause: String,
    },
}

/// Per-superstep statistics that survive recovery attempts. The
/// coordinator appends one entry per barrier *after* the manifest append
/// succeeds, so a superstep that rolls back never double-counts: only
/// its successfully committed (re-)run lands here.
#[derive(Debug, Default)]
pub(crate) struct SharedStats {
    pub steps_run: u64,
    pub step_times: Vec<Duration>,
    pub commit_times: Vec<Duration>,
    pub activated: Vec<u64>,
    pub deltas: Vec<f64>,
    pub messages: u64,
}

/// Shuts down every system it holds on drop, whatever path exits the
/// attempt — the fix for the old leak where an early `?` return skipped
/// `shutdown()` on already-built node systems.
///
/// Default teardown is a joined [`System::shutdown`] (safe when worker
/// threads are responsive). After [`SystemGuard::wedge`] the guard uses
/// [`System::abandon`] instead: a wedged worker cannot be joined without
/// hanging the caller, so its threads are signalled and leaked.
#[derive(Default)]
pub(crate) struct SystemGuard {
    systems: Vec<System>,
    wedged: bool,
}

impl SystemGuard {
    pub fn new() -> SystemGuard {
        SystemGuard::default()
    }

    /// Register a system for teardown. Call immediately after build so no
    /// early-exit path can leak it.
    pub fn push(&mut self, sys: System) {
        self.systems.push(sys);
    }

    /// Switch teardown to abandon (signal, don't join).
    pub fn wedge(&mut self) {
        self.wedged = true;
    }
}

impl Drop for SystemGuard {
    fn drop(&mut self) {
        for sys in &self.systems {
            if self.wedged {
                sys.abandon();
            } else {
                sys.shutdown();
            }
        }
    }
}

/// One node's attempt-invariant on-disk state: its CSR fragment and its
/// value-file shard, plus the paths needed to reopen both — the
/// simulation of a node restart.
pub(crate) struct NodeShard {
    pub graph: Arc<DiskCsr>,
    pub values: Arc<ValueFile>,
    pub csr_path: PathBuf,
    pub vf_path: PathBuf,
}

impl NodeShard {
    /// Simulated node restart: reopen fresh mappings from disk. The old
    /// `Arc`s are left to whoever still holds them.
    pub fn reopen(&mut self) -> Result<(), ClusterError> {
        self.graph = Arc::new(DiskCsr::open(&self.csr_path)?);
        self.values = Arc::new(ValueFile::open(&self.vf_path)?);
        Ok(())
    }
}

/// Where a recovered cluster resumes.
#[derive(Debug, Clone, Copy)]
pub(crate) struct RollbackPoint {
    /// First superstep of the resumed run.
    pub resume: u64,
    /// Column that superstep dispatches from.
    pub dispatch_col: u32,
    /// Nodes whose on-disk state was reopened (restart count).
    pub reopened: u64,
}

/// Roll the whole cluster back to the last manifest barrier.
///
/// Repairs the manifest (truncating any torn tail), reopens the dead
/// node's shard if one crashed, sanity-checks that no shard is *behind*
/// the barrier the manifest claims (the append ordering makes that
/// impossible unless state was corrupted out-of-band), and forces every
/// shard to the barrier via [`ValueFile::rollback_to`] — which also
/// rebuilds the conservative all-active frontier superset, so the
/// resumed superstep re-dispatches everything it might have missed.
pub(crate) fn rollback_cluster(
    shards: &mut [NodeShard],
    manifest_path: &Path,
    dead: Option<usize>,
) -> Result<RollbackPoint, ClusterError> {
    let rec = ClusterManifest::repair(manifest_path)?;
    let (committed, col) = match &rec {
        Some(r) => (Some(r.superstep), r.next_dispatch_col),
        None => (None, 0),
    };
    let mut reopened = 0;
    if let Some(node) = dead {
        shards[node].reopen()?;
        reopened = 1;
    }
    for (node, shard) in shards.iter().enumerate() {
        if let Some(r) = &rec {
            let h = shard.values.header();
            let reached = h.committed_superstep.is_some_and(|s| s >= r.superstep);
            if !reached || shard.values.commit_seq() < r.node_seqs[node] {
                return Err(ClusterError::Config(format!(
                    "node {node} shard is behind the cluster barrier \
                     (shard committed {:?} seq {}, manifest says superstep {} seq {})",
                    h.committed_superstep,
                    shard.values.commit_seq(),
                    r.superstep,
                    r.node_seqs[node],
                )));
            }
        }
        shard.values.rollback_to(committed, col);
    }
    Ok(RollbackPoint {
        resume: committed.map(|s| s + 1).unwrap_or(0),
        dispatch_col: col,
        reopened,
    })
}
