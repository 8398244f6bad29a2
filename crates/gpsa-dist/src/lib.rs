#![warn(missing_docs)]

//! Distributed-GPSA simulation.
//!
//! The paper's motivation (§III) claims the actor model makes GPSA
//! "directly applicable to distributed systems": actors give location
//! transparency, so the same dispatch/compute protocol should span
//! machines. This crate demonstrates that on one machine by simulating a
//! cluster:
//!
//! * vertices are range-partitioned across `N` **nodes**;
//! * every node runs **its own actor [`actor::System`]** (its own worker
//!   threads — no shared scheduler), holds its own mmap'ed
//!   [`gpsa::ValueFile`] shard and its own CSR fragment (the edges
//!   whose *source* it owns);
//! * dispatch actors route messages to the compute actor owning the
//!   destination — which may live on another node's system. Actor
//!   addresses are location-transparent, so the engine protocol is
//!   byte-for-byte the one from `gpsa-core`; the only addition is a
//!   traffic matrix counting cross-node messages (what a real deployment
//!   would serialize onto the network);
//! * one global coordinator actor runs the superstep barrier across all
//!   nodes (paper Algorithm 1, unchanged).
//!
//! What this is *not*: a network stack. Message transport is in-process;
//! the simulation's outputs are correctness (distributed == single-node
//! results, tested) and the communication-volume consequences of
//! partitioning, not wire latency.
//!
//! # Fault tolerance
//!
//! Distributed runs survive node and actor failure at superstep
//! granularity. Every global barrier is a **cluster commit**: each
//! node's dual-slot [`gpsa::ValueFile`] commit, then one CRC'd record
//! appended to a cluster manifest (`cluster.gman`) naming the barrier
//! and every node's commit sequence. Because node commits strictly
//! precede the manifest append, recovery knows each shard is at most one
//! superstep ahead of the manifest — exactly the distance
//! [`gpsa::ValueFile::rollback_to`] can step back (the paper's
//! "dispatch column is a free checkpoint" observation, §IV-G, applied
//! cluster-wide). On a node crash, actor panic, or watchdog stall, the
//! run tears the fleet down, reopens the dead node's on-disk state,
//! rolls every shard back to the last manifest barrier, and resumes with
//! bounded exponential backoff — reported honestly in
//! [`DistReport::node_restarts`], [`DistReport::supersteps_rolled_back`]
//! and [`DistReport::retry_causes`]. The `chaos` feature adds scripted
//! distributed faults (node kills, mid-fold panics, dropped/delayed
//! inter-node batches, torn manifest tails) to drive all of this under
//! test.

mod actors;
mod cluster;
mod manifest;
mod recovery;
mod traffic;

pub use cluster::{Cluster, ClusterConfig, ClusterError, DistReport};
pub use traffic::TrafficMatrix;
