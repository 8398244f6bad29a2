#![warn(missing_docs)]

//! GPSA: a graph processing system with actors.
//!
//! This crate is the paper's contribution: a single-machine, vertex-centric
//! BSP engine in which the two halves of a superstep — *dispatching*
//! (streaming edges and emitting messages) and *computing* (folding
//! messages into vertex values) — are decoupled into separate actor roles
//! and overlap within the superstep, instead of running sequentially as in
//! conventional vertex-centric engines.
//!
//! # Architecture (paper §IV–V)
//!
//! * A **manager** actor coordinates supersteps (paper Algorithm 1).
//! * **Dispatch** actors each own a vertex-id interval of the mmap'ed CSR
//!   edge file; every superstep they stream their interval, skip vertices
//!   whose value carries the *not-updated* flag, call the program's
//!   [`VertexProgram::gen_msg`] and route messages to compute actors
//!   (Algorithm 2).
//! * **Compute** actors own disjoint vertex sets (`v mod k` routing); for
//!   every message they fold [`VertexProgram::compute`] into the vertex's
//!   slot in the update column of the mmap'ed value file (Algorithm 3).
//! * The **value file** stores two copies of every value side by side; the
//!   columns swap roles each superstep, and bit 31 of each 32-bit slot is
//!   the in-band "not updated" flag (paper Fig. 5). The always-immutable
//!   column doubles as a free checkpoint for crash recovery (Fig. 6).
//!
//! # Quickstart
//!
//! ```
//! use gpsa::{Engine, EngineConfig, programs::ConnectedComponents};
//! use gpsa_graph::{generate, preprocess};
//!
//! let dir = std::env::temp_dir().join(format!("gpsa-doc-{}", std::process::id()));
//! std::fs::create_dir_all(&dir).unwrap();
//! let csr_path = dir.join("cycle.gcsr");
//! preprocess::edges_to_csr(
//!     generate::two_components(50, 30),
//!     &csr_path,
//!     &preprocess::PreprocessOptions::default(),
//! ).unwrap();
//!
//! let engine = Engine::new(EngineConfig::small(&dir));
//! let report = engine.run(&csr_path, ConnectedComponents).unwrap();
//! let labels = &report.values;
//! assert!(labels[..50].iter().all(|&l| l == 0));
//! assert!(labels[50..].iter().all(|&l| l == 50));
//! ```

mod computer;
mod config;
mod dispatcher;
mod engine;
#[cfg(feature = "chaos")]
pub mod fault;
pub mod frontier;
pub mod kernels;
mod manager;
mod partition;
mod program;
pub mod programs;
mod report;
mod slab;
pub mod sync_engine;
mod value;
mod value_file;
mod word;

pub use config::{EngineConfig, IntervalStrategy, Termination};
pub use engine::{Engine, EngineError};
pub use frontier::Frontier;
pub use kernels::FoldCtx;
pub use partition::{
    balanced_cut, edge_balanced_intervals, strided_assignments, DispatchAssignment,
};
pub use program::{GraphMeta, VertexProgram};
pub use report::{PhaseBreakdown, RunOutcome, RunReport};
pub use slab::{split_run, MsgSlab, MsgSlabPool};
pub use sync_engine::SyncEngine;
pub use value::VertexValue;
pub use value_file::{crc32, ValueFile, ValueFileError, ValueFileHeader};
pub use word::{clear_flag, is_flagged, set_flag, FLAG_BIT};

/// Lock `m`, re-entering it if a panicking holder poisoned it: a panic in
/// an engine actor is recovered from by the engine (rollback and retry),
/// and the values these locks guard stay whole across one.
fn lock<T: ?Sized>(m: &std::sync::Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    m.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}
