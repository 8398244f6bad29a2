//! Lightweight fault tolerance (paper §IV-G): crash a run mid-superstep,
//! then recover from the always-immutable column and finish — no
//! checkpoint files, no redo log. The crash is the chaos fault plan's
//! simulated one, which the examples build in (`gpsa-core/chaos`).
//!
//! ```text
//! cargo run --release -p gpsa-cli --example fault_tolerance
//! ```

use std::sync::Arc;

use gpsa::fault::{FaultPlan, FaultSpec};
use gpsa::programs::ConnectedComponents;
use gpsa::{Engine, EngineConfig, RunOutcome};
use gpsa_graph::{generate, preprocess};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let work_dir = std::env::temp_dir().join("gpsa-fault");
    std::fs::create_dir_all(&work_dir)?;
    let csr_path = work_dir.join("graph.gcsr");
    let el = generate::symmetrize(&generate::rmat(
        20_000,
        120_000,
        generate::RmatParams::default(),
        11,
    ));
    preprocess::edges_to_csr(el, &csr_path, &preprocess::PreprocessOptions::default())?;

    // Run 1: durable commits on, injected crash after the dispatch phase
    // of superstep 2 — compute actors never flush, the header is never
    // advanced, and the update column is left half-written (paper Fig. 6).
    let mut config = EngineConfig::new(&work_dir);
    config.durable = true;
    config.fault_plan = Some(Arc::new(
        FaultPlan::new(0).with(FaultSpec::CrashAfterDispatch { superstep: 2 }),
    ));
    let crashed = Engine::new(config).run(&csr_path, ConnectedComponents)?;
    assert_eq!(crashed.outcome, RunOutcome::Crashed);
    println!(
        "run 1 crashed mid-superstep after {} committed supersteps (as injected)",
        crashed.supersteps
    );

    // Run 2: resume. Recovery trusts the column named by the last durable
    // header commit — the dispatch column of the crashed superstep, whose
    // payloads dispatchers never mutate — re-activates every vertex, and
    // re-runs the interrupted superstep conservatively.
    let mut config = EngineConfig::new(&work_dir);
    config.resume = true;
    let recovered = Engine::new(config).run(&csr_path, ConnectedComponents)?;
    println!(
        "run 2 recovered and completed after {} more supersteps ({:?})",
        recovered.supersteps,
        recovered.superstep_total()
    );

    // Sanity: the recovered fixpoint equals a crash-free run's.
    let clean_dir = work_dir.join("clean");
    std::fs::create_dir_all(&clean_dir)?;
    let clean_csr = clean_dir.join("graph.gcsr");
    std::fs::copy(&csr_path, &clean_csr)?;
    std::fs::copy(
        gpsa_graph::disk_csr::index_path(&csr_path),
        gpsa_graph::disk_csr::index_path(&clean_csr),
    )?;
    let clean = Engine::new(EngineConfig::new(&clean_dir)).run(&clean_csr, ConnectedComponents)?;
    assert_eq!(clean.values, recovered.values);
    println!(
        "verified: recovered labels match a crash-free run ({} components)",
        {
            let mut labels = recovered.values.clone();
            labels.sort_unstable();
            labels.dedup();
            labels.len()
        }
    );
    Ok(())
}
