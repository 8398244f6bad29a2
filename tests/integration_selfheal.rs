//! Superstep self-healing: the engine must survive an actor fleet that
//! dies (panic escalation) or wedges (watchdog deadline) *in process* —
//! tearing the fleet down, rolling the value file back to the last
//! committed superstep, and re-running — and must record every attempt
//! in the run report.

use std::path::PathBuf;
use std::sync::atomic::{AtomicI64, Ordering};
use std::time::Duration;

use gpsa::programs::ConnectedComponents;
use gpsa::{Engine, EngineConfig, EngineError, GraphMeta, RunOutcome, VertexProgram};
use gpsa_algorithms::reference;
use gpsa_graph::{generate, preprocess, EdgeList, VertexId};

fn workdir(tag: &str) -> PathBuf {
    let d = std::env::temp_dir().join(format!("gpsa-heal-{}-{tag}", std::process::id()));
    std::fs::create_dir_all(&d).unwrap();
    d
}

fn materialize(dir: &std::path::Path, el: &EdgeList) -> PathBuf {
    let p = dir.join("graph.gcsr");
    preprocess::edges_to_csr(el.clone(), &p, &preprocess::PreprocessOptions::default()).unwrap();
    p
}

/// Delegates to an inner program, but misbehaves in `gen_msg` exactly
/// once: the call that sees the countdown hit zero panics (or wedges).
/// The engine's recovery re-runs `gen_msg` for the replayed superstep,
/// and the countdown — by then negative — never fires again, so the
/// retry is clean.
struct Sabotaged<P> {
    inner: P,
    countdown: AtomicI64,
    wedge: Option<Duration>,
}

impl<P> Sabotaged<P> {
    fn panics_after(inner: P, calls: i64) -> Self {
        Sabotaged {
            inner,
            countdown: AtomicI64::new(calls),
            wedge: None,
        }
    }

    fn wedges_after(inner: P, calls: i64, hold: Duration) -> Self {
        Sabotaged {
            inner,
            countdown: AtomicI64::new(calls),
            wedge: Some(hold),
        }
    }
}

impl<P: VertexProgram> VertexProgram for Sabotaged<P> {
    type Value = P::Value;
    type MsgVal = P::MsgVal;

    fn init(&self, v: VertexId, meta: &GraphMeta) -> (Self::Value, bool) {
        self.inner.init(v, meta)
    }

    fn gen_msg(
        &self,
        src: VertexId,
        value: Self::Value,
        out_degree: u32,
        meta: &GraphMeta,
    ) -> Option<Self::MsgVal> {
        if self.countdown.fetch_sub(1, Ordering::Relaxed) == 0 {
            match self.wedge {
                // Simulate a stuck handler (e.g. blocked I/O): the worker
                // thread never returns, so only the watchdog can save the
                // run. The leaked sleeper dies with the test process.
                Some(hold) => std::thread::sleep(hold),
                None => panic!("sabotage: injected dispatcher panic"),
            }
        }
        self.inner.gen_msg(src, value, out_degree, meta)
    }

    fn compute(
        &self,
        v: VertexId,
        acc: Option<Self::Value>,
        basis: Self::Value,
        msg: Self::MsgVal,
        meta: &GraphMeta,
    ) -> Self::Value {
        self.inner.compute(v, acc, basis, msg, meta)
    }

    fn changed(&self, basis: Self::Value, new: Self::Value) -> bool {
        self.inner.changed(basis, new)
    }

    fn freshest(&self, dispatch_copy: Self::Value, update_copy: Self::Value) -> Self::Value {
        self.inner.freshest(dispatch_copy, update_copy)
    }

    fn delta(&self, basis: Self::Value, new: Self::Value) -> f64 {
        self.inner.delta(basis, new)
    }

    fn no_message_value(&self, v: VertexId, basis: Self::Value, meta: &GraphMeta) -> Self::Value {
        self.inner.no_message_value(v, basis, meta)
    }

    fn always_dispatch(&self) -> bool {
        self.inner.always_dispatch()
    }
}

fn test_graph(seed: u64) -> EdgeList {
    generate::symmetrize(&generate::rmat(
        200,
        1000,
        generate::RmatParams::default(),
        seed,
    ))
}

#[test]
fn engine_recovers_in_process_from_a_dispatcher_panic() {
    let el = test_graph(61);
    let expect = reference::connected_components(&el);
    let dir = workdir("panic");
    let path = materialize(&dir, &el);

    let mut c = EngineConfig::small(&dir);
    c.durable = true;
    let report = Engine::new(c)
        .run(&path, Sabotaged::panics_after(ConnectedComponents, 40))
        .unwrap();

    assert_eq!(report.outcome, RunOutcome::Completed);
    assert_eq!(report.values, expect, "recovered run must hit the fixpoint");
    assert_eq!(report.retry_attempts, 1, "exactly one in-process retry");
    assert_eq!(report.retry_causes.len(), 1);
    assert!(
        report.retry_causes[0].contains("died"),
        "cause should name the escalated actor death: {:?}",
        report.retry_causes[0]
    );
}

#[test]
fn watchdog_rescues_a_wedged_fleet() {
    let el = test_graph(62);
    let expect = reference::connected_components(&el);
    let dir = workdir("wedge");
    let path = materialize(&dir, &el);

    let mut c = EngineConfig::small(&dir)
        .with_superstep_deadline(Duration::from_millis(500))
        .with_max_superstep_retries(2);
    c.durable = true;
    // Park one dispatcher for an hour: no panic, no progress, no report.
    // Without the watchdog this run would hang until the global timeout.
    let report = Engine::new(c)
        .run(
            &path,
            Sabotaged::wedges_after(ConnectedComponents, 40, Duration::from_secs(3600)),
        )
        .unwrap();

    assert_eq!(report.outcome, RunOutcome::Completed);
    assert_eq!(report.values, expect);
    assert_eq!(report.retry_attempts, 1);
    assert!(
        report.retry_causes[0].contains("watchdog"),
        "cause should come from the deadline: {:?}",
        report.retry_causes[0]
    );
}

#[test]
fn retries_exhausted_surfaces_every_cause() {
    /// Panics on *every* `gen_msg`: no retry budget can save this run.
    struct AlwaysPanics;
    impl VertexProgram for AlwaysPanics {
        type Value = u32;
        type MsgVal = u32;
        fn init(&self, v: VertexId, _m: &GraphMeta) -> (u32, bool) {
            (v, true)
        }
        fn gen_msg(&self, _src: VertexId, _v: u32, _d: u32, _m: &GraphMeta) -> Option<u32> {
            panic!("sabotage: unconditional dispatcher panic");
        }
        fn compute(
            &self,
            _v: VertexId,
            acc: Option<u32>,
            basis: u32,
            msg: u32,
            _m: &GraphMeta,
        ) -> u32 {
            acc.unwrap_or(basis).min(msg)
        }
    }

    let el = generate::cycle(60);
    let dir = workdir("exhausted");
    let path = materialize(&dir, &el);

    let mut c = EngineConfig::small(&dir);
    c.durable = true;
    c.max_superstep_retries = 1;
    let err = Engine::new(c)
        .run(&path, AlwaysPanics)
        .expect_err("a fleet that always dies must exhaust its retries");

    match err {
        EngineError::RetriesExhausted(causes) => {
            // The initial attempt plus one retry both failed.
            assert_eq!(causes.len(), 2, "one cause per failed attempt: {causes:?}");
            assert!(causes.iter().all(|c| c.contains("died")), "{causes:?}");
        }
        other => panic!("expected RetriesExhausted, got: {other}"),
    }
}

#[test]
fn clean_runs_report_zero_retries() {
    let el = test_graph(63);
    let dir = workdir("clean");
    let path = materialize(&dir, &el);
    let report = Engine::new(EngineConfig::small(&dir))
        .run(&path, ConnectedComponents)
        .unwrap();
    assert_eq!(report.retry_attempts, 0);
    assert!(report.retry_causes.is_empty());
}
