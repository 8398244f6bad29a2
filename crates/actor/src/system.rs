//! The actor [`System`]: worker pool lifecycle, spawning, metrics.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use crate::actor::Actor;
use crate::addr::Addr;
use crate::cell::Cell;
use crate::lock;
use crate::scheduler::Scheduler;

/// Cumulative counters for a system's lifetime. All relaxed; read for
/// reporting and benchmarking only.
#[derive(Debug, Default)]
pub struct SystemMetrics {
    /// Messages accepted by `Addr::send`.
    pub messages_sent: AtomicU64,
    /// Messages processed by actor `handle` calls.
    pub messages_handled: AtomicU64,
    /// Actor activations (batched mailbox drains).
    pub activations: AtomicU64,
    /// Actors killed by a panic in `handle`.
    pub panics: AtomicU64,
    /// Actors spawned.
    pub spawned: AtomicU64,
    /// Supervised actors rebuilt after a panic.
    pub restarts: AtomicU64,
    /// Tasks a worker popped from its own local deque.
    pub local_pops: AtomicU64,
    /// Tasks taken from the global injector queue.
    pub injector_pops: AtomicU64,
    /// Tasks stolen from a peer worker's deque.
    pub steals: AtomicU64,
    /// Times a worker found no runnable task and went to sleep.
    pub parks: AtomicU64,
    /// Cells that died from a panic (unsupervised, or supervised with the
    /// restart budget exhausted) — each one also raised a [`FailureEvent`].
    pub failures: AtomicU64,
}

/// Emitted when a cell dies from a panic: an unsupervised actor panicked,
/// or a supervised one panicked with no restarts left (including a panic
/// in `started` during a supervised restart). Raised exactly once per
/// death, via the handler installed with [`System::set_failure_handler`] —
/// the escalation path supervisors and engines use to learn that a fleet
/// member is gone rather than hanging on messages that will never come.
#[derive(Debug, Clone)]
pub struct FailureEvent {
    /// `std::any::type_name` of the actor that died.
    pub actor: &'static str,
    /// Whether the cell was supervised (death means budget exhaustion).
    pub supervised: bool,
    /// Restarts consumed before death (0 for unsupervised actors).
    pub restarts_used: usize,
    /// The fatal panic's payload, when it was a string (the common
    /// `panic!("...")` case) — lets a watching engine attribute the death
    /// (e.g. a chaos-injected fault) instead of only naming the actor.
    pub detail: Option<String>,
}

type FailureHandler = Arc<dyn Fn(FailureEvent) + Send + Sync>;

struct SystemInner {
    scheduler: Arc<Scheduler>,
    metrics: Arc<SystemMetrics>,
    workers: Mutex<Vec<std::thread::JoinHandle<()>>>,
    shut: AtomicBool,
    failure_handler: Mutex<Option<FailureHandler>>,
}

/// A handle to a running actor system. Cheap to clone; the worker threads
/// stop when [`System::shutdown`] is called (or when the last handle is
/// dropped).
#[derive(Clone)]
pub struct System {
    inner: Arc<SystemInner>,
}

/// Builder for [`System`].
pub struct SystemBuilder {
    workers: usize,
    batch: usize,
    name: String,
}

impl Default for SystemBuilder {
    fn default() -> Self {
        SystemBuilder {
            workers: std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(4),
            batch: 256,
            name: "actor".to_string(),
        }
    }
}

impl SystemBuilder {
    /// Number of kernel worker threads multiplexing the actors.
    pub fn workers(mut self, n: usize) -> Self {
        self.workers = n.max(1);
        self
    }

    /// Maximum messages drained per actor activation (fairness knob).
    pub fn batch(mut self, n: usize) -> Self {
        self.batch = n.max(1);
        self
    }

    /// Thread-name prefix for the workers.
    pub fn name(mut self, name: impl Into<String>) -> Self {
        self.name = name.into();
        self
    }

    /// Start the worker threads and return the system handle.
    pub fn build(self) -> System {
        let metrics = Arc::new(SystemMetrics::default());
        let scheduler = Scheduler::new(self.workers, self.batch, metrics.clone());
        let mut handles = Vec::with_capacity(self.workers);
        for i in 0..self.workers {
            let sched = scheduler.clone();
            let name = format!("{}-worker-{}", self.name, i);
            handles.push(
                std::thread::Builder::new()
                    .name(name)
                    .spawn(move || sched.worker_loop(i))
                    .expect("spawn actor worker thread"),
            );
        }
        System {
            inner: Arc::new(SystemInner {
                scheduler,
                metrics,
                workers: Mutex::new(handles),
                shut: AtomicBool::new(false),
                failure_handler: Mutex::new(None),
            }),
        }
    }
}

impl System {
    /// Start building a system.
    pub fn builder() -> SystemBuilder {
        SystemBuilder::default()
    }

    /// Build a system with default settings (one worker per core).
    pub fn new() -> System {
        SystemBuilder::default().build()
    }

    /// Spawn `actor`, running its [`Actor::started`] hook on the calling
    /// thread, and return its address.
    pub fn spawn<A: Actor>(&self, actor: A) -> Addr<A> {
        let cell = Cell::new(actor, self.clone());
        self.inner.metrics.spawned.fetch_add(1, Ordering::Relaxed);
        cell.run_started();
        Addr::from_cell(cell)
    }

    /// Spawn a *supervised* actor: when `handle` panics, the actor state
    /// is rebuilt from `factory` (its `started` hook runs again), the
    /// panicking message is consumed, and the mailbox keeps draining — up
    /// to `max_restarts` times, after which the next panic kills it like
    /// an unsupervised actor.
    pub fn spawn_supervised<A, F>(&self, factory: F, max_restarts: usize) -> Addr<A>
    where
        A: Actor,
        F: FnMut() -> A + Send + 'static,
    {
        let cell = Cell::new_supervised(Box::new(factory), max_restarts, self.clone());
        self.inner.metrics.spawned.fetch_add(1, Ordering::Relaxed);
        cell.run_started();
        Addr::from_cell(cell)
    }

    /// Stop the worker threads. Pending mailbox messages are dropped.
    /// Idempotent; called automatically when the last handle drops.
    pub fn shutdown(&self) {
        if self.inner.shut.swap(true, Ordering::AcqRel) {
            return;
        }
        self.inner.scheduler.begin_shutdown();
        let handles = std::mem::take(&mut *lock(&self.inner.workers));
        for h in handles {
            // A worker shutting the system down from inside a handler would
            // deadlock joining itself; skip self-joins.
            if h.thread().id() != std::thread::current().id() {
                let _ = h.join();
            }
        }
    }

    /// Abandon the worker threads **without joining them**: signal
    /// shutdown and drop the join handles. This is the teardown path for
    /// a wedged fleet — a worker stuck inside an actor's `handle` (an
    /// infinite loop, a blocked syscall) would make [`System::shutdown`]'s
    /// join block forever. Abandoned workers exit on their own the next
    /// time they reach the scheduler; until then they may still be
    /// running actor code, so callers must treat shared state as
    /// concurrently accessed until the process exits. Idempotent with
    /// `shutdown` (whichever runs first wins).
    pub fn abandon(&self) {
        if self.inner.shut.swap(true, Ordering::AcqRel) {
            return;
        }
        self.inner.scheduler.begin_shutdown();
        drop(std::mem::take(&mut *lock(&self.inner.workers)));
    }

    /// Install the handler invoked (from the dying actor's worker thread)
    /// whenever a cell dies from a panic. Replaces any previous handler.
    pub fn set_failure_handler<F>(&self, f: F)
    where
        F: Fn(FailureEvent) + Send + Sync + 'static,
    {
        *lock(&self.inner.failure_handler) = Some(Arc::new(f));
    }

    pub(crate) fn notify_failure(&self, ev: FailureEvent) {
        self.inner.metrics.failures.fetch_add(1, Ordering::Relaxed);
        let handler = lock(&self.inner.failure_handler).clone();
        if let Some(handler) = handler {
            handler(ev);
        }
    }

    /// Lifetime counters.
    pub fn metrics(&self) -> &SystemMetrics {
        &self.inner.metrics
    }

    pub(crate) fn scheduler(&self) -> &Arc<Scheduler> {
        &self.inner.scheduler
    }
}

impl Default for System {
    fn default() -> Self {
        System::new()
    }
}

impl Drop for SystemInner {
    fn drop(&mut self) {
        self.scheduler.begin_shutdown();
        for h in std::mem::take(&mut *lock(&self.workers)) {
            if h.thread().id() != std::thread::current().id() {
                let _ = h.join();
            }
        }
    }
}
