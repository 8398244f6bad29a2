//! Run queues and worker threads.
//!
//! The scheduler is the Kilim "weaver" equivalent: a global injector queue
//! plus one work-stealing deque per worker thread. The schedulable unit is
//! an actor *cell* (an `Arc<dyn Runnable>`), not a message — an actor with a
//! non-empty mailbox appears on the queues at most once.
//!
//! Every queue is a `Mutex<VecDeque<Task>>`. A worker pops its own deque
//! from the front (FIFO), peers steal from the front too (the oldest task),
//! and a worker whose deque is empty refills it from the injector.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::Duration;

use crate::lock;
use crate::system::SystemMetrics;

/// A schedulable actor cell.
pub(crate) trait Runnable: Send + Sync {
    /// Run one activation: drain up to a batch of messages. The cell
    /// reschedules itself if its mailbox is still non-empty afterwards.
    fn run(self: Arc<Self>, sched: &Arc<Scheduler>);
}

pub(crate) type Task = Arc<dyn Runnable>;

/// Most tasks one injector refill moves onto the refilling worker's deque
/// (besides the one it runs). A refill takes half of what is left, up to
/// this many.
const REFILL_MAX: usize = 16;

/// Shared scheduler state: queues, sleep bookkeeping, shutdown flag.
pub(crate) struct Scheduler {
    injector: Mutex<VecDeque<Task>>,
    /// One deque per worker, indexed by worker. The owner pushes to the
    /// back; the owner and its peers pop from the front.
    deques: Vec<Mutex<VecDeque<Task>>>,
    sleepers: AtomicUsize,
    sleep_lock: Mutex<()>,
    sleep_cv: Condvar,
    shutdown: AtomicBool,
    pub(crate) batch: usize,
    pub(crate) metrics: Arc<SystemMetrics>,
}

thread_local! {
    /// `(scheduler, worker index)` while a worker thread is running, so
    /// cells activated on a worker push follow-up work to its local deque
    /// instead of the injector. Tagged with the owning scheduler's
    /// identity: systems can nest (a serve Runner drives an engine with its
    /// own `System` from a serve worker thread), and a send to the *inner*
    /// system must not land on the outer system's deque — its workers would
    /// never look there, and the stranded cascade would migrate onto (and
    /// starve) the outer pool.
    static LOCAL: std::cell::Cell<Option<(usize, usize)>> =
        const { std::cell::Cell::new(None) };
}

impl Scheduler {
    pub(crate) fn new(workers: usize, batch: usize, metrics: Arc<SystemMetrics>) -> Arc<Self> {
        Arc::new(Scheduler {
            injector: Mutex::new(VecDeque::new()),
            deques: (0..workers).map(|_| Mutex::new(VecDeque::new())).collect(),
            sleepers: AtomicUsize::new(0),
            sleep_lock: Mutex::new(()),
            sleep_cv: Condvar::new(),
            shutdown: AtomicBool::new(false),
            batch,
            metrics,
        })
    }

    fn id(&self) -> usize {
        self as *const Scheduler as usize
    }

    /// Enqueue a cell for execution. Prefers the current worker's local
    /// deque when called from a worker thread *of this scheduler*.
    pub(crate) fn schedule(&self, task: Task) {
        match LOCAL.get() {
            Some((owner, index)) if owner == self.id() => lock(&self.deques[index]).push_back(task),
            _ => lock(&self.injector).push_back(task),
        }
        // Wake one sleeping worker if any. The 10ms sleep timeout in the
        // worker loop backstops any lost-wakeup window.
        if self.sleepers.load(Ordering::Acquire) > 0 {
            let _g = lock(&self.sleep_lock);
            self.sleep_cv.notify_one();
        }
    }

    pub(crate) fn begin_shutdown(&self) {
        self.shutdown.store(true, Ordering::Release);
        let _g = lock(&self.sleep_lock);
        self.sleep_cv.notify_all();
    }

    pub(crate) fn is_shutdown(&self) -> bool {
        self.shutdown.load(Ordering::Acquire)
    }

    fn find_task(&self, index: usize) -> Option<Task> {
        if let Some(t) = lock(&self.deques[index]).pop_front() {
            self.metrics.local_pops.fetch_add(1, Ordering::Relaxed);
            return Some(t);
        }
        if let Some(t) = self.refill(index) {
            self.metrics.injector_pops.fetch_add(1, Ordering::Relaxed);
            return Some(t);
        }
        // Steal from peers, starting after our own index for spread.
        let n = self.deques.len();
        for off in 1..n {
            if let Some(t) = lock(&self.deques[(index + off) % n]).pop_front() {
                self.metrics.steals.fetch_add(1, Ordering::Relaxed);
                return Some(t);
            }
        }
        None
    }

    /// Pop the injector's oldest task for worker `index` and move a batch
    /// of the next ones, in order, onto its deque.
    fn refill(&self, index: usize) -> Option<Task> {
        let mut injector = lock(&self.injector);
        let first = injector.pop_front()?;
        let batch = (injector.len() / 2).min(REFILL_MAX);
        if batch > 0 {
            lock(&self.deques[index]).extend(injector.drain(..batch));
        }
        Some(first)
    }

    /// Is there any task a worker could run right now? Consulted under the
    /// sleep lock before parking: a task sitting in *any* peer's local deque
    /// is stealable and therefore counts as visible work.
    fn has_visible_work(&self) -> bool {
        !lock(&self.injector).is_empty() || self.deques.iter().any(|d| !lock(d).is_empty())
    }

    /// The body of worker thread `index`.
    pub(crate) fn worker_loop(self: &Arc<Self>, index: usize) {
        // Registered in TLS so `schedule` calls made while running a task
        // on this thread push to this worker's deque.
        LOCAL.set(Some((self.id(), index)));
        while !self.is_shutdown() {
            match self.find_task(index) {
                Some(t) => {
                    self.metrics.activations.fetch_add(1, Ordering::Relaxed);
                    t.run(self);
                }
                None => {
                    self.sleepers.fetch_add(1, Ordering::AcqRel);
                    let g = lock(&self.sleep_lock);
                    // Re-check under the lock so a schedule() between our
                    // failed find_task and here is not missed. The check must
                    // cover the peer deques, not just the injector: a worker
                    // that pushes to its *local* deque while we are en route
                    // to sleep sees `sleepers == 0` and skips the notify, and
                    // an injector-only re-check would then strand that task
                    // (and us) for the full 10ms backstop.
                    if !self.has_visible_work() && !self.is_shutdown() {
                        self.metrics.parks.fetch_add(1, Ordering::Relaxed);
                        // The lock guards no data, so poisoning is moot.
                        drop(self.sleep_cv.wait_timeout(g, Duration::from_millis(10)));
                    } else {
                        drop(g);
                    }
                    self.sleepers.fetch_sub(1, Ordering::AcqRel);
                }
            }
        }
        LOCAL.set(None);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A task that logs its id when run, so a test can read queue order.
    struct Tag(usize, Arc<Mutex<Vec<usize>>>);

    impl Runnable for Tag {
        fn run(self: Arc<Self>, _sched: &Arc<Scheduler>) {
            lock(&self.1).push(self.0);
        }
    }

    fn scheduler(workers: usize) -> (Arc<Scheduler>, Arc<Mutex<Vec<usize>>>) {
        (Scheduler::new(workers, 1, Arc::default()), Arc::default())
    }

    /// `schedule` as called from a cell running on worker `index`.
    fn push_local(sched: &Scheduler, index: usize, task: Task) {
        LOCAL.set(Some((sched.id(), index)));
        sched.schedule(task);
        LOCAL.set(None);
    }

    /// Run the tasks `find_task(index)` yields, one per call, and return
    /// their ids in order.
    fn take(sched: &Arc<Scheduler>, log: &Arc<Mutex<Vec<usize>>>, calls: &[usize]) -> Vec<usize> {
        for &index in calls {
            sched.find_task(index).expect("a task").run(sched);
        }
        std::mem::take(&mut *lock(log))
    }

    #[test]
    fn local_deque_is_fifo_and_a_peer_steals_the_oldest() {
        let (sched, log) = scheduler(2);
        for id in 1..=3 {
            push_local(&sched, 0, Arc::new(Tag(id, log.clone())));
        }
        assert!(lock(&sched.injector).is_empty());
        // Worker 1 steals task 1, worker 0 pops 2 from its own front,
        // worker 1 steals 3.
        assert_eq!(take(&sched, &log, &[1, 0, 1]), vec![1, 2, 3]);
        assert_eq!(sched.metrics.steals.load(Ordering::Relaxed), 2);
        assert_eq!(sched.metrics.local_pops.load(Ordering::Relaxed), 1);
        assert!(sched.find_task(0).is_none() && sched.find_task(1).is_none());
    }

    #[test]
    fn injector_refill_moves_half_the_rest_at_most_sixteen_in_order() {
        for (queued, moved) in [(10, 4), (40, REFILL_MAX), (1, 0)] {
            let (sched, log) = scheduler(2);
            for id in 0..queued {
                sched.schedule(Arc::new(Tag(id, log.clone())));
            }
            assert_eq!(take(&sched, &log, &[0]), vec![0]);
            assert_eq!(lock(&sched.deques[0]).len(), moved);
            assert!(lock(&sched.deques[1]).is_empty());
            // Worker 0 drains its refill, then refills again from the
            // injector's front: queue order survives the move.
            let rest = vec![0; queued - 1];
            assert_eq!(take(&sched, &log, &rest), (1..queued).collect::<Vec<_>>());
        }
    }

    #[test]
    fn a_task_on_a_peer_deque_is_visible_work() {
        let (sched, log) = scheduler(2);
        assert!(!sched.has_visible_work());
        push_local(&sched, 1, Arc::new(Tag(7, log.clone())));
        assert!(lock(&sched.injector).is_empty());
        assert!(
            sched.has_visible_work(),
            "worker 0 would park past a stealable task"
        );
        assert_eq!(take(&sched, &log, &[0]), vec![7]);
        assert!(!sched.has_visible_work());
    }
}
