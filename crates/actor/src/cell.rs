//! The actor cell: mailbox + state + scheduling status.

use std::collections::VecDeque;
use std::panic::AssertUnwindSafe;
use std::sync::atomic::{AtomicU8, Ordering};
use std::sync::{Arc, Mutex};

use crate::actor::{Actor, Ctx};
use crate::lock;
use crate::scheduler::{Runnable, Scheduler};
use crate::system::{FailureEvent, System};

/// Actor lifecycle / scheduling status.
///
/// `IDLE` — not on any run queue; a sender that observes this transitions it
/// to `SCHEDULED` and enqueues the cell (the *at-most-once* invariant).
/// `SCHEDULED` — on a run queue or currently being run by a worker.
/// `DEAD` — stopped or panicked; the state has been dropped.
const IDLE: u8 = 0;
const SCHEDULED: u8 = 1;
const DEAD: u8 = 2;

/// Panic payload as a string, when it is one (`panic!("...")` and
/// `panic!(format!...)` both are). Carried on the [`FailureEvent`] so the
/// escalation handler can attribute the death.
fn panic_detail(payload: &(dyn std::any::Any + Send)) -> Option<String> {
    payload
        .downcast_ref::<&'static str>()
        .map(|s| (*s).to_string())
        .or_else(|| payload.downcast_ref::<String>().cloned())
}

/// Restart bookkeeping for supervised actors.
struct Supervision<A> {
    factory: Box<dyn FnMut() -> A + Send>,
    restarts_left: usize,
    restarts_used: usize,
}

pub(crate) struct Cell<A: Actor> {
    /// FIFO: senders push to the back, activations pop from the front.
    mailbox: Mutex<VecDeque<A::Msg>>,
    /// Actor state. `None` once dead. The status word guarantees only one
    /// worker activates the cell at a time, so this lock is uncontended; it
    /// exists to keep the unsafe surface zero.
    state: Mutex<Option<A>>,
    /// Present for supervised actors: rebuilds the state after a panic.
    supervision: Mutex<Option<Supervision<A>>>,
    status: AtomicU8,
    system: System,
}

impl<A: Actor> Cell<A> {
    pub(crate) fn new(actor: A, system: System) -> Arc<Self> {
        Arc::new(Cell {
            mailbox: Mutex::new(VecDeque::new()),
            state: Mutex::new(Some(actor)),
            supervision: Mutex::new(None),
            status: AtomicU8::new(IDLE),
            system,
        })
    }

    pub(crate) fn new_supervised(
        mut factory: Box<dyn FnMut() -> A + Send>,
        max_restarts: usize,
        system: System,
    ) -> Arc<Self> {
        let actor = factory();
        Arc::new(Cell {
            mailbox: Mutex::new(VecDeque::new()),
            state: Mutex::new(Some(actor)),
            supervision: Mutex::new(Some(Supervision {
                factory,
                restarts_left: max_restarts,
                restarts_used: 0,
            })),
            status: AtomicU8::new(IDLE),
            system,
        })
    }

    pub(crate) fn is_alive(&self) -> bool {
        self.status.load(Ordering::Acquire) != DEAD
    }

    pub(crate) fn queue_len(&self) -> usize {
        lock(&self.mailbox).len()
    }

    /// Enqueue a message and make sure the cell is scheduled.
    pub(crate) fn deliver(self: &Arc<Self>, msg: A::Msg) -> Result<(), crate::SendError<A::Msg>> {
        if !self.is_alive() {
            return Err(crate::SendError(msg));
        }
        lock(&self.mailbox).push_back(msg);
        self.system
            .metrics()
            .messages_sent
            .fetch_add(1, Ordering::Relaxed);
        self.try_schedule();
        Ok(())
    }

    fn try_schedule(self: &Arc<Self>) {
        if self
            .status
            .compare_exchange(IDLE, SCHEDULED, Ordering::AcqRel, Ordering::Acquire)
            .is_ok()
        {
            let task: Arc<dyn Runnable> = self.clone();
            self.system.scheduler().schedule(task);
        }
    }

    /// Run `started` on the spawning thread before any message arrives.
    pub(crate) fn run_started(self: &Arc<Self>) {
        let mut guard = lock(&self.state);
        if let Some(actor) = guard.as_mut() {
            let mut ctx = Ctx {
                addr: crate::addr::Addr::from_cell(self.clone()),
                system: &self.system,
                stop: false,
            };
            actor.started(&mut ctx);
            if ctx.stop {
                if let Some(mut a) = guard.take() {
                    a.stopped();
                }
                self.status.store(DEAD, Ordering::Release);
            }
        }
    }

    fn kill(&self, guard: &mut Option<A>, graceful: bool) {
        if let Some(mut a) = guard.take() {
            if graceful {
                a.stopped();
            }
        }
        self.status.store(DEAD, Ordering::Release);
        // Drop anything left in the mailbox, outside its lock.
        let left = std::mem::take(&mut *lock(&self.mailbox));
        drop(left);
    }
}

impl<A: Actor> Runnable for Cell<A> {
    fn run(self: Arc<Self>, sched: &Arc<Scheduler>) {
        let mut guard = lock(&self.state);
        let batch = sched.batch;
        let mut processed = 0usize;
        while processed < batch {
            let Some(msg) = lock(&self.mailbox).pop_front() else {
                break;
            };
            let Some(actor) = guard.as_mut() else {
                // Dead while messages were still queued; drop them.
                drop(guard.take());
                self.status.store(DEAD, Ordering::Release);
                return;
            };
            let mut ctx = Ctx {
                addr: crate::addr::Addr::from_cell(self.clone()),
                system: &self.system,
                stop: false,
            };
            let outcome =
                std::panic::catch_unwind(AssertUnwindSafe(|| actor.handle(msg, &mut ctx)));
            processed += 1;
            sched
                .metrics
                .messages_handled
                .fetch_add(1, Ordering::Relaxed);
            match outcome {
                Ok(()) if ctx.stop => {
                    self.kill(&mut guard, true);
                    return;
                }
                Ok(()) => {}
                Err(panic) => {
                    let detail = panic_detail(panic.as_ref());
                    sched.metrics.panics.fetch_add(1, Ordering::Relaxed);
                    // Supervised actors are rebuilt from their factory and
                    // keep draining the mailbox (the poisoned message is
                    // consumed); unsupervised actors die. Every
                    // panic-death raises exactly one FailureEvent so a
                    // watching engine learns the fleet is short a member
                    // instead of waiting forever.
                    let mut sup = lock(&self.supervision);
                    match sup.as_mut() {
                        Some(s) if s.restarts_left > 0 => {
                            s.restarts_left -= 1;
                            s.restarts_used += 1;
                            let used = s.restarts_used;
                            sched.metrics.restarts.fetch_add(1, Ordering::Relaxed);
                            let fresh = (s.factory)();
                            drop(sup);
                            *guard = Some(fresh);
                            let actor = guard.as_mut().expect("just replaced");
                            let mut ctx = Ctx {
                                addr: crate::addr::Addr::from_cell(self.clone()),
                                system: &self.system,
                                stop: false,
                            };
                            // `started` runs actor code too: a panic here
                            // must kill the cell (and escalate) rather
                            // than unwind past this loop with the status
                            // still SCHEDULED — a wedged cell that can
                            // never be scheduled again.
                            let started = std::panic::catch_unwind(AssertUnwindSafe(|| {
                                actor.started(&mut ctx)
                            }));
                            match started {
                                Ok(()) if ctx.stop => {
                                    self.kill(&mut guard, true);
                                    return;
                                }
                                Ok(()) => {}
                                Err(panic) => {
                                    sched.metrics.panics.fetch_add(1, Ordering::Relaxed);
                                    self.kill(&mut guard, false);
                                    self.system.notify_failure(FailureEvent {
                                        actor: std::any::type_name::<A>(),
                                        supervised: true,
                                        restarts_used: used,
                                        detail: panic_detail(panic.as_ref()),
                                    });
                                    return;
                                }
                            }
                        }
                        exhausted => {
                            let supervised = exhausted.is_some();
                            let restarts_used =
                                exhausted.as_ref().map(|s| s.restarts_used).unwrap_or(0);
                            drop(sup);
                            self.kill(&mut guard, false);
                            self.system.notify_failure(FailureEvent {
                                actor: std::any::type_name::<A>(),
                                supervised,
                                restarts_used,
                                detail,
                            });
                            return;
                        }
                    }
                }
            }
        }
        drop(guard);
        if !lock(&self.mailbox).is_empty() {
            // Still work to do: stay SCHEDULED and requeue ourselves so
            // other actors get a turn (fair scheduling).
            let task: Arc<dyn Runnable> = self.clone();
            self.system.scheduler().schedule(task);
        } else {
            self.status.store(IDLE, Ordering::Release);
            // A message may have raced in between the emptiness check and
            // the IDLE store; its sender saw SCHEDULED and did nothing, so
            // re-check and schedule ourselves if needed.
            if !lock(&self.mailbox).is_empty() {
                self.try_schedule();
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use std::sync::mpsc;
    use std::time::Duration;

    use crate::{Actor, Ctx, System};

    struct Log(mpsc::Sender<u32>);

    impl Actor for Log {
        type Msg = u32;
        fn handle(&mut self, msg: u32, _ctx: &mut Ctx<'_, Self>) {
            self.0.send(msg).unwrap();
        }
    }

    #[test]
    fn mailbox_drains_in_send_order_across_activations() {
        // A batch of 3 ends most activations with mail still queued, so
        // the order must survive the cell requeueing itself.
        let sys = System::builder().workers(2).batch(3).build();
        let (tx, rx) = mpsc::channel();
        let addr = sys.spawn(Log(tx));
        for i in 0..1000 {
            addr.send(i).unwrap();
        }
        let got: Vec<u32> = (0..1000)
            .map(|_| rx.recv_timeout(Duration::from_secs(10)).unwrap())
            .collect();
        assert_eq!(got, (0..1000).collect::<Vec<_>>());
        sys.shutdown();
    }
}
