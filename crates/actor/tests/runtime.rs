//! Behavioural tests for the actor runtime: ordering, at-most-once
//! scheduling, supervision, fairness, scale.

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{mpsc, Arc};
use std::time::Duration;

use actor::{Actor, Ctx, FailureEvent, System};

/// Collects the u64s it receives and reports them when asked.
struct Collector {
    seen: Vec<u64>,
    done: mpsc::Sender<Vec<u64>>,
}

enum CollectorMsg {
    Push(u64),
    Report,
}

impl Actor for Collector {
    type Msg = CollectorMsg;
    fn handle(&mut self, msg: CollectorMsg, _ctx: &mut Ctx<'_, Self>) {
        match msg {
            CollectorMsg::Push(v) => self.seen.push(v),
            CollectorMsg::Report => {
                let _ = self.done.send(std::mem::take(&mut self.seen));
            }
        }
    }
}

#[test]
fn per_sender_fifo_order_is_preserved() {
    let sys = System::builder().workers(4).build();
    let (tx, rx) = mpsc::channel();
    let addr = sys.spawn(Collector {
        seen: Vec::new(),
        done: tx,
    });
    for i in 0..10_000u64 {
        addr.send(CollectorMsg::Push(i)).unwrap();
    }
    addr.send(CollectorMsg::Report).unwrap();
    let seen = rx.recv_timeout(Duration::from_secs(10)).unwrap();
    assert_eq!(seen.len(), 10_000);
    assert!(
        seen.windows(2).all(|w| w[0] < w[1]),
        "single-sender FIFO violated"
    );
    sys.shutdown();
}

#[test]
fn no_message_lost_or_duplicated_under_concurrent_senders() {
    let sys = System::builder().workers(8).batch(32).build();
    let (tx, rx) = mpsc::channel();
    let addr = sys.spawn(Collector {
        seen: Vec::new(),
        done: tx,
    });
    let senders = 8;
    let per = 5_000u64;
    let mut handles = Vec::new();
    for s in 0..senders {
        let addr = addr.clone();
        handles.push(std::thread::spawn(move || {
            for i in 0..per {
                addr.send(CollectorMsg::Push(s * per + i)).unwrap();
            }
        }));
    }
    for h in handles {
        h.join().unwrap();
    }
    addr.send(CollectorMsg::Report).unwrap();
    let mut seen = rx.recv_timeout(Duration::from_secs(30)).unwrap();
    seen.sort_unstable();
    seen.dedup();
    assert_eq!(
        seen.len() as u64,
        senders * per,
        "messages lost or duplicated"
    );
    sys.shutdown();
}

/// An actor that forwards a token around a ring; tests cross-actor sends
/// made from inside handlers.
struct RingNode {
    next: Option<actor::Addr<RingNode>>,
    remaining_laps: u64,
    done: Option<mpsc::Sender<()>>,
}

impl Actor for RingNode {
    type Msg = RingMsg;
    fn handle(&mut self, msg: RingMsg, _ctx: &mut Ctx<'_, Self>) {
        match msg {
            RingMsg::SetNext(a) => self.next = Some(a),
            RingMsg::Token => {
                if self.remaining_laps == 0 {
                    if let Some(d) = &self.done {
                        let _ = d.send(());
                    }
                } else {
                    self.remaining_laps -= 1;
                    self.next
                        .as_ref()
                        .expect("ring wired")
                        .send(RingMsg::Token)
                        .unwrap();
                }
            }
        }
    }
}

enum RingMsg {
    SetNext(actor::Addr<RingNode>),
    Token,
}

#[test]
fn token_ring_of_a_thousand_actors() {
    // The paper's pitch: "scalable parallelism with thousands of actors".
    let sys = System::builder().workers(4).build();
    let (tx, rx) = mpsc::channel();
    let n = 1000;
    let laps = 20u64; // forwards per node => ~20k hops around the ring
    let addrs: Vec<_> = (0..n)
        .map(|i| {
            sys.spawn(RingNode {
                next: None,
                remaining_laps: laps,
                done: if i == 0 { Some(tx.clone()) } else { None },
            })
        })
        .collect();
    for i in 0..n {
        addrs[i]
            .send(RingMsg::SetNext(addrs[(i + 1) % n].clone()))
            .unwrap();
    }
    addrs[0].send(RingMsg::Token).unwrap();
    rx.recv_timeout(Duration::from_secs(60))
        .expect("ring completed");
    sys.shutdown();
}

struct Panicker;
impl Actor for Panicker {
    type Msg = ();
    fn handle(&mut self, _msg: (), _ctx: &mut Ctx<'_, Self>) {
        panic!("intentional test panic");
    }
}

#[test]
fn panic_kills_only_the_panicking_actor() {
    let sys = System::builder().workers(2).build();
    let bad = sys.spawn(Panicker);
    let (tx, rx) = mpsc::channel();
    let good = sys.spawn(Collector {
        seen: Vec::new(),
        done: tx,
    });
    bad.send(()).unwrap();
    // Wait for the panic to be recorded.
    for _ in 0..500 {
        if sys.metrics().panics.load(Ordering::Relaxed) > 0 {
            break;
        }
        std::thread::sleep(Duration::from_millis(2));
    }
    assert_eq!(sys.metrics().panics.load(Ordering::Relaxed), 1);
    assert!(!bad.is_alive(), "panicked actor must be dead");
    assert!(bad.send(()).is_err(), "send to dead actor must fail");
    // The system keeps serving other actors.
    good.send(CollectorMsg::Push(7)).unwrap();
    good.send(CollectorMsg::Report).unwrap();
    assert_eq!(rx.recv_timeout(Duration::from_secs(5)).unwrap(), vec![7]);
    sys.shutdown();
}

struct Stopper {
    stopped_flag: Arc<AtomicUsize>,
}
impl Actor for Stopper {
    type Msg = bool; // true = stop now
    fn handle(&mut self, msg: bool, ctx: &mut Ctx<'_, Self>) {
        if msg {
            ctx.stop();
        }
    }
    fn stopped(&mut self) {
        self.stopped_flag.fetch_add(1, Ordering::SeqCst);
    }
}

#[test]
fn graceful_stop_runs_stopped_hook_and_drops_mailbox() {
    let sys = System::builder().workers(2).build();
    let flag = Arc::new(AtomicUsize::new(0));
    let addr = sys.spawn(Stopper {
        stopped_flag: flag.clone(),
    });
    addr.send(true).unwrap();
    for _ in 0..500 {
        if !addr.is_alive() {
            break;
        }
        std::thread::sleep(Duration::from_millis(2));
    }
    assert!(!addr.is_alive());
    assert_eq!(
        flag.load(Ordering::SeqCst),
        1,
        "stopped() must run exactly once"
    );
    assert!(addr.send(false).is_err());
    sys.shutdown();
}

struct CountingActor {
    count: Arc<AtomicU64>,
}
impl Actor for CountingActor {
    type Msg = u64;
    fn handle(&mut self, msg: u64, _ctx: &mut Ctx<'_, Self>) {
        self.count.fetch_add(msg, Ordering::Relaxed);
    }
}

#[test]
fn metrics_count_messages_and_activations() {
    let sys = System::builder().workers(2).batch(16).build();
    let count = Arc::new(AtomicU64::new(0));
    let addr = sys.spawn(CountingActor {
        count: count.clone(),
    });
    let n = 1_000u64;
    for _ in 0..n {
        addr.send(1).unwrap();
    }
    for _ in 0..1000 {
        if count.load(Ordering::Relaxed) == n {
            break;
        }
        std::thread::sleep(Duration::from_millis(2));
    }
    assert_eq!(count.load(Ordering::Relaxed), n);
    assert_eq!(sys.metrics().messages_sent.load(Ordering::Relaxed), n);
    assert_eq!(sys.metrics().messages_handled.load(Ordering::Relaxed), n);
    let acts = sys.metrics().activations.load(Ordering::Relaxed);
    assert!(acts >= 1, "at least one activation");
    assert!(
        acts <= n,
        "batched draining means far fewer activations than messages (got {acts})"
    );
    sys.shutdown();
}

#[test]
fn recipient_erases_actor_type() {
    struct Wrap(mpsc::Sender<u32>);
    struct WMsg(u32);
    impl From<u32> for WMsg {
        fn from(v: u32) -> Self {
            WMsg(v)
        }
    }
    impl Actor for Wrap {
        type Msg = WMsg;
        fn handle(&mut self, msg: WMsg, _ctx: &mut Ctx<'_, Self>) {
            self.0.send(msg.0).unwrap();
        }
    }
    let sys = System::builder().workers(1).build();
    let (tx, rx) = mpsc::channel();
    let addr = sys.spawn(Wrap(tx));
    let rcp: actor::Recipient<u32> = addr.recipient();
    assert!(rcp.is_alive());
    rcp.send(99).unwrap();
    assert_eq!(rx.recv_timeout(Duration::from_secs(5)).unwrap(), 99);
    sys.shutdown();
}

#[test]
fn started_hook_runs_before_messages_and_can_stop() {
    struct S {
        tx: mpsc::Sender<&'static str>,
    }
    impl Actor for S {
        type Msg = ();
        fn started(&mut self, _ctx: &mut Ctx<'_, Self>) {
            self.tx.send("started").unwrap();
        }
        fn handle(&mut self, _m: (), _ctx: &mut Ctx<'_, Self>) {
            self.tx.send("handled").unwrap();
        }
    }
    let sys = System::builder().workers(1).build();
    let (tx, rx) = mpsc::channel();
    let addr = sys.spawn(S { tx });
    addr.send(()).unwrap();
    assert_eq!(rx.recv_timeout(Duration::from_secs(5)).unwrap(), "started");
    assert_eq!(rx.recv_timeout(Duration::from_secs(5)).unwrap(), "handled");

    struct Immediate;
    impl Actor for Immediate {
        type Msg = ();
        fn started(&mut self, ctx: &mut Ctx<'_, Self>) {
            ctx.stop();
        }
        fn handle(&mut self, _m: (), _ctx: &mut Ctx<'_, Self>) {
            unreachable!("actor stopped in started()");
        }
    }
    let dead = sys.spawn(Immediate);
    assert!(!dead.is_alive());
    assert!(dead.send(()).is_err());
    sys.shutdown();
}

#[test]
fn shutdown_is_idempotent_and_stops_workers() {
    let sys = System::builder().workers(3).build();
    let count = Arc::new(AtomicU64::new(0));
    let addr = sys.spawn(CountingActor {
        count: count.clone(),
    });
    addr.send(5).unwrap();
    std::thread::sleep(Duration::from_millis(50));
    sys.shutdown();
    sys.shutdown(); // second call is a no-op
    assert_eq!(count.load(Ordering::Relaxed), 5);
}

#[test]
fn supervised_actor_restarts_and_keeps_draining() {
    struct Flaky {
        seen: u64,
        tx: mpsc::Sender<u64>,
    }
    impl Actor for Flaky {
        type Msg = u64;
        fn handle(&mut self, msg: u64, _ctx: &mut Ctx<'_, Self>) {
            if msg == 13 {
                panic!("unlucky message");
            }
            self.seen += 1;
            self.tx.send(msg).unwrap();
        }
    }
    let sys = System::builder().workers(2).build();
    let (tx, rx) = mpsc::channel();
    let addr = sys.spawn_supervised(
        move || Flaky {
            seen: 0,
            tx: tx.clone(),
        },
        3,
    );
    for m in [1u64, 2, 13, 4, 5] {
        addr.send(m).unwrap();
    }
    let mut got = Vec::new();
    for _ in 0..4 {
        got.push(rx.recv_timeout(Duration::from_secs(5)).unwrap());
    }
    assert_eq!(
        got,
        vec![1, 2, 4, 5],
        "poisoned message consumed, rest delivered"
    );
    assert!(addr.is_alive(), "supervised actor survives a panic");
    assert_eq!(sys.metrics().restarts.load(Ordering::Relaxed), 1);
    assert_eq!(sys.metrics().panics.load(Ordering::Relaxed), 1);
    sys.shutdown();
}

#[test]
fn supervised_actor_dies_after_budget_exhausted() {
    struct AlwaysPanics;
    impl Actor for AlwaysPanics {
        type Msg = ();
        fn handle(&mut self, _m: (), _ctx: &mut Ctx<'_, Self>) {
            panic!("always");
        }
    }
    let sys = System::builder().workers(1).build();
    let addr = sys.spawn_supervised(|| AlwaysPanics, 2);
    for _ in 0..3 {
        let _ = addr.send(());
    }
    for _ in 0..500 {
        if !addr.is_alive() {
            break;
        }
        std::thread::sleep(Duration::from_millis(2));
    }
    assert!(!addr.is_alive(), "third panic exceeds the 2-restart budget");
    assert_eq!(sys.metrics().restarts.load(Ordering::Relaxed), 2);
    assert_eq!(sys.metrics().panics.load(Ordering::Relaxed), 3);
    sys.shutdown();
}

/// Collects [`FailureEvent`]s from the system's escalation handler.
fn capture_failures(sys: &System) -> Arc<std::sync::Mutex<Vec<FailureEvent>>> {
    let events = Arc::new(std::sync::Mutex::new(Vec::new()));
    let sink = events.clone();
    sys.set_failure_handler(move |ev| sink.lock().unwrap().push(ev));
    events
}

fn wait_until(mut cond: impl FnMut() -> bool) {
    for _ in 0..500 {
        if cond() {
            return;
        }
        std::thread::sleep(Duration::from_millis(2));
    }
}

#[test]
fn budget_exhaustion_raises_exactly_one_failure_event() {
    struct AlwaysPanics;
    impl Actor for AlwaysPanics {
        type Msg = ();
        fn handle(&mut self, _m: (), _ctx: &mut Ctx<'_, Self>) {
            panic!("always");
        }
    }
    let sys = System::builder().workers(1).build();
    let events = capture_failures(&sys);
    let addr = sys.spawn_supervised(|| AlwaysPanics, 2);
    // Panics 1 and 2 consume the restart budget silently; panic 3 kills
    // the cell. Extra queued messages after death must not re-raise.
    for _ in 0..5 {
        let _ = addr.send(());
    }
    wait_until(|| !addr.is_alive());
    assert!(!addr.is_alive());
    // Give any (buggy) duplicate escalation a chance to land before the
    // exactly-once assertions.
    std::thread::sleep(Duration::from_millis(20));
    let got = events.lock().unwrap().clone();
    assert_eq!(got.len(), 1, "exactly one escalation per death: {got:?}");
    assert!(got[0].supervised);
    assert_eq!(got[0].restarts_used, 2, "both restarts were consumed");
    assert_eq!(sys.metrics().failures.load(Ordering::Relaxed), 1);
    assert_eq!(sys.metrics().restarts.load(Ordering::Relaxed), 2);
    sys.shutdown();
}

#[test]
fn panic_in_started_during_restart_escalates_instead_of_wedging() {
    // Regression: a panic in `started` while rebuilding a supervised
    // actor used to unwind past the cell's run loop with the status still
    // SCHEDULED — a permanently wedged cell that looks alive, accepts
    // sends, and never runs again.
    struct PoisonedRestart {
        panic_on_start: bool,
    }
    impl Actor for PoisonedRestart {
        type Msg = ();
        fn started(&mut self, _ctx: &mut Ctx<'_, Self>) {
            if self.panic_on_start {
                panic!("restart sabotaged");
            }
        }
        fn handle(&mut self, _m: (), _ctx: &mut Ctx<'_, Self>) {
            panic!("trigger a restart");
        }
    }
    let sys = System::builder().workers(1).build();
    let events = capture_failures(&sys);
    let builds = Arc::new(AtomicUsize::new(0));
    let b = builds.clone();
    // First build starts cleanly; every rebuild panics in `started`.
    let addr = sys.spawn_supervised(
        move || PoisonedRestart {
            panic_on_start: b.fetch_add(1, Ordering::SeqCst) > 0,
        },
        3,
    );
    addr.send(()).unwrap();
    wait_until(|| !addr.is_alive());
    assert!(!addr.is_alive(), "cell must die, not wedge in SCHEDULED");
    assert!(addr.send(()).is_err(), "dead cell must refuse messages");
    let got = events.lock().unwrap().clone();
    assert_eq!(got.len(), 1, "{got:?}");
    assert!(got[0].supervised);
    assert_eq!(got[0].restarts_used, 1, "died on its first rebuild");
    assert_eq!(
        builds.load(Ordering::SeqCst),
        2,
        "initial build + one rebuild"
    );
    // Both the handler panic and the started panic are counted; the
    // remaining restart budget was never spent.
    assert_eq!(sys.metrics().panics.load(Ordering::Relaxed), 2);
    assert_eq!(sys.metrics().restarts.load(Ordering::Relaxed), 1);
    assert_eq!(sys.metrics().failures.load(Ordering::Relaxed), 1);
    sys.shutdown();
}

#[test]
fn unsupervised_panic_death_raises_failure_event() {
    let sys = System::builder().workers(1).build();
    let events = capture_failures(&sys);
    let addr = sys.spawn(Panicker);
    addr.send(()).unwrap();
    wait_until(|| !addr.is_alive());
    let got = events.lock().unwrap().clone();
    assert_eq!(got.len(), 1);
    assert!(!got[0].supervised);
    assert_eq!(got[0].restarts_used, 0);
    assert!(got[0].actor.contains("Panicker"), "got {:?}", got[0].actor);
    assert_eq!(sys.metrics().failures.load(Ordering::Relaxed), 1);
    sys.shutdown();
}

#[test]
fn stealable_local_push_wakes_idle_worker_promptly() {
    // `Busy` pushes `Probe` onto its *local* deque (cross-actor send from
    // inside a handler) and then occupies its worker, so the probe can only
    // run if the other — idle, possibly parked — worker steals it. The
    // lost-wakeup race itself (the pre-park re-check must see peer deques)
    // is too narrow to hit from here; the scheduler unit test
    // `a_task_on_a_peer_deque_is_visible_work` pins it deterministically.
    struct Probe {
        tx: mpsc::Sender<()>,
    }
    impl Actor for Probe {
        type Msg = ();
        fn handle(&mut self, _m: (), _ctx: &mut Ctx<'_, Self>) {
            let _ = self.tx.send(());
        }
    }
    struct Busy {
        probe: actor::Addr<Probe>,
    }
    impl Actor for Busy {
        type Msg = ();
        fn handle(&mut self, _m: (), _ctx: &mut Ctx<'_, Self>) {
            self.probe.send(()).unwrap();
            // Hold this worker so the probe must be stolen.
            std::thread::sleep(Duration::from_millis(8));
        }
    }

    let sys = System::builder().workers(2).build();
    let (tx, rx) = mpsc::channel();
    let probe = sys.spawn(Probe { tx });
    let busy = sys.spawn(Busy { probe });
    for _ in 0..60 {
        busy.send(()).unwrap();
        rx.recv_timeout(Duration::from_secs(10)).unwrap();
        // Let the busy worker finish its hold and both workers go idle, so
        // each round exercises the park/wake path afresh.
        std::thread::sleep(Duration::from_millis(10));
    }
    let steals = sys.metrics().steals.load(Ordering::Relaxed);
    assert!(steals > 0, "probe activations must come from stealing");
    sys.shutdown();
}

#[test]
fn heavy_fanout_fan_in() {
    // Many producers -> many relays -> one sink; exercises work stealing.
    struct Relay {
        sink: actor::Addr<CountingActor>,
    }
    impl Actor for Relay {
        type Msg = u64;
        fn handle(&mut self, msg: u64, _ctx: &mut Ctx<'_, Self>) {
            self.sink.send(msg).unwrap();
        }
    }
    let sys = System::builder().workers(8).build();
    let count = Arc::new(AtomicU64::new(0));
    let sink = sys.spawn(CountingActor {
        count: count.clone(),
    });
    let relays: Vec<_> = (0..64)
        .map(|_| sys.spawn(Relay { sink: sink.clone() }))
        .collect();
    let total = 64u64 * 1000;
    for i in 0..total {
        relays[(i % 64) as usize].send(1).unwrap();
    }
    for _ in 0..2000 {
        if count.load(Ordering::Relaxed) == total {
            break;
        }
        std::thread::sleep(Duration::from_millis(5));
    }
    assert_eq!(count.load(Ordering::Relaxed), total);
    sys.shutdown();
}
