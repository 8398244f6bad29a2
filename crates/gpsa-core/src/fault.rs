//! Deterministic, seeded fault injection — the chaos harness
//! (`--features chaos`).
//!
//! A [`FaultPlan`] is a fixed list of injection points, each of which
//! fires **at most once** per plan. Points are either scripted explicitly
//! (builder methods) or derived from a seed via splitmix64, so a failing
//! run is reproducible from its seed alone — the failpoint discipline of
//! production storage engines (FoundationDB-style simulation), scaled
//! down to one process.
//!
//! The hooks live in the dispatcher (per chunk), computer (per batch and
//! at flush), manager (panic at superstep start; simulated crash after
//! dispatch or mid-compute), and [`crate::ValueFile::commit`] (msync
//! failure, torn header). All of them compile away without the `chaos`
//! feature.
//!
//! Panics and commit faults are *survived*: the engine recovers in
//! process and the run completes. A simulated crash is not: the run ends
//! as [`crate::RunOutcome::Crashed`] with the value file exactly as a
//! process death would leave it, and a later run with
//! [`crate::EngineConfig::resume`] picks it up (paper §IV-G, Fig. 6).

use std::sync::atomic::{AtomicBool, Ordering};

/// Which actor role a panic injection targets.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultRole {
    /// A dispatch actor, mid-interval.
    Dispatcher,
    /// A compute actor, mid-fold or at flush.
    Computer,
    /// The manager, at superstep start.
    Manager,
}

/// One scripted injection.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultSpec {
    /// Panic a dispatcher during `superstep` once the role has sent at
    /// least `after_messages` messages in that superstep.
    DispatcherPanic {
        /// Superstep the panic arms in.
        superstep: u64,
        /// Per-superstep sent-message threshold.
        after_messages: u64,
    },
    /// Panic a computer once it has folded at least `after_messages`
    /// messages within one superstep (checked per batch, any superstep).
    ComputerPanic {
        /// Per-superstep folded-message threshold.
        after_messages: u64,
    },
    /// Panic a computer while it finalizes `superstep` (the flush barrier).
    ComputerFlushPanic {
        /// Superstep whose flush dies.
        superstep: u64,
    },
    /// Panic the manager as it starts `superstep`.
    ManagerPanic {
        /// Superstep whose kickoff dies.
        superstep: u64,
    },
    /// Simulated crash once every dispatcher of `superstep` has reported:
    /// no compute flush, no commit, the update column half-written. Ends
    /// the run as [`crate::RunOutcome::Crashed`] (no in-process retry).
    CrashAfterDispatch {
        /// Superstep whose dispatch phase is the last thing that happens.
        superstep: u64,
    },
    /// Simulated crash once the *first* computer of `superstep` reports,
    /// while its siblings may still be folding. Ends the run as
    /// [`crate::RunOutcome::Crashed`] (no in-process retry).
    CrashInCompute {
        /// Superstep whose compute phase is cut short.
        superstep: u64,
    },
    /// The durable commit of `superstep` fails its data msync.
    MsyncFail {
        /// Superstep whose commit fails.
        superstep: u64,
    },
    /// The commit of `superstep` writes a torn (bad-CRC) header slot and
    /// then dies — a crash mid-header-write.
    TornCommit {
        /// Superstep whose commit tears.
        superstep: u64,
    },
    /// Distributed: kill simulated node `node` as it starts `superstep` —
    /// its first dispatcher to arm the superstep panics, taking the whole
    /// node's system down via failure escalation.
    NodeKill {
        /// Node to kill.
        node: u32,
        /// Superstep the kill arms in.
        superstep: u64,
    },
    /// Distributed: panic a `DistComputer` on `node` mid-fold once it has
    /// folded at least `after_messages` messages in one superstep.
    DistComputerPanic {
        /// Node whose computer dies.
        node: u32,
        /// Per-superstep folded-message threshold.
        after_messages: u64,
    },
    /// Distributed: drop an inter-node message batch leaving `src_node`
    /// during `superstep`. A dropped batch is a *detected* network
    /// failure (the send path panics), never silent loss — silent loss
    /// would let the cluster quiesce on wrong values.
    BatchDrop {
        /// Sending node.
        src_node: u32,
        /// Superstep the drop arms in.
        superstep: u64,
    },
    /// Distributed: delay an inter-node batch leaving `src_node` during
    /// `superstep` by `millis` — a stall the superstep watchdog must
    /// catch if the delay exceeds the configured deadline.
    BatchDelay {
        /// Sending node.
        src_node: u32,
        /// Superstep the delay arms in.
        superstep: u64,
        /// Stall length in milliseconds.
        millis: u64,
    },
    /// Distributed: the cluster-manifest append for `superstep`'s barrier
    /// writes a torn (short, bad-CRC) record tail and then dies.
    TornManifest {
        /// Superstep whose barrier record tears.
        superstep: u64,
    },
}

/// How a chaos-selected inter-node batch misbehaves (see
/// [`FaultSpec::BatchDrop`] / [`FaultSpec::BatchDelay`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BatchFault {
    /// The batch is lost; the sender treats it as a detected link failure.
    Drop,
    /// The batch is held for this many milliseconds before delivery.
    Delay(u64),
}

/// A seeded, fire-once fault schedule shared by the whole fleet.
#[derive(Debug, Default)]
pub struct FaultPlan {
    seed: u64,
    points: Vec<(FaultSpec, AtomicBool)>,
}

/// One step of the splitmix64 sequence — the workspace's standard source
/// of cheap deterministic pseudo-randomness. Public so other chaos
/// harnesses (the serving layer's [`FaultPlan`] counterpart, client retry
/// jitter) derive their schedules from the same generator and stay
/// reproducible from a seed alone.
pub fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

impl FaultPlan {
    /// An empty plan tagged with `seed` (fill in points with the `with_*`
    /// builders).
    pub fn new(seed: u64) -> Self {
        FaultPlan {
            seed,
            points: Vec::new(),
        }
    }

    /// Derive `n_points` injections from `seed` alone, targeting
    /// supersteps below `max_superstep`. The same seed always yields the
    /// same schedule. Only faults the engine survives in process are
    /// drawn — never a simulated crash, which would end the run.
    pub fn scripted(seed: u64, n_points: usize, max_superstep: u64) -> Self {
        let mut plan = FaultPlan::new(seed);
        let mut state = seed;
        let max_step = max_superstep.max(1);
        for _ in 0..n_points {
            let kind = splitmix64(&mut state) % 6;
            let superstep = splitmix64(&mut state) % max_step;
            let after_messages = splitmix64(&mut state) % 512;
            let spec = match kind {
                0 => FaultSpec::DispatcherPanic {
                    superstep,
                    after_messages,
                },
                1 => FaultSpec::ComputerPanic { after_messages },
                2 => FaultSpec::ComputerFlushPanic { superstep },
                3 => FaultSpec::ManagerPanic { superstep },
                4 => FaultSpec::MsyncFail { superstep },
                _ => FaultSpec::TornCommit { superstep },
            };
            plan = plan.with(spec);
        }
        plan
    }

    /// Derive `n_points` *distributed* injections from `seed` alone,
    /// targeting supersteps below `max_superstep` on nodes below
    /// `n_nodes`. Random plans never include [`FaultSpec::BatchDelay`] —
    /// delays exercise the watchdog's deadline, which a test must size
    /// explicitly; everything else recovers on its own — nor a simulated
    /// crash.
    pub fn scripted_dist(seed: u64, n_points: usize, max_superstep: u64, n_nodes: u32) -> Self {
        let mut plan = FaultPlan::new(seed);
        let mut state = seed ^ 0xD157_0000_0000_0000;
        let max_step = max_superstep.max(1);
        let nodes = n_nodes.max(1);
        for _ in 0..n_points {
            let kind = splitmix64(&mut state) % 6;
            let superstep = splitmix64(&mut state) % max_step;
            let node = (splitmix64(&mut state) % nodes as u64) as u32;
            let after_messages = splitmix64(&mut state) % 256;
            let spec = match kind {
                0 => FaultSpec::NodeKill { node, superstep },
                1 => FaultSpec::DistComputerPanic {
                    node,
                    after_messages,
                },
                2 => FaultSpec::BatchDrop {
                    src_node: node,
                    superstep,
                },
                3 => FaultSpec::TornManifest { superstep },
                4 => FaultSpec::MsyncFail { superstep },
                _ => FaultSpec::TornCommit { superstep },
            };
            plan = plan.with(spec);
        }
        plan
    }

    /// Add one injection point.
    pub fn with(mut self, spec: FaultSpec) -> Self {
        self.points.push((spec, AtomicBool::new(false)));
        self
    }

    /// The seed this plan was built from (reporting only).
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Injection points in this plan.
    pub fn specs(&self) -> impl Iterator<Item = FaultSpec> + '_ {
        self.points.iter().map(|(s, _)| *s)
    }

    /// Total number of injection points (each costs the engine at most
    /// one recovery attempt, a lower bound for the retry budget).
    pub fn n_points(&self) -> usize {
        self.points.len()
    }

    fn fire(&self, idx: usize) -> bool {
        self.points[idx]
            .1
            .compare_exchange(false, true, Ordering::AcqRel, Ordering::Acquire)
            .is_ok()
    }

    /// Panic (once) if a point matching `role` at (`superstep`,
    /// `messages`) is due. Called from inside actor handlers, so the
    /// panic rides the runtime's supervision / escalation path.
    pub fn panic_if_due(&self, role: FaultRole, superstep: u64, messages: u64) {
        for (i, (spec, _)) in self.points.iter().enumerate() {
            let due = match (*spec, role) {
                (
                    FaultSpec::DispatcherPanic {
                        superstep: s,
                        after_messages,
                    },
                    FaultRole::Dispatcher,
                ) => s == superstep && messages >= after_messages,
                (FaultSpec::ComputerPanic { after_messages }, FaultRole::Computer) => {
                    messages >= after_messages
                }
                (FaultSpec::ComputerFlushPanic { superstep: s }, FaultRole::Computer) => {
                    s == superstep && messages == u64::MAX
                }
                (FaultSpec::ManagerPanic { superstep: s }, FaultRole::Manager) => s == superstep,
                _ => false,
            };
            if due && self.fire(i) {
                panic!(
                    "chaos-injected panic: seed={} role={role:?} superstep={superstep} messages={messages}",
                    self.seed
                );
            }
        }
    }

    /// Sentinel passed as `messages` by the computer's flush hook so
    /// [`FaultSpec::ComputerFlushPanic`] points (and only those) match.
    pub const AT_FLUSH: u64 = u64::MAX;

    /// True (once) if the durable commit of `superstep` should fail its
    /// msync.
    pub fn take_msync_failure(&self, superstep: u64) -> bool {
        self.take_first(
            |spec| matches!(spec, FaultSpec::MsyncFail { superstep: s } if s == superstep),
        )
    }

    /// True (once) if the commit of `superstep` should write a torn slot.
    pub fn take_torn_commit(&self, superstep: u64) -> bool {
        self.take_first(
            |spec| matches!(spec, FaultSpec::TornCommit { superstep: s } if s == superstep),
        )
    }

    /// True (once) if the run should crash now that every dispatcher of
    /// `superstep` has reported ([`FaultSpec::CrashAfterDispatch`]).
    pub fn take_crash_after_dispatch(&self, superstep: u64) -> bool {
        self.take_first(
            |spec| matches!(spec, FaultSpec::CrashAfterDispatch { superstep: s } if s == superstep),
        )
    }

    /// True (once) if the run should crash now that a computer of
    /// `superstep` has reported ([`FaultSpec::CrashInCompute`]).
    pub fn take_crash_in_compute(&self, superstep: u64) -> bool {
        self.take_first(
            |spec| matches!(spec, FaultSpec::CrashInCompute { superstep: s } if s == superstep),
        )
    }

    /// Fire the first not-yet-fired point matching `due`; true if one did.
    fn take_first(&self, due: impl Fn(FaultSpec) -> bool) -> bool {
        self.points
            .iter()
            .enumerate()
            .any(|(i, (spec, _))| due(*spec) && self.fire(i))
    }

    /// True (once) if `node` should die as it starts `superstep`.
    pub fn take_node_kill(&self, node: u32, superstep: u64) -> bool {
        self.take_first(|spec| {
            matches!(spec, FaultSpec::NodeKill { node: n, superstep: s }
                if n == node && s == superstep)
        })
    }

    /// Panic (once) if a [`FaultSpec::DistComputerPanic`] targeting
    /// `node` is due after `messages` folds this superstep.
    pub fn panic_if_due_on_node(&self, node: u32, messages: u64) {
        for (i, (spec, _)) in self.points.iter().enumerate() {
            if matches!(*spec, FaultSpec::DistComputerPanic { node: n, after_messages }
                    if n == node && messages >= after_messages)
                && self.fire(i)
            {
                panic!(
                    "chaos-injected dist-computer panic: seed={} node={node} messages={messages}",
                    self.seed
                );
            }
        }
    }

    /// The fault (if any, once) afflicting an inter-node batch leaving
    /// `src_node` during `superstep`.
    pub fn take_batch_fault(&self, src_node: u32, superstep: u64) -> Option<BatchFault> {
        for (i, (spec, _)) in self.points.iter().enumerate() {
            let hit = match *spec {
                FaultSpec::BatchDrop {
                    src_node: n,
                    superstep: s,
                } if n == src_node && s == superstep => Some(BatchFault::Drop),
                FaultSpec::BatchDelay {
                    src_node: n,
                    superstep: s,
                    millis,
                } if n == src_node && s == superstep => Some(BatchFault::Delay(millis)),
                _ => None,
            };
            if let Some(f) = hit {
                if self.fire(i) {
                    return Some(f);
                }
            }
        }
        None
    }

    /// True (once) if the cluster-manifest append for `superstep` should
    /// write a torn tail and die.
    pub fn take_torn_manifest(&self, superstep: u64) -> bool {
        self.take_first(
            |spec| matches!(spec, FaultSpec::TornManifest { superstep: s } if s == superstep),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scripted_plans_are_reproducible() {
        let a: Vec<_> = FaultPlan::scripted(42, 8, 5).specs().collect();
        let b: Vec<_> = FaultPlan::scripted(42, 8, 5).specs().collect();
        let c: Vec<_> = FaultPlan::scripted(43, 8, 5).specs().collect();
        assert_eq!(a, b);
        assert_ne!(a, c, "different seeds should give different schedules");
        assert!(a.iter().all(
            |s| !matches!(s, FaultSpec::DispatcherPanic { superstep, .. } if *superstep >= 5)
        ));
    }

    #[test]
    fn points_fire_at_most_once() {
        let plan = FaultPlan::new(1).with(FaultSpec::MsyncFail { superstep: 3 });
        assert!(!plan.take_msync_failure(2));
        assert!(plan.take_msync_failure(3));
        assert!(!plan.take_msync_failure(3), "second take must be a no-op");
    }

    #[test]
    fn panic_points_respect_role_and_threshold() {
        let plan = FaultPlan::new(7).with(FaultSpec::DispatcherPanic {
            superstep: 1,
            after_messages: 10,
        });
        // Wrong role, wrong superstep, under threshold: all quiet.
        plan.panic_if_due(FaultRole::Computer, 1, 100);
        plan.panic_if_due(FaultRole::Dispatcher, 0, 100);
        plan.panic_if_due(FaultRole::Dispatcher, 1, 9);
        let boom = std::panic::catch_unwind(|| plan.panic_if_due(FaultRole::Dispatcher, 1, 10));
        assert!(boom.is_err());
        // Fired once; never again.
        plan.panic_if_due(FaultRole::Dispatcher, 1, 10);
    }

    #[test]
    fn dist_points_match_node_and_superstep() {
        let plan = FaultPlan::new(11)
            .with(FaultSpec::NodeKill {
                node: 1,
                superstep: 2,
            })
            .with(FaultSpec::BatchDrop {
                src_node: 0,
                superstep: 1,
            })
            .with(FaultSpec::TornManifest { superstep: 0 });
        assert!(!plan.take_node_kill(0, 2), "wrong node");
        assert!(!plan.take_node_kill(1, 1), "wrong superstep");
        assert!(plan.take_node_kill(1, 2));
        assert!(!plan.take_node_kill(1, 2), "fire-once");
        assert_eq!(plan.take_batch_fault(1, 1), None);
        assert_eq!(plan.take_batch_fault(0, 1), Some(BatchFault::Drop));
        assert_eq!(plan.take_batch_fault(0, 1), None, "fire-once");
        assert!(!plan.take_torn_manifest(1));
        assert!(plan.take_torn_manifest(0));
        assert!(!plan.take_torn_manifest(0));
    }

    #[test]
    fn dist_computer_panic_targets_one_node() {
        let plan = FaultPlan::new(13).with(FaultSpec::DistComputerPanic {
            node: 2,
            after_messages: 5,
        });
        plan.panic_if_due_on_node(1, 100); // wrong node
        plan.panic_if_due_on_node(2, 4); // under threshold
        let boom = std::panic::catch_unwind(|| plan.panic_if_due_on_node(2, 5));
        assert!(boom.is_err());
        plan.panic_if_due_on_node(2, 5); // fired once, never again
    }

    #[test]
    fn scripted_dist_is_reproducible_and_bounded() {
        let a: Vec<_> = FaultPlan::scripted_dist(42, 10, 4, 3).specs().collect();
        let b: Vec<_> = FaultPlan::scripted_dist(42, 10, 4, 3).specs().collect();
        assert_eq!(a, b);
        for s in &a {
            match *s {
                FaultSpec::NodeKill { node, superstep }
                | FaultSpec::BatchDrop {
                    src_node: node,
                    superstep,
                } => {
                    assert!(node < 3 && superstep < 4);
                }
                FaultSpec::DistComputerPanic { node, .. } => assert!(node < 3),
                FaultSpec::TornManifest { superstep }
                | FaultSpec::MsyncFail { superstep }
                | FaultSpec::TornCommit { superstep } => assert!(superstep < 4),
                other => panic!("scripted_dist produced unexpected spec {other:?}"),
            }
        }
    }

    #[test]
    fn crash_points_fire_once_at_their_superstep_only() {
        let plan = FaultPlan::new(5)
            .with(FaultSpec::CrashAfterDispatch { superstep: 2 })
            .with(FaultSpec::CrashInCompute { superstep: 1 });
        assert!(!plan.take_crash_after_dispatch(1));
        assert!(!plan.take_crash_in_compute(2));
        assert!(plan.take_crash_after_dispatch(2));
        assert!(!plan.take_crash_after_dispatch(2), "fire-once");
        assert!(plan.take_crash_in_compute(1));
        assert!(!plan.take_crash_in_compute(1), "fire-once");
        // Crash points are invisible to every other hook.
        let plan = FaultPlan::new(6).with(FaultSpec::CrashAfterDispatch { superstep: 0 });
        plan.panic_if_due(FaultRole::Manager, 0, 0);
        assert!(!plan.take_msync_failure(0) && !plan.take_torn_commit(0));
        assert!(plan.take_crash_after_dispatch(0));
    }

    #[test]
    fn seeded_plans_never_draw_a_crash() {
        let is_crash = |s: &FaultSpec| {
            matches!(
                s,
                FaultSpec::CrashAfterDispatch { .. } | FaultSpec::CrashInCompute { .. }
            )
        };
        for seed in 0..200u64 {
            assert!(!FaultPlan::scripted(seed, 8, 6)
                .specs()
                .any(|s| is_crash(&s)));
            assert!(!FaultPlan::scripted_dist(seed, 8, 6, 3)
                .specs()
                .any(|s| is_crash(&s)));
        }
    }

    #[test]
    fn flush_points_only_match_the_sentinel() {
        let plan = FaultPlan::new(9).with(FaultSpec::ComputerFlushPanic { superstep: 2 });
        plan.panic_if_due(FaultRole::Computer, 2, 500);
        let boom = std::panic::catch_unwind(|| {
            plan.panic_if_due(FaultRole::Computer, 2, FaultPlan::AT_FLUSH)
        });
        assert!(boom.is_err());
    }
}
