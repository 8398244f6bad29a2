//! The job scheduler and its runner fleet, built on the same actor
//! runtime the engine itself uses.
//!
//! One [`Scheduler`] actor owns *all* mutable server state — registry,
//! cache, queues, journal, idempotency map, counters — so there is no
//! locking anywhere in the serving path; connection threads talk to it
//! purely by message. `max_concurrent_jobs` [`Runner`] actors execute
//! jobs; each engine run blocks its runner for the duration, which is why
//! the serve [`actor::System`] is sized with one worker thread per runner
//! plus one so the scheduler always stays responsive.
//!
//! Admission control is multi-tenant: every job belongs to a tenant
//! (client-supplied, defaulting per-connection) with its own pair of
//! priority queues. Runners are handed out by deficit-weighted
//! round-robin over the tenants with queued work, so a tenant flooding
//! the server can only ever claim its weight's share of capacity while
//! anyone else is waiting. Per-tenant quotas (max queued, max in-flight,
//! scratch-byte budget) shed the *offending* tenant's excess with
//! `quota_exceeded`; only genuine whole-server saturation answers
//! `server_busy`. Deadlines and cancellation tokens are re-checked at
//! every hand-off point (queue pop and run start), and running jobs arm
//! the engine's superstep watchdog with their remaining budget so a
//! wedged run is torn down rather than holding a runner forever.
//!
//! Durability (when [`ServeConfig::durable`]): every admitted job is
//! journaled `submitted → started → committed|failed`, fsync'd before the
//! state change takes effect. Construction replays the journal: the
//! scheduler sweeps orphaned job scratch, restores the registry from its
//! manifest and the result cache from its spill directory, rebuilds the
//! idempotency map from committed keyed jobs, and re-enqueues every
//! incomplete job — results are deterministic, so a replayed run answers
//! a later resubmission of the same idempotency key bit-identically to
//! the run the crash destroyed.

use std::collections::{HashMap, VecDeque};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::mpsc::{sync_channel, SyncSender};
use std::sync::Arc;
use std::time::{Duration, Instant, SystemTime, UNIX_EPOCH};

use std::collections::HashSet;

use actor::{Actor, Addr, Ctx};
use gpsa::{Engine, EngineError};
use gpsa_graph::{DeltaBatch, GraphSnapshot};
use gpsa_metrics::timer::Timer;

use crate::cache::{CacheKey, ResultCache};
use crate::config::ServeConfig;
use crate::error::ServeError;
use crate::job::{
    run_job, CancelToken, JobOutcome, JobResponse, JobSpec, JobTicket, Priority, SubmitReply,
};
use crate::journal::{sweep_scratch_dirs, JobJournal, JournalRecord};
use crate::registry::{CompactTicket, GraphEntry, GraphInfo, GraphRegistry};
use crate::stats::{ServerStats, TenantStats};

/// Wall-clock milliseconds since the epoch, for journal timestamps that
/// must stay meaningful across restarts (monotonic clocks don't).
fn now_ms() -> u64 {
    SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .map(|d| d.as_millis() as u64)
        .unwrap_or(0)
}

/// Floor for the per-superstep watchdog derived from a job deadline, so
/// a nearly-expired job still gets a meaningful (if tiny) timeout rather
/// than a zero one.
const MIN_WATCHDOG: Duration = Duration::from_millis(10);

/// Everything the scheduler can be asked to do.
pub enum SchedulerMsg {
    /// Submit a job; the reply goes out on the ticket's channel.
    Submit(JobTicket),
    /// Open a CSR file and make it resident.
    RegisterGraph {
        /// Id to register under.
        graph_id: String,
        /// On-disk CSR path.
        path: PathBuf,
        /// Result + stats snapshot.
        reply: SyncSender<(Result<GraphInfo, ServeError>, ServerStats)>,
    },
    /// Snapshot the resident graphs.
    ListGraphs {
        /// Rows + stats snapshot.
        reply: SyncSender<(Vec<GraphInfo>, ServerStats)>,
    },
    /// Snapshot the counters.
    GetStats {
        /// The snapshot.
        reply: SyncSender<ServerStats>,
    },
    /// A connection was shed for stalling mid-frame (bookkeeping only).
    NoteShed,
    /// A submitter went away (disconnect, or its deadline expired while
    /// it waited): its ticket's [`CancelToken`] was tripped; reap every
    /// queued job whose token is set. In-flight cancelled jobs resolve
    /// at their `Done`.
    CancelSweep,
    /// Apply an edge-delta batch to a resident graph (durable: the batch
    /// hits the graph's delta log, fsync'd, before the swap).
    Mutate {
        /// Graph to mutate.
        graph_id: String,
        /// The additions or removals.
        batch: DeltaBatch,
        /// Result + stats snapshot.
        reply: SyncSender<(Result<GraphInfo, ServeError>, ServerStats)>,
    },
    /// Fold a graph's delta overlay into a fresh CSR as a new epoch. The
    /// rewrite runs on a background thread against a pinned snapshot;
    /// in-flight jobs keep their epoch and drain undisturbed.
    Compact {
        /// Graph to compact.
        graph_id: String,
        /// Answered when the compaction commits (or fails).
        reply: SyncSender<(Result<GraphInfo, ServeError>, ServerStats)>,
    },
    /// A background compaction rewrite finished; commit or abandon it.
    FinishCompact {
        /// The pinned snapshot + destination from `begin_compact`.
        ticket: CompactTicket,
        /// Whether the CSR rewrite itself succeeded.
        result: Result<(), ServeError>,
        /// The original requester, answered after the commit.
        reply: SyncSender<(Result<GraphInfo, ServeError>, ServerStats)>,
    },
    /// A runner finished (successfully or not); always sent, even when
    /// the job panicked, so runner capacity can never leak.
    Done {
        /// Which runner is idle again.
        runner: usize,
        /// The job's ticket (reply channel still unsent).
        ticket: JobTicket,
        /// Epoch of the graph the job ran against, for the cache key.
        epoch: u64,
        /// Delta sequence within the epoch, for the cache key.
        delta_seq: u64,
        /// What happened.
        result: Result<JobOutcome, ServeError>,
    },
}

/// A queued job with its pre-resolved graph (resolving at submit keeps
/// `unknown_graph` synchronous and pins the epoch the job will run — and
/// be cached — against).
struct QueuedJob {
    ticket: JobTicket,
    graph: Arc<GraphSnapshot>,
    epoch: u64,
    delta_seq: u64,
}

/// One tenant's queues, quota ledger and counters. Created on first
/// contact and kept for the life of the process (counters outlive the
/// queues so `stats` can report on idle tenants).
struct TenantState {
    /// DRR weight (share of runner hand-outs relative to other tenants).
    weight: u32,
    /// DRR deficit: dispatch credit accumulated on each ring pass. One
    /// job costs one credit, so over time a weight-4 tenant dispatches
    /// four jobs for every one a weight-1 tenant does.
    deficit: u64,
    queue_high: VecDeque<QueuedJob>,
    queue_normal: VecDeque<QueuedJob>,
    /// Jobs occupying runners right now.
    inflight: usize,
    /// Scratch bytes charged to queued + running jobs.
    scratch_bytes: u64,
    submitted: u64,
    completed: u64,
    shed_quota: u64,
    cancelled: u64,
}

impl TenantState {
    fn new(weight: u32) -> TenantState {
        TenantState {
            weight,
            deficit: 0,
            queue_high: VecDeque::new(),
            queue_normal: VecDeque::new(),
            inflight: 0,
            scratch_bytes: 0,
            submitted: 0,
            completed: 0,
            shed_quota: 0,
            cancelled: 0,
        }
    }

    fn queued(&self) -> usize {
        self.queue_high.len() + self.queue_normal.len()
    }

    fn pop(&mut self) -> Option<QueuedJob> {
        self.queue_high
            .pop_front()
            .or_else(|| self.queue_normal.pop_front())
    }
}

/// What an idempotency key currently maps to.
enum IdemState {
    /// The keyed job is queued or running; resubmissions of the key park
    /// their reply channels here and are all answered when it resolves.
    InFlight {
        waiters: Vec<SyncSender<SubmitReply>>,
    },
    /// The keyed job committed; resubmissions resolve through the result
    /// cache under this key (and fall back to a fresh run if the entry
    /// was evicted).
    Completed { key: CacheKey },
}

/// The scheduler actor.
pub struct Scheduler {
    config: ServeConfig,
    registry: GraphRegistry,
    cache: ResultCache,
    journal: Option<JobJournal>,
    idem: HashMap<String, IdemState>,
    /// Incomplete journaled jobs awaiting replay, built during recovery
    /// and enqueued in [`Actor::started`] once runners exist.
    replay: Vec<JobTicket>,
    /// Graphs with a compaction rewrite in flight. Mutations and further
    /// compactions of these are refused (`server_busy`) until the rewrite
    /// commits, so the pinned snapshot stays the epoch's last word.
    compacting: HashSet<String>,
    next_job_id: u64,
    /// Per-tenant queues and ledgers, keyed by tenant id.
    tenants: HashMap<String, TenantState>,
    /// The DRR ring: tenant ids with queued work, visited in order.
    /// Invariant outside `drain_queue`: a tenant is in the ring iff its
    /// queues are non-empty, and appears exactly once.
    rr: VecDeque<String>,
    runners: Vec<Addr<Runner>>,
    idle: Vec<usize>,
    jobs_submitted: u64,
    jobs_completed: u64,
    jobs_rejected: u64,
    jobs_deadline: u64,
    jobs_failed: u64,
    jobs_replayed: u64,
    idempotent_hits: u64,
    conns_shed: u64,
    scratch_reclaimed_bytes: u64,
    jobs_quota_shed: u64,
    jobs_cancelled: u64,
    auto_compactions: u64,
}

/// A reply channel nobody listens on, for replayed tickets: the client
/// that submitted the original job is gone, so the result only needs to
/// reach the cache and the idempotency map.
fn dead_reply() -> SyncSender<SubmitReply> {
    sync_channel(1).0
}

impl Scheduler {
    /// Build a scheduler for `config`. With durability on this is where
    /// crash recovery happens: scratch sweep, registry/cache restore,
    /// journal replay and compaction — all before the listener accepts a
    /// single connection. Every step is best-effort: a damaged artifact
    /// costs restored state (reported on stderr), never the boot.
    /// Runners are spawned — and replayed jobs enqueued — in
    /// [`Actor::started`], once the scheduler has an address.
    pub fn new(config: ServeConfig) -> Self {
        let mut scratch_reclaimed_bytes = 0;
        let mut journal = None;
        let mut idem = HashMap::new();
        let mut replay = Vec::new();
        let mut next_job_id = 1;
        let mut boot_reaped = 0u64;

        let (registry, mut cache) = if config.durable {
            scratch_reclaimed_bytes = sweep_scratch_dirs(&config.work_dir);
            let (registry, restored) =
                GraphRegistry::open(config.memory_budget_bytes, config.manifest_path());
            if restored > 0 {
                eprintln!("gpsa-serve: restored {restored} graph(s) from the manifest");
            }
            let cache = ResultCache::open(config.cache_capacity, config.cache_spill_dir());
            (registry, cache)
        } else {
            (
                GraphRegistry::new(config.memory_budget_bytes),
                ResultCache::new(config.cache_capacity),
            )
        };
        // Entries for graphs that vanished or changed on disk while the
        // server was down — or whose epoch/delta position moved — must
        // not be served.
        cache.retain_valid(&registry.versions());
        #[cfg(feature = "chaos")]
        let registry = match &config.fault_plan {
            Some(plan) => {
                let mut r = registry;
                r.set_fault_plan(plan.clone());
                r
            }
            None => registry,
        };

        if config.durable {
            match JobJournal::open(&config.journal_path()) {
                Ok((mut j, records)) => {
                    let analysis = analyze(&records);
                    next_job_id = analysis.max_job_id + 1;
                    for (key, cache_key) in analysis.completed_keys {
                        idem.insert(key, IdemState::Completed { key: cache_key });
                    }
                    let mut expired: Vec<u64> = Vec::new();
                    for rec in &analysis.incomplete {
                        let JournalRecord::Submitted {
                            job_id,
                            key,
                            graph_id,
                            algorithm,
                            priority,
                            tenant,
                            at_ms,
                        } = rec
                        else {
                            continue;
                        };
                        // A keyed job older than the idempotency TTL has no
                        // client left that could ever resubmit its key: reap
                        // it as failed rather than replaying it against a
                        // dead reply sender.
                        if let (Some(ttl), Some(_)) = (config.idem_key_ttl, key) {
                            let age_ms = now_ms().saturating_sub(*at_ms);
                            if *at_ms > 0 && age_ms > ttl.as_millis() as u64 {
                                expired.push(*job_id);
                                continue;
                            }
                        }
                        if let Some(k) = key {
                            idem.insert(
                                k.clone(),
                                IdemState::InFlight {
                                    waiters: Vec::new(),
                                },
                            );
                        }
                        replay.push(JobTicket {
                            job_id: *job_id,
                            spec: JobSpec {
                                graph_id: graph_id.clone(),
                                algorithm: *algorithm,
                                priority: *priority,
                                // The original deadline died with the
                                // original client; the replay runs for the
                                // journal's sake, unbudgeted.
                                deadline: None,
                                idempotency_key: key.clone(),
                                tenant: tenant.clone(),
                            },
                            submitted: Instant::now(),
                            timer: Timer::start(),
                            reply: dead_reply(),
                            cancel: CancelToken::new(),
                            scratch_bytes: 0,
                        });
                    }
                    if let Err(e) = j.compact(&analysis.keep) {
                        eprintln!("gpsa-serve: journal compaction failed: {e}");
                    }
                    for job_id in expired {
                        boot_reaped += 1;
                        if let Err(e) = j.append(&JournalRecord::Failed {
                            job_id,
                            reason: Some("idempotency key expired".to_string()),
                        }) {
                            eprintln!("gpsa-serve: journal append failed: {e}");
                        }
                    }
                    #[cfg(feature = "chaos")]
                    if let Some(plan) = &config.fault_plan {
                        j.set_fault_plan(plan.clone());
                    }
                    journal = Some(j);
                }
                Err(e) => {
                    eprintln!(
                        "gpsa-serve: cannot open job journal {}: {e}; running without one",
                        config.journal_path().display()
                    );
                }
            }
        }

        Scheduler {
            config,
            registry,
            cache,
            journal,
            idem,
            replay,
            compacting: HashSet::new(),
            next_job_id,
            tenants: HashMap::new(),
            rr: VecDeque::new(),
            runners: Vec::new(),
            idle: Vec::new(),
            jobs_submitted: 0,
            jobs_completed: 0,
            jobs_rejected: 0,
            jobs_deadline: 0,
            jobs_failed: 0,
            jobs_replayed: 0,
            idempotent_hits: 0,
            conns_shed: 0,
            scratch_reclaimed_bytes,
            jobs_quota_shed: 0,
            jobs_cancelled: boot_reaped,
            auto_compactions: 0,
        }
    }

    /// Append one record to the journal (fsync'd), if one is attached.
    fn journal_append(&mut self, rec: &JournalRecord) {
        if let Some(j) = &mut self.journal {
            if let Err(e) = j.append(rec) {
                eprintln!("gpsa-serve: journal append failed: {e}");
            }
        }
    }

    /// The tenant's state, created on first contact with its configured
    /// weight.
    fn tenant_entry(&mut self, tenant: &str) -> &mut TenantState {
        if !self.tenants.contains_key(tenant) {
            let weight = self.config.tenant_weight(tenant);
            self.tenants
                .insert(tenant.to_string(), TenantState::new(weight));
        }
        self.tenants.get_mut(tenant).expect("just inserted")
    }

    /// Queue a job on its tenant, maintaining the ring invariant.
    fn enqueue_tenant(&mut self, job: QueuedJob) {
        let tenant = job.ticket.spec.tenant.clone();
        let t = self.tenant_entry(&tenant);
        let was_empty = t.queued() == 0;
        match job.ticket.spec.priority {
            Priority::High => t.queue_high.push_back(job),
            Priority::Normal => t.queue_normal.push_back(job),
        }
        if was_empty {
            self.rr.push_back(tenant);
        }
    }

    /// Release a terminal ticket's tenant accounting. `ran` says whether
    /// it occupied a runner (as opposed to dying in the queue).
    fn release_tenant(&mut self, ticket: &JobTicket, ran: bool) {
        let t = self.tenant_entry(&ticket.spec.tenant);
        if ran {
            t.inflight = t.inflight.saturating_sub(1);
        }
        t.scratch_bytes = t.scratch_bytes.saturating_sub(ticket.scratch_bytes);
    }

    fn queue_depth(&self) -> usize {
        self.tenants.values().map(TenantState::queued).sum()
    }

    fn stats(&self) -> ServerStats {
        let (cache_hits, cache_misses) = self.cache.counters();
        let mut tenants: Vec<TenantStats> = self
            .tenants
            .iter()
            .map(|(id, t)| TenantStats {
                tenant: id.clone(),
                weight: t.weight as u64,
                queued: t.queued() as u64,
                running: t.inflight as u64,
                scratch_bytes: t.scratch_bytes,
                submitted: t.submitted,
                completed: t.completed,
                shed_quota: t.shed_quota,
                cancelled: t.cancelled,
            })
            .collect();
        tenants.sort_by(|a, b| a.tenant.cmp(&b.tenant));
        ServerStats {
            jobs_submitted: self.jobs_submitted,
            jobs_completed: self.jobs_completed,
            jobs_rejected: self.jobs_rejected,
            jobs_deadline: self.jobs_deadline,
            jobs_failed: self.jobs_failed,
            cache_hits,
            cache_misses,
            cache_len: self.cache.len() as u64,
            queue_depth: self.queue_depth() as u64,
            running: (self.runners.len() - self.idle.len()) as u64,
            max_concurrent_jobs: self.config.max_concurrent_jobs as u64,
            graphs_resident: self.registry.len() as u64,
            resident_bytes: self.registry.resident_bytes(),
            jobs_replayed: self.jobs_replayed,
            idempotent_hits: self.idempotent_hits,
            conns_shed: self.conns_shed,
            scratch_reclaimed_bytes: self.scratch_reclaimed_bytes,
            jobs_quota_shed: self.jobs_quota_shed,
            jobs_cancelled: self.jobs_cancelled,
            auto_compactions: self.auto_compactions,
            cache_spill_failures: self.cache.spill_failures(),
            tenants,
        }
    }

    fn cache_key(&self, ticket: &JobTicket, epoch: u64, delta_seq: u64) -> CacheKey {
        CacheKey {
            graph_id: ticket.spec.graph_id.clone(),
            algorithm: ticket.spec.algorithm.name().to_string(),
            params: ticket.spec.algorithm.canonical_params(),
            epoch,
            delta_seq,
        }
    }

    fn reply_err(&mut self, ticket: &JobTicket, err: ServeError) {
        match &err {
            ServeError::ServerBusy(_) => self.jobs_rejected += 1,
            ServeError::DeadlineExceeded(_) => self.jobs_deadline += 1,
            ServeError::QuotaExceeded(_) => {
                self.jobs_quota_shed += 1;
                self.tenant_entry(&ticket.spec.tenant).shed_quota += 1;
            }
            ServeError::Cancelled(_) => {
                self.jobs_cancelled += 1;
                self.tenant_entry(&ticket.spec.tenant).cancelled += 1;
            }
            _ => self.jobs_failed += 1,
        }
        let _ = ticket.reply.send((Err(err), self.stats()));
    }

    fn reply_hit(&mut self, ticket: &JobTicket, outcome: Arc<JobOutcome>) {
        let stats = self.stats();
        let resp = JobResponse {
            job_id: ticket.job_id,
            cache_hit: true,
            outcome,
            queue_wait: Duration::ZERO,
            run_time: Duration::ZERO,
            stats: stats.clone(),
        };
        let _ = ticket.reply.send((Ok(resp), stats));
    }

    fn dispatch(&mut self, job: QueuedJob) {
        let runner = self.idle.pop().expect("dispatch without an idle runner");
        self.tenant_entry(&job.ticket.spec.tenant).inflight += 1;
        self.journal_append(&JournalRecord::Started {
            job_id: job.ticket.job_id,
        });
        // Send only fails during system shutdown, when no reply matters.
        let _ = self.runners[runner].send(RunJob {
            ticket: job.ticket,
            graph: job.graph,
            epoch: job.epoch,
            delta_seq: job.delta_seq,
        });
    }

    /// Hand queued jobs to idle runners by deficit-weighted round-robin
    /// over the tenants with queued work. Each ring visit credits the
    /// tenant its weight in dispatch budget; one job costs one credit,
    /// so over time a weight-4 tenant is handed four runners for every
    /// one a weight-1 tenant gets — regardless of how deep anyone's
    /// queue is. The loop ends when runners run out, the ring empties,
    /// or a full barren pass shows every remaining tenant blocked at
    /// its in-flight cap.
    fn drain_queue(&mut self) {
        let mut barren = 0;
        while !self.idle.is_empty() && !self.rr.is_empty() && barren < self.rr.len() {
            let tid = self.rr.pop_front().expect("ring checked non-empty");
            let dispatched = self.drain_tenant(&tid);
            let t = self.tenant_entry(&tid);
            if t.queued() == 0 {
                // Leaves the ring; deficit doesn't accrue while idle.
                t.deficit = 0;
            } else {
                self.rr.push_back(tid);
            }
            if dispatched {
                barren = 0;
            } else {
                barren += 1;
            }
        }
    }

    /// One DRR visit: credit the quantum (capped at the queue depth so
    /// an in-flight-capped tenant can't hoard credit for a later
    /// burst), then dispatch while credit, queued work, idle runners and
    /// the tenant's in-flight allowance all last. Jobs found cancelled
    /// or deadline-expired at the pop are reaped at no credit cost.
    /// Returns whether anything was dispatched.
    fn drain_tenant(&mut self, tid: &str) -> bool {
        {
            let t = self.tenant_entry(tid);
            let quantum = t.weight as u64;
            t.deficit = (t.deficit + quantum).min(t.queued() as u64);
        }
        let mut dispatched = false;
        let max_inflight = self.config.tenant_max_inflight;
        loop {
            if self.idle.is_empty() {
                return dispatched;
            }
            let t = self.tenant_entry(tid);
            if t.deficit == 0 || t.inflight >= max_inflight {
                return dispatched;
            }
            let Some(job) = t.pop() else {
                return dispatched;
            };
            if job.ticket.cancel.is_cancelled() {
                self.release_tenant(&job.ticket, false);
                self.resolve_failure(
                    &job.ticket,
                    ServeError::Cancelled(format!(
                        "job {} was cancelled while queued",
                        job.ticket.job_id
                    )),
                );
                continue;
            }
            if job.ticket.remaining() == Some(Duration::ZERO) {
                let wait = job.ticket.submitted.elapsed();
                self.release_tenant(&job.ticket, false);
                self.resolve_failure(
                    &job.ticket,
                    ServeError::DeadlineExceeded(format!(
                        "job {} expired after {wait:?} in the queue",
                        job.ticket.job_id
                    )),
                );
                continue;
            }
            self.tenant_entry(tid).deficit -= 1;
            dispatched = true;
            self.dispatch(job);
        }
    }

    /// Reap every queued job whose cancel token is set (the sweep a
    /// [`SchedulerMsg::CancelSweep`] asks for), then restore the ring
    /// invariant and hand any freed budget out again.
    fn cancel_sweep(&mut self) {
        let mut reaped: Vec<QueuedJob> = Vec::new();
        for t in self.tenants.values_mut() {
            for q in [&mut t.queue_high, &mut t.queue_normal] {
                let mut keep = VecDeque::with_capacity(q.len());
                for job in q.drain(..) {
                    if job.ticket.cancel.is_cancelled() {
                        reaped.push(job);
                    } else {
                        keep.push_back(job);
                    }
                }
                *q = keep;
            }
        }
        if reaped.is_empty() {
            return;
        }
        let tenants = &self.tenants;
        self.rr
            .retain(|tid| tenants.get(tid).map(|t| t.queued() > 0).unwrap_or(false));
        for job in reaped {
            self.release_tenant(&job.ticket, false);
            self.resolve_failure(
                &job.ticket,
                ServeError::Cancelled(format!(
                    "job {} was cancelled while queued",
                    job.ticket.job_id
                )),
            );
        }
        self.drain_queue();
    }

    /// Answer a keyed submission from the idempotency map, if it can be.
    /// `true` means the ticket was consumed (parked or answered).
    fn try_idempotent(&mut self, ticket: &JobTicket) -> bool {
        let Some(k) = ticket.spec.idempotency_key.as_deref() else {
            return false;
        };
        match self.idem.get_mut(k) {
            Some(IdemState::InFlight { waiters }) => {
                // Same logical job, already on its way: park the reply.
                waiters.push(ticket.reply.clone());
                self.idempotent_hits += 1;
                true
            }
            Some(IdemState::Completed { key }) => {
                let key = key.clone();
                match self.cache.get(&key) {
                    Some(outcome) => {
                        self.idempotent_hits += 1;
                        self.reply_hit(ticket, outcome);
                        true
                    }
                    // Committed but evicted since: the key's result is
                    // recomputable (deterministic), so fall through to a
                    // fresh run that will re-complete the key.
                    None => false,
                }
            }
            None => false,
        }
    }

    fn handle_submit(&mut self, mut ticket: JobTicket) {
        if self.try_idempotent(&ticket) {
            return;
        }
        let (graph, epoch, delta_seq) = match self.registry.get(&ticket.spec.graph_id) {
            Some(entry) => (entry.snapshot.clone(), entry.epoch, entry.delta_seq()),
            None => {
                let id = ticket.spec.graph_id.clone();
                self.reply_err(
                    &ticket,
                    ServeError::UnknownGraph(format!("graph {id:?} is not registered")),
                );
                return;
            }
        };
        let key = self.cache_key(&ticket, epoch, delta_seq);
        if let Some(outcome) = self.cache.get(&key) {
            if let Some(k) = &ticket.spec.idempotency_key {
                self.idem
                    .insert(k.clone(), IdemState::Completed { key: key.clone() });
            }
            self.reply_hit(&ticket, outcome);
            return;
        }
        // Tenant admission: the flooding tenant's excess is shed with
        // `quota_exceeded` *before* it can crowd the shared queue, so
        // everyone else never sees `server_busy` on its account. Scratch
        // is charged up front (4 bytes per vertex — the job's value
        // file) and released when the job resolves.
        let tenant = ticket.spec.tenant.clone();
        let scratch = graph.n_vertices() as u64 * 4;
        let (max_queued, budget) = (
            self.config.tenant_max_queued,
            self.config.tenant_scratch_budget_bytes,
        );
        let t = self.tenant_entry(&tenant);
        if t.queued() >= max_queued {
            let depth = t.queued();
            self.reply_err(
                &ticket,
                ServeError::QuotaExceeded(format!(
                    "tenant {tenant:?} has {depth} jobs queued (cap {max_queued}); retry later"
                )),
            );
            return;
        }
        if t.scratch_bytes.saturating_add(scratch) > budget {
            let used = t.scratch_bytes;
            self.reply_err(
                &ticket,
                ServeError::QuotaExceeded(format!(
                    "tenant {tenant:?} scratch budget exhausted \
                     ({used}+{scratch} of {budget} bytes); retry later"
                )),
            );
            return;
        }
        // Global admission: only genuine whole-server saturation refuses.
        if self.idle.is_empty() && self.queue_depth() >= self.config.queue_capacity {
            let (depth, cap) = (self.queue_depth(), self.config.queue_capacity);
            self.reply_err(
                &ticket,
                ServeError::ServerBusy(format!(
                    "admission queue is full ({depth}/{cap} waiting, all \
                     {} runners busy); retry later",
                    self.runners.len()
                )),
            );
            return;
        }
        ticket.job_id = self.next_job_id;
        self.next_job_id += 1;
        self.jobs_submitted += 1;
        ticket.scratch_bytes = scratch;
        {
            let t = self.tenant_entry(&tenant);
            t.submitted += 1;
            t.scratch_bytes += scratch;
        }
        self.journal_append(&JournalRecord::Submitted {
            job_id: ticket.job_id,
            key: ticket.spec.idempotency_key.clone(),
            graph_id: ticket.spec.graph_id.clone(),
            algorithm: ticket.spec.algorithm,
            priority: ticket.spec.priority,
            tenant: tenant.clone(),
            at_ms: now_ms(),
        });
        if let Some(k) = &ticket.spec.idempotency_key {
            self.idem.insert(
                k.clone(),
                IdemState::InFlight {
                    waiters: Vec::new(),
                },
            );
        }
        self.enqueue_tenant(QueuedJob {
            ticket,
            graph,
            epoch,
            delta_seq,
        });
        self.drain_queue();
    }

    /// Resolve an admitted (journaled) job as failed: journal the terminal
    /// record, fail any parked resubmissions of its key, answer the
    /// submitter.
    fn resolve_failure(&mut self, ticket: &JobTicket, err: ServeError) {
        self.journal_append(&JournalRecord::Failed {
            job_id: ticket.job_id,
            reason: Some(err.code().to_string()),
        });
        if let Some(k) = &ticket.spec.idempotency_key {
            // The key did not complete: forget it so a later resubmission
            // gets a fresh attempt rather than a parked forever-wait.
            if let Some(IdemState::InFlight { waiters }) = self.idem.remove(k) {
                for w in waiters {
                    let _ = w.send((Err(err.clone()), self.stats()));
                }
            }
        }
        self.reply_err(ticket, err);
    }

    fn handle_done(
        &mut self,
        runner: usize,
        ticket: JobTicket,
        epoch: u64,
        delta_seq: u64,
        result: Result<JobOutcome, ServeError>,
    ) {
        self.idle.push(runner);
        self.release_tenant(&ticket, true);
        // A cancelled job's submitter is gone. A failure is resolved as
        // cancelled (nobody hears it either way); a *successful* result
        // is still committed when resubmissions of its idempotency key
        // are parked waiting — the work is done and they want it — and
        // dropped as cancelled otherwise.
        if ticket.cancel.is_cancelled() {
            let has_waiters = ticket.spec.idempotency_key.as_deref().is_some_and(|k| {
                matches!(self.idem.get(k), Some(IdemState::InFlight { waiters }) if !waiters.is_empty())
            });
            if result.is_err() || !has_waiters {
                self.resolve_failure(
                    &ticket,
                    ServeError::Cancelled(format!(
                        "job {} was cancelled while running",
                        ticket.job_id
                    )),
                );
                self.drain_queue();
                return;
            }
        }
        let committed = match result {
            Ok(outcome) => {
                self.journal_append(&JournalRecord::Committed {
                    job_id: ticket.job_id,
                    epoch,
                    delta_seq,
                });
                self.jobs_completed += 1;
                self.tenant_entry(&ticket.spec.tenant).completed += 1;
                let outcome = Arc::new(outcome);
                let key = self.cache_key(&ticket, epoch, delta_seq);
                self.cache.put(key.clone(), outcome.clone());
                let mut waiters = Vec::new();
                if let Some(k) = &ticket.spec.idempotency_key {
                    if let Some(IdemState::InFlight { waiters: w }) = self
                        .idem
                        .insert(k.clone(), IdemState::Completed { key: key.clone() })
                    {
                        waiters = w;
                    }
                }
                let queue_wait = ticket.timer.get("queue_wait").unwrap_or(Duration::ZERO);
                let run_time = ticket.timer.get("run").unwrap_or(Duration::ZERO);
                let stats = self.stats();
                let resp = JobResponse {
                    job_id: ticket.job_id,
                    cache_hit: false,
                    outcome,
                    queue_wait,
                    run_time,
                    stats: stats.clone(),
                };
                for w in waiters {
                    self.idempotent_hits += 1;
                    let _ = w.send((Ok(resp.clone()), stats.clone()));
                }
                let _ = ticket.reply.send((Ok(resp), stats));
                Some(key)
            }
            Err(err) => {
                self.resolve_failure(&ticket, err);
                None
            }
        };
        self.drain_queue();
        // Everyone waiting has the answer and the freed runner has its
        // next job before the entry is rendered to disk. A crash in
        // between loses only the spill file: the journal already says
        // `Committed`, and a committed key whose entry is missing at boot
        // is simply re-run.
        if let Some(key) = committed {
            self.cache.spill(&key);
        }
    }

    /// Apply a delta batch: refuse while the graph is compacting (the
    /// pinned snapshot must stay the epoch's last word), otherwise append
    /// to the delta log (fsync'd), swap the snapshot, and journal the new
    /// version as a watermark.
    fn handle_mutate(
        &mut self,
        graph_id: &str,
        batch: &DeltaBatch,
    ) -> Result<GraphInfo, ServeError> {
        if self.compacting.contains(graph_id) {
            return Err(ServeError::ServerBusy(format!(
                "graph {graph_id:?} is compacting; retry the mutation shortly"
            )));
        }
        let entry = self.registry.mutate(graph_id, batch)?;
        self.journal_append(&JournalRecord::Mutated {
            graph_id: graph_id.to_string(),
            epoch: entry.epoch,
            delta_seq: entry.delta_seq(),
        });
        Ok(graph_info(graph_id, &entry))
    }

    /// Whether `graph_id`'s delta churn (overlay edges added + removed,
    /// relative to the base CSR) has crossed the configured
    /// auto-compaction threshold.
    fn wants_auto_compact(&self, graph_id: &str) -> bool {
        let ratio = self.config.auto_compact_ratio;
        if ratio <= 0.0 || self.compacting.contains(graph_id) {
            return false;
        }
        let Some(entry) = self.registry.get(graph_id) else {
            return false;
        };
        let overlay = entry.snapshot.overlay();
        let churn = (overlay.added_edges() + overlay.removed_edges()) as f64;
        let base = entry.snapshot.base().n_edges().max(1) as f64;
        churn / base >= ratio
    }

    /// Begin a background compaction rewrite for `graph_id`, answering
    /// `reply` when it commits (or fails). Shared by the wire `compact`
    /// op and the auto-compaction trigger (which listens on a dead
    /// reply — the commit lands via `FinishCompact` either way).
    fn start_compact(
        &mut self,
        graph_id: String,
        reply: SyncSender<(Result<GraphInfo, ServeError>, ServerStats)>,
        ctx: &mut Ctx<'_, Self>,
    ) {
        if self.compacting.contains(&graph_id) {
            let err = ServeError::ServerBusy(format!("graph {graph_id:?} is already compacting"));
            let _ = reply.send((Err(err), self.stats()));
            return;
        }
        match self.registry.begin_compact(&graph_id) {
            Ok(ticket) => {
                self.compacting.insert(graph_id);
                // The CSR rewrite is pure I/O over a pinned snapshot:
                // run it off-actor so the scheduler (and every runner)
                // stays responsive, then commit via our own mailbox.
                let addr = ctx.addr();
                std::thread::spawn(move || {
                    let result = ticket
                        .snapshot
                        .compact_to(&ticket.dest)
                        .map_err(|e| ServeError::Engine(format!("compaction failed: {e}")));
                    let _ = addr.send(SchedulerMsg::FinishCompact {
                        ticket,
                        result,
                        reply,
                    });
                });
            }
            Err(e) => {
                let _ = reply.send((Err(e), self.stats()));
            }
        }
    }

    /// Commit (or abandon) a finished background compaction rewrite.
    fn handle_finish_compact(
        &mut self,
        ticket: CompactTicket,
        result: Result<(), ServeError>,
    ) -> Result<GraphInfo, ServeError> {
        self.compacting.remove(&ticket.graph_id);
        if let Err(e) = result {
            // The rewrite itself failed; the registry was never touched.
            // Drop the partial output and keep serving the old epoch.
            let _ = std::fs::remove_file(&ticket.dest);
            return Err(e);
        }
        let entry = self.registry.finish_compact(&ticket)?;
        // The epoch moved: every cached result for this graph is stale.
        self.cache.purge_graph(&ticket.graph_id);
        self.journal_append(&JournalRecord::Mutated {
            graph_id: ticket.graph_id.clone(),
            epoch: entry.epoch,
            delta_seq: entry.delta_seq(),
        });
        Ok(graph_info(&ticket.graph_id, &entry))
    }
}

/// Build the wire-facing row for a registry entry.
fn graph_info(graph_id: &str, entry: &GraphEntry) -> GraphInfo {
    GraphInfo {
        graph_id: graph_id.to_string(),
        epoch: entry.epoch,
        delta_seq: entry.delta_seq(),
        n_vertices: entry.snapshot.n_vertices(),
        n_edges: entry.snapshot.n_edges(),
        bytes: entry.snapshot.file_bytes() as u64,
    }
}

/// What one pass over the recovered journal yields.
struct Analysis {
    /// Highest job id ever journaled (id assignment resumes above it).
    max_job_id: u64,
    /// `Submitted` records of jobs with no terminal record, in journal
    /// order — the replay set.
    incomplete: Vec<JournalRecord>,
    /// `idempotency key → cache key` for committed keyed jobs.
    completed_keys: Vec<(String, CacheKey)>,
    /// Records the compacted journal must retain: the incomplete
    /// submissions plus the `Submitted`/`Committed` pairs of keyed jobs
    /// (they back the idempotency map across further restarts).
    keep: Vec<JournalRecord>,
}

fn analyze(records: &[JournalRecord]) -> Analysis {
    let mut max_job_id = 0;
    let mut submitted: HashMap<u64, &JournalRecord> = HashMap::new();
    // job_id → (epoch, delta_seq)
    let mut committed: HashMap<u64, (u64, u64)> = HashMap::new();
    let mut failed: Vec<u64> = Vec::new();
    let mut order: Vec<u64> = Vec::new();
    for rec in records {
        max_job_id = max_job_id.max(rec.job_id());
        match rec {
            JournalRecord::Submitted { job_id, .. } => {
                if submitted.insert(*job_id, rec).is_none() {
                    order.push(*job_id);
                }
            }
            JournalRecord::Started { .. } => {}
            JournalRecord::Committed {
                job_id,
                epoch,
                delta_seq,
            } => {
                committed.insert(*job_id, (*epoch, *delta_seq));
            }
            JournalRecord::Failed { job_id, .. } => failed.push(*job_id),
            // Mutation watermarks carry no job; the registry's own delta
            // log and manifest are the durable source of graph state.
            JournalRecord::Mutated { .. } => {}
        }
    }
    let mut analysis = Analysis {
        max_job_id,
        incomplete: Vec::new(),
        completed_keys: Vec::new(),
        keep: Vec::new(),
    };
    for job_id in order {
        let rec = submitted[&job_id];
        let JournalRecord::Submitted {
            key,
            graph_id,
            algorithm,
            ..
        } = rec
        else {
            unreachable!("submitted map holds only Submitted records");
        };
        if let Some((epoch, delta_seq)) = committed.get(&job_id) {
            if let Some(k) = key {
                analysis.completed_keys.push((
                    k.clone(),
                    CacheKey {
                        graph_id: graph_id.clone(),
                        algorithm: algorithm.name().to_string(),
                        params: algorithm.canonical_params(),
                        epoch: *epoch,
                        delta_seq: *delta_seq,
                    },
                ));
                analysis.keep.push(rec.clone());
                analysis.keep.push(JournalRecord::Committed {
                    job_id,
                    epoch: *epoch,
                    delta_seq: *delta_seq,
                });
            }
        } else if !failed.contains(&job_id) {
            analysis.incomplete.push(rec.clone());
            analysis.keep.push(rec.clone());
        }
    }
    analysis
}

impl Actor for Scheduler {
    type Msg = SchedulerMsg;

    fn started(&mut self, ctx: &mut Ctx<'_, Self>) {
        for id in 0..self.config.max_concurrent_jobs {
            let runner = Runner {
                id,
                scheduler: ctx.addr(),
                config: self.config.clone(),
            };
            self.runners.push(ctx.system().spawn(runner));
            self.idle.push(id);
        }
        // Replay incomplete journaled jobs, oldest first. They bypass the
        // admission queue's capacity (they were admitted before the crash;
        // refusing them now would break the journal's promise) but share
        // runners fairly with new work via the normal queues.
        for ticket in std::mem::take(&mut self.replay) {
            let (graph, epoch, delta_seq) = match self.registry.get(&ticket.spec.graph_id) {
                Some(entry) => (entry.snapshot.clone(), entry.epoch, entry.delta_seq()),
                None => {
                    // The graph did not survive the restart; the job cannot.
                    self.resolve_failure(
                        &ticket,
                        ServeError::UnknownGraph(format!(
                            "graph {:?} was not restored; job {} cannot replay",
                            ticket.spec.graph_id, ticket.job_id
                        )),
                    );
                    continue;
                }
            };
            self.jobs_replayed += 1;
            self.jobs_submitted += 1;
            self.tenant_entry(&ticket.spec.tenant).submitted += 1;
            self.enqueue_tenant(QueuedJob {
                ticket,
                graph,
                epoch,
                delta_seq,
            });
        }
        self.drain_queue();
    }

    fn handle(&mut self, msg: SchedulerMsg, ctx: &mut Ctx<'_, Self>) {
        match msg {
            SchedulerMsg::Submit(ticket) => self.handle_submit(ticket),
            SchedulerMsg::RegisterGraph {
                graph_id,
                path,
                reply,
            } => {
                let result = self
                    .registry
                    .register(&graph_id, &path)
                    .map(|(entry, bumped)| {
                        if bumped {
                            // Epoch bumped: old cached results can never match
                            // again; reclaim their memory eagerly. (A no-op
                            // re-registration of an unchanged file keeps its
                            // epoch, its overlay, and its cache entries.)
                            self.cache.purge_graph(&graph_id);
                        }
                        graph_info(&graph_id, &entry)
                    });
                let _ = reply.send((result, self.stats()));
            }
            SchedulerMsg::ListGraphs { reply } => {
                let _ = reply.send((self.registry.list(), self.stats()));
            }
            SchedulerMsg::GetStats { reply } => {
                let _ = reply.send(self.stats());
            }
            SchedulerMsg::NoteShed => self.conns_shed += 1,
            SchedulerMsg::CancelSweep => self.cancel_sweep(),
            SchedulerMsg::Mutate {
                graph_id,
                batch,
                reply,
            } => {
                let result = self.handle_mutate(&graph_id, &batch);
                let _ = reply.send((result, self.stats()));
                if self.wants_auto_compact(&graph_id) {
                    self.auto_compactions += 1;
                    // Nobody is waiting on an auto-compaction; the commit
                    // itself arrives through FinishCompact regardless.
                    let dead = sync_channel(1).0;
                    self.start_compact(graph_id, dead, ctx);
                }
            }
            SchedulerMsg::Compact { graph_id, reply } => self.start_compact(graph_id, reply, ctx),
            SchedulerMsg::FinishCompact {
                ticket,
                result,
                reply,
            } => {
                let result = self.handle_finish_compact(ticket, result);
                let _ = reply.send((result, self.stats()));
            }
            SchedulerMsg::Done {
                runner,
                ticket,
                epoch,
                delta_seq,
                result,
            } => self.handle_done(runner, ticket, epoch, delta_seq, result),
        }
    }
}

/// One job execution slot.
pub struct Runner {
    id: usize,
    scheduler: Addr<Scheduler>,
    config: ServeConfig,
}

/// The runner's only message: execute this job and report back.
pub struct RunJob {
    /// The job (ticket travels to the runner and back; the scheduler
    /// sends the reply).
    pub ticket: JobTicket,
    /// Pre-resolved shared snapshot (base CSR ⊕ delta overlay), pinned
    /// at submit: later mutations or compactions of the same graph id
    /// cannot disturb a running job.
    pub graph: Arc<GraphSnapshot>,
    /// Registry epoch pinned at submit.
    pub epoch: u64,
    /// Delta sequence pinned at submit.
    pub delta_seq: u64,
}

impl Runner {
    /// Execute the job body; every early return is an error the scheduler
    /// will relay.
    fn execute(
        &self,
        ticket: &JobTicket,
        graph: &Arc<GraphSnapshot>,
    ) -> Result<JobOutcome, ServeError> {
        let remaining = ticket.remaining();
        if remaining == Some(Duration::ZERO) {
            return Err(ServeError::DeadlineExceeded(format!(
                "job {} deadline ({:?}) expired before the run started",
                ticket.job_id, ticket.spec.deadline
            )));
        }
        // Job-unique scratch dir: concurrent jobs against the same graph
        // each get a private ValueFile (the shared mmap stays read-only).
        let scratch = self.config.job_scratch_dir(ticket.job_id);
        std::fs::create_dir_all(&scratch)
            .map_err(|e| ServeError::Engine(format!("cannot create scratch dir: {e}")))?;
        let value_file = scratch.join("values.gval");

        let mut econf = self.config.engine.clone();
        econf.work_dir = scratch.clone();
        econf.termination = ticket.spec.algorithm.termination();
        econf.resume = false;
        if let Some(rem) = remaining {
            // Per-job deadline reuses the engine's superstep watchdog: if
            // any superstep (or wedged fleet) outlives the remaining
            // budget, the watchdog fires and, with no retries allowed,
            // surfaces RetriesExhausted — which we map back to the job
            // deadline below.
            econf.superstep_deadline = Some(rem.max(MIN_WATCHDOG));
            econf.max_superstep_retries = 0;
        }
        let had_deadline = remaining.is_some();
        let engine = Engine::new(econf);
        let result = run_job(&engine, graph, &value_file, &ticket.spec.algorithm);
        let _ = std::fs::remove_dir_all(&scratch);
        match result {
            Ok(outcome) => {
                if ticket.remaining() == Some(Duration::ZERO) {
                    return Err(ServeError::DeadlineExceeded(format!(
                        "job {} finished after its deadline",
                        ticket.job_id
                    )));
                }
                Ok(outcome)
            }
            Err(EngineError::RetriesExhausted(causes)) if had_deadline => {
                Err(ServeError::DeadlineExceeded(format!(
                    "job {} hit its deadline mid-run: [{}]",
                    ticket.job_id,
                    causes.join("; ")
                )))
            }
            Err(e) => Err(ServeError::Engine(e.to_string())),
        }
    }
}

impl Actor for Runner {
    type Msg = RunJob;

    fn handle(&mut self, msg: RunJob, _ctx: &mut Ctx<'_, Self>) {
        let RunJob {
            mut ticket,
            graph,
            epoch,
            delta_seq,
        } = msg;
        ticket.timer.lap("queue_wait");
        // catch_unwind so Done is sent even if the engine panics: a lost
        // Done would leak this runner's capacity forever.
        let result = catch_unwind(AssertUnwindSafe(|| self.execute(&ticket, &graph)))
            .unwrap_or_else(|p| {
                let what = p
                    .downcast_ref::<&str>()
                    .map(|s| s.to_string())
                    .or_else(|| p.downcast_ref::<String>().cloned())
                    .unwrap_or_else(|| "opaque panic".to_string());
                Err(ServeError::Engine(format!("job runner panicked: {what}")))
            });
        ticket.timer.lap("run");
        let _ = self.scheduler.send(SchedulerMsg::Done {
            runner: self.id,
            ticket,
            epoch,
            delta_seq,
            result,
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::job::AlgorithmSpec;

    fn submitted(job_id: u64, key: Option<&str>) -> JournalRecord {
        JournalRecord::Submitted {
            job_id,
            key: key.map(str::to_string),
            graph_id: "g".to_string(),
            algorithm: AlgorithmSpec::Bfs { root: 0 },
            priority: Priority::Normal,
            tenant: crate::job::DEFAULT_TENANT.to_string(),
            at_ms: 0,
        }
    }

    #[test]
    fn analysis_separates_incomplete_from_terminal() {
        let records = vec![
            submitted(1, None),
            JournalRecord::Started { job_id: 1 },
            JournalRecord::Committed {
                job_id: 1,
                epoch: 1,
                delta_seq: 0,
            },
            submitted(2, Some("k2")),
            JournalRecord::Started { job_id: 2 },
            submitted(3, None),
            JournalRecord::Failed {
                job_id: 3,
                reason: None,
            },
            submitted(4, None),
            JournalRecord::Mutated {
                graph_id: "g".to_string(),
                epoch: 1,
                delta_seq: 3,
            },
        ];
        let a = analyze(&records);
        assert_eq!(a.max_job_id, 4);
        let ids: Vec<u64> = a.incomplete.iter().map(JournalRecord::job_id).collect();
        assert_eq!(ids, vec![2, 4], "started-not-committed and submitted-only");
        assert!(a.completed_keys.is_empty(), "job 1 had no key");
        // keep = the two incomplete submissions, nothing else.
        assert_eq!(a.keep.len(), 2);
    }

    #[test]
    fn analysis_maps_committed_keys_to_cache_keys() {
        let records = vec![
            submitted(1, Some("alpha")),
            JournalRecord::Committed {
                job_id: 1,
                epoch: 7,
                delta_seq: 2,
            },
        ];
        let a = analyze(&records);
        assert!(a.incomplete.is_empty());
        assert_eq!(a.completed_keys.len(), 1);
        let (k, ck) = &a.completed_keys[0];
        assert_eq!(k, "alpha");
        assert_eq!(ck.graph_id, "g");
        assert_eq!(ck.algorithm, "bfs");
        assert_eq!(ck.epoch, 7);
        assert_eq!(ck.delta_seq, 2);
        // The keyed pair is retained by compaction so the idempotency map
        // survives a second restart.
        assert_eq!(a.keep.len(), 2);
    }
}
