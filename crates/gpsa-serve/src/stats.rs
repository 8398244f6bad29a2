//! Server-wide counters, attached to every wire response.
//!
//! A snapshot is taken by the scheduler (which owns all the underlying
//! state, so no locks or atomics are involved) at the moment it writes a
//! reply; clients therefore always see queue/cache/utilization figures
//! consistent with the response they accompany.

use crate::json::Json;

/// One tenant's slice of the scheduler state, exported by the `stats`
/// wire op (and the `gpsa stats` CLI) so operators can see *who* is
/// loading the server, not just that it is loaded.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct TenantStats {
    /// The tenant id.
    pub tenant: String,
    /// Configured DRR weight.
    pub weight: u64,
    /// Jobs waiting in this tenant's queues right now.
    pub queued: u64,
    /// Jobs running on behalf of this tenant right now.
    pub running: u64,
    /// Scratch bytes charged to the tenant (queued + running jobs).
    pub scratch_bytes: u64,
    /// Jobs this tenant ever had admitted.
    pub submitted: u64,
    /// Jobs this tenant had run to completion.
    pub completed: u64,
    /// Submissions refused with `quota_exceeded`.
    pub shed_quota: u64,
    /// Jobs reaped after the submitting client went away.
    pub cancelled: u64,
}

impl TenantStats {
    /// Render one tenant row.
    pub fn to_json(&self) -> Json {
        Json::obj()
            .set("tenant", Json::str(&self.tenant))
            .set("weight", Json::num(self.weight))
            .set("queued", Json::num(self.queued))
            .set("running", Json::num(self.running))
            .set("scratch_bytes", Json::num(self.scratch_bytes))
            .set("submitted", Json::num(self.submitted))
            .set("completed", Json::num(self.completed))
            .set("shed_quota", Json::num(self.shed_quota))
            .set("cancelled", Json::num(self.cancelled))
    }

    /// Parse one tenant row (missing fields read as 0).
    pub fn from_json(j: &Json) -> TenantStats {
        let u = |k: &str| j.get(k).and_then(Json::as_u64).unwrap_or(0);
        TenantStats {
            tenant: j
                .get("tenant")
                .and_then(Json::as_str)
                .unwrap_or("")
                .to_string(),
            weight: u("weight"),
            queued: u("queued"),
            running: u("running"),
            scratch_bytes: u("scratch_bytes"),
            submitted: u("submitted"),
            completed: u("completed"),
            shed_quota: u("shed_quota"),
            cancelled: u("cancelled"),
        }
    }
}

/// One consistent snapshot of the server counters.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ServerStats {
    /// Jobs ever accepted for scheduling (cache hits excluded).
    pub jobs_submitted: u64,
    /// Jobs that ran to completion.
    pub jobs_completed: u64,
    /// Jobs refused by admission control (`server_busy`).
    pub jobs_rejected: u64,
    /// Jobs torn down for missing their deadline (queued or running).
    pub jobs_deadline: u64,
    /// Jobs that failed in the engine.
    pub jobs_failed: u64,
    /// Result-cache hits.
    pub cache_hits: u64,
    /// Result-cache misses.
    pub cache_misses: u64,
    /// Entries currently cached.
    pub cache_len: u64,
    /// Jobs waiting in the admission queue right now.
    pub queue_depth: u64,
    /// Jobs running engine supersteps right now.
    pub running: u64,
    /// The configured concurrency cap.
    pub max_concurrent_jobs: u64,
    /// Graphs resident in the registry.
    pub graphs_resident: u64,
    /// Mapped bytes across resident graphs.
    pub resident_bytes: u64,
    /// Journaled jobs replayed by this process at boot (crash recovery).
    pub jobs_replayed: u64,
    /// Submissions answered by idempotency key (attached to an in-flight
    /// run, or resolved from a committed result without rerunning).
    pub idempotent_hits: u64,
    /// Connections shed for stalling mid-frame past the read deadline.
    pub conns_shed: u64,
    /// Bytes of orphaned job scratch reclaimed by the boot-time sweep.
    pub scratch_reclaimed_bytes: u64,
    /// Submissions refused by a per-tenant quota (`quota_exceeded`).
    pub jobs_quota_shed: u64,
    /// Jobs reaped because their submitter went away (disconnect) or
    /// their idempotency key expired across a restart.
    pub jobs_cancelled: u64,
    /// Compactions the scheduler started on its own authority because a
    /// graph's delta/base edge ratio crossed the configured threshold.
    pub auto_compactions: u64,
    /// Cache entries the server could not write to its spill directory
    /// since boot. Each is still served from memory; it only will not
    /// survive a restart.
    pub cache_spill_failures: u64,
    /// Per-tenant breakdown, sorted by tenant id.
    pub tenants: Vec<TenantStats>,
}

impl ServerStats {
    /// Cache hit rate over the lifetime of the server, 0.0 if untouched.
    pub fn cache_hit_rate(&self) -> f64 {
        let total = self.cache_hits + self.cache_misses;
        if total == 0 {
            0.0
        } else {
            self.cache_hits as f64 / total as f64
        }
    }

    /// Render as the protocol's `"stats"` object.
    pub fn to_json(&self) -> Json {
        let j = Json::obj()
            .set("jobs_submitted", Json::num(self.jobs_submitted))
            .set("jobs_completed", Json::num(self.jobs_completed))
            .set("jobs_rejected", Json::num(self.jobs_rejected))
            .set("jobs_deadline", Json::num(self.jobs_deadline))
            .set("jobs_failed", Json::num(self.jobs_failed))
            .set("cache_hits", Json::num(self.cache_hits))
            .set("cache_misses", Json::num(self.cache_misses))
            .set("cache_len", Json::num(self.cache_len))
            .set("queue_depth", Json::num(self.queue_depth))
            .set("running", Json::num(self.running))
            .set("max_concurrent_jobs", Json::num(self.max_concurrent_jobs))
            .set("graphs_resident", Json::num(self.graphs_resident))
            .set("resident_bytes", Json::num(self.resident_bytes))
            .set("jobs_replayed", Json::num(self.jobs_replayed))
            .set("idempotent_hits", Json::num(self.idempotent_hits))
            .set("conns_shed", Json::num(self.conns_shed))
            .set(
                "scratch_reclaimed_bytes",
                Json::num(self.scratch_reclaimed_bytes),
            )
            .set("jobs_quota_shed", Json::num(self.jobs_quota_shed))
            .set("jobs_cancelled", Json::num(self.jobs_cancelled))
            .set("auto_compactions", Json::num(self.auto_compactions))
            .set(
                "tenants",
                Json::Arr(self.tenants.iter().map(TenantStats::to_json).collect()),
            );
        // Written only when non-zero: a healthy server's frames stay
        // byte-for-byte what they were before the counter existed, and
        // `from_json` reads an absent counter as 0.
        if self.cache_spill_failures > 0 {
            j.set("cache_spill_failures", Json::num(self.cache_spill_failures))
        } else {
            j
        }
    }

    /// Parse a `"stats"` object (the client-side inverse of
    /// [`ServerStats::to_json`]). Missing fields read as 0.
    pub fn from_json(j: &Json) -> ServerStats {
        let u = |k: &str| j.get(k).and_then(Json::as_u64).unwrap_or(0);
        ServerStats {
            jobs_submitted: u("jobs_submitted"),
            jobs_completed: u("jobs_completed"),
            jobs_rejected: u("jobs_rejected"),
            jobs_deadline: u("jobs_deadline"),
            jobs_failed: u("jobs_failed"),
            cache_hits: u("cache_hits"),
            cache_misses: u("cache_misses"),
            cache_len: u("cache_len"),
            queue_depth: u("queue_depth"),
            running: u("running"),
            max_concurrent_jobs: u("max_concurrent_jobs"),
            graphs_resident: u("graphs_resident"),
            resident_bytes: u("resident_bytes"),
            jobs_replayed: u("jobs_replayed"),
            idempotent_hits: u("idempotent_hits"),
            conns_shed: u("conns_shed"),
            scratch_reclaimed_bytes: u("scratch_reclaimed_bytes"),
            jobs_quota_shed: u("jobs_quota_shed"),
            jobs_cancelled: u("jobs_cancelled"),
            auto_compactions: u("auto_compactions"),
            cache_spill_failures: u("cache_spill_failures"),
            tenants: j
                .get("tenants")
                .and_then(Json::as_arr)
                .map(|rows| rows.iter().map(TenantStats::from_json).collect())
                .unwrap_or_default(),
        }
    }

    /// The row for `tenant`, if the snapshot carries one.
    pub fn tenant(&self, tenant: &str) -> Option<&TenantStats> {
        self.tenants.iter().find(|t| t.tenant == tenant)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_roundtrip() {
        let s = ServerStats {
            jobs_submitted: 9,
            jobs_completed: 7,
            jobs_rejected: 1,
            jobs_deadline: 1,
            jobs_failed: 0,
            cache_hits: 3,
            cache_misses: 6,
            cache_len: 4,
            queue_depth: 2,
            running: 2,
            max_concurrent_jobs: 2,
            graphs_resident: 1,
            resident_bytes: 1 << 20,
            jobs_replayed: 2,
            idempotent_hits: 1,
            conns_shed: 1,
            scratch_reclaimed_bytes: 4096,
            jobs_quota_shed: 3,
            jobs_cancelled: 2,
            auto_compactions: 1,
            cache_spill_failures: 2,
            tenants: vec![
                TenantStats {
                    tenant: "alpha".to_string(),
                    weight: 4,
                    queued: 2,
                    running: 1,
                    scratch_bytes: 1024,
                    submitted: 6,
                    completed: 3,
                    shed_quota: 3,
                    cancelled: 1,
                },
                TenantStats {
                    tenant: "beta".to_string(),
                    weight: 1,
                    ..TenantStats::default()
                },
            ],
        };
        assert_eq!(ServerStats::from_json(&s.to_json()), s);
        assert!(ServerStats::default()
            .to_json()
            .get("cache_spill_failures")
            .is_none());
        assert!((s.cache_hit_rate() - 3.0 / 9.0).abs() < 1e-12);
        assert_eq!(ServerStats::default().cache_hit_rate(), 0.0);
        assert_eq!(s.tenant("alpha").unwrap().queued, 2);
        assert!(s.tenant("gamma").is_none());
    }
}
