//! A blocking wire-protocol client.
//!
//! One [`Client`] owns one TCP connection and issues one request at a
//! time (the protocol is strictly request/response per connection). For
//! concurrent load, open one client per thread — the replay driver and
//! the integration tests do exactly that.
//!
//! ## Retries
//!
//! A [`RetryPolicy`] makes the client survive transient trouble: a
//! `server_busy` admission rejection, a `slow_client` shed, a refused or
//! reset connection, a server that died mid-response. Eligible failures
//! (see [`ClientError::retriable`]) are retried with bounded exponential
//! backoff plus jitter, reconnecting first when the transport broke.
//! Retries are **off by default** on [`Client::connect`] — admission
//! control is a feature, and callers probing it (or tests asserting on
//! `server_busy`) must see the first answer — and opt in via
//! [`Client::with_retry_policy`] or [`Client::connect_with`].
//!
//! Retrying a submit is safe even when the failure struck *after* the
//! server started the job: pass an idempotency key
//! ([`SubmitRequest::with_idempotency_key`]) and the resubmission either
//! attaches to the still-running job or is answered from its committed
//! result — never a duplicate run.
//!
//! When the server sheds a request it may attach a `retry_after_ms`
//! hint sized to its current queue depth; the retry loop honors it,
//! preferring the hint (jittered, capped at `max_delay`) over the
//! exponential curve for that attempt.
//!
//! ## Streaming
//!
//! [`SubmitRequest::with_stream`] asks the server to deliver the result
//! as chunked frames (start / chunk... / end) instead of one monolithic
//! reply. The client reads each chunk under a frame cap sized to the
//! negotiated chunk length, verifies its offset and CRC, and reassembles
//! the value array — so neither side ever buffers the whole result as
//! JSON text at once.

use std::io;
use std::net::{SocketAddr, TcpStream, ToSocketAddrs};
use std::sync::Arc;
use std::time::{Duration, SystemTime, UNIX_EPOCH};

use crate::error::ServeError;
use crate::job::{AlgorithmSpec, JobOutcome, JobResponse, Priority, ValueType};
use crate::json::Json;
use crate::registry::GraphInfo;
use crate::stats::ServerStats;
use crate::wire::{chunk_crc, read_frame, read_frame_with_cap, set_low_latency, write_frame};

/// How a client retries transient failures.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Retries after the first attempt (0 = one attempt, no retries).
    pub max_retries: u32,
    /// Backoff before retry `n` is `base_delay * 2^n`, capped at
    /// `max_delay`.
    pub base_delay: Duration,
    /// Ceiling for the exponential backoff.
    pub max_delay: Duration,
    /// Scale each backoff by a random factor in `[0.5, 1.5)` so a burst
    /// of rejected clients doesn't re-arrive in lockstep.
    pub jitter: bool,
}

impl RetryPolicy {
    /// Four retries, 25 ms base, 2 s cap, jitter on: rides out an
    /// admission-control burst or a server restart measured in seconds.
    pub fn default_enabled() -> Self {
        RetryPolicy {
            max_retries: 4,
            base_delay: Duration::from_millis(25),
            max_delay: Duration::from_secs(2),
            jitter: true,
        }
    }

    /// No retries at all: every failure surfaces immediately.
    pub fn disabled() -> Self {
        RetryPolicy {
            max_retries: 0,
            base_delay: Duration::ZERO,
            max_delay: Duration::ZERO,
            jitter: false,
        }
    }

    /// The backoff before retry `attempt` (0-based), jittered by `rng`.
    fn backoff(&self, attempt: u32, rng: &mut u64) -> Duration {
        let exp = self
            .base_delay
            .saturating_mul(1u32 << attempt.min(16))
            .min(self.max_delay);
        if !self.jitter {
            return exp;
        }
        // Factor in [0.5, 1.5): full-jitter style, centered on the curve.
        let factor = 0.5 + (splitmix64(rng) >> 11) as f64 / (1u64 << 53) as f64;
        exp.mul_f64(factor)
    }
}

/// A connected client.
pub struct Client {
    stream: TcpStream,
    /// Resolved address, kept for reconnects.
    addr: SocketAddr,
    policy: RetryPolicy,
    /// splitmix64 state for backoff jitter.
    rng: u64,
    /// `retry_after_ms` hint from the most recent error frame, consumed
    /// by the next backoff decision.
    retry_after: Option<Duration>,
}

/// A submission, client-side.
#[derive(Debug, Clone)]
pub struct SubmitRequest {
    /// Which resident graph to run against.
    pub graph_id: String,
    /// What to run.
    pub algorithm: AlgorithmSpec,
    /// Queue class.
    pub priority: Priority,
    /// Wall-clock budget, if any.
    pub deadline: Option<Duration>,
    /// Idempotency key: resubmitting the same key never runs the job
    /// twice, even across a server crash and restart.
    pub idempotency_key: Option<String>,
    /// Tenant to bill this job to; `None` lets the server assign its
    /// per-connection default.
    pub tenant: Option<String>,
    /// Ask for the result as chunked stream frames instead of one
    /// monolithic reply.
    pub stream: bool,
}

impl SubmitRequest {
    /// A normal-priority, no-deadline submission.
    pub fn new(graph_id: impl Into<String>, algorithm: AlgorithmSpec) -> Self {
        SubmitRequest {
            graph_id: graph_id.into(),
            algorithm,
            priority: Priority::Normal,
            deadline: None,
            idempotency_key: None,
            tenant: None,
            stream: false,
        }
    }

    /// Builder-style: set the queue class.
    pub fn with_priority(mut self, p: Priority) -> Self {
        self.priority = p;
        self
    }

    /// Builder-style: set the deadline.
    pub fn with_deadline(mut self, d: Duration) -> Self {
        self.deadline = Some(d);
        self
    }

    /// Builder-style: set the idempotency key.
    pub fn with_idempotency_key(mut self, key: impl Into<String>) -> Self {
        self.idempotency_key = Some(key.into());
        self
    }

    /// Builder-style: bill the job to a named tenant.
    pub fn with_tenant(mut self, tenant: impl Into<String>) -> Self {
        self.tenant = Some(tenant.into());
        self
    }

    /// Builder-style: request chunked streaming delivery of the result.
    pub fn with_stream(mut self) -> Self {
        self.stream = true;
        self
    }
}

/// Client-side failure: transport errors and server-reported errors are
/// distinct — a `server_busy` rejection is not a broken connection.
#[derive(Debug)]
pub enum ClientError {
    /// The connection failed (refused, reset, bad frame...).
    Io(io::Error),
    /// The server answered with a typed error.
    Server(ServeError),
}

impl ClientError {
    /// Whether a retry may succeed: transient server errors
    /// ([`ServeError::retriable`]) and connection-level transport
    /// failures (refused / reset / timed out / server died mid-response)
    /// qualify; malformed frames and permanent server errors do not.
    pub fn retriable(&self) -> bool {
        match self {
            ClientError::Server(e) => e.retriable(),
            ClientError::Io(e) => matches!(
                e.kind(),
                io::ErrorKind::ConnectionRefused
                    | io::ErrorKind::ConnectionReset
                    | io::ErrorKind::ConnectionAborted
                    | io::ErrorKind::BrokenPipe
                    | io::ErrorKind::TimedOut
                    | io::ErrorKind::WouldBlock
                    | io::ErrorKind::UnexpectedEof
            ),
        }
    }

    /// Whether the connection itself is unusable (vs a clean error frame
    /// over a healthy connection).
    fn is_transport(&self) -> bool {
        matches!(self, ClientError::Io(_))
    }
}

impl std::fmt::Display for ClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClientError::Io(e) => write!(f, "transport error: {e}"),
            ClientError::Server(e) => write!(f, "server error: {e}"),
        }
    }
}

impl std::error::Error for ClientError {}

impl From<io::Error> for ClientError {
    fn from(e: io::Error) -> Self {
        ClientError::Io(e)
    }
}

fn resolve<A: ToSocketAddrs>(addr: A) -> io::Result<SocketAddr> {
    addr.to_socket_addrs()?
        .next()
        .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidInput, "address resolved to nothing"))
}

pub(crate) fn open_stream(addr: SocketAddr) -> io::Result<TcpStream> {
    let stream = TcpStream::connect(addr)?;
    set_low_latency(&stream)?;
    Ok(stream)
}

impl Client {
    /// Connect to a server, with retries **disabled** (see the module
    /// docs for why that is the default).
    pub fn connect<A: ToSocketAddrs>(addr: A) -> io::Result<Client> {
        Client::connect_with(addr, RetryPolicy::disabled())
    }

    /// Connect with a retry policy; the initial connection itself is
    /// retried under the same policy (a restarting server refuses
    /// connections for a moment).
    pub fn connect_with<A: ToSocketAddrs>(addr: A, policy: RetryPolicy) -> io::Result<Client> {
        let addr = resolve(addr)?;
        let mut rng = jitter_seed(addr);
        let mut attempt = 0;
        let stream = loop {
            match open_stream(addr) {
                Ok(s) => break s,
                Err(e) => {
                    if attempt >= policy.max_retries
                        || !ClientError::Io(io::Error::new(e.kind(), "")).retriable()
                    {
                        return Err(e);
                    }
                    std::thread::sleep(policy.backoff(attempt, &mut rng));
                    attempt += 1;
                }
            }
        };
        Ok(Client {
            stream,
            addr,
            policy,
            rng,
            retry_after: None,
        })
    }

    /// Builder-style: replace the retry policy on an existing client.
    pub fn with_retry_policy(mut self, policy: RetryPolicy) -> Self {
        self.policy = policy;
        self
    }

    /// Turn an error frame into a typed [`ClientError`], capturing any
    /// `retry_after_ms` shed hint for the next backoff decision.
    fn server_error(&mut self, resp: &Json) -> ClientError {
        self.retry_after = resp
            .get("retry_after_ms")
            .and_then(Json::as_u64)
            .map(Duration::from_millis);
        let code = resp
            .get("code")
            .and_then(Json::as_str)
            .unwrap_or("engine_error");
        let message = resp
            .get("message")
            .and_then(Json::as_str)
            .unwrap_or("no message")
            .to_string();
        ClientError::Server(ServeError::from_code(code, message))
    }

    /// One raw request/response round trip on the current stream.
    fn call_once(&mut self, req: &Json) -> Result<Json, ClientError> {
        self.retry_after = None;
        write_frame(&mut self.stream, req)?;
        let resp = read_frame(&mut self.stream)?.ok_or_else(|| {
            ClientError::Io(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "server closed before answering",
            ))
        })?;
        if resp.get("ok").and_then(Json::as_bool) == Some(true) {
            Ok(resp)
        } else {
            Err(self.server_error(&resp))
        }
    }

    /// Decide whether to retry after `err` on 0-based `attempt`: give up
    /// past the budget or on permanent errors, otherwise sleep out the
    /// backoff — the server's `retry_after_ms` hint when one arrived
    /// (jittered, capped at `max_delay`), else the exponential curve —
    /// and reconnect if the transport broke.
    fn prepare_retry(&mut self, attempt: u32, err: ClientError) -> Result<(), ClientError> {
        if attempt >= self.policy.max_retries || !err.retriable() {
            return Err(err);
        }
        let delay = match self.retry_after.take() {
            Some(hint) => {
                let hint = hint.min(self.policy.max_delay);
                if self.policy.jitter {
                    let factor =
                        0.5 + (splitmix64(&mut self.rng) >> 11) as f64 / (1u64 << 53) as f64;
                    hint.mul_f64(factor)
                } else {
                    hint
                }
            }
            None => self.policy.backoff(attempt, &mut self.rng),
        };
        std::thread::sleep(delay);
        if err.is_transport() {
            // The old stream is poisoned (mid-frame state unknown);
            // a fresh connection is the only way to resynchronize.
            match open_stream(self.addr) {
                Ok(s) => self.stream = s,
                Err(e) => {
                    if attempt + 1 >= self.policy.max_retries {
                        return Err(e.into());
                    }
                }
            }
        }
        Ok(())
    }

    /// A round trip under the retry policy: retriable failures back off
    /// (server hint or exponential + jitter), reconnect if the transport
    /// broke, and try again up to `max_retries` times.
    fn call(&mut self, req: &Json) -> Result<Json, ClientError> {
        let mut attempt = 0;
        loop {
            let err = match self.call_once(req) {
                Ok(resp) => return Ok(resp),
                Err(e) => e,
            };
            self.prepare_retry(attempt, err)?;
            attempt += 1;
        }
    }

    /// Liveness check.
    pub fn ping(&mut self) -> Result<(), ClientError> {
        self.call(&Json::obj().set("op", Json::str("ping")))
            .map(|_| ())
    }

    /// Open the CSR at `path` (a path on the **server's** filesystem) and
    /// make it resident as `graph_id`. Returns the graph's registry row,
    /// including the epoch this registration produced.
    pub fn register_graph(&mut self, graph_id: &str, path: &str) -> Result<GraphInfo, ClientError> {
        let req = Json::obj()
            .set("op", Json::str("register_graph"))
            .set("graph_id", Json::str(graph_id))
            .set("path", Json::str(path));
        let resp = self.call(&req)?;
        Ok(graph_info_from(&resp, graph_id))
    }

    /// Append edges to a resident graph's delta overlay. Durable before
    /// the reply: the batch is fsync'd to the graph's delta log server
    /// side. Returns the new registry row (same epoch, `delta_seq + 1`).
    pub fn add_edges(
        &mut self,
        graph_id: &str,
        edges: &[(u32, u32)],
    ) -> Result<GraphInfo, ClientError> {
        self.mutate(graph_id, edges, "add_edges")
    }

    /// Remove edges from a resident graph (tombstones in the overlay;
    /// removing an absent edge is a no-op). Same durability contract as
    /// [`Client::add_edges`].
    pub fn remove_edges(
        &mut self,
        graph_id: &str,
        edges: &[(u32, u32)],
    ) -> Result<GraphInfo, ClientError> {
        self.mutate(graph_id, edges, "remove_edges")
    }

    fn mutate(
        &mut self,
        graph_id: &str,
        edges: &[(u32, u32)],
        op: &str,
    ) -> Result<GraphInfo, ClientError> {
        let req = Json::obj()
            .set("op", Json::str(op))
            .set("graph_id", Json::str(graph_id))
            .set(
                "edges",
                Json::Arr(
                    edges
                        .iter()
                        .map(|(u, v)| Json::str(format!("{u}:{v}")))
                        .collect(),
                ),
            );
        let resp = self.call(&req)?;
        Ok(graph_info_from(&resp, graph_id))
    }

    /// Fold the graph's delta overlay into a fresh CSR. Blocks until the
    /// new epoch commits; the reply row has the bumped epoch and
    /// `delta_seq` 0.
    pub fn compact(&mut self, graph_id: &str) -> Result<GraphInfo, ClientError> {
        let req = Json::obj()
            .set("op", Json::str("compact"))
            .set("graph_id", Json::str(graph_id));
        let resp = self.call(&req)?;
        Ok(graph_info_from(&resp, graph_id))
    }

    /// Submit a job and block until the server answers (completion,
    /// cache hit, or typed rejection). With a retry policy, transient
    /// failures are retried — pair with an idempotency key if the job
    /// must not run twice.
    pub fn submit(&mut self, req: &SubmitRequest) -> Result<JobResponse, ClientError> {
        let mut j = Json::obj()
            .set("op", Json::str("submit"))
            .set("graph_id", Json::str(&req.graph_id))
            .set("algorithm", Json::str(req.algorithm.name()))
            .set("params", req.algorithm.params_json())
            .set("priority", Json::str(req.priority.as_str()));
        if let Some(d) = req.deadline {
            j = j.set("deadline_ms", Json::num(d.as_millis() as u64));
        }
        if let Some(k) = &req.idempotency_key {
            j = j.set("idempotency_key", Json::str(k));
        }
        if let Some(t) = &req.tenant {
            j = j.set("tenant_id", Json::str(t));
        }
        if req.stream {
            j = j.set("stream", Json::Bool(true));
            return self.call_streaming(&j);
        }
        let resp = self.call(&j)?;
        JobResponse::from_json(&resp).map_err(ClientError::Server)
    }

    /// One streamed submit on the current stream: head frame, then chunk
    /// frames verified (offset + CRC) and reassembled, then the end
    /// summary. Each frame is read under a cap sized to the negotiated
    /// chunk length, so a result larger than memory never materializes
    /// as one JSON body.
    fn stream_once(&mut self, req: &Json) -> Result<JobResponse, ClientError> {
        self.retry_after = None;
        write_frame(&mut self.stream, req)?;
        let head = read_frame(&mut self.stream)?.ok_or_else(|| {
            ClientError::Io(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "server closed before answering",
            ))
        })?;
        if head.get("ok").and_then(Json::as_bool) != Some(true) {
            return Err(self.server_error(&head));
        }
        if head.get("stream").and_then(Json::as_str) != Some("start") {
            // A server that doesn't stream (or answered from a path that
            // never streams) replies with the monolithic frame; accept it.
            return JobResponse::from_json(&head).map_err(ClientError::Server);
        }
        let bad = |msg: String| ClientError::Io(io::Error::new(io::ErrorKind::InvalidData, msg));
        let job_id = head.get("job_id").and_then(Json::as_u64).unwrap_or(0);
        let cache_hit = head
            .get("cache_hit")
            .and_then(Json::as_bool)
            .unwrap_or(false);
        let value_type = head
            .get("value_type")
            .and_then(Json::as_str)
            .and_then(ValueType::parse)
            .ok_or_else(|| bad("stream start frame lacks a value_type".into()))?;
        let n_values = head.get("n_values").and_then(Json::as_u64).unwrap_or(0) as usize;
        let chunk_values = head
            .get("chunk_values")
            .and_then(Json::as_u64)
            .unwrap_or(0)
            .max(1) as usize;
        // A chunk frame is at most chunk_values numbers of <= 10 digits
        // plus commas and envelope; this cap bounds client memory per
        // frame regardless of n_values.
        let frame_cap = chunk_values * 12 + (64 << 10);
        let mut values: Vec<u32> = Vec::with_capacity(n_values.min(1 << 24));
        let mut chunks_seen = 0u64;
        loop {
            let frame = read_frame_with_cap(&mut self.stream, frame_cap)?.ok_or_else(|| {
                ClientError::Io(io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    "server closed mid-stream",
                ))
            })?;
            if frame.get("ok").and_then(Json::as_bool) != Some(true) {
                return Err(self.server_error(&frame));
            }
            match frame.get("stream").and_then(Json::as_str) {
                Some("chunk") => {
                    let offset = frame.get("offset").and_then(Json::as_u64).unwrap_or(0) as usize;
                    if offset != values.len() {
                        return Err(bad(format!(
                            "stream chunk at offset {offset}, expected {}",
                            values.len()
                        )));
                    }
                    let Some(chunk) = frame.get("values_u32").and_then(Json::to_u32s) else {
                        return Err(bad(format!("stream chunk {chunks_seen} has no u32 values")));
                    };
                    let crc = frame.get("crc").and_then(Json::as_u64).unwrap_or(0) as u32;
                    if chunk_crc(&chunk) != crc {
                        return Err(bad(format!("stream chunk {chunks_seen} failed its CRC")));
                    }
                    values.extend_from_slice(&chunk);
                    chunks_seen += 1;
                }
                Some("end") => {
                    let n_chunks = frame.get("n_chunks").and_then(Json::as_u64).unwrap_or(0);
                    if n_chunks != chunks_seen || values.len() != n_values {
                        return Err(bad(format!(
                            "stream ended after {chunks_seen} chunks / {} values, \
                             announced {n_chunks} / {n_values}",
                            values.len()
                        )));
                    }
                    // Streamed replies trade timing detail for bounded
                    // memory; the final frame carries counters only.
                    let outcome = JobOutcome::from_counters(&frame, value_type, Arc::new(values));
                    let (queue_wait, run_time, stats) = JobResponse::trailer_from_json(&frame);
                    return Ok(JobResponse {
                        job_id,
                        cache_hit,
                        outcome: Arc::new(outcome),
                        queue_wait,
                        run_time,
                        stats,
                    });
                }
                other => {
                    return Err(bad(format!(
                        "unexpected stream frame kind {other:?} after {chunks_seen} chunks"
                    )));
                }
            }
        }
    }

    /// A streamed submit under the retry policy — the same loop as
    /// [`Client::call`], around [`Client::stream_once`]. A stream that
    /// dies mid-way is a transport error, so the retry reconnects and
    /// resubmits from scratch (idempotency keys make that safe).
    fn call_streaming(&mut self, req: &Json) -> Result<JobResponse, ClientError> {
        let mut attempt = 0;
        loop {
            let err = match self.stream_once(req) {
                Ok(resp) => return Ok(resp),
                Err(e) => e,
            };
            self.prepare_retry(attempt, err)?;
            attempt += 1;
        }
    }

    /// Snapshot the server counters.
    pub fn stats(&mut self) -> Result<ServerStats, ClientError> {
        let resp = self.call(&Json::obj().set("op", Json::str("stats")))?;
        Ok(resp
            .get("stats")
            .map(ServerStats::from_json)
            .unwrap_or_default())
    }

    /// List resident graphs.
    pub fn list_graphs(&mut self) -> Result<Vec<GraphInfo>, ClientError> {
        let resp = self.call(&Json::obj().set("op", Json::str("list_graphs")))?;
        let rows = resp.get("graphs").and_then(Json::as_arr).unwrap_or(&[]);
        Ok(rows.iter().map(|r| graph_info_from(r, "")).collect())
    }

    /// Ask the server to stop accepting connections.
    pub fn shutdown_server(&mut self) -> Result<(), ClientError> {
        self.call(&Json::obj().set("op", Json::str("shutdown")))
            .map(|_| ())
    }
}

/// Decode a graph-info row (or a flattened graph-info response frame);
/// `fallback_id` covers servers that omit `graph_id` in direct replies.
fn graph_info_from(j: &Json, fallback_id: &str) -> GraphInfo {
    let u = |k: &str| j.get(k).and_then(Json::as_u64).unwrap_or(0);
    GraphInfo {
        graph_id: j
            .get("graph_id")
            .and_then(Json::as_str)
            .unwrap_or(fallback_id)
            .to_string(),
        epoch: u("epoch"),
        delta_seq: u("delta_seq"),
        n_vertices: u("n_vertices") as usize,
        n_edges: u("n_edges") as usize,
        bytes: u("bytes"),
    }
}

/// One step of splitmix64 — same generator as `gpsa::fault`, copied here
/// because that module only exists under the `chaos` feature and retry
/// jitter must work in every build.
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Seed backoff jitter from wall-clock nanos and the target address, so
/// concurrent clients desynchronize without any shared state.
fn jitter_seed(addr: SocketAddr) -> u64 {
    let nanos = SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .map(|d| d.subsec_nanos() as u64 ^ d.as_secs())
        .unwrap_or(0x5eed);
    nanos ^ ((addr.port() as u64) << 32)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backoff_grows_exponentially_and_caps() {
        let p = RetryPolicy {
            max_retries: 10,
            base_delay: Duration::from_millis(10),
            max_delay: Duration::from_millis(100),
            jitter: false,
        };
        let mut rng = 1;
        assert_eq!(p.backoff(0, &mut rng), Duration::from_millis(10));
        assert_eq!(p.backoff(1, &mut rng), Duration::from_millis(20));
        assert_eq!(p.backoff(2, &mut rng), Duration::from_millis(40));
        assert_eq!(p.backoff(3, &mut rng), Duration::from_millis(80));
        assert_eq!(p.backoff(4, &mut rng), Duration::from_millis(100), "capped");
        assert_eq!(p.backoff(9, &mut rng), Duration::from_millis(100));
    }

    #[test]
    fn jitter_stays_within_half_to_one_and_a_half() {
        let p = RetryPolicy {
            jitter: true,
            ..RetryPolicy::default_enabled()
        };
        let mut rng = 42;
        for attempt in 0..8 {
            let exp = p
                .base_delay
                .saturating_mul(1u32 << attempt)
                .min(p.max_delay);
            let d = p.backoff(attempt, &mut rng);
            assert!(
                d >= exp.mul_f64(0.5) && d < exp.mul_f64(1.5),
                "{d:?} vs {exp:?}"
            );
        }
    }

    #[test]
    fn retriable_classification() {
        let refused = ClientError::Io(io::Error::new(io::ErrorKind::ConnectionRefused, "x"));
        let eof = ClientError::Io(io::Error::new(io::ErrorKind::UnexpectedEof, "x"));
        let bad = ClientError::Io(io::Error::new(io::ErrorKind::InvalidData, "x"));
        assert!(refused.retriable());
        assert!(eof.retriable());
        assert!(!bad.retriable(), "a malformed frame won't improve");
        assert!(ClientError::Server(ServeError::ServerBusy("q".into())).retriable());
        assert!(ClientError::Server(ServeError::SlowClient("s".into())).retriable());
        assert!(!ClientError::Server(ServeError::BadRequest("b".into())).retriable());
    }

    #[test]
    fn disabled_policy_never_sleeps() {
        let p = RetryPolicy::disabled();
        assert_eq!(p.max_retries, 0);
        let mut rng = 7;
        assert_eq!(p.backoff(0, &mut rng), Duration::ZERO);
    }
}
