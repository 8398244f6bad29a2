//! The TCP server: accept loop, per-connection threads, and the wire
//! protocol dispatch.
//!
//! Connection threads do no scheduling themselves — every request is a
//! message to the [`Scheduler`] actor and a blocking wait on a one-shot
//! reply channel, so all policy lives in one place and the protocol layer
//! stays a thin translation between frames and messages.
//!
//! ## Protocol
//!
//! One request frame in, one response frame out, repeated per connection
//! (frames are length-prefixed JSON, see [`crate::wire`]). Requests carry
//! an `"op"` field:
//!
//! | op               | request fields                                             |
//! |------------------|------------------------------------------------------------|
//! | `ping`           | —                                                          |
//! | `register_graph` | `graph_id`, `path`                                         |
//! | `list_graphs`    | —                                                          |
//! | `stats`          | —                                                          |
//! | `submit`         | `graph_id`, `algorithm`, `params`, `priority?`, `deadline_ms?`, `idempotency_key?`, `tenant_id?`, `stream?` |
//! | `add_edges`      | `graph_id`, `edges` (array of `"src:dst"` strings)         |
//! | `remove_edges`   | `graph_id`, `edges` (array of `"src:dst"` strings)         |
//! | `compact`        | `graph_id` (answers once the new epoch commits)            |
//! | `shutdown`       | —                                                          |
//!
//! Every response has `"ok"` and (except `ping`) a `"stats"` counter
//! object; failures carry the stable `"code"` / `"message"` pair from
//! [`ServeError`] plus a `"retriable"` flag for transient failures.
//! Retriable failures additionally carry `"retry_after_ms"`, a back-off
//! hint scaled to the server's current backlog.
//!
//! ## Tenancy and cancellation
//!
//! A submit's `tenant_id` names the tenant it bills against; absent one,
//! the connection's peer address is the tenant, so an anonymous flood
//! from one connection cannot crowd out another. While a submit waits
//! for its result the connection thread polls the socket; a client that
//! disconnects trips the job's [`CancelToken`] and the scheduler reaps
//! the job instead of finishing work nobody will read.
//!
//! ## Streaming results
//!
//! `submit` with `"stream": true` answers with a frame *sequence*
//! instead of one monolithic result frame: a `{"stream":"start"}` header
//! (value type, total count, chunk size), then fixed-size value chunks
//! each carrying a CRC32 over its values' little-endian bytes, then a
//! `{"stream":"end"}` trailer with the run summary and stats. Peak
//! per-frame memory on both sides is bounded by the chunk size however
//! large the graph is; the client re-checks every CRC and the final
//! count, so a torn stream can't silently truncate a result.
//!
//! ## Socket hygiene
//!
//! Accepted sockets get the same options the client sets on its end
//! ([`crate::wire::set_low_latency`]), and every frame is one write.
//!
//! A connection may idle between frames forever, but once a request frame
//! *starts* arriving it must finish within
//! [`ServeConfig::frame_read_timeout`]: the first length byte is read
//! with no deadline, the rest of the frame under one. A peer that stalls
//! mid-frame is **shed** — best-effort `slow_client` error frame, then
//! close — so a hostile or wedged client pins a connection thread for a
//! bounded time only, and other clients keep being served. Response
//! writes are bounded by [`ServeConfig::write_timeout`] at the OS level.

use std::io::{self, Read};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{sync_channel, Receiver, RecvTimeoutError};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use actor::{Addr, System};
use gpsa_graph::{DeltaBatch, Edge};
use gpsa_metrics::timer::Timer;

use crate::config::ServeConfig;
use crate::error::ServeError;
use crate::job::{AlgorithmSpec, CancelToken, JobResponse, JobSpec, JobTicket, Priority};
use crate::json::Json;
use crate::registry::GraphInfo;
use crate::scheduler::{Scheduler, SchedulerMsg};
use crate::stats::ServerStats;
use crate::wire::{chunk_crc, read_frame_resumed, set_low_latency, write_frame};

/// How often a connection thread blocked on a job reply checks whether
/// its client is still there.
const DISCONNECT_POLL: Duration = Duration::from_millis(50);

/// A running server. Dropping the handle shuts the server down.
pub struct ServerHandle {
    addr: SocketAddr,
    scheduler: Addr<Scheduler>,
    system: System,
    shutdown: Arc<AtomicBool>,
    accept_thread: Option<JoinHandle<()>>,
}

/// Shared state handed to every connection thread.
#[derive(Clone)]
struct Shared {
    scheduler: Addr<Scheduler>,
    config: ServeConfig,
    shutdown: Arc<AtomicBool>,
    addr: SocketAddr,
}

/// Boot a server: bind the listener, spawn the scheduler and its runner
/// fleet, and start accepting connections. Returns once the socket is
/// live; use [`ServerHandle::addr`] to learn the bound port.
pub fn start(config: ServeConfig) -> io::Result<ServerHandle> {
    std::fs::create_dir_all(&config.work_dir)?;
    let listener = TcpListener::bind(&config.listen)?;
    let addr = listener.local_addr()?;
    // One worker per runner (each blocks for a whole engine run) plus one
    // so the scheduler always has a thread to answer on.
    let system = System::builder()
        .workers(config.max_concurrent_jobs + 1)
        .build();
    let scheduler = system.spawn(Scheduler::new(config.clone()));
    let shutdown = Arc::new(AtomicBool::new(false));
    let shared = Shared {
        scheduler: scheduler.clone(),
        config,
        shutdown: shutdown.clone(),
        addr,
    };
    let accept_thread = std::thread::Builder::new()
        .name("gpsa-serve-accept".to_string())
        .spawn(move || accept_loop(listener, shared))?;
    Ok(ServerHandle {
        addr,
        scheduler,
        system,
        shutdown,
        accept_thread: Some(accept_thread),
    })
}

impl ServerHandle {
    /// The bound address (resolves port 0 to the real ephemeral port).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The scheduler address, for in-process submission from tests.
    pub fn scheduler(&self) -> Addr<Scheduler> {
        self.scheduler.clone()
    }

    /// Has a `shutdown` request been received (wire op or
    /// [`ServerHandle::shutdown`])? Lets a hosting process poll for the
    /// moment it should tear the handle down.
    pub fn is_shutting_down(&self) -> bool {
        self.shutdown.load(Ordering::Acquire)
    }

    /// Stop accepting connections and tear down the actor system.
    /// In-flight connections see closed sockets. Idempotent.
    pub fn shutdown(&mut self) {
        if self.shutdown.swap(true, Ordering::AcqRel) {
            return;
        }
        // The accept loop is blocked in accept(); poke it awake.
        let _ = TcpStream::connect(self.addr);
        if let Some(t) = self.accept_thread.take() {
            let _ = t.join();
        }
        self.system.shutdown();
    }
}

impl Drop for ServerHandle {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// Accept one protocol connection, with `TCP_NODELAY` set on the
/// accepted socket as the client sets it on the connecting one
/// ([`set_low_latency`]).
fn accept(listener: &TcpListener) -> io::Result<TcpStream> {
    let (stream, _peer) = listener.accept()?;
    let _ = set_low_latency(&stream);
    Ok(stream)
}

fn accept_loop(listener: TcpListener, shared: Shared) {
    loop {
        match accept(&listener) {
            Ok(stream) => {
                if shared.shutdown.load(Ordering::Acquire) {
                    return;
                }
                let shared = shared.clone();
                let _ = std::thread::Builder::new()
                    .name("gpsa-serve-conn".to_string())
                    .spawn(move || handle_connection(stream, shared));
            }
            Err(_) => {
                if shared.shutdown.load(Ordering::Acquire) {
                    return;
                }
                // Transient accept error (e.g. EMFILE); keep serving.
            }
        }
    }
}

/// Read-timeout expiries surface as `WouldBlock` (Unix) or `TimedOut`
/// depending on platform; both mean the peer stalled past the deadline.
fn is_timeout(e: &io::Error) -> bool {
    matches!(
        e.kind(),
        io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
    )
}

/// What a request handler wants done with the connection afterwards.
enum Action {
    /// Write this frame (through the chaos-aware writer) and continue.
    Respond(Json),
    /// The handler already wrote its frames (streaming path); continue.
    Continue,
    /// Tear the connection down (the peer vanished mid-job).
    Close,
}

fn handle_connection(mut stream: TcpStream, shared: Shared) {
    let _ = stream.set_write_timeout(Some(shared.config.write_timeout));
    // Submissions that name no tenant bill against the connection itself,
    // so one anonymous flooder can't crowd out other anonymous clients.
    let default_tenant = stream
        .peer_addr()
        .map(|p| format!("conn:{p}"))
        .unwrap_or_else(|_| crate::job::DEFAULT_TENANT.to_string());
    loop {
        // Phase 1: wait for a frame to start, with no deadline — an idle
        // connection held open between requests is fine.
        let _ = stream.set_read_timeout(None);
        let mut first = [0u8; 1];
        let first = loop {
            match stream.read(&mut first) {
                Ok(0) => return, // clean close between frames
                Ok(_) => break first[0],
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(_) => return,
            }
        };
        // Phase 2: the frame has started; the rest must land within the
        // deadline or this client is shed to free the thread.
        let _ = stream.set_read_timeout(Some(shared.config.frame_read_timeout));
        let req = match read_frame_resumed(&mut stream, first) {
            Ok(req) => req,
            Err(e) if is_timeout(&e) => {
                let _ = shared.scheduler.send(SchedulerMsg::NoteShed);
                let err = ServeError::SlowClient(format!(
                    "request frame stalled past {:?}; connection shed",
                    shared.config.frame_read_timeout
                ));
                let _ = write_frame(&mut stream, &error_frame(&err, None));
                return;
            }
            Err(_) => {
                // Can't resynchronize a broken frame stream; best-effort
                // error frame, then drop the connection.
                let err = ServeError::BadRequest("unreadable frame".to_string());
                let _ = write_frame(&mut stream, &error_frame(&err, None));
                return;
            }
        };
        match handle_request(&req, &shared, &mut stream, &default_tenant) {
            Action::Respond(resp) => {
                if write_response(&mut stream, &resp, &shared).is_err() {
                    return;
                }
            }
            Action::Continue => {}
            Action::Close => return,
        }
        if shared.shutdown.load(Ordering::Acquire) {
            return;
        }
    }
}

/// Has the peer closed its end? A non-blocking peek distinguishes a
/// clean EOF (or error) from a merely quiet socket.
fn peer_gone(stream: &TcpStream) -> bool {
    let mut buf = [0u8; 1];
    if stream.set_nonblocking(true).is_err() {
        return true;
    }
    let gone = match stream.peek(&mut buf) {
        Ok(0) => true,
        Ok(_) => false, // a pipelined request is waiting; very much alive
        Err(e) if e.kind() == io::ErrorKind::WouldBlock => false,
        Err(_) => true,
    };
    let _ = stream.set_nonblocking(false);
    gone
}

/// Write one response frame, with the chaos plan's scripted network
/// faults injected here (and only here) when the feature is on.
fn write_response(stream: &mut TcpStream, resp: &Json, shared: &Shared) -> io::Result<()> {
    #[cfg(feature = "chaos")]
    if let Some(plan) = &shared.config.fault_plan {
        use crate::fault::ResponseFault;
        use std::io::Write;
        match plan.on_response() {
            ResponseFault::None => {}
            ResponseFault::DropMidFrame => {
                // Announce the full frame, deliver half of it, vanish.
                let body = resp.encode();
                stream.write_all(&(body.len() as u32).to_be_bytes())?;
                stream.write_all(&body.as_bytes()[..body.len() / 2])?;
                stream.flush()?;
                let _ = stream.shutdown(std::net::Shutdown::Both);
                return Err(io::Error::new(
                    io::ErrorKind::ConnectionAborted,
                    "chaos: connection dropped mid-frame",
                ));
            }
            ResponseFault::Stall(pause) => {
                let body = resp.encode();
                stream.write_all(&(body.len() as u32).to_be_bytes())?;
                stream.write_all(&body.as_bytes()[..body.len() / 2])?;
                stream.flush()?;
                std::thread::sleep(pause);
                stream.write_all(&body.as_bytes()[body.len() / 2..])?;
                return stream.flush();
            }
        }
    }
    let _ = shared; // quiet the unused warning without the chaos feature
    write_frame(stream, resp)
}

/// Render an error response; attaches stats when the caller has them.
/// The `"retriable"` flag mirrors [`ServeError::retriable`] so clients in
/// any language can branch transient-vs-permanent without a code table.
fn error_frame(err: &ServeError, stats: Option<&ServerStats>) -> Json {
    let mut j = Json::obj()
        .set("ok", Json::Bool(false))
        .set("code", Json::str(err.code()))
        .set("message", Json::str(err.message()))
        .set("retriable", Json::Bool(err.retriable()));
    if let Some(s) = stats {
        j = j.set("stats", s.to_json());
        if err.retriable() {
            j = j.set("retry_after_ms", Json::num(retry_after_hint_ms(s)));
        }
    }
    j
}

/// How long a shed client should wait before retrying: scales with the
/// current backlog so a deep queue pushes retries further out rather
/// than inviting an immediate thundering herd.
fn retry_after_hint_ms(stats: &ServerStats) -> u64 {
    (50 + 10 * stats.queue_depth).min(2_000)
}

fn graph_info_json(info: &GraphInfo) -> Json {
    Json::obj()
        .set("graph_id", Json::str(&info.graph_id))
        .set("epoch", Json::num(info.epoch))
        .set("delta_seq", Json::num(info.delta_seq))
        .set("n_vertices", Json::num(info.n_vertices as u64))
        .set("n_edges", Json::num(info.n_edges as u64))
        .set("bytes", Json::num(info.bytes))
}

/// Fetch a stats snapshot for requests that fail before reaching a
/// scheduler path that would carry one (the protocol promises counters
/// in every response).
fn fetch_stats(shared: &Shared) -> Option<ServerStats> {
    let (tx, rx) = sync_channel(1);
    shared
        .scheduler
        .send(SchedulerMsg::GetStats { reply: tx })
        .ok()?;
    rx.recv().ok()
}

fn handle_request(
    req: &Json,
    shared: &Shared,
    stream: &mut TcpStream,
    default_tenant: &str,
) -> Action {
    let op = req.get("op").and_then(Json::as_str).unwrap_or("");
    Action::Respond(match op {
        "ping" => Json::obj()
            .set("ok", Json::Bool(true))
            .set("pong", Json::Bool(true)),
        "stats" => match fetch_stats(shared) {
            Some(stats) => Json::obj()
                .set("ok", Json::Bool(true))
                .set("stats", stats.to_json()),
            None => error_frame(
                &ServeError::Engine("scheduler unavailable".to_string()),
                None,
            ),
        },
        "register_graph" => handle_register(req, shared),
        "list_graphs" => {
            let (tx, rx) = sync_channel(1);
            if shared
                .scheduler
                .send(SchedulerMsg::ListGraphs { reply: tx })
                .is_err()
            {
                return Action::Respond(error_frame(
                    &ServeError::Engine("scheduler unavailable".to_string()),
                    None,
                ));
            }
            match rx.recv() {
                Ok((rows, stats)) => Json::obj()
                    .set("ok", Json::Bool(true))
                    .set(
                        "graphs",
                        Json::Arr(rows.iter().map(graph_info_json).collect()),
                    )
                    .set("stats", stats.to_json()),
                Err(_) => error_frame(
                    &ServeError::Engine("scheduler unavailable".to_string()),
                    None,
                ),
            }
        }
        "submit" => return handle_submit(req, shared, stream, default_tenant),
        "add_edges" => handle_mutate(req, shared, false),
        "remove_edges" => handle_mutate(req, shared, true),
        "compact" => handle_compact(req, shared),
        "shutdown" => {
            if !shared.shutdown.swap(true, Ordering::AcqRel) {
                // Wake the accept loop so it observes the flag.
                let _ = TcpStream::connect(shared.addr);
            }
            Json::obj().set("ok", Json::Bool(true))
        }
        other => {
            let err = ServeError::BadRequest(format!("unknown op {other:?}"));
            error_frame(&err, fetch_stats(shared).as_ref())
        }
    })
}

fn handle_register(req: &Json, shared: &Shared) -> Json {
    let Some(graph_id) = req.get("graph_id").and_then(Json::as_str) else {
        let err = ServeError::BadRequest("register_graph needs graph_id".to_string());
        return error_frame(&err, fetch_stats(shared).as_ref());
    };
    let Some(path) = req.get("path").and_then(Json::as_str) else {
        let err = ServeError::BadRequest("register_graph needs path".to_string());
        return error_frame(&err, fetch_stats(shared).as_ref());
    };
    let (tx, rx) = sync_channel(1);
    let msg = SchedulerMsg::RegisterGraph {
        graph_id: graph_id.to_string(),
        path: path.into(),
        reply: tx,
    };
    if shared.scheduler.send(msg).is_err() {
        return error_frame(
            &ServeError::Engine("scheduler unavailable".to_string()),
            None,
        );
    }
    graph_info_reply(rx)
}

/// Await a `(GraphInfo, stats)` scheduler reply and render it — the
/// shared tail of `register_graph`, `add_edges`, `remove_edges`, and
/// `compact`, which all answer with the graph's (possibly new) registry
/// row.
fn graph_info_reply(rx: Receiver<(Result<GraphInfo, ServeError>, ServerStats)>) -> Json {
    match rx.recv() {
        Ok((Ok(info), stats)) => graph_info_json(&info)
            .set("ok", Json::Bool(true))
            .set("stats", stats.to_json()),
        Ok((Err(err), stats)) => error_frame(&err, Some(&stats)),
        Err(_) => error_frame(
            &ServeError::Engine("scheduler unavailable".to_string()),
            None,
        ),
    }
}

/// Parse the `edges` field: an array of `"src:dst"` strings.
fn parse_edges(req: &Json) -> Result<Vec<Edge>, ServeError> {
    let Some(rows) = req.get("edges").and_then(Json::as_arr) else {
        return Err(ServeError::BadRequest(
            "mutation needs an `edges` array of \"src:dst\" strings".to_string(),
        ));
    };
    let mut edges = Vec::with_capacity(rows.len());
    for row in rows {
        let s = row.as_str().unwrap_or("");
        let parsed = s
            .split_once(':')
            .and_then(|(u, v)| Some(Edge::new(u.trim().parse().ok()?, v.trim().parse().ok()?)));
        match parsed {
            Some(e) => edges.push(e),
            None => {
                return Err(ServeError::BadRequest(format!(
                    "bad edge {s:?}: expected \"src:dst\" with u32 endpoints"
                )))
            }
        }
    }
    if edges.is_empty() {
        return Err(ServeError::BadRequest(
            "mutation needs at least one edge".to_string(),
        ));
    }
    Ok(edges)
}

fn handle_mutate(req: &Json, shared: &Shared, remove: bool) -> Json {
    let Some(graph_id) = req.get("graph_id").and_then(Json::as_str) else {
        let err = ServeError::BadRequest("mutation needs graph_id".to_string());
        return error_frame(&err, fetch_stats(shared).as_ref());
    };
    let edges = match parse_edges(req) {
        Ok(e) => e,
        Err(err) => return error_frame(&err, fetch_stats(shared).as_ref()),
    };
    let batch = if remove {
        DeltaBatch::Remove(edges)
    } else {
        DeltaBatch::Add(edges)
    };
    let (tx, rx) = sync_channel(1);
    let msg = SchedulerMsg::Mutate {
        graph_id: graph_id.to_string(),
        batch,
        reply: tx,
    };
    if shared.scheduler.send(msg).is_err() {
        return error_frame(
            &ServeError::Engine("scheduler unavailable".to_string()),
            None,
        );
    }
    graph_info_reply(rx)
}

fn handle_compact(req: &Json, shared: &Shared) -> Json {
    let Some(graph_id) = req.get("graph_id").and_then(Json::as_str) else {
        let err = ServeError::BadRequest("compact needs graph_id".to_string());
        return error_frame(&err, fetch_stats(shared).as_ref());
    };
    let (tx, rx) = sync_channel(1);
    let msg = SchedulerMsg::Compact {
        graph_id: graph_id.to_string(),
        reply: tx,
    };
    if shared.scheduler.send(msg).is_err() {
        return error_frame(
            &ServeError::Engine("scheduler unavailable".to_string()),
            None,
        );
    }
    graph_info_reply(rx)
}

fn handle_submit(
    req: &Json,
    shared: &Shared,
    stream: &mut TcpStream,
    default_tenant: &str,
) -> Action {
    let Some(graph_id) = req.get("graph_id").and_then(Json::as_str) else {
        let err = ServeError::BadRequest("submit needs graph_id".to_string());
        return Action::Respond(error_frame(&err, fetch_stats(shared).as_ref()));
    };
    let Some(algorithm) = req.get("algorithm").and_then(Json::as_str) else {
        let err = ServeError::BadRequest("submit needs algorithm".to_string());
        return Action::Respond(error_frame(&err, fetch_stats(shared).as_ref()));
    };
    let empty = Json::obj();
    let params = req.get("params").unwrap_or(&empty);
    let alg = match AlgorithmSpec::parse(algorithm, params) {
        Ok(a) => a,
        Err(err) => return Action::Respond(error_frame(&err, fetch_stats(shared).as_ref())),
    };
    let priority = req
        .get("priority")
        .and_then(Json::as_str)
        .map(Priority::parse)
        .unwrap_or_default();
    let deadline = req
        .get("deadline_ms")
        .and_then(Json::as_u64)
        .map(Duration::from_millis)
        .or(shared.config.default_deadline);
    let idempotency_key = req
        .get("idempotency_key")
        .and_then(Json::as_str)
        .map(str::to_string);
    let tenant = req
        .get("tenant_id")
        .and_then(Json::as_str)
        .filter(|t| !t.is_empty())
        .map(str::to_string)
        .unwrap_or_else(|| default_tenant.to_string());
    let want_stream = req.get("stream").and_then(Json::as_bool).unwrap_or(false);
    let (tx, rx) = sync_channel(1);
    let cancel = CancelToken::new();
    // job_id 0 is a placeholder: the scheduler assigns real ids (it owns
    // the counter so recovery can resume numbering above the journal).
    let ticket = JobTicket {
        job_id: 0,
        spec: JobSpec {
            graph_id: graph_id.to_string(),
            algorithm: alg,
            priority,
            deadline,
            idempotency_key,
            tenant,
        },
        submitted: Instant::now(),
        timer: Timer::start(),
        reply: tx,
        cancel: cancel.clone(),
        scratch_bytes: 0,
    };
    if shared.scheduler.send(SchedulerMsg::Submit(ticket)).is_err() {
        return Action::Respond(error_frame(
            &ServeError::Engine("scheduler unavailable".to_string()),
            None,
        ));
    }
    // Block for the result, polling the socket: a client that vanishes
    // cancels its job rather than having a runner finish an answer
    // nobody will read.
    let reply = loop {
        match rx.recv_timeout(DISCONNECT_POLL) {
            Ok(reply) => break reply,
            Err(RecvTimeoutError::Timeout) => {
                if peer_gone(stream) {
                    cancel.cancel();
                    let _ = shared.scheduler.send(SchedulerMsg::CancelSweep);
                    return Action::Close;
                }
            }
            Err(RecvTimeoutError::Disconnected) => {
                return Action::Respond(error_frame(
                    &ServeError::Engine("scheduler dropped the job reply".to_string()),
                    None,
                ));
            }
        }
    };
    match reply {
        (Ok(resp), _stats) => {
            if want_stream {
                match write_stream(stream, &resp, shared) {
                    Ok(()) => Action::Continue,
                    Err(_) => Action::Close,
                }
            } else {
                Action::Respond(resp.to_json())
            }
        }
        (Err(err), stats) => Action::Respond(error_frame(&err, Some(&stats))),
    }
}

/// Stream a job result: a `start` frame, fixed-size CRC'd value chunks,
/// then an `end` frame carrying the run summary. The full value array is
/// never rendered into one JSON body — peak per-frame memory is bounded
/// by [`ServeConfig::stream_chunk_values`] — and every chunk's CRC32
/// (over its values' little-endian bytes) lets the client reject a torn
/// or corrupted stream instead of trusting it.
fn write_stream(stream: &mut TcpStream, resp: &JobResponse, shared: &Shared) -> io::Result<()> {
    let chunk_values = shared.config.stream_chunk_values.max(1);
    let values = &resp.outcome.values_u32;
    let start = Json::obj()
        .set("ok", Json::Bool(true))
        .set("stream", Json::str("start"))
        .set("job_id", Json::num(resp.job_id))
        .set("cache_hit", Json::Bool(resp.cache_hit))
        .set("value_type", Json::str(resp.outcome.value_type.as_str()))
        .set("n_values", Json::num(values.len() as u64))
        .set("chunk_values", Json::num(chunk_values as u64));
    write_frame(stream, &start)?;
    let mut n_chunks = 0u64;
    for (seq, chunk) in values.chunks(chunk_values).enumerate() {
        #[cfg(feature = "chaos")]
        if let Some(plan) = &shared.config.fault_plan {
            if plan.on_stream_chunk() {
                let _ = stream.shutdown(std::net::Shutdown::Both);
                return Err(io::Error::new(
                    io::ErrorKind::ConnectionAborted,
                    "chaos: connection dropped mid-stream",
                ));
            }
        }
        let frame = Json::obj()
            .set("ok", Json::Bool(true))
            .set("stream", Json::str("chunk"))
            .set("seq", Json::num(seq as u64))
            .set("offset", Json::num((seq * chunk_values) as u64))
            .set("crc", Json::num(chunk_crc(chunk) as u64))
            .set("values_u32", Json::U32s(Arc::new(chunk.to_vec())));
        write_frame(stream, &frame)?;
        n_chunks += 1;
    }
    let head = Json::obj()
        .set("ok", Json::Bool(true))
        .set("stream", Json::str("end"))
        .set("job_id", Json::num(resp.job_id))
        .set("n_chunks", Json::num(n_chunks));
    let end = resp.set_trailer(resp.outcome.set_counters(head));
    write_frame(stream, &end)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn both_ends_of_a_connection_disable_nagle() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let client = crate::client::open_stream(listener.local_addr().unwrap()).unwrap();
        let server = accept(&listener).unwrap();
        assert!(
            client.nodelay().unwrap(),
            "the client's socket has Nagle on"
        );
        assert!(
            server.nodelay().unwrap(),
            "the accepted socket has Nagle on"
        );
    }
}
