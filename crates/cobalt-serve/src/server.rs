//! The daemon: accept loop, bounded request queue, dispatcher, and the
//! graceful-drain state machine (`DESIGN.md` §14).
//!
//! ```text
//!             connections (one thread each, read/write deadlines)
//!                  │  decode → enqueue → block on response
//!                  ▼
//!   ┌──────── bounded queue (cap = queue_cap) ────────┐
//!   │ full → typed `shed` + retry_after_ms, no hang   │
//!   └──────────────────┬──────────────────────────────┘
//!                      ▼
//!              dispatcher thread
//!        cache hit?  ──────────────→ reply served:"cache"
//!        same fp in batch? ────────→ one run, others "coalesced"
//!        else: pool::run_ordered  ─→ execute, cache, reply "fresh"
//! ```
//!
//! **Drain state machine:** `Running` → (signal or `shutdown` request)
//! → `Draining` (accept loop stops, new work sheds, queued + in-flight
//! work finishes) → (after `drain_wait`) → `Cancelling` (every live
//! request's cancel token trips; in-flight proving stops at its next
//! budget check and reports resource-limited) → dispatcher compacts
//! the proof cache → `Stopped`, exit 0. Every queued request receives
//! a response in every path — nothing is silently dropped.

use crate::cache::ProofCache;
use crate::exec::{self, ExecConfig};
use crate::proto::{Request, RequestOp, Response, ServedFrom};
use crate::sig;
use cobalt_support::fault;
use cobalt_support::journal::ResumeMode;
use cobalt_support::pool::{self, Cancel, TaskResult};
use std::collections::VecDeque;
use std::io::{self, BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Condvar, Mutex};
use std::thread;
use std::time::{Duration, Instant};

/// Daemon configuration. The operator fixes the budgets and limits;
/// requests choose only what to run.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Bind address; port 0 picks an ephemeral port (see
    /// [`ServerHandle::addr`] and `port_file`).
    pub addr: String,
    /// When set, the bound address is written here after listen — how
    /// scripts rendezvous with an ephemeral port.
    pub port_file: Option<PathBuf>,
    /// Worker threads for cross-request dispatch; also the
    /// within-request obligation parallelism when a batch has a single
    /// request. Response bytes are identical at any count.
    pub jobs: usize,
    /// Bounded queue capacity; a full queue sheds instead of growing.
    pub queue_cap: usize,
    /// Per-request execution settings (prover tiers, engine budgets).
    pub exec: ExecConfig,
    /// Proof-cache journal path and resume mode; `None` = in-memory
    /// cache only (single-flight still works, warmth dies with the
    /// process).
    pub journal: Option<(PathBuf, ResumeMode)>,
    /// How long to wait for the cache journal's advisory lock before
    /// degrading to an in-memory cache.
    pub lock_wait: Duration,
    /// Per-connection read deadline: a client that stays silent this
    /// long is disconnected (it can reconnect and retry).
    pub read_timeout: Duration,
    /// Per-connection write deadline: a client that stops consuming
    /// responses is disconnected.
    pub write_timeout: Duration,
    /// Grace period between `Draining` and `Cancelling`: how long
    /// queued + in-flight work may run after shutdown is requested.
    pub drain_wait: Duration,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            addr: "127.0.0.1:0".into(),
            port_file: None,
            jobs: 1,
            queue_cap: 64,
            exec: ExecConfig::default(),
            journal: None,
            lock_wait: Duration::from_secs(5),
            read_timeout: Duration::from_secs(10),
            write_timeout: Duration::from_secs(10),
            drain_wait: Duration::from_secs(5),
        }
    }
}

/// End-of-run accounting, returned by [`ServerHandle::join`].
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ServeSummary {
    /// Requests successfully decoded (all ops). Malformed lines are
    /// not counted here — they show up in `errors` only.
    pub received: u64,
    /// Verify/optimize requests executed by a prover/engine run.
    pub fresh: u64,
    /// Requests replayed from the proof cache.
    pub cache_hits: u64,
    /// Requests coalesced onto a concurrent identical run
    /// (single-flight dedup).
    pub coalesced: u64,
    /// Requests refused with a typed `shed` response.
    pub shed: u64,
    /// Requests answered with an `error` response.
    pub errors: u64,
    /// Results in the cache at shutdown (after compaction).
    pub cache_entries: u64,
    /// Why cache persistence was degraded, if it was.
    pub degraded: Option<String>,
}

/// One queued request: its fingerprint, what to run, and the channel
/// its connection thread is blocked on.
struct Pending {
    fp: u64,
    id: String,
    op: RequestOp,
    tx: mpsc::Sender<Response>,
}

/// Queue state guarded by one mutex: the items and whether the
/// dispatcher has stopped. `stopped` lives *inside* the lock so an
/// enqueue can never race the dispatcher's final sweep and strand a
/// connection thread waiting on a response that will never come.
struct QueueState {
    items: VecDeque<Pending>,
    stopped: bool,
}

/// Counters shared across threads.
#[derive(Default)]
struct Counters {
    received: AtomicU64,
    fresh: AtomicU64,
    cache_hits: AtomicU64,
    coalesced: AtomicU64,
    shed: AtomicU64,
    errors: AtomicU64,
}

struct Shared {
    cfg: ServeConfig,
    queue: Mutex<QueueState>,
    queue_cv: Condvar,
    /// `Running` → `Draining`: accept stops, enqueue sheds.
    draining: AtomicBool,
    /// `Draining` → `Cancelling`: new executions start pre-cancelled.
    hard_cancel: AtomicBool,
    /// Cancel tokens of in-flight executions, tripped at `Cancelling`.
    live: Mutex<Vec<Cancel>>,
    /// EWMA of fresh-execution latency in µs; feeds retry_after hints.
    ewma_us: AtomicU64,
    stats: Counters,
    /// The spawning thread's scoped fault overrides, re-installed in
    /// every server thread so tests can inject `serve.*` faults.
    faults: Option<fault::OverrideHandle>,
}

impl Shared {
    fn lock_queue(&self) -> std::sync::MutexGuard<'_, QueueState> {
        self.queue
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    fn lock_live(&self) -> std::sync::MutexGuard<'_, Vec<Cancel>> {
        self.live
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    fn start_draining(&self) {
        self.draining.store(true, Ordering::SeqCst);
        self.queue_cv.notify_all();
    }

    /// `Cancelling`: every in-flight execution stands down at its next
    /// budget check; executions not yet started will begin
    /// pre-cancelled and answer resource-limited immediately.
    fn cancel_in_flight(&self) {
        self.hard_cancel.store(true, Ordering::SeqCst);
        for cancel in self.lock_live().iter() {
            cancel.trip();
        }
    }

    /// A cancel token for one execution, pre-tripped when the drain
    /// deadline has already passed. The flag check and the live-list
    /// push happen under one lock hold so `cancel_in_flight` (which
    /// sets the flag, then sweeps the list) can never interleave
    /// between them — a token is either swept or born tripped, never
    /// registered-but-missed and left to run uncancelled.
    fn register_cancel(&self) -> Cancel {
        let cancel = Cancel::new();
        let mut live = self.lock_live();
        if self.hard_cancel.load(Ordering::SeqCst) {
            cancel.trip();
        } else {
            live.push(cancel.clone());
        }
        cancel
    }

    /// Backoff hint for a shed response: roughly how long the queue
    /// ahead of you takes to clear, bounded to something a client can
    /// reasonably sleep.
    fn retry_after_ms(&self, queue_len: usize) -> u64 {
        let ewma_us = self.ewma_us.load(Ordering::Relaxed).max(1_000);
        let jobs = self.cfg.jobs.max(1) as u64;
        let est_ms = (queue_len as u64 + 1) * ewma_us / jobs / 1_000;
        est_ms.clamp(25, 2_000)
    }

    fn observe_latency(&self, elapsed: Duration) {
        let sample = elapsed.as_micros().min(u128::from(u64::MAX)) as u64;
        let old = self.ewma_us.load(Ordering::Relaxed);
        let new = if old == 0 { sample } else { old - old / 8 + sample / 8 };
        self.ewma_us.store(new, Ordering::Relaxed);
    }

    fn summary(&self, cache: &ProofCache) -> ServeSummary {
        ServeSummary {
            received: self.stats.received.load(Ordering::Relaxed),
            fresh: self.stats.fresh.load(Ordering::Relaxed),
            cache_hits: self.stats.cache_hits.load(Ordering::Relaxed),
            coalesced: self.stats.coalesced.load(Ordering::Relaxed),
            shed: self.stats.shed.load(Ordering::Relaxed),
            errors: self.stats.errors.load(Ordering::Relaxed),
            cache_entries: cache.len() as u64,
            degraded: cache.degraded().map(String::from),
        }
    }
}

/// The daemon. [`Server::start`] runs it on background threads and
/// returns a [`ServerHandle`]; `cobalt serve` is `start` + `join`.
pub struct Server;

impl Server {
    /// Binds, opens the proof cache, and starts the accept and
    /// dispatcher threads.
    ///
    /// # Errors
    ///
    /// An `io::Error` if the listen address cannot be bound or the
    /// port file cannot be written. Cache-journal trouble is *not* an
    /// error — the daemon comes up with a degraded in-memory cache
    /// (see [`ProofCache::open`]).
    pub fn start(cfg: ServeConfig) -> io::Result<ServerHandle> {
        sig::install_handlers();
        let listener = TcpListener::bind(&cfg.addr)?;
        let addr = listener.local_addr()?;
        if let Some(port_file) = &cfg.port_file {
            std::fs::write(port_file, format!("{addr}\n"))?;
        }
        let cache = match &cfg.journal {
            Some((path, mode)) => ProofCache::open(path, *mode, cfg.lock_wait),
            None => ProofCache::in_memory(),
        };
        let shared = Arc::new(Shared {
            queue: Mutex::new(QueueState {
                items: VecDeque::new(),
                stopped: false,
            }),
            queue_cv: Condvar::new(),
            draining: AtomicBool::new(false),
            hard_cancel: AtomicBool::new(false),
            live: Mutex::new(Vec::new()),
            ewma_us: AtomicU64::new(0),
            stats: Counters::default(),
            faults: fault::capture_overrides(),
            cfg,
        });
        let (summary_tx, summary_rx) = mpsc::channel();
        let dispatcher = {
            let shared = Arc::clone(&shared);
            thread::spawn(move || {
                let faults = shared.faults.clone();
                fault::with_overrides(faults.as_ref(), || {
                    dispatcher_loop(&shared, cache, &summary_tx)
                });
            })
        };
        let accept = {
            let shared = Arc::clone(&shared);
            thread::spawn(move || {
                let faults = shared.faults.clone();
                fault::with_overrides(faults.as_ref(), || accept_loop(&shared, &listener));
            })
        };
        Ok(ServerHandle {
            addr,
            shared,
            accept: Some(accept),
            dispatcher: Some(dispatcher),
            summary_rx,
        })
    }
}

/// A running daemon: its bound address and the levers to stop it.
pub struct ServerHandle {
    addr: SocketAddr,
    shared: Arc<Shared>,
    accept: Option<thread::JoinHandle<()>>,
    dispatcher: Option<thread::JoinHandle<()>>,
    summary_rx: mpsc::Receiver<ServeSummary>,
}

impl ServerHandle {
    /// The bound address (resolves port 0).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Requests a graceful drain, exactly as an in-band `shutdown`
    /// request or SIGTERM would.
    pub fn shutdown(&self) {
        self.shared.start_draining();
    }

    /// Blocks until the daemon has drained and stopped, returning the
    /// run's accounting. Runs the drain state machine: waits
    /// `drain_wait` for queued + in-flight work, then trips every live
    /// cancel token and waits for the (now fast) remainder.
    pub fn join(mut self) -> ServeSummary {
        if let Some(accept) = self.accept.take() {
            let _ = accept.join();
        }
        // Accept has stopped, so draining is set; give the dispatcher
        // the grace period, then budget-cancel stragglers.
        let summary = match self.summary_rx.recv_timeout(self.shared.cfg.drain_wait) {
            Ok(summary) => summary,
            Err(_) => {
                self.shared.cancel_in_flight();
                self.summary_rx.recv().unwrap_or_default()
            }
        };
        if let Some(dispatcher) = self.dispatcher.take() {
            let _ = dispatcher.join();
        }
        summary
    }
}

/// Accepts connections until drain starts. Nonblocking accept + short
/// sleeps so the signal flag and the draining flag are polled even
/// when no clients arrive.
fn accept_loop(shared: &Arc<Shared>, listener: &TcpListener) {
    if listener.set_nonblocking(true).is_err() {
        // Cannot poll the drain flags on a blocking listener; shut the
        // daemon down rather than running un-drainable.
        shared.start_draining();
        return;
    }
    loop {
        if sig::shutdown_requested() || shared.draining.load(Ordering::SeqCst) {
            shared.start_draining();
            return;
        }
        match listener.accept() {
            Ok((stream, _peer)) => {
                // An injected accept fault drops this connection; the
                // loop — and the daemon — carry on. The client sees a
                // closed socket and retries.
                if fault::point_err("serve.accept").is_err() {
                    drop(stream);
                    continue;
                }
                let shared = Arc::clone(shared);
                thread::spawn(move || {
                    let faults = shared.faults.clone();
                    fault::with_overrides(faults.as_ref(), || handle_connection(&shared, stream));
                });
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                thread::sleep(Duration::from_millis(5));
            }
            Err(_) => thread::sleep(Duration::from_millis(5)),
        }
    }
}

/// One connection: newline-delimited request/response exchanges until
/// EOF, a deadline, or an injected `serve.read`/`serve.write` fault
/// disconnects it. Disconnection is always safe for the daemon — the
/// client owns retry.
fn handle_connection(shared: &Arc<Shared>, stream: TcpStream) {
    let ok = stream
        .set_read_timeout(Some(shared.cfg.read_timeout))
        .and_then(|()| stream.set_write_timeout(Some(shared.cfg.write_timeout)));
    if ok.is_err() {
        return;
    }
    let Ok(write_half) = stream.try_clone() else {
        return;
    };
    let mut writer = write_half;
    let mut reader = BufReader::new(stream);
    loop {
        // A read fault models a client whose socket dies mid-request:
        // the connection is dropped, the daemon is unaffected.
        if fault::point_err("serve.read").is_err() {
            return;
        }
        let mut line = String::new();
        match reader.read_line(&mut line) {
            Ok(0) => return,         // EOF: client done
            Ok(_) => {}
            Err(_) => return,        // deadline or reset: disconnect
        }
        if line.trim().is_empty() {
            continue;
        }
        let response = match Request::decode(line.trim_end()) {
            Err(e) => {
                shared.stats.errors.fetch_add(1, Ordering::Relaxed);
                Response::error("", e.to_string())
            }
            Ok(request) => {
                shared.stats.received.fetch_add(1, Ordering::Relaxed);
                answer(shared, request)
            }
        };
        let done = response.status == crate::proto::Status::Bye;
        if fault::point_err("serve.write").is_err() {
            return;
        }
        if writer
            .write_all(format!("{}\n", response.encode()).as_bytes())
            .and_then(|()| writer.flush())
            .is_err()
        {
            return;
        }
        if done {
            return;
        }
    }
}

/// Routes one decoded request: control ops answer inline, work ops go
/// through the bounded queue and block this connection thread until
/// the dispatcher responds.
fn answer(shared: &Arc<Shared>, request: Request) -> Response {
    match &request.op {
        RequestOp::Ping => Response::ok(&request.id, 0, "ok", ServedFrom::Fresh, "pong\n".into()),
        RequestOp::Stats => {
            let queue_len = shared.lock_queue().items.len();
            let output = format!(
                "requests={} fresh={} cache_hits={} coalesced={} shed={} errors={} queue={}\n",
                shared.stats.received.load(Ordering::Relaxed),
                shared.stats.fresh.load(Ordering::Relaxed),
                shared.stats.cache_hits.load(Ordering::Relaxed),
                shared.stats.coalesced.load(Ordering::Relaxed),
                shared.stats.shed.load(Ordering::Relaxed),
                shared.stats.errors.load(Ordering::Relaxed),
                queue_len,
            );
            Response::ok(&request.id, 0, "ok", ServedFrom::Fresh, output)
        }
        RequestOp::Shutdown => {
            shared.start_draining();
            Response::bye(&request.id)
        }
        RequestOp::Verify { .. } | RequestOp::Optimize { .. } => {
            let fp = exec::request_fingerprint(&request.op, &shared.cfg.exec);
            match enqueue(shared, fp, request) {
                Err(refusal) => refusal,
                Ok(rx) => rx.recv().unwrap_or_else(|_| {
                    Response::error("", "daemon stopped before answering")
                }),
            }
        }
    }
}

/// Admission control: draining sheds, a full queue sheds (with a
/// queue-depth-derived retry hint), otherwise the request parks in the
/// bounded queue. The `stopped` check under the queue lock closes the
/// race with the dispatcher's final sweep.
fn enqueue(
    shared: &Arc<Shared>,
    fp: u64,
    request: Request,
) -> Result<mpsc::Receiver<Response>, Response> {
    let mut q = shared.lock_queue();
    if shared.draining.load(Ordering::SeqCst) || q.stopped {
        shared.stats.shed.fetch_add(1, Ordering::Relaxed);
        return Err(Response::shed(
            &request.id,
            shared.retry_after_ms(q.items.len()),
            "draining: not accepting new work",
        ));
    }
    if q.items.len() >= shared.cfg.queue_cap {
        shared.stats.shed.fetch_add(1, Ordering::Relaxed);
        let hint = shared.retry_after_ms(q.items.len());
        return Err(Response::shed(
            &request.id,
            hint,
            format!("queue full ({}/{})", q.items.len(), shared.cfg.queue_cap),
        ));
    }
    let (tx, rx) = mpsc::channel();
    q.items.push_back(Pending {
        fp,
        id: request.id,
        op: request.op,
        tx,
    });
    drop(q);
    shared.queue_cv.notify_all();
    Ok(rx)
}

/// The dispatcher: batches the queue, replays cache hits, coalesces
/// duplicate fingerprints (single-flight), fans fresh work across the
/// pool, and — on drain — compacts the cache and reports the summary.
fn dispatcher_loop(shared: &Arc<Shared>, mut cache: ProofCache, summary_tx: &mpsc::Sender<ServeSummary>) {
    loop {
        let batch: Vec<Pending> = {
            let mut q = shared.lock_queue();
            loop {
                if !q.items.is_empty() {
                    let take = q.items.len().min(shared.cfg.jobs.max(1) * 4);
                    break q.items.drain(..take).collect();
                }
                if shared.draining.load(Ordering::SeqCst) {
                    // Final sweep done: flip `stopped` under the lock
                    // so no enqueue can slip in behind us, then finish.
                    q.stopped = true;
                    drop(q);
                    cache.finish();
                    let _ = summary_tx.send(shared.summary(&cache));
                    return;
                }
                let (guard, _) = shared
                    .queue_cv
                    .wait_timeout(q, Duration::from_millis(50))
                    .unwrap_or_else(std::sync::PoisonError::into_inner);
                q = guard;
            }
        };
        process_batch(shared, &mut cache, batch);
        // This batch's executions are done; their cancel tokens are
        // dead weight (drain trips only live ones).
        shared.lock_live().clear();
    }
}

/// Sends `response` (annotating it with the cache-degradation note,
/// if any) to the connection thread that parked this request. A send
/// failure means the connection died while waiting — fine, the result
/// is already in the cache for its retry.
fn respond(cache: &ProofCache, pending: &Pending, mut response: Response) {
    if let Some(reason) = cache.degraded() {
        response.note = format!("proof cache degraded ({reason})");
    }
    let _ = pending.tx.send(response);
}

fn process_batch(shared: &Arc<Shared>, cache: &mut ProofCache, batch: Vec<Pending>) {
    // Pass 1: cache replay, and single-flight grouping of the rest.
    // `groups` preserves arrival order; the first requester of each
    // fingerprint is the leader whose execution everyone shares.
    let mut groups: Vec<(u64, Vec<Pending>)> = Vec::new();
    for pending in batch {
        if let Some(hit) = cache.get(pending.fp) {
            shared.stats.cache_hits.fetch_add(1, Ordering::Relaxed);
            let response = hit.to_response(&pending.id, ServedFrom::Cache);
            respond(cache, &pending, response);
            continue;
        }
        match groups.iter_mut().find(|(fp, _)| *fp == pending.fp) {
            Some((_, members)) => members.push(pending),
            None => groups.push((pending.fp, vec![pending])),
        }
    }
    if groups.is_empty() {
        return;
    }
    // Pass 2: execute one leader per group. A single group keeps the
    // whole `jobs` budget for within-request parallelism; multiple
    // groups split it across requests. Either way the response bytes
    // are identical — determinism is exec's contract.
    let inner_jobs = if groups.len() == 1 {
        shared.cfg.jobs.max(1)
    } else {
        1
    };
    let exec_cfg = ExecConfig {
        jobs: inner_jobs,
        ..shared.cfg.exec.clone()
    };
    let run_one = |op: &RequestOp| {
        let cancel = shared.register_cancel();
        let started = Instant::now();
        let result = exec::execute(op, &exec_cfg, &cancel);
        (result, started.elapsed())
    };
    let mut executed: Vec<Option<(exec::ExecResult, Duration)>> = Vec::with_capacity(groups.len());
    if groups.len() <= 1 || shared.cfg.jobs <= 1 {
        for (_, members) in &groups {
            executed.push(Some(run_one(&members[0].op)));
        }
    } else {
        let ops: Vec<RequestOp> = groups.iter().map(|(_, m)| m[0].op.clone()).collect();
        executed.resize_with(groups.len(), || None);
        pool::run_ordered(
            shared.cfg.jobs,
            ops,
            |_, op| run_one(op),
            |idx, result| {
                if let TaskResult::Done(done) = result {
                    executed[idx] = Some(done);
                }
            },
        );
    }
    // Pass 3: cache, account, and answer.
    for ((fp, members), done) in groups.into_iter().zip(executed) {
        let Some((result, elapsed)) = done else {
            // Both supervised executions panicked — answer every
            // member with a typed error rather than hanging them.
            for pending in &members {
                shared.stats.errors.fetch_add(1, Ordering::Relaxed);
                respond(
                    cache,
                    pending,
                    Response::error(&pending.id, "request execution panicked"),
                );
            }
            continue;
        };
        shared.observe_latency(elapsed);
        cache.insert(result.to_cached(fp, &members[0].op));
        for (i, pending) in members.iter().enumerate() {
            let served = if i == 0 {
                shared.stats.fresh.fetch_add(1, Ordering::Relaxed);
                ServedFrom::Fresh
            } else {
                shared.stats.coalesced.fetch_add(1, Ordering::Relaxed);
                ServedFrom::Coalesced
            };
            respond(
                cache,
                pending,
                Response::ok(&pending.id, result.exit, &result.verdict, served, result.output.clone()),
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::client::{request_with_retry, ClientConfig};
    use crate::proto::Status;

    fn quick_cfg() -> ServeConfig {
        ServeConfig {
            read_timeout: Duration::from_secs(5),
            write_timeout: Duration::from_secs(5),
            drain_wait: Duration::from_secs(10),
            ..ServeConfig::default()
        }
    }

    fn client_cfg(handle: &ServerHandle) -> ClientConfig {
        ClientConfig {
            addr: handle.addr().to_string(),
            io_timeout: Duration::from_secs(60),
            retries: 3,
            backoff_base: Duration::from_millis(5),
            backoff_cap: Duration::from_millis(50),
        }
    }

    fn verify_req(id: &str, suite: &str) -> Request {
        Request {
            id: id.into(),
            op: RequestOp::Verify {
                suite: Some(suite.into()),
                include_buggy: false,
            },
        }
    }

    const SUITE: &str = "forward const_prop {
        stmt(Y := C) followed by !mayDef(Y)
        until X := Y => X := C
        with witness eta(Y) == C
    }";

    #[test]
    fn ping_stats_shutdown_roundtrip_and_exit_summary() {
        let handle = Server::start(quick_cfg()).unwrap();
        let cfg = client_cfg(&handle);
        let pong = request_with_retry(&cfg, &Request { id: "p".into(), op: RequestOp::Ping }).unwrap();
        assert_eq!(pong.status, Status::Ok);
        assert_eq!(pong.output, "pong\n");
        let stats = request_with_retry(&cfg, &Request { id: "s".into(), op: RequestOp::Stats }).unwrap();
        assert!(stats.output.contains("requests="), "{}", stats.output);
        let bye = request_with_retry(&cfg, &Request { id: "q".into(), op: RequestOp::Shutdown }).unwrap();
        assert_eq!(bye.status, Status::Bye);
        let summary = handle.join();
        assert_eq!(summary.received, 3);
        assert_eq!(summary.fresh, 0);
    }

    #[test]
    fn verify_via_daemon_then_cache_then_coalesce() {
        let mut cfg = quick_cfg();
        cfg.jobs = 2;
        let handle = Server::start(cfg).unwrap();
        let ccfg = client_cfg(&handle);
        let first = request_with_retry(&ccfg, &verify_req("a", SUITE)).unwrap();
        assert_eq!(first.exit, 0, "{}", first.output);
        assert_eq!(first.verdict, "proved");
        assert!(!first.cached());
        // Warm repeat: served from cache, byte-identical payload.
        let second = request_with_retry(&ccfg, &verify_req("b", SUITE)).unwrap();
        assert_eq!(second.served, ServedFrom::Cache);
        assert!(second.cached());
        assert_eq!(second.output, first.output);
        assert_eq!(second.exit, first.exit);
        handle.shutdown();
        let summary = handle.join();
        assert_eq!(summary.fresh, 1);
        assert_eq!(summary.cache_hits, 1);
    }

    #[test]
    fn draining_daemon_sheds_new_work() {
        let handle = Server::start(quick_cfg()).unwrap();
        let ccfg = ClientConfig {
            retries: 0,
            ..client_cfg(&handle)
        };
        handle.shutdown();
        // Accept may take a poll tick to stop; until then the daemon
        // must answer with a typed shed, never execute.
        match request_with_retry(&ccfg, &verify_req("x", SUITE)) {
            Err(crate::client::ClientError::Shed(r)) => {
                assert!(r.error.contains("draining"), "{}", r.error)
            }
            Err(crate::client::ClientError::Connect(_)) => {} // accept already stopped
            // Listener dropped with our connection still in its
            // backlog: reset instead of refused, equally "not served".
            Err(crate::client::ClientError::Io(_)) => {}
            other => panic!("expected shed or a refused/reset connection, got {other:?}"),
        }
        let summary = handle.join();
        assert_eq!(summary.fresh, 0);
    }
}
