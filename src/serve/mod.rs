//! `tensorkmc serve` — the multi-tenant job server.
//!
//! One process, many simulations: clients POST JSON input decks to
//! `/jobs`, a bounded queue feeds `max_concurrent` engine-slot worker
//! threads, and each job's results stream back incrementally as JSONL
//! over a chunked HTTP response. Jobs survive the server: every sampling
//! chunk persists an atomic, compressed state bundle (status + stream +
//! CSV + engine checkpoint — [`persist`]), so a killed or drained server
//! re-adopts its jobs on restart and resumes them to the byte-identical
//! trajectory (pinned by `tests/serve_e2e.rs`).
//!
//! ## Endpoints
//!
//! | method & path | purpose |
//! |---|---|
//! | `POST /jobs` | submit a deck → `201 {"id", "phase"}`; `422` invalid, `429` queue full |
//! | `GET /jobs` | list all jobs with status |
//! | `GET /jobs/{id}` | one job's status document |
//! | `GET /jobs/{id}/stream` | chunked JSONL: replay + follow the result stream |
//! | `GET /jobs/{id}/metrics` | per-job Prometheus text (usage metering) |
//! | `GET /jobs/{id}/metrics.json` | per-job JSON snapshot |
//! | `GET /jobs/{id}/checkpoint` | latest persisted engine checkpoint (verbatim) |
//! | `POST /jobs/{id}/cancel` | request cancellation → `202`; `409` if terminal |
//! | `GET /metrics`, `/metrics.json` | server-level telemetry |
//! | `POST /shutdown` | drain in-flight jobs to checkpoints and exit |
//!
//! Failures are structured and per-job: a bad deck is that request's
//! `422`, an engine error is that job's `failed` status — neither takes
//! the server down.
//!
//! The HTTP surface is the shared hardened implementation in
//! [`tensorkmc_compat::http`] (same machinery as the telemetry
//! `/metrics` responder): one request per connection, capped heads
//! (431) and bodies (413), `Connection: close`.

pub mod job;
pub mod persist;
pub mod queue;
pub mod runner;
pub mod stream;

use std::collections::BTreeMap;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

use tensorkmc_compat::http::{self, ChunkedWriter, Request};
use tensorkmc_compat::json::Json;
use tensorkmc_telemetry::{prometheus, Registry, Snapshot};

use crate::input::InputDeck;
use job::{Job, JobPhase, JobStatus};
use queue::JobQueue;
use stream::JobStream;

/// Largest accepted deck body, bytes (a deck is a small JSON document;
/// anything larger is a client error → `413`).
const MAX_DECK_BYTES: usize = 1 << 20;

/// Per-connection socket timeout for request reads and non-streaming
/// responses.
const IO_TIMEOUT: Duration = Duration::from_secs(10);

/// How long a stream follower blocks per pull before re-checking the
/// server stop flag.
const STREAM_POLL: Duration = Duration::from_millis(250);

/// Configuration of a [`JobServer`].
#[derive(Debug, Clone)]
pub struct ServeOptions {
    /// Listen address (`host:port`; port `0` picks an ephemeral port).
    pub listen: String,
    /// Root of the persistence tree (`<state_dir>/jobs/<id>/...`).
    pub state_dir: PathBuf,
    /// Bound of the waiting-job queue (admission control → `429`).
    pub max_queue: usize,
    /// Engine slots: how many jobs step concurrently.
    pub max_concurrent: usize,
    /// Total refresh-thread budget divided across the engine slots
    /// (`0` = auto: all cores). Execution knob only — never changes a
    /// trajectory.
    pub thread_budget: u64,
}

impl Default for ServeOptions {
    fn default() -> Self {
        ServeOptions {
            listen: "127.0.0.1:0".to_string(),
            state_dir: PathBuf::from("tensorkmc-serve"),
            max_queue: 32,
            max_concurrent: 2,
            thread_budget: 0,
        }
    }
}

/// State shared by the accept loop, connection threads, and workers.
struct Shared {
    opts: ServeOptions,
    /// Server-level telemetry (submissions, rejections, outcomes).
    registry: Arc<Registry>,
    /// All known jobs by id (BTreeMap: listings come out ordered).
    jobs: Mutex<BTreeMap<String, Arc<Job>>>,
    queue: JobQueue,
    stop: AtomicBool,
    /// `POST /shutdown` flips this; [`JobServer::wait_for_shutdown`]
    /// blocks on it.
    shutdown_cell: Mutex<bool>,
    shutdown_cond: Condvar,
    next_id: AtomicU64,
    /// Refresh threads granted to each engine slot.
    per_engine_threads: u64,
}

impl Shared {
    fn job(&self, id: &str) -> Option<Arc<Job>> {
        self.jobs.lock().unwrap().get(id).cloned()
    }

    fn update_queue_gauge(&self) {
        self.registry
            .gauge("serve.jobs.queued")
            .set(self.queue.len() as f64);
    }
}

/// The running job server. Start it, wait for the shutdown request, then
/// drain with [`shutdown`](JobServer::shutdown).
pub struct JobServer {
    shared: Arc<Shared>,
    addr: SocketAddr,
    accept: Option<JoinHandle<()>>,
    workers: Vec<JoinHandle<()>>,
}

impl JobServer {
    /// Creates the state tree, re-adopts persisted jobs (non-terminal ones
    /// are requeued and resume from their checkpoints), binds the listen
    /// address, and starts the accept loop plus `max_concurrent` engine
    /// workers.
    pub fn start(opts: ServeOptions) -> Result<JobServer, String> {
        std::fs::create_dir_all(opts.state_dir.join("jobs"))
            .map_err(|e| format!("cannot create state dir {}: {e}", opts.state_dir.display()))?;

        let registry = Arc::new(Registry::new());
        let per_engine_threads = match opts.thread_budget {
            0 => (tensorkmc_compat::pool::max_threads() as u64 / opts.max_concurrent.max(1) as u64)
                .max(1),
            n => (n / opts.max_concurrent.max(1) as u64).max(1),
        };
        let shared = Arc::new(Shared {
            registry: Arc::clone(&registry),
            jobs: Mutex::new(BTreeMap::new()),
            queue: JobQueue::new(opts.max_queue),
            stop: AtomicBool::new(false),
            shutdown_cell: Mutex::new(false),
            shutdown_cond: Condvar::new(),
            next_id: AtomicU64::new(persist::highest_job_number(&opts.state_dir) + 1),
            per_engine_threads,
            opts,
        });

        // Restart adoption: every persisted job becomes visible again;
        // non-terminal ones go back on the queue and resume from their
        // checkpoints. Corrupt directories are counted, not fatal.
        let (found, scan_errors) = persist::scan_jobs(&shared.opts.state_dir);
        registry
            .counter("serve.jobs.adopt_errors")
            .add(scan_errors.len() as u64);
        for adopted in found {
            let deck = match InputDeck::from_json(&adopted.deck_text) {
                Ok(d) => d,
                Err(_) => {
                    registry.counter("serve.jobs.adopt_errors").inc();
                    continue;
                }
            };
            let mut status = adopted.state.status.clone();
            let requeue = !status.phase.is_terminal();
            if requeue {
                status.phase = JobPhase::Queued;
            }
            let job = Arc::new(Job {
                id: adopted.id.clone(),
                deck,
                deck_text: adopted.deck_text,
                dir: adopted.dir,
                status: Mutex::new(status),
                cancel: AtomicBool::new(false),
                stream: JobStream::preloaded(
                    adopted.state.stream_text.clone(),
                    adopted.state.stream_done,
                ),
                registry: Arc::new(Registry::new()),
                outcomes: Arc::clone(&shared.registry),
            });
            shared.jobs.lock().unwrap().insert(adopted.id, Arc::clone(&job));
            if requeue {
                shared.queue.requeue(job);
                registry.counter("serve.jobs.adopted").inc();
            }
        }
        shared.update_queue_gauge();

        let listener = TcpListener::bind(&shared.opts.listen)
            .map_err(|e| format!("cannot listen on {}: {e}", shared.opts.listen))?;
        let addr = listener
            .local_addr()
            .map_err(|e| format!("cannot resolve listen address: {e}"))?;

        let accept = {
            let shared = Arc::clone(&shared);
            std::thread::Builder::new()
                .name("tkmc-serve-accept".to_string())
                .spawn(move || {
                    for conn in listener.incoming() {
                        if shared.stop.load(Ordering::SeqCst) {
                            break;
                        }
                        if let Ok(stream) = conn {
                            let shared = Arc::clone(&shared);
                            // One thread per connection: connections are
                            // short (one request) except streams, which
                            // spend their life blocked on the job condvar.
                            let _ = std::thread::Builder::new()
                                .name("tkmc-serve-conn".to_string())
                                .spawn(move || {
                                    let _ = handle_connection(&shared, stream);
                                });
                        }
                    }
                })
                .map_err(|e| format!("cannot spawn accept thread: {e}"))?
        };

        let mut workers = Vec::new();
        for slot in 0..shared.opts.max_concurrent.max(1) {
            let shared = Arc::clone(&shared);
            let handle = std::thread::Builder::new()
                .name(format!("tkmc-serve-engine-{slot}"))
                .spawn(move || worker_loop(&shared))
                .map_err(|e| format!("cannot spawn engine worker: {e}"))?;
            workers.push(handle);
        }

        Ok(JobServer {
            shared,
            addr,
            accept: Some(accept),
            workers,
        })
    }

    /// The bound address (port 0 resolved).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Blocks until `POST /shutdown` arrives (or
    /// [`request_shutdown`](Self::request_shutdown) is called).
    pub fn wait_for_shutdown(&self) {
        let mut requested = self.shared.shutdown_cell.lock().unwrap();
        while !*requested {
            requested = self.shared.shutdown_cond.wait(requested).unwrap();
        }
    }

    /// Unblocks [`wait_for_shutdown`](Self::wait_for_shutdown) as if
    /// `POST /shutdown` had arrived.
    pub fn request_shutdown(&self) {
        let mut requested = self.shared.shutdown_cell.lock().unwrap();
        *requested = true;
        self.shared.shutdown_cond.notify_all();
    }

    /// Drains and stops: no new connections or jobs; running jobs
    /// checkpoint at their next sampling chunk and are marked
    /// `interrupted`; queued jobs stay persisted as `queued`. Both kinds
    /// are re-adopted and resumed by the next start. Idempotent.
    pub fn shutdown(&mut self) {
        self.request_shutdown();
        if self.accept.is_none() && self.workers.is_empty() {
            return;
        }
        self.shared.stop.store(true, Ordering::SeqCst);
        self.shared.queue.wake_all();
        // Unblock `accept` with a throwaway connection to ourselves.
        if let Ok(s) = TcpStream::connect(self.addr) {
            drop(s);
        }
        if let Some(h) = self.accept.take() {
            let _ = h.join();
        }
        for h in self.workers.drain(..) {
            let _ = h.join();
        }
    }

    /// Number of known jobs (all phases).
    pub fn job_count(&self) -> usize {
        self.shared.jobs.lock().unwrap().len()
    }
}

impl Drop for JobServer {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// One engine slot: pop, run, account.
fn worker_loop(shared: &Arc<Shared>) {
    let running = shared.registry.gauge("serve.jobs.running");
    while let Some(job) = shared.queue.pop_wait(&shared.stop) {
        shared.update_queue_gauge();
        running.set(running.get() + 1.0);
        // The terminal phase is counted by `Job::set_phase`.
        runner::run_job(&job, &shared.stop, shared.per_engine_threads);
        running.set((running.get() - 1.0).max(0.0));
    }
}

/// JSON error body: `{"error": {"kind": ..., "message": ...}}`.
fn error_body(kind: &str, message: &str) -> Vec<u8> {
    Json::obj([(
        "error",
        Json::obj([
            ("kind", Json::Str(kind.to_string())),
            ("message", Json::Str(message.to_string())),
        ]),
    )])
    .to_string()
    .into_bytes()
}

/// Reads one request, routes it, writes one response, closes.
fn handle_connection(shared: &Arc<Shared>, mut stream: TcpStream) -> std::io::Result<()> {
    stream.set_read_timeout(Some(IO_TIMEOUT))?;
    stream.set_write_timeout(Some(IO_TIMEOUT))?;
    let req = match http::read_request(&mut stream, MAX_DECK_BYTES) {
        Ok(r) => r,
        Err(e) => return http::respond_request_error(&mut stream, &e),
    };

    match (req.method.as_str(), req.path.as_str()) {
        ("POST", "/jobs") => submit(shared, &req, &mut stream),
        ("GET", "/jobs") => list(shared, &mut stream),
        ("GET", "/metrics") => {
            let body = prometheus::render(&[shared.registry.snapshot()]);
            http::respond(&mut stream, 200, prometheus::CONTENT_TYPE, body.as_bytes())
        }
        ("GET", "/metrics.json") => {
            respond_snapshot_json(&mut stream, &[shared.registry.snapshot()])
        }
        ("POST", "/shutdown") => {
            // Respond before notifying: the waiter may tear the process
            // down as soon as it wakes.
            http::respond(
                &mut stream,
                202,
                "application/json",
                Json::obj([("status", Json::Str("draining".to_string()))])
                    .to_string()
                    .as_bytes(),
            )?;
            let mut requested = shared.shutdown_cell.lock().unwrap();
            *requested = true;
            shared.shutdown_cond.notify_all();
            Ok(())
        }
        (method, path) if path.starts_with("/jobs/") => {
            job_route(shared, method, path, &mut stream)
        }
        ("GET", _) => http::respond(
            &mut stream,
            404,
            "application/json",
            &error_body("not_found", "try /jobs, /jobs/{id}, or /metrics"),
        ),
        _ => http::respond(
            &mut stream,
            405,
            "application/json",
            &error_body("method_not_allowed", "unsupported method for this path"),
        ),
    }
}

/// `POST /jobs`: validate, persist, enqueue.
fn submit(shared: &Arc<Shared>, req: &Request, stream: &mut TcpStream) -> std::io::Result<()> {
    if shared.stop.load(Ordering::SeqCst) || *shared.shutdown_cell.lock().unwrap() {
        return http::respond(
            stream,
            503,
            "application/json",
            &error_body("shutting_down", "server is draining; resubmit after restart"),
        );
    }
    let text = match std::str::from_utf8(&req.body) {
        Ok(t) => t.to_string(),
        Err(_) => {
            shared.registry.counter("serve.jobs.rejected_invalid").inc();
            return http::respond(
                stream,
                422,
                "application/json",
                &error_body("deck", "deck body is not UTF-8"),
            );
        }
    };
    let deck = match InputDeck::from_json(&text).map_err(|e| e.to_string()).and_then(|d| {
        d.validate()?;
        Ok(d)
    }) {
        Ok(d) => d,
        Err(e) => {
            shared.registry.counter("serve.jobs.rejected_invalid").inc();
            return http::respond(stream, 422, "application/json", &error_body("deck", &e));
        }
    };
    // Serve-mode restrictions: the server owns checkpoint placement, and
    // the parallel driver has its own transport (one engine per job here).
    let refusal = if deck.ranks > 0 {
        Some("parallel decks (ranks > 0) are not accepted by the job server")
    } else if !deck.resume_from.is_empty() {
        Some("resume_from is managed by the server; submit the deck without it")
    } else {
        None
    };
    if let Some(msg) = refusal {
        shared.registry.counter("serve.jobs.rejected_invalid").inc();
        return http::respond(stream, 422, "application/json", &error_body("deck", msg));
    }

    let id = format!("job-{:06}", shared.next_id.fetch_add(1, Ordering::SeqCst));
    let dir = shared.opts.state_dir.join("jobs").join(&id);
    let persisted = std::fs::create_dir_all(&dir)
        .map_err(|e| e.to_string())
        .and_then(|()| persist::save_deck(&dir, &text).map_err(|e| e.to_string()))
        .and_then(|()| {
            persist::save_state(&dir, &persist::PersistedState::queued()).map_err(|e| e.to_string())
        });
    if let Err(e) = persisted {
        return http::respond(
            stream,
            500,
            "application/json",
            &error_body("internal", &format!("cannot persist job: {e}")),
        );
    }
    let job = Arc::new(Job {
        id: id.clone(),
        deck,
        deck_text: text,
        dir: dir.clone(),
        status: Mutex::new(JobStatus::queued()),
        cancel: AtomicBool::new(false),
        stream: JobStream::new(),
        registry: Arc::new(Registry::new()),
        outcomes: Arc::clone(&shared.registry),
    });
    shared
        .jobs
        .lock()
        .unwrap()
        .insert(id.clone(), Arc::clone(&job));
    if let Err(full) = shared.queue.push(job) {
        // Roll the admission back completely: no directory, no listing.
        shared.jobs.lock().unwrap().remove(&id);
        let _ = std::fs::remove_dir_all(&dir);
        shared.registry.counter("serve.jobs.rejected_full").inc();
        return http::respond_with_headers(
            stream,
            429,
            "application/json",
            &[("Retry-After", "1")],
            &error_body(
                "queue_full",
                &format!("job queue is at its bound of {}", full.capacity),
            ),
        );
    }
    shared.registry.counter("serve.jobs.submitted").inc();
    shared.update_queue_gauge();
    let body = Json::obj([
        ("id", Json::Str(id)),
        ("phase", Json::Str(JobPhase::Queued.as_str().to_string())),
    ])
    .to_string();
    http::respond(stream, 201, "application/json", body.as_bytes())
}

/// `GET /jobs`.
fn list(shared: &Arc<Shared>, stream: &mut TcpStream) -> std::io::Result<()> {
    let jobs = shared.jobs.lock().unwrap();
    let body = Json::obj([(
        "jobs",
        Json::Arr(jobs.values().map(|j| j.status_json()).collect()),
    )])
    .to_string();
    http::respond(stream, 200, "application/json", body.as_bytes())
}

/// Routes `/jobs/{id}` and its sub-resources.
fn job_route(
    shared: &Arc<Shared>,
    method: &str,
    path: &str,
    stream: &mut TcpStream,
) -> std::io::Result<()> {
    let rest = &path["/jobs/".len()..];
    let (id, action) = match rest.split_once('/') {
        Some((id, action)) => (id, Some(action)),
        None => (rest, None),
    };
    let Some(job) = shared.job(id) else {
        return http::respond(
            stream,
            404,
            "application/json",
            &error_body("not_found", &format!("no job {id:?}")),
        );
    };
    match (method, action) {
        ("GET", None) => http::respond(
            stream,
            200,
            "application/json",
            job.status_json().to_string().as_bytes(),
        ),
        ("GET", Some("stream")) => stream_job(shared, &job, stream),
        ("GET", Some("metrics")) => {
            let body = prometheus::render(&[job.registry.snapshot()]);
            http::respond(stream, 200, prometheus::CONTENT_TYPE, body.as_bytes())
        }
        ("GET", Some("metrics.json")) => {
            respond_snapshot_json(stream, &[job.registry.snapshot()])
        }
        ("GET", Some("checkpoint")) => match persist::load_state(&job.dir) {
            Ok(Some(st)) if st.checkpoint_json.is_some() => http::respond(
                stream,
                200,
                "application/json",
                st.checkpoint_json.unwrap().as_bytes(),
            ),
            Ok(_) => http::respond(
                stream,
                404,
                "application/json",
                &error_body("no_checkpoint", "job has not checkpointed yet"),
            ),
            Err(e) => http::respond(stream, 500, "application/json", &error_body("internal", &e)),
        },
        ("POST", Some("cancel")) => {
            if job.phase().is_terminal() {
                return http::respond(
                    stream,
                    409,
                    "application/json",
                    &error_body("terminal", "job already finished"),
                );
            }
            job.cancel.store(true, Ordering::SeqCst);
            http::respond(
                stream,
                202,
                "application/json",
                job.status_json().to_string().as_bytes(),
            )
        }
        ("GET", Some(_)) => http::respond(
            stream,
            404,
            "application/json",
            &error_body(
                "not_found",
                "try /jobs/{id}, /stream, /metrics, /checkpoint",
            ),
        ),
        _ => http::respond(
            stream,
            405,
            "application/json",
            &error_body("method_not_allowed", "unsupported method for this path"),
        ),
    }
}

/// `GET /jobs/{id}/stream`: replay the buffered JSONL, then follow live
/// appends until the job finishes (or the server stops, or the client
/// disconnects).
fn stream_job(shared: &Arc<Shared>, job: &Arc<Job>, stream: &mut TcpStream) -> std::io::Result<()> {
    // Streams outlive the per-request IO timeout by design: each chunk
    // write still honours the write timeout, but the reader may idle
    // between chunks for as long as the job computes.
    let mut writer = ChunkedWriter::start(&mut *stream, 200, "application/x-ndjson")?;
    let mut offset = 0usize;
    loop {
        let pulled = job.stream.pull(offset, STREAM_POLL);
        offset = pulled.offset;
        writer.write_chunk(pulled.text.as_bytes())?;
        if pulled.done && pulled.text.is_empty() {
            break;
        }
        if shared.stop.load(Ordering::SeqCst) {
            break;
        }
    }
    writer.finish()
}

/// The `/metrics.json` document (same shape as the telemetry responder).
fn respond_snapshot_json(stream: &mut TcpStream, snaps: &[Snapshot]) -> std::io::Result<()> {
    let body = Json::obj([
        (
            "schema",
            Json::Str(tensorkmc_telemetry::jsonl::SCHEMA.to_string()),
        ),
        (
            "snapshots",
            Json::Arr(snaps.iter().map(Snapshot::to_json).collect()),
        ),
    ])
    .to_string();
    http::respond(stream, 200, "application/json", body.as_bytes())
}
