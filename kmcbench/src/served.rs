//! The served workload: an in-process `serve::JobServer` and one
//! closed-loop HTTP client that submits a deck, streams the job to its
//! last byte, fetches its checkpoint, and only then submits the next.
//!
//! One sample process runs one server for a fixed number of jobs, so its
//! peak RSS (the server keeps every job it has run) measures a fixed amount
//! of work rather than however many jobs the host managed in the window.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::Path;
use std::time::{Duration, Instant};

use tensorkmc::core::Checkpoint;
use tensorkmc::fsutil::durability_syncs;
use tensorkmc::serve::persist::{self, PersistedState};
use tensorkmc::serve::{JobServer, ServeOptions};
use tensorkmc::telemetry::{keys, Json as TJson, Snapshot};
use tensorkmc_compat::codec::JsonCodec;
use tensorkmc_compat::json::Json;
use tensorkmc_compat::lz;

use crate::serial::{census_check, fresh_lattice};
use crate::stats::{median, peak_rss_mb, ratio, Metrics};
use crate::workload::Workload;
use crate::{sample_seed, SampleOut};

/// Server start-ups timed per sample process; set-up is their median.
const SERVER_STARTS: usize = 51;

/// Jobs one server runs before its sample process ends.
pub const JOBS_PER_SERVER: usize = 10;

const IO_TIMEOUT: Duration = Duration::from_secs(60);

fn secs(t: Instant) -> f64 {
    t.elapsed().as_secs_f64()
}

/// One HTTP/1.1 request on its own connection (the server closes after
/// each response). Returns the status code and the de-chunked body.
fn request(
    addr: SocketAddr,
    method: &str,
    path: &str,
    body: &str,
) -> Result<(u16, Vec<u8>), String> {
    let mut conn = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
    conn.set_read_timeout(Some(IO_TIMEOUT)).ok();
    write!(
        conn,
        "{method} {path} HTTP/1.1\r\nHost: {addr}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{body}",
        body.len()
    )
    .map_err(|e| format!("{method} {path}: {e}"))?;
    let mut raw = Vec::new();
    conn.read_to_end(&mut raw)
        .map_err(|e| format!("{method} {path}: {e}"))?;
    let split = raw
        .windows(4)
        .position(|w| w == b"\r\n\r\n")
        .ok_or_else(|| format!("{method} {path}: no response head"))?;
    let head = String::from_utf8_lossy(&raw[..split]).to_ascii_lowercase();
    let code = head
        .split_whitespace()
        .nth(1)
        .and_then(|c| c.parse().ok())
        .ok_or_else(|| format!("{method} {path}: bad status line"))?;
    let body = &raw[split + 4..];
    let body = if head.contains("transfer-encoding: chunked") {
        tensorkmc_compat::http::decode_chunked(body)?
    } else {
        body.to_vec()
    };
    Ok((code, body))
}

/// When each part of a job's stream arrived, and what it carried.
struct Streamed {
    started: Option<Instant>,
    first_frame: Option<Instant>,
    last_byte: Instant,
    bytes: usize,
    /// The `result` record's CSV and XYZ artifacts.
    csv: String,
    xyz: String,
    completed: bool,
}

/// Follows `/jobs/{id}/stream` to its end, timestamping records as their
/// chunks arrive.
fn follow_stream(addr: SocketAddr, id: &str) -> Result<Streamed, String> {
    let path = format!("/jobs/{id}/stream");
    let err = |e: std::io::Error| format!("GET {path}: {e}");
    let mut conn = TcpStream::connect(addr).map_err(err)?;
    conn.set_read_timeout(Some(IO_TIMEOUT)).ok();
    write!(
        conn,
        "GET {path} HTTP/1.1\r\nHost: {addr}\r\nConnection: close\r\n\r\n"
    )
    .map_err(err)?;
    let mut reader = BufReader::new(conn);
    let mut line = String::new();
    reader.read_line(&mut line).map_err(err)?;
    if line.split_whitespace().nth(1) != Some("200") {
        return Err(format!("GET {path}: {}", line.trim()));
    }
    loop {
        line.clear();
        reader.read_line(&mut line).map_err(err)?;
        if line.trim().is_empty() {
            break;
        }
    }
    let mut out = Streamed {
        started: None,
        first_frame: None,
        last_byte: Instant::now(),
        bytes: 0,
        csv: String::new(),
        xyz: String::new(),
        completed: false,
    };
    let mut pending = Vec::new();
    loop {
        line.clear();
        reader.read_line(&mut line).map_err(err)?;
        let size = usize::from_str_radix(line.trim(), 16)
            .map_err(|e| format!("GET {path}: bad chunk size {line:?}: {e}"))?;
        let mut chunk = vec![0; size + 2];
        reader.read_exact(&mut chunk).map_err(err)?;
        let now = Instant::now();
        if size == 0 {
            break;
        }
        out.last_byte = now;
        out.bytes += size;
        pending.extend_from_slice(&chunk[..size]);
        while let Some(nl) = pending.iter().position(|&b| b == b'\n') {
            let record: Vec<u8> = pending.drain(..=nl).collect();
            let text = String::from_utf8_lossy(&record);
            let json = Json::parse(text.trim()).map_err(|e| format!("stream record: {e}"))?;
            let field = |k: &str| json.get(k).and_then(|v| v.as_str().ok()).unwrap_or("");
            match field("type") {
                "started" => out.started = out.started.or(Some(now)),
                "observable" => out.first_frame = out.first_frame.or(Some(now)),
                "result" => {
                    out.csv = field("csv").to_string();
                    out.xyz = field("xyz").to_string();
                }
                "completed" => out.completed = true,
                _ => {}
            }
        }
    }
    Ok(out)
}

/// Replays the job's persistence from outside: one `persist::save_state`
/// of the growing bundle per persist the runner made (step 0, every
/// sampling chunk, the end), into a scratch directory. Returns the total
/// seconds and the seconds of the last (full) bundle.
fn replay_persists(job_dir: &Path, scratch: &Path) -> Result<(f64, f64), String> {
    let st = persist::load_state(job_dir)?.ok_or("job has no persisted state")?;
    std::fs::create_dir_all(scratch).map_err(|e| e.to_string())?;
    let lines: Vec<&str> = st.stream_text.split_inclusive('\n').collect();
    let csv_lines: Vec<&str> = st.csv.split_inclusive('\n').collect();
    // A persist follows each observable frame (and its metrics record).
    let mut cuts = Vec::new();
    for (i, l) in lines.iter().enumerate() {
        if l.contains("\"type\":\"observable\"") {
            cuts.push((i + 2).min(lines.len()));
        }
    }
    cuts.push(lines.len());
    let (mut total, mut last) = (0.0, 0.0);
    for (k, &cut) in cuts.iter().enumerate() {
        let state = PersistedState {
            status: st.status.clone(),
            stream_text: lines[..cut].concat(),
            stream_done: k + 1 == cuts.len(),
            csv: csv_lines[..(k + 2).min(csv_lines.len())].concat(),
            checkpoint_json: st.checkpoint_json.clone(),
        };
        let t = Instant::now();
        persist::save_state(scratch, &state).map_err(|e| e.to_string())?;
        last = secs(t);
        total += last;
    }
    Ok((total, last))
}

/// The job registry's snapshot from a `/jobs/{id}/metrics.json` body.
fn job_snapshot(body: &[u8]) -> Option<Snapshot> {
    let doc = TJson::parse(&String::from_utf8_lossy(body)).ok()?;
    match doc.get("snapshots")? {
        TJson::Arr(snaps) => Snapshot::from_json(snaps.first()?).ok(),
        _ => None,
    }
}

/// Jobs and requests attempted in one run, and what failed.
#[derive(Default)]
struct Attempts {
    attempted: u64,
    failed: u64,
    failures: Vec<String>,
}

impl Attempts {
    fn request(
        &mut self,
        addr: SocketAddr,
        method: &str,
        path: &str,
        body: &str,
        want: u16,
    ) -> Option<Vec<u8>> {
        self.attempted += 1;
        match request(addr, method, path, body) {
            Ok((code, body)) if code == want => Some(body),
            Ok((code, body)) => {
                self.fail(format!(
                    "{method} {path}: status {code}: {}",
                    String::from_utf8_lossy(&body)
                ));
                None
            }
            Err(e) => {
                self.fail(e);
                None
            }
        }
    }

    fn fail(&mut self, msg: String) {
        self.failed += 1;
        self.failures.push(msg);
    }
}

/// Runs jobs `first_job..first_job + JOBS_PER_SERVER` on one server. Job
/// `j` runs the workload's deck with `sample_seed(seed, j)`; job 0's
/// artifacts are kept in `dir/job-0` for the parent's cross-checks.
pub fn run(
    workload: &Workload,
    seed: u64,
    first_job: usize,
    model: &Path,
    dir: &Path,
    traced: bool,
) -> Result<SampleOut, String> {
    let t0 = Instant::now();
    let state_dir = dir.join("state");
    let opts = ServeOptions {
        state_dir: state_dir.clone(),
        ..ServeOptions::default()
    };
    let mut starts = Vec::new();
    let mut server: Option<JobServer> = None;
    for _ in 0..SERVER_STARTS {
        if let Some(mut old) = server.take() {
            old.shutdown();
        }
        let t = Instant::now();
        server = Some(JobServer::start(opts.clone())?);
        starts.push(secs(t));
    }
    let mut server = server.expect("at least one start");
    let setup_s = median(&starts);
    let setup_phase_s = secs(t0);
    let addr = server.local_addr();

    let mut attempts = Attempts::default();
    let mut samples = Vec::new();
    let mut layer_sums = Metrics::new();
    let jobs_start = Instant::now();
    // Client time after each job's last byte: its checkpoint fetch and
    // checks, plus the persist replay in traced runs.
    let mut checks_s = 0.0;
    for j in first_job..first_job + JOBS_PER_SERVER {
        let job_dir = dir.join(format!("job-{j}"));
        std::fs::create_dir_all(&job_dir).map_err(|e| e.to_string())?;
        let deck = workload.deck(sample_seed(seed, j), model, &job_dir);
        attempts.attempted += 1;
        let text = deck.to_json().map_err(|e| e.to_string())?;
        let syncs0 = durability_syncs();
        let t_submit = Instant::now();
        let Some(body) = attempts.request(addr, "POST", "/jobs", &text, 201) else {
            attempts.failed += 1;
            continue;
        };
        let submit_ms = secs(t_submit) * 1e3;
        let id = Json::parse(&String::from_utf8_lossy(&body))
            .ok()
            .and_then(|j| j.get("id").and_then(|v| v.as_str().ok()).map(String::from))
            .ok_or("POST /jobs: response without an id")?;
        attempts.attempted += 1;
        let streamed = match follow_stream(addr, &id) {
            Ok(s) => s,
            Err(e) => {
                attempts.fail(e);
                attempts.failed += 1;
                continue;
            }
        };
        let turnaround = streamed.last_byte.duration_since(t_submit).as_secs_f64();
        let fsyncs = durability_syncs() - syncs0;
        let Some(ck_text) =
            attempts.request(addr, "GET", &format!("/jobs/{id}/checkpoint"), "", 200)
        else {
            attempts.failed += 1;
            continue;
        };
        let ck_text = String::from_utf8_lossy(&ck_text).into_owned();
        let ck = Checkpoint::from_json_str(&ck_text).map_err(|e| format!("job checkpoint: {e}"))?;
        let mut job_failures = Vec::new();
        if !streamed.completed {
            job_failures.push(format!("job {id} did not complete"));
        }
        job_failures.extend(
            census_check(fresh_lattice(&deck)?.census(), ck.lattice.census())
                .into_iter()
                .map(|m| format!("job {id}: {m}")),
        );
        if ck.stats.steps != deck.max_steps {
            job_failures.push(format!(
                "job {id} ran {} of {} steps",
                ck.stats.steps, deck.max_steps
            ));
        }
        if !job_failures.is_empty() {
            attempts.failed += 1;
            attempts.failures.extend(job_failures);
        }
        if j == 0 {
            for (name, text) in [
                (&deck.checkpoint_output, &ck_text),
                (&deck.xyz_output, &streamed.xyz),
                (&deck.csv_output, &streamed.csv),
            ] {
                std::fs::write(name, text).map_err(|e| format!("cannot write {name}: {e}"))?;
            }
        }
        let first_frame = streamed
            .first_frame
            .map_or(f64::NAN, |t| t.duration_since(t_submit).as_secs_f64());
        samples.push(Metrics::from([
            (
                "hops_per_s".into(),
                ratio(ck.stats.steps as f64, turnaround),
            ),
            ("sim_s_per_wall_s".into(), ratio(ck.stats.time, turnaround)),
            ("setup_s".into(), setup_s),
            ("wall_s".into(), turnaround),
            ("job_turnaround_s".into(), turnaround),
            ("first_frame_s".into(), first_frame),
        ]));
        if traced {
            let job_state = state_dir.join("jobs").join(&id);
            let state_bytes = std::fs::metadata(job_state.join(persist::STATE_FILE))
                .map_or(0, |m| m.len()) as f64;
            let (persist_total, persist_last) =
                replay_persists(&job_state, &dir.join("persist-replay"))?;
            let packed =
                std::fs::read(job_state.join(persist::STATE_FILE)).map_err(|e| e.to_string())?;
            let raw = lz::decompress(&packed).map_err(|e| e.to_string())?;
            let t = Instant::now();
            let _ = lz::compress(&raw);
            let lz_ms = secs(t) * 1e3;
            let queue_wait = streamed
                .started
                .map_or(0.0, |t| t.duration_since(t_submit).as_secs_f64());
            let snap = attempts
                .request(addr, "GET", &format!("/jobs/{id}/metrics.json"), "", 200)
                .and_then(|body| job_snapshot(&body))
                .unwrap_or_default();
            let timer_s = |k: &str| snap.timer(k).map_or(0, |t| t.total_ns) as f64 * 1e-9;
            let counter = |k: &str| snap.counter(k).unwrap_or(0) as f64;
            let (hits, misses) = (
                counter(keys::ENERGY_CACHE_HIT),
                counter(keys::ENERGY_CACHE_MISS),
            );
            for (k, v) in [
                ("core.step_s", timer_s(keys::STEP)),
                ("core.memo_hit_rate", ratio(hits, hits + misses)),
                (
                    "core.vacancy_cache_hit_rate",
                    snap.cache_hit_rate().unwrap_or(0.0),
                ),
                ("operators.feature_s", timer_s(keys::OP_FEATURE)),
                ("operators.kernel_s", timer_s(keys::OP_KERNEL_FUSED)),
                ("serve.submit_ms", submit_ms),
                ("serve.queue_wait_s", queue_wait),
                ("serve.stream_bytes_per_job", streamed.bytes as f64),
                ("serve.fsyncs_per_job", fsyncs as f64),
                ("serve.state_bytes", state_bytes),
                ("serve.persist_ms", persist_last * 1e3),
                ("compat.lz_compress_ms", lz_ms),
                ("regime.persist_share", persist_total / turnaround),
                ("serve.job_s", turnaround),
                ("serve.persist_s", persist_total),
            ] {
                *layer_sums.entry(k.into()).or_default() += v;
            }
        }
        checks_s += streamed.last_byte.elapsed().as_secs_f64();
    }
    let jobs_s = secs(jobs_start);
    server.shutdown();
    let peak = peak_rss_mb();
    let jobs_per_s = samples.len() as f64 / jobs_s;
    for s in &mut samples {
        s.insert("peak_rss_mb".into(), peak);
        s.insert("jobs_per_s".into(), jobs_per_s);
    }
    let wall_s = secs(t0);
    let mut layer = Metrics::new();
    if traced && !samples.is_empty() {
        let n = samples.len() as f64;
        let submit_s = layer_sums["serve.submit_ms"] * 1e-3;
        let queue_s = layer_sums["serve.queue_wait_s"];
        let persist_s = layer_sums.remove("serve.persist_s").unwrap_or(0.0);
        let job_s = layer_sums.remove("serve.job_s").unwrap_or(0.0);
        for (k, v) in layer_sums {
            layer.insert(k, v / n);
        }
        layer.insert("serve.jobs".into(), n);
        crate::serial::attribute(
            &mut layer,
            wall_s,
            &[
                ("setup", setup_phase_s),
                ("serve_submit", submit_s),
                ("serve_queue_wait", queue_s),
                ("serve_persist", persist_s),
                ("serve_job_rest", job_s - submit_s - queue_s - persist_s),
                ("bench_checks", checks_s),
            ],
        );
    }
    Ok(SampleOut {
        samples,
        layer,
        failures: attempts.failures,
        attempted: attempts.attempted,
        failed: attempts.failed,
    })
}
