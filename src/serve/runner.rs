//! The per-job execution loop: one engine slot stepping one job.
//!
//! The runner mirrors the single-shot CLI run loop (`src/main.rs::run`)
//! exactly — same chunking (`sample_every`, capped by the remaining step
//! budget), same `t = 0` observable row on a fresh start, same absolute
//! step/time termination — and builds its engine through the shared
//! [`crate::driver`] path, so a deck run through `tensorkmc serve`
//! produces the bit-identical trajectory (CSV, XYZ, checkpoint) to
//! `tensorkmc -in deck.json`. The only stream content that is not
//! deterministic is wall-clock metering (`wall_s`, `steps_per_s`, timer
//! nanoseconds) in the `tensorkmc.metrics.v1` records.
//!
//! At every sampling chunk the runner persists the compressed state
//! bundle (status + stream + CSV + checkpoint, one atomic file — see
//! [`super::persist`]), then checks the server stop flag and the job's
//! cancel flag. Interruption therefore always lands on a chunk boundary:
//! a re-adopted job resumes with its chunks aligned to the uninterrupted
//! schedule, which is what keeps the recovered trajectory byte-identical.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Instant;

use tensorkmc_analysis::{analyze_clusters, to_xyz, ObservableRow, CSV_HEADER};
use tensorkmc_compat::codec::JsonCodec;
use tensorkmc_compat::json::Json;
use tensorkmc_core::Checkpoint;
use tensorkmc_lattice::Species;
use tensorkmc_telemetry::{sample_record, summary_record, RunSummary, SamplePoint};

use super::job::{Job, JobError, JobPhase};
use super::persist::{self, PersistedState};
use crate::driver;
use crate::input::InputDeck;

/// Schema tag of the job server's own stream records (lifecycle events,
/// observable frames, the final result). `tensorkmc.metrics.v1` sample
/// and summary records ride in the same stream under their own schema.
pub const SERVE_SCHEMA: &str = "tensorkmc.serve.v1";

/// Runs `job` on the calling thread until it completes, fails, is
/// cancelled, or is drained to a checkpoint (`stop`). `thread_budget`, when
/// non-zero, overrides the deck's `refresh_threads` so concurrent engines
/// share the machine (an execution knob — never changes the trajectory).
pub fn run_job(job: &Arc<Job>, stop: &AtomicBool, thread_budget: u64) {
    if stop.load(Ordering::SeqCst) {
        return; // popped mid-shutdown: stays queued on disk, re-adopted next start
    }
    if job.cancel.load(Ordering::SeqCst) {
        finish_without_engine(job, JobPhase::Cancelled);
        return;
    }
    if let Err(err) = run_job_inner(job, stop, thread_budget) {
        let record = event(job, "failed", [("error", err.to_json())]);
        job.stream.append_record(&record);
        job.set_phase(JobPhase::Failed, Some(err));
        persist_carrying_prior(job);
        job.stream.finish();
    }
}

fn run_job_inner(
    job: &Arc<Job>,
    stop: &AtomicBool,
    thread_budget: u64,
) -> Result<(), JobError> {
    let deck = effective_deck(&job.deck, thread_budget);

    // Adoption: a persisted checkpoint means this job already ran (here or
    // in a previous server life); resume it instead of starting over. The
    // checkpoint text is kept verbatim so re-persisted bytes never drift.
    let prior = persist::load_state(&job.dir).map_err(JobError::internal)?;
    let (mut csv, resume) = match prior {
        Some(st) if st.checkpoint_json.is_some() => {
            let text = st.checkpoint_json.unwrap();
            let ck = Checkpoint::from_json_str(&text)
                .map_err(|e| JobError::internal(format!("corrupt persisted checkpoint: {e}")))?;
            (st.csv, Some(ck))
        }
        _ => (String::new(), None),
    };
    let resumed_at = resume.as_ref().map(|ck| ck.stats.steps);

    job.set_phase(JobPhase::Running, None);
    job.stream.append_record(&event(
        job,
        "started",
        [(
            "resumed_at_step",
            match resumed_at {
                Some(n) => Json::UInt(n),
                None => Json::Null,
            },
        )],
    ));

    let setup = driver::build_engine(&deck, resume, Some(&job.registry))
        .map_err(JobError::engine)?;
    let mut engine = setup.engine;
    let volume = engine.lattice().pbox().volume_m3();
    let shells = engine.geometry().shells.clone();

    if resumed_at.is_none() {
        // Fresh start: the t = 0 row, exactly as the CLI emits it.
        let r0 = analyze_clusters(engine.lattice(), Species::Cu, &shells, 1);
        let row = ObservableRow::from_report(engine.time(), engine.stats().steps, &r0, volume);
        csv = String::from(CSV_HEADER);
        csv.push_str(&row.to_csv_line());
        csv.push('\n');
        job.stream.append_record(&observable_record(job, &row));
    }
    job.set_progress(engine.stats().steps, engine.time());
    // Persist immediately (step-0 checkpoint on a fresh start) so even a
    // job killed before its first chunk resumes instead of restarting —
    // and never duplicates the t = 0 row.
    persist_with_checkpoint(job, &csv, engine.checkpoint().to_json_string())?;

    let wall_start = Instant::now();
    while engine.stats().steps < deck.max_steps && engine.time() < deck.max_time {
        if stop.load(Ordering::SeqCst) {
            job.set_phase(JobPhase::Interrupted, None);
            job.stream.append_record(&event(job, "interrupted", []));
            persist_with_checkpoint(job, &csv, engine.checkpoint().to_json_string())?;
            job.stream.finish();
            return Ok(());
        }
        if job.cancel.load(Ordering::SeqCst) {
            job.set_phase(JobPhase::Cancelled, None);
            job.stream.append_record(&event(job, "cancelled", []));
            persist_with_checkpoint(job, &csv, engine.checkpoint().to_json_string())?;
            job.stream.finish();
            return Ok(());
        }
        let chunk = deck
            .sample_every
            .min(deck.max_steps - engine.stats().steps)
            .max(1);
        let chunk_start = Instant::now();
        let steps_before = engine.stats().steps;
        engine
            .run_steps(chunk)
            .map_err(|e| JobError::engine(e.to_string()))?;
        let chunk_wall = chunk_start.elapsed().as_secs_f64();
        let steps_per_s = if chunk_wall > 0.0 {
            (engine.stats().steps - steps_before) as f64 / chunk_wall
        } else {
            0.0
        };
        let r = analyze_clusters(engine.lattice(), Species::Cu, &shells, 1);
        let row = ObservableRow::from_report(engine.time(), engine.stats().steps, &r, volume);
        csv.push_str(&row.to_csv_line());
        csv.push('\n');
        job.stream.append_record(&observable_record(job, &row));
        let point = SamplePoint {
            step: engine.stats().steps,
            sim_time: engine.time(),
            wall_s: wall_start.elapsed().as_secs_f64(),
            steps_per_s,
        };
        job.stream
            .append_record(&sample_record(&point, &job.registry.snapshot()));
        job.set_progress(engine.stats().steps, engine.time());
        persist_with_checkpoint(job, &csv, engine.checkpoint().to_json_string())?;
    }

    // Completed: stream the full artifacts (what the CLI writes to files),
    // the metrics summary, and the terminal event, then persist.
    if let Some(tc) = &setup.traffic {
        tc.report().record_into(&job.registry);
    }
    let stats = engine.stats();
    job.stream.append_record(&Json::obj([
        ("schema", Json::Str(SERVE_SCHEMA.to_string())),
        ("type", Json::Str("result".to_string())),
        ("job", Json::Str(job.id.clone())),
        ("csv", Json::Str(csv.clone())),
        ("xyz", Json::Str(to_xyz(engine.lattice(), false))),
    ]));
    let run = RunSummary {
        steps: stats.steps,
        sim_time: stats.time,
        wall_s: wall_start.elapsed().as_secs_f64(),
        memory_bytes: engine.memory_bytes() as u64,
    };
    job.stream
        .append_record(&summary_record(&run, &job.registry.snapshot()));
    job.stream.append_record(&event(job, "completed", []));
    job.set_phase(JobPhase::Completed, None);
    persist_with_checkpoint(job, &csv, engine.checkpoint().to_json_string())?;
    job.stream.finish();
    Ok(())
}

/// The deck as this server actually runs it: `thread_budget` (when set)
/// replaces `refresh_threads` so N concurrent engines divide the cores.
fn effective_deck(deck: &InputDeck, thread_budget: u64) -> InputDeck {
    let mut deck = deck.clone();
    if thread_budget > 0 {
        deck.refresh_threads = thread_budget;
    }
    deck
}

/// Persists the atomic state bundle with the given checkpoint text.
fn persist_with_checkpoint(job: &Job, csv: &str, checkpoint: String) -> Result<(), JobError> {
    persist_bundle(job, csv.to_string(), Some(checkpoint))
}

/// Persists keeping whatever CSV/checkpoint a prior bundle held (failure
/// and no-engine paths, where there is nothing fresher).
fn persist_carrying_prior(job: &Job) {
    let prior = persist::load_state(&job.dir).ok().flatten();
    let (csv, checkpoint) = match prior {
        Some(st) => (st.csv, st.checkpoint_json),
        None => (String::new(), None),
    };
    let _ = persist_bundle(job, csv, checkpoint);
}

fn persist_bundle(
    job: &Job,
    csv: String,
    checkpoint_json: Option<String>,
) -> Result<(), JobError> {
    let status = job.status.lock().unwrap().clone();
    let (stream_text, _) = job.stream.snapshot();
    let state = PersistedState {
        stream_done: status.phase.is_terminal(),
        status,
        stream_text,
        csv,
        checkpoint_json,
    };
    persist::save_state(&job.dir, &state)
        .map_err(|e| JobError::internal(format!("cannot persist job state: {e}")))
}

/// Terminal transition for a job that never built an engine (cancelled
/// while queued).
fn finish_without_engine(job: &Arc<Job>, phase: JobPhase) {
    job.stream.append_record(&event(job, phase.as_str(), []));
    job.set_phase(phase, None);
    persist_carrying_prior(job);
    job.stream.finish();
}

/// A `tensorkmc.serve.v1` lifecycle record.
fn event<const N: usize>(job: &Job, kind: &str, extra: [(&'static str, Json); N]) -> Json {
    let mut pairs = vec![
        ("schema", Json::Str(SERVE_SCHEMA.to_string())),
        ("type", Json::Str(kind.to_string())),
        ("job", Json::Str(job.id.clone())),
    ];
    pairs.extend(extra);
    Json::obj(pairs)
}

/// A `tensorkmc.serve.v1` observable frame (one CSV row, as JSON).
fn observable_record(job: &Job, row: &ObservableRow) -> Json {
    Json::obj([
        ("schema", Json::Str(SERVE_SCHEMA.to_string())),
        ("type", Json::Str("observable".to_string())),
        ("job", Json::Str(job.id.clone())),
        ("time_s", Json::Num(row.time)),
        ("steps", Json::UInt(row.steps)),
        ("isolated", Json::UInt(row.isolated as u64)),
        ("n_clusters", Json::UInt(row.n_clusters as u64)),
        ("max_size", Json::UInt(row.max_size as u64)),
        ("density_per_m3", Json::Num(row.density)),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::serve::job::JobStatus;
    use crate::serve::stream::JobStream;
    use std::path::PathBuf;
    use std::sync::Mutex;
    use tensorkmc_telemetry::Registry;

    fn tiny_deck() -> InputDeck {
        InputDeck {
            cells: 10,
            model: crate::input::ModelSource::Eam,
            max_steps: 6,
            sample_every: 2,
            refresh_threads: 1,
            seed: 11,
            ..InputDeck::default()
        }
    }

    fn make_job(tag: &str, deck: InputDeck) -> Arc<Job> {
        let dir = std::env::temp_dir().join(format!(
            "tkmc-runner-{tag}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        std::fs::create_dir_all(&dir).unwrap();
        Arc::new(Job {
            id: format!("job-{tag}"),
            deck_text: "{}".to_string(),
            deck,
            dir: PathBuf::from(&dir),
            status: Mutex::new(JobStatus::queued()),
            cancel: AtomicBool::new(false),
            stream: JobStream::new(),
            registry: Arc::new(Registry::new()),
            outcomes: Arc::new(Registry::new()),
        })
    }

    #[test]
    fn completes_a_tiny_eam_job_and_persists_terminal_state() {
        let job = make_job("complete", tiny_deck());
        let stop = AtomicBool::new(false);
        run_job(&job, &stop, 0);
        assert_eq!(job.phase(), JobPhase::Completed);
        let (text, done) = job.stream.snapshot();
        assert!(done);
        assert!(text.contains("\"type\":\"result\""), "stream: {text}");
        assert!(text.contains("\"type\":\"completed\""));
        let st = persist::load_state(&job.dir).unwrap().unwrap();
        assert_eq!(st.status.phase, JobPhase::Completed);
        assert!(st.stream_done);
        assert_eq!(st.status.steps, 6);
        // The persisted checkpoint is resumable and at the final step.
        let ck = Checkpoint::from_json_str(st.checkpoint_json.as_deref().unwrap()).unwrap();
        assert_eq!(ck.stats.steps, 6);
        // CSV: header + t=0 row + 3 sampled chunks.
        assert_eq!(st.csv.lines().count(), 5, "csv: {}", st.csv);
        std::fs::remove_dir_all(&job.dir).ok();
    }

    #[test]
    fn interrupt_resume_matches_uninterrupted_checkpoint_bytes() {
        // Reference: uninterrupted run.
        let reference = make_job("ref", tiny_deck());
        run_job(&reference, &AtomicBool::new(false), 0);
        let ref_ck = persist::load_state(&reference.dir)
            .unwrap()
            .unwrap()
            .checkpoint_json
            .unwrap();

        // A job popped with stop already raised runs nothing and stays
        // queued (it would be re-adopted by the next server start).
        let job = make_job("intr", tiny_deck());
        run_job(&job, &AtomicBool::new(true), 0);
        assert_eq!(job.phase(), JobPhase::Queued);
        let stop = AtomicBool::new(false);

        // Deterministic mid-run interruption: run the same deck capped at
        // 2 steps (persists a step-2 checkpoint), then re-adopt the
        // directory with the full 6-step budget — exactly what a server
        // restart does with a drained job.
        let mut short = tiny_deck();
        short.max_steps = 2;
        let job2 = make_job("short", short);
        run_job(&job2, &stop, 0);
        assert_eq!(job2.phase(), JobPhase::Completed);
        // Re-adopt with the full budget: resumes from step 2 and finishes.
        let full = make_job_with_dir("short", tiny_deck(), &job2.dir);
        run_job(&full, &stop, 0);
        assert_eq!(full.phase(), JobPhase::Completed);
        let resumed_ck = persist::load_state(&full.dir)
            .unwrap()
            .unwrap()
            .checkpoint_json
            .unwrap();
        assert_eq!(
            resumed_ck, ref_ck,
            "resumed trajectory must land on byte-identical checkpoint"
        );
        let resumed_csv = persist::load_state(&full.dir).unwrap().unwrap().csv;
        let ref_csv = persist::load_state(&reference.dir).unwrap().unwrap().csv;
        assert_eq!(resumed_csv, ref_csv, "resumed CSV must match uninterrupted");
        std::fs::remove_dir_all(&job.dir).ok();
        std::fs::remove_dir_all(&job2.dir).ok();
        std::fs::remove_dir_all(&reference.dir).ok();
    }

    fn make_job_with_dir(tag: &str, deck: InputDeck, dir: &PathBuf) -> Arc<Job> {
        Arc::new(Job {
            id: format!("job-{tag}"),
            deck_text: "{}".to_string(),
            deck,
            dir: dir.clone(),
            status: Mutex::new(JobStatus::queued()),
            cancel: AtomicBool::new(false),
            stream: JobStream::new(),
            registry: Arc::new(Registry::new()),
            outcomes: Arc::new(Registry::new()),
        })
    }

    #[test]
    fn cancelled_while_queued_never_builds_an_engine() {
        let job = make_job("cancel", tiny_deck());
        job.cancel.store(true, Ordering::SeqCst);
        run_job(&job, &AtomicBool::new(false), 0);
        assert_eq!(job.phase(), JobPhase::Cancelled);
        assert!(job.stream.is_done());
        let st = persist::load_state(&job.dir).unwrap().unwrap();
        assert_eq!(st.status.phase, JobPhase::Cancelled);
        assert!(st.checkpoint_json.is_none());
        std::fs::remove_dir_all(&job.dir).ok();
    }
}
