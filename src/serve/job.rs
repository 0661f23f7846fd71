//! Job identity, lifecycle states, and status reporting.

use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use tensorkmc_compat::json::{Json, JsonError};
use tensorkmc_telemetry::Registry;

use super::stream::JobStream;
use crate::input::InputDeck;

/// Lifecycle phase of a job. Transitions:
///
/// ```text
/// queued → running → completed | failed | cancelled
///              ↘ interrupted → (server restart) → queued → running → ...
/// cancelled can also strike while queued.
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JobPhase {
    /// Waiting for an engine slot.
    Queued,
    /// An engine is stepping it right now.
    Running,
    /// Ran to its step/time budget; results are in the stream.
    Completed,
    /// The engine or evaluator errored; see `error` in the status.
    Failed,
    /// Cancelled by a client; the last checkpoint is retained.
    Cancelled,
    /// The server drained it to a checkpoint while shutting down; a
    /// restarted server re-adopts and resumes it.
    Interrupted,
}

impl JobPhase {
    /// Wire name of the phase.
    pub fn as_str(self) -> &'static str {
        match self {
            JobPhase::Queued => "queued",
            JobPhase::Running => "running",
            JobPhase::Completed => "completed",
            JobPhase::Failed => "failed",
            JobPhase::Cancelled => "cancelled",
            JobPhase::Interrupted => "interrupted",
        }
    }

    /// Parses a wire name.
    pub fn from_str(s: &str) -> Result<Self, JsonError> {
        Ok(match s {
            "queued" => JobPhase::Queued,
            "running" => JobPhase::Running,
            "completed" => JobPhase::Completed,
            "failed" => JobPhase::Failed,
            "cancelled" => JobPhase::Cancelled,
            "interrupted" => JobPhase::Interrupted,
            other => return Err(JsonError::new(format!("unknown job phase {other:?}"))),
        })
    }

    /// Whether the job can never run again (no adoption on restart).
    pub fn is_terminal(self) -> bool {
        matches!(
            self,
            JobPhase::Completed | JobPhase::Failed | JobPhase::Cancelled
        )
    }
}

/// Mutable progress snapshot of a job.
#[derive(Debug, Clone)]
pub struct JobStatus {
    /// Current lifecycle phase.
    pub phase: JobPhase,
    /// Executed KMC steps (absolute, survives resume).
    pub steps: u64,
    /// Simulated time, s.
    pub sim_time: f64,
    /// Structured failure, when `phase` is `failed`.
    pub error: Option<JobError>,
}

impl JobStatus {
    /// A fresh queued status.
    pub fn queued() -> Self {
        JobStatus {
            phase: JobPhase::Queued,
            steps: 0,
            sim_time: 0.0,
            error: None,
        }
    }

    /// JSON form (without the id — the caller adds context).
    pub fn to_json(&self) -> Json {
        let mut pairs = vec![
            ("phase", Json::Str(self.phase.as_str().to_string())),
            ("steps", Json::UInt(self.steps)),
            ("sim_time_s", Json::Num(self.sim_time)),
        ];
        if let Some(err) = &self.error {
            pairs.push(("error", err.to_json()));
        }
        Json::obj(pairs)
    }

    /// Parses the JSON form back (persistence round trip).
    pub fn from_json(v: &Json) -> Result<Self, JsonError> {
        let phase = JobPhase::from_str(
            v.get("phase")
                .ok_or_else(|| JsonError::new("status: missing phase"))?
                .as_str()?,
        )?;
        let steps = v
            .get("steps")
            .ok_or_else(|| JsonError::new("status: missing steps"))?
            .as_u64()?;
        let sim_time = v
            .get("sim_time_s")
            .ok_or_else(|| JsonError::new("status: missing sim_time_s"))?
            .as_f64()?;
        let error = match v.get("error") {
            Some(e) => Some(JobError::from_json(e)?),
            None => None,
        };
        Ok(JobStatus {
            phase,
            steps,
            sim_time,
            error,
        })
    }
}

/// A structured per-job failure: the job fails, the server does not.
#[derive(Debug, Clone)]
pub struct JobError {
    /// Failure class: `engine` (stepping/evaluator error) or `internal`
    /// (persistence, adoption, or server-side wiring).
    pub kind: String,
    /// Human-readable cause.
    pub message: String,
}

impl JobError {
    /// An engine/evaluator failure.
    pub fn engine(message: impl Into<String>) -> Self {
        JobError {
            kind: "engine".to_string(),
            message: message.into(),
        }
    }

    /// A server-side failure (persistence, adoption).
    pub fn internal(message: impl Into<String>) -> Self {
        JobError {
            kind: "internal".to_string(),
            message: message.into(),
        }
    }

    /// JSON form: `{"kind": ..., "message": ...}`.
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("kind", Json::Str(self.kind.clone())),
            ("message", Json::Str(self.message.clone())),
        ])
    }

    /// Parses the JSON form back.
    pub fn from_json(v: &Json) -> Result<Self, JsonError> {
        Ok(JobError {
            kind: v
                .get("kind")
                .ok_or_else(|| JsonError::new("error: missing kind"))?
                .as_str()?
                .to_string(),
            message: v
                .get("message")
                .ok_or_else(|| JsonError::new("error: missing message"))?
                .as_str()?
                .to_string(),
        })
    }
}

/// One accepted job: deck, lifecycle state, stream, telemetry, and its
/// on-disk directory.
pub struct Job {
    /// Server-assigned identifier (`job-000001`, monotonic).
    pub id: String,
    /// The parsed deck.
    pub deck: InputDeck,
    /// The submitted deck text, persisted verbatim.
    pub deck_text: String,
    /// Persistence directory (`<state_dir>/jobs/<id>`).
    pub dir: PathBuf,
    /// Progress and phase.
    pub status: Mutex<JobStatus>,
    /// Set by `POST /jobs/{id}/cancel`; the runner honours it between
    /// sampling chunks.
    pub cancel: AtomicBool,
    /// The JSONL result stream.
    pub stream: JobStream,
    /// Per-job telemetry registry (usage metering; `GET /jobs/{id}/metrics`).
    pub registry: Arc<Registry>,
    /// The server registry, where [`Job::set_phase`] counts terminal phases
    /// (`serve.jobs.<phase>`).
    pub outcomes: Arc<Registry>,
}

impl Job {
    /// The job's status document, as served by `GET /jobs/{id}`.
    pub fn status_json(&self) -> Json {
        let status = self.status.lock().unwrap();
        let mut pairs = vec![("id", Json::Str(self.id.clone()))];
        if let Json::Obj(fields) = status.to_json() {
            for (k, v) in fields {
                pairs.push((leak_key(k), v));
            }
        }
        pairs.push(("cancel_requested", Json::Bool(self.cancel.load(Ordering::Relaxed))));
        Json::obj(pairs)
    }

    /// Current phase.
    pub fn phase(&self) -> JobPhase {
        self.status.lock().unwrap().phase
    }

    /// Updates the phase (and error, for failures). A terminal phase is
    /// counted under `serve.jobs.<phase>` *before* it is published, so a
    /// client that sees the phase also sees the count.
    pub fn set_phase(&self, phase: JobPhase, error: Option<JobError>) {
        if phase.is_terminal() {
            self.outcomes
                .counter(&format!("serve.jobs.{}", phase.as_str()))
                .inc();
        }
        let mut status = self.status.lock().unwrap();
        status.phase = phase;
        status.error = error;
    }

    /// Updates progress counters.
    pub fn set_progress(&self, steps: u64, sim_time: f64) {
        let mut status = self.status.lock().unwrap();
        status.steps = steps;
        status.sim_time = sim_time;
    }
}

// `Json::obj` borrows &str keys; status field names are a small fixed set,
// so interning them as &'static str via a match avoids leaking arbitrary
// strings.
fn leak_key(k: String) -> &'static str {
    match k.as_str() {
        "phase" => "phase",
        "steps" => "steps",
        "sim_time_s" => "sim_time_s",
        "error" => "error",
        other => panic!("unexpected status key {other:?}"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn status_json_round_trips() {
        let mut s = JobStatus::queued();
        s.phase = JobPhase::Failed;
        s.steps = 1234;
        s.sim_time = 5.5e-6;
        s.error = Some(JobError::engine("evaluator exploded"));
        let back = JobStatus::from_json(&s.to_json()).unwrap();
        assert_eq!(back.phase, JobPhase::Failed);
        assert_eq!(back.steps, 1234);
        assert_eq!(back.sim_time, 5.5e-6);
        let err = back.error.unwrap();
        assert_eq!(err.kind, "engine");
        assert_eq!(err.message, "evaluator exploded");
    }

    #[test]
    fn set_phase_counts_terminal_phases_only() {
        let outcomes = Arc::new(Registry::new());
        let job = Job {
            id: "job-000001".to_string(),
            deck: InputDeck::default(),
            deck_text: "{}".to_string(),
            dir: std::env::temp_dir(),
            status: Mutex::new(JobStatus::queued()),
            cancel: AtomicBool::new(false),
            stream: JobStream::new(),
            registry: Arc::new(Registry::new()),
            outcomes: Arc::clone(&outcomes),
        };
        job.set_phase(JobPhase::Running, None);
        assert_eq!(outcomes.snapshot().counter("serve.jobs.running"), None);
        job.set_phase(JobPhase::Completed, None);
        assert_eq!(job.phase(), JobPhase::Completed);
        assert_eq!(outcomes.snapshot().counter("serve.jobs.completed"), Some(1));
    }

    #[test]
    fn phases_round_trip_and_terminality_is_correct() {
        for phase in [
            JobPhase::Queued,
            JobPhase::Running,
            JobPhase::Completed,
            JobPhase::Failed,
            JobPhase::Cancelled,
            JobPhase::Interrupted,
        ] {
            assert_eq!(JobPhase::from_str(phase.as_str()).unwrap(), phase);
        }
        assert!(JobPhase::Completed.is_terminal());
        assert!(JobPhase::Failed.is_terminal());
        assert!(JobPhase::Cancelled.is_terminal());
        assert!(!JobPhase::Queued.is_terminal());
        assert!(!JobPhase::Running.is_terminal());
        assert!(!JobPhase::Interrupted.is_terminal(), "interrupted jobs are re-adopted");
    }
}
