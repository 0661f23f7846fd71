//! The bounded job queue feeding the engine-slot workers.
//!
//! Submissions beyond the bound are refused up front (`429` at the HTTP
//! layer) instead of building an unbounded backlog — the server's
//! admission control. Worker threads block on [`JobQueue::pop_wait`] and
//! wake on pushes or on shutdown.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::Duration;

use super::job::Job;

/// Returned by [`JobQueue::push`] when the queue is at capacity.
#[derive(Debug)]
pub struct QueueFull {
    /// The configured bound that was hit.
    pub capacity: usize,
}

/// A bounded FIFO of queued jobs.
pub struct JobQueue {
    inner: Mutex<VecDeque<Arc<Job>>>,
    cond: Condvar,
    capacity: usize,
}

impl JobQueue {
    /// A queue admitting at most `capacity` waiting jobs.
    pub fn new(capacity: usize) -> Self {
        JobQueue {
            inner: Mutex::new(VecDeque::new()),
            cond: Condvar::new(),
            capacity,
        }
    }

    /// Enqueues `job`, or refuses it when the bound is reached.
    pub fn push(&self, job: Arc<Job>) -> Result<(), QueueFull> {
        let mut q = self.inner.lock().unwrap();
        if q.len() >= self.capacity {
            return Err(QueueFull {
                capacity: self.capacity,
            });
        }
        q.push_back(job);
        self.cond.notify_one();
        Ok(())
    }

    /// Blocks until a job is available or `stop` is raised; `None` means
    /// the worker should exit. A raised `stop` wins even when jobs are
    /// still queued: drained-at-shutdown jobs stay in their persisted
    /// `queued` state and are re-adopted by the next server start.
    pub fn pop_wait(&self, stop: &AtomicBool) -> Option<Arc<Job>> {
        let mut q = self.inner.lock().unwrap();
        loop {
            if stop.load(Ordering::SeqCst) {
                return None;
            }
            if let Some(job) = q.pop_front() {
                return Some(job);
            }
            // A timed wait so a raised stop flag is noticed even if the
            // waker raced us.
            let (guard, _) = self.cond.wait_timeout(q, Duration::from_millis(100)).unwrap();
            q = guard;
        }
    }

    /// Enqueues bypassing the capacity bound. Restart adoption only:
    /// persisted jobs must never be dropped, even when they outnumber
    /// `capacity` (admission control applies to *new* submissions).
    pub fn requeue(&self, job: Arc<Job>) {
        let mut q = self.inner.lock().unwrap();
        q.push_back(job);
        self.cond.notify_one();
    }

    /// Wakes all waiting workers (shutdown).
    pub fn wake_all(&self) {
        self.cond.notify_all();
    }

    /// Jobs currently waiting (excludes running jobs).
    pub fn len(&self) -> usize {
        self.inner.lock().unwrap().len()
    }

    /// Whether no jobs wait.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::input::InputDeck;
    use crate::serve::job::JobStatus;
    use crate::serve::stream::JobStream;
    use std::sync::Mutex as StdMutex;
    use tensorkmc_telemetry::Registry;

    fn dummy_job(id: &str) -> Arc<Job> {
        Arc::new(Job {
            id: id.to_string(),
            deck: InputDeck::default(),
            deck_text: "{}".to_string(),
            dir: std::env::temp_dir(),
            status: StdMutex::new(JobStatus::queued()),
            cancel: AtomicBool::new(false),
            stream: JobStream::new(),
            registry: Arc::new(Registry::new()),
            outcomes: Arc::new(Registry::new()),
        })
    }

    #[test]
    fn bounded_push_and_fifo_pop() {
        let q = JobQueue::new(2);
        q.push(dummy_job("a")).unwrap();
        q.push(dummy_job("b")).unwrap();
        let err = q.push(dummy_job("c")).unwrap_err();
        assert_eq!(err.capacity, 2);
        let stop = AtomicBool::new(false);
        assert_eq!(q.pop_wait(&stop).unwrap().id, "a");
        assert_eq!(q.pop_wait(&stop).unwrap().id, "b");
        // Capacity freed: c now fits.
        q.push(dummy_job("c")).unwrap();
        assert_eq!(q.len(), 1);
    }

    #[test]
    fn pop_wait_returns_none_on_stop() {
        let q = Arc::new(JobQueue::new(1));
        let stop = Arc::new(AtomicBool::new(false));
        let handle = {
            let (q, stop) = (Arc::clone(&q), Arc::clone(&stop));
            std::thread::spawn(move || q.pop_wait(&stop).is_none())
        };
        std::thread::sleep(Duration::from_millis(20));
        stop.store(true, Ordering::SeqCst);
        q.wake_all();
        assert!(handle.join().unwrap(), "stopped worker exits with None");
    }

    #[test]
    fn stop_outranks_queued_work() {
        let q = JobQueue::new(4);
        q.push(dummy_job("a")).unwrap();
        let stop = AtomicBool::new(true);
        assert!(
            q.pop_wait(&stop).is_none(),
            "drained jobs must stay queued for re-adoption"
        );
        assert_eq!(q.len(), 1);
    }
}
