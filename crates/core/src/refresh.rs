//! The one refresh pipeline: stale vacancy systems → VETs → memo → batched
//! evaluation → rates (paper §3.1–3.5 per vacancy system, folded over the
//! stale set).
//!
//! Both the serial engine and the sublattice rank worker refresh through
//! [`RefreshPipeline::run`]; they differ only in the site view they gather
//! from, the memo they pass and the [`RefreshPlan`]. The execution knobs
//! are parameter values of the one dataflow, not separate code paths:
//!
//! | `batch_systems` | `threads` | behaviour |
//! |---|---|---|
//! | `1` | `1` | the per-system reference loop |
//! | `1` | `n` | per-system evaluations spread over `n` workers |
//! | `0` | any | every memo miss in one evaluator call |
//! | `k` | any | chunks of `k` misses, chunks spread over the workers |
//!
//! Every setting is bit-identical: each system's energies are a pure
//! function of its own VET, and rates reach the propensity tree in
//! ascending system order through [`SumTree::set_many`], which replays the
//! serial update sequence.

use crate::energycache::EnergyMemoCache;
use crate::error::KmcError;
use crate::rates::RateLaw;
use crate::sumtree::SumTree;
use crate::system::VacancySystem;
use std::sync::Arc;
use tensorkmc_compat::pool;
use tensorkmc_lattice::{HalfVec, RegionGeometry, Species};
use tensorkmc_operators::{StateEnergies, VacancyEnergyEvaluator, N_FINAL_STATES};
use tensorkmc_telemetry::{keys, Histogram, Registry, SpanGuard, Timer, Tracer};

/// How one refresh splits and spreads its evaluations.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RefreshPlan {
    /// Memo misses per evaluator call: `0` = all of them in one call.
    pub batch_systems: usize,
    /// Workers for the VET gather and for the chunk evaluations (`0`/`1`
    /// = inline).
    pub threads: usize,
}

/// Cached telemetry handles of the pipeline (see the `kmc.refresh.*` keys).
struct RefreshTelemetry {
    parallel: Arc<Timer>,
    batch: Arc<Histogram>,
    batch_rows: Arc<Histogram>,
    batch_rows_dense: Arc<Histogram>,
    tracer: Option<Arc<Tracer>>,
}

impl RefreshTelemetry {
    fn trace(&self, name: &'static str) -> Option<SpanGuard> {
        self.tracer.as_ref().map(|t| t.span(name))
    }
}

/// The refresh pipeline's reusable state: the index, energy and rate
/// buffers every refresh reuses, and optional telemetry.
#[derive(Default)]
pub struct RefreshPipeline {
    stale: Vec<usize>,
    energies: Vec<Option<StateEnergies>>,
    misses: Vec<usize>,
    rates: Vec<f64>,
    telemetry: Option<RefreshTelemetry>,
}

impl RefreshPipeline {
    /// Records the pipeline's spans and distributions into `registry`.
    pub fn attach_telemetry(&mut self, registry: &Registry) {
        self.telemetry = Some(RefreshTelemetry {
            parallel: registry.timer(keys::REFRESH_PARALLEL),
            batch: registry.histogram(keys::REFRESH_BATCH),
            batch_rows: registry.histogram(keys::REFRESH_BATCH_ROWS),
            batch_rows_dense: registry.histogram(keys::REFRESH_BATCH_ROWS_DENSE),
            tracer: registry.tracer(),
        });
    }

    /// Stops recording telemetry.
    pub fn detach_telemetry(&mut self) {
        self.telemetry = None;
    }

    /// Refreshes every system `is_stale` selects and writes its total rate
    /// into `tree`; returns how many systems were refreshed.
    ///
    /// In order: (1) gather the stale VETs through `species_at` over
    /// `plan.threads`; (2) probe `memo` serially; (3) split the misses into
    /// chunks of `plan.batch_systems`; (4) evaluate the chunks over
    /// `plan.threads` workers, one
    /// [`VacancyEnergyEvaluator::evaluate_states_batch`] per chunk; (5)
    /// insert the new energies into `memo` and derive every system's rates
    /// in ascending order; (6) write the rates with one
    /// [`SumTree::set_many`].
    #[allow(clippy::too_many_arguments)]
    pub fn run<E: VacancyEnergyEvaluator + ?Sized>(
        &mut self,
        systems: &mut [VacancySystem],
        is_stale: impl Fn(usize, &VacancySystem) -> bool,
        species_at: impl Fn(HalfVec) -> Species + Sync,
        geom: &RegionGeometry,
        law: &RateLaw,
        evaluator: &E,
        memo: &mut EnergyMemoCache,
        tree: &mut SumTree,
        plan: RefreshPlan,
    ) -> Result<usize, KmcError> {
        self.stale.clear();
        let mut targets: Vec<&mut VacancySystem> = Vec::new();
        for (i, sys) in systems.iter_mut().enumerate() {
            if is_stale(i, sys) {
                self.stale.push(i);
                targets.push(sys);
            }
        }
        let n = targets.len();
        if n == 0 {
            return Ok(0);
        }
        let threads = plan.threads.max(1);
        let tel = self.telemetry.as_ref();
        let par_span = tel.and_then(|t| {
            t.batch.record(n as u64);
            (threads >= 2).then(|| t.parallel.scoped())
        });

        // (1) A gather only reads the site view, so systems gather
        // concurrently, each into its own VET buffer.
        let gather_trace = tel.and_then(|t| t.trace(keys::REFRESH_GATHER));
        pool::par_chunks_mut_threads(threads, &mut targets, 1, |_, sys| {
            sys[0].gather_vet_with(&species_at, geom)
        });
        drop(gather_trace);

        // (2) The memo is a &mut LRU: probe it in system order.
        self.energies.clear();
        self.energies
            .extend(targets.iter().map(|sys| memo.lookup(&sys.vet)));
        self.misses.clear();
        self.misses
            .extend((0..n).filter(|&j| self.energies[j].is_none()));

        if !self.misses.is_empty() {
            // (3) + (4) Thinning the batch to the misses changes no bits of
            // the rest: every system's energies depend on its VET alone.
            let chunk = match plan.batch_systems {
                0 => self.misses.len(),
                k => k,
            };
            let vets: Vec<&[Species]> = self.misses.iter().map(|&j| &targets[j].vet[..]).collect();
            let chunks: Vec<&[&[Species]]> = vets.chunks(chunk).collect();
            if let Some(t) = tel {
                // Rows the kernel is actually given (packed on the delta
                // path) vs. the dense `(1+8)·N_region` figure.
                let rows = evaluator.rows_per_system();
                let dense = (1 + N_FINAL_STATES) * geom.n_region();
                for c in &chunks {
                    t.batch_rows.record((c.len() * rows) as u64);
                    t.batch_rows_dense.record((c.len() * dense) as u64);
                }
            }
            let computed = pool::par_map_collect_threads(threads, chunks.len(), |c| {
                evaluator.evaluate_states_batch(chunks[c])
            });
            // (5a) Fill in the misses in ascending order.
            for (ids, energies) in self.misses.chunks(chunk).zip(computed) {
                for (&j, e) in ids.iter().zip(energies?) {
                    memo.insert(&targets[j].vet, &e);
                    self.energies[j] = Some(e);
                }
            }
        }
        drop(par_span);

        // (5b) + (6) Rates in ascending system order, one tree write-back.
        let scatter_trace = tel.and_then(|t| t.trace(keys::REFRESH_SCATTER));
        self.rates.clear();
        for (sys, e) in targets.iter_mut().zip(&self.energies) {
            let e = e.as_ref().expect("every stale system has energies");
            sys.apply_energies(geom, law, e);
            self.rates.push(sys.total_rate);
        }
        tree.set_many(&self.stale, &self.rates);
        drop(scatter_trace);
        Ok(n)
    }
}
