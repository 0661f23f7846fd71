//! A timing decorator around any [`VacancyEnergyEvaluator`].
//!
//! It forwards every trait method to the wrapped evaluator, so the engine
//! sees exactly the evaluator it would see bare: the same batched kernel
//! (the trait's default `evaluate_states_batch` loops per system, which
//! would silently un-batch a Sunway run and change its RMA bytes), the same
//! `rows_per_system`, and the same delta/precision knobs. Around the two
//! evaluation entry points it counts calls and systems and accumulates wall
//! time into a shared [`EvalTally`].

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use tensorkmc::lattice::{RegionGeometry, Species};
use tensorkmc::operators::{OperatorError, Precision, StateEnergies, VacancyEnergyEvaluator};

/// Counters one or more [`Timed`] evaluators add into.
#[derive(Debug, Default)]
pub struct EvalTally {
    /// Wall time inside evaluation calls, ns.
    pub ns: AtomicU64,
    /// Evaluation calls (single-system and batch).
    pub calls: AtomicU64,
    /// Vacancy systems evaluated.
    pub systems: AtomicU64,
    /// Systems that arrived in calls carrying at least two systems.
    pub batched_systems: AtomicU64,
}

/// A plain-value copy of an [`EvalTally`].
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct TallySnapshot {
    pub ns: u64,
    pub calls: u64,
    pub systems: u64,
    pub batched_systems: u64,
}

impl EvalTally {
    pub fn snapshot(&self) -> TallySnapshot {
        TallySnapshot {
            ns: self.ns.load(Ordering::Relaxed),
            calls: self.calls.load(Ordering::Relaxed),
            systems: self.systems.load(Ordering::Relaxed),
            batched_systems: self.batched_systems.load(Ordering::Relaxed),
        }
    }

    fn record(&self, start: Instant, systems: usize) {
        self.ns
            .fetch_add(start.elapsed().as_nanos() as u64, Ordering::Relaxed);
        self.calls.fetch_add(1, Ordering::Relaxed);
        self.systems.fetch_add(systems as u64, Ordering::Relaxed);
        if systems >= 2 {
            self.batched_systems
                .fetch_add(systems as u64, Ordering::Relaxed);
        }
    }
}

impl TallySnapshot {
    pub fn since(&self, earlier: &TallySnapshot) -> TallySnapshot {
        TallySnapshot {
            ns: self.ns - earlier.ns,
            calls: self.calls - earlier.calls,
            systems: self.systems - earlier.systems,
            batched_systems: self.batched_systems - earlier.batched_systems,
        }
    }

    pub fn secs(&self) -> f64 {
        self.ns as f64 * 1e-9
    }
}

/// The decorator: `inner` plus the tally it reports into.
pub struct Timed<E> {
    inner: E,
    tally: Arc<EvalTally>,
}

impl<E: VacancyEnergyEvaluator> Timed<E> {
    pub fn new(inner: E, tally: Arc<EvalTally>) -> Self {
        Timed { inner, tally }
    }
}

impl<E: VacancyEnergyEvaluator> VacancyEnergyEvaluator for Timed<E> {
    fn state_energies(&self, vet: &[Species]) -> Result<StateEnergies, OperatorError> {
        let start = Instant::now();
        let out = self.inner.state_energies(vet);
        self.tally.record(start, 1);
        out
    }

    fn evaluate_states_batch(
        &self,
        vets: &[&[Species]],
    ) -> Result<Vec<StateEnergies>, OperatorError> {
        let start = Instant::now();
        let out = self.inner.evaluate_states_batch(vets);
        self.tally.record(start, vets.len());
        out
    }

    fn geometry(&self) -> &RegionGeometry {
        self.inner.geometry()
    }

    fn set_delta_features(&mut self, on: bool) {
        self.inner.set_delta_features(on)
    }

    fn set_precision(&mut self, precision: Precision) {
        self.inner.set_precision(precision)
    }

    fn rows_per_system(&self) -> usize {
        self.inner.rows_per_system()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tensorkmc::lattice::RegionGeometry;
    use tensorkmc::nnp::{ModelConfig, NnpModel};
    use tensorkmc::operators::{NnpDirectEvaluator, SunwayEvaluator};
    use tensorkmc::potential::FeatureSet;
    use tensorkmc::sunway::CgConfig;
    use tensorkmc_compat::rng::{Rng, StdRng};

    fn model() -> NnpModel {
        let fs = FeatureSet::small(8);
        let cfg = ModelConfig {
            channels: vec![fs.n_features(), 16, 8, 1],
            rcut: 4.5,
        };
        NnpModel::new(fs, &cfg, &mut StdRng::seed_from_u64(3))
    }

    fn geom() -> Arc<RegionGeometry> {
        Arc::new(RegionGeometry::new(2.87, 4.5).unwrap())
    }

    /// Random VETs with the vacancy at the centre and a few Cu atoms.
    fn vets(geom: &RegionGeometry, n: usize) -> Vec<Vec<Species>> {
        let mut rng = StdRng::seed_from_u64(17);
        (0..n)
            .map(|_| {
                (0..geom.n_all())
                    .map(|i| match i {
                        0 => Species::Vacancy,
                        _ if rng.gen_range(0..10) == 0 => Species::Cu,
                        _ => Species::Fe,
                    })
                    .collect()
            })
            .collect()
    }

    fn bits(e: &StateEnergies) -> Vec<u64> {
        std::iter::once(e.initial)
            .chain(e.finals)
            .map(f64::to_bits)
            .collect()
    }

    #[test]
    fn energies_are_bit_identical_to_the_bare_evaluator() {
        let (m, g) = (model(), geom());
        let bare = NnpDirectEvaluator::new(&m, Arc::clone(&g));
        let tally = Arc::new(EvalTally::default());
        let timed = Timed::new(
            NnpDirectEvaluator::new(&m, Arc::clone(&g)),
            Arc::clone(&tally),
        );
        let vets = vets(&g, 5);
        let refs: Vec<&[Species]> = vets.iter().map(Vec::as_slice).collect();
        for vet in &refs {
            assert_eq!(
                bits(&bare.state_energies(vet).unwrap()),
                bits(&timed.state_energies(vet).unwrap())
            );
        }
        let a = bare.evaluate_states_batch(&refs).unwrap();
        let b = timed.evaluate_states_batch(&refs).unwrap();
        assert_eq!(
            a.iter().map(bits).collect::<Vec<_>>(),
            b.iter().map(bits).collect::<Vec<_>>()
        );
        let t = tally.snapshot();
        assert_eq!((t.calls, t.systems, t.batched_systems), (6, 10, 5));
    }

    #[test]
    fn knobs_and_traffic_match_the_bare_sunway_evaluator() {
        let (m, g) = (model(), geom());
        let mut bare = SunwayEvaluator::new(&m, Arc::clone(&g), CgConfig::default());
        let inner = SunwayEvaluator::new(&m, Arc::clone(&g), CgConfig::default());
        let timed_traffic = inner.core_group().traffic_handle();
        let mut timed = Timed::new(inner, Arc::new(EvalTally::default()));
        for delta in [true, false] {
            bare.set_delta_features(delta);
            timed.set_delta_features(delta);
            assert_eq!(bare.rows_per_system(), timed.rows_per_system());
        }
        bare.set_delta_features(true);
        timed.set_delta_features(true);
        bare.set_precision(Precision::Bf16);
        timed.set_precision(Precision::Bf16);
        assert_eq!(bare.rows_per_system(), timed.rows_per_system());
        assert_eq!(bare.geometry().n_all(), timed.geometry().n_all());

        let vets = vets(&g, 4);
        let refs: Vec<&[Species]> = vets.iter().map(Vec::as_slice).collect();
        let bare_traffic = bare.core_group().traffic_handle();
        let a = bare.evaluate_states_batch(&refs).unwrap();
        let b = timed.evaluate_states_batch(&refs).unwrap();
        assert_eq!(
            a.iter().map(bits).collect::<Vec<_>>(),
            b.iter().map(bits).collect::<Vec<_>>()
        );
        // A per-system fallback would pay the weight RMA once per system.
        assert_eq!(bare_traffic.report(), timed_traffic.report());
    }

    /// Counts how the decorator reaches the wrapped evaluator.
    struct Counting {
        geom: Arc<RegionGeometry>,
        singles: AtomicU64,
        batches: AtomicU64,
    }

    impl VacancyEnergyEvaluator for Counting {
        fn state_energies(&self, _vet: &[Species]) -> Result<StateEnergies, OperatorError> {
            self.singles.fetch_add(1, Ordering::Relaxed);
            Ok(StateEnergies {
                initial: 0.0,
                finals: [0.0; 8],
            })
        }

        fn evaluate_states_batch(
            &self,
            vets: &[&[Species]],
        ) -> Result<Vec<StateEnergies>, OperatorError> {
            self.batches.fetch_add(1, Ordering::Relaxed);
            Ok(vets
                .iter()
                .map(|_| StateEnergies {
                    initial: 0.0,
                    finals: [0.0; 8],
                })
                .collect())
        }

        fn geometry(&self) -> &RegionGeometry {
            &self.geom
        }
    }

    #[test]
    fn one_inner_call_per_batch() {
        let g = geom();
        let timed = Timed::new(
            Counting {
                geom: Arc::clone(&g),
                singles: AtomicU64::new(0),
                batches: AtomicU64::new(0),
            },
            Arc::new(EvalTally::default()),
        );
        let vets = vets(&g, 7);
        let refs: Vec<&[Species]> = vets.iter().map(Vec::as_slice).collect();
        assert_eq!(timed.evaluate_states_batch(&refs).unwrap().len(), 7);
        assert_eq!(timed.inner.batches.load(Ordering::Relaxed), 1);
        assert_eq!(timed.inner.singles.load(Ordering::Relaxed), 0);
    }
}
