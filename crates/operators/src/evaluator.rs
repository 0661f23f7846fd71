//! The energy interface the AKMC engine drives.
//!
//! Given one vacancy system's VET, an evaluator returns the region energy of
//! the initial state and of all 8 candidate final states. Only *differences*
//! between these energies enter the rate law (paper Eq. 2), and sites outside
//! the jump region cancel exactly, so region sums are sufficient.
//!
//! Both NNP evaluators run one pipeline, [`NnpEvaluator`]: build each
//! system's features, pack the rows of the whole batch (content-unique rows
//! on the delta path, every `(1+8)·N_region` row on the dense path), infer
//! them in one kernel call, and reduce back to per-state energies. The
//! [`NnpBackend`] supplies the two execution-specific halves — the feature
//! operator and the inference kernel — for the host and the simulated core
//! group.

use crate::bigfusion::{bigfusion_on_cg, bigfusion_on_cg_bf16};
use crate::error::OperatorError;
use crate::feature_op::{
    features_cpe, features_cpe_delta, features_serial, features_serial_delta, DeltaFeatures,
    FeatureOpTables, RowInterner, StateFeatures, UniqueRowPlan, N_STATES,
};
use crate::stages::{stage4_fused, stage4_fused_bf16, BatchShape};
use crate::weights::{Bf16Stack, F32Stack, Precision};
use std::sync::Arc;
use tensorkmc_compat::pool;
use tensorkmc_lattice::{RegionGeometry, Species};
use tensorkmc_nnp::NnpModel;
use tensorkmc_potential::FeatureTable;
use tensorkmc_sunway::{CgConfig, CoreGroup};
use tensorkmc_telemetry::{
    keys, Counter, Histogram, Registry, ScopedTimer, SpanGuard, Timer, Tracer,
};

/// One operator phase in flight: the metric timer plus — when the registry
/// carries a tracer — the matching flame-chart span. Both record on drop,
/// so call sites treat it exactly like the plain [`ScopedTimer`] it was.
pub(crate) struct OpSpan {
    _timer: ScopedTimer,
    _trace: Option<SpanGuard>,
}

/// Cached telemetry handles for an evaluator: one feature-operator timer,
/// one kernel timer (fused / big-fusion / EAM, per evaluator), the shared
/// evaluation counter, and the batched-call size distribution. Resolved
/// once in `with_telemetry`, so the per-evaluation cost is two clock reads
/// and a handful of relaxed atomic adds.
#[derive(Clone)]
pub struct OpTelemetry {
    feature: Arc<Timer>,
    kernel: Arc<Timer>,
    kernel_key: &'static str,
    evals: Arc<Counter>,
    batch: Arc<Histogram>,
    rows_computed: Arc<Counter>,
    rows_reused: Arc<Counter>,
    unique_rows: Arc<Histogram>,
    tracer: Option<Arc<Tracer>>,
}

impl OpTelemetry {
    /// Resolves handles against `registry`, timing the energy kernel under
    /// `kernel_key` (one of the `op.kernel.*` keys).
    pub fn new(registry: &Registry, kernel_key: &'static str) -> Self {
        OpTelemetry {
            feature: registry.timer(keys::OP_FEATURE),
            kernel: registry.timer(kernel_key),
            kernel_key,
            evals: registry.counter(keys::OP_EVALS),
            batch: registry.histogram(keys::OP_KERNEL_BATCH),
            rows_computed: registry.counter(keys::OP_FEATURE_ROWS_COMPUTED),
            rows_reused: registry.counter(keys::OP_FEATURE_ROWS_REUSED),
            unique_rows: registry.histogram(keys::OP_KERNEL_UNIQUE_ROWS),
            tracer: registry.tracer(),
        }
    }

    /// Opens a bare trace span (no metric timer) when tracing is on — the
    /// dedup and scatter sub-phases of the pipeline.
    fn trace_span(&self, name: &'static str) -> Option<SpanGuard> {
        self.tracer.as_ref().map(|t| t.span(name))
    }

    /// Pairs `timer` with a trace span of the same name.
    fn span(&self, name: &'static str, timer: &Arc<Timer>) -> OpSpan {
        OpSpan {
            _timer: timer.scoped(),
            _trace: self.trace_span(name),
        }
    }

    /// Starts the feature-operator span for `n` systems, counting their
    /// evaluations.
    fn feature_span(&self, n: usize) -> OpSpan {
        self.evals.add(n as u64);
        self.span(keys::OP_FEATURE, &self.feature)
    }

    /// Starts the kernel span of one call folding `n` systems, recording
    /// `n` into `op.kernel.batch`.
    fn kernel_span(&self, n: usize) -> OpSpan {
        self.batch.record(n as u64);
        self.span(self.kernel_key, &self.kernel)
    }

    /// Starts a kernel span that also counts the evaluation — for
    /// evaluators with no separate feature phase (EAM).
    pub(crate) fn kernel_eval_span(&self) -> OpSpan {
        self.evals.inc();
        self.span(self.kernel_key, &self.kernel)
    }
}

/// Region energies of the 1+8 states of a vacancy system, in eV.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StateEnergies {
    /// Energy of the current state.
    pub initial: f64,
    /// Energy after the vacancy swaps with 1NN site `k`.
    pub finals: [f64; 8],
}

impl StateEnergies {
    /// `E_f − E_i` for jump direction `k`.
    #[inline]
    pub fn delta(&self, k: usize) -> f64 {
        self.finals[k] - self.initial
    }
}

/// Anything that can produce the 1+8 state energies of a vacancy system.
pub trait VacancyEnergyEvaluator: Send + Sync {
    /// Evaluates all states for a VET of length `N_all`.
    fn state_energies(&self, vet: &[Species]) -> Result<StateEnergies, OperatorError>;

    /// Evaluates a whole batch of vacancy systems in one pass, returning
    /// one [`StateEnergies`] per input VET, in order.
    ///
    /// The default implementation loops over [`state_energies`], so any
    /// third-party evaluator keeps working unchanged. The NNP
    /// implementations override it to concatenate every system's
    /// `(1+8)·N_region` feature rows into a single matrix and make **one**
    /// kernel call, so fixed per-call costs — above all the weight RMA of
    /// the big-fusion operator — are paid once per refresh batch instead of
    /// once per system. Implementations must return exactly the bits the
    /// per-system path would: the engine's trajectory reproducibility rests
    /// on `evaluate_states_batch(&[a, b]) == [state_energies(a),
    /// state_energies(b)]` down to `to_bits()`.
    ///
    /// ```
    /// use tensorkmc_lattice::Species;
    /// use tensorkmc_operators::evaluator::{
    ///     StateEnergies, VacancyEnergyEvaluator,
    /// };
    ///
    /// fn both(
    ///     ev: &dyn VacancyEnergyEvaluator,
    ///     a: &[Species],
    ///     b: &[Species],
    /// ) -> Result<Vec<StateEnergies>, tensorkmc_operators::OperatorError> {
    ///     // One kernel invocation for both systems, results in order.
    ///     ev.evaluate_states_batch(&[a, b])
    /// }
    /// ```
    ///
    /// [`state_energies`]: VacancyEnergyEvaluator::state_energies
    fn evaluate_states_batch(
        &self,
        vets: &[&[Species]],
    ) -> Result<Vec<StateEnergies>, OperatorError> {
        vets.iter().map(|vet| self.state_energies(vet)).collect()
    }

    /// The region geometry the evaluator expects VETs of.
    fn geometry(&self) -> &RegionGeometry;

    /// Switches the delta-state feature path on or off (`true` = compute
    /// only affected rows, infer only unique rows; `false` = the dense
    /// `(1+8)·N_region` path). A no-op for evaluators without a delta path
    /// — both paths return bit-identical energies, so this is purely an
    /// execution knob.
    fn set_delta_features(&mut self, _on: bool) {}

    /// Selects the inference storage precision ([`Precision::F32`] default,
    /// [`Precision::Bf16`] opt-in). Unlike the other knobs this one *does*
    /// change energy bits (bf16 storage is lossy), so it is an explicit
    /// accuracy/traffic trade, never flipped implicitly. A no-op for
    /// evaluators without a quantized backend (EAM).
    fn set_precision(&mut self, _precision: Precision) {}

    /// Feature rows this evaluator actually computes per vacancy system —
    /// the figure behind the engine's `kmc.refresh.batch_rows` telemetry.
    /// The default is the dense `(1+8)·N_region`; the NNP evaluators
    /// override it to report the packed (state-0 + affected) row count when
    /// the delta path is on.
    fn rows_per_system(&self) -> usize {
        (1 + crate::N_FINAL_STATES) * self.geometry().n_region()
    }
}

impl<T: VacancyEnergyEvaluator + ?Sized> VacancyEnergyEvaluator for Box<T> {
    fn state_energies(&self, vet: &[Species]) -> Result<StateEnergies, OperatorError> {
        (**self).state_energies(vet)
    }

    // Forwarded explicitly so a boxed NNP evaluator keeps its batched
    // kernel instead of falling back to the looping default.
    fn evaluate_states_batch(
        &self,
        vets: &[&[Species]],
    ) -> Result<Vec<StateEnergies>, OperatorError> {
        (**self).evaluate_states_batch(vets)
    }

    fn geometry(&self) -> &RegionGeometry {
        (**self).geometry()
    }

    fn set_delta_features(&mut self, on: bool) {
        (**self).set_delta_features(on)
    }

    fn set_precision(&mut self, precision: Precision) {
        (**self).set_precision(precision)
    }

    fn rows_per_system(&self) -> usize {
        (**self).rows_per_system()
    }
}

/// A boxed evaluator for runtime model selection (the CLI driver uses this
/// to pick NNP vs EAM from the input deck).
pub type VacancyEnergyEvaluatorBox = Box<dyn VacancyEnergyEvaluator>;

/// Sums the per-site kernel outputs (dense `(1+8)·n_region` layout) into
/// per-state region energies, masking sites that hold a vacancy in that
/// state (a vacancy has no energy).
fn reduce_energies(nr: usize, site_energies: &[f32], vet: &[Species]) -> StateEnergies {
    let state_energy = |s: usize| -> f64 {
        let block = &site_energies[s * nr..(s + 1) * nr];
        let mut e = 0.0;
        for (ri, &v) in block.iter().enumerate() {
            let sp = crate::feature_op::FeatureOpTables::species_in_state(vet, s, ri as u32);
            if sp.is_atom() {
                e += v as f64;
            }
        }
        e
    };
    let mut finals = [0.0; 8];
    for (k, f) in finals.iter_mut().enumerate() {
        *f = state_energy(k + 1);
    }
    StateEnergies {
        initial: state_energy(0),
        finals,
    }
}

/// The execution-specific halves of the NNP pipeline: the feature operator
/// that turns one VET into feature rows, and the kernel that infers packed
/// rows. Every backend must produce the same bits for the same rows.
pub trait NnpBackend: Send + Sync {
    /// The `op.kernel.*` key the kernel is timed under.
    const KERNEL_KEY: &'static str;

    /// Workers that build a batch's per-system features (`1` = in order on
    /// the calling thread).
    fn build_threads(&self) -> usize;

    /// Dense features of one system: `(1+8)·N_region` rows.
    fn features(
        &self,
        tables: &FeatureOpTables,
        vet: &[Species],
    ) -> Result<StateFeatures, OperatorError>;

    /// Delta features of one system: state-0 rows plus the rows each swap
    /// can change.
    fn features_delta(
        &self,
        tables: &FeatureOpTables,
        vet: &[Species],
    ) -> Result<DeltaFeatures, OperatorError>;

    /// Infers `m` packed rows with the f32 stack.
    fn infer(&self, stack: &F32Stack, rows: &[f32], m: usize) -> Result<Vec<f32>, OperatorError>;

    /// Infers `m` packed rows with the bf16 stack.
    fn infer_bf16(
        &self,
        stack: &Bf16Stack,
        rows: &[f32],
        m: usize,
    ) -> Result<Vec<f32>, OperatorError>;
}

/// The host backend — the "x86 / libtensorflow_cc" execution style of
/// Fig. 11: serial feature operator, systems built in parallel on the
/// thread pool, layer-at-a-time fused kernel.
#[derive(Debug, Clone, Copy, Default)]
pub struct HostBackend;

impl NnpBackend for HostBackend {
    const KERNEL_KEY: &'static str = keys::OP_KERNEL_FUSED;

    fn build_threads(&self) -> usize {
        pool::max_threads()
    }

    fn features(
        &self,
        tables: &FeatureOpTables,
        vet: &[Species],
    ) -> Result<StateFeatures, OperatorError> {
        features_serial(tables, vet)
    }

    fn features_delta(
        &self,
        tables: &FeatureOpTables,
        vet: &[Species],
    ) -> Result<DeltaFeatures, OperatorError> {
        features_serial_delta(tables, vet)
    }

    fn infer(&self, stack: &F32Stack, rows: &[f32], m: usize) -> Result<Vec<f32>, OperatorError> {
        stage4_fused(stack, rows, BatchShape { n: m, h: 1, w: 1 })
    }

    fn infer_bf16(
        &self,
        stack: &Bf16Stack,
        rows: &[f32],
        m: usize,
    ) -> Result<Vec<f32>, OperatorError> {
        stage4_fused_bf16(stack, rows, BatchShape { n: m, h: 1, w: 1 })
    }
}

/// The core-group backend — "SW(opt)" in Fig. 11: the CPE-parallel fast
/// feature operator (systems built in order, each already spread over the
/// CPEs) and the big-fusion kernel on a dedicated simulated core group.
pub struct CoreGroupBackend {
    cg: CoreGroup,
}

impl NnpBackend for CoreGroupBackend {
    const KERNEL_KEY: &'static str = keys::OP_KERNEL_BIGFUSION;

    fn build_threads(&self) -> usize {
        1
    }

    fn features(
        &self,
        tables: &FeatureOpTables,
        vet: &[Species],
    ) -> Result<StateFeatures, OperatorError> {
        features_cpe(&self.cg, tables, vet)
    }

    fn features_delta(
        &self,
        tables: &FeatureOpTables,
        vet: &[Species],
    ) -> Result<DeltaFeatures, OperatorError> {
        features_cpe_delta(&self.cg, tables, vet)
    }

    fn infer(&self, stack: &F32Stack, rows: &[f32], m: usize) -> Result<Vec<f32>, OperatorError> {
        bigfusion_on_cg(&self.cg, stack, rows, m)
    }

    fn infer_bf16(
        &self,
        stack: &Bf16Stack,
        rows: &[f32],
        m: usize,
    ) -> Result<Vec<f32>, OperatorError> {
        bigfusion_on_cg_bf16(&self.cg, stack, rows, m)
    }
}

/// An NNP evaluator: deployment tables, the f32 and bf16 weight stacks,
/// and one [`NnpBackend`].
pub struct NnpEvaluator<B> {
    geom: Arc<RegionGeometry>,
    tables: FeatureOpTables,
    stack: F32Stack,
    bf16_stack: Bf16Stack,
    precision: Precision,
    delta_features: bool,
    telemetry: Option<OpTelemetry>,
    backend: B,
}

/// Plain-Rust reference evaluator: serial features + fused layer-at-a-time
/// kernel.
pub type NnpDirectEvaluator = NnpEvaluator<HostBackend>;

/// The optimised TensorKMC evaluator: CPE-parallel fast feature operator +
/// big-fusion energy kernel on the simulated core group.
pub type SunwayEvaluator = NnpEvaluator<CoreGroupBackend>;

impl NnpDirectEvaluator {
    /// Builds the evaluator from a trained model and a region geometry.
    /// The delta-state feature path is on by default; precision is f32.
    /// The bf16 stack is quantized here, once — never per evaluation.
    pub fn new(model: &NnpModel, geom: Arc<RegionGeometry>) -> Self {
        NnpEvaluator::with_backend(model, geom, HostBackend)
    }
}

impl SunwayEvaluator {
    /// Builds the evaluator with a dedicated core group (otherwise as
    /// [`NnpDirectEvaluator::new`]).
    pub fn new(model: &NnpModel, geom: Arc<RegionGeometry>, cg_config: CgConfig) -> Self {
        let cg = CoreGroup::new(cg_config);
        NnpEvaluator::with_backend(model, geom, CoreGroupBackend { cg })
    }

    /// The underlying core group (for traffic inspection in benchmarks).
    pub fn core_group(&self) -> &CoreGroup {
        &self.backend.cg
    }
}

impl<B: NnpBackend> NnpEvaluator<B> {
    fn with_backend(model: &NnpModel, geom: Arc<RegionGeometry>, backend: B) -> Self {
        let table = FeatureTable::new(model.features.clone(), &geom.shells);
        let stack = F32Stack::from_model(model);
        NnpEvaluator {
            tables: FeatureOpTables::new(&geom, &table),
            bf16_stack: Bf16Stack::from_f32(&stack),
            stack,
            geom,
            precision: Precision::F32,
            delta_features: true,
            telemetry: None,
            backend,
        }
    }

    /// Records feature (`op.feature`) and kernel spans (`op.kernel.fused`
    /// on the host, `op.kernel.bigfusion` on the core group) plus the
    /// evaluation counter into `registry`.
    pub fn with_telemetry(mut self, registry: &Registry) -> Self {
        self.telemetry = Some(OpTelemetry::new(registry, B::KERNEL_KEY));
        self
    }

    /// The flattened tabulations (exposed for benchmarks).
    pub fn tables(&self) -> &FeatureOpTables {
        &self.tables
    }

    /// The deployed weight stack (exposed for benchmarks).
    pub fn stack(&self) -> &F32Stack {
        &self.stack
    }

    /// Builds one value per system on the backend's build workers, in
    /// system order; the first failing system's error fails the batch.
    fn per_system<T: Send>(
        &self,
        vets: &[&[Species]],
        build: impl Fn(&FeatureOpTables, &[Species]) -> Result<T, OperatorError> + Sync,
    ) -> Result<Vec<T>, OperatorError> {
        // A lone system builds inline without asking the backend: reading
        // the host's parallelism costs about as much as a feature build.
        let threads = match vets.len() {
            1 => 1,
            _ => self.backend.build_threads(),
        };
        pool::par_map_collect_threads(threads, vets.len(), |i| build(&self.tables, vets[i]))
            .into_iter()
            .collect()
    }

    /// Runs the active precision's kernel over `m` packed rows of a batch
    /// of `n` systems.
    fn infer(&self, rows: &[f32], m: usize, n: usize) -> Result<Vec<f32>, OperatorError> {
        let _span = self.telemetry.as_ref().map(|t| t.kernel_span(n));
        match self.precision {
            Precision::F32 => self.backend.infer(&self.stack, rows, m),
            Precision::Bf16 => self.backend.infer_bf16(&self.bf16_stack, rows, m),
        }
    }
}

impl<B: NnpBackend> VacancyEnergyEvaluator for NnpEvaluator<B> {
    fn state_energies(&self, vet: &[Species]) -> Result<StateEnergies, OperatorError> {
        Ok(self.evaluate_states_batch(&[vet])?[0])
    }

    // The one pipeline. Rows are independent and keep their order, and
    // dedup replays each distinct row's bits, so a batch returns exactly
    // the bits of evaluating its systems one at a time; a batch pays the
    // kernel's fixed costs — above all the big-fusion weight RMA — once.
    fn evaluate_states_batch(
        &self,
        vets: &[&[Species]],
    ) -> Result<Vec<StateEnergies>, OperatorError> {
        let n = vets.len();
        if n == 0 {
            return Ok(Vec::new());
        }
        let tel = self.telemetry.as_ref();
        let nr = self.tables.n_region;
        let dense_rows = N_STATES * nr;
        // Row packing. Delta: one interner across the batch, filled in
        // system order, so rows repeated within or between systems are
        // inferred once and row ids are deterministic. Dense: every state's
        // rows, system after system.
        let mut interner = RowInterner::new(self.tables.n_features);
        let mut dense = Vec::new();
        let feature_span = tel.map(|t| t.feature_span(n));
        let plans = if self.delta_features {
            let feats = self.per_system(vets, |t, vet| self.backend.features_delta(t, vet))?;
            drop(feature_span);
            let _dedup = tel.and_then(|t| t.trace_span(keys::OP_DEDUP));
            let plans: Vec<UniqueRowPlan> = feats
                .iter()
                .map(|f| UniqueRowPlan::build(&self.tables, f, &mut interner))
                .collect();
            if let Some(t) = tel {
                let packed = self.tables.packed_rows() * n;
                t.rows_computed.add(packed as u64);
                t.rows_reused.add((dense_rows * n - packed) as u64);
                t.unique_rows.record(interner.len() as u64);
            }
            Some(plans)
        } else {
            let feats = self.per_system(vets, |t, vet| self.backend.features(t, vet))?;
            drop(feature_span);
            dense.reserve(n * dense_rows * self.tables.n_features);
            for s in feats.iter().flat_map(|f| &f.states) {
                dense.extend_from_slice(s);
            }
            if let Some(t) = tel {
                t.rows_computed.add((dense_rows * n) as u64);
            }
            None
        };
        let rows = match plans {
            Some(_) => interner.rows(),
            None => &dense[..],
        };
        let energies = self.infer(rows, rows.len() / self.tables.n_features, n)?;

        let _scatter = tel.and_then(|t| t.trace_span(keys::OP_SCATTER));
        let mut site_energies = vec![0f32; dense_rows];
        Ok(vets
            .iter()
            .enumerate()
            .map(|(i, vet)| {
                let block = match &plans {
                    Some(plans) => {
                        plans[i].scatter(&self.tables, &energies, &mut site_energies);
                        &site_energies[..]
                    }
                    None => &energies[i * dense_rows..(i + 1) * dense_rows],
                };
                reduce_energies(nr, block, vet)
            })
            .collect())
    }

    fn geometry(&self) -> &RegionGeometry {
        &self.geom
    }

    fn set_delta_features(&mut self, on: bool) {
        self.delta_features = on;
    }

    fn set_precision(&mut self, precision: Precision) {
        self.precision = precision;
    }

    fn rows_per_system(&self) -> usize {
        if self.delta_features {
            self.tables.packed_rows()
        } else {
            N_STATES * self.geom.n_region()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tensorkmc_compat::rng::Rng;
    use tensorkmc_compat::rng::StdRng;
    use tensorkmc_nnp::ModelConfig;
    use tensorkmc_potential::FeatureSet;

    fn small_model(seed: u64) -> (NnpModel, Arc<RegionGeometry>) {
        let fs = FeatureSet::small(4);
        let cfg = ModelConfig {
            channels: vec![fs.n_features(), 16, 8, 1],
            rcut: 3.0,
        };
        let mut model = NnpModel::new(fs, &cfg, &mut StdRng::seed_from_u64(seed));
        // Centre the raw descriptor values like a trained model's fitted
        // normaliser would; without this a random He-init can be fully dead
        // (all ReLUs off) on the strongly-correlated lattice features.
        model.norm.mean = vec![7.0, 7.0, 7.0, 7.0, 0.5, 0.5, 0.5, 0.5];
        model.norm.std = vec![2.0; 8];
        let geom = Arc::new(RegionGeometry::new(2.87, 3.0).unwrap());
        (model, geom)
    }

    fn random_vet<R: Rng>(n_all: usize, rng: &mut R) -> Vec<Species> {
        let mut vet: Vec<Species> = (0..n_all)
            .map(|_| {
                if rng.gen_bool(0.1) {
                    Species::Cu
                } else {
                    Species::Fe
                }
            })
            .collect();
        vet[0] = Species::Vacancy;
        vet
    }

    #[test]
    fn direct_and_sunway_agree() {
        let (model, geom) = small_model(3);
        let direct = NnpDirectEvaluator::new(&model, Arc::clone(&geom));
        let sunway = SunwayEvaluator::new(&model, Arc::clone(&geom), CgConfig::default());
        let mut rng = StdRng::seed_from_u64(4);
        for _ in 0..5 {
            let vet = random_vet(geom.n_all(), &mut rng);
            let a = direct.state_energies(&vet).unwrap();
            let b = sunway.state_energies(&vet).unwrap();
            assert!((a.initial - b.initial).abs() < 1e-3);
            for k in 0..8 {
                assert!((a.finals[k] - b.finals[k]).abs() < 1e-3, "state {k}");
            }
        }
    }

    #[test]
    fn swap_symmetry_identical_species_means_zero_delta() {
        // If site 0's vacancy swaps with an Fe atom and every atom is Fe,
        // the final state is a pure relabeling: ΔE must vanish.
        let (model, geom) = small_model(5);
        let direct = NnpDirectEvaluator::new(&model, Arc::clone(&geom));
        let mut vet = vec![Species::Fe; geom.n_all()];
        vet[0] = Species::Vacancy;
        let e = direct.state_energies(&vet).unwrap();
        for k in 0..8 {
            // The swap moves the vacancy to a geometrically equivalent site
            // in a homogeneous environment; far-boundary truncation of the
            // region makes this approximate but tight.
            assert!(
                e.delta(k).abs() < 1e-3,
                "homogeneous ΔE({k}) = {}",
                e.delta(k)
            );
        }
    }

    #[test]
    fn delta_depends_on_which_species_hops() {
        let (model, geom) = small_model(7);
        let direct = NnpDirectEvaluator::new(&model, Arc::clone(&geom));
        let mut vet = vec![Species::Fe; geom.n_all()];
        vet[0] = Species::Vacancy;
        vet[geom.first_nn_id(2) as usize] = Species::Cu;
        let e = direct.state_energies(&vet).unwrap();
        // Hopping the Cu (direction 2) differs from hopping an Fe.
        assert!((e.delta(2) - e.delta(3)).abs() > 1e-9);
    }

    #[test]
    fn batched_is_bit_identical_to_per_system() {
        // The contract the engine's batched refresh rests on: batching is
        // a traffic optimisation, not a numerics change.
        let (model, geom) = small_model(11);
        let direct = NnpDirectEvaluator::new(&model, Arc::clone(&geom));
        let sunway = SunwayEvaluator::new(&model, Arc::clone(&geom), CgConfig::default());
        let mut rng = StdRng::seed_from_u64(12);
        let mut vets: Vec<Vec<Species>> =
            (0..5).map(|_| random_vet(geom.n_all(), &mut rng)).collect();
        // The same VET twice: every row of the repeat dedups against the
        // first copy across the system boundary.
        vets.push(vets[1].clone());
        let refs: Vec<&[Species]> = vets.iter().map(|v| v.as_slice()).collect();
        for ev in [
            &direct as &dyn VacancyEnergyEvaluator,
            &sunway as &dyn VacancyEnergyEvaluator,
        ] {
            let batched = ev.evaluate_states_batch(&refs).unwrap();
            assert_eq!(batched.len(), vets.len());
            for (vet, b) in vets.iter().zip(&batched) {
                let a = ev.state_energies(vet).unwrap();
                assert_eq!(a.initial.to_bits(), b.initial.to_bits());
                for k in 0..8 {
                    assert_eq!(a.finals[k].to_bits(), b.finals[k].to_bits(), "state {k}");
                }
            }
        }
    }

    #[test]
    fn batch_weight_rma_is_paid_once_not_per_system() {
        // Fig. 9 extended to the refresh batch: the weight RMA of one
        // batched call equals that of a single-system call, while looping
        // the per-system path pays it once per system.
        let (model, geom) = small_model(13);
        let sunway = SunwayEvaluator::new(&model, Arc::clone(&geom), CgConfig::default());
        let tc = sunway.core_group().traffic_handle();
        let mut rng = StdRng::seed_from_u64(14);
        let vets: Vec<Vec<Species>> = (0..7).map(|_| random_vet(geom.n_all(), &mut rng)).collect();
        let refs: Vec<&[Species]> = vets.iter().map(|v| v.as_slice()).collect();

        // The feature operator moves no RMA, so mesh bytes here are pure
        // weight traffic.
        tc.reset();
        sunway.state_energies(&vets[0]).unwrap();
        let one_system = tc.report().rma_bytes;
        assert!(one_system > 0);

        tc.reset();
        sunway.evaluate_states_batch(&refs).unwrap();
        let batched = tc.report();
        assert_eq!(
            batched.rma_bytes, one_system,
            "batched call must move the weights once, not per system"
        );

        tc.reset();
        for vet in &refs {
            sunway.state_energies(vet).unwrap();
        }
        assert_eq!(tc.report().rma_bytes, refs.len() as u64 * one_system);
    }

    #[test]
    fn batch_edge_cases_empty_and_single() {
        let (model, geom) = small_model(15);
        let direct = NnpDirectEvaluator::new(&model, Arc::clone(&geom));
        let sunway = SunwayEvaluator::new(&model, Arc::clone(&geom), CgConfig::default());
        let mut rng = StdRng::seed_from_u64(16);
        let vet = random_vet(geom.n_all(), &mut rng);
        for ev in [
            &direct as &dyn VacancyEnergyEvaluator,
            &sunway as &dyn VacancyEnergyEvaluator,
        ] {
            assert!(ev.evaluate_states_batch(&[]).unwrap().is_empty());
            let got = ev.evaluate_states_batch(&[&vet]).unwrap();
            let want = ev.state_energies(&vet).unwrap();
            assert_eq!(got.len(), 1);
            assert_energies_bit_equal(&got[0], &want, "batch of one");
            // A bad VET anywhere in the batch fails the whole call.
            assert!(matches!(
                ev.evaluate_states_batch(&[&vet, &vet[..3], &vet]),
                Err(OperatorError::VetShape { .. })
            ));
        }
    }

    #[test]
    fn boxed_evaluator_keeps_the_batched_path() {
        // The Box forwarding must not fall back to the looping default:
        // through the box, a batch of 4 still makes one kernel call.
        let (model, geom) = small_model(17);
        let sunway = SunwayEvaluator::new(&model, Arc::clone(&geom), CgConfig::default());
        let tc = sunway.core_group().traffic_handle();
        let mut rng = StdRng::seed_from_u64(18);
        let vets: Vec<Vec<Species>> = (0..4).map(|_| random_vet(geom.n_all(), &mut rng)).collect();
        let refs: Vec<&[Species]> = vets.iter().map(|v| v.as_slice()).collect();
        tc.reset();
        sunway.state_energies(&vets[0]).unwrap();
        let one_system = tc.report().rma_bytes;
        let boxed: crate::VacancyEnergyEvaluatorBox = Box::new(sunway);
        tc.reset();
        boxed.evaluate_states_batch(&refs).unwrap();
        assert_eq!(tc.report().rma_bytes, one_system);
    }

    fn assert_energies_bit_equal(a: &StateEnergies, b: &StateEnergies, label: &str) {
        assert_eq!(a.initial.to_bits(), b.initial.to_bits(), "{label} initial");
        for k in 0..8 {
            assert_eq!(
                a.finals[k].to_bits(),
                b.finals[k].to_bits(),
                "{label} state {k}"
            );
        }
    }

    #[test]
    fn delta_path_is_bit_identical_to_dense() {
        // The contract the `delta_features` knob rests on: unique-row
        // inference is a traffic optimisation, not a numerics change —
        // per-system and batched, on both evaluators.
        let (model, geom) = small_model(21);
        let mut rng = StdRng::seed_from_u64(22);
        let vets: Vec<Vec<Species>> = (0..5).map(|_| random_vet(geom.n_all(), &mut rng)).collect();
        let refs: Vec<&[Species]> = vets.iter().map(|v| v.as_slice()).collect();

        let mut direct_delta = NnpDirectEvaluator::new(&model, Arc::clone(&geom));
        let mut direct_dense = NnpDirectEvaluator::new(&model, Arc::clone(&geom));
        direct_delta.set_delta_features(true);
        direct_dense.set_delta_features(false);
        let mut sunway_delta = SunwayEvaluator::new(&model, Arc::clone(&geom), CgConfig::default());
        let mut sunway_dense = SunwayEvaluator::new(&model, Arc::clone(&geom), CgConfig::default());
        sunway_delta.set_delta_features(true);
        sunway_dense.set_delta_features(false);

        for (label, delta, dense) in [
            (
                "direct",
                &direct_delta as &dyn VacancyEnergyEvaluator,
                &direct_dense as &dyn VacancyEnergyEvaluator,
            ),
            ("sunway", &sunway_delta, &sunway_dense),
        ] {
            for vet in &vets {
                let a = dense.state_energies(vet).unwrap();
                let b = delta.state_energies(vet).unwrap();
                assert_energies_bit_equal(&a, &b, label);
            }
            let a = dense.evaluate_states_batch(&refs).unwrap();
            let b = delta.evaluate_states_batch(&refs).unwrap();
            for (x, y) in a.iter().zip(&b) {
                assert_energies_bit_equal(x, y, label);
            }
        }
    }

    #[test]
    fn kernel_input_dma_scales_with_unique_rows_not_dense_rows() {
        // The traffic claim of the delta path: the big-fusion kernel
        // streams only the packed unique rows from main memory, not
        // 9·N_region rows per system.
        let (model, geom) = small_model(23);
        let mut sunway = SunwayEvaluator::new(&model, Arc::clone(&geom), CgConfig::default());
        let tables = FeatureOpTables::new(
            &geom,
            &FeatureTable::new(model.features.clone(), &geom.shells),
        );
        let tc = sunway.core_group().traffic_handle();
        let mut rng = StdRng::seed_from_u64(24);
        let vet = random_vet(geom.n_all(), &mut rng);
        let nf = tables.n_features;
        let nr = tables.n_region;

        // Count the unique rows this VET produces.
        let delta = features_serial_delta(&tables, &vet).unwrap();
        let mut interner = RowInterner::new(nf);
        let _ = UniqueRowPlan::build(&tables, &delta, &mut interner);
        let n_unique = interner.len();
        assert!(n_unique < N_STATES * nr);

        // Bracket a full evaluation each way. The feature-op get traffic is
        // identical except the delta path additionally stages the affected
        // mask (nr bytes per CPE); the kernel DMA-reads each input row
        // exactly once. So the saving is exactly the row shrinkage.
        sunway.set_delta_features(false);
        tc.reset();
        sunway.state_energies(&vet).unwrap();
        let dense_get = tc.report().dma_get_bytes;
        sunway.set_delta_features(true);
        tc.reset();
        sunway.state_energies(&vet).unwrap();
        let delta_get = tc.report().dma_get_bytes;
        let saved_rows = ((N_STATES * nr - n_unique) * nf * 4) as u64;
        let mask_bytes = (nr * sunway.core_group().config().n_cpes) as u64;
        assert_eq!(
            dense_get + mask_bytes,
            delta_get + saved_rows,
            "kernel input DMA must scale with the {n_unique} unique rows, \
             not {} dense rows",
            N_STATES * nr
        );
        assert!(saved_rows > mask_bytes, "the dedup must be a net win");
    }

    #[test]
    fn bf16_precision_tracks_f32_within_quantization_error() {
        // The knob changes energy bits (bf16 is lossy) but must stay inside
        // the quantization envelope on both evaluators.
        let (model, geom) = small_model(31);
        let mut rng = StdRng::seed_from_u64(32);
        let vet = random_vet(geom.n_all(), &mut rng);
        for make in [
            |m: &NnpModel, g: &Arc<RegionGeometry>| -> Box<dyn VacancyEnergyEvaluator> {
                Box::new(NnpDirectEvaluator::new(m, Arc::clone(g)))
            },
            |m: &NnpModel, g: &Arc<RegionGeometry>| -> Box<dyn VacancyEnergyEvaluator> {
                Box::new(SunwayEvaluator::new(m, Arc::clone(g), CgConfig::default()))
            },
        ] {
            let f32_ev = make(&model, &geom);
            let mut bf16_ev = make(&model, &geom);
            bf16_ev.set_precision(Precision::Bf16);
            let a = f32_ev.state_energies(&vet).unwrap();
            let b = bf16_ev.state_energies(&vet).unwrap();
            // Region energies sum ~250 site terms; 2^-8 relative per
            // operand keeps the sums within a fraction of a percent.
            assert!((a.initial - b.initial).abs() < 1e-2 * (1.0 + a.initial.abs()));
            for k in 0..8 {
                assert!(
                    (a.finals[k] - b.finals[k]).abs() < 1e-2 * (1.0 + a.finals[k].abs()),
                    "state {k}"
                );
            }
        }
    }

    #[test]
    fn bf16_delta_dense_and_batched_paths_agree_bitwise() {
        // Inside the bf16 backend every execution knob keeps its
        // bit-identity contract: delta vs dense, batched vs per-system,
        // direct vs sunway. Quantization is pointwise-deterministic, so the
        // dedup-by-bit-pattern delta machinery is as exact as under f32.
        let (model, geom) = small_model(33);
        let mut rng = StdRng::seed_from_u64(34);
        let vets: Vec<Vec<Species>> = (0..4).map(|_| random_vet(geom.n_all(), &mut rng)).collect();
        let refs: Vec<&[Species]> = vets.iter().map(|v| v.as_slice()).collect();

        let mut direct_delta = NnpDirectEvaluator::new(&model, Arc::clone(&geom));
        let mut direct_dense = NnpDirectEvaluator::new(&model, Arc::clone(&geom));
        let mut sunway_delta = SunwayEvaluator::new(&model, Arc::clone(&geom), CgConfig::default());
        let mut sunway_dense = SunwayEvaluator::new(&model, Arc::clone(&geom), CgConfig::default());
        for ev in [
            &mut direct_delta as &mut dyn VacancyEnergyEvaluator,
            &mut direct_dense,
            &mut sunway_delta,
            &mut sunway_dense,
        ] {
            ev.set_precision(Precision::Bf16);
        }
        direct_delta.set_delta_features(true);
        direct_dense.set_delta_features(false);
        sunway_delta.set_delta_features(true);
        sunway_dense.set_delta_features(false);

        for (label, delta, dense) in [
            (
                "direct",
                &direct_delta as &dyn VacancyEnergyEvaluator,
                &direct_dense as &dyn VacancyEnergyEvaluator,
            ),
            ("sunway", &sunway_delta, &sunway_dense),
        ] {
            for vet in &vets {
                let a = dense.state_energies(vet).unwrap();
                let b = delta.state_energies(vet).unwrap();
                assert_energies_bit_equal(&a, &b, label);
            }
            let a = dense.evaluate_states_batch(&refs).unwrap();
            let b = delta.evaluate_states_batch(&refs).unwrap();
            for (x, y) in a.iter().zip(&b) {
                assert_energies_bit_equal(x, y, label);
            }
            // Batched vs per-system inside the same precision.
            for (vet, batched) in vets.iter().zip(&b) {
                let single = delta.state_energies(vet).unwrap();
                assert_energies_bit_equal(&single, batched, label);
            }
        }
        // Host and CG backends agree bitwise (shared row-accumulate).
        for vet in &vets {
            let a = direct_delta.state_energies(vet).unwrap();
            let b = sunway_delta.state_energies(vet).unwrap();
            assert_energies_bit_equal(&a, &b, "direct-vs-sunway");
        }
    }

    #[test]
    fn bf16_halves_weight_rma_through_the_evaluator() {
        // The traffic claim, end to end: flipping the knob on a live
        // evaluator halves the measured per-evaluation weight RMA.
        let (model, geom) = small_model(35);
        let mut sunway = SunwayEvaluator::new(&model, Arc::clone(&geom), CgConfig::default());
        let tc = sunway.core_group().traffic_handle();
        let mut rng = StdRng::seed_from_u64(36);
        let vet = random_vet(geom.n_all(), &mut rng);
        tc.reset();
        sunway.state_energies(&vet).unwrap();
        let f32_rma = tc.report().rma_bytes;
        sunway.set_precision(Precision::Bf16);
        tc.reset();
        sunway.state_energies(&vet).unwrap();
        let bf16_rma = tc.report().rma_bytes;
        assert_eq!(bf16_rma * 2, f32_rma);
    }

    #[test]
    fn energies_are_finite_and_vet_checked() {
        let (model, geom) = small_model(9);
        let direct = NnpDirectEvaluator::new(&model, Arc::clone(&geom));
        let mut rng = StdRng::seed_from_u64(10);
        let vet = random_vet(geom.n_all(), &mut rng);
        let e = direct.state_energies(&vet).unwrap();
        assert!(e.initial.is_finite());
        assert!(e.finals.iter().all(|v| v.is_finite()));
        assert!(matches!(
            direct.state_energies(&vet[..10]),
            Err(OperatorError::VetShape { .. })
        ));
    }
}
