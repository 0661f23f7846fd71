//! One serial deck run: `driver::build_engine` plus the CLI's sampling and
//! output loop (`tensorkmc -in deck`), either plain or traced.
//!
//! The traced run builds the same engine layer by layer — model load,
//! evaluator, lattice, engine — so each layer's public call can be timed,
//! wraps the evaluator in the [`Timed`] decorator, attaches the program's
//! telemetry registry and times every `step()`. Both runs must end on
//! byte-identical checkpoints; the parent checks that.

use std::sync::Arc;
use std::time::Instant;

use tensorkmc::analysis::{analyze_clusters, to_xyz, ObservableLog};
use tensorkmc::core::{KmcEngine, KmcError};
use tensorkmc::driver;
use tensorkmc::fsutil::write_atomic;
use tensorkmc::input::{InputDeck, ModelSource};
use tensorkmc::lattice::{AlloyComposition, PeriodicBox, RegionGeometry, SiteArray, Species};
use tensorkmc::nnp::NnpModel;
use tensorkmc::operators::{
    NnpDirectEvaluator, SunwayEvaluator, VacancyEnergyEvaluator, VacancyEnergyEvaluatorBox,
};
use tensorkmc::sunway::{CgConfig, TrafficCounter};
use tensorkmc::telemetry::{keys, Registry, Snapshot};
use tensorkmc_compat::codec::JsonCodec;
use tensorkmc_compat::rng::StdRng;

use crate::stats::{peak_rss_mb, quantile, ratio, Metrics};
use crate::timed::{EvalTally, Timed};
use crate::SampleOut;

/// Reads and validates a deck file.
pub fn load_deck(path: &str) -> Result<InputDeck, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    let deck = InputDeck::from_json(&text).map_err(|e| format!("bad deck {path}: {e}"))?;
    deck.validate()?;
    Ok(deck)
}

pub fn model_path(deck: &InputDeck) -> Result<&str, String> {
    match &deck.model {
        ModelSource::File { path } => Ok(path),
        other => Err(format!("benchmark decks load a model file, got {other:?}")),
    }
}

/// The deck's initial lattice, as `driver::build_engine` makes it.
pub fn fresh_lattice(deck: &InputDeck) -> Result<SiteArray, String> {
    let pbox = PeriodicBox::new(deck.cells, deck.cells, deck.cells, deck.lattice_constant)
        .map_err(|e| e.to_string())?;
    SiteArray::random_alloy(
        pbox,
        AlloyComposition {
            cu_fraction: deck.cu_fraction,
            vacancy_fraction: deck.vacancy_fraction,
        },
        &mut StdRng::seed_from_u64(deck.seed),
    )
    .map_err(|e| e.to_string())
}

/// Seconds elapsed since `t`.
fn secs(t: Instant) -> f64 {
    t.elapsed().as_secs_f64()
}

/// The CLI's observable log, its step-0 row and the sampling cost.
struct Sampler {
    log: ObservableLog,
    volume: f64,
    shells: tensorkmc::lattice::ShellTable,
    secs: f64,
}

impl Sampler {
    fn new<E: VacancyEnergyEvaluator>(engine: &KmcEngine<E>) -> Self {
        let mut s = Sampler {
            log: ObservableLog::new(),
            volume: engine.lattice().pbox().volume_m3(),
            shells: engine.geometry().shells.clone(),
            secs: 0.0,
        };
        s.sample(engine);
        s
    }

    fn sample<E: VacancyEnergyEvaluator>(&mut self, engine: &KmcEngine<E>) {
        let t = Instant::now();
        let r = analyze_clusters(engine.lattice(), Species::Cu, &self.shells, 1);
        self.log
            .push(engine.time(), engine.stats().steps, &r, self.volume);
        self.secs += secs(t);
    }
}

/// What the sampling loop measured.
struct Loop {
    first_refresh_s: f64,
    run_s: f64,
    run_hops: u64,
    run_sim_s: f64,
    /// Wall time of each `step()` after the first (traced runs only), ns.
    step_ns: Vec<u64>,
}

/// The CLI run loop (`src/main.rs`): chunks of `sample_every` steps, one
/// observable row after each. The first `step()` performs the first full
/// refresh and is set-up; the run phase starts after it, right after
/// `after_first` sees the engine. `each_step` is true in traced runs, which
/// time every step individually.
fn run_loop<E: VacancyEnergyEvaluator>(
    engine: &mut KmcEngine<E>,
    deck: &InputDeck,
    sampler: &mut Sampler,
    each_step: bool,
    after_first: &mut dyn FnMut(&KmcEngine<E>),
) -> Result<Loop, KmcError> {
    let t_end = engine.time() + deck.max_time;
    let mut out = Loop {
        first_refresh_s: 0.0,
        run_s: 0.0,
        run_hops: 0,
        run_sim_s: 0.0,
        step_ns: Vec::new(),
    };
    let mut run_start = None;
    let (mut steps0, mut time0) = (0, 0.0);
    while engine.stats().steps < deck.max_steps && engine.time() < t_end {
        let mut chunk = deck
            .sample_every
            .min(deck.max_steps - engine.stats().steps)
            .max(1);
        if run_start.is_none() {
            let t = Instant::now();
            engine.step()?;
            out.first_refresh_s = secs(t);
            after_first(engine);
            chunk -= 1;
            run_start = Some(Instant::now());
            (steps0, time0) = (engine.stats().steps, engine.time());
        }
        if each_step {
            for _ in 0..chunk {
                let t = Instant::now();
                engine.step()?;
                out.step_ns.push(t.elapsed().as_nanos() as u64);
            }
        } else {
            engine.run_steps(chunk)?;
        }
        sampler.sample(engine);
    }
    if let Some(t) = run_start {
        out.run_s = secs(t);
    }
    out.run_hops = engine.stats().steps - steps0;
    out.run_sim_s = engine.time() - time0;
    Ok(out)
}

/// Writes the CLI's three artifacts, returning the seconds it took.
fn write_outputs<E: VacancyEnergyEvaluator>(
    engine: &KmcEngine<E>,
    deck: &InputDeck,
    log: &ObservableLog,
) -> Result<f64, String> {
    let t = Instant::now();
    let write = |path: &str, text: String| {
        write_atomic(path, text).map_err(|e| format!("cannot write {path}: {e}"))
    };
    if !deck.csv_output.is_empty() {
        write(&deck.csv_output, log.to_csv())?;
    }
    if !deck.xyz_output.is_empty() {
        write(&deck.xyz_output, to_xyz(engine.lattice(), false))?;
    }
    if !deck.checkpoint_output.is_empty() {
        write(
            &deck.checkpoint_output,
            engine.checkpoint().to_json_string(),
        )?;
    }
    Ok(secs(t))
}

pub fn census_check(before: (usize, usize, usize), after: (usize, usize, usize)) -> Vec<String> {
    if before == after {
        Vec::new()
    } else {
        vec![format!(
            "species census not conserved: (Fe, Cu, vac) {before:?} -> {after:?}"
        )]
    }
}

fn end_to_end(setup_s: f64, lp: &Loop, wall_s: f64) -> Metrics {
    Metrics::from([
        ("hops_per_s".into(), ratio(lp.run_hops as f64, lp.run_s)),
        ("sim_s_per_wall_s".into(), ratio(lp.run_sim_s, lp.run_s)),
        ("setup_s".into(), setup_s),
        ("wall_s".into(), wall_s),
        ("peak_rss_mb".into(), peak_rss_mb()),
    ])
}

/// The plain run: exactly the CLI's wiring, no telemetry.
pub fn run_plain(deck_path: &str) -> Result<SampleOut, String> {
    let t0 = Instant::now();
    let deck = load_deck(deck_path)?;
    let setup = driver::build_engine(&deck, None, None)?;
    let mut engine = setup.engine;
    let build_s = secs(t0);
    let census0 = engine.lattice().census();
    let mut sampler = Sampler::new(&engine);
    let lp = run_loop(&mut engine, &deck, &mut sampler, false, &mut |_| {})
        .map_err(|e| e.to_string())?;
    write_outputs(&engine, &deck, &sampler.log)?;
    let wall_s = secs(t0);
    Ok(SampleOut {
        samples: vec![end_to_end(build_s + lp.first_refresh_s, &lp, wall_s)],
        failures: census_check(census0, engine.lattice().census()),
        ..SampleOut::default()
    })
}

/// The set-up layers of a traced serial run, in call order.
const SETUP_LAYERS: [&str; 5] = [
    "nnp.model_load_s",
    "operators.evaluator_build_s",
    "lattice.init_s",
    "core.engine_new_s",
    "core.first_refresh_s",
];

/// Timer total in seconds, minus the value in an earlier snapshot.
fn timer_s(now: &Snapshot, before: &Snapshot, name: &str) -> f64 {
    let t = |s: &Snapshot| s.timer(name).map_or(0, |t| t.total_ns);
    (t(now) - t(before)) as f64 * 1e-9
}

fn counter(now: &Snapshot, before: &Snapshot, name: &str) -> f64 {
    (now.counter(name).unwrap_or(0) - before.counter(name).unwrap_or(0)) as f64
}

fn histogram_sum(now: &Snapshot, before: &Snapshot, name: &str) -> f64 {
    let s = |s: &Snapshot| s.histogram(name).map_or(0, |h| h.sum);
    (s(now) - s(before)) as f64
}

/// The traced run: the same engine built one layer call at a time, with
/// the decorator, the program's registry and per-step timing.
pub fn run_traced(deck_path: &str) -> Result<SampleOut, String> {
    let t0 = Instant::now();
    let deck = load_deck(deck_path)?;
    let registry = Registry::new();
    let mut layer = Metrics::new();
    let mut timed = |name: &str, t: Instant| {
        layer.insert(name.into(), secs(t));
    };

    let t = Instant::now();
    let path = model_path(&deck)?;
    let json = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    let model = NnpModel::from_json_str(&json).map_err(|e| format!("bad model {path}: {e}"))?;
    timed("nnp.model_load_s", t);

    let t = Instant::now();
    let geom = Arc::new(
        RegionGeometry::new(deck.lattice_constant, model.rcut).map_err(|e| e.to_string())?,
    );
    let (evaluator, traffic): (VacancyEnergyEvaluatorBox, Option<Arc<TrafficCounter>>) =
        if deck.sunway {
            let eval = SunwayEvaluator::new(&model, Arc::clone(&geom), CgConfig::default());
            let traffic = eval.core_group().traffic_handle();
            (Box::new(eval.with_telemetry(&registry)), Some(traffic))
        } else {
            let eval = NnpDirectEvaluator::new(&model, Arc::clone(&geom));
            (Box::new(eval.with_telemetry(&registry)), None)
        };
    let tally = Arc::new(EvalTally::default());
    let evaluator = Timed::new(evaluator, Arc::clone(&tally));
    timed("operators.evaluator_build_s", t);

    let t = Instant::now();
    let lattice = fresh_lattice(&deck)?;
    timed("lattice.init_s", t);

    let t = Instant::now();
    let mut engine = KmcEngine::new(
        lattice,
        Arc::clone(&geom),
        evaluator,
        driver::engine_config(&deck),
        deck.seed,
    )
    .map_err(|e| e.to_string())?;
    // The knob re-application `driver::build_engine` performs.
    engine.set_refresh_threads(driver::resolve_refresh_threads(&deck));
    engine.set_batch_systems(deck.batch_systems as usize);
    engine.set_delta_features(deck.delta_features);
    engine.set_energy_cache_entries(deck.energy_cache_entries as usize);
    engine.set_precision(deck.precision);
    engine.attach_telemetry(&registry);
    timed("core.engine_new_s", t);

    let census0 = engine.lattice().census();
    let mut sampler = Sampler::new(&engine);
    // Layer counters are read after the first refresh, so they describe
    // the run phase only; the first refresh is set-up.
    let mut before = None;
    let mut after_first = |engine: &KmcEngine<_>| {
        before = Some((
            registry.snapshot(),
            tally.snapshot(),
            engine.memo_stats(),
            engine.stats(),
            traffic.as_ref().map(|t| t.report()),
        ));
    };
    let lp = run_loop(&mut engine, &deck, &mut sampler, true, &mut after_first)
        .map_err(|e| e.to_string())?;
    let output_s = write_outputs(&engine, &deck, &sampler.log)?;
    let wall_s = secs(t0);

    let (snap0, tally0, memo0, stats0, traffic0) = before.ok_or("the deck ran no steps")?;
    let snap = registry.snapshot();
    let ev = tally.snapshot().since(&tally0);
    let memo = engine.memo_stats().since(&memo0);
    let stats = engine.stats();
    let hops = (stats.steps - stats0.steps) as f64;
    let step_s = lp.step_ns.iter().sum::<u64>() as f64 * 1e-9;
    let step_us: Vec<f64> = lp.step_ns.iter().map(|&n| n as f64 * 1e-3).collect();
    let evals = counter(&snap, &snap0, keys::OP_EVALS);
    let kernel_s = [
        keys::OP_KERNEL_FUSED,
        keys::OP_KERNEL_BIGFUSION,
        keys::OP_KERNEL_EAM,
    ]
    .iter()
    .map(|k| timer_s(&snap, &snap0, k))
    .sum::<f64>();
    let hits = counter(&snap, &snap0, keys::CACHE_HIT);
    let misses = counter(&snap, &snap0, keys::CACHE_MISS);

    layer.insert("core.first_refresh_s".into(), lp.first_refresh_s);
    layer.extend([
        ("core.step_s".into(), step_s),
        ("core.step_p50_us".into(), quantile(&step_us, 0.5)),
        ("core.step_p99_us".into(), quantile(&step_us, 0.99)),
        ("core.self_s".into(), step_s - ev.secs()),
        (
            "core.refreshes_per_hop".into(),
            ratio((stats.refreshes - stats0.refreshes) as f64, hops),
        ),
        (
            "core.vacancy_cache_hit_rate".into(),
            ratio(hits, hits + misses),
        ),
        (
            "core.memo_hit_rate".into(),
            ratio(memo.hits as f64, (memo.hits + memo.misses) as f64),
        ),
        ("core.memo_evictions".into(), memo.evictions as f64),
        ("core.state_bytes".into(), engine.memory_bytes() as f64),
        ("operators.eval_s".into(), ev.secs()),
        ("operators.eval_calls".into(), ev.calls as f64),
        (
            "operators.systems_per_call".into(),
            ratio(ev.systems as f64, ev.calls as f64),
        ),
        (
            "operators.us_per_system".into(),
            ratio(ev.secs() * 1e6, ev.systems as f64),
        ),
        (
            "operators.feature_s".into(),
            timer_s(&snap, &snap0, keys::OP_FEATURE),
        ),
        ("operators.kernel_s".into(), kernel_s),
        (
            "operators.rows_computed_per_eval".into(),
            ratio(
                counter(&snap, &snap0, keys::OP_FEATURE_ROWS_COMPUTED),
                evals,
            ),
        ),
        (
            "operators.unique_rows_per_eval".into(),
            ratio(
                histogram_sum(&snap, &snap0, keys::OP_KERNEL_UNIQUE_ROWS),
                evals,
            ),
        ),
        (
            "regime.batched_system_share".into(),
            ratio(ev.batched_systems as f64, ev.systems as f64),
        ),
        (
            "regime.memo_evictions_per_capacity".into(),
            ratio(memo.evictions as f64, deck.energy_cache_entries as f64),
        ),
        ("analysis.sample_s".into(), sampler.secs),
        ("analysis.output_s".into(), output_s),
    ]);
    if let (Some(tc), Some(r0)) = (&traffic, traffic0) {
        let r = tc.report().since(&r0);
        let n = ev.systems as f64;
        layer.extend([
            (
                "sunway.dma_bytes_per_eval".into(),
                ratio((r.dma_get_bytes + r.dma_put_bytes) as f64, n),
            ),
            (
                "sunway.rma_bytes_per_eval".into(),
                ratio(r.rma_bytes as f64, n),
            ),
            ("sunway.flops_per_eval".into(), ratio(r.flops as f64, n)),
            (
                "sunway.arithmetic_intensity".into(),
                r.arithmetic_intensity(),
            ),
        ]);
    }
    let setup_s = SETUP_LAYERS.iter().map(|k| layer[*k]).sum::<f64>();
    attribute(
        &mut layer,
        wall_s,
        &[
            ("setup", setup_s),
            ("core_self", step_s - ev.secs()),
            ("operators_eval", ev.secs()),
            ("analysis_sample", sampler.secs),
            ("analysis_output", output_s),
        ],
    );
    Ok(SampleOut {
        samples: vec![end_to_end(setup_s, &lp, wall_s)],
        layer,
        failures: census_check(census0, engine.lattice().census()),
        ..SampleOut::default()
    })
}

/// Records each part's share of `wall_s` and the unattributed rest as
/// `bench.other_s`, so the shares sum to one.
pub fn attribute(layer: &mut Metrics, wall_s: f64, parts: &[(&str, f64)]) {
    let attributed: f64 = parts.iter().map(|(_, s)| s).sum();
    let other = wall_s - attributed;
    layer.insert("bench.other_s".into(), other);
    layer.insert("bench.traced_wall_s".into(), wall_s);
    for (name, s) in parts.iter().chain(&[("other", other)]) {
        layer.insert(format!("share.{name}"), ratio(*s, wall_s));
    }
}
