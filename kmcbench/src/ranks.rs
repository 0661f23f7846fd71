//! One in-process multi-rank deck run through
//! `parallel::sublattice::run_sublattice_full`, wired as the CLI's
//! `tensorkmc -in deck` does for `ranks > 0`.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use tensorkmc::analysis::to_xyz;
use tensorkmc::core::RateLaw;
use tensorkmc::fsutil::write_atomic;
use tensorkmc::lattice::RegionGeometry;
use tensorkmc::nnp::NnpModel;
use tensorkmc::operators::{NnpDirectEvaluator, VacancyEnergyEvaluatorBox};
use tensorkmc::parallel::sublattice::{run_sublattice_full, RunOptions};
use tensorkmc::parallel::{Decomposition, ParallelConfig};
use tensorkmc::telemetry::{keys, Registry};
use tensorkmc_compat::codec::JsonCodec;

use crate::serial::{attribute, census_check, fresh_lattice, load_deck, model_path};
use crate::stats::{peak_rss_mb, ratio, Metrics};
use crate::timed::{EvalTally, Timed};
use crate::SampleOut;

fn secs(t: Instant) -> f64 {
    t.elapsed().as_secs_f64()
}

pub fn run(deck_path: &str, traced: bool) -> Result<SampleOut, String> {
    let t0 = Instant::now();
    let deck = load_deck(deck_path)?;
    let mut layer = Metrics::new();

    let t = Instant::now();
    let path = model_path(&deck)?;
    let json = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    let model = NnpModel::from_json_str(&json).map_err(|e| format!("bad model {path}: {e}"))?;
    let geom = Arc::new(
        RegionGeometry::new(deck.lattice_constant, model.rcut).map_err(|e| e.to_string())?,
    );
    layer.insert("nnp.model_load_s".into(), secs(t));

    let t = Instant::now();
    let lattice = fresh_lattice(&deck)?;
    layer.insert("lattice.init_s".into(), secs(t));

    let pbox = *lattice.pbox();
    let n = deck.ranks as usize;
    let decomp = Decomposition::choose_grid(pbox, n, &geom).map_err(|e| e.to_string())?;
    let mut law = RateLaw::at_temperature(deck.temperature);
    law.barriers = deck.barriers;
    let config = ParallelConfig {
        law,
        t_stop: deck.t_stop,
        total_time: deck.max_time,
        seed: deck.seed,
    };
    let registry = traced.then(Registry::new);
    let tallies: Vec<Arc<EvalTally>> = (0..n).map(|_| Arc::default()).collect();
    let build_ns = AtomicU64::new(0);
    let setup_s = secs(t0);

    let t = Instant::now();
    let (out, stats, _) = run_sublattice_full(
        &lattice,
        Arc::clone(&geom),
        &decomp,
        |rank| {
            let t = Instant::now();
            let eval = NnpDirectEvaluator::new(&model, Arc::clone(&geom));
            let eval: VacancyEnergyEvaluatorBox = match &registry {
                Some(r) => Box::new(Timed::new(
                    eval.with_telemetry(r),
                    Arc::clone(&tallies[rank]),
                )),
                None => Box::new(eval),
            };
            build_ns.fetch_add(t.elapsed().as_nanos() as u64, Ordering::Relaxed);
            eval
        },
        &config,
        RunOptions {
            registry: registry.as_ref(),
            checkpoint_path: (!deck.checkpoint_output.is_empty())
                .then(|| deck.checkpoint_output.clone().into()),
            checkpoint_every_cycles: deck.checkpoint_every_cycles,
            resume: None,
            recv_timeout: Duration::from_millis(deck.recv_timeout_ms),
        },
    )
    .map_err(|e| e.to_string())?;
    let run_s = secs(t);

    let t = Instant::now();
    if !deck.xyz_output.is_empty() {
        write_atomic(&deck.xyz_output, to_xyz(&out, false))
            .map_err(|e| format!("cannot write {}: {e}", deck.xyz_output))?;
    }
    let output_s = secs(t);
    let wall_s = secs(t0);

    let failures = census_check(lattice.census(), out.census());
    let hops = stats.total_events() as f64;
    let e2e = Metrics::from([
        ("hops_per_s".into(), ratio(hops, run_s)),
        ("sim_s_per_wall_s".into(), ratio(stats.time, run_s)),
        ("setup_s".into(), setup_s),
        ("wall_s".into(), wall_s),
        ("peak_rss_mb".into(), peak_rss_mb()),
    ]);

    if let Some(reg) = &registry {
        let snap = reg.snapshot();
        let ranks = n as f64;
        let evals: Vec<_> = tallies.iter().map(|t| t.snapshot()).collect();
        let eval_s: Vec<f64> = evals.iter().map(|e| e.secs()).collect();
        let eval_mean = eval_s.iter().sum::<f64>() / ranks;
        let systems: u64 = evals.iter().map(|e| e.systems).sum();
        let calls: u64 = evals.iter().map(|e| e.calls).sum();
        let events_max = stats.rank_events.iter().copied().max().unwrap_or(0) as f64;
        let sync_mean = snap.timer(keys::PAR_SYNC).map_or(0, |t| t.total_ns) as f64 * 1e-9 / ranks;
        let cycles = stats.cycles as f64;
        layer.extend([
            (
                "operators.evaluator_build_s".into(),
                build_ns.load(Ordering::Relaxed) as f64 * 1e-9,
            ),
            ("operators.eval_s".into(), eval_s.iter().sum()),
            ("operators.eval_calls".into(), calls as f64),
            (
                "operators.systems_per_call".into(),
                ratio(systems as f64, calls as f64),
            ),
            (
                "operators.us_per_system".into(),
                ratio(eval_s.iter().sum::<f64>() * 1e6, systems as f64),
            ),
            (
                "operators.feature_s".into(),
                snap.timer(keys::OP_FEATURE).map_or(0, |t| t.total_ns) as f64 * 1e-9,
            ),
            (
                "operators.kernel_s".into(),
                snap.timer(keys::OP_KERNEL_FUSED).map_or(0, |t| t.total_ns) as f64 * 1e-9,
            ),
            ("parallel.run_s".into(), run_s),
            ("parallel.cycles".into(), cycles),
            (
                "parallel.halo_bytes_per_cycle".into(),
                ratio(stats.halo_bytes as f64, cycles),
            ),
            (
                "parallel.remote_mods_per_cycle".into(),
                ratio(stats.remote_mods as f64, cycles),
            ),
            (
                "parallel.rank_eval_s_max".into(),
                eval_s.iter().copied().fold(0.0, f64::max),
            ),
            ("parallel.rank_eval_s_mean".into(), eval_mean),
            ("parallel.evals_per_hop".into(), ratio(systems as f64, hops)),
            (
                "parallel.rank_imbalance".into(),
                ratio(events_max, hops / ranks),
            ),
            ("parallel.sync_wait_s".into(), sync_mean),
            ("analysis.output_s".into(), output_s),
        ]);
        // Ranks run concurrently, so the run phase is split from one
        // average rank's point of view.
        attribute(
            &mut layer,
            wall_s,
            &[
                ("setup", setup_s),
                ("operators_eval", eval_mean),
                ("parallel_sync", sync_mean),
                ("parallel_rest", run_s - eval_mean - sync_mean),
                ("analysis_output", output_s),
            ],
        );
    } else {
        layer.clear();
    }
    Ok(SampleOut {
        samples: vec![e2e],
        layer,
        failures,
        ..SampleOut::default()
    })
}
