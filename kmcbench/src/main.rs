//! `kmcbench` — end-to-end TensorKMC benchmark over four named decks.
//!
//! ```text
//! kmcbench --workload <name|all> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! The parent process trains the shared model fixture once (never timed),
//! runs the correctness references (the `tensorkmc` CLI on the first
//! deck, and the same deck in the other trace mode), then runs samples for
//! `--seconds`: one child process per deck run (per job server of
//! `served::JOBS_PER_SERVER` jobs for the served workload), so every sample
//! has its own peak RSS. It prints a
//! report and, as its last line, one JSON result. `--trace 0` reports the
//! end-to-end metrics; `--trace 1` reports the per-layer metrics measured
//! by the traced wiring (see `serial.rs`, `ranks.rs`, `served.rs`).

mod ranks;
mod serial;
mod served;
mod stats;
mod timed;
mod workload;

use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};
use std::time::Instant;

use tensorkmc_compat::codec::JsonCodec;
use tensorkmc_compat::json::Json;

use stats::{median, metrics_from_json, metrics_to_json, tail_percentile, Metrics};
use workload::{Kind, Workload};

/// What one child process measured.
#[derive(Debug, Default)]
pub struct SampleOut {
    /// End-to-end metrics, one map per deck run (per job when served).
    pub samples: Vec<Metrics>,
    /// Per-layer metrics of the run (traced runs only).
    pub layer: Metrics,
    /// Failed correctness checks and errors.
    pub failures: Vec<String>,
    /// Operations attempted and failed beyond the run itself (jobs and
    /// HTTP requests of the served workload).
    pub attempted: u64,
    pub failed: u64,
}

impl SampleOut {
    fn to_json(&self) -> Json {
        Json::obj([
            (
                "samples",
                Json::Arr(self.samples.iter().map(metrics_to_json).collect()),
            ),
            ("layer", metrics_to_json(&self.layer)),
            (
                "failures",
                Json::Arr(self.failures.iter().cloned().map(Json::Str).collect()),
            ),
            ("attempted", Json::UInt(self.attempted)),
            ("failed", Json::UInt(self.failed)),
        ])
    }

    fn from_json(j: &Json) -> SampleOut {
        let list = |k: &str| match j.get(k) {
            Some(Json::Arr(v)) => v.clone(),
            _ => Vec::new(),
        };
        SampleOut {
            samples: list("samples")
                .iter()
                .map(|s| metrics_from_json(Some(s)))
                .collect(),
            layer: metrics_from_json(j.get("layer")),
            failures: list("failures")
                .iter()
                .filter_map(|f| f.as_str().ok().map(String::from))
                .collect(),
            attempted: j
                .get("attempted")
                .and_then(|v| v.as_u64().ok())
                .unwrap_or(0),
            failed: j.get("failed").and_then(|v| v.as_u64().ok()).unwrap_or(0),
        }
    }

    /// A run that could not produce a result.
    fn error(msg: String) -> SampleOut {
        SampleOut {
            failures: vec![msg],
            ..SampleOut::default()
        }
    }
}

/// The deck seed of run `i` of a benchmark invocation with `seed`: every
/// run in a window follows its own trajectory. The pair is hashed
/// (splitmix64) so that nearby seeds do not start correlated generators,
/// and kept below 2^63 so any JSON reader takes the deck's seed exactly.
pub fn sample_seed(seed: u64, i: usize) -> u64 {
    let mut z = seed
        .wrapping_mul(0x9e37_79b9_7f4a_7c15)
        .wrapping_add(i as u64)
        .wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    (z ^ (z >> 31)) >> 1
}

/// End-to-end metrics gated by BENCHMARK.json: (name, unit, lower is
/// better).
const END_TO_END: &[(&str, &str, bool)] = &[
    ("hops_per_s", "1/s", false),
    ("sim_s_per_wall_s", "s/s", false),
    ("setup_s", "s", true),
    ("wall_s", "s", true),
    ("peak_rss_mb", "MiB", true),
];

/// End-to-end metrics only the served workload has; reported, not gated.
const SERVED_ONLY: &[(&str, &str, bool)] = &[
    ("job_turnaround_s", "s", true),
    ("first_frame_s", "s", true),
    ("jobs_per_s", "1/s", false),
];

/// Per-layer metrics of traced runs: (name, unit). A workload that does
/// not exercise a layer reports 0 for it.
const PER_LAYER: &[(&str, &str)] = &[
    ("nnp.model_load_s", "s"),
    ("operators.evaluator_build_s", "s"),
    ("lattice.init_s", "s"),
    ("core.engine_new_s", "s"),
    ("core.first_refresh_s", "s"),
    ("core.step_s", "s"),
    ("core.step_p50_us", "us"),
    ("core.step_p99_us", "us"),
    ("core.self_s", "s"),
    ("core.refreshes_per_hop", "count"),
    ("core.vacancy_cache_hit_rate", "ratio"),
    ("core.memo_hit_rate", "ratio"),
    ("core.memo_evictions", "count"),
    ("core.state_bytes", "B"),
    ("operators.eval_s", "s"),
    ("operators.eval_calls", "count"),
    ("operators.systems_per_call", "count"),
    ("operators.us_per_system", "us"),
    ("operators.feature_s", "s"),
    ("operators.kernel_s", "s"),
    ("operators.rows_computed_per_eval", "count"),
    ("operators.unique_rows_per_eval", "count"),
    ("sunway.dma_bytes_per_eval", "B"),
    ("sunway.rma_bytes_per_eval", "B"),
    ("sunway.flops_per_eval", "flop"),
    ("sunway.arithmetic_intensity", "flop/B"),
    ("analysis.sample_s", "s"),
    ("analysis.output_s", "s"),
    ("parallel.run_s", "s"),
    ("parallel.cycles", "count"),
    ("parallel.halo_bytes_per_cycle", "B"),
    ("parallel.remote_mods_per_cycle", "count"),
    ("parallel.rank_eval_s_max", "s"),
    ("parallel.rank_eval_s_mean", "s"),
    ("parallel.evals_per_hop", "count"),
    ("parallel.rank_imbalance", "ratio"),
    ("parallel.sync_wait_s", "s"),
    ("serve.jobs", "count"),
    ("serve.submit_ms", "ms"),
    ("serve.queue_wait_s", "s"),
    ("serve.stream_bytes_per_job", "B"),
    ("serve.fsyncs_per_job", "count"),
    ("serve.state_bytes", "B"),
    ("serve.persist_ms", "ms"),
    ("compat.lz_compress_ms", "ms"),
    ("regime.batched_system_share", "ratio"),
    ("regime.memo_evictions_per_capacity", "ratio"),
    ("regime.persist_share", "ratio"),
    ("telemetry.overhead_frac", "ratio"),
    ("bench.traced_wall_s", "s"),
    ("bench.other_s", "s"),
    ("share.setup", "ratio"),
    ("share.core_self", "ratio"),
    ("share.operators_eval", "ratio"),
    ("share.analysis_sample", "ratio"),
    ("share.analysis_output", "ratio"),
    ("share.parallel_sync", "ratio"),
    ("share.parallel_rest", "ratio"),
    ("share.serve_submit", "ratio"),
    ("share.serve_queue_wait", "ratio"),
    ("share.serve_persist", "ratio"),
    ("share.serve_job_rest", "ratio"),
    ("share.bench_checks", "ratio"),
    ("share.other", "ratio"),
];

/// Seed of the shared model fixture (`quickstart::train_small_model`).
const MODEL_SEED: u64 = 42;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn flag<'a>(args: &'a [String], name: &str) -> Option<&'a str> {
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1))
        .map(String::as_str)
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let need = |name: &str| flag(args, name).ok_or(format!("missing {name}"));
    let workload = need("--workload")?.to_string();
    if workload != "all" && workload::find(&workload).is_none() {
        let names: Vec<_> = workload::ALL.iter().map(|w| w.name).collect();
        return Err(format!(
            "unknown workload {workload:?} (one of {names:?} or all)"
        ));
    }
    let seed = need("--seed")?
        .parse()
        .map_err(|e| format!("--seed: {e}"))?;
    let seconds: f64 = need("--seconds")?
        .parse()
        .map_err(|e| format!("--seconds: {e}"))?;
    let trace = match need("--trace")? {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace takes 0 or 1, got {other:?}")),
    };
    if seconds.is_nan() || seconds <= 0.0 {
        return Err("--seconds must be positive".into());
    }
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
    })
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("sample") {
        let out = child(&args[1..]).unwrap_or_else(SampleOut::error);
        println!("{}", out.to_json());
        return ExitCode::SUCCESS;
    }
    let parsed = match parse_args(&args) {
        Ok(a) => a,
        Err(e) => {
            eprintln!(
                "error: {e}\nusage: kmcbench --workload <name|all> --seed <n> \
                 --seconds <s> --trace <0|1>"
            );
            return ExitCode::FAILURE;
        }
    };
    match parent(&parsed) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

/// A child process: one deck run (`--deck`) or one job server's jobs.
fn child(args: &[String]) -> Result<SampleOut, String> {
    let traced = flag(args, "--trace") == Some("1");
    if let Some(deck) = flag(args, "--deck") {
        return if serial::load_deck(deck)?.ranks > 0 {
            ranks::run(deck, traced)
        } else if traced {
            serial::run_traced(deck)
        } else {
            serial::run_plain(deck)
        };
    }
    let need = |name: &str| flag(args, name).ok_or(format!("sample: missing {name}"));
    let workload = workload::find(need("--workload")?).ok_or("sample: unknown workload")?;
    let seed = need("--seed")?
        .parse()
        .map_err(|e| format!("--seed: {e}"))?;
    let first_job = need("--first-job")?
        .parse()
        .map_err(|e| format!("--first-job: {e}"))?;
    served::run(
        workload,
        seed,
        first_job,
        Path::new(need("--model")?),
        Path::new(need("--dir")?),
        traced,
    )
}

/// Runs this executable as a child and parses its result line.
fn spawn_child(args: &[&str]) -> SampleOut {
    let exe = match std::env::current_exe() {
        Ok(e) => e,
        Err(e) => return SampleOut::error(format!("cannot locate the benchmark binary: {e}")),
    };
    let out = Command::new(exe)
        .arg("sample")
        .args(args)
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output();
    match out {
        Ok(o) => {
            let text = String::from_utf8_lossy(&o.stdout);
            match text.lines().last().map(Json::parse) {
                Some(Ok(j)) if o.status.success() => SampleOut::from_json(&j),
                _ => SampleOut::error(format!("sample {args:?} failed: {}", o.status)),
            }
        }
        Err(e) => SampleOut::error(format!("cannot run sample {args:?}: {e}")),
    }
}

fn write_deck(w: &Workload, seed: u64, model: &Path, dir: &Path) -> Result<PathBuf, String> {
    std::fs::create_dir_all(dir).map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
    let deck = w.deck(seed, model, dir);
    let path = dir.join("deck.json");
    let text = deck.to_json().map_err(|e| e.to_string())?;
    std::fs::write(&path, text).map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    Ok(path)
}

fn path_arg(p: &Path) -> &str {
    p.to_str().unwrap_or_default()
}

/// Everything one workload invocation measured.
struct Outcome {
    samples: Vec<Metrics>,
    layers: Vec<Metrics>,
    failures: Vec<String>,
    attempted: u64,
    failed: u64,
    window_s: f64,
}

impl Outcome {
    fn absorb(&mut self, out: SampleOut, is_sample: bool) {
        // A run is attempted once; it fails once however many checks it
        // failed.
        self.attempted += 1 + out.attempted;
        self.failed += out.failed + u64::from(!out.failures.is_empty() && out.failed == 0);
        self.failures.extend(out.failures);
        if is_sample {
            self.samples.extend(out.samples);
            if !out.layer.is_empty() {
                self.layers.push(out.layer);
            }
        }
    }

    /// Records one correctness comparison as its own attempted check.
    fn check_same(&mut self, what: &str, a: &Path, b: &Path) {
        self.attempted += 1;
        let read = |p: &Path| std::fs::read(p).map_err(|e| format!("{}: {e}", p.display()));
        match (read(a), read(b)) {
            (Ok(x), Ok(y)) if x == y => {}
            (Ok(_), Ok(_)) => {
                self.failed += 1;
                self.failures.push(format!(
                    "{what}: {} and {} differ",
                    a.display(),
                    b.display()
                ));
            }
            (Err(e), _) | (_, Err(e)) => {
                self.failed += 1;
                self.failures.push(format!("{what}: {e}"));
            }
        }
    }
}

/// Runs `tensorkmc -in <deck>` in the deck's directory.
fn run_cli(cli: &Path, deck: &Path) -> SampleOut {
    let status = Command::new(cli)
        .arg("-in")
        .arg(deck)
        .current_dir(deck.parent().unwrap_or(Path::new(".")))
        .stdin(Stdio::null())
        .stdout(Stdio::null())
        .stderr(Stdio::inherit())
        .status();
    match status {
        Ok(s) if s.success() => SampleOut::default(),
        Ok(s) => SampleOut::error(format!("tensorkmc -in {}: {s}", deck.display())),
        Err(e) => SampleOut::error(format!("cannot run {}: {e}", cli.display())),
    }
}

fn run_workload(w: &Workload, args: &Args, model: &Path, work: &Path) -> Result<Outcome, String> {
    let cli = std::env::current_exe()
        .map_err(|e| e.to_string())?
        .with_file_name("tensorkmc");
    let mut o = Outcome {
        samples: Vec::new(),
        layers: Vec::new(),
        failures: Vec::new(),
        attempted: 0,
        failed: 0,
        window_s: 0.0,
    };
    let trace = if args.trace { "1" } else { "0" };
    let other_trace = if args.trace { "0" } else { "1" };
    let seed0 = sample_seed(args.seed, 0);

    // References on the first deck: the CLI, and the benchmark's own
    // serial/rank wiring in the other trace mode.
    let cli_dir = work.join("ref-cli");
    let cli_deck = write_deck(w, seed0, model, &cli_dir)?;
    o.absorb(run_cli(&cli, &cli_deck), false);
    let other_dir = work.join("ref-other");
    let other_deck = write_deck(w, seed0, model, &other_dir)?;
    let other = spawn_child(&["--deck", path_arg(&other_deck), "--trace", other_trace]);
    let other_wall = other.samples.first().and_then(|s| s.get("wall_s").copied());
    o.absorb(other, false);

    let t = Instant::now();
    let seed = args.seed.to_string();
    let mut i = 0;
    while i == 0 || t.elapsed().as_secs_f64() < args.seconds {
        let dir = work.join(format!("sample-{i}"));
        let out = if w.kind == Kind::Served {
            std::fs::create_dir_all(&dir).map_err(|e| e.to_string())?;
            let first_job = (i * served::JOBS_PER_SERVER).to_string();
            spawn_child(&[
                "--workload",
                w.name,
                "--seed",
                &seed,
                "--first-job",
                &first_job,
                "--model",
                path_arg(model),
                "--dir",
                path_arg(&dir),
                "--trace",
                trace,
            ])
        } else {
            let deck = write_deck(w, sample_seed(args.seed, i), model, &dir)?;
            spawn_child(&["--deck", path_arg(&deck), "--trace", trace])
        };
        o.absorb(out, true);
        if i > 0 {
            std::fs::remove_dir_all(&dir).ok();
        }
        i += 1;
    }
    o.window_s = t.elapsed().as_secs_f64();
    let first_dir = match w.kind {
        Kind::Served => work.join("sample-0").join("job-0"),
        _ => work.join("sample-0"),
    };

    // The first run must end on the CLI's bytes and on the other trace
    // mode's checkpoint.
    let mut files = vec!["final.xyz", "checkpoint.json"];
    if w.kind != Kind::Ranks {
        files.push("observables.csv");
    }
    for f in files {
        o.check_same(
            &format!("{f} vs tensorkmc -in"),
            &first_dir.join(f),
            &cli_dir.join(f),
        );
    }
    o.check_same(
        "checkpoint vs other trace mode",
        &first_dir.join("checkpoint.json"),
        &other_dir.join("checkpoint.json"),
    );

    if args.trace {
        let traced_wall = o.samples.first().and_then(|s| s.get("wall_s").copied());
        let overhead = match (traced_wall, other_wall, w.kind) {
            // The served client adds nothing inside a job: its replay and
            // checks run after the last stream byte.
            (_, _, Kind::Served) => 0.0,
            (Some(t), Some(u), _) => t / u - 1.0,
            _ => f64::NAN,
        };
        for l in &mut o.layers {
            l.insert("telemetry.overhead_frac".into(), overhead);
        }
    }
    Ok(o)
}

fn fmt_num(v: f64) -> String {
    if v == 0.0 || (1e-3..1e6).contains(&v.abs()) {
        format!("{v:.4}")
    } else {
        format!("{v:.4e}")
    }
}

/// Prints the report and returns the result object.
fn report(w: &Workload, args: &Args, o: &Outcome) -> Json {
    println!(
        "== {} (seed {}, {}, {} samples in {:.1} s) ==",
        w.name,
        args.seed,
        if args.trace { "traced" } else { "untraced" },
        o.samples.len(),
        o.window_s
    );
    let mut metrics = Vec::new();
    if args.trace {
        println!(
            "{:<38} {:>8} {:>14}",
            "layer metric (mean)", "unit", "value"
        );
        for &(name, unit) in PER_LAYER {
            let vals: Vec<f64> = o
                .layers
                .iter()
                .filter_map(|l| l.get(name).copied())
                .collect();
            let v = if vals.is_empty() {
                0.0
            } else {
                vals.iter().sum::<f64>() / vals.len() as f64
            };
            println!("{name:<38} {unit:>8} {:>14}", fmt_num(v));
            metrics.push((name, unit, v));
        }
    } else {
        println!(
            "{:<18} {:>6} {:>14} {:>20} {:>4}",
            "metric", "unit", "median", "tail", "n"
        );
        let served = if w.kind == Kind::Served {
            SERVED_ONLY
        } else {
            &[]
        };
        for &(name, unit, lower_better) in END_TO_END.iter().chain(served) {
            let vals: Vec<f64> = o
                .samples
                .iter()
                .filter_map(|s| s.get(name).copied())
                .collect();
            let m = median(&vals);
            let tail = tail_percentile(&vals, lower_better)
                .map_or("-".to_string(), |(p, v)| format!("p{p} {}", fmt_num(v)));
            println!(
                "{name:<18} {unit:>6} {:>14} {tail:>20} {:>4}",
                fmt_num(m),
                vals.len()
            );
            if END_TO_END.iter().any(|e| e.0 == name) {
                metrics.push((name, unit, m));
            }
        }
    }
    println!(
        "{:<18} {:>6} {:>14}   ({} failed of {} attempted)",
        "error_rate",
        "ratio",
        fmt_num(stats::ratio(o.failed as f64, o.attempted as f64)),
        o.failed,
        o.attempted
    );
    for f in &o.failures {
        println!("FAILED: {f}");
    }
    let correct = o.failures.is_empty() && o.failed == 0 && !o.samples.is_empty();
    Json::obj([
        ("correct", Json::Bool(correct)),
        ("attempted", Json::UInt(o.attempted.max(1))),
        ("failed", Json::UInt(o.failed)),
        (
            "metrics",
            Json::Obj(
                metrics
                    .into_iter()
                    .map(|(name, unit, v)| {
                        (
                            name.to_string(),
                            Json::obj([("value", Json::Num(v)), ("unit", Json::Str(unit.into()))]),
                        )
                    })
                    .collect(),
            ),
        ),
    ])
}

fn parent(args: &Args) -> Result<(), String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let target = exe
        .parent()
        .and_then(Path::parent)
        .ok_or("cannot locate the build directory")?;
    let work = target
        .join("kmcbench-work")
        .join(format!("run-{}", std::process::id()));
    std::fs::create_dir_all(&work).map_err(|e| format!("cannot create {}: {e}", work.display()))?;

    // The model fixture: trained once per invocation, never timed.
    let t = Instant::now();
    let model = work.join("model.json");
    std::fs::write(
        &model,
        tensorkmc::quickstart::train_small_model(MODEL_SEED).to_json_string(),
    )
    .map_err(|e| format!("cannot write {}: {e}", model.display()))?;
    println!(
        "fixture: quickstart::train_small_model({MODEL_SEED}) in {:.2} s (not timed)",
        t.elapsed().as_secs_f64()
    );
    println!(
        "host: {} cores available (std::thread::available_parallelism)",
        std::thread::available_parallelism().map_or(0, |n| n.get())
    );

    let workloads: Vec<&Workload> = match args.workload.as_str() {
        "all" => workload::ALL.iter().collect(),
        name => workload::find(name).into_iter().collect(),
    };
    let mut result = Ok(());
    for w in workloads {
        let dir = work.join(w.name);
        match run_workload(w, args, &model, &dir) {
            Ok(o) => println!("{}", report(w, args, &o)),
            Err(e) => result = Err(format!("{}: {e}", w.name)),
        }
        std::fs::remove_dir_all(&dir).ok();
    }
    std::fs::remove_dir_all(&work).ok();
    result
}

#[cfg(test)]
mod tests {
    use super::*;

    /// BENCHMARK.json at the repository root lists exactly the metrics this
    /// binary reports.
    #[test]
    fn benchmark_json_matches_the_metric_catalogue() {
        let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
        let text = std::fs::read_to_string(path).unwrap();
        let json = Json::parse(&text).unwrap();
        let names = |key: &str| -> Vec<(String, String)> {
            match json.get(key) {
                Some(Json::Arr(v)) => v
                    .iter()
                    .map(|m| {
                        let f = |k| m.get(k).unwrap().as_str().unwrap().to_string();
                        (f("name"), f("unit"))
                    })
                    .collect(),
                _ => panic!("{key} missing"),
            }
        };
        let e2e: Vec<_> = END_TO_END
            .iter()
            .map(|(n, u, _)| (n.to_string(), u.to_string()))
            .collect();
        assert_eq!(names("end_to_end"), e2e);
        let layer: Vec<_> = PER_LAYER
            .iter()
            .map(|(n, u)| (n.to_string(), u.to_string()))
            .collect();
        assert_eq!(names("per_layer"), layer);
        let workloads: Vec<String> = match json.get("workloads") {
            Some(Json::Arr(v)) => v
                .iter()
                .map(|w| w.get("name").unwrap().as_str().unwrap().to_string())
                .collect(),
            _ => panic!("workloads missing"),
        };
        for w in &workloads {
            assert!(workload::find(w).is_some(), "unknown workload {w}");
        }
    }
}
