//! Observability integration: the span tracer nests the KMC phases without
//! perturbing the trajectory, the driver's `--trace` flag exports a valid
//! Chrome trace, and `--metrics-listen` serves live Prometheus/JSON scrapes
//! while a run is in flight.

use std::collections::{HashMap, HashSet};
use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::sync::Arc;
use tensorkmc::core::{KmcConfig, KmcEngine};
use tensorkmc::lattice::{AlloyComposition, PeriodicBox, SiteArray};
use tensorkmc::operators::NnpDirectEvaluator;
use tensorkmc::quickstart;
use tensorkmc::telemetry::{keys, Json, Registry, Tracer};
use tensorkmc_compat::rng::StdRng;

const STEPS: u64 = 150;

/// A small NNP-driven engine; telemetry (and through it the tracer) is
/// attached only when a registry is given, so the same builder yields the
/// traced and the control trajectory.
fn build_engine(registry: Option<&Registry>) -> KmcEngine<NnpDirectEvaluator> {
    build_engine_with(registry, 1e-3)
}

/// [`build_engine`] at a chosen vacancy fraction of the 12³-cell box.
fn build_engine_with(
    registry: Option<&Registry>,
    vacancy_fraction: f64,
) -> KmcEngine<NnpDirectEvaluator> {
    let model = quickstart::train_small_model(11);
    let geom = quickstart::geometry_for(&model);
    let evaluator = NnpDirectEvaluator::new(&model, Arc::clone(&geom));
    let evaluator = match registry {
        Some(r) => evaluator.with_telemetry(r),
        None => evaluator,
    };
    let pbox = PeriodicBox::new(12, 12, 12, 2.87).unwrap();
    let comp = AlloyComposition {
        cu_fraction: 0.0134,
        vacancy_fraction,
    };
    let lattice = SiteArray::random_alloy(pbox, comp, &mut StdRng::seed_from_u64(13)).unwrap();
    let mut engine = KmcEngine::new(
        lattice,
        Arc::clone(&geom),
        evaluator,
        KmcConfig::thermal_aging_573k(),
        13,
    )
    .unwrap();
    if let Some(r) = registry {
        engine.attach_telemetry(r);
    }
    engine
}

/// `(parent name, child name)` pairs present in the trace.
fn parent_pairs(events: &[tensorkmc::telemetry::TraceEvent]) -> HashSet<(&str, &str)> {
    let name_of: HashMap<u64, &str> = events.iter().map(|e| (e.id, e.name)).collect();
    events
        .iter()
        .filter(|e| e.parent != 0)
        .filter_map(|e| name_of.get(&e.parent).map(|p| (*p, e.name)))
        .collect()
}

#[test]
fn trace_spans_nest_and_do_not_perturb_the_trajectory() {
    let registry = Registry::new();
    let tracer = Tracer::new();
    registry.set_tracer(Arc::clone(&tracer));
    let mut traced = build_engine(Some(&registry));
    traced.run_steps(STEPS).unwrap();
    let mut control = build_engine(None);
    control.run_steps(STEPS).unwrap();

    // Tracing is an execution knob: the trajectory must be bit-identical.
    assert_eq!(traced.stats(), control.stats());
    assert_eq!(
        tensorkmc::analysis::to_xyz(traced.lattice(), false),
        tensorkmc::analysis::to_xyz(control.lattice(), false)
    );

    tracer.flush_thread();
    assert_eq!(tracer.dropped(), 0, "short run must fit the default buffer");
    let events = tracer.events();
    assert!(events.len() as u64 >= STEPS, "at least one span per step");
    let pairs = parent_pairs(&events);
    // One step reads select -> hop -> invalidate -> refresh under kmc.step,
    // with the gather/kernel/scatter ladder nested inside the refresh.
    for (parent, child) in [
        (keys::STEP, keys::SELECT),
        (keys::STEP, keys::HOP),
        (keys::STEP, keys::INVALIDATE),
        (keys::STEP, keys::REFRESH),
        (keys::REFRESH, keys::REFRESH_GATHER),
        (keys::REFRESH, keys::REFRESH_SCATTER),
    ] {
        assert!(
            pairs.contains(&(parent, child)),
            "missing {parent} -> {child}"
        );
    }
    let names: HashSet<&str> = events.iter().map(|e| e.name).collect();
    for name in [keys::OP_DEDUP, keys::OP_SCATTER, keys::OP_KERNEL_FUSED] {
        assert!(names.contains(name), "missing operator span {name}");
    }

    // The Chrome export is parseable JSON with complete ("X") events.
    let text = tracer.to_chrome_json().to_string();
    let v = Json::parse(&text).unwrap();
    let Some(Json::Arr(items)) = v.get("traceEvents") else {
        panic!("traceEvents must be an array");
    };
    let complete = items
        .iter()
        .filter(|e| matches!(e.get("ph"), Some(Json::Str(p)) if p == "X"))
        .count();
    assert_eq!(complete, events.len());
}

#[test]
fn two_vacancy_refreshes_trace_gather_and_record_chunks() {
    // With two vacancies most refreshes have a single stale system; they
    // run the same pipeline as large batches, so they are traced and
    // recorded the same way.
    let registry = Registry::new();
    let tracer = Tracer::new();
    registry.set_tracer(Arc::clone(&tracer));
    let mut engine = build_engine_with(Some(&registry), 6e-4);
    assert_eq!(engine.n_vacancies(), 2);
    engine.run_steps(STEPS).unwrap();

    tracer.flush_thread();
    let events = tracer.events();
    let pairs = parent_pairs(&events);
    for (parent, child) in [
        (keys::REFRESH, keys::REFRESH_GATHER),
        (keys::REFRESH, keys::REFRESH_SCATTER),
    ] {
        assert!(
            pairs.contains(&(parent, child)),
            "missing {parent} -> {child}"
        );
    }
    let gathers = events
        .iter()
        .filter(|e| e.name == keys::REFRESH_GATHER)
        .count() as u64;
    assert_eq!(gathers, STEPS, "one gather per refresh");

    let snap = registry.snapshot();
    let per_step = snap.histogram(keys::REFRESHED_PER_STEP).unwrap();
    assert_eq!(per_step.min, 1, "single-stale refreshes occur");
    let batch = snap.histogram(keys::REFRESH_BATCH).unwrap();
    assert_eq!(batch.count, STEPS, "one record per refresh");
    let rows = snap.histogram(keys::REFRESH_BATCH_ROWS).unwrap();
    let evals = snap.counter(keys::OP_EVALS).unwrap();
    assert!(
        rows.count > 0 && rows.count <= evals,
        "one record per evaluated chunk"
    );
}

/// Writes a small EAM deck (no NNP training) into `dir` and returns its path.
fn write_eam_deck(dir: &Path, name: &str, max_steps: u64) -> PathBuf {
    let path = dir.join(name);
    std::fs::write(
        &path,
        format!(
            "{{\"cells\": 12, \"vacancy_fraction\": 0.005, \
             \"model\": {{\"source\": \"eam\"}}, \
             \"max_steps\": {max_steps}, \"max_time\": 1e6, \
             \"sample_every\": 200}}"
        ),
    )
    .unwrap();
    path
}

fn scratch_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("tensorkmc-obs-{tag}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// One blocking HTTP/1.1 GET against `addr`; returns the raw response.
fn http_get(addr: &str, path: &str) -> String {
    let mut stream = TcpStream::connect(addr).unwrap();
    stream
        .write_all(
            format!("GET {path} HTTP/1.1\r\nHost: {addr}\r\nConnection: close\r\n\r\n").as_bytes(),
        )
        .unwrap();
    let mut response = String::new();
    stream.read_to_string(&mut response).unwrap();
    response
}

#[test]
fn driver_serves_live_metrics_while_running() {
    let dir = scratch_dir("metrics");
    // Enough steps that the run is still in flight when we scrape; the test
    // kills the child once the endpoint has answered.
    let deck = write_eam_deck(&dir, "deck.json", 50_000_000);
    let mut child = Command::new(env!("CARGO_BIN_EXE_tensorkmc"))
        .args([
            "-in",
            deck.to_str().unwrap(),
            "--metrics-listen",
            "127.0.0.1:0",
        ])
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .unwrap();
    // The driver prints the bound address (port 0 picks a free one) before
    // entering the run loop.
    let stdout = child.stdout.take().unwrap();
    let mut lines = BufReader::new(stdout).lines();
    let addr = loop {
        let line = lines
            .next()
            .expect("driver exited before announcing the metrics endpoint")
            .unwrap();
        if let Some(rest) = line.strip_prefix("metrics: listening on http://") {
            break rest.trim_end_matches("/metrics").to_string();
        }
    };

    let prom = http_get(&addr, "/metrics");
    let json = http_get(&addr, "/metrics.json");
    let missing = http_get(&addr, "/nope");
    child.kill().unwrap();
    child.wait().unwrap();
    let _ = std::fs::remove_dir_all(&dir);

    assert!(prom.starts_with("HTTP/1.1 200 OK"), "got: {prom}");
    assert!(
        prom.contains("# TYPE tensorkmc_") && prom.contains("tensorkmc_kmc_step"),
        "prometheus body missing step metrics: {prom}"
    );
    assert!(json.starts_with("HTTP/1.1 200 OK"), "got: {json}");
    let body = json.split("\r\n\r\n").nth(1).expect("json body");
    let v = Json::parse(body).unwrap();
    assert!(
        matches!(v.get("snapshots"), Some(Json::Arr(items)) if !items.is_empty()),
        "scrape must carry at least the driver's registry snapshot"
    );
    assert!(missing.starts_with("HTTP/1.1 404"), "got: {missing}");
}

#[test]
fn driver_trace_export_is_a_nested_chrome_trace() {
    let dir = scratch_dir("trace");
    let deck = write_eam_deck(&dir, "deck.json", 400);
    let trace_path = dir.join("run.trace.json");
    let out = Command::new(env!("CARGO_BIN_EXE_tensorkmc"))
        .args([
            "-in",
            deck.to_str().unwrap(),
            "--trace",
            trace_path.to_str().unwrap(),
            "--refresh-threads",
            "1",
        ])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "driver failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        stdout.contains("trace -> "),
        "missing export line: {stdout}"
    );

    let text = std::fs::read_to_string(&trace_path).unwrap();
    let _ = std::fs::remove_dir_all(&dir);
    let v = Json::parse(&text).unwrap();
    let Some(Json::Arr(items)) = v.get("traceEvents") else {
        panic!("traceEvents must be an array");
    };
    // Rebuild the span tree from the exported args and check the step ->
    // refresh -> (gather | kernel | scatter) nesting survived the export.
    let mut name_of: HashMap<u64, String> = HashMap::new();
    let mut links: Vec<(u64, String)> = Vec::new(); // (parent id, child name)
    for e in items {
        if !matches!(e.get("ph"), Some(Json::Str(p)) if p == "X") {
            continue;
        }
        let name = e.get("name").unwrap().as_str().unwrap().to_string();
        let args = e.get("args").unwrap();
        let id = args.get("id").unwrap().as_u64().unwrap();
        let parent = args.get("parent").unwrap().as_u64().unwrap();
        assert!(e.get("ts").unwrap().as_f64().unwrap() >= 0.0);
        assert!(e.get("dur").unwrap().as_f64().unwrap() >= 0.0);
        name_of.insert(id, name.clone());
        if parent != 0 {
            links.push((parent, name));
        }
    }
    let pairs: HashSet<(String, String)> = links
        .into_iter()
        .filter_map(|(p, child)| name_of.get(&p).map(|pn| (pn.clone(), child)))
        .collect();
    let has = |p: &str, c: &str| pairs.contains(&(p.to_string(), c.to_string()));
    assert!(has(keys::STEP, keys::REFRESH), "step must enclose refresh");
    assert!(
        pairs.iter().any(|(p, _)| p == keys::REFRESH),
        "refresh must have nested children (gather/kernel/scatter), got pairs: {pairs:?}"
    );
    assert!(
        has(keys::REFRESH, keys::REFRESH_GATHER),
        "batched refresh must trace its gather stage"
    );
}
