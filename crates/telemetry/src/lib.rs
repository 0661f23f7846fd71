//! Telemetry substrate for the TensorKMC pipeline: spans, counters, gauges,
//! latency histograms, and a JSONL metrics sink.
//!
//! The paper's performance story (Fig. 9 roofline, Fig. 10 stage breakdown,
//! Fig. 11 kernel evolution, Table 1 memory) rests on knowing where time,
//! traffic, and cache hits go. This crate is the measurement substrate every
//! perf-sensitive subsystem reports through:
//!
//! * [`registry`] — a thread-safe [`Registry`] of named [`Timer`]s (count /
//!   total / min / max plus a fixed-bucket latency histogram with p50/p95/p99),
//!   [`Counter`]s, [`Gauge`]s, and free-standing [`Histogram`]s. Handles are
//!   `Arc`s: hot paths resolve a name once at construction and then touch
//!   only relaxed atomics.
//! * [`histogram`] — the log-linear fixed-bucket histogram (8 sub-buckets per
//!   octave, ≤ 6.7% relative quantile error) behind timers and distributions.
//! * [`json`] — a hand-rolled JSON value model (writer + parser). The crate
//!   is intentionally dependency-free; the emitted records parse with any
//!   conforming JSON reader, including `serde_json`.
//! * [`jsonl`] — the metrics sink: one self-describing record per line
//!   (periodic `sample` records plus a final `summary`).
//! * [`trace`] — hierarchical span tracing: per-thread lock-free event
//!   buffers with parent links, exportable as Chrome `trace_event` JSON
//!   (`chrome://tracing` / Perfetto) so one KMC step reads as a flame chart.
//! * [`prometheus`] — Prometheus text exposition (v0.0.4) of snapshots,
//!   with `rank="N"` labels on per-rank registries.
//! * [`serve`] — a std-only HTTP/1.1 responder ([`MetricsServer`]) serving
//!   `/metrics` (Prometheus) and `/metrics.json` live during a run.
//! * [`report`] — the human-readable end-of-run breakdown table.
//! * [`keys`] — the canonical metric names of the instrumented KMC pipeline,
//!   shared by the engine, the operators, the parallel driver, and the
//!   Sunway core-group simulator.
//!
//! Overhead: a disabled pipeline (no registry attached) costs nothing; an
//! enabled one costs two monotonic-clock reads and a handful of relaxed
//! atomic adds per span — far under the 5% budget of a `kmc_step` whose
//! body is an NNP evaluation. Tracing adds one `Vec` push into a
//! thread-local buffer per span and is likewise free when no tracer is
//! attached.

pub mod histogram;
pub mod json;
pub mod jsonl;
pub mod prometheus;
pub mod registry;
pub mod report;
pub mod serve;
pub mod trace;

pub use histogram::Histogram;
pub use json::{Json, JsonError};
pub use jsonl::{sample_record, summary_record, JsonlWriter, RunSummary, SamplePoint, SCHEMA};
pub use registry::{
    Counter, CounterSnapshot, Gauge, GaugeSnapshot, HistogramSnapshot, Registry, ScopedTimer,
    Snapshot, Timer, TimerSnapshot,
};
pub use report::render_table;
pub use serve::{MetricsServer, SnapshotProvider};
pub use trace::{SpanGuard, TraceEvent, Tracer};

/// Canonical metric names of the instrumented pipeline.
///
/// One flat namespace, dot-separated by subsystem. Every producer publishes
/// under these keys so that decks, benches, and tests agree on the schema.
pub mod keys {
    /// Whole `KmcEngine::step` span.
    pub const STEP: &str = "kmc.step";
    /// Rate-refresh phase of a step (the work the vacancy cache saves).
    pub const REFRESH: &str = "kmc.refresh";
    /// Sum-tree selection phase (vacancy + direction + residence time).
    pub const SELECT: &str = "kmc.select";
    /// Hop-execution phase (lattice swap + bookkeeping).
    pub const HOP: &str = "kmc.hop";
    /// VET invalidation sweep after a hop.
    pub const INVALIDATE: &str = "kmc.invalidate";
    /// Vacancy systems found still valid at refresh time (vacancy-cache
    /// hits, paper §3.2 — the environment did not change, nothing to do).
    /// See [`ENERGY_CACHE_HIT`] for the second cache level.
    pub const CACHE_HIT: &str = "kmc.cache.hit";
    /// Vacancy systems that had to be re-evaluated (vacancy-cache misses —
    /// every stale system, whether or not the energy memo then spares the
    /// feature build and inference).
    pub const CACHE_MISS: &str = "kmc.cache.miss";
    /// Distribution: systems refreshed per step.
    pub const REFRESHED_PER_STEP: &str = "kmc.refreshed_systems_per_step";
    /// Gather + evaluation of a refresh run over two or more workers
    /// (`refresh_threads ≥ 2`; absent when the refresh runs inline).
    pub const REFRESH_PARALLEL: &str = "kmc.refresh.parallel";
    /// Distribution: stale systems per refresh, recorded by every refresh
    /// that has at least one (single-stale refreshes included).
    pub const REFRESH_BATCH: &str = "kmc.refresh.batch";
    /// Distribution: feature rows actually submitted per evaluated refresh
    /// chunk (one evaluator call; a refresh whose systems all hit the memo
    /// records none). With delta features on this counts the packed
    /// (state-0 + affected) rows per system, so it agrees with
    /// `op.feature.rows_computed`. Pair with [`REFRESH_BATCH_ROWS_DENSE`]
    /// for the dense-equivalent figure.
    pub const REFRESH_BATCH_ROWS: &str = "kmc.refresh.batch_rows";
    /// Distribution: dense-equivalent rows (`(1+8)·N_region · systems`) of
    /// each evaluated refresh chunk — what the same chunk would cost with
    /// delta features off. The ratio to [`REFRESH_BATCH_ROWS`] is the row
    /// saving of the delta path.
    pub const REFRESH_BATCH_ROWS_DENSE: &str = "kmc.refresh.batch_rows_dense";
    /// Trace span: gathering the stale systems' VETs (every refresh).
    pub const REFRESH_GATHER: &str = "kmc.refresh.gather";
    /// Trace span: deriving rates from the energies and writing them into
    /// the propensity tree (every refresh).
    pub const REFRESH_SCATTER: &str = "kmc.refresh.scatter";
    /// Energy-memo hits: stale systems whose exact VET bit pattern was
    /// evaluated before, so refresh replayed the stored energies and
    /// skipped feature build + inference. Distinct from [`CACHE_HIT`]: the
    /// *vacancy* cache counts systems whose environment did not change at
    /// all (no refresh needed); the *energy memo* counts systems that did
    /// need a refresh but whose recomputed VET recurred.
    pub const ENERGY_CACHE_HIT: &str = "kmc.energy_cache.hit";
    /// Energy-memo misses: refreshed systems whose VET pattern was not in
    /// the memo (full feature build + inference paid, result inserted).
    /// Distinct from [`CACHE_MISS`], which counts all stale systems.
    pub const ENERGY_CACHE_MISS: &str = "kmc.energy_cache.miss";
    /// Energy-memo entries evicted by the LRU bound
    /// (`energy_cache_entries`).
    pub const ENERGY_CACHE_EVICT: &str = "kmc.energy_cache.evict";
    /// Energy-memo lookups whose FNV-1a hash collided with a stored entry
    /// holding a *different* VET — counted as misses, never replayed.
    pub const ENERGY_CACHE_COLLISION: &str = "kmc.energy_cache.collision";

    /// Feature-operator span (VET -> 1+8 state feature batches).
    pub const OP_FEATURE: &str = "op.feature";
    /// Layer-at-a-time fused kernel span (`NnpDirectEvaluator`).
    pub const OP_KERNEL_FUSED: &str = "op.kernel.fused";
    /// Big-fusion kernel span on the simulated core group (`SunwayEvaluator`).
    pub const OP_KERNEL_BIGFUSION: &str = "op.kernel.bigfusion";
    /// EAM oracle evaluation span (`EamLatticeEvaluator`).
    pub const OP_KERNEL_EAM: &str = "op.kernel.eam";
    /// State-energy evaluations performed (one per refreshed system).
    pub const OP_EVALS: &str = "op.evaluations";
    /// Feature rows actually recomputed (state-0 blocks + affected rows on
    /// the delta path; the full `(1+8)·N_region` on the dense path).
    pub const OP_FEATURE_ROWS_COMPUTED: &str = "op.feature.rows_computed";
    /// Feature rows reused bit-for-bit from state 0 by the delta path
    /// (zero on the dense path).
    pub const OP_FEATURE_ROWS_REUSED: &str = "op.feature.rows_reused";
    /// Distribution: distinct rows per NNP kernel call after content
    /// dedup — the rows the kernel actually infers.
    pub const OP_KERNEL_UNIQUE_ROWS: &str = "op.kernel.unique_rows";
    /// Distribution: vacancy systems folded into each NNP kernel call
    /// (`1` for a single-system evaluation).
    pub const OP_KERNEL_BATCH: &str = "op.kernel.batch";
    /// Trace span: content-dedup of feature rows before the kernel
    /// (`RowInterner` + `UniqueRowPlan`).
    pub const OP_DEDUP: &str = "op.dedup";
    /// Trace span: scattering unique-row energies back to per-state rows.
    pub const OP_SCATTER: &str = "op.scatter";

    /// One sector interval of the synchronous-sublattice loop.
    pub const PAR_SECTOR: &str = "parallel.sector";
    /// Communication + barrier time at sector boundaries.
    pub const PAR_SYNC: &str = "parallel.sync";
    /// Hops executed inside sectors.
    pub const PAR_SECTOR_EVENTS: &str = "parallel.sector_events";
    /// Events discarded because they overran the sector interval
    /// (the Shim–Amar boundary rejection).
    pub const PAR_BOUNDARY_REJECTIONS: &str = "parallel.boundary_rejections";
    /// Vacancies that hopped out of the active octant (become ineligible
    /// until a later sector).
    pub const PAR_OCTANT_EXITS: &str = "parallel.octant_exits";
    /// Halo bytes exchanged at sector boundaries.
    pub const PAR_HALO_BYTES: &str = "parallel.halo_bytes";
    /// Remote-modification entries pushed to owners.
    pub const PAR_REMOTE_MODS: &str = "parallel.remote_mods";
    /// Ghost-exchange messages sent at sector boundaries (mods pushes +
    /// halo refreshes; pairs with [`PAR_HALO_BYTES`] for bytes).
    pub const PAR_GHOST_MSGS: &str = "parallel.ghost_msgs";
    /// Time a rank spends blocked in sector barriers waiting for peers
    /// (the load-imbalance component of [`PAR_SYNC`]).
    pub const PAR_BARRIER_WAIT: &str = "parallel.barrier_wait";
    /// Wire bytes moved by the TCP transport (frame headers + payloads,
    /// both directions).
    pub const PAR_TCP_BYTES: &str = "parallel.tcp.bytes";
    /// Frames sent or received by the TCP transport.
    pub const PAR_TCP_FRAMES: &str = "parallel.tcp.frames";
    /// Connection attempts beyond the first during rendezvous and peer
    /// wiring (workers retry until the remote listener is up).
    pub const PAR_TCP_RECONNECTS: &str = "parallel.tcp.reconnects";

    /// DMA bytes read from main memory (core-group simulator).
    pub const SW_DMA_GET: &str = "sunway.dma_get_bytes";
    /// DMA bytes written to main memory.
    pub const SW_DMA_PUT: &str = "sunway.dma_put_bytes";
    /// RMA bytes moved across the CPE mesh.
    pub const SW_RMA: &str = "sunway.rma_bytes";
    /// Number of RMA transfers issued (each is one mesh round-trip of
    /// latency; batching exists to keep this independent of batch size).
    pub const SW_RMA_TRANSFERS: &str = "sunway.rma_transfers";
    /// Floating-point operations performed on the core group.
    pub const SW_FLOPS: &str = "sunway.flops";
    /// Derived arithmetic intensity, FLOP per main-memory byte.
    pub const SW_ARITHMETIC_INTENSITY: &str = "sunway.arithmetic_intensity";

    /// Span events dropped because a per-thread trace buffer overflowed
    /// its bounded store ([`crate::Tracer::dropped`], surfaced so silent
    /// flame-chart truncation is visible in the end-of-run table).
    pub const TRACE_DROPPED: &str = "trace.dropped_events";
}
