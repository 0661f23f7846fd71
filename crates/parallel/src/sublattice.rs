//! The synchronous sublattice driver (Shim & Amar, paper §2.2 / Fig. 2b).
//!
//! Every rank owns a block of the box plus a ghost halo one vacancy-system
//! footprint wide. A *cycle* sweeps the 8 octant sectors; during sector `s`
//! every rank concurrently evolves only the vacancies inside its own octant
//! `s` for a fixed interval `t_stop`, which the decomposition guarantees can
//! never conflict with any other rank's concurrent events. At each sector
//! boundary two message phases run:
//!
//! 1. **remote modifications** — sites a rank changed inside its halo are
//!    sent to their owners;
//! 2. **halo refresh** — every rank re-imports its ghost sites from their
//!    owners.
//!
//! One full cycle advances the global clock by `t_stop`.
//!
//! The driver is generic over [`Transport`], so the same rank loop runs
//! threads-in-process ([`crate::comm::RankComm`]) and processes-across-hosts
//! ([`crate::tcp::TcpTransport`]) — and because each rank's RNG stream and
//! the message apply order (sorted peers, plan order) are transport-
//! independent, the two backends produce bit-identical trajectories.
//! Every communication step is fallible: a dead rank surfaces as one
//! attributable [`ParallelError`] (see [`collapse_errors`]) instead of a
//! cascade of per-neighbour panics.

use crate::checkpoint::{
    interior_coords, CheckpointWriter, ParallelCheckpoint, RankResume, RankState,
};
use crate::comm::{build_fabric_with_timeout, Msg, Transport, DEFAULT_RECV_TIMEOUT};
use crate::decomp::Decomposition;
use crate::error::ParallelError;
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Duration;
use tensorkmc_compat::rng::StdRng;
use tensorkmc_core::{
    EnergyMemoCache, RateLaw, RefreshPipeline, RefreshPlan, SumTree, VacancySystem,
};
use tensorkmc_lattice::{HalfVec, RegionGeometry, SiteArray, SiteIndexer, Species};
use tensorkmc_operators::VacancyEnergyEvaluator;
use tensorkmc_telemetry::{keys, Counter, Registry, Snapshot, SpanGuard, Timer, Tracer};

/// Cached telemetry handles for one rank's sector loop. Each rank thread
/// resolves its handles against its own rank-tagged child registry
/// ([`Registry::with_rank`]), so per-rank traffic stays attributable; the
/// children merge into the caller's registry after the ranks join.
#[derive(Clone)]
struct SectorTelemetry {
    sector: Arc<Timer>,
    sync: Arc<Timer>,
    barrier_wait: Arc<Timer>,
    sector_events: Arc<Counter>,
    boundary_rejections: Arc<Counter>,
    octant_exits: Arc<Counter>,
    halo_bytes: Arc<Counter>,
    remote_mods: Arc<Counter>,
    ghost_msgs: Arc<Counter>,
    tracer: Option<Arc<Tracer>>,
}

impl SectorTelemetry {
    fn new(registry: &Registry) -> Self {
        SectorTelemetry {
            sector: registry.timer(keys::PAR_SECTOR),
            sync: registry.timer(keys::PAR_SYNC),
            barrier_wait: registry.timer(keys::PAR_BARRIER_WAIT),
            sector_events: registry.counter(keys::PAR_SECTOR_EVENTS),
            boundary_rejections: registry.counter(keys::PAR_BOUNDARY_REJECTIONS),
            octant_exits: registry.counter(keys::PAR_OCTANT_EXITS),
            halo_bytes: registry.counter(keys::PAR_HALO_BYTES),
            remote_mods: registry.counter(keys::PAR_REMOTE_MODS),
            ghost_msgs: registry.counter(keys::PAR_GHOST_MSGS),
            tracer: registry.tracer(),
        }
    }

    /// Opens a trace span when the registry carries a tracer.
    fn trace(&self, name: &'static str) -> Option<SpanGuard> {
        self.tracer.as_ref().map(|t| t.span(name))
    }
}

/// Configuration of a parallel run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ParallelConfig {
    /// The rate law.
    pub law: RateLaw,
    /// Sector synchronisation interval, s (paper: 2×10⁻⁸).
    pub t_stop: f64,
    /// Total simulated time, s.
    pub total_time: f64,
    /// RNG seed (each rank derives its own stream).
    pub seed: u64,
}

impl ParallelConfig {
    /// The paper's scalability-test setup: 573 K, `t_stop = 2×10⁻⁸ s`.
    pub fn paper_scaling(total_time: f64, seed: u64) -> Self {
        ParallelConfig {
            law: RateLaw::at_temperature(573.0),
            t_stop: 2e-8,
            total_time,
            seed,
        }
    }
}

/// Aggregate statistics of a parallel run.
#[derive(Debug, Clone, PartialEq)]
pub struct ParallelStats {
    /// Full sector cycles executed.
    pub cycles: u64,
    /// Simulated time reached, s.
    pub time: f64,
    /// Executed hops per rank.
    pub rank_events: Vec<u64>,
    /// Total halo bytes exchanged.
    pub halo_bytes: u64,
    /// Total remote-modification entries exchanged.
    pub remote_mods: u64,
}

impl ParallelStats {
    /// Total hops across ranks.
    pub fn total_events(&self) -> u64 {
        self.rank_events.iter().sum()
    }
}

/// What one rank hands back after a clean run (the worker-process side of
/// the final gather).
#[derive(Debug, Clone, PartialEq)]
pub struct RankOutput {
    /// The rank that produced this.
    pub rank: usize,
    /// Interior species in local slot order.
    pub interior: Vec<Species>,
    /// Executed hops (cumulative across resumes).
    pub events: u64,
    /// Halo bytes sent (cumulative across resumes).
    pub halo_bytes: u64,
    /// Remote-modification entries sent (cumulative across resumes).
    pub remote_mods: u64,
}

/// Extra knobs of [`run_sublattice_full`] beyond [`ParallelConfig`]:
/// telemetry, checkpointing, resume, and failure-detection timeout.
pub struct RunOptions<'a> {
    /// Telemetry registry (see [`run_sublattice_ranked`]).
    pub registry: Option<&'a Registry>,
    /// Write cycle-boundary checkpoints (and the final state) here.
    pub checkpoint_path: Option<PathBuf>,
    /// Checkpoint every this many cycles (0 = final state only).
    pub checkpoint_every_cycles: u64,
    /// Resume from this checkpoint (its lattice replaces `initial`).
    pub resume: Option<&'a ParallelCheckpoint>,
    /// How long a rank waits on a silent peer before declaring it lost.
    pub recv_timeout: Duration,
}

impl Default for RunOptions<'_> {
    fn default() -> Self {
        RunOptions {
            registry: None,
            checkpoint_path: None,
            checkpoint_every_cycles: 0,
            resume: None,
            recv_timeout: DEFAULT_RECV_TIMEOUT,
        }
    }
}

/// Pre-computed halo-exchange plan: for each (owner, requester) pair, the
/// owner-side interior slots to read and the requester-side ghost slots to
/// write, in matching order.
struct HaloPlan {
    /// `sends[owner][requester]` = owner interior slots.
    sends: Vec<Vec<(usize, Vec<u32>)>>,
    /// `recvs[requester][owner]` = requester ghost slots.
    recvs: Vec<Vec<(usize, Vec<u32>)>>,
    /// Self-wrapping ghosts: `(interior slot, ghost slot)` per rank.
    self_copies: Vec<Vec<(u32, u32)>>,
}

fn build_halo_plan(decomp: &Decomposition) -> HaloPlan {
    let n = decomp.n_ranks();
    let indexers: Vec<_> = (0..n).map(|r| decomp.indexer(r)).collect();
    let mut sends: Vec<Vec<(usize, Vec<u32>)>> = vec![Vec::new(); n];
    let mut recvs: Vec<Vec<(usize, Vec<u32>)>> = vec![Vec::new(); n];
    let mut self_copies: Vec<Vec<(u32, u32)>> = vec![Vec::new(); n];
    for req in 0..n {
        // Group this rank's ghost sites by owner, deterministically.
        let mut by_owner: Vec<(usize, Vec<u32>, Vec<u32>)> = Vec::new();
        for (local, wrapped) in decomp.ghost_sites(req) {
            let owner = decomp.owner_of(wrapped);
            let oslot = indexers[owner].slot(wrapped).expect("owner interior") as u32;
            let gslot = indexers[req].slot(local).expect("requester ghost") as u32;
            if owner == req {
                self_copies[req].push((oslot, gslot));
                continue;
            }
            match by_owner.iter_mut().find(|e| e.0 == owner) {
                Some(e) => {
                    e.1.push(oslot);
                    e.2.push(gslot);
                }
                None => by_owner.push((owner, vec![oslot], vec![gslot])),
            }
        }
        by_owner.sort_by_key(|e| e.0);
        for (owner, oslots, gslots) in by_owner {
            sends[owner].push((req, oslots));
            recvs[req].push((owner, gslots));
        }
    }
    for s in &mut sends {
        s.sort_by_key(|e| e.0);
    }
    HaloPlan {
        sends,
        recvs,
        self_copies,
    }
}

/// Per-rank worker state.
struct Worker<'a, E> {
    rank: usize,
    decomp: &'a Decomposition,
    geom: &'a RegionGeometry,
    evaluator: E,
    indexer: tensorkmc_lattice::LocalIndexer,
    /// Species, interior slots first then ghosts (the Eq. 4 layout).
    storage: Vec<Species>,
    /// Interior coordinate of each interior slot.
    coord_of_slot: Vec<HalfVec>,
    rng: StdRng,
    events: u64,
    footprint_n2: i64,
    /// The shared refresh pipeline, run per system with no memo.
    refresh: RefreshPipeline,
    memo: EnergyMemoCache,
}

impl<'a, E: VacancyEnergyEvaluator> Worker<'a, E> {
    fn new(
        rank: usize,
        decomp: &'a Decomposition,
        geom: &'a RegionGeometry,
        evaluator: E,
        global: &SiteArray,
        seed: u64,
    ) -> Self {
        let indexer = decomp.indexer(rank);
        let n_total = indexer.n_local() + indexer.n_ghost();
        let mut storage = vec![Species::Fe; n_total];
        let mut coord_of_slot = vec![HalfVec::ZERO; indexer.n_local()];
        let (lo, hi) = decomp.block(rank);
        let g = decomp.ghost();
        for x in lo.x - g..hi.x + g {
            for y in lo.y - g..hi.y + g {
                for z in lo.z - g..hi.z + g {
                    let p = HalfVec::new(x, y, z);
                    if !p.is_bcc_site() {
                        continue;
                    }
                    let slot = indexer.slot(p).expect("in extended block");
                    storage[slot] = global.at(p); // at() wraps periodically
                    if slot < indexer.n_local() {
                        coord_of_slot[slot] = p;
                    }
                }
            }
        }
        let footprint_n2 = geom.sites.iter().map(|s| s.norm2()).max().unwrap_or(0);
        Worker {
            rank,
            decomp,
            geom,
            evaluator,
            indexer,
            storage,
            coord_of_slot,
            rng: StdRng::seed_from_u64(seed ^ (rank as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15)),
            events: 0,
            footprint_n2,
            refresh: RefreshPipeline::default(),
            memo: EnergyMemoCache::new(0),
        }
    }

    /// Runs one sector interval; returns the halo sites modified, as
    /// `(wrapped coord, new species)`.
    fn run_sector(
        &mut self,
        sector: usize,
        law: &RateLaw,
        t_stop: f64,
        telemetry: Option<&SectorTelemetry>,
    ) -> Result<Vec<(HalfVec, Species)>, ParallelError> {
        let _sector_trace = telemetry.and_then(|t| t.trace(keys::PAR_SECTOR));
        let _sector_span = telemetry.map(|t| t.sector.scoped());
        let events_before = self.events;
        let (olo, ohi) = self.decomp.octant(self.rank, sector);
        let in_octant = |p: HalfVec| {
            p.x >= olo.x
                && p.x < ohi.x
                && p.y >= olo.y
                && p.y < ohi.y
                && p.z >= olo.z
                && p.z < ohi.z
        };

        // Vacancies currently inside the active octant.
        let mut systems: Vec<VacancySystem> = (0..self.indexer.n_local())
            .filter(|&s| self.storage[s] == Species::Vacancy)
            .map(|s| self.coord_of_slot[s])
            .filter(|&p| in_octant(p))
            .map(VacancySystem::new)
            .collect();
        let mut eligible: Vec<bool> = vec![true; systems.len()];
        let mut tree = SumTree::new(systems.len());
        let mut ghost_mods: Vec<(HalfVec, Species)> = Vec::new();

        let mut t_local = 0.0;
        loop {
            // Refresh stale systems of still-eligible vacancies.
            let storage = &self.storage;
            let indexer = &self.indexer;
            self.refresh.run(
                &mut systems,
                |i, s| eligible[i] && !s.valid,
                |p| storage[indexer.slot(p).expect("halo covers footprint")],
                self.geom,
                law,
                &self.evaluator,
                &mut self.memo,
                &mut tree,
                RefreshPlan {
                    batch_systems: 1,
                    threads: 1,
                },
            )?;
            let total = tree.total();
            #[allow(clippy::neg_cmp_op_on_partial_ord)] // NaN-safe
            if !(total > 0.0) {
                break;
            }
            let r: f64 = self.rng.f64_open0();
            let dt = law.residence_time(total, r);
            if t_local + dt > t_stop {
                // Interval exhausted (Shim–Amar: the event is discarded).
                if let Some(t) = telemetry {
                    t.boundary_rejections.inc();
                }
                break;
            }
            t_local += dt;

            let u: f64 = self.rng.f64() * total;
            let (vi, residual) = tree.sample(u);
            let k = systems[vi].pick_direction(residual);
            let from = systems[vi].center;
            let to = from + HalfVec::FIRST_NN[k];
            let sfrom = self.indexer.slot(from).expect("interior");
            let sto = self.indexer.slot(to).expect("halo covers 1NN");
            let moved = self.storage[sto];
            debug_assert!(moved.is_atom());
            self.storage.swap(sfrom, sto);
            self.events += 1;

            // Track halo writes for the owners.
            let pbox = self.decomp.pbox();
            if sfrom >= self.indexer.n_local() {
                ghost_mods.push((pbox.wrap(from), self.storage[sfrom]));
            }
            if sto >= self.indexer.n_local() {
                ghost_mods.push((pbox.wrap(to), self.storage[sto]));
            }

            // Update the moved vacancy.
            systems[vi].center = to;
            systems[vi].valid = false;
            if !in_octant(to) {
                eligible[vi] = false;
                tree.set(vi, 0.0);
                if let Some(t) = telemetry {
                    t.octant_exits.inc();
                }
            }
            // Invalidate eligible systems whose VET covers a changed site.
            for (i, sys) in systems.iter_mut().enumerate() {
                if !eligible[i] || !sys.valid {
                    continue;
                }
                for p in [from, to] {
                    let d = p - sys.center; // same unwrapped frame
                    if d.norm2() <= self.footprint_n2 {
                        sys.valid = false;
                        break;
                    }
                }
            }
        }
        if let Some(t) = telemetry {
            t.sector_events.add(self.events - events_before);
        }
        Ok(ghost_mods)
    }

    /// This rank's cycle-boundary state for the checkpoint/gather machinery.
    fn state(&self, cycle: u64, is_final: bool, halo_bytes: u64, remote_mods: u64) -> RankState {
        let (rng_state, rng_inc) = self.rng.to_parts();
        RankState {
            rank: self.rank,
            cycle,
            is_final,
            events: self.events,
            halo_bytes,
            remote_mods,
            rng_state,
            rng_inc,
            interior: self.storage[..self.indexer.n_local()]
                .iter()
                .map(|&s| s as u8)
                .collect(),
        }
    }
}

/// Runs the synchronous sublattice algorithm to `config.total_time`,
/// returning the final global configuration and run statistics.
///
/// `make_eval` builds each rank's energy evaluator (evaluators are not
/// required to be `Clone` — e.g. each holds its own simulated core group).
pub fn run_sublattice<E, F>(
    initial: &SiteArray,
    geom: Arc<RegionGeometry>,
    decomp: &Decomposition,
    make_eval: F,
    config: &ParallelConfig,
) -> Result<(SiteArray, ParallelStats), ParallelError>
where
    E: VacancyEnergyEvaluator,
    F: Fn(usize) -> E + Sync,
{
    run_sublattice_telemetry(initial, geom, decomp, make_eval, config, None)
}

/// [`run_sublattice`] with optional telemetry: when `registry` is given, the
/// run records per-sector compute (`parallel.sector`) and synchronisation
/// (`parallel.sync`) spans plus event/rejection/traffic counters into it.
/// Per-rank snapshots are merged and discarded; use
/// [`run_sublattice_ranked`] to keep them.
pub fn run_sublattice_telemetry<E, F>(
    initial: &SiteArray,
    geom: Arc<RegionGeometry>,
    decomp: &Decomposition,
    make_eval: F,
    config: &ParallelConfig,
    registry: Option<&Registry>,
) -> Result<(SiteArray, ParallelStats), ParallelError>
where
    E: VacancyEnergyEvaluator,
    F: Fn(usize) -> E + Sync,
{
    let (out, stats, _) =
        run_sublattice_ranked(initial, geom, decomp, make_eval, config, registry)?;
    Ok((out, stats))
}

/// [`run_sublattice_telemetry`], additionally returning one rank-tagged
/// [`Snapshot`] per rank.
///
/// When `registry` is given, every rank thread owns a child registry
/// ([`Registry::with_rank`]) for the whole run — its sector/sync spans,
/// barrier wait time, and ghost-exchange byte/message counters accumulate
/// rank-locally with no cross-rank contention. After the ranks join, each
/// child is merged into `registry` exactly ([`Registry::merge_from`]) and
/// its snapshot returned. Ranks record deterministic counters, so the
/// returned snapshots' counter sets are reproducible run to run; the same
/// merge machinery works unchanged when ranks become processes and ship
/// snapshots as JSON instead ([`Snapshot::merge`]).
///
/// Without a registry the snapshot list is empty.
pub fn run_sublattice_ranked<E, F>(
    initial: &SiteArray,
    geom: Arc<RegionGeometry>,
    decomp: &Decomposition,
    make_eval: F,
    config: &ParallelConfig,
    registry: Option<&Registry>,
) -> Result<(SiteArray, ParallelStats, Vec<Snapshot>), ParallelError>
where
    E: VacancyEnergyEvaluator,
    F: Fn(usize) -> E + Sync,
{
    run_sublattice_full(
        initial,
        geom,
        decomp,
        make_eval,
        config,
        RunOptions {
            registry,
            ..RunOptions::default()
        },
    )
}

/// The full-featured in-process driver: [`run_sublattice_ranked`] plus
/// checkpointing, resume, and a configurable failure-detection timeout
/// (see [`RunOptions`]).
///
/// When `options.resume` is set, its lattice replaces `initial` and every
/// rank restores its RNG stream and counters from the checkpoint, so the
/// resumed run replays the exact trajectory of an uninterrupted one.
pub fn run_sublattice_full<E, F>(
    initial: &SiteArray,
    geom: Arc<RegionGeometry>,
    decomp: &Decomposition,
    make_eval: F,
    config: &ParallelConfig,
    options: RunOptions<'_>,
) -> Result<(SiteArray, ParallelStats, Vec<Snapshot>), ParallelError>
where
    E: VacancyEnergyEvaluator,
    F: Fn(usize) -> E + Sync,
{
    #[allow(clippy::neg_cmp_op_on_partial_ord)] // NaN-safe validation
    if !(config.t_stop > 0.0) || !(config.total_time > 0.0) {
        return Err(ParallelError::BadTimes {
            t_stop: config.t_stop,
            total: config.total_time,
        });
    }
    if let Some(ck) = options.resume {
        ck.validate_against(decomp, config)?;
    }
    let start_lattice: &SiteArray = options.resume.map(|c| &c.lattice).unwrap_or(initial);
    let n = decomp.n_ranks();
    // One rank-tagged child registry per rank; the parent's tracer (if any)
    // is shared so rank threads land in the same flame chart.
    let children: Option<Vec<Arc<Registry>>> = options.registry.map(|parent| {
        (0..n)
            .map(|r| {
                let child = Registry::with_rank(r as u32);
                if let Some(tracer) = parent.tracer() {
                    child.set_tracer(tracer);
                }
                Arc::new(child)
            })
            .collect()
    });
    let n_cycles = (config.total_time / config.t_stop).ceil() as u64;
    let plan = build_halo_plan(decomp);
    let neighbors: Vec<Vec<usize>> = (0..n).map(|r| decomp.neighbors(r)).collect();
    let mut fabric = build_fabric_with_timeout(&neighbors, options.recv_timeout)?;
    if let Some(path) = &options.checkpoint_path {
        let writer = Arc::new(CheckpointWriter::new(decomp.clone(), *config, path.clone()));
        for comm in fabric.iter_mut() {
            comm.set_collector(Arc::clone(&writer) as _, options.checkpoint_every_cycles);
        }
    }

    type RankResult = Result<RankOutput, ParallelError>;
    let results: Vec<RankResult> = std::thread::scope(|scope| {
        let mut handles = Vec::new();
        for (rank, mut comm) in fabric.into_iter().enumerate() {
            let geom = &geom;
            let plan = &plan;
            let make_eval = &make_eval;
            let resume = options.resume.map(|c| c.rank_resume(rank));
            let telemetry = children.as_ref().map(|c| SectorTelemetry::new(&c[rank]));
            handles.push(scope.spawn(move || {
                rank_main(
                    &mut comm,
                    decomp,
                    geom,
                    make_eval(rank),
                    start_lattice,
                    plan,
                    config,
                    n_cycles,
                    resume,
                    telemetry,
                )
            }));
        }
        handles
            .into_iter()
            .enumerate()
            .map(|(rank, h)| match h.join() {
                Ok(result) => result,
                Err(payload) => Err(ParallelError::RankPanicked {
                    rank,
                    message: panic_message(payload.as_ref()),
                }),
            })
            .collect()
    });

    // Cycle boundary for the whole run: snapshot each rank's registry and
    // fold it into the caller's.
    let mut snapshots = Vec::new();
    if let (Some(parent), Some(children)) = (options.registry, &children) {
        for child in children {
            snapshots.push(child.snapshot());
            parent.merge_from(child);
        }
    }

    // Collapse failures to one attributable error before touching outputs.
    let mut outputs: Vec<Option<RankOutput>> = (0..n).map(|_| None).collect();
    let mut errors = Vec::new();
    for res in results {
        match res {
            Ok(o) => {
                let rank = o.rank;
                outputs[rank] = Some(o);
            }
            Err(e) => errors.push(e),
        }
    }
    if !errors.is_empty() {
        return Err(collapse_errors(errors));
    }

    // Assemble the final lattice and the statistics.
    let mut out = SiteArray::pure_iron(*initial.pbox());
    let mut rank_events = vec![0u64; n];
    let mut halo_bytes = 0;
    let mut remote_mods = 0;
    for o in outputs.into_iter().map(Option::unwrap) {
        let coords = interior_coords(decomp, o.rank);
        for (slot, &sp) in o.interior.iter().enumerate() {
            out.set_at(coords[slot], sp);
        }
        rank_events[o.rank] = o.events;
        halo_bytes += o.halo_bytes;
        remote_mods += o.remote_mods;
    }
    Ok((
        out,
        ParallelStats {
            cycles: n_cycles,
            // Ranks clamp the final cycle's interval, so the simulated time
            // is exactly `total_time` (never `n_cycles * t_stop`, which
            // overshoots whenever the division is inexact).
            time: (n_cycles as f64 * config.t_stop).min(config.total_time),
            rank_events,
            halo_bytes,
            remote_mods,
        },
        snapshots,
    ))
}

/// Collapses the per-rank error cascade of a failed run into the one error
/// worth reporting. A root-cause error (panic, KMC failure, malformed
/// frame, …) always wins over the peer-disconnect symptoms it triggered on
/// the neighbours; when only symptoms remain (e.g. a killed process), the
/// most-accused peer is reported as the lost rank, ties to the lowest id.
pub fn collapse_errors(errors: Vec<ParallelError>) -> ParallelError {
    assert!(!errors.is_empty(), "collapse of an empty error set");
    if let Some(primary) = errors.iter().find(|e| !e.is_secondary()) {
        return primary.clone();
    }
    let mut accused: BTreeMap<usize, usize> = BTreeMap::new();
    for e in &errors {
        match e {
            ParallelError::PeerDisconnected { peer, .. } => *accused.entry(*peer).or_insert(0) += 1,
            ParallelError::RankLost { rank } => *accused.entry(*rank).or_insert(0) += 1,
            _ => {}
        }
    }
    if let Some((&rank, _)) = accused
        .iter()
        .max_by_key(|&(r, c)| (*c, std::cmp::Reverse(*r)))
    {
        return ParallelError::RankLost { rank };
    }
    errors.into_iter().next().unwrap()
}

/// Extracts a human-readable message from a rank thread's panic payload.
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Runs one rank of the sublattice algorithm over an arbitrary
/// [`Transport`] — the entry point a TCP worker process drives, and the
/// body every in-process rank thread runs. The halo plan is derived from
/// the decomposition locally, so a worker needs only the deck-level inputs
/// its peers also have.
#[allow(clippy::too_many_arguments)]
pub fn run_rank<T: Transport, E: VacancyEnergyEvaluator>(
    comm: &mut T,
    decomp: &Decomposition,
    geom: &RegionGeometry,
    evaluator: E,
    initial: &SiteArray,
    config: &ParallelConfig,
    resume: Option<RankResume>,
    registry: Option<&Registry>,
) -> Result<RankOutput, ParallelError> {
    #[allow(clippy::neg_cmp_op_on_partial_ord)] // NaN-safe validation
    if !(config.t_stop > 0.0) || !(config.total_time > 0.0) {
        return Err(ParallelError::BadTimes {
            t_stop: config.t_stop,
            total: config.total_time,
        });
    }
    let n_cycles = (config.total_time / config.t_stop).ceil() as u64;
    let plan = build_halo_plan(decomp);
    let telemetry = registry.map(SectorTelemetry::new);
    rank_main(
        comm, decomp, geom, evaluator, initial, &plan, config, n_cycles, resume, telemetry,
    )
}

fn bad_frame(rank: usize, peer: usize, detail: String) -> ParallelError {
    ParallelError::BadFrame { rank, peer, detail }
}

/// The body of one rank's run, generic over the transport.
#[allow(clippy::too_many_arguments)]
fn rank_main<T: Transport, E: VacancyEnergyEvaluator>(
    comm: &mut T,
    decomp: &Decomposition,
    geom: &RegionGeometry,
    evaluator: E,
    initial: &SiteArray,
    plan: &HaloPlan,
    config: &ParallelConfig,
    n_cycles: u64,
    resume: Option<RankResume>,
    telemetry: Option<SectorTelemetry>,
) -> Result<RankOutput, ParallelError> {
    let rank = comm.rank();
    let mut w = Worker::new(rank, decomp, geom, evaluator, initial, config.seed);
    let (start_cycle, base_halo, base_mods) = match resume {
        Some(r) => {
            w.rng = StdRng::from_parts(r.rng_state, r.rng_inc);
            w.events = r.events;
            (r.start_cycle.min(n_cycles), r.halo_bytes, r.remote_mods)
        }
        None => (0, 0, 0),
    };
    let peers = comm.peers();
    let mut halo_bytes = base_halo;
    let mut remote_mods = base_mods;
    let mut ghost_msgs = 0u64;
    if let Some(tracer) = telemetry.as_ref().and_then(|t| t.tracer.as_ref()) {
        tracer.set_thread_label(format!("rank {rank}"));
    }

    for cycle in start_cycle..n_cycles {
        // The last cycle of a non-divisible `total_time / t_stop` is
        // clamped so every rank stops exactly at `total_time` instead of
        // overshooting to `n_cycles * t_stop`. Computed (not accumulated)
        // identically on every rank, so the clamp cannot desynchronise.
        let remaining = config.total_time - cycle as f64 * config.t_stop;
        let t_stop = config.t_stop.min(remaining);
        for sector in 0..8 {
            let mods = w.run_sector(sector, &config.law, t_stop, telemetry.as_ref())?;
            let sync_trace = telemetry.as_ref().and_then(|t| t.trace(keys::PAR_SYNC));
            let sync_span = telemetry.as_ref().map(|t| t.sync.scoped());

            // Phase 1: push remote modifications to their owners.
            let mut per_owner: Vec<Vec<(u32, u8)>> = vec![Vec::new(); peers.len()];
            for (wrapped, sp) in mods {
                let owner = decomp.owner_of(wrapped);
                if owner == rank {
                    // Periodic self-wrap: apply directly to our interior.
                    let slot = w.indexer.slot(wrapped).expect("own interior");
                    w.storage[slot] = sp;
                    continue;
                }
                let oslot = decomp.indexer(owner).slot(wrapped).expect("owner interior") as u32;
                let pi = peers.iter().position(|&p| p == owner).expect("neighbour");
                per_owner[pi].push((oslot, sp as u8));
            }
            for (pi, &peer) in peers.iter().enumerate() {
                remote_mods += per_owner[pi].len() as u64;
                ghost_msgs += 1;
                comm.send(peer, Msg::Mods(std::mem::take(&mut per_owner[pi])))?;
            }
            for &peer in &peers {
                match comm.recv(peer)? {
                    Msg::Mods(entries) => {
                        for (slot, b) in entries {
                            let sp = Species::from_u8(b).ok_or_else(|| {
                                bad_frame(rank, peer, format!("invalid species byte {b}"))
                            })?;
                            let slot = slot as usize;
                            if slot >= w.indexer.n_local() {
                                return Err(bad_frame(
                                    rank,
                                    peer,
                                    format!(
                                        "mods slot {slot} out of range ({} interior sites)",
                                        w.indexer.n_local()
                                    ),
                                ));
                            }
                            w.storage[slot] = sp;
                        }
                    }
                    Msg::Halo(_) => {
                        return Err(bad_frame(
                            rank,
                            peer,
                            "halo frame during the mods phase".to_string(),
                        ))
                    }
                }
            }
            {
                let _wait = telemetry.as_ref().map(|t| t.barrier_wait.scoped());
                comm.barrier()?;
            }

            // Phase 2: halo refresh from owners.
            for (req, oslots) in &plan.sends[rank] {
                let payload: Vec<u8> = oslots
                    .iter()
                    .map(|&s| w.storage[s as usize] as u8)
                    .collect();
                halo_bytes += payload.len() as u64;
                ghost_msgs += 1;
                comm.send(*req, Msg::Halo(payload))?;
            }
            // Self-wrapping ghosts refresh locally.
            for &(oslot, gslot) in &plan.self_copies[rank] {
                w.storage[gslot as usize] = w.storage[oslot as usize];
            }
            for (owner, gslots) in &plan.recvs[rank] {
                match comm.recv(*owner)? {
                    Msg::Halo(payload) => {
                        if payload.len() != gslots.len() {
                            return Err(bad_frame(
                                rank,
                                *owner,
                                format!(
                                    "halo payload of {} bytes, plan expects {}",
                                    payload.len(),
                                    gslots.len()
                                ),
                            ));
                        }
                        for (&g, &b) in gslots.iter().zip(&payload) {
                            let sp = Species::from_u8(b).ok_or_else(|| {
                                bad_frame(rank, *owner, format!("invalid species byte {b}"))
                            })?;
                            w.storage[g as usize] = sp;
                        }
                    }
                    Msg::Mods(_) => {
                        return Err(bad_frame(
                            rank,
                            *owner,
                            "mods frame during the halo phase".to_string(),
                        ))
                    }
                }
            }
            {
                let _wait = telemetry.as_ref().map(|t| t.barrier_wait.scoped());
                comm.barrier()?;
            }
            drop(sync_span);
            drop(sync_trace);
        }

        // Cycle boundary: everything after the final barrier above is
        // consistent across ranks, so this is the checkpoint/gather point.
        let done = cycle + 1;
        let is_final = done == n_cycles;
        if comm.wants_state(done, is_final) {
            comm.submit_state(w.state(done, is_final, halo_bytes, remote_mods))?;
        }
    }
    if start_cycle >= n_cycles && comm.wants_state(n_cycles, true) {
        // Resuming a finished run: still satisfy the final gather.
        comm.submit_state(w.state(n_cycles, true, halo_bytes, remote_mods))?;
    }

    if let Some(t) = &telemetry {
        // Telemetry records this session's traffic only (a resumed run's
        // carried-over counters belong to the session that produced them).
        t.halo_bytes.add(halo_bytes - base_halo);
        t.remote_mods.add(remote_mods - base_mods);
        t.ghost_msgs.add(ghost_msgs);
        // A worker thread's buffered spans drain when the thread-local
        // state drops, but flush explicitly so nothing depends on TLS
        // destructor order.
        if let Some(tracer) = &t.tracer {
            tracer.flush_thread();
        }
    }
    comm.finish()?;
    let interior = w.storage[..w.indexer.n_local()].to_vec();
    Ok(RankOutput {
        rank,
        interior,
        events: w.events,
        halo_bytes,
        remote_mods,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tcp::{Coordinator, CoordinatorOptions, TcpTransport, WorkerConfig};
    use tensorkmc_compat::rng::StdRng;
    use tensorkmc_lattice::{AlloyComposition, PeriodicBox};
    use tensorkmc_nnp::{ModelConfig, NnpModel};
    use tensorkmc_operators::{NnpDirectEvaluator, OperatorError, StateEnergies};

    use tensorkmc_potential::FeatureSet;

    fn model() -> NnpModel {
        let fs = FeatureSet::small(4);
        let cfg = ModelConfig {
            channels: vec![fs.n_features(), 16, 1],
            rcut: 3.0,
        };
        let mut m = NnpModel::new(fs, &cfg, &mut StdRng::seed_from_u64(21));
        m.norm.mean = vec![7.0, 7.0, 7.0, 7.0, 0.5, 0.5, 0.5, 0.5];
        m.norm.std = vec![2.0; 8];
        m.energy_scale = 0.2;
        m
    }

    fn setup(cells: i32, seed: u64) -> (SiteArray, Arc<RegionGeometry>, NnpModel) {
        let geom = Arc::new(RegionGeometry::new(2.87, 3.0).unwrap());
        let pbox = PeriodicBox::new(cells, cells, cells, 2.87).unwrap();
        let comp = AlloyComposition {
            cu_fraction: 0.03,
            vacancy_fraction: 0.002,
        };
        let lattice =
            SiteArray::random_alloy(pbox, comp, &mut StdRng::seed_from_u64(seed)).unwrap();
        (lattice, geom, model())
    }

    fn run(
        lattice: &SiteArray,
        geom: &Arc<RegionGeometry>,
        m: &NnpModel,
        grid: (usize, usize, usize),
        total_time: f64,
    ) -> (SiteArray, ParallelStats) {
        let decomp = Decomposition::new(*lattice.pbox(), grid, geom).unwrap();
        let cfg = ParallelConfig {
            law: RateLaw::at_temperature(800.0),
            t_stop: 2e-8,
            total_time,
            seed: 99,
        };
        run_sublattice(
            lattice,
            Arc::clone(geom),
            &decomp,
            |_rank| NnpDirectEvaluator::new(m, Arc::clone(geom)),
            &cfg,
        )
        .unwrap()
    }

    /// Runs the same deck over loopback TCP: a coordinator thread plus one
    /// worker thread per rank, the process-topology test double.
    fn run_tcp(
        lattice: &SiteArray,
        geom: &Arc<RegionGeometry>,
        m: &NnpModel,
        grid: (usize, usize, usize),
        total_time: f64,
        checkpoint_path: Option<PathBuf>,
        checkpoint_every: u64,
    ) -> Result<(SiteArray, ParallelStats), ParallelError> {
        let decomp = Decomposition::new(*lattice.pbox(), grid, geom).unwrap();
        let cfg = ParallelConfig {
            law: RateLaw::at_temperature(800.0),
            t_stop: 2e-8,
            total_time,
            seed: 99,
        };
        let n = decomp.n_ranks();
        let coordinator = Coordinator::bind("127.0.0.1:0").unwrap();
        let addr = coordinator.local_addr().unwrap().to_string();
        let timeout = Duration::from_secs(30);
        std::thread::scope(|scope| {
            let coord_handle = {
                let decomp = decomp.clone();
                let opts = CoordinatorOptions {
                    checkpoint_path,
                    recv_timeout: timeout,
                    registry: None,
                };
                scope.spawn(move || coordinator.run(&decomp, &cfg, &opts))
            };
            let mut workers = Vec::new();
            for rank in 0..n {
                let addr = addr.clone();
                let decomp = decomp.clone();
                let geom = Arc::clone(geom);
                workers.push(scope.spawn(move || {
                    let neighbors = decomp.neighbors(rank);
                    let mut t = TcpTransport::connect(&WorkerConfig {
                        coordinator: &addr,
                        rank,
                        ranks: n,
                        neighbors: &neighbors,
                        recv_timeout: timeout,
                        checkpoint_every,
                        registry: None,
                    })?;
                    let evaluator = NnpDirectEvaluator::new(m, Arc::clone(&geom));
                    let res =
                        run_rank(&mut t, &decomp, &geom, evaluator, lattice, &cfg, None, None);
                    if let Err(e) = &res {
                        t.report_failure(e);
                    }
                    res
                }));
            }
            for h in workers {
                // Worker errors are fine here — the coordinator's verdict is
                // the outcome under test.
                let _ = h.join();
            }
            coord_handle.join().unwrap().map(|o| (o.lattice, o.stats))
        })
    }

    #[test]
    fn single_rank_conserves_species_and_executes_events() {
        let (lattice, geom, m) = setup(10, 1);
        let before = lattice.census();
        let (out, stats) = run(&lattice, &geom, &m, (1, 1, 1), 4e-7);
        assert_eq!(out.census(), before, "species conserved");
        assert!(stats.total_events() > 0, "events executed");
        assert!((stats.time - 4e-7).abs() < 1e-12);
        assert_eq!(stats.cycles, 20);
    }

    #[test]
    fn two_ranks_conserve_species() {
        let (lattice, geom, m) = setup(20, 2);
        let before = lattice.census();
        let (out, stats) = run(&lattice, &geom, &m, (2, 1, 1), 2e-7);
        assert_eq!(out.census(), before);
        assert!(stats.total_events() > 0);
        assert_eq!(stats.rank_events.len(), 2);
        assert!(stats.halo_bytes > 0, "halos exchanged");
    }

    #[test]
    fn eight_ranks_run_and_conserve() {
        let (lattice, geom, m) = setup(20, 3);
        let before = lattice.census();
        let (out, stats) = run(&lattice, &geom, &m, (2, 2, 2), 1e-7);
        assert_eq!(out.census(), before);
        assert!(stats.total_events() > 0);
    }

    #[test]
    fn parallel_run_is_deterministic() {
        let (lattice, geom, m) = setup(20, 4);
        let (a, sa) = run(&lattice, &geom, &m, (2, 1, 1), 1e-7);
        let (b, sb) = run(&lattice, &geom, &m, (2, 1, 1), 1e-7);
        assert_eq!(a.as_slice(), b.as_slice());
        assert_eq!(sa, sb);
    }

    #[test]
    fn tcp_transport_matches_channels_at_two_ranks() {
        // The tentpole's parity pin: the same deck over loopback TCP
        // produces the bit-identical trajectory of the in-process backend.
        let (lattice, geom, m) = setup(20, 2);
        let (via_channels, stats_ch) = run(&lattice, &geom, &m, (2, 1, 1), 1e-7);
        let (via_tcp, stats_tcp) = run_tcp(&lattice, &geom, &m, (2, 1, 1), 1e-7, None, 0).unwrap();
        assert_eq!(via_tcp.as_slice(), via_channels.as_slice());
        assert_eq!(stats_tcp, stats_ch);
    }

    #[test]
    fn tcp_transport_matches_channels_at_eight_ranks() {
        let (lattice, geom, m) = setup(20, 3);
        let (via_channels, stats_ch) = run(&lattice, &geom, &m, (2, 2, 2), 1e-7);
        let (via_tcp, stats_tcp) = run_tcp(&lattice, &geom, &m, (2, 2, 2), 1e-7, None, 0).unwrap();
        assert_eq!(via_tcp.as_slice(), via_channels.as_slice());
        assert_eq!(stats_tcp, stats_ch);
    }

    #[test]
    fn checkpoints_are_byte_identical_across_backends() {
        let (lattice, geom, m) = setup(20, 6);
        let dir = std::env::temp_dir().join(format!("tkmc-parity-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let ck_channels = dir.join("channels.ckpt");
        let ck_tcp = dir.join("tcp.ckpt");

        let decomp = Decomposition::new(*lattice.pbox(), (2, 1, 1), &geom).unwrap();
        let cfg = ParallelConfig {
            law: RateLaw::at_temperature(800.0),
            t_stop: 2e-8,
            total_time: 1e-7,
            seed: 99,
        };
        run_sublattice_full(
            &lattice,
            Arc::clone(&geom),
            &decomp,
            |_rank| NnpDirectEvaluator::new(&m, Arc::clone(&geom)),
            &cfg,
            RunOptions {
                checkpoint_path: Some(ck_channels.clone()),
                checkpoint_every_cycles: 2,
                ..RunOptions::default()
            },
        )
        .unwrap();
        run_tcp(
            &lattice,
            &geom,
            &m,
            (2, 1, 1),
            1e-7,
            Some(ck_tcp.clone()),
            2,
        )
        .unwrap();

        let a = std::fs::read(&ck_channels).unwrap();
        let b = std::fs::read(&ck_tcp).unwrap();
        assert!(!a.is_empty());
        assert_eq!(a, b, "checkpoint bytes differ between backends");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn resume_replays_the_uninterrupted_trajectory() {
        // Run A: 10 cycles straight through. Run B: 5 cycles, checkpoint,
        // then resume for the remaining 5. Identical final state and stats.
        let (lattice, geom, m) = setup(20, 5);
        let decomp = Decomposition::new(*lattice.pbox(), (2, 1, 1), &geom).unwrap();
        let full = ParallelConfig {
            law: RateLaw::at_temperature(800.0),
            t_stop: 2e-8,
            total_time: 2e-7,
            seed: 99,
        };
        let (straight, straight_stats) = run_sublattice(
            &lattice,
            Arc::clone(&geom),
            &decomp,
            |_rank| NnpDirectEvaluator::new(&m, Arc::clone(&geom)),
            &full,
        )
        .unwrap();

        let dir = std::env::temp_dir().join(format!("tkmc-resume-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("half.ckpt");
        let mut half = full;
        half.total_time = 1e-7;
        run_sublattice_full(
            &lattice,
            Arc::clone(&geom),
            &decomp,
            |_rank| NnpDirectEvaluator::new(&m, Arc::clone(&geom)),
            &half,
            RunOptions {
                checkpoint_path: Some(path.clone()),
                ..RunOptions::default()
            },
        )
        .unwrap();
        let ck = ParallelCheckpoint::load(&path).unwrap();
        assert_eq!(ck.cycle, 5);
        let (resumed, resumed_stats, _) = run_sublattice_full(
            &lattice,
            Arc::clone(&geom),
            &decomp,
            |_rank| NnpDirectEvaluator::new(&m, Arc::clone(&geom)),
            &full,
            RunOptions {
                resume: Some(&ck),
                ..RunOptions::default()
            },
        )
        .unwrap();
        assert_eq!(resumed.as_slice(), straight.as_slice());
        assert_eq!(resumed_stats, straight_stats);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn different_grids_preserve_composition_not_trajectory() {
        // Decompositions change event interleaving (different RNG streams)
        // but never the conserved quantities.
        let (lattice, geom, m) = setup(20, 5);
        let before = lattice.census();
        let (a, _) = run(&lattice, &geom, &m, (1, 1, 1), 1e-7);
        let (b, _) = run(&lattice, &geom, &m, (2, 1, 1), 1e-7);
        assert_eq!(a.census(), before);
        assert_eq!(b.census(), before);
    }

    #[test]
    fn telemetry_mirrors_run_statistics() {
        let (lattice, geom, m) = setup(20, 7);
        let decomp = Decomposition::new(*lattice.pbox(), (2, 1, 1), &geom).unwrap();
        let cfg = ParallelConfig {
            law: RateLaw::at_temperature(800.0),
            t_stop: 2e-8,
            total_time: 1e-7,
            seed: 99,
        };
        let registry = Registry::new();
        let (_, stats) = run_sublattice_telemetry(
            &lattice,
            Arc::clone(&geom),
            &decomp,
            |_rank| NnpDirectEvaluator::new(&m, Arc::clone(&geom)),
            &cfg,
            Some(&registry),
        )
        .unwrap();
        let snap = registry.snapshot();
        // One sector span per (rank, cycle, sector); one sync span each.
        let spans = 2 * stats.cycles * 8;
        assert_eq!(snap.timer(keys::PAR_SECTOR).unwrap().count, spans);
        assert_eq!(snap.timer(keys::PAR_SYNC).unwrap().count, spans);
        assert_eq!(
            snap.counter(keys::PAR_SECTOR_EVENTS),
            Some(stats.total_events())
        );
        assert_eq!(snap.counter(keys::PAR_HALO_BYTES), Some(stats.halo_bytes));
        assert_eq!(snap.counter(keys::PAR_REMOTE_MODS), Some(stats.remote_mods));
        assert!(snap.counter(keys::PAR_BOUNDARY_REJECTIONS).unwrap() > 0);
    }

    #[test]
    fn per_rank_snapshots_merge_deterministically() {
        let (lattice, geom, m) = setup(20, 11);
        let decomp = Decomposition::new(*lattice.pbox(), (2, 1, 1), &geom).unwrap();
        let cfg = ParallelConfig {
            law: RateLaw::at_temperature(800.0),
            t_stop: 2e-8,
            total_time: 1e-7,
            seed: 99,
        };
        let go = || {
            let registry = Registry::new();
            let (_, stats, snaps) = run_sublattice_ranked(
                &lattice,
                Arc::clone(&geom),
                &decomp,
                |_rank| NnpDirectEvaluator::new(&m, Arc::clone(&geom)),
                &cfg,
                Some(&registry),
            )
            .unwrap();
            (registry.snapshot(), stats, snaps)
        };
        let (parent, stats, snaps) = go();

        // One rank-tagged snapshot per rank, tags 0..n in order.
        assert_eq!(snaps.len(), 2);
        for (r, snap) in snaps.iter().enumerate() {
            assert_eq!(snap.rank, Some(r as u32));
            assert_eq!(
                snap.counter(keys::PAR_SECTOR_EVENTS),
                Some(stats.rank_events[r]),
                "rank {r} events attributed to its own registry"
            );
            assert_eq!(
                snap.timer(keys::PAR_SECTOR).unwrap().count,
                stats.cycles * 8
            );
        }
        // The parent got the exact fold of the children.
        for key in [
            keys::PAR_SECTOR_EVENTS,
            keys::PAR_HALO_BYTES,
            keys::PAR_GHOST_MSGS,
            keys::PAR_REMOTE_MODS,
            keys::PAR_BOUNDARY_REJECTIONS,
        ] {
            let sum: u64 = snaps.iter().filter_map(|s| s.counter(key)).sum();
            assert_eq!(parent.counter(key), Some(sum), "{key}");
        }
        assert!(parent.counter(keys::PAR_GHOST_MSGS).unwrap() > 0);
        assert!(parent.timer(keys::PAR_BARRIER_WAIT).unwrap().count > 0);
        // Post-hoc snapshot-level merge agrees on every exact quantity —
        // the process-boundary path.
        let merged = Snapshot::merge(&snaps);
        assert_eq!(
            merged.counter(keys::PAR_HALO_BYTES),
            parent.counter(keys::PAR_HALO_BYTES)
        );
        assert_eq!(
            merged.timer(keys::PAR_SECTOR).unwrap().count,
            parent.timer(keys::PAR_SECTOR).unwrap().count
        );
        assert_eq!(
            merged.timer(keys::PAR_SECTOR).unwrap().total_ns,
            parent.timer(keys::PAR_SECTOR).unwrap().total_ns
        );
        // Deterministic: a second identical run produces identical counter
        // sets per rank (timing differs; counters must not).
        let (_, _, snaps2) = go();
        for (a, b) in snaps.iter().zip(&snaps2) {
            assert_eq!(a.rank, b.rank);
            assert_eq!(a.counters, b.counters);
        }
    }

    #[test]
    fn non_divisible_total_time_is_not_overshot() {
        // total_time 1e-7 over t_stop 3e-8 is 3.33 cycles: the run must
        // execute 4 cycles but report exactly 1e-7 s, not 1.2e-7 s.
        let (lattice, geom, m) = setup(10, 8);
        let decomp = Decomposition::new(*lattice.pbox(), (1, 1, 1), &geom).unwrap();
        let cfg = ParallelConfig {
            law: RateLaw::at_temperature(800.0),
            t_stop: 3e-8,
            total_time: 1e-7,
            seed: 5,
        };
        let (_, stats) = run_sublattice(
            &lattice,
            Arc::clone(&geom),
            &decomp,
            |_r| NnpDirectEvaluator::new(&m, Arc::clone(&geom)),
            &cfg,
        )
        .unwrap();
        assert_eq!(stats.cycles, 4);
        assert!(
            (stats.time - 1e-7).abs() < 1e-20,
            "reported {} s, want exactly total_time 1e-7 s",
            stats.time
        );
    }

    /// An evaluator that panics on first use — the injected fault for the
    /// rank-panic surfacing test.
    struct PanickingEvaluator(Arc<RegionGeometry>);

    impl VacancyEnergyEvaluator for PanickingEvaluator {
        fn state_energies(&self, _vet: &[Species]) -> Result<StateEnergies, OperatorError> {
            panic!("injected evaluator fault");
        }

        fn geometry(&self) -> &RegionGeometry {
            &self.0
        }
    }

    /// A per-rank fault switch: the designated rank fails (panic or error)
    /// on its first evaluation, the rest run the real evaluator.
    enum FaultyEval {
        Real(Box<NnpDirectEvaluator>),
        Panic(PanickingEvaluator),
        Error(Arc<RegionGeometry>),
    }

    impl VacancyEnergyEvaluator for FaultyEval {
        fn state_energies(&self, vet: &[Species]) -> Result<StateEnergies, OperatorError> {
            match self {
                FaultyEval::Real(e) => e.state_energies(vet),
                FaultyEval::Panic(e) => e.state_energies(vet),
                FaultyEval::Error(_) => Err(OperatorError::VetShape {
                    expected: 0,
                    got: vet.len(),
                }),
            }
        }

        fn geometry(&self) -> &RegionGeometry {
            match self {
                FaultyEval::Real(e) => e.geometry(),
                FaultyEval::Panic(e) => &e.0,
                FaultyEval::Error(g) => g,
            }
        }
    }

    #[test]
    fn rank_panic_is_surfaced_with_rank_identity() {
        let (lattice, geom, _) = setup(10, 9);
        let decomp = Decomposition::new(*lattice.pbox(), (1, 1, 1), &geom).unwrap();
        let cfg = ParallelConfig {
            law: RateLaw::at_temperature(800.0),
            t_stop: 2e-8,
            total_time: 1e-7,
            seed: 3,
        };
        let r = run_sublattice(
            &lattice,
            Arc::clone(&geom),
            &decomp,
            |_r| PanickingEvaluator(Arc::clone(&geom)),
            &cfg,
        );
        match r {
            Err(ParallelError::RankPanicked { rank, message }) => {
                assert_eq!(rank, 0);
                assert!(
                    message.contains("injected evaluator fault"),
                    "payload preserved: {message}"
                );
            }
            other => panic!("expected RankPanicked, got {other:?}"),
        }
    }

    #[test]
    fn dead_rank_is_reported_once_without_cascade() {
        // The satellite bugfix pin: rank 1 of 2 dies mid-cycle; the peer's
        // `PeerDisconnected` symptom must NOT drown the root cause.
        let (lattice, geom, m) = setup(20, 9);
        let decomp = Decomposition::new(*lattice.pbox(), (2, 1, 1), &geom).unwrap();
        let cfg = ParallelConfig {
            law: RateLaw::at_temperature(800.0),
            t_stop: 2e-8,
            total_time: 1e-7,
            seed: 3,
        };
        let r = run_sublattice(
            &lattice,
            Arc::clone(&geom),
            &decomp,
            |rank| {
                if rank == 1 {
                    FaultyEval::Panic(PanickingEvaluator(Arc::clone(&geom)))
                } else {
                    FaultyEval::Real(Box::new(NnpDirectEvaluator::new(&m, Arc::clone(&geom))))
                }
            },
            &cfg,
        );
        match r {
            Err(ParallelError::RankPanicked { rank, message }) => {
                assert_eq!(rank, 1, "the dying rank, not the observer");
                assert!(message.contains("injected evaluator fault"));
            }
            other => panic!("expected RankPanicked{{1}}, got {other:?}"),
        }
    }

    #[test]
    fn rank_kmc_error_beats_peer_disconnect_symptoms() {
        let (lattice, geom, m) = setup(20, 10);
        let decomp = Decomposition::new(*lattice.pbox(), (2, 1, 1), &geom).unwrap();
        let cfg = ParallelConfig {
            law: RateLaw::at_temperature(800.0),
            t_stop: 2e-8,
            total_time: 1e-7,
            seed: 3,
        };
        let r = run_sublattice(
            &lattice,
            Arc::clone(&geom),
            &decomp,
            |rank| {
                if rank == 0 {
                    FaultyEval::Error(Arc::clone(&geom))
                } else {
                    FaultyEval::Real(Box::new(NnpDirectEvaluator::new(&m, Arc::clone(&geom))))
                }
            },
            &cfg,
        );
        match r {
            Err(ParallelError::Kmc(_)) => {}
            other => panic!("expected the rank-0 Kmc root cause, got {other:?}"),
        }
    }

    #[test]
    fn tcp_worker_failure_is_attributed_by_the_coordinator() {
        // TCP fault injection: rank 1's evaluator fails; its FAILED report
        // must reach the coordinator as one error naming rank 1.
        let (lattice, geom, m) = setup(20, 12);
        let decomp = Decomposition::new(*lattice.pbox(), (2, 1, 1), &geom).unwrap();
        let cfg = ParallelConfig {
            law: RateLaw::at_temperature(800.0),
            t_stop: 2e-8,
            total_time: 1e-7,
            seed: 3,
        };
        let coordinator = Coordinator::bind("127.0.0.1:0").unwrap();
        let addr = coordinator.local_addr().unwrap().to_string();
        let timeout = Duration::from_secs(30);
        let outcome = std::thread::scope(|scope| {
            let coord_handle = {
                let decomp = decomp.clone();
                let opts = CoordinatorOptions {
                    checkpoint_path: None,
                    recv_timeout: timeout,
                    registry: None,
                };
                scope.spawn(move || coordinator.run(&decomp, &cfg, &opts))
            };
            for rank in 0..2 {
                let addr = addr.clone();
                let decomp = decomp.clone();
                let geom = Arc::clone(&geom);
                let m = &m;
                let lattice = &lattice;
                scope.spawn(move || {
                    let neighbors = decomp.neighbors(rank);
                    let mut t = TcpTransport::connect(&WorkerConfig {
                        coordinator: &addr,
                        rank,
                        ranks: 2,
                        neighbors: &neighbors,
                        recv_timeout: timeout,
                        checkpoint_every: 0,
                        registry: None,
                    })
                    .unwrap();
                    let evaluator = if rank == 1 {
                        FaultyEval::Error(Arc::clone(&geom))
                    } else {
                        FaultyEval::Real(Box::new(NnpDirectEvaluator::new(m, Arc::clone(&geom))))
                    };
                    let res =
                        run_rank(&mut t, &decomp, &geom, evaluator, lattice, &cfg, None, None);
                    if let Err(e) = &res {
                        t.report_failure(e);
                    }
                });
            }
            coord_handle.join().unwrap()
        });
        match outcome {
            Err(ParallelError::Transport { rank, detail }) => {
                assert_eq!(rank, 1, "coordinator names the failing rank");
                assert!(detail.contains("rank failed"), "{detail}");
            }
            Ok(_) => panic!("run unexpectedly succeeded"),
            Err(other) => panic!("expected Transport{{rank: 1}}, got {other:?}"),
        }
    }

    #[test]
    fn collapse_prefers_root_cause_and_majority_accusation() {
        // Root cause beats symptoms.
        let e = collapse_errors(vec![
            ParallelError::PeerDisconnected { rank: 0, peer: 2 },
            ParallelError::RankPanicked {
                rank: 2,
                message: "boom".into(),
            },
            ParallelError::PeerDisconnected { rank: 1, peer: 2 },
        ]);
        assert!(matches!(e, ParallelError::RankPanicked { rank: 2, .. }));
        // Symptoms only: the most-accused peer is the lost rank.
        let e = collapse_errors(vec![
            ParallelError::PeerDisconnected { rank: 0, peer: 3 },
            ParallelError::PeerDisconnected { rank: 1, peer: 3 },
            ParallelError::PeerDisconnected { rank: 2, peer: 0 },
        ]);
        assert!(matches!(e, ParallelError::RankLost { rank: 3 }));
        // Tie: lowest rank id.
        let e = collapse_errors(vec![
            ParallelError::PeerDisconnected { rank: 0, peer: 5 },
            ParallelError::PeerDisconnected { rank: 1, peer: 4 },
        ]);
        assert!(matches!(e, ParallelError::RankLost { rank: 4 }));
    }

    #[test]
    fn bad_times_rejected() {
        let (lattice, geom, m) = setup(10, 6);
        let decomp = Decomposition::new(*lattice.pbox(), (1, 1, 1), &geom).unwrap();
        let cfg = ParallelConfig {
            law: RateLaw::at_temperature(573.0),
            t_stop: 0.0,
            total_time: 1e-7,
            seed: 1,
        };
        let r = run_sublattice(
            &lattice,
            Arc::clone(&geom),
            &decomp,
            |_r| NnpDirectEvaluator::new(&m, Arc::clone(&geom)),
            &cfg,
        );
        assert!(matches!(r, Err(ParallelError::BadTimes { .. })));
    }
}
