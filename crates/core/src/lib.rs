//! The TensorKMC atomistic kinetic Monte Carlo engine — the paper's primary
//! contribution, assembled from the substrate crates.
//!
//! * [`rates`] — the AKMC rate law (paper Eqs. 1–3): transition rates
//!   `Γ = Γ₀·exp(−E_a/k_BT)` with `E_a = E_a⁰ + ½(E_f − E_i)`, and the
//!   residence-time algorithm.
//! * [`sumtree`] — the propensity sum-tree ("the tree strategy for propensity
//!   update", paper §4.4): O(log V) event sampling and update.
//! * [`system`] — per-vacancy state: VET construction from the lattice via
//!   the shared CET (triple encoding, paper §3.1) and the cached rates of
//!   the vacancy-cache mechanism (paper §3.2).
//! * [`energycache`] — the global VET→energy memo: a bounded LRU from
//!   packed VET bit patterns to the 1+8 state energies, so a recurring
//!   environment skips feature build and inference entirely (bit-identity
//!   by construction — the key is the value).
//! * [`refresh`] — the one refresh pipeline (gather → memo → chunked
//!   batched evaluation → ordered rate write-back) shared by the engine and
//!   the sublattice rank worker.
//! * [`engine`] — the serial AKMC driver with two evaluation modes:
//!   `Cached` (triple encoding + vacancy cache, TensorKMC proper) and
//!   `Direct` (recompute everything every step, the Fig. 8 baseline). Both
//!   produce bit-identical trajectories on the same seed.
//! * [`memory`] — the byte-level accounting of the OpenKMC and TensorKMC
//!   storage schemes behind paper Table 1.

pub mod energycache;
pub mod engine;
pub mod error;
pub mod eventlog;
pub mod memory;
pub mod rates;
pub mod refresh;
pub mod rng;
pub mod sumtree;
pub mod system;
pub mod vacindex;

pub use energycache::{EnergyMemoCache, MemoStats};
pub use engine::{Checkpoint, EvalMode, HopEvent, KmcConfig, KmcEngine, KmcStats};
pub use error::KmcError;
pub use eventlog::EventLog;
pub use rates::{RateLaw, BOLTZMANN_EV_PER_K, DEFAULT_ATTEMPT_FREQUENCY};
pub use refresh::{RefreshPipeline, RefreshPlan};
pub use tensorkmc_operators::Precision;
pub use rng::Pcg32;
pub use sumtree::SumTree;
pub use system::VacancySystem;
pub use vacindex::VacancyBinIndex;
