//! The TensorKMC energy kernels: the fast feature operator and the
//! big-fusion operator, with the full ladder of optimisation stages the
//! paper measures in Fig. 10.
//!
//! Everything here operates on the *deployed* model: an [`weights::F32Stack`]
//! exported from a trained [`tensorkmc_nnp::NnpModel`] with the feature
//! normalisation and energy affine map folded into the first and last layers
//! (single precision, as on the real CPEs).
//!
//! * [`stages`] — five implementations of the convolution stack, from the
//!   naive NCHW Conv2D to the cache-resident, thread-parallel big fusion;
//!   Fig. 10 benchmarks their wall-clock ratio, Fig. 9 their traffic.
//! * [`feature_op`] — tabulated feature construction for the 1+8 AKMC states
//!   of a vacancy system, serial ("MPE") and CPE-parallel (paper §3.4).
//! * [`bigfusion`] — the big-fusion operator run on the simulated core
//!   group: DMA-in features, RMA-shared weights, DMA-out energies
//!   (paper §3.5, Alg. 1).
//! * [`evaluator`] — the [`evaluator::VacancyEnergyEvaluator`] trait the
//!   AKMC engine drives, with a plain-Rust reference implementation and the
//!   Sunway-simulated implementation.

// Indexed loops mirror the paper's Alg. 1 structure in the kernels.
#![allow(clippy::needless_range_loop)]
#![warn(missing_docs)]

pub mod bigfusion;
pub mod eam_evaluator;
pub mod error;
pub mod evaluator;
pub mod feature_op;
pub mod stages;
pub mod weights;

pub use eam_evaluator::EamLatticeEvaluator;
pub use error::OperatorError;
pub use evaluator::{
    CoreGroupBackend, HostBackend, NnpBackend, NnpDirectEvaluator, NnpEvaluator, OpTelemetry,
    StateEnergies, SunwayEvaluator, VacancyEnergyEvaluator, VacancyEnergyEvaluatorBox,
};
pub use feature_op::{DeltaFeatures, RowInterner, UniqueRowPlan};
pub use weights::{Bf16Stack, F32Stack, Precision};

/// Number of candidate final states of a bcc vacancy hop (the 8 1NN sites).
pub const N_FINAL_STATES: usize = 8;
