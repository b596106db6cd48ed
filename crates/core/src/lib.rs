//! # ncss-core — the SPAA 2015 speed-scaling algorithms
//!
//! Implementations of every algorithm in *"Speed Scaling in the
//! Non-clairvoyant Model"* (Azar, Devanur, Huang, Panigrahi, SPAA 2015):
//!
//! * [`clairvoyant`] — Algorithm C, the 2-competitive clairvoyant HDF +
//!   `power = remaining weight` comparator (Section 2),
//! * [`nc_uniform`] — Algorithm NC for uniform densities (Section 3),
//! * [`nc_nonuniform`] — Algorithm NC for arbitrary densities with density
//!   rounding and the η-scaled current-instance speed rule (Section 4),
//! * [`reduction`] — the black-box fractional-to-integral reduction
//!   (Section 5),
//! * [`baselines`] — non-clairvoyant baselines from related work,
//! * [`current_instance`] / [`preemption`] — the analysis objects `I(T)`
//!   and the preemption-interval structure,
//! * [`streaming`] — the event-driven stream core with O(active jobs)
//!   resident memory that the batch runners above delegate to,
//! * [`shadow`] — the one reader of `W^{(C)}(r^-)` that NC's variants and
//!   the parallel dispatchers share,
//! * [`theory`] — every theoretical constant as an executable formula.

#![deny(missing_docs)]
// `!(x > 1.0)`-style validation is deliberate: unlike `x <= 1.0`, it also
// rejects NaN, which is exactly what input validation wants.
#![allow(clippy::neg_cmp_op_on_partial_ord)]

pub mod baselines;
pub mod bounded;
pub mod checked;
pub mod clairvoyant;
pub mod current_instance;
pub mod driver;
pub mod generic_runs;
pub mod known_weight;
pub mod nc_nonuniform;
pub mod nc_uniform;
pub mod potential;
pub mod preemption;
pub mod properties;
pub mod reduction;
pub mod shadow;
pub mod streaming;
pub mod theory;

pub use bounded::{run_c_bounded, run_nc_uniform_bounded};
pub use checked::{
    run_checked, run_checked_multi, CheckedAlgorithm, CheckedMultiRun, CheckedRun, MultiRun,
};
pub use clairvoyant::{run_c, CRun};
pub use driver::{run_online, Decision, NcView, NonClairvoyantPolicy};
pub use generic_runs::{run_c_generic, run_nc_uniform_generic, GenericRun};
pub use nc_nonuniform::{run_nc_nonuniform, NonUniformParams};
pub use known_weight::run_known_weight_sharing;
pub use nc_uniform::{run_nc_uniform, NcRun};
pub use reduction::{reduce_to_integral, IntegralRun};
pub use streaming::{
    CCompletion, CStream, CStreamSnapshot, NcCompletion, NcStream, NcStreamSnapshot,
    StreamConfig, StreamStats, StreamSummary,
};
