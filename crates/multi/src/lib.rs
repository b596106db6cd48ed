//! # ncss-multi — identical parallel machines (Section 6)
//!
//! * [`c_par`] — clairvoyant C-PAR: greedy least-remaining-weight immediate
//!   dispatch with per-machine Algorithm C (Theorem 18 comparator),
//! * [`nc_par`] — non-clairvoyant NC-PAR: global FIFO queue, dispatch on
//!   machine availability, per-machine Algorithm NC (Theorem 17),
//! * [`dispatch`] — immediate-dispatch policies behind a volume-blind trait,
//! * [`fleet`] — sharded fleet execution: a deterministic [`fleet::DispatchLog`],
//!   recorded in linear time, feeds per-machine event queues run as
//!   `ncss-pool` tasks; the serial runners are the same log on one worker,
//!   and every pool width gives the same bits up to k = 4096,
//! * [`lower_bound`] — the adaptive-adversary game realising the paper's
//!   `Ω(k^{1−1/α})` lower bound for immediate dispatch.

#![deny(missing_docs)]

pub mod c_par;
pub mod dispatch;
pub mod fleet;
pub mod lazy_hdf;
pub mod lower_bound;
pub mod nc_par;
mod shadow;

pub use c_par::{run_c_par, ParOutcome, MAX_MACHINES};
pub use dispatch::{collect_assignment, run_immediate_dispatch, ImmediateDispatch, LeastCount, RoundRobin, SeededRandom};
pub use fleet::{
    audit_fleet, replay_c, replay_nc, replay_nc_assigned, run_c_par_sharded,
    run_immediate_dispatch_sharded, run_nc_par_sharded, DispatchEntry, DispatchLog,
};
pub use lazy_hdf::run_lazy_hdf;
pub use lower_bound::{fit_loglog_slope, immediate_dispatch_game, GameOutcome};
pub use nc_par::{run_nc_par, run_nc_with_assignment, run_nonuniform_with_assignment};
