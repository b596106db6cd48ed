//! # ncss-sim — speed-scaling simulation substrate
//!
//! Continuous-time substrate for the SPAA 2015 paper *"Speed Scaling in the
//! Non-clairvoyant Model"* (Azar, Devanur, Huang, Panigrahi). This crate
//! knows nothing about specific scheduling algorithms; it provides:
//!
//! * [`job::Job`] / [`job::Instance`] — the problem input model,
//! * [`power::PowerLaw`] — the power function `P(s) = s^α`,
//! * [`kernel`] — exact closed-form evolution of the paper's power curves,
//! * [`schedule::Schedule`] — piecewise-analytic machine schedules,
//! * [`objective`] — independent evaluation of energy and flow-times,
//! * [`profile`] — measure-preserving speed-profile comparison (Lemma 6),
//! * [`numeric`] — root finding and tolerance helpers,
//! * [`arena`] / [`spill`] — flat SoA stores backing the streaming core
//!   (DESIGN.md §9): O(active jobs) resident state under unbounded streams.
//!
//! The algorithms themselves (clairvoyant Algorithm C, non-clairvoyant
//! Algorithm NC, the fractional-to-integral reduction, parallel-machine
//! variants) live in `ncss-core` and `ncss-multi` on top of this crate.

#![deny(missing_docs)]
// `!(x > 1.0)`-style validation is deliberate: unlike `x <= 1.0`, it also
// rejects NaN, which is exactly what input validation wants.
#![allow(clippy::neg_cmp_op_on_partial_ord)]

pub mod arena;
pub mod error;
pub mod generic;
pub mod job;
pub mod kernel;
pub mod numeric;
pub mod objective;
pub mod power;
pub mod profile;
pub mod schedule;
pub mod spill;
pub mod validate;

pub use arena::{ArenaSnapshot, JobArena};
pub use error::{SimError, SimResult};
pub use spill::{SpillRing, SpillSnapshot};
pub use job::{Instance, Job, JobId};
pub use objective::{evaluate, Evaluated, Objective, PerJob};
pub use power::{PowKernel, PowerLaw};
pub use schedule::{Schedule, ScheduleBuilder, Segment, SegmentIndex, SpeedCurve, SpeedLaw};
