//! # ncss-audit — independent run auditing
//!
//! Every simulator in this workspace accounts its objective with *closed
//! forms* (exact kernel integrals in `ncss-sim::kernel`). A bookkeeping bug
//! in those closed forms would silently corrupt every experiment, so this
//! crate re-derives the three objective components — energy, fractional and
//! integral weighted flow-time — from the serving segments of a run using
//! its own arithmetic, and cross-checks the result against the reported
//! [`ncss_sim::Evaluated`]. The re-derivation is **tiered** (DESIGN.md
//! §8.4): segment integrals are evaluated by the audit's independently
//! written antiderivatives ([`closed_form`]), while every
//! `cross_check_stride`-th integral is instead measured by
//! double-exponential quadrature of the **pointwise speed curve**
//! ([`quad`]) and folded into the same check — so an algebra error shared
//! between the simulators and the audit's formulas still surfaces as a
//! residual blow-up, without paying quadrature prices on every segment.
//!
//! On top of the numeric cross-check, the audit verifies the event-level
//! invariants any lawful run must satisfy:
//!
//! * segments are well-formed: finite, positively oriented, non-overlapping,
//!   in monotone time order;
//! * no job is served before its release;
//! * per-job volume conservation: the re-derived volume delivered to each
//!   job matches its size;
//! * completion consistency: completion times re-derived by inverting the
//!   cumulative volume (binary search over per-job prefix sums, analytic
//!   inversion inside the crossing segment) match the reported ones.
//!
//! The audit never panics: every finding is a [`CheckVerdict`] inside a
//! structured [`AuditReport`] with a per-invariant residual, so callers (the
//! `ncss audit` CLI, `run_checked`, the fault-injection contract test)
//! decide what to do with a failure.
//!
//! ## One engine
//!
//! All checks are written once, in the event-fed engines of
//! [`incremental`]: [`IncrementalAudit`] for one machine and
//! [`IncrementalMultiAudit`] for fleets, which adds the cross-machine
//! checks (no-double-service, cross-machine volume conservation,
//! fleet-total re-derivation). A live stream feeds them event by event;
//! [`ScheduleAudit`] and [`MultiAudit`] audit a finished run by feeding it
//! through the same engines post hoc. Runs that produce no `Schedule` at
//! all (processor sharing) get the engines' outcome checks alone via
//! [`ScheduleAudit::audit_outcome`].
//!
//! Every verdict records the wall-time its check took
//! ([`CheckVerdict::elapsed_ns`]); a post-hoc audit charges its feed to the
//! volume check (DESIGN.md §8.3). Bench binaries surface these as the
//! `audit_timing` block in `BENCH_*.json` (EXPERIMENTS.md).

#![deny(missing_docs)]

pub mod closed_form;
pub mod incremental;
pub mod quad;
pub mod report;
mod schedule_audit;

pub use incremental::{IncrementalAudit, IncrementalMultiAudit, IncrementalSnapshot, Trip};
pub use report::{AuditReport, CheckVerdict, Stopwatch};
pub use schedule_audit::{AuditConfig, MultiAudit, ScheduleAudit};

use ncss_sim::{Evaluated, Instance, Objective, PerJob, Schedule};

/// Audit a schedule-producing run with the default configuration.
#[must_use]
pub fn audit_run(instance: &Instance, schedule: &Schedule, reported: &Evaluated) -> AuditReport {
    ScheduleAudit::default().audit(instance, schedule, reported)
}

/// Audit a schedule-less outcome with the default configuration.
#[must_use]
pub fn audit_outcome(instance: &Instance, objective: &Objective, per_job: &PerJob) -> AuditReport {
    ScheduleAudit::default().audit_outcome(instance, objective, per_job)
}

/// Audit a parallel-machine run (one schedule per machine) with the
/// default configuration.
#[must_use]
pub fn audit_multi(
    instance: &Instance,
    schedules: &[Schedule],
    reported: &Evaluated,
) -> AuditReport {
    MultiAudit::default().audit(instance, schedules, reported)
}
