//! Flat arena-backed structure-of-arrays store for active jobs.
//!
//! The streaming scheduler core (ncss-core's `streaming` module) keeps only
//! the *active* jobs resident. This arena backs that set with parallel flat
//! `Vec`s — one per field — so the `Σ ρ_i · R_i` total-weight recompute
//! runs as a tight loop over contiguous slices instead of chasing a heap or
//! a map, and a waiting job's flow is settled in one multiply when it next
//! enters service ([`JobArena::settle_waiting`]).
//!
//! Slots are recycled through a free list, so the arena's footprint is
//! `O(peak active jobs)` no matter how many jobs stream through. Retired
//! slots are zeroed (`ρ = 0`, `R = 0`), which makes them exact no-ops in
//! the slice kernels: adding `0.0 · 0.0` to a non-negative accumulator
//! does not change a single bit, so the kernels can sweep the whole slice
//! without a liveness branch.
//!
//! # Examples
//!
//! ```
//! use ncss_sim::arena::JobArena;
//! use ncss_sim::Job;
//!
//! let mut arena = JobArena::new();
//! let a = arena.alloc(Job::new(0.0, 2.0, 1.0), 0);
//! let b = arena.alloc(Job::new(0.5, 1.0, 3.0), 1);
//! assert_eq!(arena.total_weight(), 2.0 + 3.0);
//!
//! arena.retire(a);
//! assert_eq!(arena.live(), 1);
//! assert_eq!(arena.total_weight(), 3.0); // retired slot contributes +0.0
//!
//! // The freed slot is reused: capacity tracks *peak* active jobs.
//! let c = arena.alloc(Job::new(1.0, 4.0, 1.0), 2);
//! assert_eq!(c, a);
//! assert_eq!(arena.capacity(), 2);
//! let _ = b;
//! ```

use crate::error::{SimError, SimResult};
use crate::job::{Job, JobId};

/// Weighted remaining volume `Σ ρ_i · R_i` over parallel slices.
///
/// This is the `W(t)` recompute the event loop performs after every event
/// (re-deriving from per-job remainders kills accumulation drift). Retired
/// slots hold `ρ = R = 0` and contribute an exact `+0.0`.
///
/// ```
/// use ncss_sim::arena::weighted_remaining;
/// assert_eq!(weighted_remaining(&[1.0, 3.0], &[2.0, 0.5]), 3.5);
/// ```
#[must_use]
pub fn weighted_remaining(density: &[f64], remaining: &[f64]) -> f64 {
    debug_assert_eq!(density.len(), remaining.len());
    let mut w = 0.0;
    for i in 0..density.len() {
        w += density[i] * remaining[i];
    }
    w
}

/// Structure-of-arrays store for the active-job working set.
///
/// See the [module docs](self) for the layout and recycling contract.
#[derive(Debug, Default)]
pub struct JobArena {
    release: Vec<f64>,
    volume: Vec<f64>,
    density: Vec<f64>,
    remaining: Vec<f64>,
    frac_flow: Vec<f64>,
    acc_t: Vec<f64>,
    id: Vec<JobId>,
    free: Vec<usize>,
    live: usize,
    peak_live: usize,
}

impl Clone for JobArena {
    fn clone(&self) -> Self {
        let mut arena = Self::default();
        arena.clone_from(self);
        arena
    }

    /// Field-wise, so restoring a checkpointed stream into a scratch one
    /// reuses the scratch's slices instead of allocating new ones.
    fn clone_from(&mut self, source: &Self) {
        let Self { release, volume, density, remaining, frac_flow, acc_t, id, free, live, peak_live } = source;
        self.release.clone_from(release);
        self.volume.clone_from(volume);
        self.density.clone_from(density);
        self.remaining.clone_from(remaining);
        self.frac_flow.clone_from(frac_flow);
        self.acc_t.clone_from(acc_t);
        self.id.clone_from(id);
        self.free.clone_from(free);
        self.live = *live;
        self.peak_live = *peak_live;
    }
}

impl JobArena {
    /// An empty arena.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Place a job in a slot (recycling a retired one when available) and
    /// return the slot index. `id` is the caller's external [`JobId`].
    pub fn alloc(&mut self, job: Job, id: JobId) -> usize {
        let slot = match self.free.pop() {
            Some(slot) => {
                self.release[slot] = job.release;
                self.volume[slot] = job.volume;
                self.density[slot] = job.density;
                self.remaining[slot] = job.volume;
                self.frac_flow[slot] = 0.0;
                self.acc_t[slot] = job.release;
                self.id[slot] = id;
                slot
            }
            None => {
                self.release.push(job.release);
                self.volume.push(job.volume);
                self.density.push(job.density);
                self.remaining.push(job.volume);
                self.frac_flow.push(0.0);
                self.acc_t.push(job.release);
                self.id.push(id);
                self.release.len() - 1
            }
        };
        self.live += 1;
        self.peak_live = self.peak_live.max(self.live);
        slot
    }

    /// Retire a completed job: zero the slot (so slice kernels stay exact
    /// without a liveness mask) and push it onto the free list.
    pub fn retire(&mut self, slot: usize) {
        self.release[slot] = 0.0;
        self.volume[slot] = 0.0;
        self.density[slot] = 0.0;
        self.remaining[slot] = 0.0;
        self.frac_flow[slot] = 0.0;
        self.acc_t[slot] = 0.0;
        self.free.push(slot);
        self.live -= 1;
    }

    /// The job currently in `slot` (release/volume/density as allocated).
    #[must_use]
    pub fn job(&self, slot: usize) -> Job {
        Job::new(self.release[slot], self.volume[slot], self.density[slot])
    }

    /// External [`JobId`] of the job in `slot`.
    #[must_use]
    pub fn id(&self, slot: usize) -> JobId {
        self.id[slot]
    }

    /// Density of the job in `slot`.
    #[must_use]
    pub fn density(&self, slot: usize) -> f64 {
        self.density[slot]
    }

    /// Remaining volume of the job in `slot`.
    #[must_use]
    pub fn remaining(&self, slot: usize) -> f64 {
        self.remaining[slot]
    }

    /// Overwrite the remaining volume of the job in `slot`.
    pub fn set_remaining(&mut self, slot: usize, remaining: f64) {
        self.remaining[slot] = remaining;
    }

    /// Fractional flow accrued so far by the job in `slot`.
    #[must_use]
    pub fn frac_flow(&self, slot: usize) -> f64 {
        self.frac_flow[slot]
    }

    /// Add to the fractional flow of the job in `slot`.
    pub fn add_frac_flow(&mut self, slot: usize, delta: f64) {
        self.frac_flow[slot] += delta;
    }

    /// Total weight `Σ ρ_i · R_i` over all slots ([`weighted_remaining`]).
    #[must_use]
    pub fn total_weight(&self) -> f64 {
        weighted_remaining(&self.density, &self.remaining)
    }

    /// Settle the *deferred* waiting-flow accrual of one slot through `now`.
    ///
    /// The streaming core does not touch waiting jobs per event (that would
    /// be O(active) work each time); instead each slot remembers the time
    /// `acc_t` through which its fractional flow is already accounted, and
    /// the whole waiting stretch `ρ·R·(now − acc_t)` is added in **one
    /// multiply** when the job next enters service or completes. Because a
    /// waiting job's remainder `R` is constant over the stretch, the settled
    /// total equals the per-event accrual up to f64 associativity — and is
    /// typically *more* accurate, not less.
    pub fn settle_waiting(&mut self, slot: usize, now: f64) {
        self.frac_flow[slot] +=
            self.density[slot] * self.remaining[slot] * (now - self.acc_t[slot]);
        self.acc_t[slot] = now;
    }

    /// Mark the flow of `slot` as accounted through `now` without accruing
    /// (used at the end of a service interval, whose drain-side flow is
    /// added analytically by the kernel).
    pub fn set_accrued(&mut self, slot: usize, now: f64) {
        self.acc_t[slot] = now;
    }

    /// Number of live (allocated, not yet retired) jobs.
    #[must_use]
    pub fn live(&self) -> usize {
        self.live
    }

    /// High-water mark of simultaneously live jobs.
    #[must_use]
    pub fn peak_live(&self) -> usize {
        self.peak_live
    }

    /// Number of slots ever created — the arena's resident footprint, which
    /// equals [`Self::peak_live`] thanks to slot recycling.
    #[must_use]
    pub fn capacity(&self) -> usize {
        self.release.len()
    }

    /// Capture the complete arena state as plain data, for checkpointing.
    ///
    /// The snapshot is exact: every `f64` is carried bit-for-bit, the free
    /// list keeps its order, so [`JobArena::restore`] rebuilds an arena whose
    /// subsequent allocations and slice sweeps are bitwise identical to the
    /// original's.
    #[must_use]
    pub fn snapshot(&self) -> ArenaSnapshot {
        ArenaSnapshot {
            release: self.release.clone(),
            volume: self.volume.clone(),
            density: self.density.clone(),
            remaining: self.remaining.clone(),
            frac_flow: self.frac_flow.clone(),
            acc_t: self.acc_t.clone(),
            id: self.id.clone(),
            free: self.free.clone(),
            live: self.live,
            peak_live: self.peak_live,
        }
    }

    /// Rebuild an arena from a snapshot, validating its structure first.
    ///
    /// A snapshot decoded from an on-disk checkpoint may have been tampered
    /// with; this constructor refuses inconsistent shapes (mismatched column
    /// lengths, free-list entries out of range or duplicated, live counts
    /// that do not add up) with a structured error instead of panicking
    /// later inside a slice kernel.
    pub fn restore(snap: ArenaSnapshot) -> SimResult<Self> {
        let n = snap.release.len();
        let bad = |reason| Err(SimError::InvalidInstance { reason });
        if [
            snap.volume.len(),
            snap.density.len(),
            snap.remaining.len(),
            snap.frac_flow.len(),
            snap.acc_t.len(),
            snap.id.len(),
        ]
        .iter()
        .any(|&len| len != n)
        {
            return bad("arena snapshot: column lengths disagree");
        }
        let mut seen = vec![false; n];
        for &slot in &snap.free {
            if slot >= n {
                return bad("arena snapshot: free-list slot out of range");
            }
            if std::mem::replace(&mut seen[slot], true) {
                return bad("arena snapshot: free-list slot duplicated");
            }
        }
        if snap.live != n - snap.free.len() {
            return bad("arena snapshot: live count disagrees with free list");
        }
        if snap.peak_live < snap.live || snap.peak_live > n {
            return bad("arena snapshot: peak-live outside [live, capacity]");
        }
        Ok(Self {
            release: snap.release,
            volume: snap.volume,
            density: snap.density,
            remaining: snap.remaining,
            frac_flow: snap.frac_flow,
            acc_t: snap.acc_t,
            id: snap.id,
            free: snap.free,
            live: snap.live,
            peak_live: snap.peak_live,
        })
    }
}

/// Plain-data image of a [`JobArena`], produced by [`JobArena::snapshot`]
/// and consumed by [`JobArena::restore`]. Serialized into checkpoint frames
/// by `ncss-trace`.
#[derive(Debug, Clone, PartialEq)]
pub struct ArenaSnapshot {
    /// Per-slot release times.
    pub release: Vec<f64>,
    /// Per-slot total volumes.
    pub volume: Vec<f64>,
    /// Per-slot densities (0 for retired slots).
    pub density: Vec<f64>,
    /// Per-slot remaining volumes (0 for retired slots).
    pub remaining: Vec<f64>,
    /// Per-slot accrued fractional flow.
    pub frac_flow: Vec<f64>,
    /// Per-slot time through which flow is accounted (deferred accrual).
    pub acc_t: Vec<f64>,
    /// Per-slot external [`JobId`]s.
    pub id: Vec<JobId>,
    /// Free (retired, reusable) slots in pop order.
    pub free: Vec<usize>,
    /// Live slot count (`capacity - free.len()`).
    pub live: usize,
    /// High-water mark of simultaneously live slots.
    pub peak_live: usize,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn recycles_slots_and_tracks_peak() {
        let mut a = JobArena::new();
        let s0 = a.alloc(Job::unit_density(0.0, 1.0), 0);
        let s1 = a.alloc(Job::unit_density(0.1, 2.0), 1);
        assert_eq!((s0, s1), (0, 1));
        a.retire(s0);
        let s2 = a.alloc(Job::unit_density(0.2, 3.0), 2);
        assert_eq!(s2, 0, "freed slot reused");
        assert_eq!(a.capacity(), 2);
        assert_eq!(a.peak_live(), 2);
        assert_eq!(a.id(s2), 2);
    }

    #[test]
    fn retired_slots_are_exact_noops() {
        let mut a = JobArena::new();
        a.alloc(Job::new(0.0, 2.0, 3.0), 0);
        let s1 = a.alloc(Job::new(0.0, 1.0, 5.0), 1);
        let before = a.total_weight();
        assert_eq!(before, 3.0 * 2.0 + 5.0);
        a.retire(s1);
        assert_eq!(a.total_weight(), 6.0);
    }

    #[test]
    fn snapshot_restore_round_trips_bitwise() {
        let mut a = JobArena::new();
        let s0 = a.alloc(Job::new(0.0, 2.0, 3.0), 0);
        let _s1 = a.alloc(Job::new(0.5, 1.0, 5.0), 1);
        a.retire(s0);
        a.alloc(Job::new(1.0, 0.25, 2.0), 2);
        a.set_remaining(1, 0.125);
        a.add_frac_flow(1, 0.75);
        let snap = a.snapshot();
        let b = JobArena::restore(snap.clone()).unwrap();
        assert_eq!(b.snapshot(), snap);
        assert_eq!(b.total_weight().to_bits(), a.total_weight().to_bits());
        assert_eq!(b.live(), a.live());
        assert_eq!(b.peak_live(), a.peak_live());
    }

    #[test]
    fn restore_rejects_inconsistent_snapshots() {
        let mut a = JobArena::new();
        let s = a.alloc(Job::unit_density(0.0, 1.0), 0);
        a.alloc(Job::unit_density(0.5, 1.0), 1);
        a.retire(s);
        let good = a.snapshot();

        let mut bad = good.clone();
        bad.volume.pop();
        assert!(JobArena::restore(bad).is_err(), "mismatched columns");

        let mut bad = good.clone();
        bad.free[0] = 99;
        assert!(JobArena::restore(bad).is_err(), "free slot out of range");

        let mut bad = good.clone();
        bad.free.push(bad.free[0]);
        assert!(JobArena::restore(bad).is_err(), "duplicated free slot");

        let mut bad = good.clone();
        bad.live = 7;
        assert!(JobArena::restore(bad).is_err(), "live count off");

        let mut bad = good;
        bad.peak_live = 0;
        assert!(JobArena::restore(bad).is_err(), "peak below live");
    }

    #[test]
    fn deferred_settle_matches_eager_accrual() {
        // Settling once over [release, now] equals accruing the same stretch
        // eagerly in one piece; acc_t advances so a second settle is a no-op.
        let mut a = JobArena::new();
        let s = a.alloc(Job::new(1.0, 2.0, 3.0), 0);
        a.settle_waiting(s, 2.5);
        assert_eq!(a.frac_flow(s), 3.0 * 2.0 * 1.5, "accounted through release at alloc");
        a.settle_waiting(s, 2.5);
        assert_eq!(a.frac_flow(s), 9.0, "repeated settle at same time adds zero");
        a.set_accrued(s, 4.0);
        a.settle_waiting(s, 5.0);
        assert_eq!(a.frac_flow(s), 9.0 + 6.0, "stretch [4,5] only");
    }

    #[test]
    fn capacity_bounded_by_peak_under_churn() {
        let mut a = JobArena::new();
        for i in 0..1000 {
            let s = a.alloc(Job::unit_density(i as f64, 1.0), i);
            a.retire(s);
        }
        assert_eq!(a.capacity(), 1, "churn of 1000 jobs with 1 active fits 1 slot");
        assert_eq!(a.peak_live(), 1);
        assert_eq!(a.live(), 0);
    }
}
