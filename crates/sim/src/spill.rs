//! Bounded spill ring for retired schedule segments.
//!
//! A streaming run produces one analytic [`Segment`] per event; keeping all
//! of them resident would defeat the O(active jobs) memory model. Instead
//! closed segments are *retired* into this ring, and the consumer (batch
//! collector, auditor, or nobody) drains it at its own cadence:
//!
//! * **batch wrappers** use an [unbounded](SpillRing::unbounded) ring and
//!   drain once at the end into a `ScheduleBuilder`;
//! * **streaming consumers** cap the ring and drain between events, so
//!   resident segments stay bounded by the cap;
//! * **soak runs** that only care about objectives drain-and-discard; if a
//!   consumer falls behind, the ring drops its *oldest* segments and counts
//!   them, which downstream audits must treat as a broken chain of custody
//!   (a schedule rebuilt from a ring with `dropped() > 0` is missing
//!   history, and the volume-conservation check will trip on it).
//!
//! # Examples
//!
//! ```
//! use ncss_sim::spill::SpillRing;
//! use ncss_sim::{Segment, SpeedLaw};
//!
//! let mut ring = SpillRing::with_capacity(2);
//! for i in 0..3 {
//!     let t = f64::from(i);
//!     ring.push(Segment::new(t, t + 1.0, Some(i as usize), SpeedLaw::Constant { speed: 1.0 }));
//! }
//! assert_eq!(ring.resident(), 2);
//! assert_eq!(ring.dropped(), 1); // oldest segment evicted
//! assert_eq!(ring.total_retired(), 3);
//! let drained: Vec<_> = ring.drain().collect();
//! assert_eq!(drained.len(), 2);
//! assert_eq!(ring.resident(), 0);
//! ```

use crate::error::{SimError, SimResult};
use crate::schedule::Segment;
use std::collections::VecDeque;

/// Drop-oldest ring buffer of retired segments with drop accounting.
///
/// `S` is the segment type a stream retires: [`Segment`] for the `s^α`
/// laws, which are the ones that snapshot.
#[derive(Debug, Clone)]
pub struct SpillRing<S = Segment> {
    buf: VecDeque<S>,
    capacity: usize,
    dropped: u64,
    total: u64,
    peak: usize,
}

impl<S> SpillRing<S> {
    /// A ring holding at most `capacity` resident segments (≥ 1).
    ///
    /// Small bounded rings pre-allocate their full backing store up front
    /// so the steady-state `push`/`drain` cycle of a streaming run never
    /// touches the allocator (the unbounded batch ring still grows lazily).
    #[must_use]
    pub fn with_capacity(capacity: usize) -> Self {
        let capacity = capacity.max(1);
        // VecDeque keeps one spare slot; +1 avoids a doubling at the cap.
        let buf = if capacity <= 1 << 20 {
            VecDeque::with_capacity(capacity + 1)
        } else {
            VecDeque::new()
        };
        Self { buf, capacity, dropped: 0, total: 0, peak: 0 }
    }

    /// A ring with no practical bound — what the batch wrappers use, where
    /// the whole schedule is collected at the end.
    #[must_use]
    pub fn unbounded() -> Self {
        Self::with_capacity(usize::MAX)
    }

    /// Retire a segment; evicts (and counts) the oldest when full.
    pub fn push(&mut self, seg: S) {
        if self.buf.len() == self.capacity {
            self.buf.pop_front();
            self.dropped += 1;
        }
        self.buf.push_back(seg);
        self.total += 1;
        self.peak = self.peak.max(self.buf.len());
    }

    /// Drain all resident segments in retirement (chronological) order.
    pub fn drain(&mut self) -> impl Iterator<Item = S> + '_ {
        self.buf.drain(..)
    }

    /// Segments currently resident.
    #[must_use]
    pub fn resident(&self) -> usize {
        self.buf.len()
    }

    /// High-water mark of resident segments.
    #[must_use]
    pub fn peak_resident(&self) -> usize {
        self.peak
    }

    /// Segments evicted because the consumer fell behind the cap.
    #[must_use]
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Segments ever retired through the ring.
    #[must_use]
    pub fn total_retired(&self) -> u64 {
        self.total
    }

    /// The configured resident cap.
    #[must_use]
    pub fn capacity(&self) -> usize {
        self.capacity
    }
}

impl SpillRing {
    /// Capture the ring — resident segments *and* accounting counters — as
    /// plain data for checkpointing. Restoring via [`SpillRing::restore`]
    /// preserves drop accounting across a crash/resume boundary, so a
    /// resumed run's chain-of-custody counters match the uninterrupted run.
    #[must_use]
    pub fn snapshot(&self) -> SpillSnapshot {
        SpillSnapshot {
            segments: self.buf.iter().copied().collect(),
            capacity: self.capacity,
            dropped: self.dropped,
            total: self.total,
            peak: self.peak,
        }
    }

    /// Rebuild a ring from a snapshot, validating the counters first (a
    /// tampered checkpoint must surface as an error, not a panic or a
    /// silently wrong ring).
    pub fn restore(snap: SpillSnapshot) -> SimResult<Self> {
        let bad = |reason| Err(SimError::InvalidInstance { reason });
        if snap.capacity == 0 {
            return bad("spill snapshot: zero capacity");
        }
        if snap.segments.len() > snap.capacity {
            return bad("spill snapshot: more resident segments than capacity");
        }
        if snap.peak < snap.segments.len() || snap.peak > snap.capacity {
            return bad("spill snapshot: peak outside [resident, capacity]");
        }
        if snap.total < snap.dropped + snap.segments.len() as u64 {
            return bad("spill snapshot: total below dropped + resident");
        }
        Ok(Self {
            buf: snap.segments.into(),
            capacity: snap.capacity,
            dropped: snap.dropped,
            total: snap.total,
            peak: snap.peak,
        })
    }
}

/// Plain-data image of a [`SpillRing`], produced by [`SpillRing::snapshot`]
/// and consumed by [`SpillRing::restore`].
#[derive(Debug, Clone, PartialEq)]
pub struct SpillSnapshot {
    /// Resident segments in retirement order.
    pub segments: Vec<Segment>,
    /// Configured resident cap (`usize::MAX` = unbounded).
    pub capacity: usize,
    /// Segments evicted so far.
    pub dropped: u64,
    /// Segments ever retired.
    pub total: u64,
    /// High-water mark of resident segments.
    pub peak: usize,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schedule::SpeedLaw;

    fn seg(i: usize) -> Segment {
        let t = i as f64;
        Segment::new(t, t + 1.0, Some(i), SpeedLaw::Constant { speed: 1.0 })
    }

    #[test]
    fn fifo_order_preserved() {
        let mut ring = SpillRing::with_capacity(8);
        for i in 0..5 {
            ring.push(seg(i));
        }
        let jobs: Vec<_> = ring.drain().map(|s| s.job).collect();
        assert_eq!(jobs, vec![Some(0), Some(1), Some(2), Some(3), Some(4)]);
        assert_eq!(ring.dropped(), 0);
        assert_eq!(ring.total_retired(), 5);
    }

    #[test]
    fn drops_oldest_when_full() {
        let mut ring = SpillRing::with_capacity(3);
        for i in 0..7 {
            ring.push(seg(i));
        }
        assert_eq!(ring.dropped(), 4);
        assert_eq!(ring.peak_resident(), 3);
        let jobs: Vec<_> = ring.drain().map(|s| s.job).collect();
        assert_eq!(jobs, vec![Some(4), Some(5), Some(6)], "newest survive");
    }

    #[test]
    fn snapshot_restore_round_trips_counters_and_segments() {
        let mut ring = SpillRing::with_capacity(3);
        for i in 0..5 {
            ring.push(seg(i));
        }
        let snap = ring.snapshot();
        let restored = SpillRing::restore(snap.clone()).unwrap();
        assert_eq!(restored.snapshot(), snap);
        assert_eq!(restored.dropped(), 2);
        assert_eq!(restored.total_retired(), 5);
        assert_eq!(restored.resident(), 3);

        let mut bad = snap.clone();
        bad.capacity = 1;
        assert!(SpillRing::restore(bad).is_err(), "resident beyond capacity");
        let mut bad = snap.clone();
        bad.total = 0;
        assert!(SpillRing::restore(bad).is_err(), "total below dropped+resident");
        let mut bad = snap;
        bad.peak = 0;
        assert!(SpillRing::restore(bad).is_err(), "peak below resident");
    }

    #[test]
    fn drain_resets_resident_but_not_counters() {
        let mut ring = SpillRing::with_capacity(4);
        for i in 0..4 {
            ring.push(seg(i));
        }
        assert_eq!(ring.drain().count(), 4);
        assert_eq!(ring.resident(), 0);
        assert_eq!(ring.total_retired(), 4);
        ring.push(seg(9));
        assert_eq!(ring.resident(), 1);
        assert_eq!(ring.total_retired(), 5);
    }
}
