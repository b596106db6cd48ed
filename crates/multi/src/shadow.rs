//! Per-machine clairvoyant shadow: Algorithm C's remaining weight
//! `W^{(C)}(r^-)` over one machine's jobs, without re-running its history.
//!
//! NC-PAR runs job `j` on machine `m` at power `K_j + W̆_j(t)` with
//! `K_j = W^{(C)}(r_j^-)` over `m`'s earlier jobs (Theorem 17), and C-PAR
//! sends each job to the machine with the least such weight (Lemma 19).
//! Both read the same quantity, so both keep one [`MachineShadow`] per
//! machine: a [`CStream`] fed that machine's jobs in dispatch order, built
//! on the machine's first job (every `CStream` presizes its heap, so idle
//! machines of a wide fleet allocate nothing). A read costs one `offer`,
//! so both dispatch loops are linear in the jobs; a `run_c` over the
//! machine's history per read would make them `O(n²/k)`.
//!
//! **Bitwise contract.** [`MachineShadow::admit`] offers the job *first*
//! and reads `weight_before(r)` after: `offer` makes exactly the one
//! `advance_to(r)` that `run_c` over the history makes for that job, so
//! the shadow passes through the same events — and the same
//! `WEIGHT_RESYNC_EVERY` total-weight resyncs — as the prefix re-run, and
//! the segment it reads at `r` starts at the same time with the same
//! weight. Reading before offering (as `NcStream` does) would add one
//! zero-length event per release and shift the resyncs; past 4,096 shadow
//! events that moves results by a few ulps. `tests/fleet_identity.rs`
//! pins the contract against test-local copies of the re-running loops.

use ncss_core::streaming::{CStream, StreamConfig};
use ncss_sim::{Job, PowerLaw, Segment, SimResult};

/// One machine's Algorithm C run, advanced to the machine's latest
/// release, plus the tie term of the distinct-release limit.
#[derive(Debug)]
pub(crate) struct MachineShadow {
    stream: CStream,
    /// Release of the machine's latest job.
    tie_release: f64,
    /// Summed weight of the machine's jobs released at `tie_release`: a
    /// job tied with earlier arrivals counts them at full weight (see
    /// `ncss_core::nc_uniform::base_power`).
    tie_weight: f64,
}

impl MachineShadow {
    fn with_config(law: PowerLaw, config: StreamConfig) -> Self {
        Self { stream: CStream::new(law, config), tie_release: f64::NEG_INFINITY, tie_weight: 0.0 }
    }

    /// A shadow that keeps no segments — all NC-PAR needs is `K_j`.
    pub(crate) fn new(law: PowerLaw) -> Self {
        Self::with_config(law, StreamConfig { keep_segments: false, spill_capacity: Some(1) })
    }

    /// Feed the machine's next job (releases non-decreasing) and return
    /// its base power `K = W^{(C)}(r^-) + tie weight`, bitwise what
    /// `run_c` over the machine's strictly-earlier jobs plus the tie term
    /// gives (see the module docs for why the read follows the offer).
    pub(crate) fn admit(&mut self, job: Job) -> SimResult<f64> {
        self.stream.offer(job, &mut |_| {})?;
        if job.release != self.tie_release {
            self.tie_release = job.release;
            self.tie_weight = 0.0;
        }
        let k = self.stream.weight_before(job.release) + self.tie_weight;
        self.tie_weight += job.weight();
        Ok(k)
    }

    /// The tie term for a job released at `r ≥ tie_release` that has not
    /// been admitted.
    fn ties_at(&self, r: f64) -> f64 {
        if r == self.tie_release {
            self.tie_weight
        } else {
            0.0
        }
    }
}

/// C-PAR's view of one machine: its shadow, and the shadow's future read
/// with a forward cursor.
///
/// The greedy rule reads every machine's `W(r^-)` at every release but
/// changes only one machine per job, so each machine caches its C
/// timeline from its latest release on — the shadow's last retired
/// segment (the one a tied release reads) followed by a clone of the
/// shadow run to completion — and rebuilds it only when it receives a
/// job, at `O(its active jobs)`. These are the segments a fresh `run_c`
/// over the machine's jobs produces from that release on, so the reads
/// are its `remaining_weight_before` bit for bit.
#[derive(Debug)]
pub(crate) struct ShadowTimeline {
    law: PowerLaw,
    shadow: MachineShadow,
    last_retired: Option<Segment>,
    future: Vec<Segment>,
    /// First segment of `future` that may still end at or after a read.
    cursor: usize,
}

impl ShadowTimeline {
    pub(crate) fn new(law: PowerLaw) -> Self {
        Self {
            law,
            shadow: MachineShadow::with_config(law, StreamConfig::batch()),
            last_retired: None,
            future: Vec::new(),
            cursor: 0,
        }
    }

    /// `W^{(C)}(r^-)` plus the tie term for a job released at `r`. Reads
    /// must come at non-decreasing `r`, none before the latest job this
    /// machine received.
    pub(crate) fn weight_before(&mut self, r: f64) -> f64 {
        while self.future.get(self.cursor).is_some_and(|s| s.end < r) {
            self.cursor += 1;
        }
        let strictly_before = match self.future.get(self.cursor) {
            Some(s) if s.start < r && r <= s.end => s.power_at(self.law, r),
            _ => 0.0,
        };
        strictly_before + self.shadow.ties_at(r)
    }

    /// Dispatch `job` to this machine and rebuild the cached future.
    pub(crate) fn receive(&mut self, job: Job) -> SimResult<()> {
        self.shadow.admit(job)?;
        let stream = &mut self.shadow.stream;
        if let Some(seg) = stream.spill_mut().drain().last() {
            self.last_retired = Some(seg);
        }
        let mut rest = stream.clone();
        rest.finish(&mut |_| {})?;
        self.future.clear();
        self.future.extend(self.last_retired);
        self.future.extend(rest.spill_mut().drain());
        self.cursor = 0;
        Ok(())
    }
}
