//! Byte-level robustness contract of the trace WAL (DESIGN.md §10).
//!
//! Two sweeps over a real recorded trace:
//!
//! * **Truncate at every byte** — a crash can cut the file anywhere. For
//!   every prefix length, `recover_bytes` must either recover the longest
//!   valid frame prefix (accounting for every byte: `valid + dropped ==
//!   total`) or fail with a named `TraceError` — and never panic, never
//!   accept damaged bytes silently.
//! * **Seeded tampering** — every tamper kind × seed must surface a named
//!   `TraceError` from the strict reader. A tampered trace must never read
//!   as clean, because recovery-mode truncation is reserved for *tail*
//!   damage: CRC-valid-but-wrong frames in the interior are tampering, not
//!   tearing.
//!
//! Past the reader, replay holds a CRC-valid trace to the bits: a single
//! re-encoded field edit, down to one ulp or the sign of a zero, must come
//! back as `ReplayDivergence` for both algorithms.

use ncss::core::{CStream, StreamConfig};
use ncss::sim::{Job, PowerLaw};
use ncss::trace::{
    read_bytes, recover_bytes, replay, tamper::apply, Algo, Checkpoint, Event, Recorder, Stream,
    Tamper, TraceError, TraceHeader,
};
use ncss_rng::{dist, Pcg64};

/// `n` Poisson arrivals at rate 1.5 with exponential unit-mean volumes.
fn poisson_jobs(n: usize, seed: u64) -> Vec<Job> {
    let mut rng = Pcg64::seed_from_u64(seed);
    let mut clock = 0.0;
    (0..n)
        .map(|_| {
            clock += dist::poisson_gap(&mut rng, 1.5);
            Job::unit_density(clock, dist::exponential(&mut rng, 1.0))
        })
        .collect()
}

/// Record a complete, finalized trace of `algo` over `jobs` into a byte
/// buffer — the same event stream `ncss-cli record` writes, with a
/// checkpoint every 7 offers.
fn record(algo: Algo, jobs: &[Job], seed: u64) -> Vec<u8> {
    let law = PowerLaw::new(2.5).unwrap();
    let header = TraceHeader::new(algo, law.alpha(), seed, "wal robustness test");
    let mut rec = Recorder::new(Vec::new(), &header).expect("recorder");
    let mut stream = Stream::new(algo, law, StreamConfig::streaming(64));
    for (i, job) in jobs.iter().enumerate() {
        rec.record_offer(&mut stream, *job).unwrap();
        if (i + 1) % 7 == 0 {
            rec.append(&Event::Checkpoint(Box::new(stream.checkpoint()))).unwrap();
        }
    }
    let summary = rec.record_finish(&mut stream).unwrap();
    rec.finalize(&summary).expect("finalize")
}

/// A finalized C trace over `n` Poisson arrivals.
fn recorded_trace(n: usize, seed: u64) -> Vec<u8> {
    record(Algo::C, &poisson_jobs(n, seed), seed)
}

/// Re-encode a trace through a fresh `Recorder` — valid CRCs, valid
/// sequence numbers — after `edit` has changed its events (the summary
/// included), so only replay can tell.
fn reencode(bytes: &[u8], edit: impl FnOnce(&mut Vec<Event>)) -> Vec<u8> {
    let trace = read_bytes(bytes).expect("clean trace reads strictly");
    let mut events = trace.events.clone();
    edit(&mut events);
    let Some(Event::Summary(summary)) = events.pop() else {
        panic!("a finalized trace ends in its summary")
    };
    let mut rec = Recorder::new(Vec::new(), &trace.header).unwrap();
    for event in &events {
        rec.append(event).unwrap();
    }
    rec.finalize(&summary).unwrap()
}

#[test]
fn clean_trace_reads_and_replays() {
    let bytes = recorded_trace(25, 3);
    let trace = read_bytes(&bytes).expect("clean trace reads strictly");
    assert!(trace.finalized());
    let report = replay(&trace).expect("clean trace replays bitwise");
    assert_eq!(report.jobs.len(), 25);
    assert!(report.checkpoints_verified >= 3);
    // Recovery mode on a clean trace: nothing dropped, no damage.
    let rec = recover_bytes(&bytes).expect("clean trace recovers");
    assert_eq!(rec.dropped_bytes, 0);
    assert!(rec.damage.is_none());
    assert_eq!(rec.valid_bytes, bytes.len() as u64);
}

#[test]
fn truncation_at_every_byte_never_panics_and_accounts_for_every_byte() {
    let bytes = recorded_trace(12, 5);
    let total = bytes.len();
    let mut recovered = 0usize;
    for cut in 0..total {
        let prefix = &bytes[..cut];
        // Strict reading of any proper prefix must fail with a named error.
        let strict = read_bytes(prefix);
        assert!(strict.is_err(), "cut {cut}: strict read accepted a truncated trace");
        let name = strict.unwrap_err().name();
        assert!(!name.is_empty(), "cut {cut}: error has no name");

        // Recovery either keeps a valid prefix (every byte accounted for)
        // or names why nothing is recoverable — never panics.
        match recover_bytes(prefix) {
            Ok(rec) => {
                recovered += 1;
                assert_eq!(
                    rec.valid_bytes + rec.dropped_bytes,
                    cut as u64,
                    "cut {cut}: recovery lost track of bytes"
                );
                assert!(
                    rec.dropped_bytes == 0 || rec.damage.is_some(),
                    "cut {cut}: dropped bytes without naming the damage"
                );
                // The kept prefix must itself re-read cleanly in recovery
                // mode: recovery output is a fixed point.
                let again = recover_bytes(&prefix[..rec.valid_bytes as usize])
                    .expect("recovered prefix re-recovers");
                assert_eq!(again.dropped_bytes, 0, "cut {cut}: recovery not idempotent");
            }
            Err(e) => {
                // Only cuts inside magic + header can be unrecoverable.
                assert!(!e.name().is_empty());
            }
        }
    }
    // Sanity: most cuts land after the header, so recovery mostly works.
    assert!(recovered > total / 2, "recovery succeeded only {recovered}/{total} times");
}

#[test]
fn every_tamper_kind_and_seed_yields_a_named_error_never_silence() {
    let bytes = recorded_trace(20, 11);
    assert!(read_bytes(&bytes).is_ok());
    assert_eq!(Tamper::ALL.len(), 6, "contract covers six tamper kinds");
    for kind in Tamper::ALL {
        let mut detected = 0usize;
        for seed in 1..=10u64 {
            let bad = apply(&bytes, kind, seed)
                .unwrap_or_else(|e| panic!("{}: tamperer refused: {e}", kind.name()));
            assert_ne!(bad, bytes, "{} seed {seed}: tamper was a no-op", kind.name());
            match read_bytes(&bad) {
                Ok(_) => panic!("{} seed {seed}: tampered trace read as clean", kind.name()),
                Err(e) => {
                    assert!(!e.name().is_empty(), "{} seed {seed}: unnamed error", kind.name());
                    assert!(
                        !e.to_string().is_empty(),
                        "{} seed {seed}: empty diagnostic",
                        kind.name()
                    );
                    detected += 1;
                }
            }
        }
        assert_eq!(detected, 10, "{}: every seed must be caught", kind.name());
    }
}

#[test]
fn tamperer_is_deterministic_per_seed() {
    let bytes = recorded_trace(10, 13);
    for kind in Tamper::ALL {
        let a = apply(&bytes, kind, 42).unwrap();
        let b = apply(&bytes, kind, 42).unwrap();
        assert_eq!(a, b, "{}: same seed must corrupt identically", kind.name());
    }
}

#[test]
fn torn_tail_recovery_keeps_checkpoints_usable() {
    let bytes = recorded_trace(21, 17);
    // Cut mid-file at an arbitrary byte past the first checkpoint frame and
    // append garbage shorter than a frame header, as a crashed appender
    // would leave it.
    let cut = bytes.len() * 2 / 3;
    let mut torn = bytes[..cut].to_vec();
    torn.extend_from_slice(&[0xAB, 0xCD, 0xEF]);
    let rec = recover_bytes(&torn).expect("torn tail recovers");
    assert!(rec.dropped_bytes > 0);
    assert!(rec.damage.is_some(), "tail damage must be named");
    assert!(!rec.trace.finalized(), "a torn trace cannot be finalized");
    if let Some((_, cp)) = rec.trace.last_checkpoint() {
        // The surviving checkpoint restores a live stream.
        match cp {
            Checkpoint::C(snap) => {
                let stream = CStream::from_snapshot(snap.clone()).expect("restorable");
                assert_eq!(stream.stats().ingested, cp.ingested());
            }
            Checkpoint::Nc(_) => unreachable!("C trace"),
        }
    }
}

/// First event matching `pick`, for in-place editing.
fn first(events: &mut [Event], pick: impl Fn(&Event) -> bool) -> &mut Event {
    events.iter_mut().find(|e| pick(e)).expect("the trace has such a frame")
}

#[test]
fn single_field_edits_are_replay_divergences_for_both_algorithms() {
    type Edit = fn(&mut Vec<Event>);
    let edits: [(&str, Edit); 4] = [
        ("completion time +1 ulp", |events| {
            match first(events, |e| matches!(e, Event::CompleteC { .. } | Event::CompleteNc { .. }))
            {
                Event::CompleteC { completion, .. } | Event::CompleteNc { completion, .. } => {
                    *completion = completion.next_up();
                }
                _ => unreachable!(),
            }
        }),
        ("first segment start 0.0 -> -0.0", |events| {
            let Event::Segment(seg) = first(events, |e| matches!(e, Event::Segment(_))) else {
                unreachable!()
            };
            assert_eq!(seg.start.to_bits(), 0.0f64.to_bits(), "first segment starts at +0.0");
            seg.start = -0.0;
        }),
        ("checkpoint energy +1 ulp", |events| {
            let Event::Checkpoint(cp) = first(events, |e| matches!(e, Event::Checkpoint(_))) else {
                unreachable!()
            };
            match cp.as_mut() {
                Checkpoint::C(s) => s.energy = s.energy.next_up(),
                Checkpoint::Nc(s) => s.energy = s.energy.next_up(),
            }
        }),
        ("summary energy +1 ulp", |events| {
            let Some(Event::Summary(s)) = events.last_mut() else { unreachable!() };
            s.energy = s.energy.next_up();
        }),
    ];
    for algo in [Algo::C, Algo::Nc] {
        // A job released at 0.0 opens the schedule with a segment at +0.0.
        let mut jobs = vec![Job::unit_density(0.0, 1.0)];
        jobs.extend(poisson_jobs(20, 29));
        let clean = record(algo, &jobs, 29);
        assert_eq!(reencode(&clean, |_| {}), clean, "{algo:?}: re-encoding is the identity");
        replay(&read_bytes(&clean).unwrap()).expect("clean trace replays");

        for (what, edit) in edits {
            let edited = reencode(&clean, edit);
            assert_ne!(edited, clean, "{algo:?} {what}: edit was a no-op");
            let trace = read_bytes(&edited)
                .unwrap_or_else(|e| panic!("{algo:?} {what}: reader refused [{}] {e}", e.name()));
            match replay(&trace) {
                Err(TraceError::ReplayDivergence { .. }) => {}
                Err(e) => panic!("{algo:?} {what}: want ReplayDivergence, got [{}] {e}", e.name()),
                Ok(_) => panic!("{algo:?} {what}: replayed clean"),
            }
        }
    }
}
