//! Timers the replica puts around each call into a layer.
//!
//! A per-event call (one per release, segment or completion) is folded into
//! a count, a total and a fixed-memory log-linear histogram; nothing is
//! kept per event. A coarse call (dispatch, replay, a whole audit) is also
//! kept as a span `{name, start_ns, end_ns, parent}`, whose parent is the
//! command span the replica opened around the CLI command it mirrors.
//!
//! Every timed duration includes part of the cost of the `Instant` pair
//! that measures it. [`Tracer::calibrate`] measures that part in this
//! process and every recorded duration has it subtracted.

use crate::json::Json;
use std::time::Instant;

/// The crate a call goes into.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Layer {
    Audit,
    Core,
    Sim,
    Trace,
    Multi,
    Workloads,
}

impl Layer {
    pub const ALL: [Layer; 6] = [
        Layer::Audit,
        Layer::Core,
        Layer::Sim,
        Layer::Trace,
        Layer::Multi,
        Layer::Workloads,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Layer::Audit => "audit",
            Layer::Core => "core",
            Layer::Sim => "sim",
            Layer::Trace => "trace",
            Layer::Multi => "multi",
            Layer::Workloads => "workloads",
        }
    }
}

/// Whether a call is aggregated only, or also kept as a span.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    PerEvent,
    Coarse,
}

/// Log-linear histogram: 8 buckets per power of two, so a quantile read
/// from it is within 1/16 of the true value. 496 counters cover all u64.
#[derive(Debug, Clone)]
pub struct Histogram {
    counts: Vec<u64>,
}

const SUB_BITS: u32 = 3;

impl Default for Histogram {
    fn default() -> Self {
        Histogram {
            counts: vec![0; ((64 - SUB_BITS as usize) + 1) << SUB_BITS],
        }
    }
}

impl Histogram {
    fn bucket(v: u64) -> usize {
        if v < (1 << SUB_BITS) {
            return v as usize;
        }
        let octave = 63 - v.leading_zeros();
        let sub = (v >> (octave - SUB_BITS)) & ((1 << SUB_BITS) - 1);
        (((octave - SUB_BITS + 1) << SUB_BITS) as usize) + sub as usize
    }

    /// Smallest value that lands in bucket `i`.
    fn lower(i: usize) -> u64 {
        let sub = (1usize << SUB_BITS) as u64;
        if (i as u64) < sub {
            return i as u64;
        }
        let octave = (i >> SUB_BITS) as u32 + SUB_BITS - 1;
        (sub + (i as u64 & (sub - 1))) << (octave - SUB_BITS)
    }

    pub fn record(&mut self, v: u64) {
        self.counts[Self::bucket(v)] += 1;
    }

    /// The `q`-quantile, as the midpoint of the bucket holding it.
    pub fn quantile(&self, q: f64) -> f64 {
        let total: u64 = self.counts.iter().sum();
        if total == 0 {
            return 0.0;
        }
        let rank = ((q * total as f64).ceil() as u64).clamp(1, total);
        let mut seen = 0;
        for (i, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= rank {
                let lo = Self::lower(i) as f64;
                let hi = Self::lower(i + 1) as f64;
                return (lo + hi) / 2.0;
            }
        }
        unreachable!("rank is at most the total count")
    }
}

/// Aggregate of one call site.
#[derive(Debug, Clone)]
pub struct CallStats {
    pub name: String,
    pub layer: Layer,
    pub kind: Kind,
    pub count: u64,
    /// Sum of raw measured durations.
    pub raw_ns: u64,
    /// Sum of durations with the timer cost subtracted.
    pub net_ns: f64,
    pub hist: Histogram,
}

impl CallStats {
    pub fn mean_ns(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.net_ns / self.count as f64
        }
    }
}

/// A kept span; times are ns since the start of the traced pass.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: String,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
}

/// Handle to a registered call site.
#[derive(Debug, Clone, Copy)]
pub struct CallId(usize);

/// The replica's timers. With `enabled` false, [`Tracer::time`] only runs
/// the call, so the same replica code gives the untraced pass.
#[derive(Debug)]
pub struct Tracer {
    pub enabled: bool,
    /// Cost of an empty timed call, subtracted from every duration.
    pub pair_ns: f64,
    pub calls: Vec<CallStats>,
    pub spans: Vec<Span>,
    origin: Instant,
    open: Option<usize>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Self {
        Tracer {
            enabled,
            pair_ns: 0.0,
            calls: Vec::new(),
            spans: Vec::new(),
            origin: Instant::now(),
            open: None,
        }
    }

    /// Measure the cost of an empty timed interval (two clock reads, as in
    /// [`Tracer::time`]): the median of many.
    pub fn calibrate(&mut self) {
        let mut samples: Vec<u64> = (0..200_000)
            .map(|_| {
                let t0 = Instant::now();
                std::hint::black_box(());
                t0.elapsed().as_nanos() as u64
            })
            .collect();
        samples.sort_unstable();
        self.pair_ns = samples[samples.len() / 2] as f64;
    }

    /// Find or add the call site `name`.
    pub fn register(&mut self, name: &str, layer: Layer, kind: Kind) -> CallId {
        if let Some(i) = self.calls.iter().position(|c| c.name == name) {
            return CallId(i);
        }
        self.calls.push(CallStats {
            name: name.to_string(),
            layer,
            kind,
            count: 0,
            raw_ns: 0,
            net_ns: 0.0,
            hist: Histogram::default(),
        });
        CallId(self.calls.len() - 1)
    }

    /// Start a traced pass: spans restart, aggregates keep accumulating.
    pub fn start_pass(&mut self) {
        self.spans.clear();
        self.open = None;
        self.origin = Instant::now();
    }

    /// Open the span of one mirrored CLI command.
    pub fn begin(&mut self, name: &str) {
        if self.enabled {
            let now = self.since_origin(Instant::now());
            self.spans.push(Span {
                name: name.to_string(),
                start_ns: now,
                end_ns: now,
                parent: None,
            });
            self.open = Some(self.spans.len() - 1);
        }
    }

    /// Close the open command span.
    pub fn end(&mut self) {
        if let (true, Some(i)) = (self.enabled, self.open.take()) {
            self.spans[i].end_ns = self.since_origin(Instant::now());
        }
    }

    /// Run `f` as one call of `id`.
    #[inline]
    pub fn time<R>(&mut self, id: CallId, f: impl FnOnce() -> R) -> R {
        if !self.enabled {
            return f();
        }
        let t0 = Instant::now();
        let r = f();
        let t1 = Instant::now();
        let raw = t1.duration_since(t0).as_nanos() as u64;
        let net = (raw as f64 - self.pair_ns).max(0.0);
        let c = &mut self.calls[id.0];
        c.count += 1;
        c.raw_ns += raw;
        c.net_ns += net;
        c.hist.record(net as u64);
        if c.kind == Kind::Coarse {
            let name = c.name.clone();
            let (start_ns, end_ns) = (self.since_origin(t0), self.since_origin(t1));
            self.spans.push(Span {
                name,
                start_ns,
                end_ns,
                parent: self.open,
            });
        }
        r
    }

    fn since_origin(&self, t: Instant) -> u64 {
        t.duration_since(self.origin).as_nanos() as u64
    }

    pub fn stats(&self, name: &str) -> Option<&CallStats> {
        self.calls.iter().find(|c| c.name == name)
    }

    /// Net self time of a layer (+0.0, not the -0.0 an empty float sum gives).
    pub fn layer_ns(&self, layer: Layer) -> f64 {
        self.calls
            .iter()
            .filter(|c| c.layer == layer)
            .fold(0.0, |sum, c| sum + c.net_ns)
    }

    pub fn raw_ns(&self) -> u64 {
        self.calls.iter().map(|c| c.raw_ns).sum()
    }

    /// Call aggregates and the last pass's spans, for `trace_<workload>.json`.
    pub fn to_json(&self) -> (Json, Json) {
        let calls = self
            .calls
            .iter()
            .map(|c| {
                Json::obj()
                    .with("name", c.name.as_str())
                    .with("layer", c.layer.name())
                    .with(
                        "kind",
                        if c.kind == Kind::Coarse {
                            "coarse"
                        } else {
                            "per_event"
                        },
                    )
                    .with("count", c.count)
                    .with("net_ns", c.net_ns)
                    .with("mean_ns", c.mean_ns())
                    .with("p99_ns", c.hist.quantile(0.99))
            })
            .collect::<Vec<_>>();
        let spans = self
            .spans
            .iter()
            .map(|s| {
                Json::obj()
                    .with("name", s.name.as_str())
                    .with("start_ns", s.start_ns)
                    .with("end_ns", s.end_ns)
                    .with("parent", s.parent)
            })
            .collect::<Vec<_>>();
        (Json::Arr(calls), Json::Arr(spans))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_buckets_are_contiguous_and_quantiles_are_close() {
        for v in [0u64, 1, 7, 8, 9, 15, 16, 17, 1000, 65_537, u64::MAX / 3] {
            let b = Histogram::bucket(v);
            assert!(
                Histogram::lower(b) <= v && v < Histogram::lower(b + 1),
                "{v}"
            );
        }
        for i in 0..400 {
            assert!(Histogram::lower(i) < Histogram::lower(i + 1), "{i}");
            assert_eq!(Histogram::bucket(Histogram::lower(i)), i);
        }
        let mut h = Histogram::default();
        for v in 1..=10_000u64 {
            h.record(v);
        }
        let p99 = h.quantile(0.99);
        assert!((p99 - 9_900.0).abs() / 9_900.0 < 1.0 / 16.0, "{p99}");
        assert_eq!(Histogram::default().quantile(0.99), 0.0);
    }

    #[test]
    fn timed_calls_aggregate_and_coarse_calls_keep_spans_under_their_command() {
        let mut t = Tracer::new(true);
        t.calibrate();
        assert!(t.pair_ns > 0.0 && t.pair_ns < 10_000.0, "{}", t.pair_ns);
        let ev = t.register("core.offer", Layer::Core, Kind::PerEvent);
        let big = t.register("multi.dispatch", Layer::Multi, Kind::Coarse);
        t.start_pass();
        t.begin("fleet");
        for _ in 0..100 {
            t.time(ev, || std::hint::black_box(3) * 2);
        }
        let x = t.time(big, || {
            (0..10_000u64).map(std::hint::black_box).sum::<u64>()
        });
        t.end();
        assert_eq!(x, 49_995_000);
        assert_eq!(t.stats("core.offer").unwrap().count, 100);
        assert_eq!(t.spans.len(), 2);
        assert_eq!(t.spans[1].parent, Some(0));
        assert!(
            t.spans[0].start_ns <= t.spans[1].start_ns && t.spans[1].end_ns <= t.spans[0].end_ns
        );
        assert!(t.layer_ns(Layer::Multi) > 0.0);
        assert!(t.layer_ns(Layer::Trace).is_sign_positive());

        let mut off = Tracer::new(false);
        let id = off.register("core.offer", Layer::Core, Kind::PerEvent);
        assert_eq!(off.time(id, || 5), 5);
        assert_eq!(off.calls[0].count, 0);
    }
}
