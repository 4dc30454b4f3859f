//! Host-side measurement: the wall clock, benchmark-side spans, peak RSS,
//! medians and the output hash.

use std::cmp::Reverse;
use std::collections::{BTreeMap, BinaryHeap};
use std::time::Instant;

use vsim::{HostClock, Samples};

/// Nanoseconds elapsed since `t0`.
pub fn ns_since(t0: Instant) -> u64 {
    u64::try_from(t0.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

/// A monotonic clock for the cluster's dispatch profiler (traced runs only).
pub struct WallClock(Instant);

impl WallClock {
    pub fn new() -> Self {
        WallClock(Instant::now())
    }
}

impl HostClock for WallClock {
    fn now_ns(&mut self) -> u64 {
        ns_since(self.0)
    }
    fn label(&self) -> &'static str {
        "monotonic"
    }
}

/// Benchmark-side spans around public calls into the cluster.
///
/// Off, [`Tracer::span`] is a plain call: untraced runs read no clock
/// beyond the set-up and run-phase stopwatches.
pub struct Tracer {
    on: bool,
    spans: BTreeMap<&'static str, u64>,
}

impl Tracer {
    pub fn new(on: bool) -> Self {
        Tracer {
            on,
            spans: BTreeMap::new(),
        }
    }

    pub fn is_on(&self) -> bool {
        self.on
    }

    /// Runs `f`, charging its wall time to `name` when tracing.
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        if !self.on {
            return f();
        }
        let t0 = Instant::now();
        let r = f();
        *self.spans.entry(name).or_default() += ns_since(t0);
        r
    }

    /// Accumulated nanoseconds per span name.
    pub fn into_spans(self) -> BTreeMap<&'static str, u64> {
        self.spans
    }
}

/// The process's resident-set high-water mark (`VmHWM`) in MB.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// Resets `VmHWM` to the current RSS, so the next workload of an
/// all-workload run reports its own peak. Returns false where the kernel
/// does not support the reset.
pub fn reset_peak_rss() -> bool {
    std::fs::write("/proc/self/clear_refs", "5").is_ok()
}

/// Wall nanoseconds of one canary pass: a fixed miniature event loop (a
/// binary heap of timed events, an ordered map of small vectors) shaped
/// like the simulator's hot path. It lives in the benchmark, so a change
/// to the program cannot speed it up. Its time tracks how fast the host
/// runs this kind of code at the moment it is taken.
pub fn canary_ns() -> u64 {
    let t0 = Instant::now();
    let mut x: u64 = 0x9e37_79b9_7f4a_7c15;
    let mut next = || {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        x
    };
    let mut queue: BinaryHeap<Reverse<(u64, u32)>> = BinaryHeap::new();
    for id in 0..20_000u32 {
        queue.push(Reverse((next() % 1_000_000, id)));
    }
    let mut state: BTreeMap<u64, Vec<u32>> = BTreeMap::new();
    let mut acc = 0u64;
    for _ in 0..300_000 {
        let Reverse((at, id)) = queue.pop().expect("every pop pushes one back");
        let key = next() % 50_000;
        let entry = state.entry(key).or_default();
        entry.push(id);
        if entry.len() > 8 {
            state.remove(&key);
        }
        acc = acc.wrapping_add(at);
        queue.push(Reverse((at + 1 + next() % 10_000, id)));
    }
    std::hint::black_box(acc);
    ns_since(t0)
}

/// The canary passes of one measurement, in the order they were taken.
pub struct Canary {
    passes_ns: Vec<f64>,
    last: Instant,
}

impl Canary {
    pub fn new() -> Self {
        Canary {
            passes_ns: Vec::new(),
            last: Instant::now(),
        }
    }

    pub fn pass(&mut self) {
        self.passes_ns.push(canary_ns() as f64);
        self.last = Instant::now();
    }

    /// A pass, unless the last one was under a second ago: inside a run
    /// this tracks the host during long runs without slowing short ones.
    pub fn pass_if_due(&mut self) {
        if self.last.elapsed().as_secs() >= 1 {
            self.pass();
        }
    }

    pub fn len(&self) -> usize {
        self.passes_ns.len()
    }

    /// Mean wall ns of the passes from index `from` on.
    pub fn mean_since(&self, from: usize) -> f64 {
        let tail = &self.passes_ns[from..];
        tail.iter().sum::<f64>() / tail.len() as f64
    }

    pub fn passes_ms(&self) -> Vec<f64> {
        self.passes_ns.iter().map(|ns| ns / 1e6).collect()
    }
}

/// Median (nearest rank) of the values; NaN when there are none.
pub fn median(values: impl IntoIterator<Item = f64>) -> f64 {
    let mut s = Samples::new();
    for v in values {
        s.add(v);
    }
    s.median().unwrap_or(f64::NAN)
}

/// FNV-1a over the simulated outputs of a run.
pub struct Fnv(u64);

impl Fnv {
    pub fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    pub fn bytes(&mut self, b: &[u8]) {
        for &x in b {
            self.0 ^= u64::from(x);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }

    pub fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    pub fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }

    pub fn str(&mut self, s: &str) {
        self.u64(s.len() as u64);
        self.bytes(s.as_bytes());
    }

    pub fn finish(&self) -> u64 {
        self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_is_nearest_rank() {
        assert_eq!(median([3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median([4.0, 1.0, 2.0, 3.0]), 2.0);
        assert!(median([]).is_nan());
    }

    #[test]
    fn tracer_off_records_nothing() {
        let mut t = Tracer::new(false);
        assert_eq!(t.span("x", || 41 + 1), 42);
        assert!(t.into_spans().is_empty());
        let mut t = Tracer::new(true);
        t.span("x", || ());
        t.span("x", || ());
        assert_eq!(t.into_spans().len(), 1);
    }
}
