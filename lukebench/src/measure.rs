//! Measurement helpers: order statistics, an in-memory span recorder,
//! named time/count accumulators, a live-heap counter, peak RSS and the
//! output digest the golden check compares.

use std::alloc::{GlobalAlloc, Layout, System};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicI64, Ordering};
use std::time::Instant;

/// Median of `values` (0.0 when empty).
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// Linear-interpolated quantile `q` in `[0, 1]` of `values` (0.0 when
/// empty).
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

/// `num / den`, or 0.0 when `den` is zero.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Seconds elapsed since `start`.
pub fn secs(start: Instant) -> f64 {
    start.elapsed().as_secs_f64()
}

/// Set-up repeats between batches until it has run this many times or
/// for [`SETUP_BUDGET_S`], so that a set-up of microseconds still gives
/// enough samples for a steady median while a long one costs the batches
/// no time.
const SETUP_REPEATS: usize = 5;
/// Seconds of set-up between two batches after which it stops repeating.
const SETUP_BUDGET_S: f64 = 0.05;

/// Runs `batch` back to back until `seconds` have passed (at least once),
/// timing `setup` before every batch. Returns the first set-up's value,
/// which every batch uses, and the median set-up time in seconds: set-up
/// repeats across the whole run, so its median sees the same machine
/// noise as the batches do. The load is a closed batch: the next starts
/// when the previous completes.
pub fn measure<S>(
    seconds: f64,
    mut setup: impl FnMut() -> S,
    mut batch: impl FnMut(&S),
) -> (S, f64) {
    let start = Instant::now();
    let t = Instant::now();
    let first = setup();
    let mut setup_walls = vec![secs(t)];
    loop {
        batch(&first);
        if secs(start) >= seconds {
            break;
        }
        let mut spent = 0.0;
        for _ in 0..SETUP_REPEATS {
            let t = Instant::now();
            std::hint::black_box(setup());
            let wall = secs(t);
            setup_walls.push(wall);
            spent += wall;
            if spent >= SETUP_BUDGET_S {
                break;
            }
        }
    }
    (first, median(&setup_walls))
}

/// Advances a xorshift64 state and returns it.
fn xorshift(x: &mut u64) -> u64 {
    *x ^= *x << 13;
    *x ^= *x >> 7;
    *x ^= *x << 17;
    *x
}

/// Looks `line` up in one LRU set (most recent first), moving it to the
/// front or filling it there; returns whether it hit.
fn lru_touch(set: &mut [u64], line: u64) -> bool {
    match set.iter().position(|&t| t == line) {
        Some(way) => {
            set[..=way].rotate_right(1);
            true
        }
        None => {
            set.rotate_right(1);
            set[0] = line;
            false
        }
    }
}

/// First half of the calibration kernel: 300,000 lookups of a skewed
/// random line stream in a 1 MB, 16-way cache model. Returns the hits.
fn probe_kernel() -> u64 {
    let mut tags = vec![u64::MAX; 1024 * 16];
    let mut x = std::hint::black_box(0x1234_5678_u64);
    let mut hits = 0;
    for _ in 0..300_000 {
        let r = xorshift(&mut x);
        let line = if r & 3 == 0 {
            r >> 40
        } else {
            (r >> 50) & 0x3fff
        };
        let set = (line as usize % 1024) * 16;
        hits += u64::from(lru_touch(&mut tags[set..set + 16], line));
    }
    hits
}

/// Second half: a 375,000-line instruction stream (sequential runs broken
/// by jumps) through an 8-way, 64-set L1 and a 16-way, 2,048-set L2.
/// Returns the L2 misses. The stream is generated as it is consumed, so
/// the kernel adds under half a megabyte to the process's peak memory.
fn replay_kernel() -> u64 {
    let mut x = std::hint::black_box(0x9876_5432_u64);
    let mut line = 0;
    let mut l1 = vec![u64::MAX; 64 * 8];
    let mut l2 = vec![u64::MAX; 2048 * 16];
    let mut misses = 0;
    for _ in 0..375_000 {
        let r = xorshift(&mut x);
        line = if r & 15 == 0 {
            (r >> 30) & 0x3_ffff
        } else {
            line + 1
        };
        let s1 = (line as usize % 64) * 8;
        if lru_touch(&mut l1[s1..s1 + 8], line) {
            continue;
        }
        let s2 = (line as usize % 2048) * 16;
        misses += u64::from(!lru_touch(&mut l2[s2..s2 + 16], line));
    }
    misses
}

/// Seconds one run of the calibration kernel takes now (about 12 ms on a
/// 2-vCPU Xeon virtual machine). The kernel is a small cache simulator
/// in code that lives here and so never changes with the program. Its two
/// halves take about equal time and slow differently under contention:
/// measured against each, the simulator's cells slowed 1.35–1.50 and
/// 0.98–1.03 times as much (in log terms) and `run_fleet` 1.04–1.17 and
/// 0.68–0.83 times, so their sum tracks both.
pub fn calibration_s() -> f64 {
    let t = Instant::now();
    std::hint::black_box(probe_kernel() ^ replay_kernel());
    secs(t)
}

/// Each named operation's cost across a run's batches, in calibration
/// units: its wall time divided by the calibration kernel's, measured
/// just before and just after it.
///
/// On a shared machine, other tenants slow this one in phases of tens of
/// seconds, by up to half, and a whole run can fall inside one; the
/// kernel slows with them, so the ratio moves far less than the wall
/// time. Code the program runs is never in the kernel, so at one machine
/// speed a change to the program moves the ratio as it moves wall time.
#[derive(Default)]
pub struct Timings {
    by_op: BTreeMap<String, Vec<f64>>,
    /// The kernel's time just after the last operation, which is also
    /// the time just before the next.
    last_cal_s: Option<f64>,
}

impl Timings {
    /// Times `f` as one run of `op`.
    pub fn time<R>(&mut self, op: &str, f: impl FnOnce() -> R) -> R {
        let before = self.last_cal_s.take().unwrap_or_else(calibration_s);
        let t = Instant::now();
        let out = f();
        let wall = secs(t);
        let after = calibration_s();
        self.last_cal_s = Some(after);
        let ratio = wall / ((before + after) / 2.0);
        self.by_op.entry(op.to_string()).or_default().push(ratio);
        out
    }

    /// One batch's cost in calibration units: the sum over operations of
    /// each one's median.
    pub fn batch_cal(&self) -> f64 {
        self.by_op.values().map(|v| median(v)).sum()
    }
}

/// The cost of one `Instant::now()` pair, in ns (median of many), which
/// sampled per-call timings subtract so that a call shorter than the
/// clock read is not inflated by it.
pub fn clock_overhead_ns() -> f64 {
    let samples: Vec<f64> = (0..2_000)
        .map(|_| {
            let t = Instant::now();
            t.elapsed().as_nanos() as f64
        })
        .collect();
    median(&samples)
}

/// One recorded span: a named interval and the span that caused it.
#[derive(Clone, Debug)]
pub struct Span {
    /// Layer boundary the span times, e.g. `fleet.route`.
    pub name: String,
    /// Parent span id (0 = none).
    pub parent: u32,
    /// Start, ns since the recorder's epoch.
    pub start_ns: u64,
    /// Duration, ns (0 while open).
    pub dur_ns: u64,
}

/// In-memory span recorder; spans are written out once, at the end of a
/// traced run, so recording costs one clock read per boundary.
pub struct Spans {
    epoch: Instant,
    list: Vec<Span>,
}

impl Spans {
    /// An empty recorder whose epoch is now.
    pub fn new() -> Self {
        Spans {
            epoch: Instant::now(),
            list: Vec::new(),
        }
    }

    /// Opens a span under `parent` and returns its id (ids start at 1).
    pub fn open(&mut self, name: impl Into<String>, parent: u32) -> u32 {
        self.list.push(Span {
            name: name.into(),
            parent,
            start_ns: self.epoch.elapsed().as_nanos() as u64,
            dur_ns: 0,
        });
        self.list.len() as u32
    }

    /// Closes span `id` and returns its duration in seconds.
    pub fn close(&mut self, id: u32) -> f64 {
        let now = self.epoch.elapsed().as_nanos() as u64;
        let span = &mut self.list[id as usize - 1];
        span.dur_ns = now - span.start_ns;
        span.dur_ns as f64 / 1e9
    }

    /// Records an already measured interval as a closed span.
    pub fn record(&mut self, name: impl Into<String>, parent: u32, start: Instant, dur_s: f64) {
        self.list.push(Span {
            name: name.into(),
            parent,
            start_ns: start.saturating_duration_since(self.epoch).as_nanos() as u64,
            dur_ns: (dur_s * 1e9) as u64,
        });
    }

    /// The spans as a Chrome trace-event document (`chrome://tracing`,
    /// Perfetto), with `provenance` attached as metadata.
    pub fn to_chrome_json(&self, provenance: &str) -> String {
        let mut out = String::from("{\"traceEvents\":[");
        for (i, s) in self.list.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "{{\"name\":{:?},\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":{:.3},\"dur\":{:.3},\"args\":{{\"id\":{},\"parent\":{}}}}}",
                s.name,
                s.start_ns as f64 / 1e3,
                s.dur_ns as f64 / 1e3,
                i + 1,
                s.parent
            ));
        }
        out.push_str("],\"provenance\":");
        out.push_str(provenance);
        out.push('}');
        out
    }
}

/// Named accumulators: total seconds and a work count per key, e.g.
/// `("sim.flush", 0.004 s, 6 flushes)`.
#[derive(Default)]
pub struct Acc {
    sums: BTreeMap<String, (f64, f64)>,
}

impl Acc {
    /// Adds `seconds` of time and `count` units of work under `key`.
    pub fn add(&mut self, key: &str, seconds: f64, count: f64) {
        let entry = self.sums.entry(key.to_string()).or_insert((0.0, 0.0));
        entry.0 += seconds;
        entry.1 += count;
    }

    /// Total seconds under `key`.
    pub fn seconds(&self, key: &str) -> f64 {
        self.sums.get(key).map_or(0.0, |e| e.0)
    }

    /// Total count under `key`.
    pub fn count(&self, key: &str) -> f64 {
        self.sums.get(key).map_or(0.0, |e| e.1)
    }

    /// Seconds per counted unit under `key`, scaled by `unit` (e.g. 1e9
    /// for ns); 0.0 when nothing was counted.
    pub fn per(&self, key: &str, unit: f64) -> f64 {
        ratio(self.seconds(key) * unit, self.count(key))
    }
}

/// Peak resident set size of this process (`VmHWM`), MB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// 64-bit FNV-1a of `bytes`, as 16 hex digits: the golden digest.
pub fn digest(bytes: &[u8]) -> String {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    format!("{h:016x}")
}

static HEAP_COUNTING: AtomicBool = AtomicBool::new(false);
static HEAP_LIVE: AtomicI64 = AtomicI64::new(0);

/// The system allocator, plus a live-byte counter that runs only while
/// [`heap_counting`] has switched it on (a single relaxed load otherwise).
pub struct CountingAlloc;

// SAFETY: every call forwards to `System` with the caller's layout and
// pointer unchanged; the counters are plain atomics and never touch the
// allocation itself.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract,
        // which is `System::alloc`'s.
        let ptr = unsafe { System.alloc(layout) };
        if !ptr.is_null() && HEAP_COUNTING.load(Ordering::Relaxed) {
            HEAP_LIVE.fetch_add(layout.size() as i64, Ordering::Relaxed);
        }
        ptr
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        if HEAP_COUNTING.load(Ordering::Relaxed) {
            HEAP_LIVE.fetch_sub(layout.size() as i64, Ordering::Relaxed);
        }
        // SAFETY: `ptr` came from `System` via `alloc`/`realloc` with
        // this `layout`, as the caller guarantees.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: forwarded unchanged; the caller upholds
        // `GlobalAlloc::realloc`'s contract.
        let new = unsafe { System.realloc(ptr, layout, new_size) };
        if !new.is_null() && HEAP_COUNTING.load(Ordering::Relaxed) {
            HEAP_LIVE.fetch_add(new_size as i64 - layout.size() as i64, Ordering::Relaxed);
        }
        new
    }
}

/// Switches live-heap counting on or off. While on, [`heap_live_bytes`]
/// moves with every allocation and free; frees of blocks allocated
/// before the switch count too, so measure deltas over regions that
/// allocate and keep their own data.
pub fn heap_counting(on: bool) {
    HEAP_COUNTING.store(on, Ordering::SeqCst);
}

/// Live heap bytes counted since counting was first switched on.
pub fn heap_live_bytes() -> i64 {
    HEAP_LIVE.load(Ordering::SeqCst)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate() {
        let v = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(median(&v), 2.5);
        assert_eq!(quantile(&v, 0.0), 1.0);
        assert_eq!(quantile(&v, 1.0), 4.0);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn digest_is_fnv1a() {
        assert_eq!(digest(b""), "cbf29ce484222325");
        assert_eq!(digest(b"a"), "af63dc4c8601ec8c");
    }

    #[test]
    fn spans_nest_and_close() {
        let mut spans = Spans::new();
        let outer = spans.open("outer", 0);
        let inner = spans.open("inner", outer);
        assert!(spans.close(inner) >= 0.0);
        spans.close(outer);
        let json = spans.to_chrome_json("{}");
        assert!(json.contains("\"parent\":1"), "{json}");
    }
}
