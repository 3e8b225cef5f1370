//! Measurement primitives shared by the workloads: timing samples with
//! median and tail summaries, the measurement window, spans recorded
//! around calls into each layer, process CPU and peak-memory readings,
//! and the output digest the correctness checks compare.

use std::collections::BTreeMap;
use std::time::Instant;

/// A series of timings (seconds), one per operation.
#[derive(Debug, Clone, Default)]
pub struct Samples(Vec<f64>);

impl Samples {
    /// Records one sample.
    pub fn push(&mut self, x: f64) {
        self.0.push(x);
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// Whether no sample was recorded.
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    /// Median (mean of the two middle samples for an even count); `None`
    /// when empty.
    pub fn median(&self) -> Option<f64> {
        median(&self.0)
    }

    /// The highest of p90, p99, p99.9 that has at least ten samples
    /// beyond it, as `(percentile label, value)`.
    pub fn tail(&self) -> Option<(&'static str, f64)> {
        let mut sorted = self.0.clone();
        sorted.sort_by(f64::total_cmp);
        let n = sorted.len();
        // Nearest rank ceil(n·q), with q = num/den in integers.
        [("p99.9", 999, 1000), ("p99", 99, 100), ("p90", 9, 10)]
            .into_iter()
            .map(|(label, num, den)| (label, (n * num).div_ceil(den)))
            .find(|&(_, rank)| rank >= 1 && n - rank >= 10)
            .map(|(label, rank)| (label, sorted[rank - 1]))
    }

    /// One human-readable line: median, tail percentile, sample count.
    pub fn summary(&self, name: &str) -> String {
        let med = self.median().unwrap_or(f64::NAN);
        let tail = match self.tail() {
            Some((label, v)) => format!("{label} {v:.6} s"),
            None => "no tail percentile (fewer than 10 samples beyond p90)".to_string(),
        };
        format!("{name}: median {med:.6} s, {tail}, n = {}", self.len())
    }
}

/// Median of `xs` (`None` when empty).
pub fn median(xs: &[f64]) -> Option<f64> {
    if xs.is_empty() {
        return None;
    }
    let mut s = xs.to_vec();
    s.sort_by(f64::total_cmp);
    let n = s.len();
    Some(if n % 2 == 1 {
        s[n / 2]
    } else {
        (s[n / 2 - 1] + s[n / 2]) / 2.0
    })
}

/// The measurement window: operations are started while the summed
/// operation time is below the budget (checks between operations do not
/// count), with a wall-clock guard so slow checks cannot run away.
#[derive(Debug)]
pub struct Window {
    budget: f64,
    used: f64,
    started: Instant,
    host: (u64, u64),
}

impl Window {
    /// A window measuring `budget` seconds of operations.
    pub fn new(budget: f64) -> Window {
        Window {
            budget,
            used: 0.0,
            started: Instant::now(),
            host: host_ticks(),
        }
    }

    /// A report line with the share of CPU time the hypervisor took for
    /// other guests since the window opened (timings inflate with it).
    pub fn stolen_line(&self) -> String {
        format!(
            "host CPU stolen during the window: {:.1}%",
            100.0 * stolen_share(self.host, host_ticks())
        )
    }

    /// Whether another operation should start. The first always does.
    pub fn open(&self) -> bool {
        self.used == 0.0
            || (self.used < self.budget
                && self.started.elapsed().as_secs_f64() < 4.0 * self.budget + 10.0)
    }

    /// Adds one operation's measured time.
    pub fn add(&mut self, secs: f64) {
        self.used += secs.max(f64::MIN_POSITIVE);
    }
}

/// Wall-clock seconds taken by `f`, with its result.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let t0 = Instant::now();
    let out = f();
    (out, t0.elapsed().as_secs_f64())
}

/// Per-operation span durations, keyed by layer metric name. Spans are
/// recorded by the benchmark around its calls into each layer's public
/// functions; within one operation repeated spans of a name add up.
#[derive(Debug, Clone, Default)]
pub struct Spans(BTreeMap<&'static str, f64>);

impl Spans {
    /// Runs `f` inside a span named `name`.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let (out, secs) = timed(f);
        self.add(name, secs);
        out
    }

    /// Adds `secs` to span `name`.
    pub fn add(&mut self, name: &'static str, secs: f64) {
        *self.0.entry(name).or_insert(0.0) += secs;
    }

    /// Duration recorded under `name` (0 when absent).
    pub fn get(&self, name: &str) -> f64 {
        self.0.get(name).copied().unwrap_or(0.0)
    }
}

/// Per-name medians over several operations' spans.
pub fn span_medians(ops: &[Spans]) -> BTreeMap<&'static str, f64> {
    let mut by_name: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
    for op in ops {
        for (&name, &secs) in &op.0 {
            by_name.entry(name).or_default().push(secs);
        }
    }
    by_name
        .into_iter()
        .map(|(name, xs)| (name, median(&xs).unwrap_or(0.0)))
        .collect()
}

/// User + system CPU seconds of this process so far, all threads
/// included (exited ones too), from `/proc/self/stat` in USER_HZ ticks.
pub fn cpu_seconds() -> f64 {
    let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
    // Fields after the parenthesised command name start at field 3.
    let rest = stat.rsplit_once(") ").map(|(_, r)| r).unwrap_or("");
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let tick = |i: usize| {
        fields
            .get(i)
            .and_then(|f| f.parse::<f64>().ok())
            .unwrap_or(0.0)
    };
    (tick(11) + tick(12)) / 100.0
}

/// The machine's `(stolen, total)` CPU ticks so far, from the `cpu`
/// line of `/proc/stat`. Stolen ticks are time the hypervisor ran other
/// guests on this machine's virtual CPUs.
pub fn host_ticks() -> (u64, u64) {
    let stat = std::fs::read_to_string("/proc/stat").unwrap_or_default();
    let ticks: Vec<u64> = stat
        .lines()
        .next()
        .unwrap_or("")
        .split_whitespace()
        .skip(1)
        .filter_map(|f| f.parse().ok())
        .collect();
    (ticks.get(7).copied().unwrap_or(0), ticks.iter().sum())
}

/// Share of the machine's CPU time stolen between two [`host_ticks`]
/// readings.
pub fn stolen_share(before: (u64, u64), after: (u64, u64)) -> f64 {
    let total = after.1.saturating_sub(before.1).max(1);
    after.0.saturating_sub(before.0) as f64 / total as f64
}

/// Peak resident set size of this process so far, in MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Resets this process's peak resident set size (`VmHWM`) to its current
/// resident size, by writing `5` to `/proc/self/clear_refs` (Linux).
/// Returns whether the reset took effect.
pub fn reset_peak_rss() -> bool {
    std::fs::write("/proc/self/clear_refs", "5").is_ok()
}

/// Returns the allocator's free heap pages to the kernel, so that memory
/// freed earlier is no longer resident (glibc `malloc_trim`; a no-op
/// elsewhere).
pub fn release_free_heap() {
    #[cfg(all(target_os = "linux", target_env = "gnu"))]
    {
        extern "C" {
            fn malloc_trim(pad: usize) -> i32;
        }
        // SAFETY: malloc_trim only releases free memory of glibc's heap.
        unsafe {
            malloc_trim(0);
        }
    }
}

/// Peak resident memory over a chosen set of operations only: free heap
/// is released and the high-water mark reset before each operation, and
/// the mark is read after it, so memory that set-up or the checks between
/// operations touched does not count (only what is still live when an
/// operation starts does).
#[derive(Debug, Clone, Default)]
pub struct OpPeak {
    mb: f64,
    start_mb: f64,
    unreset: bool,
}

impl OpPeak {
    /// Runs one operation `f` and folds its peak into the reading.
    pub fn around<T>(&mut self, f: impl FnOnce() -> T) -> T {
        release_free_heap();
        self.unreset |= !reset_peak_rss();
        self.start_mb = self.start_mb.max(peak_rss_mb());
        let out = f();
        self.mb = self.mb.max(peak_rss_mb());
        out
    }

    /// The highest peak over the operations, in MiB.
    pub fn mb(&self) -> f64 {
        self.mb
    }

    /// The report line: the peak, and the most memory already resident
    /// when an operation started (the floor the peak cannot go below);
    /// or a warning when the high-water mark could not be reset, so the
    /// reading covers set-up as well.
    pub fn line(&self) -> String {
        if self.unreset {
            "peak_rss_mb: the high-water mark could not be reset; it covers set-up too".into()
        } else {
            format!(
                "peak_rss_mb over operations: {:.1} MB; resident at operation start: at most {:.1} MB",
                self.mb, self.start_mb
            )
        }
    }
}

/// A 64-bit digest of `bytes`. Every step is a bijection of the state
/// for a fixed input word, so changing any single byte always changes
/// the digest; the length is folded in first.
pub fn digest(bytes: &[u8]) -> u64 {
    const K: u64 = 0x0000_0100_0000_01B3;
    let mut h = 0xcbf2_9ce4_8422_2325u64 ^ bytes.len() as u64;
    let mut words = bytes.chunks_exact(8);
    for w in &mut words {
        let w = u64::from_le_bytes(w.try_into().expect("chunks of eight bytes"));
        h = (h ^ w).wrapping_mul(K).rotate_left(29);
    }
    for &b in words.remainder() {
        h = (h ^ u64::from(b)).wrapping_mul(K);
    }
    h
}

/// A seed derived from the benchmark seed for one named input stream.
pub fn derive_seed(seed: u64, stream: u64) -> u64 {
    // SplitMix64 finalizer over the pair.
    let mut z = seed
        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add(stream.wrapping_mul(0xD1B5_4A32_D192_ED03));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_needs_ten_samples_beyond() {
        let mut s = Samples::default();
        for i in 0..99 {
            s.push(i as f64);
        }
        assert_eq!(s.tail().map(|t| t.0), None);
        s.push(99.0);
        assert_eq!(s.tail(), Some(("p90", 89.0)));
        assert_eq!(s.median(), Some(49.5));
    }

    #[test]
    fn op_peak_leaves_out_memory_touched_before_the_operations() {
        // A set-up spike of 256 MiB, touched and released.
        let spike = vec![1u8; 256 << 20];
        std::hint::black_box(&spike);
        drop(spike);
        let process_peak = peak_rss_mb();
        assert!(process_peak >= 256.0, "{process_peak}");
        let mut peak = OpPeak::default();
        let small = peak.around(|| std::hint::black_box(vec![1u8; 8 << 20]).len());
        assert_eq!(small, 8 << 20);
        assert!(!peak.line().contains("not be reset"), "{}", peak.line());
        assert!(
            peak.mb() >= 8.0 && peak.mb() < process_peak - 128.0,
            "operation peak {} vs process peak {process_peak}",
            peak.mb()
        );
    }

    #[test]
    fn digest_sees_every_single_byte_flip() {
        let base: Vec<u8> = (0..37u8).collect();
        let d = digest(&base);
        for i in 0..base.len() {
            let mut flipped = base.clone();
            flipped[i] ^= 0x01;
            assert_ne!(digest(&flipped), d, "flip at {i}");
        }
    }
}
