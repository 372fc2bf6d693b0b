//! Small order statistics and process measurements.

use std::time::{Duration, Instant};

/// The reference workload's time on the host the benchmark was written
/// on (2 vCPUs of a shared 2.1 GHz Xeon host). `setup_s` is set-up time
/// rescaled to a host on which the reference takes this long.
pub const REF_NOMINAL_S: f64 = 0.015;

/// Set-up times, one entry per repetition of the workload's set-up.
#[derive(Debug, Default)]
pub struct SetupTimes {
    /// Seconds as measured.
    pub wall: Vec<f64>,
    /// Seconds rescaled by the reference runs around the set-up to a host
    /// where the reference takes `REF_NOMINAL_S`.
    pub at_ref: Vec<f64>,
    pub gen: Vec<f64>,
    pub baseline: Vec<f64>,
}

impl SetupTimes {
    /// Times one set-up between two reference runs.
    pub fn time<T>(&mut self, set_up: impl FnOnce() -> T) -> T {
        let before = reference_work().as_secs_f64();
        let start = Instant::now();
        let out = set_up();
        let took = start.elapsed();
        let reference = (before + reference_work().as_secs_f64()) / 2.0;
        self.wall.push(took.as_secs_f64());
        self.at_ref
            .push(took.as_secs_f64() / reference * REF_NOMINAL_S);
        out
    }

    /// Records the layer times of the set-up last timed.
    pub fn record_layers(&mut self, gen: Duration, baseline: Duration) {
        self.gen.push(gen.as_secs_f64());
        self.baseline.push(baseline.as_secs_f64());
    }
}

/// Median of `xs` (mean of the middle pair for an even count).
pub fn median(xs: &[f64]) -> f64 {
    assert!(!xs.is_empty(), "median of no samples");
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Nearest-rank percentile, `q` in (0, 1].
pub fn percentile(xs: &[f64], q: f64) -> f64 {
    assert!(!xs.is_empty(), "percentile of no samples");
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = (q * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

/// Samples strictly above the nearest-rank `q` percentile.
pub fn beyond(n: usize, q: f64) -> usize {
    n - ((q * n as f64).ceil() as usize).clamp(1, n.max(1))
}

/// Geometric mean of positive ratios.
pub fn geo_mean(xs: &[f64]) -> f64 {
    assert!(!xs.is_empty(), "geometric mean of no samples");
    (xs.iter().map(|x| x.ln()).sum::<f64>() / xs.len() as f64).exp()
}

/// Restarts the peak resident set size from the current one, so that
/// `peak_rss_mb` reads the peak since this call. Where the kernel does
/// not allow it, `peak_rss_mb` keeps reading the peak since start.
pub fn reset_peak_rss() {
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}

/// Peak resident set size of this process in MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// Entries the reference workload hashes and sorts: a working set of a
/// few MiB, so it feels the cache and memory contention of a shared host
/// the way the reducer does.
const REF_N: usize = 200_000;
const REF_BUCKETS: usize = 65_521;

/// Times one run of the reference workload: a fixed hash-count, sort and
/// tree build over `REF_N` pseudo-random keys, on buffers kept between
/// calls so that no call allocates from the system.
///
/// The benchmark times it next to every measured unit of work and
/// reports that work in multiples of it, so that a slower or busier
/// host moves both alike. It uses nothing from the repository's crates,
/// so no change to them moves it.
pub fn reference_work() -> Duration {
    use std::cell::RefCell;
    use std::collections::{BTreeSet, HashMap};
    struct Buffers {
        keys: Vec<u64>,
        counts: HashMap<u64, u32>,
        tree: BTreeSet<u64>,
    }
    thread_local! {
        static BUF: RefCell<Buffers> = RefCell::new(Buffers {
            keys: Vec::with_capacity(REF_N),
            counts: HashMap::with_capacity(REF_BUCKETS),
            tree: BTreeSet::new(),
        });
    }
    BUF.with(|b| {
        let b = &mut *b.borrow_mut();
        let start = Instant::now();
        b.keys.clear();
        b.counts.clear();
        b.tree.clear();
        let mut x = 0u64;
        for _ in 0..REF_N {
            // SplitMix64.
            x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = x;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            let key = z ^ (z >> 31);
            b.keys.push(key);
            *b.counts.entry(key % REF_BUCKETS as u64).or_default() += 1;
        }
        b.keys.sort_unstable();
        for key in b.keys.iter().step_by(8) {
            b.tree.insert(key >> 7);
        }
        std::hint::black_box((b.tree.len(), b.counts.len()));
        start.elapsed()
    })
}

/// Runs the reference workload until its buffers have reached their
/// full size, so the first timed call is like every later one.
pub fn warm_reference() {
    for _ in 0..5 {
        reference_work();
    }
}
