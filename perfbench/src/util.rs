//! Small shared pieces: order statistics, wall and CPU stopwatches, a
//! seeded generator, the process's peak memory and the host record every
//! output carries.

use std::time::Instant;

use explab::json::escape;

/// The median of `values` (mean of the middle two for even counts); `0` for
/// an empty slice.
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// The `q`-quantile of `values` by linear interpolation between order
/// statistics; `0` for an empty slice.
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

/// Seconds elapsed since `start`.
pub fn secs(start: Instant) -> f64 {
    start.elapsed().as_secs_f64()
}

/// Runs `f` `times` times and returns the median wall time in seconds with
/// the last result.
pub fn median_time<R>(times: usize, mut f: impl FnMut() -> R) -> (f64, R) {
    let mut samples = Vec::with_capacity(times);
    let mut last = None;
    for _ in 0..times.max(1) {
        let start = Instant::now();
        last = Some(std::hint::black_box(f()));
        samples.push(secs(start));
    }
    (median(&samples), last.expect("at least one repetition"))
}

/// CPU time used so far by every thread of the process, running or ended,
/// in seconds (`CLOCK_PROCESS_CPUTIME_ID`). Time the process spends waiting
/// for a core, in this system or in the hypervisor (steal), is not counted.
pub fn process_cpu_s() -> f64 {
    use std::os::raw::{c_int, c_long};
    #[repr(C)]
    struct Timespec {
        tv_sec: c_long,
        tv_nsec: c_long,
    }
    extern "C" {
        fn clock_gettime(clock: c_int, tp: *mut Timespec) -> c_int;
    }
    const CLOCK_PROCESS_CPUTIME_ID: c_int = 2;
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a valid, writable timespec for the whole call.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_PROCESS_CPUTIME_ID) failed");
    ts.tv_sec as f64 + ts.tv_nsec as f64 * 1e-9
}

/// What a stretch of work cost: its wall time and the CPU time every
/// thread of the process spent in it, in seconds.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct Cost {
    pub wall_s: f64,
    pub cpu_s: f64,
}

impl std::ops::AddAssign for Cost {
    fn add_assign(&mut self, other: Cost) {
        self.wall_s += other.wall_s;
        self.cpu_s += other.cpu_s;
    }
}

/// A stopwatch over wall time and the process's CPU time.
pub struct Lap {
    wall: Instant,
    cpu_s: f64,
}

impl Lap {
    pub fn start() -> Lap {
        Lap {
            wall: Instant::now(),
            cpu_s: process_cpu_s(),
        }
    }

    /// The cost since `start`.
    pub fn cost(&self) -> Cost {
        Cost {
            wall_s: secs(self.wall),
            cpu_s: process_cpu_s() - self.cpu_s,
        }
    }
}

/// Set-up batches timed before the first job: at least this many, and for
/// at least `SETUP_SECONDS`.
const SETUP_BATCHES: usize = 5;
const SETUP_SECONDS: f64 = 0.25;
/// Set-up time after each job, as a share of the job's wall time.
pub const SETUP_SHARE: f64 = 0.05;

/// Times a workload's set-up as the median over batches of the mean CPU
/// time of `per_batch` back-to-back set-ups. A few batches run before the
/// first job (`warm`) and the rest after each job, for a fixed share of
/// its wall time (`repeat_for`), so the batches sample the host evenly over
/// the whole run, as the jobs do; the host's speed drifts over seconds.
/// CPU time, not wall time, so that a set-up preempted by another process
/// or by the hypervisor does not read slower.
pub struct SetupTimer<F> {
    set_up: F,
    per_batch: usize,
    samples: Vec<f64>,
}

impl<R, F: FnMut() -> Result<R, String>> SetupTimer<F> {
    pub fn new(per_batch: usize, set_up: F) -> Self {
        SetupTimer {
            set_up,
            per_batch: per_batch.max(1),
            samples: Vec::new(),
        }
    }

    /// Times one batch and returns the last set-up's result.
    pub fn batch(&mut self) -> Result<R, String> {
        let lap = Lap::start();
        let mut last = (self.set_up)()?;
        for _ in 1..self.per_batch {
            last = (self.set_up)()?;
        }
        self.samples.push(lap.cost().cpu_s / self.per_batch as f64);
        Ok(last)
    }

    /// Times batches for at least `seconds` of wall time, at least one.
    pub fn batches_for(&mut self, seconds: f64) -> Result<(), String> {
        let start = Instant::now();
        loop {
            self.batch()?;
            if secs(start) >= seconds {
                return Ok(());
            }
        }
    }

    /// The batches before the first job; returns the last set-up's result.
    pub fn warm(&mut self) -> Result<R, String> {
        let start = Instant::now();
        loop {
            let last = self.batch()?;
            if self.samples.len() >= SETUP_BATCHES && secs(start) >= SETUP_SECONDS {
                return Ok(last);
            }
        }
    }

    /// The median time of one set-up.
    pub fn median(&self) -> f64 {
        median(&self.samples)
    }
}

/// A SplitMix64 stream: the benchmark derives every seeded input from the
/// `--seed` argument through it, so one seed always gives the same inputs.
#[derive(Clone, Debug)]
pub struct SeedStream(u64);

impl SeedStream {
    /// A stream for `seed`, decorrelated per purpose by `salt`.
    pub fn new(seed: u64, salt: u64) -> Self {
        SeedStream(topology::parallel::splitmix64(
            seed ^ salt.wrapping_mul(0x9e37_79b9_7f4a_7c15),
        ))
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        topology::parallel::splitmix64(self.0)
    }

    /// A uniform value in `0..n` (`n > 0`).
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }
}

static FIRST_JOB_RSS_MB: std::sync::OnceLock<f64> = std::sync::OnceLock::new();

/// Records the peak resident set size once the first job has run; later
/// calls keep the first value.
pub fn note_first_job_rss() {
    let _ = FIRST_JOB_RSS_MB.set(peak_rss_mb());
}

/// The peak resident set size through set-up and the first job, so the
/// figure does not depend on how many jobs fit in the run; the current peak
/// when no job has finished.
pub fn job_peak_rss_mb() -> f64 {
    FIRST_JOB_RSS_MB.get().copied().unwrap_or_else(peak_rss_mb)
}

/// The process's peak resident set size in MB (`VmHWM`), or `0` where
/// `/proc` is unavailable.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
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
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// What the host and build look like: every output line set starts with it.
pub struct HostRecord {
    pub nproc: usize,
    pub cpu: String,
    pub rustc: &'static str,
    pub commit: String,
}

impl HostRecord {
    pub fn detect() -> Self {
        let cpu = std::fs::read_to_string("/proc/cpuinfo")
            .ok()
            .and_then(|info| {
                info.lines()
                    .find_map(|line| line.strip_prefix("model name"))
                    .map(|rest| rest.trim_start_matches([' ', '\t', ':']).trim().to_string())
            })
            .unwrap_or_else(|| "unknown".into());
        HostRecord {
            nproc: std::thread::available_parallelism().map_or(1, |n| n.get()),
            cpu,
            rustc: env!("PERFBENCH_RUSTC"),
            commit: git_commit().unwrap_or_else(|| "unknown (not a git checkout)".into()),
        }
    }

    pub fn to_json(&self) -> String {
        format!(
            "{{\"nproc\": {}, \"cpu\": {}, \"rustc\": {}, \"commit\": {}}}",
            self.nproc,
            escape(&self.cpu),
            escape(self.rustc),
            escape(&self.commit)
        )
    }
}

/// The checked-out commit, read from `.git` without running git.
fn git_commit() -> Option<String> {
    let head = std::fs::read_to_string(".git/HEAD").ok()?;
    let head = head.trim();
    match head.strip_prefix("ref: ") {
        None => Some(head.to_string()),
        Some(reference) => std::fs::read_to_string(format!(".git/{reference}"))
            .ok()
            .map(|id| id.trim().to_string())
            .or_else(|| {
                let packed = std::fs::read_to_string(".git/packed-refs").ok()?;
                packed.lines().find_map(|line| {
                    let (id, name) = line.split_once(' ')?;
                    (name == reference).then(|| id.to_string())
                })
            }),
    }
}

/// A JSON number with all its digits (non-finite values become `0`).
pub fn json_number(value: f64) -> String {
    if value.is_finite() {
        format!("{value}")
    } else {
        "0".into()
    }
}
