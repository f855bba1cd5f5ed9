//! In-memory spans around the calls the benchmark makes into each layer,
//! plus the timing wrapper that attributes an annealing walk's time to the
//! objective it drives.
//!
//! Spans are recorded only in a traced run (`--trace 1`); an untraced
//! [`Tracer`] runs the wrapped closure and records nothing. Spans are kept in
//! memory and written out as JSON lines when the run ends.

use std::io::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use embeddings::optim::{Cost, Objective};

/// One recorded span: a named interval, the span that caused it (`0` = a
/// root) and the trace (one job or request) it belongs to.
#[derive(Clone, Debug)]
pub struct Span {
    pub id: u64,
    pub parent: u64,
    pub trace: u64,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn secs(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 * 1e-9
    }
}

/// Where spans go. Shared by reference across the benchmark's threads.
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    next_id: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Self {
        Tracer {
            enabled,
            epoch: Instant::now(),
            next_id: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
        }
    }

    /// A fresh identifier for a span or a trace (never `0`).
    pub fn fresh_id(&self) -> u64 {
        self.next_id.fetch_add(1, Ordering::Relaxed)
    }

    /// Runs `f` inside a span named `name`. `f` receives the span's id so
    /// that calls it makes can name it as their parent. Untraced, `f` runs
    /// with id `0` and nothing is recorded.
    pub fn span<R>(
        &self,
        name: &'static str,
        parent: u64,
        trace: u64,
        f: impl FnOnce(u64) -> R,
    ) -> R {
        if !self.enabled {
            return f(0);
        }
        let id = self.fresh_id();
        let start = self.epoch.elapsed().as_nanos() as u64;
        let result = f(id);
        let end = self.epoch.elapsed().as_nanos() as u64;
        self.spans.lock().expect("span buffer lock").push(Span {
            id,
            parent,
            trace,
            name,
            start_ns: start,
            end_ns: end,
        });
        result
    }

    /// A copy of every span recorded so far.
    pub fn spans(&self) -> Vec<Span> {
        self.spans.lock().expect("span buffer lock").clone()
    }

    /// Total seconds spent in spans named `name`.
    pub fn total_secs(&self, name: &str) -> f64 {
        self.spans
            .lock()
            .expect("span buffer lock")
            .iter()
            .filter(|s| s.name == name)
            .map(Span::secs)
            .sum()
    }

    /// Writes every span as one JSON line to `path`, creating its directory.
    pub fn write_jsonl(&self, path: &std::path::Path) -> std::io::Result<usize> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let spans = self.spans();
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in &spans {
            writeln!(
                out,
                "{{\"id\": {}, \"parent\": {}, \"trace\": {}, \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}}}",
                s.id, s.parent, s.trace, s.name, s.start_ns, s.end_ns
            )?;
        }
        out.flush()?;
        Ok(spans.len())
    }
}

/// Counters one annealing walk's objectives add into: time inside the
/// objective's updates (`delta`), time building it (factory + rebuilds),
/// and each shard's wall time from factory call to drop.
#[derive(Default)]
pub struct WalkTimes {
    pub delta_ns: AtomicU64,
    pub build_ns: AtomicU64,
    pub shard_walls: Mutex<Vec<f64>>,
}

impl WalkTimes {
    pub fn delta_s(&self) -> f64 {
        self.delta_ns.load(Ordering::Relaxed) as f64 * 1e-9
    }

    pub fn build_s(&self) -> f64 {
        self.build_ns.load(Ordering::Relaxed) as f64 * 1e-9
    }

    /// Slowest shard's wall over the mean shard wall.
    pub fn shard_skew(&self) -> f64 {
        let walls = self.shard_walls.lock().expect("shard wall lock");
        let mean = walls.iter().sum::<f64>() / walls.len().max(1) as f64;
        let max = walls.iter().copied().fold(0.0, f64::max);
        if mean > 0.0 {
            max / mean
        } else {
            0.0
        }
    }

    pub fn shard_wall_sum(&self) -> f64 {
        self.shard_walls
            .lock()
            .expect("shard wall lock")
            .iter()
            .sum()
    }
}

/// An [`Objective`] that times the objective it wraps. Built through
/// [`Timed::build`] so the factory's own cost counts as build time; its
/// counters are published to the shared [`WalkTimes`] when it is dropped,
/// which `optimize_sharded` does at the end of the shard's walk.
pub struct Timed<O> {
    inner: O,
    times: Arc<WalkTimes>,
    born: Instant,
    delta_ns: u64,
    build_ns: u64,
}

impl<O> Timed<O> {
    pub fn build<E>(
        times: &Arc<WalkTimes>,
        factory: impl FnOnce() -> Result<O, E>,
    ) -> Result<Self, E> {
        let born = Instant::now();
        let inner = factory()?;
        Ok(Timed {
            inner,
            times: times.clone(),
            born,
            delta_ns: 0,
            build_ns: born.elapsed().as_nanos() as u64,
        })
    }
}

impl<O> Drop for Timed<O> {
    fn drop(&mut self) {
        self.times
            .delta_ns
            .fetch_add(self.delta_ns, Ordering::Relaxed);
        self.times
            .build_ns
            .fetch_add(self.build_ns, Ordering::Relaxed);
        if let Ok(mut walls) = self.times.shard_walls.lock() {
            walls.push(self.born.elapsed().as_secs_f64());
        }
    }
}

impl<O: Objective> Objective for Timed<O> {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn rebuild(&mut self, table: &[u64]) -> Cost {
        let start = Instant::now();
        let cost = self.inner.rebuild(table);
        self.build_ns += start.elapsed().as_nanos() as u64;
        cost
    }

    fn apply_swap(&mut self, table: &[u64], a: u64, b: u64) -> Cost {
        let start = Instant::now();
        let cost = self.inner.apply_swap(table, a, b);
        self.delta_ns += start.elapsed().as_nanos() as u64;
        cost
    }

    fn apply_disjoint_swaps(&mut self, table: &mut [u64], swaps: &[(u64, u64)]) -> Cost {
        let start = Instant::now();
        let cost = self.inner.apply_disjoint_swaps(table, swaps);
        self.delta_ns += start.elapsed().as_nanos() as u64;
        cost
    }
}
