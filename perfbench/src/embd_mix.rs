//! `embd_mixed`: an in-process `embd` server on loopback, driven as a
//! closed loop over two connections. The reader connection sends `MAP` for
//! warmed hot pairs (the paper's pairs, half of them refined to
//! table-backed plans); the writer connection sends `MAP`/`PLAN` for a
//! seeded stream of distinct cold pairs and, at a seeded cadence, refines a
//! hot pair through `PlanRegistry::refine`.
//!
//! A job serves a fixed request mix against a freshly warmed registry, so
//! every job does the same work. Its wall figure (`job_s`) is the two
//! connections' busy time added up; its CPU figure (`job_cpu_s`, the gated
//! one) is the CPU time of the whole job: both client connections, the
//! server's threads and the refines.

use std::collections::HashSet;
use std::io::Cursor;
use std::sync::Arc;
use std::time::Instant;

use embd::proto::{read_frame, write_frame, Request};
use embd::{Client, PlanRegistry};
use embeddings::plan::{format_grid_spec, Plan};
use explab::Family;
use topology::Grid;

use crate::checks::{check_map, check_plan_text};
use crate::trace::Tracer;
use crate::util::{median, median_time, quantile, secs, Cost, Lap, SeedStream, SetupTimer};
use crate::{repeat_for, Args, Outcome};

// The request mix below is an assumption, not a recorded trace: nothing
// in the repository records `embd` traffic. It is sized so each connection
// is busy for about half of the job on a 2-core host, so a 2× slowdown of
// either the hot read path or the writer's path (misses, PLAN texts,
// refines) moves the job by about 50%; refines take about half the
// writer's time.
/// Reader `MAP`s per job.
const READER_MAPS: usize = 4_000;
/// Writer requests per job, each naming a distinct cold pair.
const COLD_REQUESTS: usize = 1_000;
/// Writer requests per refine.
const REFINE_PERIOD: usize = 25;
/// One cold request in this many is a `PLAN`, the rest `MAP`s.
const PLAN_PERIOD: u64 = 4;
/// Annealing steps per refine.
const REFINE_STEPS: u64 = 300;
/// One client request in this many gets a span in a traced run.
const SPAN_SAMPLE: usize = 16;
/// Requests per timed batch in the in-process handler probes.
const PROBE_BATCH: usize = 4096;

struct HotPair {
    guest: Grid,
    host: Grid,
    closed_plan: Plan,
    closed: Vec<u64>,
    /// The refined plan and its table, for pairs that get refined.
    refined: Option<(Plan, Vec<u64>)>,
    refine_seed: u64,
}

impl HotPair {
    fn allowed(&self, v: u64) -> Vec<u64> {
        let mut images = vec![self.closed[v as usize]];
        images.extend(self.refined.as_ref().map(|(_, table)| table[v as usize]));
        images
    }

    fn warm_plan(&self) -> Plan {
        self.refined
            .as_ref()
            .map_or(&self.closed_plan, |(plan, _)| plan)
            .clone()
    }
}

/// A writer request: `MAP` of node `v` (with its closed-form image) or, for
/// `None`, `PLAN`.
struct ColdRequest {
    guest: Grid,
    host: Grid,
    map: Option<(u64, u64)>,
}

struct Inputs {
    hot: Vec<HotPair>,
    reads: Vec<(usize, u64)>,
    cold: Vec<ColdRequest>,
    /// Writer request indices a refine precedes, ascending.
    refine_at: Vec<usize>,
    refine_targets: Vec<usize>,
}

fn set_up(seed: u64) -> Result<Inputs, String> {
    let mut draw = SeedStream::new(seed, 10);
    let mut hot = Vec::new();
    for (guest, host) in Family::Paper.pairs(0) {
        let Ok(closed_plan) = Plan::closed_form(&guest, &host) else {
            continue;
        };
        let closed = closed_plan
            .to_embedding()
            .and_then(|e| e.to_table().map_err(Into::into))
            .map_err(|e| e.to_string())?;
        hot.push(HotPair {
            guest,
            host,
            closed_plan,
            closed,
            refined: None,
            refine_seed: draw.next_u64(),
        });
    }
    if hot.len() < 2 {
        return Err("fewer than two paper pairs plan".into());
    }
    // Every other paper pair is refined to a table-backed plan; the images
    // they refine to are computed here once.
    let refine_targets: Vec<usize> = (1..hot.len()).step_by(2).collect();
    let refiner = PlanRegistry::new();
    for &index in &refine_targets {
        let pair = &mut hot[index];
        refiner
            .insert(pair.closed_plan.clone())
            .map_err(|e| e.to_string())?;
        let entry = refiner
            .refine(&pair.guest, &pair.host, REFINE_STEPS, pair.refine_seed)
            .map_err(|e| e.to_string())?;
        let table = entry.embedding.to_table().map_err(|e| e.to_string())?;
        pair.refined = Some((entry.plan.clone(), table));
    }
    let reads = (0..READER_MAPS)
        .map(|_| {
            let p = draw.below(hot.len() as u64) as usize;
            (p, draw.below(hot[p].guest.size()))
        })
        .collect();

    // Distinct cold pairs from the sweep lab's family generators.
    let hot_keys: HashSet<(Grid, Grid)> = hot
        .iter()
        .map(|h| (h.guest.clone(), h.host.clone()))
        .collect();
    let families = [
        Family::TorusToMesh {
            max_size: 64,
            max_dim: 3,
        },
        Family::RingInto {
            max_size: 64,
            max_dim: 3,
        },
        Family::SameShape {
            max_size: 64,
            max_dim: 3,
        },
        Family::Random {
            count: 1024,
            max_size: 96,
            max_dim: 3,
        },
    ];
    let mut seen = HashSet::new();
    let mut candidates = Vec::new();
    for family in &families {
        for (guest, host) in family.pairs(draw.next_u64()) {
            let key = (guest.clone(), host.clone());
            if !hot_keys.contains(&key) && seen.insert(key) {
                candidates.push((guest, host));
            }
        }
    }
    for i in 0..candidates.len() {
        let j = i + draw.below((candidates.len() - i) as u64) as usize;
        candidates.swap(i, j);
    }
    let mut cold = Vec::with_capacity(COLD_REQUESTS);
    for (guest, host) in candidates {
        if cold.len() == COLD_REQUESTS {
            break;
        }
        let Ok(plan) = Plan::closed_form(&guest, &host) else {
            continue;
        };
        let map = if draw.below(PLAN_PERIOD) == 0 {
            None
        } else {
            let v = draw.below(guest.size());
            let image = plan.to_embedding().map_err(|e| e.to_string())?.map_index(v);
            Some((v, image))
        };
        cold.push(ColdRequest { guest, host, map });
    }
    if cold.len() < COLD_REQUESTS {
        return Err(format!("only {} distinct cold pairs plan", cold.len()));
    }
    Ok(Inputs {
        hot,
        reads,
        cold,
        // One refine per REFINE_PERIOD writer requests, at a seeded offset
        // within each period; the targets cycle in a seeded order.
        refine_at: (0..COLD_REQUESTS / REFINE_PERIOD)
            .map(|k| k * REFINE_PERIOD + draw.below(REFINE_PERIOD as u64) as usize)
            .collect(),
        refine_targets: {
            let mut order = refine_targets;
            for i in 0..order.len() {
                let j = i + draw.below((order.len() - i) as u64) as usize;
                order.swap(i, j);
            }
            order
        },
    })
}

/// What one job measured.
#[derive(Default)]
struct JobResult {
    reader_wall: f64,
    writer_wall: f64,
    map_rtts_us: Vec<f64>,
    cold_rtts_us: Vec<f64>,
    refine_s: Vec<f64>,
    checks: Vec<Result<(), String>>,
    hits: u64,
    misses: u64,
    plans: u64,
}

fn reader(
    inputs: &Inputs,
    addr: std::net::SocketAddr,
    tracer: &Tracer,
    job: u64,
) -> Result<JobResult, String> {
    let mut client = Client::connect(addr).map_err(|e| e.to_string())?;
    let mut result = JobResult::default();
    result.map_rtts_us.reserve(inputs.reads.len());
    let start = Instant::now();
    for (i, &(p, v)) in inputs.reads.iter().enumerate() {
        let pair = &inputs.hot[p];
        let t = Instant::now();
        let answer = if i % SPAN_SAMPLE == 0 {
            tracer.span("embd.client.map", job, tracer.fresh_id(), |_| {
                client.map(&pair.guest, &pair.host, v)
            })
        } else {
            client.map(&pair.guest, &pair.host, v)
        };
        result.map_rtts_us.push(secs(t) * 1e6);
        result.checks.push(match answer {
            Ok(image) => check_map(image, &pair.allowed(v)),
            Err(e) => Err(format!("MAP failed: {e}")),
        });
    }
    result.reader_wall = secs(start);
    Ok(result)
}

fn writer(
    inputs: &Inputs,
    registry: &PlanRegistry,
    addr: std::net::SocketAddr,
    tracer: &Tracer,
    job: u64,
) -> Result<JobResult, String> {
    let mut client = Client::connect(addr).map_err(|e| e.to_string())?;
    let mut result = JobResult::default();
    let mut next_target = 0;
    let start = Instant::now();
    for (i, request) in inputs.cold.iter().enumerate() {
        if inputs.refine_at.binary_search(&i).is_ok() {
            let pair =
                &inputs.hot[inputs.refine_targets[next_target % inputs.refine_targets.len()]];
            next_target += 1;
            let t = Instant::now();
            let refined = tracer.span("embd.registry.refine", job, tracer.fresh_id(), |_| {
                registry.insert(pair.closed_plan.clone())?;
                registry.refine(&pair.guest, &pair.host, REFINE_STEPS, pair.refine_seed)
            });
            result.refine_s.push(secs(t));
            let expected = pair.refined.as_ref().map(|(_, table)| table);
            result
                .checks
                .push(match refined.map(|entry| entry.embedding.to_table()) {
                    Ok(Ok(table)) if Some(&table) == expected => Ok(()),
                    Ok(_) => Err("refine produced a table other than the set-up's".into()),
                    Err(e) => Err(format!("refine failed: {e}")),
                });
        }
        let t = Instant::now();
        let traced = |name, f: &mut dyn FnMut() -> Result<(), String>| {
            if i % SPAN_SAMPLE == 0 {
                tracer.span(name, job, tracer.fresh_id(), |_| f())
            } else {
                f()
            }
        };
        let check = match request.map {
            Some((v, image)) => traced("embd.client.map_cold", &mut || match client.map(
                &request.guest,
                &request.host,
                v,
            ) {
                Ok(answer) => check_map(answer, &[image]),
                Err(e) => Err(format!("cold MAP failed: {e}")),
            }),
            None => traced("embd.client.plan_cold", &mut || {
                let line = format!(
                    "PLAN {} {}",
                    format_grid_spec(&request.guest),
                    format_grid_spec(&request.host)
                );
                match client.round_trip(&line) {
                    Ok(text) => check_plan_text(&text, &request.guest, &request.host),
                    Err(e) => Err(format!("PLAN failed: {e}")),
                }
            }),
        };
        result.cold_rtts_us.push(secs(t) * 1e6);
        result.checks.push(check);
    }
    result.writer_wall = secs(start);
    Ok(result)
}

/// Serves the job's request mix from a freshly warmed registry.
fn job(inputs: &Inputs, tracer: &Tracer) -> Result<JobResult, String> {
    let registry = Arc::new(PlanRegistry::new());
    for pair in &inputs.hot {
        registry
            .insert(pair.warm_plan())
            .map_err(|e| e.to_string())?;
    }
    let server = embd::spawn("127.0.0.1:0", registry.clone()).map_err(|e| e.to_string())?;
    let addr = server.addr();
    let trace = tracer.fresh_id();
    let (read, write) = tracer.span("embd.job", 0, trace, |job| {
        std::thread::scope(|s| {
            let r = s.spawn(|| reader(inputs, addr, tracer, job));
            let w = s.spawn(|| writer(inputs, &registry, addr, tracer, job));
            (
                r.join().unwrap_or_else(|_| Err("reader panicked".into())),
                w.join().unwrap_or_else(|_| Err("writer panicked".into())),
            )
        })
    });
    let stats = Client::connect(addr)
        .and_then(|mut c| c.stats())
        .map_err(|e| e.to_string());
    server.shutdown();
    let (mut read, write) = (read?, write?);
    let stats = stats?;
    read.writer_wall = write.writer_wall;
    read.cold_rtts_us = write.cold_rtts_us;
    read.refine_s = write.refine_s;
    read.checks.extend(write.checks);
    read.hits = stats.hits;
    read.misses = stats.misses;
    read.plans = stats.plans;
    Ok(read)
}

pub fn run(args: &Args, tracer: &Tracer) -> Result<Outcome, String> {
    let mut outcome = Outcome::default();
    let mut setup = SetupTimer::new(1, || set_up(args.seed));
    let inputs = setup.warm()?;
    outcome.setup_s = setup.median();
    let refined = inputs.refine_targets.len();
    outcome.inputs = vec![
        ("hot_pairs", inputs.hot.len().to_string()),
        ("hot_refined_pairs", refined.to_string()),
        ("cold_pairs", inputs.cold.len().to_string()),
        (
            "cold_plan_requests",
            inputs
                .cold
                .iter()
                .filter(|c| c.map.is_none())
                .count()
                .to_string(),
        ),
        ("reader_maps_per_job", inputs.reads.len().to_string()),
        ("refines_per_job", inputs.refine_at.len().to_string()),
        ("refine_steps", REFINE_STEPS.to_string()),
        ("connections", "2".into()),
    ];

    if args.trace {
        traced(&inputs, tracer, &mut outcome)?;
        return Ok(outcome);
    }

    let mut results = Vec::new();
    let jobs = repeat_for(args.seconds, &mut setup, || {
        let lap = Lap::start();
        let result = job(&inputs, tracer)?;
        let cost = Cost {
            wall_s: result.reader_wall + result.writer_wall,
            cpu_s: lap.cost().cpu_s,
        };
        results.push(result);
        Ok::<_, String>(cost)
    })?;
    outcome.set_jobs(&jobs);
    outcome.setup_s = setup.median();
    let mut map_rtts = Vec::new();
    let mut cold_rtts = Vec::new();
    let mut qps = Vec::new();
    let reader_s: Vec<f64> = results.iter().map(|r| r.reader_wall).collect();
    let writer_s: Vec<f64> = results.iter().map(|r| r.writer_wall).collect();
    let refine_s: Vec<f64> = results.iter().map(|r| r.refine_s.iter().sum()).collect();
    let writer_share: Vec<f64> = results
        .iter()
        .map(|r| r.writer_wall / (r.reader_wall + r.writer_wall))
        .collect();
    outcome.figures.push(("reader_s", median(&reader_s), "s"));
    outcome.figures.push(("writer_s", median(&writer_s), "s"));
    outcome
        .figures
        .push(("writer_refine_s", median(&refine_s), "s"));
    outcome
        .figures
        .push(("writer_share", median(&writer_share), "ratio"));
    for result in results {
        qps.push(result.map_rtts_us.len() as f64 / result.reader_wall);
        map_rtts.extend(result.map_rtts_us);
        cold_rtts.extend(result.cold_rtts_us);
        for check in result.checks {
            outcome.record(check);
        }
    }
    outcome.figures.push(("map_qps", median(&qps), "1/s"));
    outcome
        .figures
        .push(("map_p50_us", quantile(&map_rtts, 0.5), "us"));
    outcome
        .figures
        .push(("map_p99_us", quantile(&map_rtts, 0.99), "us"));
    outcome
        .figures
        .push(("cold_p50_us", quantile(&cold_rtts, 0.5), "us"));
    outcome
        .figures
        .push(("map_samples", map_rtts.len() as f64, "count"));
    outcome.figures.push(("jobs", jobs.len() as f64, "count"));
    Ok(outcome)
}

/// Per-request cost of `op` over `items`, in µs: the median of several
/// timed passes divided by the pass length.
fn per_op_us<T>(items: &[T], mut op: impl FnMut(&T) -> u64) -> f64 {
    let (pass_s, _) = median_time(5, || {
        items.iter().map(&mut op).fold(0u64, u64::wrapping_add)
    });
    pass_s / items.len().max(1) as f64 * 1e6
}

/// The traced run: one job with spans, one without (tracing overhead), then
/// in-process probes of each handler layer the round trip passes through.
fn traced(inputs: &Inputs, tracer: &Tracer, outcome: &mut Outcome) -> Result<(), String> {
    job(inputs, &Tracer::new(false))?; // warm-up
    let traced_job = job(inputs, tracer)?;
    let untraced_job = job(inputs, &Tracer::new(false))?;
    let traced_s = traced_job.reader_wall + traced_job.writer_wall;
    let untraced_s = untraced_job.reader_wall + untraced_job.writer_wall;
    for check in traced_job.checks.iter().chain(&untraced_job.checks) {
        outcome.record(check.clone());
    }

    let sample = &inputs.reads[..PROBE_BATCH.min(inputs.reads.len())];
    let lines: Vec<String> = sample
        .iter()
        .map(|&(p, v)| {
            Request::Map {
                v,
                guest: inputs.hot[p].guest.clone(),
                host: inputs.hot[p].host.clone(),
            }
            .to_line()
        })
        .collect();
    let root = tracer.fresh_id();
    let parse_us = tracer.span("embd.proto.parse_probe", 0, root, |_| {
        per_op_us(&lines, |line| u64::from(Request::parse(line).is_ok()))
    });
    let mut buffer = Vec::with_capacity(256);
    let frame_us = tracer.span("embd.proto.frame_probe", 0, root, |_| {
        per_op_us(&lines, |line| {
            buffer.clear();
            write_frame(&mut buffer, line).expect("in-memory write");
            read_frame(&mut Cursor::new(&buffer))
                .ok()
                .flatten()
                .map_or(0, |s| s.len() as u64)
        })
    });
    let registry = PlanRegistry::new();
    for pair in &inputs.hot {
        registry
            .insert(pair.warm_plan())
            .map_err(|e| e.to_string())?;
    }
    let hit_us = tracer.span("embd.registry.hit_probe", 0, root, |_| {
        per_op_us(sample, |&(p, _)| {
            u64::from(
                registry
                    .get_or_build(&inputs.hot[p].guest, &inputs.hot[p].host)
                    .is_ok(),
            )
        })
    });
    let entries: Vec<_> = inputs
        .hot
        .iter()
        .map(|pair| {
            registry
                .get_or_build(&pair.guest, &pair.host)
                .expect("warmed")
        })
        .collect();
    let map_us = tracer.span("embd.map_index_probe", 0, root, |_| {
        per_op_us(sample, |&(p, v)| {
            entries[p].embedding.try_map_index(v).unwrap_or(0)
        })
    });
    let misses = PlanRegistry::new();
    let miss_samples: Vec<f64> = tracer.span("embd.registry.miss_probe", 0, root, |_| {
        inputs
            .cold
            .iter()
            .map(|c| {
                let t = Instant::now();
                std::hint::black_box(misses.get_or_build(&c.guest, &c.host).is_ok());
                secs(t) * 1e6
            })
            .collect()
    });

    let rtt_us = quantile(&traced_job.map_rtts_us, 0.5);
    // A MAP round trip: two frame write+reads (request and reply), one
    // parse, one registry hit and one image lookup in process; the rest is
    // the wire and scheduling.
    let handlers_us = parse_us + 2.0 * frame_us + hit_us + map_us;
    outcome.layer("embd.parse_us", parse_us);
    outcome.layer("embd.frame_us", frame_us);
    outcome.layer("embd.registry_hit_us", hit_us);
    outcome.layer("embd.map_index_us", map_us);
    outcome.layer("embd.registry_miss_us", median(&miss_samples));
    outcome.layer("embd.wire_us", rtt_us - handlers_us);
    outcome.layer("embd.refine_s", median(&traced_job.refine_s));
    outcome.layer(
        "embd.hit_ratio",
        traced_job.hits as f64 / (traced_job.hits + traced_job.misses).max(1) as f64,
    );
    outcome.layer("embd.plans", traced_job.plans as f64);
    outcome.figures.push(("traced_job_s", traced_s, "s"));
    outcome.layer("trace.overhead_frac", traced_s / untraced_s - 1.0);
    outcome.layer("trace.layer_sum_frac", handlers_us / rtt_us);
    outcome.figures.push(("map_p50_us", rtt_us, "us"));
    outcome
        .figures
        .push(("cold_p50_us", quantile(&traced_job.cold_rtts_us, 0.5), "us"));
    Ok(())
}
