//! `measure_1m`: the (1024,1024)-torus → (32,32,32,32)-torus pair (2²⁰
//! nodes): `auto::embed`, then `verify` and `congestion` on two threads.

use std::time::Instant;

use embeddings::auto::{embed, predicted_dilation};
use embeddings::congestion::{congestion_parallel, congestion_sequential};
use embeddings::verify::{verify, verify_sequential};
use mixedradix::{DigitPlanes, RadixBase, LANES};
use topology::routing::for_each_hop;
use topology::{Coord, Grid, Shape};

use crate::checks::check_measurement;
use crate::trace::Tracer;
use crate::util::{median, median_time, secs, Cost, Lap, SetupTimer};
use crate::{repeat_for, Args, Outcome};

const THREADS: usize = 2;
/// Set-ups per timed batch.
const SETUPS_PER_BATCH: usize = 10000;
const PROBE_REPS: usize = 5;
/// Guest edges buffered (untimed) per timed routing batch.
const ROUTE_BATCH: usize = 4096;

struct Inputs {
    guest: Grid,
    host: Grid,
    predicted: u64,
}

fn set_up() -> Result<Inputs, String> {
    let guest = Grid::torus(Shape::new(vec![1024, 1024]).map_err(|e| e.to_string())?);
    let host = Grid::torus(Shape::new(vec![32, 32, 32, 32]).map_err(|e| e.to_string())?);
    let predicted = predicted_dilation(&guest, &host).map_err(|e| e.to_string())?;
    Ok(Inputs {
        guest,
        host,
        predicted,
    })
}

/// One job: embed, verify and congestion on two threads, with the checks.
/// Returns its cost (checks excluded) and the three phase wall times.
fn job(
    inputs: &Inputs,
    tracer: &Tracer,
    outcome: &mut Outcome,
) -> Result<(Cost, [f64; 3]), String> {
    let trace = tracer.fresh_id();
    let lap = Lap::start();
    let (embedding, verification, congestion, phases) =
        tracer.span("measure.job", 0, trace, |job| {
            let t = Instant::now();
            let embedding = tracer.span("embeddings.auto.embed", job, trace, |_| {
                embed(&inputs.guest, &inputs.host)
            });
            let embed_s = secs(t);
            let embedding = embedding.map_err(|e| e.to_string())?;
            let t = Instant::now();
            let verification = tracer.span("embeddings.verify", job, trace, |_| {
                verify(&embedding, THREADS)
            });
            let verify_s = secs(t);
            let t = Instant::now();
            let congestion = tracer.span("embeddings.congestion", job, trace, |_| {
                congestion_parallel(&embedding, THREADS)
            });
            let congestion_s = secs(t);
            Ok::<_, String>((
                embedding,
                verification,
                congestion,
                [embed_s, verify_s, congestion_s],
            ))
        })?;
    let cost = lap.cost();
    let verification = verification.map_err(|e| e.to_string())?;
    let congestion = congestion.map_err(|e| e.to_string())?;
    outcome.record(check_measurement(
        verification.injective,
        verification.invalid_images,
        verification.dilation,
        inputs.predicted,
    ));
    outcome.record(
        if congestion.guest_edges == verification.edges && embedding.size() == inputs.guest.size() {
            Ok(())
        } else {
            Err(format!(
                "congestion routed {} edges, verify measured {}",
                congestion.guest_edges, verification.edges
            ))
        },
    );
    Ok((cost, phases))
}

pub fn run(args: &Args, tracer: &Tracer) -> Result<Outcome, String> {
    let mut outcome = Outcome::default();
    let mut setup = SetupTimer::new(SETUPS_PER_BATCH, set_up);
    let inputs = setup.warm()?;
    outcome.setup_s = setup.median();
    outcome.inputs = vec![
        (
            "pair",
            "\"(1024,1024)-torus -> (32,32,32,32)-torus\"".into(),
        ),
        ("nodes", inputs.guest.size().to_string()),
        ("guest_edges", inputs.guest.num_edges().to_string()),
        ("threads", THREADS.to_string()),
        ("predicted_dilation", inputs.predicted.to_string()),
    ];
    if args.trace {
        return traced(&inputs, tracer, outcome);
    }
    let mut phases = Vec::new();
    let jobs = repeat_for(args.seconds, &mut setup, || {
        let (cost, phase) = job(&inputs, tracer, &mut outcome)?;
        phases.push(phase);
        Ok::<_, String>(cost)
    })?;
    outcome.set_jobs(&jobs);
    outcome.setup_s = setup.median();
    outcome.figures.push(("measure_s", outcome.job_s, "s"));
    for (i, name) in ["embed_s", "verify_s", "congestion_s"]
        .into_iter()
        .enumerate()
    {
        let values: Vec<f64> = phases.iter().map(|p| p[i]).collect();
        outcome.figures.push((name, median(&values), "s"));
    }
    outcome.figures.push(("jobs", jobs.len() as f64, "count"));
    Ok(outcome)
}

/// The traced run: the job with spans, the job untraced (tracing overhead),
/// the sequential sweeps (pool speedup) and probes of the digit codec and
/// the routing kernel over the same inputs.
fn traced(inputs: &Inputs, tracer: &Tracer, mut outcome: Outcome) -> Result<Outcome, String> {
    let untraced = Tracer::new(false);
    job(inputs, &untraced, &mut outcome)?; // warm-up
    let mut traced_walls = Vec::new();
    let mut untraced_walls = Vec::new();
    let mut phase_samples = Vec::new();
    for _ in 0..PROBE_REPS {
        let (cost, phases) = job(inputs, tracer, &mut outcome)?;
        traced_walls.push(cost.wall_s);
        phase_samples.push(phases);
        untraced_walls.push(job(inputs, &untraced, &mut outcome)?.0.wall_s);
    }
    let phase = |i: usize| median(&phase_samples.iter().map(|p| p[i]).collect::<Vec<_>>());
    let edges = inputs.guest.num_edges() as f64;
    let traced_s = median(&traced_walls);
    outcome.layer("embeddings.embed_s", phase(0));
    outcome.layer("embeddings.verify_medges_per_s", edges / phase(1) * 1e-6);
    outcome.layer(
        "embeddings.congestion_medges_per_s",
        edges / phase(2) * 1e-6,
    );
    outcome.layer(
        "trace.overhead_frac",
        traced_s / median(&untraced_walls) - 1.0,
    );
    outcome.layer(
        "trace.layer_sum_frac",
        (phase(0) + phase(1) + phase(2)) / traced_s,
    );

    // Sequential against two-thread sweeps, with identical reports checked.
    let embedding = embed(&inputs.guest, &inputs.host).map_err(|e| e.to_string())?;
    let root = tracer.fresh_id();
    let (seq_s, (seq_v, seq_c)) = median_time(3, || {
        tracer.span("embeddings.sequential_sweeps", 0, root, |_| {
            (
                verify_sequential(&embedding),
                congestion_sequential(&embedding),
            )
        })
    });
    let (par_s, (par_v, par_c)) = median_time(3, || {
        tracer.span("embeddings.pool_sweeps", 0, root, |_| {
            (
                verify(&embedding, THREADS),
                congestion_parallel(&embedding, THREADS),
            )
        })
    });
    outcome.record(
        if par_v.as_ref().ok() == Some(&seq_v) && par_c.as_ref().ok() == seq_c.as_ref().ok() {
            Ok(())
        } else {
            Err("sequential and two-thread sweeps disagree".into())
        },
    );
    outcome.layer("topology.pool_speedup", seq_s / par_s);

    // The digit codec over the guest index space.
    let base =
        RadixBase::new(inputs.guest.shape().radices().to_vec()).map_err(|e| e.to_string())?;
    let mut planes = DigitPlanes::for_base(&base);
    let n = inputs.guest.size();
    let (decode_s, _) = median_time(PROBE_REPS, || {
        tracer.span("mixedradix.decode_range", 0, root, |_| {
            let mut acc = 0u64;
            let mut start = 0u64;
            while start < n {
                let count = (n - start).min(LANES as u64) as usize;
                planes
                    .decode_range(&base, start, count)
                    .expect("range inside the index space");
                acc = acc.wrapping_add(u64::from(planes.plane(0)[count - 1]));
                start += count as u64;
            }
            acc
        })
    });
    outcome.layer(
        "mixedradix.decode_range_melem_per_s",
        n as f64 / decode_s * 1e-6,
    );

    // The routing kernel over every guest edge's image pair; coordinates
    // are decoded outside the timed batches.
    let table = embedding.to_table().map_err(|e| e.to_string())?;
    let host = &inputs.host;
    let dims: Vec<usize> = (0..host.dim()).collect();
    let (mut hops, mut routed_s) = (0u64, 0.0f64);
    tracer.span("topology.for_each_hop", 0, root, |_| {
        let mut batch: Vec<(Coord, u64, Coord)> = Vec::with_capacity(ROUTE_BATCH);
        let mut edges = inputs.guest.edges().peekable();
        while edges.peek().is_some() {
            batch.clear();
            for (tail, head) in edges.by_ref().take(ROUTE_BATCH) {
                let (from, to) = (table[tail as usize], table[head as usize]);
                batch.push((
                    host.coord(from).expect("node"),
                    from,
                    host.coord(to).expect("node"),
                ));
            }
            let start = Instant::now();
            for (a, from, b) in &batch {
                for_each_hop(host, a, *from, b, &dims, |_, _, _| hops += 1);
            }
            routed_s += secs(start);
        }
    });
    outcome.layer(
        "topology.for_each_hop_mhops_per_s",
        hops as f64 / routed_s * 1e-6,
    );
    outcome.figures.push(("measure_s", traced_s, "s"));
    outcome.figures.push(("routed_hops", hops as f64, "count"));
    Ok(outcome)
}
