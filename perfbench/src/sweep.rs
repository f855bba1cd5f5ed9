//! `sweep_report`: the built-in `report` plan through the sweep executor on
//! two workers, then JSONL and the EXPERIMENTS.md render — the job that
//! regenerates EXPERIMENTS.md.

use std::time::Instant;

use explab::executor::{expand, run as run_sweep};
use explab::prelude::{experiments_markdown, run_trial};
use explab::{SweepOutcome, SweepPlan};

use crate::checks::{check_report, check_sweep};
use crate::trace::Tracer;
use crate::util::{median_time, secs, Cost, Lap, SetupTimer};
use crate::{repeat_for, Args, Outcome};

/// The seed that keeps the plan's own seed, so the render must equal the
/// checked-in EXPERIMENTS.md byte for byte. Any other `--seed` replaces the
/// plan seed, and the check falls back to zero bound violations plus the
/// expected record count.
pub const DEFAULT_SEED: u64 = 1987;
/// The note `lab report` embeds in EXPERIMENTS.md.
const NOTE: &str = "identical records with 1 and 4 workers";
const WORKERS: usize = 2;
/// Set-ups per timed batch.
const SETUPS_PER_BATCH: usize = 60;
const SMALL_REPS: usize = 5;

struct Inputs {
    plan: SweepPlan,
    trials: usize,
    checked_in: Option<String>,
}

fn set_up(seed: u64) -> Result<Inputs, String> {
    let mut plan = SweepPlan::builtin("report").map_err(|e| e.to_string())?;
    if seed != DEFAULT_SEED {
        plan.seed = seed;
    }
    let trials = expand(&plan).len();
    let checked_in = if seed == DEFAULT_SEED {
        Some(
            std::fs::read_to_string("EXPERIMENTS.md")
                .map_err(|e| format!("cannot read EXPERIMENTS.md: {e}"))?,
        )
    } else {
        None
    };
    Ok(Inputs {
        plan,
        trials,
        checked_in,
    })
}

/// One job: executor run, JSONL, render, checks. Returns its cost (checks
/// excluded) and the sweep.
fn job(inputs: &Inputs, tracer: &Tracer, outcome: &mut Outcome) -> (Cost, SweepOutcome) {
    let trace = tracer.fresh_id();
    let lap = Lap::start();
    let (sweep, document) = tracer.span("sweep.job", 0, trace, |job| {
        let sweep = tracer.span("explab.executor.run", job, trace, |_| {
            run_sweep(&inputs.plan, WORKERS)
        });
        std::hint::black_box(tracer.span("explab.to_jsonl", job, trace, |_| sweep.to_jsonl()));
        let document = tracer.span("explab.experiments_markdown", job, trace, |_| {
            experiments_markdown(&sweep, NOTE)
        });
        (sweep, document)
    });
    let cost = lap.cost();
    let violations = sweep.bound_violations().len();
    for record in &sweep.records {
        outcome.record(if record.bound_ok() {
            Ok(())
        } else {
            Err(format!(
                "trial {} ({} -> {}) violates a bound",
                record.id, record.guest, record.host
            ))
        });
    }
    let mut sweep_check = check_sweep(sweep.records.len(), inputs.trials, violations);
    if let (Ok(()), Some(checked_in)) = (&sweep_check, &inputs.checked_in) {
        sweep_check = check_report(&document, checked_in);
    }
    outcome.record(sweep_check);
    (cost, sweep)
}

pub fn run(args: &Args, tracer: &Tracer) -> Result<Outcome, String> {
    let mut outcome = Outcome::default();
    let mut setup = SetupTimer::new(SETUPS_PER_BATCH, || set_up(args.seed));
    let inputs = setup.warm()?;
    outcome.setup_s = setup.median();
    outcome.inputs = vec![
        ("plan", format!("\"report (seed {})\"", inputs.plan.seed)),
        ("trials", inputs.trials.to_string()),
        ("workers", WORKERS.to_string()),
        (
            "report_check",
            format!(
                "\"{}\"",
                if inputs.checked_in.is_some() {
                    "byte-for-byte"
                } else {
                    "violations+count"
                }
            ),
        ),
    ];

    if !args.trace {
        let jobs = repeat_for(args.seconds, &mut setup, || {
            Ok::<_, String>(job(&inputs, tracer, &mut outcome).0)
        })?;
        outcome.set_jobs(&jobs);
        outcome.setup_s = setup.median();
        outcome.figures.push(("sweep_s", outcome.job_s, "s"));
        outcome.figures.push(("sweeps", jobs.len() as f64, "count"));
        return Ok(outcome);
    }

    traced(&inputs, tracer, &mut outcome);
    Ok(outcome)
}

/// The traced run: per-trial CPU on one thread, the executor on two
/// workers, the JSONL and render on their own, and one-worker executor runs
/// with all but one stage's plan field cleared.
fn traced(inputs: &Inputs, tracer: &Tracer, outcome: &mut Outcome) {
    let root = tracer.fresh_id();
    let (expand_s, specs) = median_time(SMALL_REPS, || {
        tracer.span("explab.expand", 0, root, |_| expand(&inputs.plan))
    });
    outcome.layer("explab.expand_s", expand_s);

    // Σ run_trial on one thread: the sweep's CPU work, trial by trial.
    let mut trial_cpu = 0.0f64;
    let mut slowest = 0.0f64;
    let mut sequential = Vec::with_capacity(specs.len());
    for spec in &specs {
        let start = Instant::now();
        sequential.push(tracer.span("explab.run_trial", 0, root, |_| run_trial(spec)));
        let t = secs(start);
        trial_cpu += t;
        slowest = slowest.max(t);
    }
    outcome.layer("explab.trial_cpu_s", trial_cpu);
    outcome.layer("explab.slowest_trial_s", slowest);

    // The traced job, then an untraced one for the tracing overhead.
    let traced_wall = job(inputs, tracer, outcome).0.wall_s;
    let exec_wall = tracer.total_secs("explab.executor.run");
    let untraced = Tracer::new(false);
    let (untraced, sweep) = job(inputs, &untraced, outcome);
    let untraced_wall = untraced.wall_s;
    outcome.layer(
        "explab.worker_idle_frac",
        1.0 - trial_cpu / (WORKERS as f64 * exec_wall),
    );
    outcome.layer("trace.overhead_frac", traced_wall / untraced_wall - 1.0);

    outcome.record(if sweep.records == sequential {
        Ok(())
    } else {
        Err("records differ between the executor and one thread".into())
    });
    let (jsonl_s, _) = median_time(SMALL_REPS, || {
        tracer.span("explab.to_jsonl", 0, root, |_| sweep.to_jsonl())
    });
    let (render_s, _) = median_time(SMALL_REPS, || {
        tracer.span("explab.experiments_markdown", 0, root, |_| {
            experiments_markdown(&sweep, NOTE)
        })
    });
    outcome.layer("explab.jsonl_s", jsonl_s);
    outcome.layer("explab.report_render_s", render_s);

    // Stage costs: a one-worker executor run with only that stage's plan
    // field kept, minus the run with all three cleared (the base).
    let stage_run = |name: &'static str, optimize: bool, wirelength: bool, chaos: bool| {
        let mut plan = inputs.plan.clone();
        if !optimize {
            plan.optimize = None;
        }
        if !wirelength {
            plan.wirelength = None;
        }
        if !chaos {
            plan.chaos = None;
        }
        let start = Instant::now();
        tracer.span(name, 0, root, |_| run_sweep(&plan, 1));
        secs(start)
    };
    let base = stage_run("explab.executor.run_base", false, false, false);
    let optimize = stage_run("explab.executor.run_optimize_only", true, false, false);
    let wirelength = stage_run("explab.executor.run_wirelength_only", false, true, false);
    let chaos = stage_run("explab.executor.run_chaos_only", false, false, true);
    let stages = [
        ("explab.stage_base_s", base),
        ("explab.stage_optimize_s", optimize - base),
        ("explab.stage_wirelength_s", wirelength - base),
        ("explab.stage_chaos_s", chaos - base),
    ];
    let stage_sum: f64 = stages.iter().map(|(_, v)| v).sum();
    for (name, value) in stages {
        outcome.layer(name, value);
    }
    // How much of Σ run_trial the stage costs account for.
    outcome.layer("trace.layer_sum_frac", stage_sum / trial_cpu);
    outcome.figures.push(("sweep_s", traced_wall, "s"));
    outcome
        .figures
        .push(("untraced_sweep_s", untraced_wall, "s"));
    outcome.figures.push((
        "job_layer_share",
        (exec_wall + jsonl_s + render_s) / traced_wall,
        "ratio",
    ));
}
