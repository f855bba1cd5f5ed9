//! `perfbench`: the repository's end-to-end benchmark.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Runs one workload from the root of a checkout, checks its outputs and
//! prints, as the last line of standard output, one JSON object with the
//! keys `correct`, `attempted`, `failed` and `metrics`. Untraced
//! (`--trace 0`) the metrics are the end-to-end ones; traced (`--trace 1`)
//! they are the per-layer ones, and the run's spans are written to
//! `perfbench/out/`. Lines before the last one record the host, the
//! workload's input descriptors and its named end-to-end figures. See
//! `perfbench/README.md` for what each workload and metric means.

mod anneal;
mod checks;
mod embd_mix;
mod measure;
mod sweep;
mod trace;
mod util;

use std::process::ExitCode;

use explab::json::escape;
use trace::Tracer;
use util::{json_number, HostRecord};

/// The workloads, in the order BENCHMARK.json lists them.
const WORKLOADS: [&str; 5] = [
    "sweep_report",
    "anneal_routes",
    "anneal_makespan",
    "measure_1m",
    "embd_mixed",
];

/// Every per-layer metric a traced run prints, with its unit. A metric of a
/// layer the workload does not run reads 0.
pub const LAYER_METRICS: [(&str, &str); 53] = [
    ("explab.expand_s", "s"),
    ("explab.trial_cpu_s", "s"),
    ("explab.worker_idle_frac", "ratio"),
    ("explab.slowest_trial_s", "s"),
    ("explab.stage_base_s", "s"),
    ("explab.stage_optimize_s", "s"),
    ("explab.stage_wirelength_s", "s"),
    ("explab.stage_chaos_s", "s"),
    ("explab.jsonl_s", "s"),
    ("explab.report_render_s", "s"),
    ("optim.congestion.driver_s", "s"),
    ("optim.congestion.accept_ratio", "ratio"),
    ("optim.congestion.shard_skew", "ratio"),
    ("optim.congestion.speedup_2w", "ratio"),
    ("optim.congestion.delta_s", "s"),
    ("optim.congestion.build_s", "s"),
    ("optim.wirelength.driver_s", "s"),
    ("optim.wirelength.accept_ratio", "ratio"),
    ("optim.wirelength.shard_skew", "ratio"),
    ("optim.wirelength.speedup_2w", "ratio"),
    ("optim.wirelength.delta_s", "s"),
    ("optim.wirelength.build_s", "s"),
    ("optim.makespan_dense.driver_s", "s"),
    ("optim.makespan_dense.accept_ratio", "ratio"),
    ("optim.makespan_dense.shard_skew", "ratio"),
    ("optim.makespan_dense.speedup_2w", "ratio"),
    ("optim.makespan_dense.delta_s", "s"),
    ("optim.makespan_dense.build_s", "s"),
    ("optim.makespan_sparse.driver_s", "s"),
    ("optim.makespan_sparse.accept_ratio", "ratio"),
    ("optim.makespan_sparse.shard_skew", "ratio"),
    ("optim.makespan_sparse.speedup_2w", "ratio"),
    ("optim.makespan_sparse.delta_s", "s"),
    ("optim.makespan_sparse.build_s", "s"),
    ("netsim.makespan_dense.components", "count"),
    ("netsim.makespan_sparse.components", "count"),
    ("embeddings.embed_s", "s"),
    ("embeddings.verify_medges_per_s", "Medges/s"),
    ("embeddings.congestion_medges_per_s", "Medges/s"),
    ("mixedradix.decode_range_melem_per_s", "Melem/s"),
    ("topology.for_each_hop_mhops_per_s", "Mhops/s"),
    ("topology.pool_speedup", "ratio"),
    ("embd.parse_us", "us"),
    ("embd.frame_us", "us"),
    ("embd.wire_us", "us"),
    ("embd.registry_hit_us", "us"),
    ("embd.map_index_us", "us"),
    ("embd.registry_miss_us", "us"),
    ("embd.refine_s", "s"),
    ("embd.hit_ratio", "ratio"),
    ("embd.plans", "count"),
    ("trace.overhead_frac", "ratio"),
    ("trace.layer_sum_frac", "ratio"),
];

/// The parsed command line.
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

impl Args {
    fn parse(argv: &[String]) -> Result<Args, String> {
        let mut workload = None;
        let mut seed = None;
        let mut seconds = None;
        let mut trace = None;
        let mut iter = argv.iter();
        while let Some(flag) = iter.next() {
            let value = iter.next().ok_or_else(|| format!("{flag} needs a value"))?;
            match flag.as_str() {
                "--workload" => workload = Some(value.clone()),
                "--seed" => {
                    seed = Some(
                        value
                            .parse::<u64>()
                            .map_err(|_| format!("bad --seed {value:?}"))?,
                    )
                }
                "--seconds" => {
                    let s = value
                        .parse::<f64>()
                        .map_err(|_| format!("bad --seconds {value:?}"))?;
                    if !(s > 0.0 && s <= 3600.0) {
                        return Err(format!("bad --seconds {value:?}"));
                    }
                    seconds = Some(s);
                }
                "--trace" => {
                    trace = Some(match value.as_str() {
                        "0" => false,
                        "1" => true,
                        _ => return Err(format!("bad --trace {value:?} (0 or 1)")),
                    })
                }
                _ => return Err(format!("unknown option {flag:?}")),
            }
        }
        let workload = workload.ok_or("--workload is required")?;
        if !WORKLOADS.contains(&workload.as_str()) {
            return Err(format!(
                "unknown workload {workload:?}; one of {WORKLOADS:?}"
            ));
        }
        Ok(Args {
            workload,
            seed: seed.unwrap_or(sweep::DEFAULT_SEED),
            seconds: seconds.unwrap_or(10.0),
            trace: trace.unwrap_or(false),
        })
    }
}

/// What one workload run produced.
#[derive(Default)]
pub struct Outcome {
    /// Operations attempted and failed (trials, walks, sweeps, requests).
    pub attempted: u64,
    pub failed: u64,
    /// The first few failure reasons.
    pub errors: Vec<String>,
    /// Median set-up time over several set-ups.
    pub setup_s: f64,
    /// Median wall time of one job (untraced runs).
    pub job_s: f64,
    /// Median CPU time of one job, summed over every thread of the process
    /// (untraced runs).
    pub job_cpu_s: f64,
    /// The workload's named end-to-end figures, with units.
    pub figures: Vec<(&'static str, f64, &'static str)>,
    /// Input descriptors.
    pub inputs: Vec<(&'static str, String)>,
    /// Per-layer metric values (traced runs).
    pub layers: Vec<(String, f64)>,
}

impl Outcome {
    /// Counts one attempted operation, failing it when `result` is an error.
    pub fn record(&mut self, result: Result<(), String>) {
        self.attempted += 1;
        if let Err(reason) = result {
            self.failed += 1;
            if self.errors.len() < 8 {
                self.errors.push(reason);
            }
        }
    }

    /// Sets the job figures from each job's cost.
    pub fn set_jobs(&mut self, jobs: &[util::Cost]) {
        let walls: Vec<f64> = jobs.iter().map(|c| c.wall_s).collect();
        let cpus: Vec<f64> = jobs.iter().map(|c| c.cpu_s).collect();
        self.job_s = util::median(&walls);
        self.job_cpu_s = util::median(&cpus);
    }

    pub fn layer(&mut self, name: impl Into<String>, value: f64) {
        let name = name.into();
        debug_assert!(
            LAYER_METRICS.iter().any(|(n, _)| *n == name),
            "unknown layer metric {name}"
        );
        self.layers.push((name, value));
    }
}

/// Runs `job` at least once, and again while another run is expected to
/// end within `seconds` of the first start, timing set-up batches after
/// each job for `SETUP_SHARE` of its wall time; returns each job's cost.
pub fn repeat_for<R, F: FnMut() -> Result<R, String>>(
    seconds: f64,
    setup: &mut util::SetupTimer<F>,
    mut job: impl FnMut() -> Result<util::Cost, String>,
) -> Result<Vec<util::Cost>, String> {
    let start = std::time::Instant::now();
    let mut costs = Vec::new();
    loop {
        let cost = job()?;
        costs.push(cost);
        util::note_first_job_rss();
        setup.batches_for(util::SETUP_SHARE * cost.wall_s)?;
        if util::secs(start) + cost.wall_s * (1.0 + util::SETUP_SHARE) > seconds {
            return Ok(costs);
        }
    }
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match Args::parse(&argv) {
        Ok(args) => args,
        Err(message) => {
            eprintln!("perfbench: {message}");
            eprintln!(
                "usage: perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
                WORKLOADS.join("|")
            );
            return ExitCode::from(2);
        }
    };
    let tracer = Tracer::new(args.trace);
    let result = match args.workload.as_str() {
        "sweep_report" => sweep::run(&args, &tracer),
        "anneal_routes" => anneal::run(&args, &tracer, anneal::Walks::Routes),
        "anneal_makespan" => anneal::run(&args, &tracer, anneal::Walks::Makespan),
        "measure_1m" => measure::run(&args, &tracer),
        "embd_mixed" => embd_mix::run(&args, &tracer),
        _ => unreachable!("workload names are validated"),
    };
    let outcome = match result {
        Ok(outcome) => outcome,
        Err(message) => {
            eprintln!("perfbench: {}: {message}", args.workload);
            return ExitCode::from(1);
        }
    };
    let host = HostRecord::detect();
    if args.trace {
        let path = std::path::PathBuf::from(format!(
            "perfbench/out/{}-seed{}.trace.jsonl",
            args.workload, args.seed
        ));
        match tracer.write_jsonl(&path) {
            Ok(n) => eprintln!("perfbench: wrote {n} spans to {}", path.display()),
            Err(e) => eprintln!(
                "perfbench: could not write spans to {}: {e}",
                path.display()
            ),
        }
    }
    print_outcome(&args, &host, &outcome);
    ExitCode::SUCCESS
}

fn print_outcome(args: &Args, host: &HostRecord, outcome: &Outcome) {
    println!(
        "{{\"workload\": {}, \"seed\": {}, \"seconds\": {}, \"trace\": {}, \"host\": {}}}",
        escape(&args.workload),
        args.seed,
        json_number(args.seconds),
        u8::from(args.trace),
        host.to_json()
    );
    let inputs: Vec<String> = outcome
        .inputs
        .iter()
        .map(|(k, v)| format!("{}: {}", escape(k), v))
        .collect();
    println!("{{\"inputs\": {{{}}}}}", inputs.join(", "));
    for reason in &outcome.errors {
        println!("{{\"check_failed\": {}}}", escape(reason));
    }
    let error_rate = outcome.failed as f64 / outcome.attempted.max(1) as f64;
    let mut figures: Vec<String> = vec![
        metric_json("setup_s", outcome.setup_s, "s"),
        metric_json("peak_rss_mb", util::job_peak_rss_mb(), "MB"),
        metric_json("error_rate", error_rate, "failed/attempted"),
    ];
    if !args.trace {
        figures.push(metric_json("job_s", outcome.job_s, "s"));
        figures.push(metric_json("job_cpu_s", outcome.job_cpu_s, "s"));
    }
    figures.extend(
        outcome
            .figures
            .iter()
            .map(|(n, v, u)| metric_json(n, *v, u)),
    );
    println!("{{\"figures\": {{{}}}}}", figures.join(", "));

    let metrics: Vec<String> = if args.trace {
        LAYER_METRICS
            .iter()
            .map(|(name, unit)| {
                let value = outcome
                    .layers
                    .iter()
                    .find(|(n, _)| n == *name)
                    .map_or(0.0, |(_, v)| *v);
                metric_json(name, value, unit)
            })
            .collect()
    } else {
        vec![
            metric_json("setup_s", outcome.setup_s, "s"),
            metric_json("peak_rss_mb", util::job_peak_rss_mb(), "MB"),
            metric_json("job_cpu_s", outcome.job_cpu_s, "s"),
        ]
    };
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        outcome.failed == 0 && outcome.attempted > 0,
        outcome.attempted.max(1),
        outcome.failed,
        metrics.join(", ")
    );
}

fn metric_json(name: &str, value: f64, unit: &str) -> String {
    format!(
        "{}: {{\"value\": {}, \"unit\": {}}}",
        escape(name),
        json_number(value),
        escape(unit)
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn benchmark_json_lists_every_layer_metric_with_its_unit() {
        let text = include_str!("../../BENCHMARK.json");
        let per_layer = &text[text.find("\"per_layer\"").expect("per_layer key")..];
        for (name, unit) in LAYER_METRICS {
            assert!(
                per_layer.contains(&format!(
                    "\"name\": \"{name}\",\n      \"unit\": \"{unit}\""
                )),
                "{name} ({unit}) missing from BENCHMARK.json"
            );
        }
        assert_eq!(per_layer.matches("\"name\"").count(), LAYER_METRICS.len());
    }

    #[test]
    fn arguments_are_validated() {
        let args = |s: &str| Args::parse(&s.split(' ').map(String::from).collect::<Vec<_>>());
        let ok = args("--workload measure_1m --seed 4 --seconds 2 --trace 1").unwrap();
        assert_eq!((ok.seed, ok.seconds, ok.trace), (4, 2.0, true));
        let default = args("--workload sweep_report").unwrap();
        assert_eq!(default.seed, sweep::DEFAULT_SEED);
        assert!(args("--workload nope --seed 1").is_err());
        assert!(args("--workload measure_1m --trace 2").is_err());
        assert!(args("--workload measure_1m --seconds 0").is_err());
        assert!(args("--workload measure_1m --seconds 1e18").is_err());
        assert!(args("--workload measure_1m --seed").is_err());
    }

    #[test]
    fn jobs_repeat_while_another_fits() {
        let mut setup = util::SetupTimer::new(1, || {
            std::hint::black_box((0..100_000u64).map(std::hint::black_box).sum::<u64>());
            Ok(())
        });
        let jobs = repeat_for(0.1, &mut setup, || {
            let lap = util::Lap::start();
            std::thread::sleep(std::time::Duration::from_millis(30));
            Ok(lap.cost())
        })
        .unwrap();
        assert!((2..=3).contains(&jobs.len()), "{} jobs", jobs.len());
        // A sleeping job takes wall time but next to no CPU time.
        assert!(jobs.iter().all(|c| c.wall_s >= 0.03 && c.cpu_s < 0.01));
        assert!(setup.median() > 0.0);
    }
}
