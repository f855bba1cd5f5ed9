//! `benchgate` — the CI bench-regression gate.
//!
//! ```text
//! benchgate [--min-ratio R] BENCH_pipeline.json BENCH_explab.json BENCH_optim.json
//! ```
//!
//! For every baseline file, re-measures the gated throughput figures with
//! plain wall-clock timing (best of N repetitions, so one scheduler hiccup
//! cannot fail the gate) and compares them against the checked-in numbers.
//! Exits non-zero when any measurement drops below `min_ratio` × baseline
//! (default 0.7, i.e. a >30% regression) or a baseline file is unreadable.
//!
//! The measurements mirror the criterion benches (`pipeline_throughput`,
//! `explab_throughput`, `optim_throughput`) but use much shorter runs: the
//! gate exists to catch collapses, not single-digit drift — nightly bench
//! runs against `BENCH_*.json` remain the precision instrument.

use std::process::ExitCode;
use std::time::Instant;

use emb_bench::gate::{check, read_baseline, BaselineMetric, GateCheck};
use emb_bench::{mesh, torus};
use embd::{Client, PlanRegistry};
use embeddings::auto::embed;
use embeddings::congestion::congestion_sequential;
use embeddings::optim::parallel::{optimize_sharded, ShardedConfig};
use embeddings::optim::{
    CongestionObjective, MoveMix, Optimizer, OptimizerConfig, WirelengthObjective,
};
use embeddings::verify::verify_sequential;
use explab::executor::run;
use explab::plan::SweepPlan;
use gridviz::Table;
use mixedradix::planes::{DigitPlanes, LANES};
use netsim::chaos::{simulate_chaos, ChaosRouting, FaultPlan};
use netsim::{MakespanObjective, Network, Placement, Workload};

/// Times `work` `repetitions` times and returns the fastest wall-clock
/// seconds (the least-noise estimator for throughput comparisons).
fn best_seconds(repetitions: usize, mut work: impl FnMut()) -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..repetitions {
        let start = Instant::now();
        work();
        best = best.min(start.elapsed().as_secs_f64());
    }
    best
}

/// Measures the metric a baseline names, in the baseline's unit.
fn measure(metric: &BaselineMetric) -> Result<f64, String> {
    match (metric.benchmark.as_str(), metric.metric.as_str()) {
        ("pipeline_throughput", which) => {
            // The same ~2²⁰-node workload as the criterion bench.
            let embedding = embed(&torus(&[1024, 1024]), &torus(&[32, 32, 32, 32]))
                .map_err(|e| e.to_string())?;
            let edges = embedding.guest().num_edges() as f64;
            let nodes = embedding.size() as f64;
            let (elements, seconds) = match which {
                "verify_melem_per_s" => (
                    edges,
                    best_seconds(3, || {
                        std::hint::black_box(verify_sequential(&embedding).dilation);
                    }),
                ),
                "congestion_melem_per_s" => (
                    edges,
                    best_seconds(3, || {
                        std::hint::black_box(
                            congestion_sequential(&embedding)
                                .expect("valid")
                                .max_congestion,
                        );
                    }),
                ),
                "soa_codec_melem_per_s" => {
                    // Raw digit-plane decode over every host node: the codec
                    // underneath the sweeps above, measured in nodes.
                    let shape = embedding.host().shape().clone();
                    let mut planes = DigitPlanes::for_base(&shape);
                    let seconds = best_seconds(3, || {
                        // Same loop shape as the criterion bench: fold each
                        // batch into a checksum, sink it once at the end.
                        let mut checksum = 0u32;
                        let mut start = 0u64;
                        while start < shape.size() {
                            let count = (shape.size() - start).min(LANES as u64) as usize;
                            planes.decode_range(&shape, start, count).expect("in range");
                            checksum ^= planes.plane(0)[count - 1];
                            start += count as u64;
                        }
                        std::hint::black_box(checksum);
                    });
                    (nodes, seconds)
                }
                other => return Err(format!("unknown pipeline metric {other:?}")),
            };
            Ok(elements / seconds / 1e6)
        }
        ("explab_throughput", "trials_per_s") => {
            let plan = SweepPlan::builtin("bench").map_err(|e| e.to_string())?;
            let trials = explab::executor::expand(&plan).len() as f64;
            let seconds = best_seconds(5, || {
                std::hint::black_box(run(&plan, 1).supported());
            });
            Ok(trials / seconds)
        }
        ("optim_throughput", "wirelength_moves_per_s") => {
            // Same workload and config as the congestion-objective gate
            // below, annealing under the wirelength objective instead.
            let guest = torus(&[16, 16]);
            let host = mesh(&[16, 16]);
            let embedding = embed(&guest, &host).map_err(|e| e.to_string())?;
            let steps = 5_000u64;
            let config = OptimizerConfig {
                seed: 1987,
                steps,
                ..OptimizerConfig::default()
            };
            let seconds = best_seconds(3, || {
                let mut objective = WirelengthObjective::new(&guest, &host).expect("equal sizes");
                std::hint::black_box(
                    Optimizer::new(config)
                        .optimize(&embedding, &mut objective)
                        .expect("optimize")
                        .report
                        .best,
                );
            });
            Ok(steps as f64 / seconds)
        }
        ("optim_throughput", "kcycle_moves_per_s") => {
            // The `move_mix` bench's gated row: the k-cycle-heavy portfolio
            // mix on the same workload. A "move" is one proposal; rotations
            // and block swaps cost several transpositions each, so this
            // rate is expected to sit below the pairwise one.
            let guest = torus(&[16, 16]);
            let host = mesh(&[16, 16]);
            let embedding = embed(&guest, &host).map_err(|e| e.to_string())?;
            let steps = 5_000u64;
            let config = OptimizerConfig {
                seed: 1987,
                steps,
                mix: MoveMix {
                    reverse_per_mille: 150,
                    kcycle_per_mille: 300,
                    block_per_mille: 50,
                },
                ..OptimizerConfig::default()
            };
            let seconds = best_seconds(3, || {
                let mut objective = CongestionObjective::new(&guest, &host).expect("equal sizes");
                std::hint::black_box(
                    Optimizer::new(config)
                        .optimize(&embedding, &mut objective)
                        .expect("optimize")
                        .report
                        .best,
                );
            });
            Ok(steps as f64 / seconds)
        }
        ("optim_throughput", "moves_per_s") => {
            // The same workload and config as the criterion bench.
            let guest = torus(&[16, 16]);
            let host = mesh(&[16, 16]);
            let embedding = embed(&guest, &host).map_err(|e| e.to_string())?;
            let steps = 5_000u64;
            let config = OptimizerConfig {
                seed: 1987,
                steps,
                ..OptimizerConfig::default()
            };
            let seconds = best_seconds(3, || {
                let mut objective = CongestionObjective::new(&guest, &host).expect("equal sizes");
                std::hint::black_box(
                    Optimizer::new(config)
                        .optimize(&embedding, &mut objective)
                        .expect("optimize")
                        .report
                        .best,
                );
            });
            Ok(steps as f64 / seconds)
        }
        ("shard_scaling", "sharded_moves_per_s") => {
            // The same workload as the criterion bench: 4 independently
            // seeded 5000-step walks, one worker thread per shard, reduced
            // to the lexicographically best table. Throughput counts every
            // proposed move across shards.
            let guest = torus(&[16, 16]);
            let host = mesh(&[16, 16]);
            let embedding = embed(&guest, &host).map_err(|e| e.to_string())?;
            let steps = 5_000u64;
            let shards = 4u32;
            let config = ShardedConfig {
                base: OptimizerConfig {
                    seed: 1987,
                    steps,
                    ..OptimizerConfig::default()
                },
                shards,
                workers: shards as usize,
                ..ShardedConfig::default()
            };
            let seconds = best_seconds(3, || {
                std::hint::black_box(
                    optimize_sharded(
                        &embedding,
                        || CongestionObjective::new(&guest, &host),
                        &config,
                    )
                    .expect("optimize")
                    .outcome
                    .report
                    .best,
                );
            });
            Ok(u64::from(shards) as f64 * steps as f64 / seconds)
        }
        ("shard_scaling", "makespan_moves_per_s") => {
            // The criterion bench's `makespan/delta` group: a 1000-step
            // annealing walk under the makespan objective on the
            // (8,8)-torus -> (8,8)-mesh pair with neighbor traffic, one
            // round, a fresh objective per walk.
            let guest = torus(&[8, 8]);
            let host = mesh(&[8, 8]);
            let embedding = embed(&guest, &host).map_err(|e| e.to_string())?;
            let workload = Workload::from_task_graph(&guest);
            let steps = 1_000u64;
            let config = OptimizerConfig {
                seed: 1987,
                steps,
                ..OptimizerConfig::default()
            };
            let seconds = best_seconds(5, || {
                let mut objective =
                    MakespanObjective::new(Network::new(host.clone()), workload.clone(), 1)
                        .expect("schedule fits");
                std::hint::black_box(
                    Optimizer::new(config)
                        .optimize(&embedding, &mut objective)
                        .expect("optimize")
                        .report
                        .best,
                );
            });
            Ok(steps as f64 / seconds)
        }
        ("embd_load", "queries_per_s") => {
            // A scaled-down embd-bench: loopback server, 2 clients, MAP
            // queries over one paper pair. Short on purpose — the gate
            // catches collapses; BENCH_embd.json records the full run.
            let guest = torus(&[4, 2, 3]);
            let host = mesh(&[4, 6]);
            let clients = 2usize;
            let queries_per_client = 500u64;
            let server = embd::spawn("127.0.0.1:0", std::sync::Arc::new(PlanRegistry::new()))
                .map_err(|e| e.to_string())?;
            let seconds = best_seconds(3, || {
                std::thread::scope(|scope| {
                    for c in 0..clients {
                        let (guest, host, addr) = (&guest, &host, server.addr());
                        scope.spawn(move || {
                            let mut client = Client::connect(addr).expect("connect loopback");
                            for i in 0..queries_per_client {
                                let v = (c as u64 * 17 + i * 13) % guest.size();
                                std::hint::black_box(
                                    client.map(guest, host, v).expect("MAP query"),
                                );
                            }
                        });
                    }
                });
            });
            server.shutdown();
            Ok(clients as f64 * queries_per_client as f64 / seconds)
        }
        ("chaos_routing", "chaos_routed_msgs_per_s") => {
            // The 16×16 case of the criterion bench: the detour router on a
            // 5%-degraded torus, counting every routed (delivered or
            // dropped) message.
            let network = Network::new(torus(&[16, 16]));
            let n = network.size();
            let messages = 4096usize;
            let workload = Workload::uniform_random(n, messages, 7);
            let placement = Placement::identity(n);
            let plan = FaultPlan::random_link_percent(network.grid(), 5, 1987);
            let seconds = best_seconds(3, || {
                std::hint::black_box(
                    simulate_chaos(
                        &network,
                        &workload,
                        &placement,
                        1,
                        &plan,
                        ChaosRouting::Detour,
                    )
                    .delivered,
                );
            });
            Ok(messages as f64 / seconds)
        }
        (benchmark, metric) => Err(format!("unknown metric {benchmark}/{metric}")),
    }
}

fn main() -> ExitCode {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    let mut min_ratio = 0.7f64;
    if let Some(index) = args.iter().position(|a| a == "--min-ratio") {
        if index + 1 >= args.len() {
            eprintln!("benchgate: --min-ratio needs a value");
            return ExitCode::from(1);
        }
        let value = args.remove(index + 1);
        args.remove(index);
        min_ratio = match value.parse() {
            Ok(ratio) => ratio,
            Err(_) => {
                eprintln!("benchgate: --min-ratio must be a number, got {value:?}");
                return ExitCode::from(1);
            }
        };
    }
    if args.is_empty() {
        eprintln!("usage: benchgate [--min-ratio R] <BENCH_*.json>...");
        return ExitCode::from(1);
    }

    let mut checks: Vec<GateCheck> = Vec::new();
    for path in &args {
        let text = match std::fs::read_to_string(path) {
            Ok(text) => text,
            Err(error) => {
                eprintln!("benchgate: cannot read {path}: {error}");
                return ExitCode::from(1);
            }
        };
        let metrics = match read_baseline(&text) {
            Ok(metrics) => metrics,
            Err(error) => {
                eprintln!("benchgate: {path}: {error}");
                return ExitCode::from(1);
            }
        };
        for metric in metrics {
            let measured = match measure(&metric) {
                Ok(measured) => measured,
                Err(error) => {
                    eprintln!("benchgate: {path}: {error}");
                    return ExitCode::from(1);
                }
            };
            checks.push(check(metric, measured, min_ratio));
        }
    }

    let mut table = Table::new(vec![
        "benchmark",
        "metric",
        "baseline",
        "measured",
        "ratio",
        "verdict",
    ]);
    let mut failures = 0usize;
    for c in &checks {
        if !c.pass {
            failures += 1;
        }
        table.push_row(vec![
            c.baseline.benchmark.clone(),
            c.baseline.metric.clone(),
            format!("{:.0}", c.baseline.throughput),
            format!("{:.0}", c.measured),
            format!("{:.2}", c.ratio),
            if c.pass {
                "ok".into()
            } else {
                "REGRESSION".to_string()
            },
        ]);
    }
    print!("{table}");
    if failures > 0 {
        eprintln!(
            "benchgate: {failures} metric(s) fell below {:.0}% of baseline",
            min_ratio * 100.0
        );
        return ExitCode::from(2);
    }
    eprintln!(
        "benchgate: all {} metric(s) within {:.0}% of baseline",
        checks.len(),
        min_ratio * 100.0
    );
    ExitCode::SUCCESS
}
