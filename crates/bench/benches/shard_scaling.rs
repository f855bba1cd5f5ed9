//! Benchmark: sharded-annealing best-table throughput, and the delta-aware
//! makespan objective against full re-simulation.
//!
//! `shards/N` runs `embeddings::optim::parallel::optimize_sharded` with N
//! independently-seeded 5000-step walks (one worker thread per shard) over
//! the same (16,16)-torus -> (16,16)-mesh workload as `optim_throughput`,
//! and reports throughput as *total proposed moves per second* — N shards
//! propose N × 5000 moves toward one best-of-N table, so on a machine with
//! ≥ N cores the group should scale nearly linearly (the walks share nothing
//! but the read-only starting table). On a single-core machine the shards
//! serialize and every group measures roughly the sequential rate; results
//! are bit-identical either way.
//!
//! `makespan/delta` runs the annealing walk under
//! `netsim::MakespanObjective` (cached routes, whole-schedule replay on flat
//! claim slots, rejected moves restored from its undo journal);
//! `makespan/full_resim` times the same number of from-scratch simulator
//! evaluations — the per-move cost the objective avoids. Results are
//! recorded in `BENCH_shards.json` at the repo root; `benchgate` in CI gates
//! `shards/4` and `makespan/delta`.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use emb_bench::{mesh, torus};
use embeddings::auto::embed;
use embeddings::optim::parallel::{optimize_sharded, ShardedConfig};
use embeddings::optim::{CongestionObjective, Objective, OptimizerConfig};
use netsim::sim::{simulate, Placement};
use netsim::{MakespanObjective, Network, Workload};

const STEPS: u64 = 5_000;
const MAKESPAN_STEPS: u64 = 1_000;

fn bench_shards(c: &mut Criterion) {
    let guest = torus(&[16, 16]);
    let host = mesh(&[16, 16]);
    let embedding = embed(&guest, &host).unwrap();
    let base = OptimizerConfig {
        seed: 1987,
        steps: STEPS,
        ..OptimizerConfig::default()
    };

    let mut group = c.benchmark_group("shard_scaling");
    for shards in [1u32, 2, 4] {
        group.throughput(Throughput::Elements(u64::from(shards) * STEPS));
        group.bench_function(BenchmarkId::new("shards", shards), |b| {
            let config = ShardedConfig {
                base,
                shards,
                workers: shards as usize,
                ..ShardedConfig::default()
            };
            b.iter(|| {
                optimize_sharded(
                    &embedding,
                    || CongestionObjective::new(&guest, &host),
                    &config,
                )
                .unwrap()
                .outcome
                .report
                .best
                .primary
            })
        });
    }
    group.finish();
}

fn bench_makespan(c: &mut Criterion) {
    // A smaller pair than the shard groups: full re-simulation per move is
    // exactly the cost the delta path exists to avoid.
    let guest = torus(&[8, 8]);
    let host = mesh(&[8, 8]);
    let embedding = embed(&guest, &host).unwrap();
    let workload = Workload::from_task_graph(&guest);
    let table = embedding.to_table().unwrap();

    let mut group = c.benchmark_group("makespan");
    group.throughput(Throughput::Elements(MAKESPAN_STEPS));

    group.bench_function(BenchmarkId::new("makespan", "delta"), |b| {
        let config = embeddings::optim::OptimizerConfig {
            seed: 1987,
            steps: MAKESPAN_STEPS,
            ..OptimizerConfig::default()
        };
        b.iter(|| {
            let mut objective =
                MakespanObjective::new(Network::new(host.clone()), workload.clone(), 1)
                    .expect("schedule fits");
            embeddings::optim::Optimizer::new(config)
                .optimize(&embedding, &mut objective)
                .unwrap()
                .report
                .best
                .primary
        })
    });

    // The contrast: MAKESPAN_STEPS from-scratch evaluations (placement
    // validation + route expansion + hash-set arbitration), what the old
    // objective paid per proposed move.
    group.bench_function(BenchmarkId::new("makespan", "full_resim"), |b| {
        let network = Network::new(host.clone());
        b.iter(|| {
            let mut cycles = 0u64;
            for _ in 0..MAKESPAN_STEPS {
                let placement = Placement::try_from_table(table.clone()).unwrap();
                cycles += simulate(&network, &workload, &placement, 1).cycles;
            }
            cycles
        })
    });

    // The per-move rate: rebuild once outside, then time swap/undo pairs.
    // Each pair is one whole-schedule replay plus one journal restore.
    group.bench_function(BenchmarkId::new("makespan", "delta_swap_pair"), |b| {
        let mut objective = MakespanObjective::new(Network::new(host.clone()), workload.clone(), 1)
            .expect("schedule fits");
        let mut swap_table = table.clone();
        objective.rebuild(&swap_table);
        b.iter(|| {
            let mut acc = 0u64;
            for _ in 0..MAKESPAN_STEPS / 2 {
                swap_table.swap(3, 40);
                acc += objective.apply_swap(&swap_table, 3, 40).primary;
                swap_table.swap(3, 40);
                acc += objective.apply_swap(&swap_table, 3, 40).primary;
            }
            acc
        })
    });

    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default()
        .warm_up_time(std::time::Duration::from_millis(500))
        .measurement_time(std::time::Duration::from_secs(8))
        .sample_size(10);
    targets = bench_shards, bench_makespan
}
criterion_main!(benches);
