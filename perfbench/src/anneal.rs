//! `anneal_routes` and `anneal_makespan`: the (8,8,16)-torus → (32,32)-mesh
//! pair (1024 nodes) annealed by sharded walks, each with two portfolio
//! shards on two workers. `anneal_routes` runs a congestion walk and a
//! weighted-wirelength walk; `anneal_makespan` runs a makespan walk under
//! the full neighbor exchange and one under a seeded 1/8 subset of it.
//! Each workload's job is its two walks back to back; each job anneals from
//! seeds of its own, and `anneal_makespan` cycles through several sparse
//! subsets, so a run's median job does not hang on one trajectory.

use std::sync::Arc;
use std::time::Instant;

use embeddings::auto::embed;
use embeddings::congestion::congestion_sequential;
use embeddings::optim::parallel::{optimize_sharded, ShardStrategy, ShardedConfig, ShardedOutcome};
use embeddings::optim::{
    CongestionObjective, Cost, Objective, OptimizerConfig, WirelengthObjective,
};
use embeddings::{Embedding, EmbeddingError};
use netsim::sim::{simulate, Placement};
use netsim::{MakespanObjective, Network, Workload};
use topology::routing::{for_each_hop, link_slot_of_hop};
use topology::{Grid, Shape};

use crate::checks::check_cost;
use crate::trace::{Timed, Tracer, WalkTimes};
use crate::util::{median, secs, Lap, SeedStream, SetupTimer};
use crate::{repeat_for, Args, Outcome};

const SHARDS: u32 = 2;
const WORKERS: usize = 2;
/// Name, figure and proposed moves per shard of each walk. The steps are
/// sized so the two walks of a workload take similar time on a 2-core host:
/// each is about half of its workload's job, so a 2× slowdown of one walk
/// moves the job (`job_cpu_s`) by about 50%.
const WALKS: [(&str, &str, u64); 4] = [
    ("congestion", "congestion_moves_per_s", 12_000),
    ("wirelength", "wirelength_moves_per_s", 10_000),
    ("makespan_dense", "makespan_dense_moves_per_s", 560),
    ("makespan_sparse", "makespan_sparse_moves_per_s", 8_000),
];

/// The two walks a workload runs.
#[derive(Clone, Copy)]
pub enum Walks {
    /// `anneal_routes`: congestion and weighted wirelength.
    Routes,
    /// `anneal_makespan`: makespan under the dense and the sparse traffic.
    Makespan,
}

impl Walks {
    /// Indices into `WALKS`.
    fn indices(self) -> [usize; 2] {
        match self {
            Walks::Routes => [0, 1],
            Walks::Makespan => [2, 3],
        }
    }

    /// Set-ups per timed batch: `anneal_routes` only embeds (microseconds),
    /// `anneal_makespan` also builds its traffic and counts components
    /// (milliseconds).
    fn setups_per_batch(self) -> usize {
        match self {
            Walks::Routes => 2000,
            Walks::Makespan => 10,
        }
    }
}

/// What a walk anneals and how its result is re-measured.
enum Goal {
    Congestion,
    /// Per-guest-edge weights in 1..=4, a pure function of the seed.
    Wirelength {
        weight_seed: u64,
    },
    /// Makespan under one of `workloads`: job `j` of a run uses workload
    /// `j mod workloads.len()`.
    Makespan {
        network: Network,
        workloads: Vec<Workload>,
    },
}

/// One walk's inputs.
pub struct WalkInputs {
    pub name: &'static str,
    figure: &'static str,
    guest: Grid,
    host: Grid,
    goal: Goal,
    steps: u64,
    base_seed: u64,
}

fn edge_weight(seed: u64, tail: u64, head: u64) -> u64 {
    1 + topology::parallel::splitmix64(
        seed ^ tail.wrapping_mul(0x1_0000_0001) ^ head.rotate_left(32),
    ) % 4
}

impl WalkInputs {
    #[cfg(test)]
    pub fn congestion(guest: &Grid, host: &Grid) -> Self {
        WalkInputs {
            name: "congestion",
            figure: "congestion_moves_per_s",
            guest: guest.clone(),
            host: host.clone(),
            goal: Goal::Congestion,
            steps: 0,
            base_seed: 0,
        }
    }

    /// The objective the `job`-th job of a run anneals.
    fn objective(&self, job: u64) -> embeddings::Result<Box<dyn Objective + Send>> {
        Ok(match &self.goal {
            Goal::Congestion => Box::new(CongestionObjective::new(&self.guest, &self.host)?),
            Goal::Wirelength { weight_seed } => {
                let seed = *weight_seed;
                Box::new(WirelengthObjective::with_weights(
                    &self.guest,
                    &self.host,
                    |t, h| edge_weight(seed, t, h),
                )?)
            }
            Goal::Makespan { network, workloads } => Box::new(
                MakespanObjective::new(network.clone(), pick(workloads, job).clone(), 1).map_err(
                    |e| EmbeddingError::Unsupported {
                        details: e.to_string(),
                    },
                )?,
            ),
        })
    }

    /// An independent re-measure of the cost of `table`, returned by the
    /// `job`-th job: the sequential congestion sweep, a fresh weighted
    /// rebuild, or the simulator.
    pub fn remeasure(&self, table: &[u64], job: u64) -> Cost {
        match &self.goal {
            Goal::Congestion => {
                let refined = Embedding::from_table(
                    self.guest.clone(),
                    self.host.clone(),
                    "remeasure",
                    table.to_vec(),
                )
                .expect("a walk returns a permutation table");
                let report = congestion_sequential(&refined).expect("congestion of a valid table");
                Cost {
                    primary: report.max_congestion,
                    secondary: report.total_path_length,
                }
            }
            Goal::Wirelength { .. } => self
                .objective(job)
                .expect("objective builds")
                .rebuild(table),
            Goal::Makespan { network, workloads } => {
                let placement = Placement::try_from_table(table.to_vec())
                    .expect("a walk returns a permutation table");
                let stats = simulate(network, pick(workloads, job), &placement, 1);
                Cost {
                    primary: stats.cycles,
                    secondary: stats.total_hops,
                }
            }
        }
    }

    /// The walk's configuration for the `job`-th job of a run: each job
    /// anneals from its own seed, so a run's median job averages over
    /// trajectories instead of timing one trajectory again and again.
    fn config(&self, workers: usize, job: u64) -> ShardedConfig {
        ShardedConfig {
            base: OptimizerConfig {
                seed: self.base_seed ^ topology::parallel::splitmix64(job),
                steps: self.steps,
                ..OptimizerConfig::default()
            },
            shards: SHARDS,
            strategy: ShardStrategy::Portfolio,
            workers,
        }
    }

    fn walk(
        &self,
        embedding: &Embedding,
        workers: usize,
        job: u64,
        times: Option<&Arc<WalkTimes>>,
    ) -> Result<ShardedOutcome, String> {
        let config = self.config(workers, job);
        let result = match times {
            None => optimize_sharded(embedding, || self.objective(job), &config),
            Some(times) => optimize_sharded(
                embedding,
                || Timed::build(times, || self.objective(job)),
                &config,
            ),
        };
        result.map_err(|e| format!("{} walk failed: {e}", self.name))
    }
}

/// The workload a job uses out of several.
fn pick(workloads: &[Workload], job: u64) -> &Workload {
    &workloads[(job % workloads.len() as u64) as usize]
}

/// Seeded subsets of the neighbor exchange for the sparse makespan walk:
/// job `j` of a run uses subset `j mod SPARSE_SUBSETS`, so a run's median
/// job does not hang on how one subset happens to fall.
const SPARSE_SUBSETS: usize = 8;

struct Inputs {
    embedding: Embedding,
    walks: Vec<WalkInputs>,
    guest_edges: u64,
    traffic: Option<Traffic>,
}

/// Messages and contention components of the makespan traffic
/// (`anneal_makespan` only).
struct Traffic {
    dense_messages: usize,
    dense_components: u64,
    sparse_messages: usize,
    /// Per sparse subset, in job order.
    sparse_components: Vec<u64>,
}

/// Contention components of `workload` under `table`: routes joined by
/// shared directed link slots (dimension-ordered routing, the simulator's
/// rule).
fn contention_components(host: &Grid, workload: &Workload, table: &[u64]) -> u64 {
    let dims: Vec<usize> = (0..host.dim()).collect();
    let mut parent: Vec<usize> = (0..2 * host.link_count() as usize).collect();
    fn find(parent: &mut [usize], mut x: usize) -> usize {
        while parent[x] != x {
            parent[x] = parent[parent[x]];
            x = parent[x];
        }
        x
    }
    let mut firsts = Vec::new();
    for &(src, dst) in workload.pairs() {
        let (from, to) = (table[src as usize], table[dst as usize]);
        let (a, b) = (
            host.coord(from).expect("node"),
            host.coord(to).expect("node"),
        );
        let mut first: Option<usize> = None;
        for_each_hop(host, &a, from, &b, &dims, |hop, before, after| {
            let slot = (2 * link_slot_of_hop(host, hop, before, after) + u64::from(before < after))
                as usize;
            match first {
                None => first = Some(slot),
                Some(f) => {
                    let (ra, rb) = (find(&mut parent, f), find(&mut parent, slot));
                    parent[rb] = ra;
                }
            }
        });
        firsts.extend(first);
    }
    let mut roots: Vec<usize> = firsts.iter().map(|&s| find(&mut parent, s)).collect();
    roots.sort_unstable();
    roots.dedup();
    roots.len() as u64
}

fn set_up(seed: u64, which: Walks) -> Result<Inputs, String> {
    let guest = Grid::torus(Shape::new(vec![8, 8, 16]).map_err(|e| e.to_string())?);
    let host = Grid::mesh(Shape::new(vec![32, 32]).map_err(|e| e.to_string())?);
    let embedding = embed(&guest, &host).map_err(|e| e.to_string())?;
    let (goals, traffic) = match which {
        Walks::Routes => {
            let weight_seed = SeedStream::new(seed, 3).next_u64();
            ([Goal::Congestion, Goal::Wirelength { weight_seed }], None)
        }
        Walks::Makespan => {
            let table = embedding.to_table().map_err(|e| e.to_string())?;
            let dense = Workload::from_task_graph(&guest);
            // Seeded 1/8 subsets of the neighbor exchange, each kept in
            // exchange order.
            let mut draw = SeedStream::new(seed, 1);
            let mut sparse = Vec::with_capacity(SPARSE_SUBSETS);
            for _ in 0..SPARSE_SUBSETS {
                let mut chosen: Vec<usize> = (0..dense.pairs().len()).collect();
                for i in 0..chosen.len() {
                    let j = i + draw.below((chosen.len() - i) as u64) as usize;
                    chosen.swap(i, j);
                }
                chosen.truncate(dense.pairs().len() / 8);
                chosen.sort_unstable();
                sparse.push(
                    Workload::try_new(
                        guest.size(),
                        chosen.iter().map(|&i| dense.pairs()[i]).collect(),
                    )
                    .map_err(|e| e.to_string())?,
                );
            }
            let traffic = Traffic {
                dense_messages: dense.pairs().len(),
                dense_components: contention_components(&host, &dense, &table),
                sparse_messages: sparse[0].pairs().len(),
                sparse_components: sparse
                    .iter()
                    .map(|w| contention_components(&host, w, &table))
                    .collect(),
            };
            let network = Network::new(host.clone());
            let goals = [
                Goal::Makespan {
                    network: network.clone(),
                    workloads: vec![dense],
                },
                Goal::Makespan {
                    network,
                    workloads: sparse,
                },
            ];
            (goals, Some(traffic))
        }
    };
    let walks = goals
        .into_iter()
        .zip(which.indices())
        .map(|(goal, i)| {
            let (name, figure, steps) = WALKS[i];
            WalkInputs {
                name,
                figure,
                guest: guest.clone(),
                host: host.clone(),
                goal,
                steps,
                base_seed: SeedStream::new(seed, 20 + i as u64).next_u64(),
            }
        })
        .collect();
    Ok(Inputs {
        guest_edges: guest.num_edges(),
        embedding,
        walks,
        traffic,
    })
}

pub fn run(args: &Args, tracer: &Tracer, which: Walks) -> Result<Outcome, String> {
    let mut outcome = Outcome::default();
    let mut setup = SetupTimer::new(which.setups_per_batch(), || set_up(args.seed, which));
    let inputs = setup.warm()?;
    outcome.setup_s = setup.median();
    outcome.inputs = vec![
        ("pair", "\"(8,8,16)-torus -> (32,32)-mesh\"".into()),
        ("nodes", inputs.embedding.size().to_string()),
        ("guest_edges", inputs.guest_edges.to_string()),
        ("shards", SHARDS.to_string()),
        ("workers", WORKERS.to_string()),
        (
            "steps_per_shard",
            format!(
                "{{{}}}",
                inputs
                    .walks
                    .iter()
                    .map(|w| format!("\"{}\": {}", w.name, w.steps))
                    .collect::<Vec<_>>()
                    .join(", ")
            ),
        ),
    ];
    if let Some(traffic) = &inputs.traffic {
        let sparse_components: Vec<String> = traffic
            .sparse_components
            .iter()
            .map(u64::to_string)
            .collect();
        outcome.inputs.extend([
            (
                "makespan_dense_messages",
                traffic.dense_messages.to_string(),
            ),
            (
                "makespan_dense_components",
                traffic.dense_components.to_string(),
            ),
            (
                "makespan_sparse_messages",
                traffic.sparse_messages.to_string(),
            ),
            (
                "makespan_sparse_components",
                format!("[{}]", sparse_components.join(", ")),
            ),
        ]);
    }

    if args.trace {
        traced(&inputs, tracer, &mut outcome)?;
        return Ok(outcome);
    }

    let mut per_walk: Vec<Vec<f64>> = vec![Vec::new(); inputs.walks.len()];
    let mut index = 0;
    let jobs = repeat_for(args.seconds, &mut setup, || {
        let mut job = crate::util::Cost::default();
        for (walk, walls) in inputs.walks.iter().zip(per_walk.iter_mut()) {
            let lap = Lap::start();
            let result = walk.walk(&inputs.embedding, WORKERS, index, None)?;
            let cost = lap.cost();
            job += cost;
            walls.push(cost.wall_s);
            let remeasured = walk.remeasure(&result.outcome.table, index);
            outcome.record(check_cost(
                walk.name,
                result.outcome.report.best,
                remeasured,
            ));
        }
        index += 1;
        Ok::<_, String>(job)
    })?;
    outcome.set_jobs(&jobs);
    outcome.setup_s = setup.median();
    for (walk, walls) in inputs.walks.iter().zip(&per_walk) {
        let moves = (u64::from(SHARDS) * walk.steps) as f64;
        outcome
            .figures
            .push((walk.figure, moves / median(walls), "moves/s"));
    }
    outcome.figures.push(("jobs", jobs.len() as f64, "count"));
    Ok(outcome)
}

/// The traced run: each walk once through the timing wrapper on two
/// workers, once plain on two workers (tracing overhead) and once plain on
/// one worker (the 2-worker speedup, with identical results checked).
fn traced(inputs: &Inputs, tracer: &Tracer, outcome: &mut Outcome) -> Result<(), String> {
    let (mut traced_total, mut untraced_total, mut covered) = (0.0, 0.0, 0.0);
    for walk in &inputs.walks {
        let trace = tracer.fresh_id();
        let times = Arc::new(WalkTimes::default());
        let start = Instant::now();
        let result = tracer.span("optim.optimize_sharded", 0, trace, |_| {
            walk.walk(&inputs.embedding, WORKERS, 0, Some(&times))
        })?;
        let traced_wall = secs(start);
        let remeasured = walk.remeasure(&result.outcome.table, 0);
        outcome.record(check_cost(
            walk.name,
            result.outcome.report.best,
            remeasured,
        ));

        let start = Instant::now();
        let plain = walk.walk(&inputs.embedding, WORKERS, 0, None)?;
        let wall_2w = secs(start);
        let start = Instant::now();
        let single = tracer.span("optim.optimize_sharded_1w", 0, trace, |_| {
            walk.walk(&inputs.embedding, 1, 0, None)
        })?;
        let wall_1w = secs(start);
        outcome.record(
            if single.outcome.table == plain.outcome.table
                && single.outcome.report == plain.outcome.report
            {
                Ok(())
            } else {
                Err(format!(
                    "{}: results differ between 1 and 2 workers",
                    walk.name
                ))
            },
        );

        let (proposed, accepted) = result.shards.iter().fold((0u64, 0u64), |(p, a), s| {
            (p + s.report.steps, a + s.report.accepted)
        });
        let shard_walls = times.shard_wall_sum();
        let metric = |suffix: &str| format!("optim.{}.{suffix}", walk.name);
        outcome.layer(metric("delta_s"), times.delta_s());
        outcome.layer(metric("build_s"), times.build_s());
        outcome.layer(
            metric("driver_s"),
            shard_walls - times.delta_s() - times.build_s(),
        );
        outcome.layer(
            metric("accept_ratio"),
            accepted as f64 / proposed.max(1) as f64,
        );
        outcome.layer(metric("shard_skew"), times.shard_skew());
        outcome.layer(metric("speedup_2w"), wall_1w / wall_2w);
        traced_total += traced_wall;
        untraced_total += wall_2w;
        covered += shard_walls / f64::from(SHARDS.min(WORKERS as u32));
        outcome.figures.push((
            walk.figure,
            (u64::from(SHARDS) * walk.steps) as f64 / wall_2w,
            "moves/s",
        ));
    }
    // The traced walks are job 0's, so they run the first sparse subset.
    if let Some(traffic) = &inputs.traffic {
        outcome.layer(
            "netsim.makespan_dense.components",
            traffic.dense_components as f64,
        );
        outcome.layer(
            "netsim.makespan_sparse.components",
            traffic.sparse_components[0] as f64,
        );
    }
    outcome.figures.push(("traced_job_s", traced_total, "s"));
    outcome.layer("trace.overhead_frac", traced_total / untraced_total - 1.0);
    // Shard walk time (objective deltas + builds + driver) per worker, as a
    // share of the traced walks' wall time.
    outcome.layer("trace.layer_sum_frac", covered / traced_total);
    Ok(())
}
