//! The sharded parallel sweep executor.
//!
//! [`expand`] turns a [`SweepPlan`] into a flat list of [`TrialSpec`]s with
//! per-trial seeds derived from the plan seed and the trial id (never from
//! the shard), and [`run`] fans the trials out over crossbeam workers via
//! [`topology::parallel::parallel_map_reduce`], then reassembles the records
//! in trial-id order. Two invariants make sweeps reproducible:
//!
//! * **determinism** — the same plan and seed produce bit-identical records
//!   (and hence bit-identical JSONL), because every trial is a pure function
//!   of its spec;
//! * **shard invariance** — the worker count only changes *where* a trial
//!   runs, never its spec or its position in the output, so 1 worker and N
//!   workers produce equal results.

use topology::parallel::{parallel_map_reduce, recommended_threads};

use crate::plan::SweepPlan;
use crate::trial::{run_trial, TrialRecord, TrialSpec};

/// SplitMix64: the per-trial seed derivation. Mixing the trial id through a
/// full-avalanche permutation keeps neighboring trials' random workloads
/// uncorrelated. Re-exported from [`topology::parallel`] — the same mixer
/// derives per-shard seeds in `embeddings::optim::parallel`, and one shared
/// copy keeps the constants from drifting apart.
pub use topology::parallel::splitmix64;

/// Expands a plan into its trial list: every family's pairs, in family
/// order, with ids `0..len` and derived seeds.
pub fn expand(plan: &SweepPlan) -> Vec<TrialSpec<'_>> {
    let mut specs = Vec::new();
    for (family_index, family) in plan.families.iter().enumerate() {
        // Each family draws from its own seed so that listing the same
        // random family twice produces distinct pairs.
        let family_seed = splitmix64(plan.seed.wrapping_add(family_index as u64));
        for (guest, host) in family.pairs(family_seed) {
            let id = specs.len();
            specs.push(TrialSpec {
                id,
                family: family.name(),
                guest,
                host,
                seed: splitmix64(plan.seed ^ (id as u64)),
                plan,
            });
        }
    }
    specs
}

/// The result of running a sweep: the plan's identity plus one record per
/// trial, in trial-id order.
#[derive(Clone, Debug, PartialEq)]
pub struct SweepOutcome {
    /// The plan's name.
    pub plan_name: String,
    /// The plan's master seed.
    pub seed: u64,
    /// The worker count the sweep ran with (informational; results are
    /// worker-count invariant).
    pub workers: usize,
    /// One record per trial, ordered by trial id.
    pub records: Vec<TrialRecord>,
}

impl SweepOutcome {
    /// The number of supported (measured) trials.
    pub fn supported(&self) -> usize {
        self.records.iter().filter(|r| r.is_supported()).count()
    }

    /// The trials whose measurements violate a bound (must be none).
    pub fn bound_violations(&self) -> Vec<&TrialRecord> {
        self.records.iter().filter(|r| !r.bound_ok()).collect()
    }

    /// All records as JSON lines (one per trial, trailing newline included).
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for record in &self.records {
            out.push_str(&record.to_json_line());
            out.push('\n');
        }
        out
    }
}

/// Runs every trial of the plan on `workers` threads (`0` = automatic) and
/// collects the records in trial-id order.
pub fn run(plan: &SweepPlan, workers: usize) -> SweepOutcome {
    let workers = if workers == 0 {
        recommended_threads()
    } else {
        workers
    };
    let specs = expand(plan);
    let mut indexed: Vec<(usize, TrialRecord)> = parallel_map_reduce(
        specs.len() as u64,
        workers,
        Vec::new(),
        |range| {
            specs[range.start as usize..range.end as usize]
                .iter()
                .map(|spec| (spec.id, run_trial(spec)))
                .collect::<Vec<_>>()
        },
        |mut a, mut b| {
            a.append(&mut b);
            a
        },
    );
    indexed.sort_unstable_by_key(|(id, _)| *id);
    SweepOutcome {
        plan_name: plan.name.clone(),
        seed: plan.seed,
        workers,
        records: indexed.into_iter().map(|(_, record)| record).collect(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn expansion_is_ordered_and_seeded_by_id() {
        let plan = SweepPlan::builtin("smoke").unwrap();
        let specs = expand(&plan);
        assert!(!specs.is_empty());
        for (index, spec) in specs.iter().enumerate() {
            assert_eq!(spec.id, index);
            assert_eq!(spec.seed, splitmix64(plan.seed ^ (index as u64)));
            assert!(std::ptr::eq(spec.plan, &plan));
        }
        // Family blocks appear in plan order.
        let first_family = specs.first().unwrap().family;
        assert_eq!(first_family, plan.families[0].name());
    }

    #[test]
    fn duplicate_random_families_draw_distinct_pairs() {
        let random = crate::plan::Family::Random {
            count: 6,
            max_size: 24,
            max_dim: 3,
        };
        let plan = SweepPlan {
            name: "twice".into(),
            seed: 9,
            rounds: 1,
            families: vec![random.clone(), random],
            workloads: vec![crate::plan::WorkloadSpec::Neighbor],
            optimize: None,
            wirelength: None,
            chaos: None,
        };
        let specs = expand(&plan);
        assert_eq!(specs.len(), 12);
        let pairs: Vec<(String, String)> = specs
            .iter()
            .map(|s| (s.guest.to_string(), s.host.to_string()))
            .collect();
        assert_ne!(pairs[..6], pairs[6..], "both blocks drew the same pairs");
    }

    #[test]
    fn splitmix_avalanche_separates_neighbors() {
        assert_ne!(splitmix64(0), splitmix64(1));
        assert_ne!(splitmix64(1), splitmix64(2));
        assert_eq!(splitmix64(7), splitmix64(7));
    }
}
