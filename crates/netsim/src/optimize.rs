//! The simulated-makespan optimization objective, with journaled undo.
//!
//! [`MakespanObjective`] plugs the store-and-forward simulator into the
//! [`embeddings::optim`] local-search engine: the cost of a placement table
//! is the makespan (cycles) of delivering a fixed workload with that table
//! as the task placement, with the total routed hop count as the
//! tie-breaker — exactly the numbers [`crate::sim::simulate`] reports.
//!
//! An evaluation has two halves, and the objective keeps the first one
//! incremental:
//!
//! * **routes** are cached per workload pair as lists of directed link
//!   slots (`2 × link slot + direction bit`). A move re-routes *only the
//!   message pairs whose source or destination is a moved task* (every
//!   simulated round injects the same pairs, so those pairs cover every
//!   touched round) — `O(degree × path length)` instead of re-expanding
//!   every route;
//! * **arbitration** replays the whole schedule: every message injects at
//!   cycle 1 and walks its cached route in ascending message-index order
//!   (round-major, pair-minor — the priority rule of
//!   [`crate::sim::simulate`]), one message per directed link per cycle,
//!   blocked messages retrying in place. The replay runs on a flat,
//!   clock-stamped claim vector indexed by directed slot and an
//!   order-preserving active list compacted in place as messages deliver:
//!   no hashing and no allocation after warm-up. The makespan is the cycle
//!   of the last delivery.
//!
//! Most proposed moves are rejected, and a rejected move is undone by
//! re-applying it (swaps, reversals and block swaps are involutions; a
//! rotation is undone by its two reversal batches in reverse order). So
//! every move that is not itself an undo pushes a **journal** entry: its
//! swap list, the routes it replaced and the cost before it. A call whose
//! swap list equals the journal top's re-creates the table that entry was
//! taken from, so it swaps those routes back and returns that cost without
//! arbitrating. The journal holds two entries — enough for a rotation's two
//! batches — and drops its oldest entry when full.
//!
//! Both shortcuts are exact: a route depends only on the images of its two
//! endpoints, and a journal entry restores exactly the state it saved.
//! `rebuild` recomputes everything from scratch and is the differential
//! anchor; debug builds re-arbitrate every journal restore against a fresh
//! claim vector, and the netsim tests plus the embeddings proptest wall
//! check every path against [`crate::sim::simulate`] on random walks.

use embeddings::optim::{Cost, Objective};
use topology::routing::{for_each_hop, link_slot_of_hop};
use topology::Grid;

use crate::network::Network;
use crate::traffic::Workload;

/// How many moves the undo journal remembers: a k-cycle rotation is applied
/// as two reversal batches and undone by the same two in reverse order.
const JOURNAL_DEPTH: usize = 2;

/// Why a [`MakespanObjective`] could not be constructed.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum MakespanError {
    /// The schedule is too large: an evaluation arbitrates at most
    /// `u32::MAX` messages (workload pairs × rounds), which keeps the `u32`
    /// pair indices of the arbitration scratch exact. A request-supplied
    /// workload or round count that blows past the cap is a typed error
    /// here rather than a silent index truncation (and a meaningless
    /// schedule) later.
    ScheduleTooLarge {
        /// The number of workload pairs.
        pairs: usize,
        /// The number of rounds per evaluation.
        rounds: usize,
    },
    /// The network is too large: cached routes store directed link slots
    /// (two per link) as `u32`.
    NetworkTooLarge {
        /// The number of links of the network.
        links: u64,
    },
}

impl core::fmt::Display for MakespanError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            MakespanError::ScheduleTooLarge { pairs, rounds } => write!(
                f,
                "schedule of {pairs} workload pairs x {rounds} rounds exceeds the \
                 {} messages one evaluation can arbitrate",
                u32::MAX
            ),
            MakespanError::NetworkTooLarge { links } => write!(
                f,
                "network of {links} links exceeds the {} directed link slots a \
                 cached route can name",
                u32::MAX
            ),
        }
    }
}

impl std::error::Error for MakespanError {}

/// One journaled move: enough to put the objective back to the state it
/// was in before the move.
struct JournalEntry {
    /// The move's transpositions, exactly as the caller passed them.
    swaps: Vec<(u64, u64)>,
    /// The workload pairs the move re-routed.
    pairs: Vec<u32>,
    /// `routes[i]` is the route of `pairs[i]` before the move. Buffers past
    /// `pairs.len()` are spares kept for their capacity.
    routes: Vec<Vec<u32>>,
    route_hops: u64,
    cost: Cost,
}

/// Minimize the simulated makespan (cycles to deliver the workload under
/// one-message-per-directed-link arbitration), with the total routed hop
/// count as the tie-breaker.
///
/// See the [module docs](self) for the evaluation strategy.
pub struct MakespanObjective {
    network: Network,
    workload: Workload,
    rounds: usize,
    dims: Vec<usize>,
    /// Cached route of each workload pair under the current table, as
    /// directed link slots.
    routes: Vec<Vec<u32>>,
    /// `task_pairs[t]` = indices of the workload pairs with source or
    /// destination task `t`.
    task_pairs: Vec<Vec<u32>>,
    /// Sum of cached route lengths (per round).
    route_hops: u64,
    /// Dedup stamps so a pair touching two moved tasks re-routes once.
    pair_epoch: Vec<u64>,
    epoch: u64,
    /// Directed-link claim stamps: `stamp[slot] == clock` means the slot is
    /// taken in the current cycle. Never reset — the clock only grows.
    stamp: Vec<u64>,
    clock: u64,
    /// Arbitration scratch: `(pair, next hop)` of each undelivered message.
    active: Vec<(u32, u32)>,
    /// The undo journal; `journal[..depth]` is live, the top is last.
    journal: [JournalEntry; JOURNAL_DEPTH],
    depth: usize,
    cost: Cost,
}

/// Writes the directed link slots of the dimension-ordered route from host
/// node `from` to `to` into `route`, replacing its contents.
fn route_into(grid: &Grid, dims: &[usize], from: u64, to: u64, route: &mut Vec<u32>) {
    route.clear();
    let current = grid.coord(from).expect("placement node in range");
    let target = grid.coord(to).expect("placement node in range");
    for_each_hop(grid, &current, from, &target, dims, |hop, before, after| {
        let link = link_slot_of_hop(grid, hop, before, after);
        // Fits: the constructor caps `2 × link_count` at `u32::MAX + 1`.
        route.push((2 * link + u64::from(before < after)) as u32);
    });
}

/// Replays the arbitration of [`crate::sim::simulate`] over `rounds` rounds
/// of `routes` and returns the makespan: every message injects at cycle 1,
/// messages claim their next directed slot in ascending message-index order
/// (round-major, pair-minor, the order the full simulator builds its
/// message list in), each slot carries one message per cycle, and blocked
/// messages retry in place. `stamp` and `clock` are the claim vector and its
/// clock; `active` is scratch.
fn arbitrate(
    routes: &[Vec<u32>],
    rounds: usize,
    active: &mut Vec<(u32, u32)>,
    stamp: &mut [u64],
    clock: &mut u64,
) -> u64 {
    active.clear();
    for _ in 0..rounds {
        for (pair, route) in routes.iter().enumerate() {
            if !route.is_empty() {
                active.push((pair as u32, 0));
            }
        }
    }
    let mut cycles = 0;
    while !active.is_empty() {
        cycles += 1;
        *clock += 1;
        let now = *clock;
        // Compact in place without data-dependent branches: whether a claim
        // succeeds and whether a message delivers are coin flips to the
        // branch predictor, and re-stamping a taken slot is a no-op.
        let mut kept = 0;
        for read in 0..active.len() {
            let (pair, hop) = active[read];
            let route = &routes[pair as usize];
            let claim = &mut stamp[route[hop as usize] as usize];
            let hop = hop + u32::from(*claim != now);
            *claim = now;
            active[kept] = (pair, hop);
            kept += usize::from((hop as usize) < route.len());
        }
        active.truncate(kept);
    }
    cycles
}

impl MakespanObjective {
    /// Creates the objective: `workload` is delivered on `network` for
    /// `rounds` rounds per evaluation.
    ///
    /// # Errors
    ///
    /// [`MakespanError::ScheduleTooLarge`] when `pairs × rounds` exceeds
    /// `u32::MAX` messages, and
    /// [`MakespanError::NetworkTooLarge`] when the network's directed link
    /// slots exceed the `u32` slot space of the cached routes.
    pub fn new(network: Network, workload: Workload, rounds: usize) -> Result<Self, MakespanError> {
        let pairs = workload.pairs().len();
        if pairs as u128 * rounds.max(1) as u128 > u32::MAX as u128 {
            return Err(MakespanError::ScheduleTooLarge { pairs, rounds });
        }
        let links = network.grid().link_count();
        if 2 * links as u128 > u32::MAX as u128 + 1 {
            return Err(MakespanError::NetworkTooLarge { links });
        }
        let mut task_pairs: Vec<Vec<u32>> = vec![Vec::new(); workload.tasks() as usize];
        for (index, &(src, dst)) in workload.pairs().iter().enumerate() {
            task_pairs[src as usize].push(index as u32);
            if dst != src {
                task_pairs[dst as usize].push(index as u32);
            }
        }
        let dims = (0..network.grid().dim()).collect();
        let cost = Cost {
            primary: 0,
            secondary: 0,
        };
        let entry = || JournalEntry {
            swaps: Vec::new(),
            pairs: Vec::new(),
            routes: Vec::new(),
            route_hops: 0,
            cost,
        };
        Ok(MakespanObjective {
            network,
            workload,
            rounds,
            dims,
            routes: vec![Vec::new(); pairs],
            task_pairs,
            route_hops: 0,
            pair_epoch: vec![0; pairs],
            epoch: 0,
            stamp: vec![0; 2 * links as usize],
            clock: 0,
            active: Vec::new(),
            journal: std::array::from_fn(|_| entry()),
            depth: 0,
            cost,
        })
    }

    /// Replays the whole schedule from the cached routes and caches the
    /// resulting cost.
    fn evaluate(&mut self) -> Cost {
        let primary = arbitrate(
            &self.routes,
            self.rounds,
            &mut self.active,
            &mut self.stamp,
            &mut self.clock,
        );
        self.cost = Cost {
            primary,
            secondary: self.route_hops * self.rounds as u64,
        };
        self.cost
    }

    /// Pops the journal top, swapping its saved routes back in, and returns
    /// the cost it saved.
    fn restore(&mut self) -> Cost {
        self.depth -= 1;
        let entry = &mut self.journal[self.depth];
        for (route, &pair) in entry.routes.iter_mut().zip(&entry.pairs) {
            std::mem::swap(route, &mut self.routes[pair as usize]);
        }
        self.route_hops = entry.route_hops;
        self.cost = entry.cost;
        // The check re-arbitrates on a fresh claim vector and clock, so it
        // leaves the objective's own untouched.
        debug_assert_eq!(
            arbitrate(
                &self.routes,
                self.rounds,
                &mut Vec::new(),
                &mut vec![0; self.stamp.len()],
                &mut 0
            ),
            self.cost.primary,
            "journal restore diverged from a full replay"
        );
        self.cost
    }

    /// The shared move path: `table` already has `swaps` applied. Restores
    /// the journal top when `swaps` re-applies it; otherwise journals the
    /// move, re-routes every workload pair a moved task sends or receives
    /// (once each) and replays the schedule. A move that touches no pair
    /// keeps the cached cost.
    fn apply_move(&mut self, table: &[u64], swaps: &[(u64, u64)]) -> Cost {
        if self.depth > 0 && self.journal[self.depth - 1].swaps == swaps {
            return self.restore();
        }
        if self.depth == JOURNAL_DEPTH {
            self.journal.rotate_left(1);
            self.depth -= 1;
        }
        let entry = &mut self.journal[self.depth];
        self.depth += 1;
        entry.swaps.clear();
        entry.swaps.extend_from_slice(swaps);
        entry.route_hops = self.route_hops;
        entry.cost = self.cost;

        self.epoch += 1;
        entry.pairs.clear();
        for &(a, b) in swaps {
            if a == b {
                continue;
            }
            for task in [a, b] {
                // A task outside the workload (the guest has more nodes
                // than the workload has tasks) has nothing to re-route.
                for &pair in self.task_pairs.get(task as usize).into_iter().flatten() {
                    if self.pair_epoch[pair as usize] != self.epoch {
                        self.pair_epoch[pair as usize] = self.epoch;
                        entry.pairs.push(pair);
                    }
                }
            }
        }
        if entry.pairs.is_empty() {
            // Routes — and therefore the schedule — are unchanged.
            return self.cost;
        }
        if entry.routes.len() < entry.pairs.len() {
            entry.routes.resize_with(entry.pairs.len(), Vec::new);
        }
        let grid = self.network.grid();
        for (spare, &pair) in entry.routes.iter_mut().zip(&entry.pairs) {
            let (src, dst) = self.workload.pairs()[pair as usize];
            route_into(
                grid,
                &self.dims,
                table[src as usize],
                table[dst as usize],
                spare,
            );
            let old = &mut self.routes[pair as usize];
            self.route_hops = self.route_hops + spare.len() as u64 - old.len() as u64;
            // The new route goes live; the old one is journaled in its place.
            std::mem::swap(spare, old);
        }
        self.evaluate()
    }
}

impl Objective for MakespanObjective {
    fn name(&self) -> &'static str {
        "makespan"
    }

    fn rebuild(&mut self, table: &[u64]) -> Cost {
        // The old full-re-simulation objective validated injectivity through
        // `Placement::try_from_table` on every evaluation; the delta path
        // keeps the loud contract violation (two tasks on one node would
        // otherwise yield a plausible-looking but meaningless schedule) as a
        // debug-build check at rebuild time, off the per-move hot path.
        #[cfg(debug_assertions)]
        {
            let mut seen = vec![false; self.network.size() as usize];
            for (task, &node) in table.iter().enumerate() {
                assert!(
                    !std::mem::replace(&mut seen[node as usize], true),
                    "placement table must be injective: task {task} re-uses node {node}"
                );
            }
        }
        let grid = self.network.grid();
        for (route, &(src, dst)) in self.routes.iter_mut().zip(self.workload.pairs()) {
            route_into(
                grid,
                &self.dims,
                table[src as usize],
                table[dst as usize],
                route,
            );
        }
        self.route_hops = self.routes.iter().map(|route| route.len() as u64).sum();
        self.depth = 0;
        self.evaluate()
    }

    fn apply_swap(&mut self, table: &[u64], a: u64, b: u64) -> Cost {
        if a == b {
            return self.cost;
        }
        self.apply_move(table, &[(a, b)])
    }

    fn apply_disjoint_swaps(&mut self, table: &mut [u64], swaps: &[(u64, u64)]) -> Cost {
        // A compound move (segment reversal, k-cycle rotation batch, block
        // swap) re-routes the pairs of *every* transposed task but replays
        // the schedule once — the override the default per-swap loop exists
        // for, since arbitration dominates this objective's evaluation.
        for &(a, b) in swaps {
            table.swap(a as usize, b as usize);
        }
        self.apply_move(table, swaps)
    }
}
#[cfg(test)]
mod tests {
    use super::*;
    use embeddings::auto::embed;
    use embeddings::optim::{Optimizer, OptimizerConfig};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use topology::{Grid, Shape};

    use crate::sim::{simulate, Placement};

    fn shape(radices: &[u32]) -> Shape {
        Shape::new(radices.to_vec()).unwrap()
    }

    /// The full-re-simulation reference: what the old objective computed.
    fn full_cost(network: &Network, workload: &Workload, rounds: usize, table: &[u64]) -> Cost {
        let placement = Placement::try_from_table(table.to_vec()).expect("injective");
        let stats = simulate(network, workload, &placement, rounds);
        Cost {
            primary: stats.cycles,
            secondary: stats.total_hops,
        }
    }

    #[test]
    fn makespan_objective_matches_direct_simulation() {
        let guest = Grid::ring(12).unwrap();
        let host = Grid::mesh(shape(&[3, 4]));
        let e = embed(&guest, &host).unwrap();
        let workload = Workload::from_task_graph(&guest);
        let mut objective =
            MakespanObjective::new(Network::new(host.clone()), workload.clone(), 1).unwrap();
        let table = e.to_table().unwrap();
        let cost = objective.rebuild(&table);
        let stats = simulate(
            &Network::new(host),
            &workload,
            &Placement::from_embedding(&e),
            1,
        );
        assert_eq!(cost.primary, stats.cycles);
        assert_eq!(cost.secondary, stats.total_hops);
    }

    #[test]
    fn delta_swaps_match_full_resimulation_exactly() {
        // Differential check: a long random walk of incremental swap
        // updates must report, at every step, exactly the cost a full
        // re-simulation computes — including multi-round schedules.
        for (guest, host, rounds) in [
            (Grid::torus(shape(&[3, 4])), Grid::mesh(shape(&[3, 4])), 1),
            (Grid::torus(shape(&[4, 6])), Grid::mesh(shape(&[4, 6])), 2),
            (Grid::ring(16).unwrap(), Grid::mesh(shape(&[4, 4])), 3),
        ] {
            let e = embed(&guest, &host).unwrap();
            let workload = Workload::from_task_graph(&guest);
            let network = Network::new(host.clone());
            let mut objective =
                MakespanObjective::new(Network::new(host.clone()), workload.clone(), rounds)
                    .unwrap();
            let mut table = e.to_table().unwrap();
            let mut cost = objective.rebuild(&table);
            assert_eq!(cost, full_cost(&network, &workload, rounds, &table));
            let n = guest.size();
            let mut rng = StdRng::seed_from_u64(23);
            for _ in 0..120 {
                let a = rng.gen_range(0u64..n);
                let mut b = rng.gen_range(0u64..n - 1);
                if b >= a {
                    b += 1;
                }
                table.swap(a as usize, b as usize);
                cost = objective.apply_swap(&table, a, b);
                assert_eq!(
                    cost,
                    full_cost(&network, &workload, rounds, &table),
                    "{guest} -> {host} rounds={rounds} after swapping {a},{b}"
                );
            }
            // And the incremental end state equals a fresh rebuild.
            let mut fresh =
                MakespanObjective::new(Network::new(host.clone()), workload.clone(), rounds)
                    .unwrap();
            assert_eq!(cost, fresh.rebuild(&table));
        }
    }

    /// Two four-task rings pinned to opposite rows of a 4×4 mesh, with the
    /// middle rows unused: many swaps touch one ring or none.
    fn two_cluster_workload() -> (Network, Workload, Vec<u64>) {
        let host = Grid::mesh(shape(&[4, 4]));
        let pairs = vec![
            (0u64, 1u64),
            (1, 2),
            (2, 3),
            (3, 0),
            (12, 13),
            (13, 14),
            (14, 15),
            (15, 12),
        ];
        let workload = Workload::try_new(16, pairs).unwrap();
        let table: Vec<u64> = (0..16).collect();
        (Network::new(host), workload, table)
    }

    #[test]
    fn multi_component_walks_match_full_resimulation() {
        // Sparse traffic: most swaps touch one cluster or none, so most
        // moves re-route few pairs (or none, keeping the cached cost).
        // Random swaps and reversal batches, checked against a full
        // re-simulation at every step.
        let (network, workload, mut table) = two_cluster_workload();
        let rounds = 2;
        let mut objective = MakespanObjective::new(
            Network::new(network.grid().clone()),
            workload.clone(),
            rounds,
        )
        .unwrap();
        let mut cost = objective.rebuild(&table);
        assert_eq!(cost, full_cost(&network, &workload, rounds, &table));
        let n = table.len() as u64;
        let mut rng = StdRng::seed_from_u64(87);
        for step in 0..120 {
            if rng.gen_bool(0.25) {
                let len = rng.gen_range(2u64..=6);
                let start = rng.gen_range(0u64..=n - len);
                let swaps: Vec<(u64, u64)> = (0..len / 2)
                    .map(|i| (start + i, start + len - 1 - i))
                    .collect();
                cost = objective.apply_disjoint_swaps(&mut table, &swaps);
            } else {
                let a = rng.gen_range(0u64..n);
                let mut b = rng.gen_range(0u64..n - 1);
                if b >= a {
                    b += 1;
                }
                table.swap(a as usize, b as usize);
                cost = objective.apply_swap(&table, a, b);
            }
            assert_eq!(
                cost,
                full_cost(&network, &workload, rounds, &table),
                "step {step}"
            );
        }
        let mut fresh =
            MakespanObjective::new(Network::new(network.grid().clone()), workload, rounds).unwrap();
        assert_eq!(cost, fresh.rebuild(&table));
    }

    #[test]
    fn journal_restores_do_not_replay() {
        // White-box proof that undoing a move restores the journaled routes
        // and cost instead of re-arbitrating: the private `clock` advances
        // once per replayed cycle, so a restore must leave it where it was.
        let guest = Grid::torus(shape(&[4, 6]));
        let host = Grid::mesh(shape(&[4, 6]));
        let e = embed(&guest, &host).unwrap();
        let workload = Workload::from_task_graph(&guest);
        let network = Network::new(host.clone());
        let rounds = 2;
        let mut objective =
            MakespanObjective::new(Network::new(host), workload.clone(), rounds).unwrap();
        let start = e.to_table().unwrap();
        let mut table = start.clone();
        let before = objective.rebuild(&table);

        // A swap, undone by re-applying it.
        table.swap(3, 17);
        let swapped = objective.apply_swap(&table, 3, 17);
        assert_eq!(swapped, full_cost(&network, &workload, rounds, &table));
        let clock = objective.clock;
        table.swap(3, 17);
        assert_eq!(objective.apply_swap(&table, 3, 17), before);
        assert_eq!(objective.clock, clock, "the swap undo re-arbitrated");

        // A reversal batch of 5..=10, undone by re-applying it.
        let reversal = [(5u64, 10u64), (6, 9), (7, 8)];
        let reversed = objective.apply_disjoint_swaps(&mut table, &reversal);
        assert_eq!(reversed, full_cost(&network, &workload, rounds, &table));
        let clock = objective.clock;
        assert_eq!(
            objective.apply_disjoint_swaps(&mut table, &reversal),
            before
        );
        assert_eq!(objective.clock, clock, "the reversal undo re-arbitrated");

        // A rotation of 12..=16 as the optimizer applies it — reverse the
        // run, then all but its last element — undone in reverse order.
        let whole = [(12u64, 16u64), (13, 15)];
        let head = [(12u64, 15u64), (13, 14)];
        objective.apply_disjoint_swaps(&mut table, &whole);
        let rotated = objective.apply_disjoint_swaps(&mut table, &head);
        assert_eq!(rotated, full_cost(&network, &workload, rounds, &table));
        let clock = objective.clock;
        objective.apply_disjoint_swaps(&mut table, &head);
        assert_eq!(objective.apply_disjoint_swaps(&mut table, &whole), before);
        assert_eq!(objective.clock, clock, "the rotation undo re-arbitrated");
        assert_eq!(table, start);

        // An accepted move followed by a different one: the second is no
        // undo, so it replays — and still prices the table exactly.
        table.swap(3, 17);
        objective.apply_swap(&table, 3, 17);
        let clock = objective.clock;
        table.swap(0, 11);
        let next = objective.apply_swap(&table, 0, 11);
        assert!(objective.clock > clock, "a fresh move must replay");
        assert_eq!(next, full_cost(&network, &workload, rounds, &table));
    }

    #[test]
    fn swaps_outside_the_workload_are_free_and_exact() {
        // A workload over fewer tasks than the placement has nodes: swapping
        // two unused tasks must keep the cached cost — and agree with the
        // full simulator, which never sees the unused tasks at all.
        let host = Grid::mesh(shape(&[4, 4]));
        let workload = Workload::uniform_random(8, 24, 5);
        let network = Network::new(host.clone());
        let mut objective =
            MakespanObjective::new(Network::new(host), workload.clone(), 1).unwrap();
        let mut table: Vec<u64> = (0..16).collect();
        let before = objective.rebuild(&table);
        table.swap(12, 15);
        let after = objective.apply_swap(&table, 12, 15);
        assert_eq!(before, after);
        assert_eq!(after, full_cost(&network, &workload, 1, &table));
        // A swap moving one workload task and one unused task re-routes
        // only the touched pairs and still matches.
        table.swap(2, 14);
        let mixed = objective.apply_swap(&table, 2, 14);
        assert_eq!(mixed, full_cost(&network, &workload, 1, &table));
    }

    #[test]
    fn disjoint_swap_batches_match_full_resimulation_and_undo() {
        // A segment reversal reaches the objective as one batch of disjoint
        // transpositions (one arbitration pass); it must price the final
        // table exactly like the full simulator and undo by re-applying.
        let guest = Grid::torus(shape(&[4, 6]));
        let host = Grid::mesh(shape(&[4, 6]));
        let e = embed(&guest, &host).unwrap();
        let workload = Workload::from_task_graph(&guest);
        let network = Network::new(host.clone());
        let mut objective =
            MakespanObjective::new(Network::new(host), workload.clone(), 2).unwrap();
        let mut table = e.to_table().unwrap();
        let before = objective.rebuild(&table);
        // Reverse the run 5..=10: transpositions (5,10), (6,9), (7,8).
        let swaps = [(5u64, 10u64), (6, 9), (7, 8)];
        let batched = objective.apply_disjoint_swaps(&mut table, &swaps);
        assert_eq!(batched, full_cost(&network, &workload, 2, &table));
        // Matches the per-swap default path on a fresh objective.
        let mut sequential = MakespanObjective::new(
            Network::new(Grid::mesh(shape(&[4, 6]))),
            workload.clone(),
            2,
        )
        .unwrap();
        let mut seq_table = e.to_table().unwrap();
        sequential.rebuild(&seq_table);
        let mut seq_cost = before;
        for &(a, b) in &swaps {
            seq_table.swap(a as usize, b as usize);
            seq_cost = sequential.apply_swap(&seq_table, a, b);
        }
        assert_eq!(batched, seq_cost);
        assert_eq!(table, seq_table);
        // Re-applying the same batch undoes the reversal exactly.
        let undone = objective.apply_disjoint_swaps(&mut table, &swaps);
        assert_eq!(undone, before);
        assert_eq!(table, e.to_table().unwrap());
    }

    #[test]
    fn rejected_moves_undo_exactly() {
        let guest = Grid::torus(shape(&[3, 4]));
        let host = Grid::mesh(shape(&[3, 4]));
        let e = embed(&guest, &host).unwrap();
        let workload = Workload::from_task_graph(&guest);
        let mut objective = MakespanObjective::new(Network::new(host), workload, 1).unwrap();
        let mut table = e.to_table().unwrap();
        let before = objective.rebuild(&table);
        table.swap(3, 9);
        objective.apply_swap(&table, 3, 9);
        table.swap(3, 9);
        let after = objective.apply_swap(&table, 3, 9);
        assert_eq!(before, after);
    }

    #[test]
    fn optimizer_never_worsens_the_makespan() {
        let guest = Grid::torus(shape(&[3, 4]));
        let host = Grid::mesh(shape(&[3, 4]));
        let e = embed(&guest, &host).unwrap();
        let workload = Workload::from_task_graph(&guest);
        let mut objective =
            MakespanObjective::new(Network::new(host.clone()), workload, 1).unwrap();
        let outcome = Optimizer::new(OptimizerConfig {
            seed: 5,
            steps: 400,
            ..OptimizerConfig::default()
        })
        .optimize(&e, &mut objective)
        .unwrap();
        assert!(outcome.report.best <= outcome.report.initial);
        assert!(outcome.embedding.is_injective());
        // The returned table reproduces the reported best cost.
        assert_eq!(objective.rebuild(&outcome.table), outcome.report.best);
    }

    #[test]
    fn oversized_schedules_are_typed_errors() {
        // pairs × rounds beyond u32::MAX would truncate the arbitration
        // message indices; the constructor must refuse, not wrap.
        let host = Grid::mesh(shape(&[2, 3]));
        let workload = Workload::from_task_graph(&Grid::ring(6).unwrap());
        let pairs = workload.pairs().len();
        let rounds = (u32::MAX as usize / pairs) + 1;
        let err = MakespanObjective::new(Network::new(host), workload, rounds)
            .err()
            .expect("oversized schedule must be rejected");
        assert_eq!(err, MakespanError::ScheduleTooLarge { pairs, rounds });
        assert!(err.to_string().contains("exceeds"));
    }

    #[test]
    fn zero_rounds_cost_nothing() {
        let guest = Grid::ring(6).unwrap();
        let host = Grid::mesh(shape(&[2, 3]));
        let workload = Workload::from_task_graph(&guest);
        let mut objective = MakespanObjective::new(Network::new(host), workload, 0).unwrap();
        let table: Vec<u64> = (0..6).collect();
        let cost = objective.rebuild(&table);
        assert_eq!(
            cost,
            Cost {
                primary: 0,
                secondary: 0
            }
        );
    }
}
