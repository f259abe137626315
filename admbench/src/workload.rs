//! The workloads: seeded inputs and the closed-loop client that drives
//! them.
//!
//! A [`Client`] stands for one controller that waits for each decision
//! before asking the next. It produces the request stream one [`Op`] at
//! a time and learns each [`Outcome`], so the stream depends only on the
//! seed and on the answers, which are a pure function of the flow set.
//! Replaying the same seed against the same program therefore replays
//! the same stream, which the traced run relies on.
//!
//! The stream is cut into rounds: a fixed pattern of operations, whose
//! writes adapt to the standing set (see [`Workload`]). A run stops only
//! between rounds.

use std::collections::VecDeque;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use traj_analysis::{analyze_ef, AnalysisConfig};
use traj_model::gen::{fat_tree, fat_tree_path, FatTreeParams};
use traj_model::{FlowId, FlowSet, Network, Path, SporadicFlow};

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// The soak's fat-tree at about 200 flows in one crossing component;
    /// what-ifs, admits and releases keep the set in a band.
    DenseChurn,
    /// The same topology grown until admission saturates; every release
    /// is followed by admits until one is rejected.
    DenseSaturated,
    /// Disjoint five-flow islands with generous deadlines; mostly
    /// what-ifs, which the screen answers alone.
    SparseIslands,
}

impl Workload {
    /// Every workload, in the order `BENCHMARK.json` lists them.
    pub const ALL: [Workload; 3] = [
        Workload::DenseChurn,
        Workload::DenseSaturated,
        Workload::SparseIslands,
    ];

    /// The workload's name on the command line.
    pub fn name(self) -> &'static str {
        match self {
            Workload::DenseChurn => "dense_churn",
            Workload::DenseSaturated => "dense_saturated",
            Workload::SparseIslands => "sparse_islands",
        }
    }

    /// Looks a workload up by name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    fn is_dense(self) -> bool {
        !matches!(self, Workload::SparseIslands)
    }

    /// Epochs of a run: each sets a fresh daemon up on an input of its
    /// own, and the timed decisions are split evenly over them. A dense
    /// run averages over many fat-trees drawn from its seed, since one
    /// draw's crossings move the decision cost by several percent. The
    /// set-ups, and with them the `init` and set-up timings, spread over
    /// the whole run instead of its first seconds; that is what the
    /// sparse run's epochs are for, as its 200 islands already average
    /// over many draws. The saturated run has fewer epochs than the
    /// churn run, since each first grows its set to saturation.
    pub fn epochs(self) -> u32 {
        match self {
            Workload::DenseChurn => 12,
            Workload::DenseSaturated => 10,
            Workload::SparseIslands => 8,
        }
    }
}

/// Input sizes. [`Scale::FULL`] is the benchmark; [`Scale::TINY`] lets
/// the test suite run every workload end to end in well under a second
/// of measurement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Scale {
    /// Fat-tree layout: pods, edge and aggregation switches per pod,
    /// core switches.
    pub tree: [u32; 4],
    /// Flows the dense generator is asked for (before any flow that
    /// would miss its deadline is dropped).
    pub dense_flows: u32,
    /// Islands of the sparse workload.
    pub islands: u32,
    /// Deadline of every generated flow: `deadline_factor × (cost +
    /// Lmax) × hops`.
    pub deadline_factor: i64,
}

impl Scale {
    /// The benchmark's sizes: the soak's fat-tree, 4 pods of 4 edge and
    /// 2 aggregation switches, 2 cores.
    pub const FULL: Scale = Scale {
        tree: [4, 4, 2, 2],
        dense_flows: 190,
        islands: 200,
        deadline_factor: DEADLINE_FACTOR,
    };
    /// Test-pass sizes: a small fat-tree whose tighter deadlines make it
    /// saturate at a couple of dozen flows.
    pub const TINY: Scale = Scale {
        tree: [2, 2, 1, 1],
        dense_flows: 10,
        islands: 6,
        deadline_factor: 8,
    };
}

/// The soak scenario's deadline template factor.
const DEADLINE_FACTOR: i64 = 25;
const LMIN: i64 = 1;
const LMAX: i64 = 2;
const PERIOD: (i64, i64) = (200, 800);
const COST: (i64, i64) = (1, 4);
const JITTER: (i64, i64) = (0, 4);
/// Flows per sparse island, and the leaves around each island's hub.
const ISLAND_FLOWS: u32 = 5;
const ISLAND_LEAVES: u32 = 4;
/// Candidates get ids from here on, clear of every initial flow.
const FIRST_CANDIDATE_ID: u32 = 1_000_000;
/// Consecutive rejections that end the saturated workload's growth.
const GROW_REJECTS: usize = 4;
/// Upper bound on growth admissions, so a generator change cannot make
/// set-up run away.
const GROW_CAP: usize = 400;
/// Admits after one release in the saturated workload, at most.
const REFILL_CAP: usize = 6;
/// Rounds run before timing starts, so lazy state is built.
const WARMUP_ROUNDS: usize = 3;
/// What-ifs per sparse round (followed by one admit and one release).
/// The first what-if after a write reads a freshly published view and
/// takes about three times as long as the others: with four per round
/// that slow quarter sits 25 points above the p50 and 15 below the p90.
const SPARSE_WHATIFS: usize = 4;

/// The soak's fat-tree generator settings (locality 0.7) on `scale`'s
/// layout.
fn fat_tree_params(scale: Scale) -> FatTreeParams {
    let [pods, edge_per_pod, agg_per_pod, core] = scale.tree;
    FatTreeParams {
        pods,
        edge_per_pod,
        agg_per_pod,
        core,
        flows: scale.dense_flows,
        locality: 0.7,
        period: PERIOD,
        cost: COST,
        jitter: JITTER,
        lmin: LMIN,
        lmax: LMAX,
        ..FatTreeParams::default()
    }
}

fn deadline(scale: Scale, cost: i64, hops: usize) -> i64 {
    scale.deadline_factor * (cost + LMAX) * hops as i64
}

/// A flow on `route` with parameters drawn from the template ranges.
fn draw_flow(rng: &mut StdRng, scale: Scale, id: u32, route: Vec<u32>) -> SporadicFlow {
    let period = rng.gen_range(PERIOD.0..=PERIOD.1);
    let cost = rng.gen_range(COST.0..=COST.1);
    let jitter = rng.gen_range(JITTER.0..=JITTER.1);
    let hops = route.len();
    let path = Path::from_ids(route).expect("generated routes are loop-free and non-empty");
    SporadicFlow::uniform(id, path, period, cost, jitter, deadline(scale, cost, hops))
        .expect("template parameters are positive")
}

/// Node ids of island `k`: its hub, then its leaves.
fn island_nodes(k: u32) -> (u32, [u32; ISLAND_LEAVES as usize]) {
    let base = k * (ISLAND_LEAVES + 1);
    let mut leaves = [0; ISLAND_LEAVES as usize];
    for (j, leaf) in leaves.iter_mut().enumerate() {
        *leaf = base + 2 + j as u32;
    }
    (base + 1, leaves)
}

/// A three-hop route `leaf → hub → leaf` inside island `k`: every flow
/// of an island shares the hub, no flow leaves its island.
fn island_route(rng: &mut StdRng, k: u32) -> Vec<u32> {
    let (hub, leaves) = island_nodes(k);
    let a = rng.gen_range(0..ISLAND_LEAVES);
    let mut b = rng.gen_range(0..ISLAND_LEAVES - 1);
    if b >= a {
        b += 1;
    }
    vec![leaves[a as usize], hub, leaves[b as usize]]
}

/// The workload's standing set before any request: the topology and
/// the flows the daemon is initialised with. Deterministic in `seed`.
pub fn initial_set(workload: Workload, scale: Scale, seed: u64) -> FlowSet {
    if workload.is_dense() {
        let set = fat_tree(seed, &fat_tree_params(scale)).expect("the fat-tree layout is valid");
        let flows: Vec<SporadicFlow> = set
            .flows()
            .iter()
            .cloned()
            .map(|mut f| {
                f.deadline = deadline(scale, f.max_cost(), f.path.len());
                f
            })
            .collect();
        let set = FlowSet::new(set.network().clone(), flows).expect("same flows, same network");
        // Only a schedulable set can stand. Dropping the flows that
        // miss keeps the rest schedulable: bounds only fall when
        // interference is taken away.
        let report = analyze_ef(&set, &AnalysisConfig::default());
        let keep: Vec<SporadicFlow> = set
            .flows()
            .iter()
            .zip(report.per_flow())
            .filter(|(_, r)| r.meets_deadline() == Some(true))
            .map(|(f, _)| f.clone())
            .collect();
        FlowSet::new(set.network().clone(), keep).expect("a fat-tree set keeps some flows")
    } else {
        let mut rng = StdRng::seed_from_u64(seed);
        let network = Network::uniform(scale.islands * (ISLAND_LEAVES + 1), LMIN, LMAX)
            .expect("island network is non-empty");
        let mut flows = Vec::new();
        for k in 0..scale.islands {
            for _ in 0..ISLAND_FLOWS {
                let id = flows.len() as u32 + 1;
                let route = island_route(&mut rng, k);
                flows.push(draw_flow(&mut rng, scale, id, route));
            }
        }
        FlowSet::new(network, flows).expect("island flows are valid")
    }
}

/// One request of the stream.
#[derive(Debug, Clone)]
pub enum Op {
    /// Evaluate a candidate without committing it.
    WhatIf(SporadicFlow),
    /// Admit a candidate (commits on success).
    Admit(SporadicFlow),
    /// Release a standing flow.
    Release(FlowId),
}

/// The request kinds, which latency is reported by.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OpKind {
    /// `whatif`.
    WhatIf = 0,
    /// `admit`.
    Admit = 1,
    /// `release`.
    Release = 2,
}

impl OpKind {
    /// All kinds, by index.
    pub const ALL: [OpKind; 3] = [OpKind::WhatIf, OpKind::Admit, OpKind::Release];

    /// The wire `op` name.
    pub fn name(self) -> &'static str {
        match self {
            OpKind::WhatIf => "whatif",
            OpKind::Admit => "admit",
            OpKind::Release => "release",
        }
    }
}

impl Op {
    /// The request kind.
    pub fn kind(&self) -> OpKind {
        match self {
            Op::WhatIf(_) => OpKind::WhatIf,
            Op::Admit(_) => OpKind::Admit,
            Op::Release(_) => OpKind::Release,
        }
    }
}

/// The answer to one request, as the client needs it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Outcome {
    /// Admitted (for a what-if: would be), with the candidate's bound.
    Admitted {
        /// The bound the answer carries.
        wcrt: i64,
    },
    /// Rejected: some flow would miss its deadline.
    Rejected,
    /// The flow was released.
    Released,
}

/// Where the stream is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Phase {
    /// Saturated workload only: admitting until the controller keeps
    /// rejecting.
    Grow,
    /// Whole rounds run before timing starts.
    Warmup,
    /// Measured rounds.
    Timed,
}

#[derive(Debug, Clone, Copy)]
enum Slot {
    WhatIf,
    Admit,
    Release,
    /// Dense churn: admit below the band's target, release above it.
    ChurnWrite,
    /// Saturated: admit; on success, admit again (up to the cap).
    Refill,
    /// Sparse: admit into island `k`.
    IslandAdmit(u32),
    /// Sparse: release island `k`'s oldest flow.
    IslandRelease(u32),
}

/// The closed-loop client.
pub struct Client {
    workload: Workload,
    scale: Scale,
    rng: StdRng,
    fat: FatTreeParams,
    /// The epoch's initial set.
    initial: FlowSet,
    /// The standing set as the client knows it, in the daemon's order
    /// (initial flows, then admissions appended, releases removed).
    standing: Vec<SporadicFlow>,
    /// Sparse: each island's flows, oldest first.
    island_members: Vec<VecDeque<FlowId>>,
    next_id: u32,
    /// Dense churn: the size the band is kept around.
    target: usize,
    phase: Phase,
    rounds_done: usize,
    grow_rejects: usize,
    grown: usize,
    refills: usize,
    pending: VecDeque<Slot>,
    /// The slot the last op came from, for `observe`.
    last: Option<Slot>,
}

/// The seed of epoch `e` of a run seeded by `seed`: output `e` of a
/// generator seeded by `seed`. Adding a stride to `seed` would not do:
/// the vendored `StdRng` steps its state by a fixed constant, so two
/// seeds a multiple of that constant apart give one stream shifted, and
/// the epochs would draw nearly the same flows.
fn epoch_seed(seed: u64, e: u32) -> u64 {
    let mut seeds = StdRng::seed_from_u64(seed);
    (0..=e)
        .map(|_| seeds.next_u64())
        .last()
        .expect("0..=e is never empty")
}

impl Client {
    /// A client for epoch `epoch` of a `workload` run seeded by `seed`:
    /// the epoch's input and request stream are drawn from the two. The
    /// daemon must be initialised with [`Self::initial`] before the
    /// first op.
    pub fn new(workload: Workload, scale: Scale, seed: u64, epoch: u32) -> Client {
        let seed = epoch_seed(seed, epoch);
        let initial = initial_set(workload, scale, seed);
        let mut island_members = vec![VecDeque::new(); scale.islands as usize];
        if !workload.is_dense() {
            for f in initial.flows() {
                let k = (f.path.nodes()[1].0 - 1) / (ISLAND_LEAVES + 1);
                island_members[k as usize].push_back(f.id);
            }
        }
        Client {
            workload,
            scale,
            rng: StdRng::seed_from_u64(seed ^ 0x005e_edc1_1ea7),
            fat: fat_tree_params(scale),
            standing: initial.flows().to_vec(),
            target: initial.len(),
            initial,
            island_members,
            next_id: FIRST_CANDIDATE_ID,
            phase: if workload == Workload::DenseSaturated {
                Phase::Grow
            } else {
                Phase::Warmup
            },
            rounds_done: 0,
            grow_rejects: 0,
            grown: 0,
            refills: 0,
            pending: VecDeque::new(),
            last: None,
        }
    }

    /// The epoch's initial set.
    pub fn initial(&self) -> &FlowSet {
        &self.initial
    }

    /// The workload.
    pub fn workload(&self) -> Workload {
        self.workload
    }

    /// The phase of the next op.
    pub fn phase(&self) -> Phase {
        self.phase
    }

    /// Whether the next op starts a new round.
    pub fn at_round_start(&self) -> bool {
        self.phase != Phase::Grow && self.pending.is_empty()
    }

    /// The standing flows, in the daemon's order.
    pub fn standing(&self) -> &[SporadicFlow] {
        &self.standing
    }

    /// The topology.
    pub fn network(&self) -> &Network {
        self.initial.network()
    }

    fn fresh(&mut self) -> SporadicFlow {
        let id = self.next_id;
        self.next_id += 1;
        let route = fat_tree_path(&mut self.rng, &self.fat);
        draw_flow(&mut self.rng, self.scale, id, route)
    }

    fn fresh_in_island(&mut self, k: u32) -> SporadicFlow {
        let id = self.next_id;
        self.next_id += 1;
        let route = island_route(&mut self.rng, k);
        draw_flow(&mut self.rng, self.scale, id, route)
    }

    fn random_standing(&mut self) -> FlowId {
        let i = self.rng.gen_range(0..self.standing.len());
        self.standing[i].id
    }

    fn plan_round(&mut self) {
        let slots: Vec<Slot> = match self.workload {
            Workload::DenseChurn => vec![Slot::WhatIf, Slot::Admit, Slot::WhatIf, Slot::ChurnWrite],
            Workload::DenseSaturated => {
                vec![
                    Slot::Release,
                    Slot::Release,
                    Slot::Refill,
                    Slot::WhatIf,
                    Slot::WhatIf,
                ]
            }
            Workload::SparseIslands => {
                let k = self.rng.gen_range(0..self.scale.islands);
                let mut s = vec![Slot::WhatIf; SPARSE_WHATIFS];
                s.push(Slot::IslandAdmit(k));
                s.push(Slot::IslandRelease(k));
                s
            }
        };
        self.pending.extend(slots);
    }

    /// The next request.
    pub fn next_op(&mut self) -> Op {
        if self.phase == Phase::Grow {
            self.last = Some(Slot::Admit);
            return Op::Admit(self.fresh());
        }
        if self.pending.is_empty() {
            self.plan_round();
        }
        let slot = self
            .pending
            .pop_front()
            .expect("a planned round is never empty");
        self.last = Some(slot);
        match slot {
            Slot::WhatIf => {
                if self.workload.is_dense() {
                    Op::WhatIf(self.fresh())
                } else {
                    let k = self.rng.gen_range(0..self.scale.islands);
                    Op::WhatIf(self.fresh_in_island(k))
                }
            }
            Slot::Admit | Slot::Refill => Op::Admit(self.fresh()),
            Slot::Release => Op::Release(self.random_standing()),
            Slot::ChurnWrite => {
                if self.standing.len() > self.target {
                    Op::Release(self.random_standing())
                } else {
                    Op::Admit(self.fresh())
                }
            }
            Slot::IslandAdmit(k) => Op::Admit(self.fresh_in_island(k)),
            Slot::IslandRelease(k) => {
                let id = *self.island_members[k as usize]
                    .front()
                    .expect("an island never empties: each release follows an admit");
                Op::Release(id)
            }
        }
    }

    /// Learns the answer to `op`, the op [`Self::next_op`] returned last.
    pub fn observe(&mut self, op: &Op, outcome: &Outcome) {
        let slot = self.last.take().expect("observe follows next_op");
        match (op, outcome) {
            (Op::Admit(f), Outcome::Admitted { .. }) => {
                self.standing.push(f.clone());
                if let Slot::IslandAdmit(k) = slot {
                    self.island_members[k as usize].push_back(f.id);
                }
            }
            (Op::Release(id), Outcome::Released) => {
                self.standing.retain(|f| f.id != *id);
                if let Slot::IslandRelease(k) = slot {
                    self.island_members[k as usize].retain(|m| m != id);
                }
            }
            _ => {}
        }
        let admitted = matches!(outcome, Outcome::Admitted { .. });
        match self.phase {
            Phase::Grow => {
                self.grown += 1;
                self.grow_rejects = if admitted { 0 } else { self.grow_rejects + 1 };
                if self.grow_rejects >= GROW_REJECTS || self.grown >= GROW_CAP {
                    self.phase = Phase::Warmup;
                }
                return;
            }
            Phase::Warmup | Phase::Timed => {}
        }
        if let Slot::Refill = slot {
            if admitted && self.refills + 1 < REFILL_CAP {
                self.refills += 1;
                self.pending.push_front(Slot::Refill);
            } else {
                self.refills = 0;
            }
        }
        if self.pending.is_empty() {
            self.rounds_done += 1;
            if self.rounds_done >= WARMUP_ROUNDS {
                self.phase = Phase::Timed;
            }
        }
    }
}
