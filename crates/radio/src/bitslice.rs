//! The radio engine: bit-sliced, word-parallel simulation of up to 64
//! trials at once.
//!
//! Radio round resolution is pure boolean algebra over
//! informed/transmitting/collision bits, so the engine packs up to 64
//! **independent trials** into the bit-lanes of a `u64` and resolves them
//! word-parallel: lane `l` of every word belongs to trial `l`, and one
//! AND/OR/ANDNOT pass over a word advances all 64 trials at once.
//! [`run_lanes_in`] is the crate's one collision round; a single trial is a
//! 1-lane batch.
//!
//! # Lane semantics
//!
//! * State is **lane-major**: [`LaneWorkspace`] holds one `u64` per vertex
//!   for each of the informed / transmitter / collision masks; bit `l` of
//!   word `v` is trial `l`'s bit for vertex `v`.
//! * Each lane runs under its own RNG stream, seeded from the caller's
//!   per-lane seed slice (the scenario runner derives these with
//!   `derive_seed(trial_seed, 1)`), so lane `k`'s trial depends on
//!   `seeds[k]` alone: not on the batch width, nor on the other lanes.
//! * Lanes retire independently: when a trial completes (and the simulator
//!   is configured to stop on completion) its bit leaves the `live` mask,
//!   its trajectory stops growing, and its RNG stream stops being consumed.
//!
//! # Collision kernel
//!
//! Per round, for each transmitting vertex `v` with lane mask `t`, every
//! neighbor `u` accumulates `twice[u] |= once[u] & t; once[u] |= t`. A
//! vertex then receives in the lanes `once & !twice & !transmit` — heard
//! exactly one transmitter and was not itself transmitting, the unique
//! neighborhood `Γ¹(T)` evaluated in 64 trials per word operation.
//!
//! Only transmissions that can still inform someone are accumulated: `t` is
//! the protocol's word ANDed with `open[v]`, the lanes in which `v` has an
//! uninformed neighbor ([`LaneView::open`]). A dropped transmission reaches
//! only vertices informed in that lane, which cannot receive there anyway,
//! so every receiver is unchanged. `open` only ever loses bits, and only
//! next to a newly informed vertex: each round, the neighbors of newly
//! informed vertices are recomputed, and nothing else.
//!
//! # Protocols
//!
//! Every protocol implements [`LaneProtocol`], filling one transmitter word
//! per vertex each round. Decay
//! ([`crate::protocols::decay::DecayProtocol`]) transposes 64×64 bit tiles
//! of the eligibility matrix, and of its open part, into per-lane vertex
//! masks and draws each lane's Bernoulli decisions in bulk from its own
//! stream, computing only the draws of open vertices. The
//! deterministic protocols behave identically in every lane: flooding and
//! round-robin write their words straight from the informed masks, and the
//! spokesman schedule reads the lowest live lane's informed set, solves
//! once, and sets its chosen vertices' words to the live mask.
//!
//! The crate's tests hold every lane to a scalar model of the same round
//! (one trial over `VertexSet`s, receivers from
//! `wx_graph::neighborhood::unique_neighborhood`, one ascending `gen_bool`
//! decay draw per informed vertex), bit for bit.

use crate::simulator::{RadioSimulator, TrialOutcome};
use std::cell::RefCell;
use wx_graph::{Graph, GraphView, Vertex};

/// Maximum number of trials per bit-sliced batch (the lanes of a `u64`).
pub const MAX_LANES: usize = 64;

/// Read-only per-round view handed to [`LaneProtocol`] implementations.
///
/// Distributed protocols should only consult what a real processor would
/// know (its own informed status, the round number, global parameters such
/// as `n`); the centralized spokesman schedule reads the whole view. The
/// engine does not police this — the distinction is documented per
/// protocol.
#[derive(Debug)]
pub struct LaneView<'a, G: GraphView + ?Sized = Graph> {
    /// The underlying network.
    pub graph: &'a G,
    /// The current round number (the first round is 0).
    pub round: usize,
    /// Mask of lanes still running; retired lanes must neither transmit nor
    /// consume their RNG streams.
    pub live: u64,
    /// Lane-major informed state: bit `l` of `informed[v]` is set iff vertex
    /// `v` is informed in trial `l`.
    pub informed: &'a [u64],
    /// Lane-major open state: bit `l` of `open[v]` is set iff vertex `v` has
    /// a neighbor that is uninformed in trial `l` (for `l` below the batch
    /// width). A transmission from `v` in a lane where it is not open
    /// cannot inform anyone, so the engine drops it.
    pub open: &'a [u64],
}

/// A broadcast protocol, generic over the graph backend it broadcasts on
/// (any [`GraphView`]; defaults to the CSR [`Graph`]): one transmitter mask
/// per vertex word, covering every lane of a batch.
pub trait LaneProtocol<G: GraphView + ?Sized = Graph> {
    /// Called once before a batch starts. `seeds[l]` seeds lane `l`'s RNG
    /// stream; the batch width is `seeds.len()`. Deterministic protocols
    /// keep no per-batch state and need not override it.
    fn reset(&mut self, _graph: &G, _seeds: &[u64]) {}

    /// Chooses the transmitters for this round, overwriting `transmit`
    /// (one word per vertex, all zero before round 0). On return, bit
    /// `(v, l)` may be set only if vertex `v` is informed in lane `l` and
    /// lane `l` is live; **every** word of `transmit` must be consistent
    /// with this round (stale bits from the previous round must be cleared
    /// by the implementation). Bits outside `view.open` may be left clear:
    /// the engine ignores them, since such a transmission reaches only
    /// informed neighbors.
    fn fill_transmitters(&mut self, view: &LaneView<'_, G>, transmit: &mut [u64]);
}

// A boxed protocol is a protocol, so the by-name factory
// ([`crate::ProtocolKind::build`]) composes with every caller.
impl<G: GraphView + ?Sized, P: LaneProtocol<G> + ?Sized> LaneProtocol<G> for Box<P> {
    fn reset(&mut self, graph: &G, seeds: &[u64]) {
        (**self).reset(graph, seeds);
    }
    fn fill_transmitters(&mut self, view: &LaneView<'_, G>, transmit: &mut [u64]) {
        (**self).fill_transmitters(view, transmit);
    }
}

/// Reusable lane-major state for one bit-sliced batch of up to 64 trials.
///
/// A lane workspace is tied to no particular graph — [`run_lanes_in`]
/// grows it on demand, so one workspace serves batch after batch without
/// reallocating. After a run it retains every per-lane trajectory
/// (per-round informed counts, per-vertex first-informed rounds) until the
/// next run overwrites them.
#[derive(Debug)]
pub struct LaneWorkspace {
    /// Number of lanes (trials) of the last run.
    lanes: usize,
    /// Completion target of the last run (reachable vertices).
    target: usize,
    /// Lane-major informed bits, one word per vertex.
    informed: Vec<u64>,
    /// Lane-major open bits ([`LaneView::open`]), one word per vertex.
    open: Vec<u64>,
    /// Vertices whose `open` word may have lost bits this round, in its
    /// first entries; sized `n + 1`, so a branch-free append never
    /// overflows.
    stale: Vec<usize>,
    /// `is_stale[v]` iff `v` is among this round's stale vertices.
    is_stale: Vec<bool>,
    /// This round's transmitter mask, filled by the protocol.
    transmit: Vec<u64>,
    /// Collision accumulator: lanes in which ≥ 1 neighbor transmitted.
    once: Vec<u64>,
    /// Collision accumulator: lanes in which ≥ 2 neighbors transmitted.
    twice: Vec<u64>,
    /// Vertices with a nonzero `once` word this round (targeted clearing).
    touched: Vec<usize>,
    /// `first_informed[v * lanes + l]` = round lane `l` first informed
    /// vertex `v`, or `u32::MAX` if it never did. Sized by the batch's lane
    /// count, so a 1-lane batch holds and clears 4 bytes per vertex.
    first_informed: Vec<u32>,
    /// Per-lane informed counts.
    informed_count: [usize; MAX_LANES],
    /// Per-lane informed-count trajectories (`[lane][round]`).
    informed_per_round: Vec<Vec<usize>>,
    /// Per-lane completion rounds.
    completed_at: [Option<usize>; MAX_LANES],
}

impl Default for LaneWorkspace {
    fn default() -> Self {
        LaneWorkspace::new(0)
    }
}

impl LaneWorkspace {
    /// Creates a workspace pre-sized for graphs of `n` vertices (the
    /// per-lane first-informed rounds are sized per batch).
    pub fn new(n: usize) -> Self {
        LaneWorkspace {
            lanes: 0,
            target: 0,
            informed: vec![0; n],
            open: vec![0; n],
            stale: vec![0; n + 1],
            is_stale: vec![false; n],
            transmit: vec![0; n],
            once: vec![0; n],
            twice: vec![0; n],
            touched: Vec::new(),
            first_informed: Vec::new(),
            informed_count: [0; MAX_LANES],
            informed_per_round: (0..MAX_LANES).map(|_| Vec::new()).collect(),
            completed_at: [None; MAX_LANES],
        }
    }

    fn reset<G: GraphView + ?Sized>(
        &mut self,
        graph: &G,
        source: Vertex,
        lanes: usize,
        target: usize,
    ) {
        let n = graph.num_vertices();
        self.lanes = lanes;
        self.target = target;
        for buf in [
            &mut self.informed,
            &mut self.transmit,
            &mut self.once,
            &mut self.twice,
        ] {
            buf.resize(n, 0);
            buf[..n].iter_mut().for_each(|w| *w = 0);
        }
        self.first_informed.clear();
        self.first_informed.resize(n * lanes, u32::MAX);
        self.touched.clear();
        self.informed[source] = live_mask(lanes);
        // Only the source is informed: a vertex is open in every lane iff
        // it has a neighbor other than the source.
        self.open.resize(n, 0);
        for (v, word) in self.open[..n].iter_mut().enumerate() {
            let open = graph.neighbors_iter(v).any(|u| u != source);
            *word = if open { live_mask(lanes) } else { 0 };
        }
        self.is_stale.resize(n, false);
        self.stale.resize(n + 1, 0);
        for l in 0..MAX_LANES {
            self.informed_count[l] = usize::from(l < lanes);
            self.informed_per_round[l].clear();
            if l < lanes {
                self.first_informed[source * lanes + l] = 0;
                self.informed_per_round[l].push(1);
            }
            self.completed_at[l] = None;
        }
    }

    /// Number of lanes (trials) of the last run.
    pub fn lanes(&self) -> usize {
        self.lanes
    }

    /// The constant-size summary of lane `lane`'s trial.
    pub fn lane_outcome(&self, lane: usize) -> TrialOutcome {
        assert!(lane < self.lanes, "lane {lane} out of range");
        TrialOutcome {
            reachable: self.target,
            informed: self.informed_count[lane],
            completed_at: self.completed_at[lane],
            rounds_simulated: self.informed_per_round[lane].len() - 1,
        }
    }

    /// Lane `lane`'s per-round informed counts (`[0] == 1`).
    #[cfg(test)]
    pub(crate) fn lane_informed_per_round(&self, lane: usize) -> &[usize] {
        assert!(lane < self.lanes, "lane {lane} out of range");
        &self.informed_per_round[lane]
    }

    /// The round at which lane `lane` first informed vertex `v`, or `None`
    /// if it never did.
    pub fn lane_first_informed_round(&self, lane: usize, v: Vertex) -> Option<usize> {
        assert!(lane < self.lanes, "lane {lane} out of range");
        let r = self.first_informed[v * self.lanes + lane];
        (r != u32::MAX).then_some(r as usize)
    }

    /// The number of rounds lane `lane` needed to inform at least `fraction`
    /// of `reachable` vertices, or `None` if that never happened.
    pub fn lane_rounds_to_reach_fraction(
        &self,
        lane: usize,
        fraction: f64,
        reachable: usize,
    ) -> Option<usize> {
        crate::metrics::rounds_to_reach_fraction(
            &self.informed_per_round[lane],
            fraction,
            reachable,
        )
    }
}

/// The live-lane mask for a batch of `lanes` trials.
#[inline]
fn live_mask(lanes: usize) -> u64 {
    if lanes >= MAX_LANES {
        u64::MAX
    } else {
        (1u64 << lanes) - 1
    }
}

/// Runs one bit-sliced batch: `seeds.len()` independent trials (at most 64)
/// of `protocol` on `sim`'s graph, all lanes advancing together through the
/// word-parallel collision kernel. Results are read back per lane from `ws`
/// ([`LaneWorkspace::lane_outcome`] and friends); lane `l` is the trial
/// seeded with `seeds[l]`.
///
/// # Panics
/// Panics if `seeds` is empty or longer than [`MAX_LANES`].
pub fn run_lanes_in<G: GraphView + ?Sized>(
    sim: &RadioSimulator<'_, G>,
    protocol: &mut dyn LaneProtocol<G>,
    seeds: &[u64],
    ws: &mut LaneWorkspace,
) {
    let lanes = seeds.len();
    assert!(
        (1..=MAX_LANES).contains(&lanes),
        "lane batch must hold 1..=64 trials, got {lanes}"
    );
    let graph = sim.graph();
    let config = sim.config();
    let n = graph.num_vertices();
    let target = sim.reachable_count();
    ws.reset(graph, sim.source(), lanes, target);
    protocol.reset(graph, seeds);
    let mut live = live_mask(lanes);
    let _span = wx_trace::span("radio.lanes");
    let mut word_rounds = 0u64;

    for round in 0..config.max_rounds {
        word_rounds = round as u64 + 1;
        {
            let view = LaneView {
                graph,
                round,
                live,
                informed: &ws.informed,
                open: &ws.open,
            };
            protocol.fill_transmitters(&view, &mut ws.transmit);
        }

        // Collision accumulation: for every transmitting vertex, every
        // neighbor records which lanes heard one (`once`) or more (`twice`)
        // transmitters. Only lanes where the transmitter is open count: in
        // the others every neighbor is informed already.
        ws.touched.clear();
        for v in 0..n {
            debug_assert_eq!(
                ws.transmit[v] & !(ws.informed[v] & live),
                0,
                "a protocol transmitted from uninformed or retired lanes"
            );
            let t = ws.transmit[v] & ws.open[v];
            if t == 0 {
                continue;
            }
            for u in graph.neighbors_iter(v) {
                if ws.once[u] == 0 {
                    ws.touched.push(u);
                }
                ws.twice[u] |= ws.once[u] & t;
                ws.once[u] |= t;
            }
        }

        // Receivers: exactly one transmitting neighbor, not itself
        // transmitting (`Γ¹(T)` per lane); the newly informed among them
        // update counts and first-informed rounds, and mark their neighbors
        // stale. Each neighbor was open in the new lanes (this vertex was
        // its uninformed neighbor there), so the marking needs no test.
        let mut stale = 0;
        for i in 0..ws.touched.len() {
            let u = ws.touched[i];
            let recv = ws.once[u] & !ws.twice[u] & !ws.transmit[u];
            ws.once[u] = 0;
            ws.twice[u] = 0;
            let new_bits = recv & !ws.informed[u] & live;
            if new_bits != 0 {
                ws.informed[u] |= new_bits;
                let mut b = new_bits;
                while b != 0 {
                    let l = b.trailing_zeros() as usize;
                    ws.first_informed[u * lanes + l] = (round + 1) as u32;
                    ws.informed_count[l] += 1;
                    b &= b - 1;
                }
                for w in graph.neighbors_iter(u) {
                    debug_assert_ne!(ws.open[w] & new_bits, 0);
                    ws.stale[stale] = w;
                    stale += usize::from(!ws.is_stale[w]);
                    ws.is_stale[w] = true;
                }
            }
        }
        // `open` only ever loses bits, and only at the stale vertices, so
        // recomputing those equals recomputing every word.
        let lanes_mask = live_mask(lanes);
        for &w in &ws.stale[..stale] {
            ws.is_stale[w] = false;
            ws.open[w] = graph
                .neighbors_iter(w)
                .fold(0, |open, u| open | !ws.informed[u])
                & lanes_mask;
        }

        // Per-lane bookkeeping: trajectories grow only for live lanes, and
        // the first completion round is pinned (with stop_when_complete =
        // false lanes keep simulating but completed_at must not advance).
        let mut still = live;
        let mut lb = live;
        while lb != 0 {
            let l = lb.trailing_zeros() as usize;
            lb &= lb - 1;
            ws.informed_per_round[l].push(ws.informed_count[l]);
            if ws.informed_count[l] == target && ws.completed_at[l].is_none() {
                ws.completed_at[l] = Some(round + 1);
                wx_trace::event_value("radio.lane_retired", (round + 1) as u64);
                if config.stop_when_complete {
                    still &= !(1u64 << l);
                }
            }
        }
        live = still;
        if live == 0 {
            break;
        }
    }

    // Scheduling-independent work counts: per-lane simulated rounds and
    // final informed counts depend on each lane's seed alone; the
    // lane-occupancy pair (`lane_rounds` is the paid word-round capacity,
    // whose ratio against `rounds_simulated` is the batch's useful
    // occupancy) depends on the batch.
    let mut rounds_total = 0u64;
    let mut informed_total = 0u64;
    let mut completed = 0u64;
    for l in 0..lanes {
        rounds_total += (ws.informed_per_round[l].len() - 1) as u64;
        informed_total += ws.informed_count[l] as u64;
        if ws.completed_at[l].is_some() {
            completed += 1;
        }
    }
    wx_trace::count(wx_trace::CounterId::RadioRoundsSimulated, rounds_total);
    wx_trace::count(wx_trace::CounterId::RadioInformedFinal, informed_total);
    wx_trace::count(
        wx_trace::CounterId::RadioLaneRounds,
        word_rounds * lanes as u64,
    );
    wx_trace::count(wx_trace::CounterId::RadioLanesCompleted, completed);
}

/// Allocating convenience wrapper over [`run_lanes_in`]: runs one batch in a
/// fresh workspace and returns the per-lane outcomes in lane order.
pub fn run_lanes<G: GraphView + ?Sized>(
    sim: &RadioSimulator<'_, G>,
    protocol: &mut dyn LaneProtocol<G>,
    seeds: &[u64],
) -> Vec<TrialOutcome> {
    let mut ws = LaneWorkspace::new(sim.graph().num_vertices());
    run_lanes_in(sim, protocol, seeds, &mut ws);
    (0..seeds.len()).map(|l| ws.lane_outcome(l)).collect() // wx-allow(hot-path-alloc): one-shot convenience wrapper; the hot loop is `run_lanes_in`
}

/// Transposes a 64×64 bit matrix in place: bit `j` of `a[i]` moves to bit
/// `i` of `a[j]` (the classical Hacker's Delight block-swap network).
pub(crate) fn transpose64(a: &mut [u64; 64]) {
    let mut j = 32usize;
    let mut m = 0x0000_0000_FFFF_FFFFu64;
    while j != 0 {
        let mut k = 0usize;
        while k < 64 {
            let t = ((a[k] >> j) ^ a[k + j]) & m;
            a[k] ^= t << j;
            a[k + j] ^= t;
            k = (k + j + 1) & !j;
        }
        j >>= 1;
        m ^= m << j;
    }
}

thread_local! {
    /// One lane workspace per thread, shared by every batch executed on
    /// that thread.
    static THREAD_LANE_WORKSPACE: RefCell<LaneWorkspace> = RefCell::new(LaneWorkspace::new(0));
}

/// Runs `f` with this thread's shared [`LaneWorkspace`], so every batch a
/// thread runs reuses one workspace.
///
/// # Panics
/// Panics if `f` re-enters `with_thread_lane_workspace` on the same thread.
pub fn with_thread_lane_workspace<R>(f: impl FnOnce(&mut LaneWorkspace) -> R) -> R {
    THREAD_LANE_WORKSPACE.with(|cell| {
        let mut ws = cell.borrow_mut();
        f(&mut ws)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::oracle::{self, Trial};
    use crate::protocols::decay::DecayProtocol;
    use crate::protocols::ProtocolKind;
    use crate::simulator::SimulatorConfig;
    use rand::Rng;
    use wx_graph::random::{derive_seed, rng_from_seed};

    #[test]
    fn transpose64_matches_naive() {
        let mut rng = rng_from_seed(99);
        let mut a = [0u64; 64];
        for w in a.iter_mut() {
            *w = rand::RngCore::next_u64(&mut rng);
        }
        let mut t = a;
        transpose64(&mut t);
        for (i, &row) in a.iter().enumerate() {
            for (j, &col) in t.iter().enumerate() {
                assert_eq!((col >> i) & 1, (row >> j) & 1, "({i}, {j})");
            }
        }
        // involution
        transpose64(&mut t);
        assert_eq!(t, a);
    }

    /// Every lane of the last batch in `ws` equals the oracle's decay trial
    /// under the lane's seed.
    fn assert_decay_lanes_match_oracle<G: GraphView + ?Sized>(
        sim: &RadioSimulator<'_, G>,
        ws: &LaneWorkspace,
        seeds: &[u64],
    ) {
        let n = sim.graph().num_vertices();
        for (lane, &seed) in seeds.iter().enumerate() {
            assert_eq!(
                Trial::of_lane(ws, lane, n),
                oracle::run(sim, ProtocolKind::Decay, seed),
                "lane {lane} seed {seed}"
            );
        }
    }

    #[test]
    fn decay_lanes_are_bit_exact_against_scalar_runs() {
        let g = wx_constructions::families::random_regular_graph(80, 4, 3).unwrap();
        let sim = RadioSimulator::new(&g, 0, SimulatorConfig::default());
        let seeds: Vec<u64> = (0..64).map(|t| derive_seed(42, t)).collect();
        let mut ws = LaneWorkspace::new(0);
        run_lanes_in(&sim, &mut DecayProtocol::default(), &seeds, &mut ws);
        assert_decay_lanes_match_oracle(&sim, &ws, &seeds);
    }

    #[test]
    fn partial_batches_match_scalar_runs() {
        let g = wx_constructions::families::random_regular_graph(66, 4, 9).unwrap();
        let sim = RadioSimulator::new(&g, 5, SimulatorConfig::default());
        let mut ws = LaneWorkspace::new(0);
        for lanes in [1usize, 2, 7, 33] {
            let seeds: Vec<u64> = (0..lanes as u64).map(|t| derive_seed(7, t)).collect();
            run_lanes_in(&sim, &mut DecayProtocol::default(), &seeds, &mut ws);
            assert_eq!(ws.lanes(), lanes);
            assert_decay_lanes_match_oracle(&sim, &ws, &seeds);
        }
    }

    #[test]
    fn lanes_match_scalar_without_early_stopping() {
        let g = wx_constructions::families::grid_graph(5, 5).unwrap();
        let cfg = SimulatorConfig {
            max_rounds: 40,
            stop_when_complete: false,
        };
        let sim = RadioSimulator::new(&g, 0, cfg);
        let seeds: Vec<u64> = (0..8).map(|t| derive_seed(21, t)).collect();
        let mut ws = LaneWorkspace::new(0);
        run_lanes_in(&sim, &mut DecayProtocol::default(), &seeds, &mut ws);
        assert_decay_lanes_match_oracle(&sim, &ws, &seeds);
        for lane in 0..seeds.len() {
            // all lanes simulated the full horizon
            assert_eq!(ws.lane_outcome(lane).rounds_simulated, 40);
        }
    }

    #[test]
    fn disconnected_graphs_complete_on_the_reachable_component() {
        let g = Graph::from_edges(6, [(0, 1), (1, 2), (3, 4)]).unwrap();
        let sim = RadioSimulator::new(&g, 0, SimulatorConfig::default());
        let seeds: Vec<u64> = (0..5).map(|t| derive_seed(2, t)).collect();
        let outcomes = run_lanes(&sim, &mut DecayProtocol::default(), &seeds);
        for (lane, (&seed, outcome)) in seeds.iter().zip(outcomes.iter()).enumerate() {
            assert_eq!(outcome.reachable, 3, "lane {lane}");
            assert_eq!(
                *outcome,
                oracle::run(&sim, ProtocolKind::Decay, seed).outcome
            );
        }
    }

    #[test]
    fn workspace_reuse_across_graph_sizes_is_clean() {
        let small = wx_constructions::families::grid_graph(3, 3).unwrap();
        let big = wx_constructions::families::random_regular_graph(70, 4, 1).unwrap();
        let mut ws = LaneWorkspace::new(0);
        for g in [&big, &small, &big] {
            let sim = RadioSimulator::new(g, 0, SimulatorConfig::default());
            let seeds: Vec<u64> = (0..10).map(|t| derive_seed(4, t)).collect();
            run_lanes_in(&sim, &mut DecayProtocol::default(), &seeds, &mut ws);
            assert_decay_lanes_match_oracle(&sim, &ws, &seeds);
        }
    }

    #[test]
    fn workspace_reuse_across_lane_counts_is_clean() {
        // `first_informed` is strided by the batch's lane count: a 1-lane
        // batch between two full ones must neither read stale rounds nor
        // leave any behind. A short horizon leaves vertices uninformed, so
        // stale entries would show.
        let g = wx_constructions::families::random_regular_graph(90, 4, 6).unwrap();
        let config = SimulatorConfig {
            max_rounds: 4,
            stop_when_complete: true,
        };
        let sim = RadioSimulator::new(&g, 2, config);
        let mut ws = LaneWorkspace::new(0);
        for (batch, lanes) in [64u64, 1, 64].into_iter().enumerate() {
            let seeds: Vec<u64> = (0..lanes)
                .map(|t| derive_seed(31 + batch as u64, t))
                .collect();
            run_lanes_in(&sim, &mut DecayProtocol::default(), &seeds, &mut ws);
            assert_eq!(ws.lanes(), seeds.len());
            assert_decay_lanes_match_oracle(&sim, &ws, &seeds);
        }
    }

    #[test]
    fn per_lane_seed_streams_are_independent() {
        // Lane seeds come from `derive_seed(base, trial)`: the derivation
        // must not collide over realistic trial ranges (a collision would
        // silently replay one RNG stream in two "independent" trials)...
        for base in [0u64, 0xBE, 77, u64::MAX] {
            let mut seeds = std::collections::HashSet::new();
            for trial in 0..4096u64 {
                assert!(
                    seeds.insert(derive_seed(base, trial)),
                    "derive_seed({base}, {trial}) collided with an earlier trial"
                );
            }
        }
        // ...and the per-lane streams must actually diverge: 64 decay lanes
        // on one graph cannot all finish in the same round.
        let g = wx_constructions::families::random_regular_graph(96, 4, 5).unwrap();
        let sim = RadioSimulator::new(&g, 0, SimulatorConfig::default());
        let seeds: Vec<u64> = (0..64).map(|t| derive_seed(0xBE, t)).collect();
        let outcomes = run_lanes(&sim, &mut DecayProtocol::default(), &seeds);
        let first = outcomes[0].completed_at;
        assert!(
            outcomes.iter().any(|o| o.completed_at != first),
            "all 64 lanes completed at {first:?} — lane streams are not independent"
        );
    }

    #[test]
    fn multi_tile_decay_lanes_match_the_oracle() {
        // 700 vertices are 11 tiles, and 64 lanes of random_regular(700, 8)
        // draw enough per lane-round to fill whole 16-block batches of the
        // ChaCha kernel, with skipped blocks between them.
        let g = wx_constructions::families::random_regular_graph(700, 8, 12).unwrap();
        let seeds: Vec<u64> = (0..64).map(|t| derive_seed(700, t)).collect();
        let mut ws = LaneWorkspace::new(0);
        for config in [
            SimulatorConfig::default(),
            SimulatorConfig {
                max_rounds: 90,
                stop_when_complete: false,
            },
        ] {
            let sim = RadioSimulator::new(&g, 3, config);
            run_lanes_in(&sim, &mut DecayProtocol::default(), &seeds, &mut ws);
            assert_decay_lanes_match_oracle(&sim, &ws, &seeds);
        }
    }

    /// Wraps a protocol and asserts, every round, that each `open` word is
    /// the brute-force OR of the neighbors' uninformed bits over the batch's
    /// lanes.
    struct CheckOpen<P> {
        inner: P,
        lanes: usize,
        rounds: usize,
    }

    impl<G: GraphView + ?Sized, P: LaneProtocol<G>> LaneProtocol<G> for CheckOpen<P> {
        fn reset(&mut self, graph: &G, seeds: &[u64]) {
            self.lanes = seeds.len();
            self.inner.reset(graph, seeds);
        }

        fn fill_transmitters(&mut self, view: &LaneView<'_, G>, transmit: &mut [u64]) {
            for v in 0..view.graph.num_vertices() {
                let open = view
                    .graph
                    .neighbors_iter(v)
                    .fold(0, |open, u| open | !view.informed[u])
                    & live_mask(self.lanes);
                assert_eq!(view.open[v], open, "round {} vertex {v}", view.round);
            }
            self.rounds += 1;
            self.inner.fill_transmitters(view, transmit);
        }
    }

    #[test]
    fn open_words_equal_the_brute_force_or_every_round() {
        for seed in 0..12u64 {
            // 30 vertices, of which only the first 24 carry edges: the
            // last six, and any vertex no edge reaches, are isolated.
            let mut rng = rng_from_seed(seed);
            let edges: Vec<(usize, usize)> = (0..40)
                .map(|_| (rng.gen_range(0..24), rng.gen_range(0..24)))
                .filter(|(u, v)| u != v)
                .collect();
            let g = Graph::from_edges(30, edges).unwrap();
            for stop_when_complete in [true, false] {
                let config = SimulatorConfig {
                    max_rounds: 30,
                    stop_when_complete,
                };
                let sim = RadioSimulator::new(&g, 0, config);
                let mut ws = LaneWorkspace::new(0);
                for kind in [
                    ProtocolKind::Decay,
                    ProtocolKind::NaiveFlooding,
                    ProtocolKind::Spokesman,
                ] {
                    for lanes in [1u64, 5, 64] {
                        let seeds: Vec<u64> = (0..lanes).map(|t| derive_seed(seed, t)).collect();
                        let mut protocol = CheckOpen {
                            inner: kind.build(),
                            lanes: 0,
                            rounds: 0,
                        };
                        run_lanes_in(&sim, &mut protocol, &seeds, &mut ws);
                        assert!(protocol.rounds > 0, "{kind} seed {seed}");
                    }
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "1..=64")]
    fn oversized_batches_are_rejected() {
        let g = wx_constructions::families::grid_graph(2, 2).unwrap();
        let sim = RadioSimulator::new(&g, 0, SimulatorConfig::default());
        let seeds = vec![0u64; 65];
        run_lanes(&sim, &mut DecayProtocol::default(), &seeds);
    }
}
