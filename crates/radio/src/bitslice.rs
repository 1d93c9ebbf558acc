//! Bit-sliced 64-lane trial engine: word-parallel multi-trial simulation.
//!
//! The scalar engine ([`crate::RadioSimulator::run_in`]) resolves one trial
//! at a time, vertex by vertex. Radio round resolution, however, is pure
//! boolean algebra over informed/transmitting/collision bits — so this
//! module packs up to 64 **independent trials** into the bit-lanes of a
//! `u64` and resolves them word-parallel: lane `l` of every word belongs to
//! trial `l`, and one AND/OR/ANDNOT pass over a word advances all 64 trials
//! at once.
//!
//! # Lane semantics
//!
//! * State is **lane-major**: [`LaneWorkspace`] holds one `u64` per vertex
//!   for each of the informed / newly-informed / transmitter / collision
//!   masks; bit `l` of word `v` is trial `l`'s bit for vertex `v`.
//! * Each lane runs under its own RNG stream, seeded from the caller's
//!   per-lane seed slice (the scenario runner derives these with
//!   `derive_seed(trial_seed, 1)`) — so lane `k` of a bit-sliced run
//!   reproduces the scalar [`RadioSimulator::run_in`] with `seeds[k]`
//!   **bit for bit**: same completion round, same per-vertex first-informed
//!   rounds, same per-round counts.
//! * Lanes retire independently: when a trial completes (and the simulator
//!   is configured to stop on completion) its bit leaves the `live` mask,
//!   its trajectory stops growing, and its RNG stream stops being consumed —
//!   exactly as if its scalar run had returned.
//!
//! # Collision kernel
//!
//! Per round, for each transmitting vertex `v` with lane mask `t`, every
//! neighbor `u` accumulates `twice[u] |= once[u] & t; once[u] |= t`. A
//! vertex then receives in the lanes `once & !twice & !transmit` — heard
//! exactly one transmitter and was not itself transmitting, the unique
//! neighborhood `Γ¹(T)` evaluated in 64 trials per word operation.
//!
//! # Protocols
//!
//! Randomized protocols implement [`LaneProtocol`] natively:
//! [`LaneDecay`] ports the decay protocol by transposing 64×64 bit tiles of
//! the eligibility matrix into per-lane vertex masks and drawing each lane's
//! Bernoulli decisions in bulk from its own stream
//! (`fill_masked_decision_bits` on the workspace RNG — stream-identical to
//! per-vertex `gen_bool`). Deterministic protocols ride along for free:
//! [`LaneMirror`] advances a scalar [`TrialWorkspace`] by its one round step
//! per lane round and broadcasts that round's transmitters to every live
//! lane.

use crate::protocols::BroadcastProtocol;
use crate::simulator::{RadioSimulator, TrialOutcome};
use crate::workspace::TrialWorkspace;
use std::cell::RefCell;
use wx_graph::random::{rng_from_seed, WxRng};
use wx_graph::{Graph, GraphView, Vertex};

/// Maximum number of trials per bit-sliced batch (the lanes of a `u64`).
pub const MAX_LANES: usize = 64;

/// Read-only per-round view handed to [`LaneProtocol`] implementations.
#[derive(Debug)]
pub struct LaneView<'a, G: GraphView + ?Sized = Graph> {
    /// The underlying network.
    pub graph: &'a G,
    /// The current round number (the first round is 0).
    pub round: usize,
    /// The broadcast source.
    pub source: Vertex,
    /// Mask of lanes still running; retired lanes must neither transmit nor
    /// consume their RNG streams.
    pub live: u64,
    /// Lane-major informed state: bit `l` of `informed[v]` is set iff vertex
    /// `v` is informed in trial `l`.
    pub informed: &'a [u64],
}

/// A broadcast protocol expressed over bit-lanes: one transmitter mask per
/// vertex word instead of one transmitter set per trial.
pub trait LaneProtocol<G: GraphView + ?Sized = Graph> {
    /// Short name for reports (matches the scalar protocol's name).
    fn name(&self) -> &'static str;

    /// Called once before a batch starts. `seeds[l]` seeds lane `l`'s RNG
    /// stream; the batch width is `seeds.len()`.
    fn reset(&mut self, graph: &G, source: Vertex, seeds: &[u64]);

    /// Chooses the transmitters for this round, overwriting `transmit`
    /// (one word per vertex). On return, bit `(v, l)` may be set only if
    /// vertex `v` is informed in lane `l` and lane `l` is live; **every**
    /// word of `transmit` must be consistent with this round (stale bits
    /// from the previous round must be cleared by the implementation).
    fn fill_transmitters(&mut self, view: &LaneView<'_, G>, transmit: &mut [u64]);
}

impl<G: GraphView + ?Sized, P: LaneProtocol<G> + ?Sized> LaneProtocol<G> for Box<P> {
    fn name(&self) -> &'static str {
        (**self).name()
    }
    fn reset(&mut self, graph: &G, source: Vertex, seeds: &[u64]) {
        (**self).reset(graph, source, seeds);
    }
    fn fill_transmitters(&mut self, view: &LaneView<'_, G>, transmit: &mut [u64]) {
        (**self).fill_transmitters(view, transmit);
    }
}

/// Reusable lane-major state for one bit-sliced batch of up to 64 trials.
///
/// Like [`TrialWorkspace`], a lane workspace is tied to no particular
/// graph — [`run_lanes_in`] grows it on demand, so one workspace serves
/// batch after batch without reallocating. After a run it retains every
/// per-lane trajectory (per-round informed counts, per-vertex first-informed
/// rounds) until the next run overwrites them.
#[derive(Debug)]
pub struct LaneWorkspace {
    /// Number of vertices of the last run's graph.
    n: usize,
    /// Number of lanes (trials) of the last run.
    lanes: usize,
    /// Completion target of the last run (reachable vertices).
    target: usize,
    /// Lane-major informed bits, one word per vertex.
    informed: Vec<u64>,
    /// Lanes in which each vertex was first informed in the previous round.
    newly: Vec<u64>,
    /// Lanes in which each vertex was first informed this round (swapped
    /// with `newly` at the end of each round).
    fresh: Vec<u64>,
    /// This round's transmitter mask, filled by the protocol.
    transmit: Vec<u64>,
    /// Collision accumulator: lanes in which ≥ 1 neighbor transmitted.
    once: Vec<u64>,
    /// Collision accumulator: lanes in which ≥ 2 neighbors transmitted.
    twice: Vec<u64>,
    /// Vertices with a nonzero `once` word this round (targeted clearing).
    touched: Vec<usize>,
    /// Vertices with a nonzero `newly` word.
    newly_list: Vec<usize>,
    /// Vertices with a nonzero `fresh` word.
    fresh_list: Vec<usize>,
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
            n,
            lanes: 0,
            target: 0,
            informed: vec![0; n],
            newly: vec![0; n],
            fresh: vec![0; n],
            transmit: vec![0; n],
            once: vec![0; n],
            twice: vec![0; n],
            touched: Vec::new(),
            newly_list: Vec::new(),
            fresh_list: Vec::new(),
            first_informed: Vec::new(),
            informed_count: [0; MAX_LANES],
            informed_per_round: (0..MAX_LANES).map(|_| Vec::new()).collect(),
            completed_at: [None; MAX_LANES],
        }
    }

    fn reset(&mut self, n: usize, source: Vertex, lanes: usize, target: usize) {
        self.n = n;
        self.lanes = lanes;
        self.target = target;
        for buf in [
            &mut self.informed,
            &mut self.newly,
            &mut self.fresh,
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
        self.newly_list.clear();
        self.fresh_list.clear();
        let live = live_mask(lanes);
        self.informed[source] = live;
        self.newly[source] = live;
        self.newly_list.push(source);
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

    /// The constant-size summary of lane `lane`'s trial, identical to what
    /// the scalar `run_in` would have returned for that lane's seed.
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
    /// of `reachable` vertices, or `None` if that never happened (the
    /// definition [`TrialWorkspace::rounds_to_reach_fraction`] uses).
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
/// ([`LaneWorkspace::lane_outcome`] and friends); lane `l` is bit-identical
/// to the scalar `sim.run_in(_, seeds[l], _)`.
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
    let source = sim.source();
    let config = sim.config();
    let n = graph.num_vertices();
    let target = sim.reachable_count();
    ws.reset(n, source, lanes, target);
    protocol.reset(graph, source, seeds);
    let mut live = live_mask(lanes);
    let _span = wx_trace::span("radio.lanes");
    let mut word_rounds = 0u64;

    for round in 0..config.max_rounds {
        word_rounds = round as u64 + 1;
        {
            let view = LaneView {
                graph,
                round,
                source,
                live,
                informed: &ws.informed,
            };
            protocol.fill_transmitters(&view, &mut ws.transmit);
        }

        // Collision accumulation: for every transmitting vertex, every
        // neighbor records which lanes heard one (`once`) or more (`twice`)
        // transmitters.
        ws.touched.clear();
        for v in 0..n {
            let t = ws.transmit[v];
            if t == 0 {
                continue;
            }
            debug_assert_eq!(
                t & !(ws.informed[v] & live),
                0,
                "protocol {} transmitted from uninformed or retired lanes",
                protocol.name()
            );
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
        // update counts and first-informed rounds.
        ws.fresh_list.clear();
        for i in 0..ws.touched.len() {
            let u = ws.touched[i];
            let recv = ws.once[u] & !ws.twice[u] & !ws.transmit[u];
            ws.once[u] = 0;
            ws.twice[u] = 0;
            let new_bits = recv & !ws.informed[u] & live;
            if new_bits != 0 {
                ws.informed[u] |= new_bits;
                ws.fresh[u] = new_bits;
                ws.fresh_list.push(u);
                let mut b = new_bits;
                while b != 0 {
                    let l = b.trailing_zeros() as usize;
                    ws.first_informed[u * lanes + l] = (round + 1) as u32;
                    ws.informed_count[l] += 1;
                    b &= b - 1;
                }
            }
        }

        // newly ← fresh (targeted clear, then swap — no per-round allocation)
        for &v in &ws.newly_list {
            ws.newly[v] = 0;
        }
        std::mem::swap(&mut ws.newly, &mut ws.fresh);
        std::mem::swap(&mut ws.newly_list, &mut ws.fresh_list);

        // Per-lane bookkeeping: trajectories grow only for live lanes, and
        // the first completion round is pinned exactly as in the scalar
        // engine (with stop_when_complete = false lanes keep simulating but
        // completed_at must not advance).
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

    // Scheduling-independent work counts. Per-lane simulated rounds and
    // final informed counts are bit-identical to the scalar engine's, so
    // `radio.rounds_simulated`/`radio.informed_final` telemetry agrees
    // between the two paths; the lane-occupancy pair is sliced-engine-only
    // (`lane_rounds` is the paid word-round capacity, whose ratio against
    // `rounds_simulated` is the batch's useful occupancy).
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
fn transpose64(a: &mut [u64; 64]) {
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

/// The decay protocol over bit-lanes.
///
/// Per round it builds the eligibility matrix (informed ∧ live), transposes
/// it 64×64-tile by tile into per-lane vertex masks, and asks each lane's
/// RNG for its Bernoulli decisions in one bulk call that deposits straight
/// into the mask positions — consuming exactly one draw per eligible vertex
/// in ascending vertex order, the same stream the scalar
/// [`crate::protocols::decay::DecayProtocol`] consumes, so every lane is
/// bit-exact against the scalar run.
#[derive(Debug, Default)]
pub struct LaneDecay {
    rngs: Vec<WxRng>,
    lanes: usize,
    tiles: usize,
    /// Per-lane eligibility masks, `[lane][tile]` flattened.
    lane_masks: Vec<u64>,
    /// Per-lane decision words aligned with `lane_masks`.
    lane_out: Vec<u64>,
    /// Packed decision stream scratch for the bulk RNG call.
    scratch: Vec<u64>,
}

impl<G: GraphView + ?Sized> LaneProtocol<G> for LaneDecay {
    fn name(&self) -> &'static str {
        "decay"
    }

    fn reset(&mut self, graph: &G, _source: Vertex, seeds: &[u64]) {
        self.lanes = seeds.len();
        self.tiles = graph.num_vertices().div_ceil(64);
        self.rngs.clear();
        for &s in seeds {
            self.rngs.push(rng_from_seed(s));
        }
        self.lane_masks.resize(self.lanes * self.tiles, 0);
        self.lane_out.resize(self.lanes * self.tiles, 0);
    }

    fn fill_transmitters(&mut self, view: &LaneView<'_, G>, transmit: &mut [u64]) {
        let n = view.graph.num_vertices();
        let i = view.round % crate::protocols::decay::phase_length(n);
        let p = 0.5f64.powi(i as i32);
        let tiles = self.tiles;

        // Eligibility matrix → per-lane vertex masks, one 64×64 bit
        // transpose per vertex tile.
        for t in 0..tiles {
            let base = t * 64;
            let height = (n - base).min(64);
            let mut tile = [0u64; 64];
            let mut any = 0u64;
            for (word, &informed) in tile.iter_mut().zip(&view.informed[base..base + height]) {
                *word = informed & view.live;
                any |= *word;
            }
            if any == 0 {
                for l in 0..self.lanes {
                    self.lane_masks[l * tiles + t] = 0;
                }
            } else {
                transpose64(&mut tile);
                for (l, &word) in tile.iter().enumerate().take(self.lanes) {
                    self.lane_masks[l * tiles + t] = word;
                }
            }
        }

        // One bulk Bernoulli call per lane: deposits each decision onto its
        // eligible vertex, consuming exactly one draw per set mask bit in
        // ascending vertex order (the scalar protocol's draw order).
        for l in 0..self.lanes {
            self.rngs[l].fill_masked_decision_bits(
                p,
                &self.lane_masks[l * tiles..(l + 1) * tiles],
                &mut self.scratch,
                &mut self.lane_out[l * tiles..(l + 1) * tiles],
            );
        }

        // Per-lane decisions → lane-major transmitter words (the inverse
        // transpose).
        for t in 0..tiles {
            let base = t * 64;
            let height = (n - base).min(64);
            let mut tile = [0u64; 64];
            let mut any = 0u64;
            for (l, word) in tile.iter_mut().enumerate().take(self.lanes) {
                *word = self.lane_out[l * tiles + t];
                any |= *word;
            }
            if any == 0 {
                transmit[base..base + height]
                    .iter_mut()
                    .for_each(|w| *w = 0);
            } else {
                transpose64(&mut tile);
                transmit[base..base + height].copy_from_slice(&tile[..height]);
            }
        }
    }
}

/// Adapts any scalar [`BroadcastProtocol`] to the lane engine by running
/// the scalar simulation alongside it.
///
/// Deterministic protocols (flooding, round-robin, the spokesman schedule)
/// produce the same trajectory in every lane, so the adapter advances one
/// scalar [`TrialWorkspace`] by its round step (the same step
/// [`RadioSimulator::run_in`] loops) once per lane round and broadcasts that
/// round's transmitters to all live lanes — 64 trials for the price of one
/// scalar round plus O(words) broadcasting. Its rng is seeded from lane 0,
/// so a 1-lane batch reproduces `run_in` for any protocol. Do not use it for
/// randomized protocols in wider batches: all lanes would replay lane 0's
/// stream instead of running independent trials (use a native
/// [`LaneProtocol`] like [`LaneDecay`] instead).
pub struct LaneMirror<P> {
    inner: P,
    ws: TrialWorkspace,
    rng: WxRng,
}

impl<P> LaneMirror<P> {
    /// Wraps a scalar protocol for lane execution.
    pub fn new(inner: P) -> Self {
        LaneMirror {
            inner,
            ws: TrialWorkspace::new(0),
            rng: rng_from_seed(0),
        }
    }
}

impl<G: GraphView + ?Sized, P: BroadcastProtocol<G>> LaneProtocol<G> for LaneMirror<P> {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn reset(&mut self, graph: &G, source: Vertex, seeds: &[u64]) {
        self.rng = rng_from_seed(seeds[0]);
        self.ws.reset(graph.num_vertices(), source);
        self.inner.reset(graph, source);
    }

    fn fill_transmitters(&mut self, view: &LaneView<'_, G>, transmit: &mut [u64]) {
        // Last round's transmitters stop transmitting…
        for v in self.ws.transmitters.iter() {
            transmit[v] = 0;
        }
        // …the scalar round picks this round's and advances the mirror…
        self.ws.step(
            view.graph,
            view.source,
            view.round,
            &mut self.inner,
            &mut self.rng,
        );
        // …and every live lane transmits from the same vertices.
        for v in self.ws.transmitters.iter() {
            transmit[v] = view.live;
        }
    }
}

thread_local! {
    /// One lane workspace per thread, shared by every batch executed on
    /// that thread (the lane analogue of
    /// [`crate::workspace::with_thread_workspace`]).
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
    use crate::protocols::decay::DecayProtocol;
    use crate::protocols::naive::NaiveFlooding;
    use crate::protocols::round_robin::RoundRobin;
    use crate::simulator::SimulatorConfig;
    use crate::workspace::TrialWorkspace;
    use wx_graph::random::derive_seed;

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

    fn assert_lane_matches_scalar<G: GraphView + ?Sized>(
        sim: &RadioSimulator<'_, G>,
        lane_ws: &LaneWorkspace,
        lane: usize,
        seed: u64,
        mut scalar: impl BroadcastProtocol<G>,
    ) {
        let mut ws = TrialWorkspace::new(sim.graph().num_vertices());
        let expect = sim.run_in(&mut scalar, seed, &mut ws);
        assert_eq!(
            lane_ws.lane_outcome(lane),
            expect,
            "lane {lane} seed {seed}"
        );
        assert_eq!(
            lane_ws.lane_informed_per_round(lane),
            ws.informed_per_round(),
            "lane {lane} trajectory"
        );
        for v in 0..sim.graph().num_vertices() {
            assert_eq!(
                lane_ws.lane_first_informed_round(lane, v),
                ws.first_informed_round()[v],
                "lane {lane} vertex {v}"
            );
        }
    }

    #[test]
    fn decay_lanes_are_bit_exact_against_scalar_runs() {
        let g = wx_constructions::families::random_regular_graph(80, 4, 3).unwrap();
        let sim = RadioSimulator::new(&g, 0, SimulatorConfig::default());
        let seeds: Vec<u64> = (0..64).map(|t| derive_seed(42, t)).collect();
        let mut ws = LaneWorkspace::new(0);
        let mut proto = LaneDecay::default();
        run_lanes_in(&sim, &mut proto, &seeds, &mut ws);
        for (lane, &seed) in seeds.iter().enumerate() {
            assert_lane_matches_scalar(&sim, &ws, lane, seed, DecayProtocol);
        }
    }

    #[test]
    fn partial_batches_match_scalar_runs() {
        let g = wx_constructions::families::random_regular_graph(66, 4, 9).unwrap();
        let sim = RadioSimulator::new(&g, 5, SimulatorConfig::default());
        let mut ws = LaneWorkspace::new(0);
        for lanes in [1usize, 2, 7, 33] {
            let seeds: Vec<u64> = (0..lanes as u64).map(|t| derive_seed(7, t)).collect();
            let mut proto = LaneDecay::default();
            run_lanes_in(&sim, &mut proto, &seeds, &mut ws);
            assert_eq!(ws.lanes(), lanes);
            for (lane, &seed) in seeds.iter().enumerate() {
                assert_lane_matches_scalar(&sim, &ws, lane, seed, DecayProtocol);
            }
        }
    }

    #[test]
    fn mirror_adapter_replicates_deterministic_protocols() {
        let (g, src) = wx_constructions::families::complete_plus_graph(8).unwrap();
        let sim = RadioSimulator::new(&g, src, SimulatorConfig::default());
        let seeds = [3u64, 4, 5];
        let mut ws = LaneWorkspace::new(0);
        let mut flood = LaneMirror::new(NaiveFlooding);
        run_lanes_in(&sim, &mut flood, &seeds, &mut ws);
        for (lane, &seed) in seeds.iter().enumerate() {
            assert_lane_matches_scalar(&sim, &ws, lane, seed, NaiveFlooding);
        }
        let mut rr = LaneMirror::new(RoundRobin);
        run_lanes_in(&sim, &mut rr, &seeds, &mut ws);
        for (lane, &seed) in seeds.iter().enumerate() {
            assert_lane_matches_scalar(&sim, &ws, lane, seed, RoundRobin);
        }
    }

    #[test]
    fn one_lane_mirror_of_a_randomized_protocol_matches_run_in() {
        // A 1-lane mirror runs the scalar round step under lane 0's seed, so
        // even a randomized protocol must reproduce `run_in` exactly: same
        // rng seeding, same draw order, same trajectory.
        for graph_seed in [1u64, 2, 3] {
            let g = wx_constructions::families::random_regular_graph(72, 4, graph_seed).unwrap();
            let sim = RadioSimulator::new(&g, 0, SimulatorConfig::default());
            let mut ws = LaneWorkspace::new(0);
            for t in 0..4 {
                let seed = derive_seed(graph_seed, t);
                run_lanes_in(&sim, &mut LaneMirror::new(DecayProtocol), &[seed], &mut ws);
                assert_lane_matches_scalar(&sim, &ws, 0, seed, DecayProtocol);
            }
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
        let mut proto = LaneDecay::default();
        run_lanes_in(&sim, &mut proto, &seeds, &mut ws);
        for (lane, &seed) in seeds.iter().enumerate() {
            assert_lane_matches_scalar(&sim, &ws, lane, seed, DecayProtocol);
            // all lanes simulated the full horizon
            assert_eq!(ws.lane_outcome(lane).rounds_simulated, 40);
        }
    }

    #[test]
    fn disconnected_graphs_complete_on_the_reachable_component() {
        let g = Graph::from_edges(6, [(0, 1), (1, 2), (3, 4)]).unwrap();
        let sim = RadioSimulator::new(&g, 0, SimulatorConfig::default());
        let seeds: Vec<u64> = (0..5).map(|t| derive_seed(2, t)).collect();
        let outcomes = run_lanes(&sim, &mut LaneDecay::default(), &seeds);
        for (lane, (&seed, outcome)) in seeds.iter().zip(outcomes.iter()).enumerate() {
            assert_eq!(outcome.reachable, 3, "lane {lane}");
            let mut ws = TrialWorkspace::new(6);
            let expect = sim.run_in(&mut DecayProtocol, seed, &mut ws);
            assert_eq!(*outcome, expect);
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
            let mut proto = LaneDecay::default();
            run_lanes_in(&sim, &mut proto, &seeds, &mut ws);
            for (lane, &seed) in seeds.iter().enumerate() {
                assert_lane_matches_scalar(&sim, &ws, lane, seed, DecayProtocol);
            }
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
            run_lanes_in(&sim, &mut LaneDecay::default(), &seeds, &mut ws);
            assert_eq!(ws.lanes(), seeds.len());
            for (lane, &seed) in seeds.iter().enumerate() {
                assert_lane_matches_scalar(&sim, &ws, lane, seed, DecayProtocol);
            }
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
        let outcomes = run_lanes(&sim, &mut LaneDecay::default(), &seeds);
        let first = outcomes[0].completed_at;
        assert!(
            outcomes.iter().any(|o| o.completed_at != first),
            "all 64 lanes completed at {first:?} — lane streams are not independent"
        );
    }

    #[test]
    #[should_panic(expected = "1..=64")]
    fn oversized_batches_are_rejected() {
        let g = wx_constructions::families::grid_graph(2, 2).unwrap();
        let sim = RadioSimulator::new(&g, 0, SimulatorConfig::default());
        let seeds = vec![0u64; 65];
        run_lanes(&sim, &mut LaneDecay::default(), &seeds);
    }
}
