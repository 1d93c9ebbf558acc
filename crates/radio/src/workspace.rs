//! Reusable per-trial simulation state for Monte-Carlo ensembles.
//!
//! Every broadcast trial needs the same n-sized state: the informed bitset,
//! the newly-informed frontier, a transmitter buffer, the per-vertex
//! first-informed rounds, the per-round informed counts, and a
//! [`NeighborhoodScratch`] for receiver resolution. Allocating these afresh
//! per trial made large ensembles allocator-bound; [`TrialWorkspace`] owns
//! them all and is reused across trials, so after the first trial on a given
//! graph size the simulator's steady state allocates nothing per trial — in
//! the spirit of the decay protocol's own constant-overhead-per-round design,
//! the trial loop does zero setup work beyond reseeding.
//!
//! Resetting between trials zeroes the bitsets word by word (O(n/64)) and
//! clears only the `first_informed_round` entries the previous trial wrote:
//! the informed set records exactly which ones those are.
//!
//! One collision-model round is one [`TrialWorkspace`] step, and it is the
//! only scalar round in the crate: [`crate::RadioSimulator::run_in`] loops
//! it over one trial, and [`crate::LaneMirror`] calls it once per lane round
//! to drive a scalar protocol inside the lane engine.
//!
//! Use [`crate::RadioSimulator::run_in`] with an explicit workspace, or
//! borrow the thread-local one via [`with_thread_workspace`] (mirroring the
//! `with_thread_scratch` pool in `wx_graph`).

use crate::protocols::BroadcastProtocol;
use crate::simulator::RoundView;
use std::cell::RefCell;
use wx_graph::random::WxRng;
use wx_graph::{GraphView, NeighborhoodScratch, Vertex, VertexSet};

/// Reusable buffers for one broadcast trial.
///
/// A workspace is tied to no particular graph: the per-trial reset
/// grows the buffers on demand, so one workspace can serve graphs of mixed
/// sizes (it only ever grows). [`crate::RadioSimulator::run_in`] resets the
/// workspace itself; callers just hand the same workspace to trial after
/// trial.
#[derive(Debug)]
pub struct TrialWorkspace {
    /// Vertices currently holding the message.
    pub(crate) informed: VertexSet,
    /// Vertices first informed in the previous round (visible to protocols
    /// through [`crate::RoundView::newly_informed`]).
    pub(crate) newly: VertexSet,
    /// Vertices first informed in the current round; swapped with `newly`
    /// at the end of each round (no per-round allocation).
    pub(crate) fresh: VertexSet,
    /// Output buffer protocols fill via
    /// [`crate::BroadcastProtocol::transmitters_into`].
    pub(crate) transmitters: VertexSet,
    /// For each vertex, the round at which it first became informed.
    /// Only entries of informed vertices are ever non-`None`, which is what
    /// makes the targeted reset O(previous informed) instead of O(n).
    pub(crate) first_informed_round: Vec<Option<usize>>,
    /// `informed_per_round[r]` = number of informed vertices after `r`
    /// rounds.
    pub(crate) informed_per_round: Vec<usize>,
    /// Scratch for per-round receiver resolution (`Γ¹(T)`).
    pub(crate) scratch: NeighborhoodScratch,
}

impl Default for TrialWorkspace {
    fn default() -> Self {
        TrialWorkspace::new(0)
    }
}

impl TrialWorkspace {
    /// Creates a workspace pre-sized for graphs of `n` vertices.
    pub fn new(n: usize) -> Self {
        TrialWorkspace {
            informed: VertexSet::empty(n),
            newly: VertexSet::empty(n),
            fresh: VertexSet::empty(n),
            transmitters: VertexSet::empty(n),
            first_informed_round: vec![None; n],
            informed_per_round: Vec::new(),
            scratch: NeighborhoodScratch::new(n),
        }
    }

    /// The largest vertex universe this workspace currently serves without
    /// reallocating.
    pub fn capacity(&self) -> usize {
        self.first_informed_round.len()
    }

    /// Clears all per-trial state and re-seeds it with `source` informed at
    /// round 0. Growing to a larger universe is O(n); steady-state reuse is
    /// O(n/64) for the bitsets plus the previous trial's informed count.
    pub(crate) fn reset(&mut self, n: usize, source: Vertex) {
        // Targeted clear: only informed vertices ever have a non-None entry.
        for v in self.informed.iter() {
            self.first_informed_round[v] = None;
        }
        if self.first_informed_round.len() < n {
            self.first_informed_round.resize(n, None);
        }
        if self.informed.universe() != n {
            self.informed = VertexSet::empty(n);
            self.newly = VertexSet::empty(n);
            self.fresh = VertexSet::empty(n);
            self.transmitters = VertexSet::empty(n);
        } else {
            self.informed.clear();
            self.newly.clear();
            self.fresh.clear();
            self.transmitters.clear();
        }
        self.informed_per_round.clear();
        self.informed.insert(source);
        self.newly.insert(source);
        self.first_informed_round[source] = Some(0);
        self.informed_per_round.push(1);
    }

    /// Runs round `round` of the collision model: `protocol` picks this
    /// round's transmitters from the current state, every silent vertex
    /// with exactly one transmitting neighbor receives (`Γ¹(T)`, resolved
    /// through the workspace's scratch), the receivers not yet informed
    /// become informed at round `round + 1` and form the next
    /// newly-informed frontier, and the informed count is appended to the
    /// trajectory. Allocates nothing once the workspace is sized; this
    /// round's transmitters stay readable until the next step.
    pub(crate) fn step<G, P>(
        &mut self,
        graph: &G,
        source: Vertex,
        round: usize,
        protocol: &mut P,
        rng: &mut WxRng,
    ) where
        G: GraphView + ?Sized,
        P: BroadcastProtocol<G> + ?Sized,
    {
        self.transmitters.clear();
        let view = RoundView {
            graph,
            round,
            source,
            informed: &self.informed,
            newly_informed: &self.newly,
        };
        protocol.transmitters_into(&view, rng, &mut self.transmitters);
        debug_assert!(
            self.transmitters.is_subset_of(&self.informed),
            "protocol {} transmitted from uninformed vertices",
            protocol.name()
        );
        let receivers = self
            .scratch
            .unique_neighborhood_sorted(graph, &self.transmitters);
        self.fresh.clear();
        for &v in receivers {
            if self.informed.insert(v) {
                self.fresh.insert(v);
                self.first_informed_round[v] = Some(round + 1);
            }
        }
        std::mem::swap(&mut self.newly, &mut self.fresh);
        self.informed_per_round.push(self.informed.len());
    }

    /// The informed set left behind by the last run.
    pub fn informed(&self) -> &VertexSet {
        &self.informed
    }

    /// Per-round informed counts of the last run
    /// (`informed_per_round()[0] == 1`).
    pub fn informed_per_round(&self) -> &[usize] {
        &self.informed_per_round
    }

    /// For each vertex, the round at which the last run first informed it
    /// (`None` if it never did). Only the first `n` entries are meaningful
    /// for a graph on `n` vertices.
    pub fn first_informed_round(&self) -> &[Option<usize>] {
        &self.first_informed_round
    }

    /// The number of rounds the last run needed to inform at least
    /// `fraction` of `reachable` vertices, or `None` if that never happened.
    pub fn rounds_to_reach_fraction(&self, fraction: f64, reachable: usize) -> Option<usize> {
        crate::metrics::rounds_to_reach_fraction(&self.informed_per_round, fraction, reachable)
    }
}

thread_local! {
    /// One workspace per thread, shared by every trial executed on that
    /// thread.
    static THREAD_WORKSPACE: RefCell<TrialWorkspace> = RefCell::new(TrialWorkspace::new(0));
}

/// Runs `f` with this thread's shared [`TrialWorkspace`].
///
/// Each thread reuses one workspace across all trials it executes, so a
/// 10k-trial ensemble performs O(#threads) workspace allocations instead
/// of 10k.
///
/// # Panics
/// Panics if `f` re-enters `with_thread_workspace` on the same thread (the
/// workspace is exclusively borrowed for the duration of `f`).
pub fn with_thread_workspace<R>(f: impl FnOnce(&mut TrialWorkspace) -> R) -> R {
    THREAD_WORKSPACE.with(|cell| {
        let mut ws = cell.borrow_mut();
        f(&mut ws)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reset_reseeds_and_reuses() {
        let mut ws = TrialWorkspace::new(8);
        ws.reset(8, 3);
        assert_eq!(ws.informed().to_vec(), vec![3]);
        assert_eq!(ws.informed_per_round(), &[1]);
        assert_eq!(ws.first_informed_round()[3], Some(0));
        // simulate some progress, then reset with a different source
        ws.informed.insert(5);
        ws.first_informed_round[5] = Some(1);
        ws.reset(8, 0);
        assert_eq!(ws.informed().to_vec(), vec![0]);
        assert_eq!(ws.first_informed_round()[3], None);
        assert_eq!(ws.first_informed_round()[5], None);
        assert_eq!(ws.first_informed_round()[0], Some(0));
    }

    #[test]
    fn workspace_grows_across_graph_sizes() {
        let mut ws = TrialWorkspace::new(4);
        ws.reset(4, 0);
        assert_eq!(ws.capacity(), 4);
        ws.reset(100, 99);
        assert!(ws.capacity() >= 100);
        assert_eq!(ws.informed().to_vec(), vec![99]);
        // shrinking back keeps the larger first-informed buffer
        ws.reset(4, 1);
        assert!(ws.capacity() >= 100);
        assert_eq!(ws.informed().universe(), 4);
    }

    #[test]
    fn thread_pool_reuses_one_workspace() {
        let cap = with_thread_workspace(|ws| {
            ws.reset(64, 0);
            ws.capacity()
        });
        let cap2 = with_thread_workspace(|ws| ws.capacity());
        assert_eq!(cap, 64);
        assert_eq!(cap2, 64);
    }

    #[test]
    fn rounds_to_reach_fraction_matches_outcome_semantics() {
        let mut ws = TrialWorkspace::new(10);
        ws.reset(10, 0);
        ws.informed_per_round = vec![1, 2, 4, 8, 10];
        assert_eq!(ws.rounds_to_reach_fraction(0.1, 10), Some(0));
        assert_eq!(ws.rounds_to_reach_fraction(0.5, 10), Some(3));
        assert_eq!(ws.rounds_to_reach_fraction(1.0, 10), Some(4));
        ws.informed_per_round = vec![1, 2, 3];
        assert_eq!(ws.rounds_to_reach_fraction(1.0, 10), None);
    }
}
