//! # wx-radio
//!
//! A synchronous radio-network simulator implementing the collision model of
//! the *Wireless Expanders* paper (and the classical radio-broadcast
//! literature it builds on):
//!
//! * time proceeds in synchronous rounds;
//! * in each round every processor either transmits or stays silent;
//! * a silent processor **receives** a message iff *exactly one* of its
//!   neighbors transmits in that round;
//! * collisions (two or more transmitting neighbors) are indistinguishable
//!   from silence.
//!
//! On top of the simulator ([`simulator`]) the crate provides the broadcast
//! protocols the paper discusses or compares against ([`protocols`]): naive
//! flooding, deterministic round-robin, the Bar-Yehuda–Goldreich–Itai decay
//! protocol, and a centralized spokesman-schedule broadcast that transmits
//! from the subset `S' ⊆ S` a Spokesman-Election solver selects (the
//! algorithmic content of wireless expansion). [`lower_bound`] packages the
//! Section-5 experiment measuring broadcast time on the chain of core
//! graphs.
//!
//! # The scalar engine
//!
//! [`RadioSimulator::new`] runs **one** BFS and caches the completion
//! target, so every trial on a fixed simulator shares it.
//! [`RadioSimulator::run_in`] simulates one trial in a [`TrialWorkspace`]
//! ([`workspace`]), which owns every n-sized buffer a trial needs and is
//! reset in time proportional to the previous trial's work;
//! [`with_thread_workspace`] keeps one per thread. A trial's record is the
//! constant-size [`TrialOutcome`] `run_in` returns plus the trajectory the
//! workspace keeps ([`TrialWorkspace::informed_per_round`],
//! [`TrialWorkspace::first_informed_round`]). Each round is one workspace
//! step — transmitters, `Γ¹` receivers, informed update — the only scalar
//! round in the crate: `run_in` loops it, and [`LaneMirror`] calls it to
//! run a scalar protocol inside the lane engine. The scalar engine is the
//! reference the lane engine is tested against bit for bit.
//!
//! # The bit-sliced lane engine
//!
//! [`bitslice`] multiplies the scalar engine by the machine word width:
//! one `u64` per vertex holds the informed/transmitting state of up to
//! [`MAX_LANES`] (64) **independent trials** in its bit-lanes, and every
//! round of the collision kernel resolves all lanes with word-parallel
//! AND/OR/NOT operations — one neighborhood traversal per round serves 64
//! trials.
//!
//! **Lane semantics.** Lane `k` of a batch seeded with `seeds` reproduces
//! `RadioSimulator::run_in` with seed `seeds[k]` *bit for bit*: the same
//! completion round, the same per-round trajectory, the same per-vertex
//! first-informed rounds. Randomized protocols implement [`LaneProtocol`]
//! natively with one RNG stream per lane ([`LaneDecay`] draws its
//! transmission coins through a transpose-to-lane-major bulk path);
//! deterministic protocols wrap their scalar form in [`LaneMirror`], which
//! advances one scalar workspace by the scalar round step per lane round
//! and broadcasts its transmitters to all live lanes (seeded from lane 0, so
//! a 1-lane mirror reproduces `run_in` even for a randomized protocol).
//! A lane's record is [`LaneWorkspace::lane_outcome`] (the same
//! [`TrialOutcome`]) plus the workspace's per-lane trajectory accessors.
//! Lanes retire individually on completion, so a batch costs rounds
//! proportional to its slowest lane, not 64× the mean.
//!
//! **Tradeoffs.** Bit-slicing pays off most when trials on one shared
//! graph are plentiful (Monte-Carlo ensembles), but a 1-lane batch is
//! bit-exact with scalar `run_in` too, so the scenario runner sends every
//! radio trial through the lane engine, per-trial graphs included. Measured
//! for per-trial decay broadcast as 1-lane batches against scalar `run_in`
//! (bit-exact on all 4 400 trials): at n = 3000, d = 8 the lane engine is
//! 1.13–1.24× faster; at n = 128, d = 4 it is 0.62–0.79× as fast, about
//! 20–50 µs slower per trial, since a partial batch still sweeps full words
//! and per-lane trajectory bookkeeping adds a constant per round. The
//! scenario runner, E8's chain experiment and E11's broadcast race all run
//! on [`run_lanes_in`]. The `wxbench` benchmark's per-layer replay times both engines
//! (`radio.lanes_s`, `radio.scalar_s`).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod bitslice;
pub mod lower_bound;
mod metrics;
pub mod protocols;
pub mod simulator;
pub mod workspace;

pub use bitslice::{
    run_lanes, run_lanes_in, with_thread_lane_workspace, LaneDecay, LaneMirror, LaneProtocol,
    LaneView, LaneWorkspace, MAX_LANES,
};
pub use protocols::{BroadcastProtocol, ProtocolKind};
pub use simulator::{reachable_from, RadioSimulator, RoundView, SimulatorConfig, TrialOutcome};
pub use workspace::{with_thread_workspace, TrialWorkspace};

/// Trial ensembles — many seeded trials of one protocol on one shared
/// simulator, as the scenario runner and the sweep experiments drive the
/// engines — checked end to end on both engines.
#[cfg(test)]
mod trials {
    mod tests;
}
