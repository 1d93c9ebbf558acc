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
//! # The engine
//!
//! [`RadioSimulator::new`] runs **one** BFS and caches the completion
//! target, so every trial on a fixed simulator shares it. [`run_lanes_in`]
//! ([`bitslice`]) is the one collision round: one `u64` per vertex holds
//! the informed/transmitting state of up to [`MAX_LANES`] (64)
//! **independent trials** in its bit-lanes, and every round resolves all
//! lanes with word-parallel AND/OR/NOT operations — one neighborhood
//! traversal per round serves 64 trials. A single trial is a 1-lane batch.
//! Every protocol implements [`LaneProtocol`]: decay with one RNG stream
//! per lane, the deterministic protocols identically in every lane. A
//! lane's record is [`LaneWorkspace::lane_outcome`] (a constant-size
//! [`TrialOutcome`]) plus the workspace's per-lane trajectory accessors;
//! [`with_thread_lane_workspace`] keeps one workspace per thread, grown on
//! demand and reused, so steady-state trials allocate nothing n-sized.
//! Lanes retire individually on completion, so a batch costs rounds
//! proportional to its slowest lane, not 64× the mean.
//!
//! The scenario runner, E8's chain experiment and E11's broadcast race all
//! run on [`run_lanes_in`], shared-graph ensembles 64 trials per batch and
//! per-trial graphs as 1-lane batches. A test-only scalar model of the same
//! round (one trial over `VertexSet`s) checks every lane bit for bit. The
//! [`workspace`] module keeps four one-line single-trial forwards for the
//! `wxbench` replay.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod bitslice;
pub mod lower_bound;
mod metrics;
#[cfg(test)]
mod oracle;
pub mod protocols;
pub mod simulator;
pub mod workspace;

pub use bitslice::{
    run_lanes, run_lanes_in, with_thread_lane_workspace, LaneProtocol, LaneView, LaneWorkspace,
    MAX_LANES,
};
pub use protocols::ProtocolKind;
pub use simulator::{reachable_from, RadioSimulator, SimulatorConfig, TrialOutcome};
pub use workspace::with_thread_workspace;

/// Trial ensembles — many seeded trials of one protocol on one shared
/// simulator, as the scenario runner and the sweep experiments drive the
/// engine — checked end to end against the scalar model.
#[cfg(test)]
mod trials {
    mod tests;
}
