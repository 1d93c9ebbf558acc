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
//! algorithmic content of wireless expansion). [`trials`] runs Monte-Carlo
//! ensembles in parallel, and [`lower_bound`] packages the Section-5
//! experiment measuring broadcast time on the chain of core graphs.
//!
//! # The streaming trial engine
//!
//! Large ensembles run through a buffer-reusing fast path:
//!
//! * [`RadioSimulator::new`] runs **one** BFS and caches the completion
//!   target, so a 10k-trial ensemble on a fixed simulator does one BFS, not
//!   10k;
//! * [`TrialWorkspace`] ([`workspace`]) owns every n-sized buffer a trial
//!   needs (informed/newly-informed bitsets, the transmitter buffer the
//!   protocols fill via [`BroadcastProtocol::transmitters_into`], the
//!   first-informed array, per-round counts, and the receiver-resolution
//!   scratch); [`RadioSimulator::run_in`] reuses it across trials with a
//!   targeted reset proportional to the previous trial's work;
//! * [`trials::map_trials`] shares one simulator across all trials, pulls
//!   one workspace per rayon worker from the [`with_thread_workspace`] pool,
//!   and reduces each trial to a caller-chosen constant-size summary, so
//!   ensemble memory never grows with `trials × n`.
//!
//! # The bit-sliced lane engine
//!
//! [`bitslice`] multiplies the streaming engine by the machine word width:
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
//! runs the protocol once per round and broadcasts the transmitter mask to
//! all live lanes. Lanes retire individually on completion, so a batch
//! costs rounds proportional to its slowest lane, not 64× the mean.
//!
//! **Tradeoffs.** Bit-slicing pays off most when trials on one shared
//! graph are plentiful (Monte-Carlo ensembles), but a 1-lane batch is
//! bit-exact with scalar `run_in` too, so the scenario runner sends every
//! radio trial through the lane engine, per-trial graphs included. Measured
//! for per-trial decay broadcast as 1-lane batches against scalar `run_in`
//! (bit-exact on all 4 400 trials): at n = 3000, d = 8 the lane engine is
//! 1.13–1.24× faster; at n = 128, d = 4 it is 0.62–0.79× as fast, about
//! 20–50 µs slower per trial, since a partial batch still sweeps full words
//! and per-lane trajectory bookkeeping adds a constant per round.
//! [`trials::map_trials_lanes`] offers the same seed derivation and
//! summaries as [`trials::map_trials`], batched 64 trials per workspace.
//! The `wxbench` benchmark's per-layer replay times both engines
//! (`radio.lanes_s`, `radio.scalar_s`).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod bitslice;
pub mod lower_bound;
pub mod metrics;
pub mod protocols;
pub mod simulator;
pub mod trials;
pub mod workspace;

pub use bitslice::{
    run_lanes, run_lanes_in, with_thread_lane_workspace, LaneDecay, LaneMirror, LaneProtocol,
    LaneView, LaneWorkspace, MAX_LANES,
};
pub use metrics::BroadcastOutcome;
pub use protocols::{BroadcastProtocol, ProtocolKind};
pub use simulator::{reachable_from, RadioSimulator, RoundView, SimulatorConfig, TrialOutcome};
pub use workspace::{with_thread_workspace, TrialWorkspace};
