//! Deterministic, scheduling-independent work counters.
//!
//! Counters are the half of the tracer that is allowed to reach a
//! [`ScenarioReport`]: they count *work the algorithm did* (rounds
//! simulated, candidate sets evaluated, local-search flips), never
//! wall-clock, so their values are identical across thread counts and
//! with tracing on or off.
//!
//! Collection is *scoped*: [`count`] is a no-op unless the calling
//! thread has an active scope installed by [`with_counters`]. The lab
//! runner installs one scope per trial, inside the closure that
//! [`par_map`](crate::par_map) executes, so counts land on whichever
//! thread runs the trial and are summed in trial order afterwards.
//!
//! The subtlety is [`par_map`](crate::par_map)'s rule: it runs items
//! inline on the *calling* thread when the process has one thread or
//! there are fewer than two items, and on fresh worker threads otherwise.
//! A counter incremented inside a fan-out would therefore be captured at
//! one thread count and silently dropped at another. [`shield`] closes
//! that hole: it pushes a blocking scope so nested counts are dropped *on
//! the calling thread too*, making the outcome identical everywhere.
//! Every fan-out in the measurement engine is shielded; counters it wants
//! recorded are tallied at entry, before the shield.
//!
//! [`ScenarioReport`]: https://docs.rs/wx-lab

use std::cell::RefCell;

/// Every deterministic counter the workspace records, with its
/// report-facing name.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(usize)]
pub enum CounterId {
    /// Measurements resolved to the exact (full-enumeration) strategy.
    EngineStrategyExact,
    /// Measurements resolved to the sampled strategy.
    EngineStrategySampled,
    /// Candidate sets materialized into the engine's sampled pool.
    EnginePoolSets,
    /// Candidate sets submitted for evaluation by `minimize`/`evaluate_pool`.
    EngineSetsEvaluated,
    /// Candidate sets drawn by the sampler (`CandidateSets::generate`).
    SamplerDraws,
    /// Vertices promoted by the greedy spokesman solver.
    SpokesmanGreedyPicks,
    /// Local-search flips that improved coverage and were taken.
    SpokesmanFlipsAccepted,
    /// Local-search flips probed and declined (delta ≤ 0).
    SpokesmanFlipsRejected,
    /// Rounds simulated by the radio engine (per-trial sum).
    RadioRoundsSimulated,
    /// Vertices informed when each trial ended (summed).
    RadioInformedFinal,
    /// Lane-rounds of occupancy in the bit-sliced engine: each lane
    /// pays for every round its word simulates until it retires.
    RadioLaneRounds,
    /// Lanes that reached their completion target and retired.
    RadioLanesCompleted,
    /// Resident bytes of the graph backend each trial measured against
    /// (summed over trials; one [`GraphView::memory_bytes`] sample per
    /// trial, so `/ trials` recovers the per-trial footprint).
    ///
    /// [`GraphView::memory_bytes`]: https://docs.rs/wx-graph
    GraphMemoryBytes,
}

/// Number of distinct counters (the length of [`CounterId::ALL`]).
pub const NUM_COUNTERS: usize = 13;

impl CounterId {
    /// Every counter, in `repr` order.
    pub const ALL: [CounterId; NUM_COUNTERS] = [
        CounterId::EngineStrategyExact,
        CounterId::EngineStrategySampled,
        CounterId::EnginePoolSets,
        CounterId::EngineSetsEvaluated,
        CounterId::SamplerDraws,
        CounterId::SpokesmanGreedyPicks,
        CounterId::SpokesmanFlipsAccepted,
        CounterId::SpokesmanFlipsRejected,
        CounterId::RadioRoundsSimulated,
        CounterId::RadioInformedFinal,
        CounterId::RadioLaneRounds,
        CounterId::RadioLanesCompleted,
        CounterId::GraphMemoryBytes,
    ];

    /// The dotted name under which this counter appears in telemetry.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            CounterId::EngineStrategyExact => "engine.strategy_exact",
            CounterId::EngineStrategySampled => "engine.strategy_sampled",
            CounterId::EnginePoolSets => "engine.pool_sets",
            CounterId::EngineSetsEvaluated => "engine.sets_evaluated",
            CounterId::SamplerDraws => "sampler.draws",
            CounterId::SpokesmanGreedyPicks => "spokesman.greedy_picks",
            CounterId::SpokesmanFlipsAccepted => "spokesman.flips_accepted",
            CounterId::SpokesmanFlipsRejected => "spokesman.flips_rejected",
            CounterId::RadioRoundsSimulated => "radio.rounds_simulated",
            CounterId::RadioInformedFinal => "radio.informed_final",
            CounterId::RadioLaneRounds => "radio.lane_rounds",
            CounterId::RadioLanesCompleted => "radio.lanes_completed",
            CounterId::GraphMemoryBytes => "graph.memory_bytes",
        }
    }

    /// The inverse of [`CounterId::name`]: resolves a dotted telemetry
    /// name back to its counter. Cached artifacts (the serve-layer
    /// solution cache) persist captured counters by name so that a warm
    /// cache replay can re-credit exactly the work the cold execution
    /// counted; unknown names return `None` and are dropped rather than
    /// miscounted.
    #[must_use]
    pub fn from_name(name: &str) -> Option<CounterId> {
        CounterId::ALL.into_iter().find(|id| id.name() == name)
    }
}

/// A fixed-size tally of every counter. Cheap to create, merge, and
/// iterate; the lab runner keeps one per trial.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CounterSet {
    values: [u64; NUM_COUNTERS],
}

impl CounterSet {
    /// An all-zero set.
    #[must_use]
    pub fn new() -> CounterSet {
        CounterSet::default()
    }

    /// Adds `n` to one counter.
    pub fn add(&mut self, id: CounterId, n: u64) {
        self.values[id as usize] = self.values[id as usize].saturating_add(n);
    }

    /// Reads one counter.
    #[must_use]
    pub fn get(&self, id: CounterId) -> u64 {
        self.values[id as usize]
    }

    /// Adds every counter of `other` into `self`.
    pub fn merge(&mut self, other: &CounterSet) {
        for (into, from) in self.values.iter_mut().zip(other.values.iter()) {
            *into = into.saturating_add(*from);
        }
    }

    /// `true` when every counter is zero.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.values.iter().all(|v| *v == 0)
    }

    /// Iterates the non-zero counters as `(name, value)`, in
    /// [`CounterId::ALL`] order.
    pub fn iter_nonzero(&self) -> impl Iterator<Item = (&'static str, u64)> + '_ {
        CounterId::ALL
            .iter()
            .filter(|id| self.get(**id) != 0)
            .map(|id| (id.name(), self.get(*id)))
    }
}

enum ScopeEntry {
    Active(CounterSet),
    Blocked,
}

thread_local! {
    static SCOPES: RefCell<Vec<ScopeEntry>> = const { RefCell::new(Vec::new()) };
}

/// Adds `n` to counter `id` in the innermost scope on this thread, if
/// that scope is active. No-op with no scope or under [`shield`].
pub fn count(id: CounterId, n: u64) {
    SCOPES.with(|scopes| {
        if let Some(ScopeEntry::Active(set)) = scopes.borrow_mut().last_mut() {
            set.add(id, n);
        }
    });
}

/// Runs `f` with a fresh active counter scope on this thread and
/// returns the counts it captured. Nested scopes propagate: the
/// captured set is also merged into the enclosing scope, unless that
/// scope is a [`shield`].
pub fn with_counters<R>(f: impl FnOnce() -> R) -> (R, CounterSet) {
    SCOPES.with(|scopes| {
        scopes
            .borrow_mut()
            .push(ScopeEntry::Active(CounterSet::new()))
    });
    let result = f();
    let captured = SCOPES.with(|scopes| {
        let mut stack = scopes.borrow_mut();
        match stack.pop() {
            Some(ScopeEntry::Active(set)) => {
                if let Some(ScopeEntry::Active(parent)) = stack.last_mut() {
                    parent.merge(&set);
                }
                set
            }
            _ => CounterSet::new(),
        }
    });
    (result, captured)
}

/// Runs `f` with counting blocked on this thread.
///
/// Wrap every [`par_map`](crate::par_map) whose items call [`count`]:
/// worker threads never see the trial's scope, but `par_map` runs the
/// items inline on the *calling* thread at one thread or with fewer than
/// two items — shielding makes the nested counts drop consistently at
/// every thread count, which is what keeps telemetry byte-identical
/// across `RAYON_NUM_THREADS`.
pub fn shield<R>(f: impl FnOnce() -> R) -> R {
    SCOPES.with(|scopes| scopes.borrow_mut().push(ScopeEntry::Blocked));
    let result = f();
    SCOPES.with(|scopes| {
        scopes.borrow_mut().pop();
    });
    result
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn from_name_round_trips_every_counter() {
        for id in CounterId::ALL {
            assert_eq!(CounterId::from_name(id.name()), Some(id));
        }
        assert_eq!(CounterId::from_name("no.such.counter"), None);
    }

    #[test]
    fn count_without_scope_is_dropped() {
        count(CounterId::SamplerDraws, 7);
        let ((), set) = with_counters(|| {});
        assert!(set.is_empty());
    }

    #[test]
    fn with_counters_captures_and_propagates() {
        let ((), outer) = with_counters(|| {
            count(CounterId::RadioRoundsSimulated, 3);
            let ((), inner) = with_counters(|| {
                count(CounterId::RadioRoundsSimulated, 4);
                count(CounterId::SamplerDraws, 1);
            });
            assert_eq!(inner.get(CounterId::RadioRoundsSimulated), 4);
            assert_eq!(inner.get(CounterId::SamplerDraws), 1);
        });
        assert_eq!(outer.get(CounterId::RadioRoundsSimulated), 7);
        assert_eq!(outer.get(CounterId::SamplerDraws), 1);
    }

    #[test]
    fn shield_blocks_nested_counts() {
        let ((), set) = with_counters(|| {
            count(CounterId::EngineSetsEvaluated, 2);
            shield(|| {
                count(CounterId::EngineSetsEvaluated, 100);
                // A scope opened *inside* a shield still captures its own
                // counts but must not leak them through the shield.
                let ((), nested) = with_counters(|| {
                    count(CounterId::SamplerDraws, 5);
                });
                assert_eq!(nested.get(CounterId::SamplerDraws), 5);
            });
            count(CounterId::EngineSetsEvaluated, 3);
        });
        assert_eq!(set.get(CounterId::EngineSetsEvaluated), 5);
        assert_eq!(set.get(CounterId::SamplerDraws), 0);
    }

    #[test]
    fn counter_names_are_unique_and_dotted() {
        let mut names: Vec<&str> = CounterId::ALL.iter().map(|id| id.name()).collect();
        assert!(names.iter().all(|n| n.contains('.')));
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), NUM_COUNTERS);
    }

    #[test]
    fn merge_and_iter_nonzero() {
        let mut a = CounterSet::new();
        a.add(CounterId::EnginePoolSets, 2);
        let mut b = CounterSet::new();
        b.add(CounterId::EnginePoolSets, 3);
        b.add(CounterId::RadioLaneRounds, 9);
        a.merge(&b);
        let pairs: Vec<_> = a.iter_nonzero().collect();
        assert_eq!(
            pairs,
            vec![("engine.pool_sets", 5), ("radio.lane_rounds", 9)]
        );
    }
}
