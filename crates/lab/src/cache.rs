//! The content-addressed artifact cache behind `wx serve`.
//!
//! Two artifact classes are cached, each under its [`canon`](crate::canon)
//! content address:
//!
//! * **built graphs** — keyed by *(GraphSource, build seed)*; the runner
//!   asks the store for an [`Arc<BuiltGraph>`] instead of rebuilding, so
//!   concurrent requests over the same instance share one build and one
//!   copy in memory;
//! * **spokesman solutions** — keyed by *(graph key, subset size, task
//!   seed, solver)*; a hit skips the solver entirely (the 22s/solve cost
//!   at n=100k that motivates the cache) and replays the solve's
//!   deterministic work counters so report telemetry stays byte-identical
//!   to a cold execution.
//!
//! The [`GraphStore`]/[`SolutionStore`] traits are the runner-facing seam
//! ([`RunContext`]); [`ArtifactCache`] is the default implementation:
//! in-memory, LRU-evicted against per-class byte budgets, with in-flight
//! **build coalescing** (a second request for a graph that is currently
//! being built blocks for the existing build instead of duplicating it)
//! and optional best-effort disk persistence of solution artifacts.
//!
//! # Determinism
//!
//! Nothing in this module influences report bytes: a hit returns exactly
//! the artifact a cold execution would have produced (validated on
//! rehydration — a stale or corrupt artifact is treated as a miss), and
//! counter replay re-credits exactly the counts captured cold. Eviction
//! order is last-used order with a strictly monotonic tick, so a given
//! sequence of operations always leaves the same keys resident.

use std::collections::{BTreeMap, BTreeSet};
use std::path::PathBuf;
use std::sync::{Arc, Condvar, Mutex, PoisonError};

use wx_core::spokesman::SolutionArtifact;
use wx_trace::{CounterId, CounterSet};

use crate::error::Result;
use crate::source::BuiltGraph;

/// A store of built graphs the runner can share instances through.
pub trait GraphStore: Sync {
    /// Returns the graph under `key`, building (and retaining) it via
    /// `build` on a miss. Concurrent calls for the same key must yield
    /// the same instance with `build` invoked once.
    fn get_or_build(
        &self,
        key: u64,
        build: &mut dyn FnMut() -> Result<BuiltGraph>,
    ) -> Result<Arc<BuiltGraph>>;
}

/// A cached spokesman solve: the portable solution plus the deterministic
/// work counters the cold solve recorded (replayed on hits so telemetry
/// is byte-identical either way).
#[derive(Clone, Debug, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct SolutionEntry {
    /// The solution, detached from its graph.
    pub artifact: SolutionArtifact,
    /// `(counter name, value)` pairs captured around the cold solve.
    pub counters: Vec<(String, u64)>,
}

impl SolutionEntry {
    /// Packages a cold solve for the store.
    #[must_use]
    pub fn new(artifact: SolutionArtifact, captured: &CounterSet) -> SolutionEntry {
        SolutionEntry {
            artifact,
            counters: captured
                .iter_nonzero()
                .map(|(name, value)| (name.to_string(), value))
                .collect(),
        }
    }

    /// Re-credits the captured counters into the current counter scope.
    /// Unknown names (an artifact persisted by a different version) are
    /// dropped rather than miscounted.
    pub fn replay_counters(&self) {
        for (name, value) in &self.counters {
            if let Some(id) = CounterId::from_name(name) {
                wx_trace::count(id, *value);
            }
        }
    }

    fn approx_bytes(&self) -> u64 {
        let subset = self.artifact.subset.len() * std::mem::size_of::<usize>();
        let counters: usize = self
            .counters
            .iter()
            .map(|(name, _)| name.len() + std::mem::size_of::<(String, u64)>())
            .sum();
        (subset + counters + 128) as u64
    }
}

/// A store of spokesman solutions keyed by their content address.
pub trait SolutionStore: Sync {
    /// Returns the cached solve under `key`, if resident.
    fn get(&self, key: u64) -> Option<Arc<SolutionEntry>>;
    /// Retains a cold solve under `key`.
    fn put(&self, key: u64, entry: SolutionEntry);
}

/// The cache seam threaded through
/// [`Runner::run_ctx`](crate::runner::Runner::run_ctx): absent stores
/// mean "behave exactly like the batch path".
#[derive(Clone, Copy, Default)]
pub struct RunContext<'a> {
    /// Where the runner looks up / retains built graphs.
    pub graphs: Option<&'a dyn GraphStore>,
    /// Where the spokesman task looks up / retains solutions.
    pub solutions: Option<&'a dyn SolutionStore>,
}

/// Configuration of an [`ArtifactCache`].
#[derive(Clone, Debug, Default)]
pub struct CacheConfig {
    /// Byte budget for resident built graphs (`None` = unbounded).
    pub graph_budget_bytes: Option<u64>,
    /// Byte budget for resident solutions (`None` = unbounded).
    pub solution_budget_bytes: Option<u64>,
    /// Directory for persisted solution artifacts (`None` = memory only).
    /// Files are named `<key:016x>.wxsol.json`, so the directory can sit
    /// next to converted `.wxg` graphs.
    pub persist_dir: Option<PathBuf>,
}

/// A point-in-time snapshot of cache activity.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, serde::Serialize)]
pub struct CacheStats {
    /// Graph lookups served from memory.
    pub graph_hits: u64,
    /// Graph lookups that had to build.
    pub graph_misses: u64,
    /// Graph lookups that joined an in-flight build.
    pub graph_coalesced: u64,
    /// Graphs dropped by the byte-budget LRU.
    pub graph_evictions: u64,
    /// Solution lookups served from memory.
    pub solution_hits: u64,
    /// Solution lookups that had to solve.
    pub solution_misses: u64,
    /// Solution lookups served from the persist directory.
    pub solution_disk_hits: u64,
    /// Solutions dropped by the byte-budget LRU.
    pub solution_evictions: u64,
}

impl CacheStats {
    /// The activity between an `earlier` snapshot and this one
    /// (saturating, so snapshots taken across a cache swap stay sane).
    #[must_use]
    pub fn delta_since(&self, earlier: &CacheStats) -> CacheStats {
        CacheStats {
            graph_hits: self.graph_hits.saturating_sub(earlier.graph_hits),
            graph_misses: self.graph_misses.saturating_sub(earlier.graph_misses),
            graph_coalesced: self.graph_coalesced.saturating_sub(earlier.graph_coalesced),
            graph_evictions: self.graph_evictions.saturating_sub(earlier.graph_evictions),
            solution_hits: self.solution_hits.saturating_sub(earlier.solution_hits),
            solution_misses: self.solution_misses.saturating_sub(earlier.solution_misses),
            solution_disk_hits: self
                .solution_disk_hits
                .saturating_sub(earlier.solution_disk_hits),
            solution_evictions: self
                .solution_evictions
                .saturating_sub(earlier.solution_evictions),
        }
    }
}

/// One byte-budgeted LRU table: key → (value, bytes, last-used tick).
/// Both artifact classes keep one.
struct Lru<V> {
    entries: BTreeMap<u64, (V, u64, u64)>,
    bytes: u64,
}

impl<V> Default for Lru<V> {
    fn default() -> Self {
        Lru {
            entries: BTreeMap::new(),
            bytes: 0,
        }
    }
}

impl<V: Clone> Lru<V> {
    /// The value under `key`, marked used at `tick`.
    fn touch(&mut self, key: u64, tick: u64) -> Option<V> {
        let (value, _, last_used) = self.entries.get_mut(&key)?;
        *last_used = tick;
        Some(value.clone())
    }

    /// Stores `value` under `key` as used at `tick`, then evicts the least
    /// `(last_used, key)` entries other than `key` until the table fits
    /// `budget`. Returns how many it evicted.
    fn insert(&mut self, key: u64, value: V, bytes: u64, tick: u64, budget: Option<u64>) -> u64 {
        if let Some((_, old, _)) = self.entries.insert(key, (value, bytes, tick)) {
            self.bytes = self.bytes.saturating_sub(old);
        }
        self.bytes += bytes;
        let mut evicted = 0;
        while self.bytes > budget.unwrap_or(u64::MAX) {
            let victim = self
                .entries
                .iter()
                .filter(|(k, _)| **k != key)
                .map(|(k, (_, _, last_used))| (*last_used, *k))
                .min();
            let Some((_, victim)) = victim else { break };
            if let Some((_, bytes, _)) = self.entries.remove(&victim) {
                self.bytes = self.bytes.saturating_sub(bytes);
                evicted += 1;
            }
        }
        evicted
    }
}

#[derive(Default)]
struct CacheInner {
    graphs: Lru<Arc<BuiltGraph>>,
    /// Graph keys some thread is building; waiters block on the condvar.
    building: BTreeSet<u64>,
    solutions: Lru<Arc<SolutionEntry>>,
    tick: u64,
    stats: CacheStats,
}

impl CacheInner {
    fn next_tick(&mut self) -> u64 {
        self.tick += 1;
        self.tick
    }
}

/// The default in-memory LRU cache (see module docs).
pub struct ArtifactCache {
    config: CacheConfig,
    inner: Mutex<CacheInner>,
    build_done: Condvar,
}

impl ArtifactCache {
    /// Creates an empty cache with the given budgets/persistence.
    #[must_use]
    pub fn new(config: CacheConfig) -> ArtifactCache {
        ArtifactCache {
            config,
            inner: Mutex::new(CacheInner::default()),
            build_done: Condvar::new(),
        }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, CacheInner> {
        self.inner.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// A snapshot of cumulative cache activity.
    #[must_use]
    pub fn stats(&self) -> CacheStats {
        self.lock().stats
    }

    fn persist_path(&self, key: u64) -> Option<PathBuf> {
        self.config
            .persist_dir
            .as_ref()
            .map(|dir| dir.join(format!("{key:016x}.wxsol.json")))
    }

    /// Best-effort disk write of a solution entry; IO failures are
    /// swallowed (the cache stays memory-correct without persistence).
    fn persist_solution(&self, key: u64, entry: &SolutionEntry) {
        let Some(path) = self.persist_path(key) else {
            return;
        };
        if let Ok(text) = serde_json::to_string_pretty(entry) {
            let _ = std::fs::write(path, text);
        }
    }

    /// Reads a persisted entry; a missing or unreadable file is a miss.
    fn load_persisted(&self, key: u64) -> Option<SolutionEntry> {
        let text = std::fs::read_to_string(self.persist_path(key)?).ok()?;
        serde_json::from_str(&text).ok()
    }

    fn insert_solution(
        &self,
        inner: &mut CacheInner,
        key: u64,
        entry: Arc<SolutionEntry>,
    ) -> Arc<SolutionEntry> {
        let (tick, bytes) = (inner.next_tick(), entry.approx_bytes());
        let budget = self.config.solution_budget_bytes;
        let evicted = inner
            .solutions
            .insert(key, Arc::clone(&entry), bytes, tick, budget);
        inner.stats.solution_evictions += evicted;
        entry
    }
}

impl GraphStore for ArtifactCache {
    fn get_or_build(
        &self,
        key: u64,
        build: &mut dyn FnMut() -> Result<BuiltGraph>,
    ) -> Result<Arc<BuiltGraph>> {
        let mut inner = self.lock();
        loop {
            let tick = inner.next_tick();
            if let Some(graph) = inner.graphs.touch(key, tick) {
                inner.stats.graph_hits += 1;
                return Ok(graph);
            }
            if !inner.building.contains(&key) {
                break;
            }
            inner.stats.graph_coalesced += 1;
            inner = self
                .build_done
                .wait(inner)
                .unwrap_or_else(PoisonError::into_inner);
        }
        inner.stats.graph_misses += 1;
        inner.building.insert(key);
        drop(inner);

        let built = match std::panic::catch_unwind(std::panic::AssertUnwindSafe(build)) {
            Ok(built) => built,
            Err(panic) => {
                // Withdraw the claim, so waiters retry rather than hang.
                self.lock().building.remove(&key);
                self.build_done.notify_all();
                std::panic::resume_unwind(panic);
            }
        };

        let mut inner = self.lock();
        // Withdraw the claim: waiters find the graph, or retry the build.
        inner.building.remove(&key);
        let built = built.map(|graph| {
            let graph = Arc::new(graph);
            let (tick, bytes) = (inner.next_tick(), graph.memory_bytes() as u64);
            let budget = self.config.graph_budget_bytes;
            let evicted = inner
                .graphs
                .insert(key, Arc::clone(&graph), bytes, tick, budget);
            inner.stats.graph_evictions += evicted;
            graph
        });
        drop(inner);
        self.build_done.notify_all();
        built
    }
}

impl SolutionStore for ArtifactCache {
    fn get(&self, key: u64) -> Option<Arc<SolutionEntry>> {
        let mut inner = self.lock();
        let tick = inner.next_tick();
        if let Some(entry) = inner.solutions.touch(key, tick) {
            inner.stats.solution_hits += 1;
            return Some(entry);
        }
        drop(inner);
        let loaded = self.load_persisted(key)?;
        let mut inner = self.lock();
        inner.stats.solution_disk_hits += 1;
        Some(self.insert_solution(&mut inner, key, Arc::new(loaded)))
    }

    fn put(&self, key: u64, entry: SolutionEntry) {
        self.persist_solution(key, &entry);
        let mut inner = self.lock();
        if inner.solutions.entries.contains_key(&key) {
            return;
        }
        inner.stats.solution_misses += 1;
        self.insert_solution(&mut inner, key, Arc::new(entry));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    impl ArtifactCache {
        /// The keys currently resident, in ascending key order
        /// `(graph keys, solution keys)` — the observable surface the
        /// eviction-determinism tests assert on.
        fn resident_keys(&self) -> (Vec<u64>, Vec<u64>) {
            let inner = self.lock();
            let graphs = inner.graphs.entries.keys().copied().collect();
            let solutions = inner.solutions.entries.keys().copied().collect();
            (graphs, solutions)
        }
    }
    use crate::source::GraphSource;
    use std::sync::atomic::{AtomicUsize, Ordering};

    fn csr(n: usize) -> BuiltGraph {
        GraphSource::Hypercube {
            dim: n.trailing_zeros() as usize,
        }
        .build_backend(0)
        .expect("hypercube builds")
    }

    fn entry(len: usize) -> SolutionEntry {
        SolutionEntry {
            artifact: SolutionArtifact {
                solver: wx_core::spokesman::SolverKind::GreedyMinDegree,
                num_left: len.max(1),
                subset: (0..len).collect(),
                unique_coverage: 0,
            },
            counters: Vec::new(),
        }
    }

    #[test]
    fn graph_store_shares_one_instance_per_key() {
        let cache = ArtifactCache::new(CacheConfig::default());
        let builds = AtomicUsize::new(0);
        let mut build = || {
            builds.fetch_add(1, Ordering::SeqCst);
            Ok(csr(16))
        };
        let a = cache.get_or_build(1, &mut build).expect("build ok");
        let b = cache.get_or_build(1, &mut build).expect("hit ok");
        assert!(Arc::ptr_eq(&a, &b));
        assert_eq!(builds.load(Ordering::SeqCst), 1);
        let stats = cache.stats();
        assert_eq!((stats.graph_hits, stats.graph_misses), (1, 1));
    }

    #[test]
    fn concurrent_builds_of_one_key_coalesce() {
        let cache = ArtifactCache::new(CacheConfig::default());
        let builds = AtomicUsize::new(0);
        std::thread::scope(|scope| {
            for _ in 0..8 {
                scope.spawn(|| {
                    let mut build = || {
                        builds.fetch_add(1, Ordering::SeqCst);
                        // Widen the in-flight window so peers actually wait.
                        std::thread::sleep(std::time::Duration::from_millis(20));
                        Ok(csr(16))
                    };
                    let g = cache.get_or_build(42, &mut build).expect("build ok");
                    assert_eq!(g.memory_bytes(), csr(16).memory_bytes());
                });
            }
        });
        assert_eq!(
            builds.load(Ordering::SeqCst),
            1,
            "peers must join the in-flight build"
        );
    }

    #[test]
    fn failed_build_is_retried_by_the_next_caller() {
        let cache = ArtifactCache::new(CacheConfig::default());
        let mut fail = || Err(crate::error::LabError::invalid("boom"));
        assert!(cache.get_or_build(7, &mut fail).is_err());
        let mut ok = || Ok(csr(8));
        assert!(cache.get_or_build(7, &mut ok).is_ok());
        // a panicking build withdraws its claim too
        let panicked = std::panic::catch_unwind(|| {
            cache.get_or_build(9, &mut || -> crate::error::Result<BuiltGraph> {
                panic!("boom")
            })
        });
        assert!(panicked.is_err());
        assert!(cache.get_or_build(9, &mut ok).is_ok());
    }

    #[test]
    fn graph_eviction_is_lru_and_deterministic() {
        let one = csr(16).memory_bytes() as u64;
        let run = || {
            let cache = ArtifactCache::new(CacheConfig {
                // Room for two resident graphs, not three.
                graph_budget_bytes: Some(2 * one + one / 2),
                ..CacheConfig::default()
            });
            for key in [1u64, 2, 3] {
                cache
                    .get_or_build(key, &mut || Ok(csr(16)))
                    .expect("build ok");
            }
            // Touch 2 so key 3's insertion finds 1 as the LRU victim…
            cache.get_or_build(2, &mut || Ok(csr(16))).expect("hit ok");
            cache
                .get_or_build(4, &mut || Ok(csr(16)))
                .expect("build ok");
            cache.resident_keys().0
        };
        let first = run();
        // 1 evicted by 3's insert, 3 evicted by 4's insert (2 was touched).
        assert_eq!(first, vec![2, 4]);
        assert_eq!(run(), first, "eviction must be deterministic");
    }

    #[test]
    fn solution_eviction_under_tiny_budget_is_deterministic() {
        let run = || {
            let cache = ArtifactCache::new(CacheConfig {
                solution_budget_bytes: Some(2 * entry(4).approx_bytes() + 1),
                ..CacheConfig::default()
            });
            for key in [10u64, 11, 12] {
                cache.put(key, entry(4));
            }
            assert!(cache.get(10).is_none(), "10 was the LRU victim");
            let _ = cache.get(11);
            cache.put(13, entry(4));
            cache.resident_keys().1
        };
        let first = run();
        assert_eq!(first, vec![11, 13]);
        assert_eq!(run(), first, "eviction must be deterministic");
    }

    #[test]
    fn solutions_persist_and_reload_across_cache_instances() {
        let dir = std::env::temp_dir().join(format!("wx-cache-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("mkdir");
        let config = CacheConfig {
            persist_dir: Some(dir.clone()),
            ..CacheConfig::default()
        };
        let a = ArtifactCache::new(config.clone());
        let put = SolutionEntry {
            counters: vec![("spokesman.greedy_picks".to_string(), 3)],
            ..entry(5)
        };
        a.put(99, put.clone());

        let b = ArtifactCache::new(config);
        let got = b.get(99).expect("persisted entry reloads");
        assert_eq!(*got, put);
        assert_eq!(b.stats().solution_disk_hits, 1);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
