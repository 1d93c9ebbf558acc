//! The graph-source registry: one serializable enum unifying every way the
//! workspace can produce a graph.
//!
//! A [`GraphSource`] names either a generator from
//! [`wx_constructions::families`](wx_core::constructions::families) (with
//! its parameters), a random generator, or a file loader backed by
//! [`wx_graph::io`](wx_core::graph::io). Scenario specs embed one, the
//! runner calls [`GraphSource::build_backend`] once per trial with a derived
//! seed, and randomized sources ([`GraphSource::is_randomized`]) draw a
//! fresh instance per trial while deterministic ones are built once and
//! shared. Each source's parameter rule is one check next to its generator,
//! which [`GraphSource::validate`] runs before anything is built.
//!
//! The JSON shape is the serde external tag:
//! `{"RandomRegular": {"n": 64, "d": 4}}`, `{"Hypercube": {"dim": 6}}`,
//! `{"File": {"path": "graphs/foo.edges"}}`, …; [`catalog`] holds one
//! example of every kind. A `File` source's extension picks its format
//! ([`GraphFileFormat::from_path`]): `.col`, `.dimacs` or `.clq` is DIMACS,
//! `.wxg` is the out-of-core image served through a memory map
//! ([`MmapGraph`], built by `wx convert`), and anything else an edge list.
//!
//! Two source kinds go beyond materialized CSR graphs (see
//! [`GraphSource::build_backend`] and the [`BuiltGraph`] enum):
//!
//! * `{"Implicit": {"family": {"Hypercube": {"dim": 20}}}}` — an
//!   [`ImplicitGraph`] whose neighborhoods are computed on the fly, so
//!   scenarios can measure families far past RAM-materializable sizes;
//! * `{"Induced": {"base": {...}, "size": 32}}` (or `"vertices": [...]`) — a
//!   zero-copy [`SubgraphView`](wx_core::graph::SubgraphView) of a base
//!   source, replacing the `O(n + m)` induced-subgraph materialization.

use serde::{Deserialize, Serialize};
use std::collections::BTreeSet;
use std::path::Path;
use std::sync::Arc;
use wx_core::constructions::families;
use wx_core::graph::io::{load_graph, GraphFileFormat};
use wx_core::graph::random::{random_subset_of_size_sparse, rng_from_seed};
use wx_core::graph::{
    Graph, GraphError, ImplicitFamily, ImplicitGraph, MmapGraph, SubsetIndex, VertexSet,
};

/// A declarative graph source: family generators, random generators and
/// file loaders behind one serializable enum.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub enum GraphSource {
    /// Random `d`-regular graph on `n` vertices (seeded per trial).
    RandomRegular {
        /// Number of vertices.
        n: usize,
        /// Degree.
        d: usize,
    },
    /// Boolean hypercube `Q_dim` on `2^dim` vertices.
    Hypercube {
        /// Dimension.
        dim: usize,
    },
    /// Margulis–Gabber–Galil expander on `Z_m × Z_m`.
    Margulis {
        /// Side length `m`.
        m: usize,
    },
    /// The paper's `C⁺` example: a `k`-clique plus a pendant source
    /// (the pendant is vertex `k`).
    CompletePlus {
        /// Clique size.
        k: usize,
    },
    /// 2-D grid.
    Grid {
        /// Rows.
        rows: usize,
        /// Columns.
        cols: usize,
    },
    /// 2-D torus.
    Torus {
        /// Rows.
        rows: usize,
        /// Columns.
        cols: usize,
    },
    /// Complete `k`-ary tree.
    KAryTree {
        /// Branching factor.
        arity: usize,
        /// Number of levels.
        levels: usize,
    },
    /// Uniformly random labelled tree on `n` vertices (seeded per trial).
    RandomTree {
        /// Number of vertices.
        n: usize,
    },
    /// A graph file whose extension picks the format: DIMACS for `.col`,
    /// `.dimacs` and `.clq`; a `.wxg` image (from `wx convert` or
    /// [`Graph::write_wxg`]) served zero-copy on the [`MmapGraph`] backend,
    /// never materialized in RAM; an edge list otherwise.
    File {
        /// Path, relative to the working directory.
        path: String,
    },
    /// An implicit graph backend: neighborhoods computed on the fly from a
    /// closed-form family rule, never materialized. Tasks run directly on
    /// the [`ImplicitGraph`] view, so `n` can exceed RAM-materializable
    /// sizes.
    Implicit {
        /// The family rule (`Hypercube`, `CyclePower`, `Torus`).
        family: ImplicitFamily,
    },
    /// A zero-copy induced subgraph of a base source: tasks run on a
    /// [`SubgraphView`](wx_core::graph::SubgraphView) of the base graph
    /// instead of a materialized copy. Exactly one of `size` (a seeded
    /// random subset, redrawn per trial) or `vertices` (an explicit list)
    /// must be given; the base may be any non-`Induced` source.
    Induced {
        /// The base graph source.
        base: Box<GraphSource>,
        /// Random-subset size (drawn from the trial seed).
        size: Option<usize>,
        /// Explicit vertex list (deterministic).
        vertices: Option<Vec<usize>>,
    },
}

/// The seeded random subset an `Induced { size }` source draws for a given
/// build seed: Floyd's O(size) sampler, so redrawing over a million-vertex
/// implicit base never touches O(n) state.
fn induced_subset_for_seed(n: usize, size: usize, build_seed: u64) -> VertexSet {
    let mut rng = rng_from_seed(wx_core::graph::random::derive_seed(build_seed, 0x1D0CED));
    random_subset_of_size_sparse(&mut rng, n, size)
}

/// The range rule of an `Induced` source over a base of `n` vertices: the
/// subset `size`, and every listed vertex, must fall within the base.
fn check_induced_range(
    n: usize,
    size: Option<usize>,
    vertices: Option<&[usize]>,
) -> wx_core::graph::Result<()> {
    if let Some(size) = size.filter(|&size| size > n) {
        return Err(GraphError::invalid(format!(
            "induced subset size {size} out of range for base with {n} vertices"
        )));
    }
    if let Some(v) = vertices.into_iter().flatten().find(|&&v| v >= n) {
        return Err(GraphError::invalid(format!(
            "induced vertex {v} out of range for base with {n} vertices"
        )));
    }
    Ok(())
}

/// The typed error for an `Induced` source over another `Induced` source.
pub(crate) fn nested_induced() -> GraphError {
    GraphError::invalid("induced sources cannot nest another induced source")
}

/// A graph built by [`GraphSource::build_backend`]: the CSR default, the
/// implicit family backend, the out-of-core mmap backend, or a
/// base-plus-subset pair the runner wraps in a zero-copy
/// [`SubgraphView`](wx_core::graph::SubgraphView) at task time.
#[derive(Clone, Debug)]
pub enum BuiltGraph {
    /// A materialized CSR graph.
    Csr(Graph),
    /// An implicit family backend.
    Implicit(ImplicitGraph),
    /// An out-of-core `.wxg` backend: the CSR arrays stay in the page
    /// cache behind a read-only memory mapping. The `Arc` keeps
    /// [`BuiltGraph`] cheaply cloneable without remapping the file.
    Mmap(Arc<MmapGraph>),
    /// An induced view over a non-induced base. The base is shared, so
    /// trials that redraw only the subset reuse one built base.
    Induced {
        /// The base backend (never itself `Induced`).
        base: Arc<BuiltGraph>,
        /// The inducing subset (universe = base's vertex count) with its
        /// sorted member list, built once per instance.
        index: SubsetIndex,
    },
}

/// Dispatches a [`BuiltGraph`] to a generic body: each backend kind binds
/// `$g` to a concrete `&impl GraphView` (the `Induced` arm constructs the
/// zero-copy [`SubgraphView`](wx_core::graph::SubgraphView) over its
/// base), so the body monomorphizes per backend and the hot paths stay
/// static-dispatch. The body must evaluate to a `Result` whose error type
/// converts from [`GraphError`]: an `Induced` base that is itself `Induced`
/// yields the nested-induced error.
macro_rules! with_graph_view {
    ($built:expr, $g:ident => $body:expr) => {
        $crate::source::with_base_view!($built, $g => $body,
            $crate::source::BuiltGraph::Induced { base, index } => {
                $crate::source::with_base_view!(base.as_ref(), base => {
                    let view = wx_core::graph::SubgraphView::new(base, index);
                    let $g = &view;
                    $body
                }, $crate::source::BuiltGraph::Induced { .. } => {
                    Err($crate::source::nested_induced().into())
                })
            })
    };
}
pub(crate) use with_graph_view;

/// The non-induced arms of [`with_graph_view`]; `$induced` handles the
/// `Induced` variant.
macro_rules! with_base_view {
    ($built:expr, $g:ident => $body:expr, $induced:pat => $other:expr) => {
        match $built {
            $crate::source::BuiltGraph::Csr(g) => {
                let $g = g;
                $body
            }
            $crate::source::BuiltGraph::Implicit(g) => {
                let $g = g;
                $body
            }
            $crate::source::BuiltGraph::Mmap(g) => {
                let $g = &**g;
                $body
            }
            $induced => $other,
        }
    };
}
pub(crate) use with_base_view;

/// Builds `source` at `seed` and materializes it as a CSR [`Graph`], so
/// tests can compare any backend with a hand-built graph.
#[cfg(test)]
pub(crate) fn build_csr(source: &GraphSource, seed: u64) -> wx_core::graph::Result<Graph> {
    let built = source.build_backend(seed)?;
    with_graph_view!(&built, g => Ok(wx_core::graph::view::materialize(g)))
}

impl BuiltGraph {
    /// The number of vertices of the graph this backend presents (the
    /// subset size for `Induced`).
    #[must_use]
    pub fn num_vertices(&self) -> usize {
        use wx_core::graph::GraphView;
        with_base_view!(self, g => g.num_vertices(), BuiltGraph::Induced { index, .. } => index.members().len())
    }

    /// The resident-memory footprint of this backend, used by the artifact
    /// cache's byte-budget accounting. Mirrors each backend's
    /// `GraphView::memory_bytes` (so mmap-backed graphs report only their
    /// header/metadata residency, not the page-cached file), plus the
    /// inducing subset's words and sorted member list for `Induced`.
    #[must_use]
    pub fn memory_bytes(&self) -> usize {
        use wx_core::graph::GraphView;
        with_base_view!(self, g => g.memory_bytes(), BuiltGraph::Induced { base, index } => {
            base.memory_bytes()
                + std::mem::size_of_val(index.set().as_words())
                + std::mem::size_of_val(index.members())
        })
    }
}

impl GraphSource {
    /// Builds the graph in its native backend: CSR for the materialized
    /// sources, [`ImplicitGraph`] for `Implicit`, and a base-plus-subset
    /// pair for `Induced` (the runner wraps it in a zero-copy
    /// [`SubgraphView`](wx_core::graph::SubgraphView) at task time).
    /// Deterministic sources ignore `seed`; randomized ones derive their
    /// instance from it, so equal seeds give equal graphs. The parameters
    /// are checked first, by [`GraphSource::validate`].
    pub fn build_backend(&self, seed: u64) -> wx_core::graph::Result<BuiltGraph> {
        self.validate()?;
        let csr = |g: wx_core::graph::Result<Graph>| g.map(BuiltGraph::Csr);
        match self {
            GraphSource::RandomRegular { n, d } => {
                csr(families::random_regular_graph(*n, *d, seed))
            }
            GraphSource::Hypercube { dim } => csr(families::hypercube_graph(*dim)),
            GraphSource::Margulis { m } => csr(families::margulis_graph(*m)),
            GraphSource::CompletePlus { k } => {
                csr(families::complete_plus_graph(*k).map(|(g, _)| g))
            }
            GraphSource::Grid { rows, cols } => csr(families::grid_graph(*rows, *cols)),
            GraphSource::Torus { rows, cols } => csr(families::torus_graph(*rows, *cols)),
            GraphSource::KAryTree { arity, levels } => {
                csr(families::complete_k_ary_tree(*arity, *levels))
            }
            GraphSource::RandomTree { n } => csr(families::random_tree(*n, seed)),
            GraphSource::File { path } => match GraphFileFormat::from_path(Path::new(path)) {
                GraphFileFormat::Wxg => {
                    MmapGraph::open(path).map(|g| BuiltGraph::Mmap(Arc::new(g)))
                }
                GraphFileFormat::EdgeList | GraphFileFormat::Dimacs => csr(load_graph(path)),
            },
            GraphSource::Implicit { family } => {
                ImplicitGraph::new(*family).map(BuiltGraph::Implicit)
            }
            GraphSource::Induced { base, .. } => {
                self.induce(Arc::new(base.build_backend(seed)?), seed)
            }
        }
    }

    /// Cuts this validated `Induced` source's subset, within the range rule,
    /// out of an already built `base`: the seeded random subset for `size`
    /// (drawn from `seed`, the build seed), or the explicit `vertices`.
    /// [`GraphSource::build_backend`] and the runner's shared-base instances
    /// both draw through here, so a shared base yields exactly the subsets a
    /// full per-trial build would.
    pub(crate) fn induce(
        &self,
        base: Arc<BuiltGraph>,
        seed: u64,
    ) -> wx_core::graph::Result<BuiltGraph> {
        let GraphSource::Induced { size, vertices, .. } = self else {
            return Err(GraphError::invalid(format!(
                "{} is not an induced source",
                self.label()
            )));
        };
        let n = base.num_vertices();
        check_induced_range(n, *size, vertices.as_deref())?;
        // `validate` admits exactly one of `size` and `vertices`
        let set = match vertices {
            Some(vs) => VertexSet::from_iter(n, vs.iter().copied()),
            None => induced_subset_for_seed(n, size.unwrap_or(0), seed),
        };
        Ok(BuiltGraph::Induced {
            base,
            index: SubsetIndex::new(set),
        })
    }

    /// `true` when the built instance depends on the seed, in which case the
    /// runner draws a fresh instance per trial.
    pub fn is_randomized(&self) -> bool {
        match self {
            GraphSource::RandomRegular { .. } | GraphSource::RandomTree { .. } => true,
            // a random subset is redrawn per trial; an explicit one is not
            GraphSource::Induced { base, size, .. } => size.is_some() || base.is_randomized(),
            _ => false,
        }
    }

    /// A compact human-readable label for reports, e.g.
    /// `random-regular(n=64, d=4)`.
    pub fn label(&self) -> String {
        match self {
            GraphSource::RandomRegular { n, d } => format!("random-regular(n={n}, d={d})"),
            GraphSource::Hypercube { dim } => format!("hypercube(dim={dim})"),
            GraphSource::Margulis { m } => format!("margulis(m={m})"),
            GraphSource::CompletePlus { k } => format!("complete-plus(k={k})"),
            GraphSource::Grid { rows, cols } => format!("grid({rows}x{cols})"),
            GraphSource::Torus { rows, cols } => format!("torus({rows}x{cols})"),
            GraphSource::KAryTree { arity, levels } => {
                format!("k-ary-tree(arity={arity}, levels={levels})")
            }
            GraphSource::RandomTree { n } => format!("random-tree(n={n})"),
            GraphSource::File { path } => match GraphFileFormat::from_path(Path::new(path)) {
                GraphFileFormat::EdgeList => format!("edge-list({path})"),
                GraphFileFormat::Dimacs => format!("dimacs({path})"),
                GraphFileFormat::Wxg => format!("wxg-mmap({path})"),
            },
            GraphSource::Implicit { family } => format!("implicit:{}", family.label()),
            GraphSource::Induced {
                base,
                size,
                vertices,
            } => match (size, vertices) {
                (Some(k), _) => format!("induced:random({k}) of {}", base.label()),
                (None, Some(vs)) => format!("induced:explicit({}) of {}", vs.len(), base.label()),
                (None, None) => format!("induced:invalid of {}", base.label()),
            },
        }
    }

    /// Checks the parameters by the one rule their generator applies and
    /// returns the vertex count they fix (`None` for a `File` source, whose
    /// size is known once it is opened, or an `Induced` source over one).
    /// Called by `ScenarioSpec::validate` and first by
    /// [`GraphSource::build_backend`], so every path rejects a bad parameter
    /// with the same error before any trial runs.
    pub fn validate(&self) -> wx_core::graph::Result<Option<usize>> {
        let n = match self {
            GraphSource::RandomRegular { n, d } => families::check_random_regular(*n, *d)?,
            GraphSource::Hypercube { dim } => families::check_hypercube(*dim)?,
            GraphSource::Margulis { m } => families::check_margulis(*m)?,
            GraphSource::CompletePlus { k } => families::check_complete_plus(*k)?,
            GraphSource::Grid { rows, cols } => families::check_grid(*rows, *cols)?,
            GraphSource::Torus { rows, cols } => ImplicitFamily::Torus {
                rows: *rows,
                cols: *cols,
            }
            .validate()?,
            GraphSource::KAryTree { arity, levels } => families::check_k_ary_tree(*arity, *levels)?,
            GraphSource::RandomTree { n } => families::check_random_tree(*n)?,
            GraphSource::File { .. } => return Ok(None),
            GraphSource::Implicit { family } => family.validate()?,
            GraphSource::Induced {
                base,
                size,
                vertices,
            } => {
                if matches!(**base, GraphSource::Induced { .. }) {
                    return Err(nested_induced());
                }
                let subset = match (size, vertices) {
                    (Some(0), None) => {
                        return Err(GraphError::invalid(
                            "induced subset size must be at least 1",
                        ))
                    }
                    (Some(k), None) => *k,
                    (None, Some(vs)) if vs.is_empty() => {
                        return Err(GraphError::invalid("induced vertex list must be non-empty"))
                    }
                    (None, Some(vs)) => vs.iter().collect::<BTreeSet<_>>().len(),
                    (Some(_), Some(_)) | (None, None) => {
                        return Err(GraphError::invalid(
                            "induced source needs exactly one of `size` or `vertices`",
                        ))
                    }
                };
                let Some(n) = base.validate()? else {
                    return Ok(None);
                };
                check_induced_range(n, *size, vertices.as_deref())?;
                subset
            }
        };
        Ok(Some(n))
    }
}

/// The one list of source kinds: an example [`GraphSource`] of every
/// variant with a one-line summary, in declaration order. `wx list` prints
/// it.
pub fn catalog() -> Vec<(GraphSource, &'static str)> {
    vec![
        (
            GraphSource::RandomRegular { n: 64, d: 4 },
            "random d-regular graph (near-Ramanujan expander w.h.p.)",
        ),
        (
            GraphSource::Hypercube { dim: 6 },
            "Boolean hypercube Q_dim on 2^dim vertices",
        ),
        (
            GraphSource::Margulis { m: 8 },
            "Margulis-Gabber-Galil expander on Z_m x Z_m",
        ),
        (
            GraphSource::CompletePlus { k: 8 },
            "the paper's C+ example: k-clique plus a pendant source (vertex k)",
        ),
        (
            GraphSource::Grid { rows: 8, cols: 8 },
            "2-D grid (planar, arboricity <= 3)",
        ),
        (
            GraphSource::Torus { rows: 8, cols: 8 },
            "2-D torus (wrap-around grid)",
        ),
        (
            GraphSource::KAryTree {
                arity: 2,
                levels: 6,
            },
            "complete k-ary tree (arboricity 1)",
        ),
        (
            GraphSource::RandomTree { n: 64 },
            "uniformly random labelled tree on n vertices",
        ),
        (
            GraphSource::File {
                path: "graphs/g.edges".to_string(),
            },
            "graph file: .col/.dimacs/.clq DIMACS, .wxg mmap image, else edge list",
        ),
        (
            GraphSource::Implicit {
                family: ImplicitFamily::Hypercube { dim: 20 },
            },
            "unmaterialized Hypercube, CyclePower or Torus family backend",
        ),
        (
            GraphSource::Induced {
                base: Box::new(GraphSource::Hypercube { dim: 6 }),
                size: Some(16),
                vertices: None,
            },
            "zero-copy induced subgraph: seeded random `size` or explicit `vertices`",
        ),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use wx_core::graph::view::materialize;

    #[test]
    fn every_family_source_builds() {
        let cases = [
            (GraphSource::RandomRegular { n: 16, d: 4 }, 16),
            (GraphSource::Hypercube { dim: 4 }, 16),
            (GraphSource::Margulis { m: 3 }, 9),
            (GraphSource::CompletePlus { k: 5 }, 6),
            (GraphSource::Grid { rows: 3, cols: 4 }, 12),
            (GraphSource::Torus { rows: 3, cols: 4 }, 12),
            (
                GraphSource::KAryTree {
                    arity: 2,
                    levels: 3,
                },
                7,
            ),
            (GraphSource::RandomTree { n: 9 }, 9),
        ];
        for (source, expect_n) in cases {
            let g = build_csr(&source, 5).unwrap_or_else(|e| panic!("{source:?}: {e}"));
            assert_eq!(g.num_vertices(), expect_n, "{source:?}");
            assert_eq!(source.validate().unwrap(), Some(expect_n), "{source:?}");
            assert!(!source.label().is_empty());
        }
    }

    #[test]
    fn randomized_sources_vary_with_seed_deterministic_ones_do_not() {
        let rr = GraphSource::RandomRegular { n: 24, d: 3 };
        assert!(rr.is_randomized());
        assert_eq!(build_csr(&rr, 1).unwrap(), build_csr(&rr, 1).unwrap());
        assert_ne!(build_csr(&rr, 1).unwrap(), build_csr(&rr, 2).unwrap());

        let hc = GraphSource::Hypercube { dim: 4 };
        assert!(!hc.is_randomized());
        assert_eq!(build_csr(&hc, 1).unwrap(), build_csr(&hc, 2).unwrap());
    }

    #[test]
    fn json_round_trip() {
        let source = GraphSource::RandomRegular { n: 64, d: 4 };
        let json = serde_json::to_string(&source).unwrap();
        assert!(json.contains("RandomRegular"), "{json}");
        let back: GraphSource = serde_json::from_str(&json).unwrap();
        assert_eq!(back, source);

        let parsed: GraphSource =
            serde_json::from_str(r#"{"Grid": {"rows": 3, "cols": 7}}"#).unwrap();
        assert_eq!(parsed, GraphSource::Grid { rows: 3, cols: 7 });

        assert!(serde_json::from_str::<GraphSource>(r#"{"NoSuchFamily": {}}"#).is_err());
    }

    #[test]
    fn implicit_source_builds_the_backend_and_materializes_equal() {
        let src = GraphSource::Implicit {
            family: ImplicitFamily::Hypercube { dim: 5 },
        };
        assert!(!src.is_randomized());
        assert!(src.validate().is_ok());
        assert_eq!(src.label(), "implicit:hypercube(dim=5)");
        let BuiltGraph::Implicit(backend) = src.build_backend(0).unwrap() else {
            panic!("implicit source must build an implicit backend");
        };
        // materialized fallback equals the families generator
        assert_eq!(
            build_csr(&src, 0).unwrap(),
            families::hypercube_graph(5).unwrap()
        );
        assert_eq!(materialize(&backend), families::hypercube_graph(5).unwrap());

        let bad = GraphSource::Implicit {
            family: ImplicitFamily::CyclePower { n: 4, power: 2 },
        };
        assert!(bad.validate().is_err());
        assert!(bad.build_backend(0).is_err());
    }

    #[test]
    fn induced_source_draws_seeded_subsets_and_validates() {
        let src = GraphSource::Induced {
            base: Box::new(GraphSource::Hypercube { dim: 4 }),
            size: Some(6),
            vertices: None,
        };
        assert!(src.is_randomized(), "random subsets are redrawn per trial");
        assert!(src.validate().is_ok());
        let BuiltGraph::Induced { base, index } = src.build_backend(3).unwrap() else {
            panic!("induced sources must build the induced backend");
        };
        assert!(
            matches!(*base, BuiltGraph::Csr(_)),
            "induced-of-csr must keep the base materialized only once"
        );
        assert_eq!(base.num_vertices(), 16);
        assert_eq!(index.set().len(), 6);
        // equal seeds draw equal subsets; different seeds differ
        let BuiltGraph::Induced { index: again, .. } = src.build_backend(3).unwrap() else {
            unreachable!()
        };
        assert_eq!(index.members(), again.members());

        // explicit vertex lists are deterministic
        let explicit = GraphSource::Induced {
            base: Box::new(GraphSource::Implicit {
                family: ImplicitFamily::CyclePower { n: 20, power: 2 },
            }),
            size: None,
            vertices: Some(vec![0, 1, 2, 3, 19]),
        };
        assert!(!explicit.is_randomized());
        let BuiltGraph::Induced { base, index } = explicit.build_backend(7).unwrap() else {
            panic!("induced sources must build the induced backend");
        };
        assert!(
            matches!(*base, BuiltGraph::Implicit(_)),
            "induced-of-implicit must keep the base implicit"
        );
        assert_eq!(index.members(), [0, 1, 2, 3, 19]);
        // materialized fallback equals the classic induced_subgraph path
        let mat = build_csr(&explicit, 7).unwrap();
        assert_eq!(mat.num_vertices(), 5);

        // validation failures
        for bad in [
            GraphSource::Induced {
                base: Box::new(GraphSource::Hypercube { dim: 3 }),
                size: None,
                vertices: None,
            },
            GraphSource::Induced {
                base: Box::new(GraphSource::Hypercube { dim: 3 }),
                size: Some(2),
                vertices: Some(vec![0, 1]),
            },
            GraphSource::Induced {
                base: Box::new(GraphSource::Induced {
                    base: Box::new(GraphSource::Hypercube { dim: 3 }),
                    size: Some(2),
                    vertices: None,
                }),
                size: Some(2),
                vertices: None,
            },
        ] {
            assert!(bad.validate().is_err(), "{bad:?} should not validate");
            assert!(bad.build_backend(0).is_err(), "{bad:?} should not build");
        }
        // out-of-range explicit vertices fail at build time
        let oob = GraphSource::Induced {
            base: Box::new(GraphSource::Hypercube { dim: 3 }),
            size: None,
            vertices: Some(vec![99]),
        };
        assert!(oob.build_backend(0).is_err());
    }

    #[test]
    fn implicit_and_induced_sources_round_trip_through_json() {
        let sources = [
            GraphSource::Implicit {
                family: ImplicitFamily::Torus { rows: 5, cols: 7 },
            },
            GraphSource::Induced {
                base: Box::new(GraphSource::RandomRegular { n: 64, d: 4 }),
                size: Some(16),
                vertices: None,
            },
        ];
        for src in sources {
            let json = serde_json::to_string(&src).unwrap();
            let back: GraphSource = serde_json::from_str(&json).unwrap();
            assert_eq!(back, src, "{json}");
        }
        let parsed: GraphSource =
            serde_json::from_str(r#"{"Implicit": {"family": {"Hypercube": {"dim": 12}}}}"#)
                .unwrap();
        assert_eq!(
            parsed,
            GraphSource::Implicit {
                family: ImplicitFamily::Hypercube { dim: 12 }
            }
        );
    }

    #[test]
    fn file_sources_load_and_dispatch() {
        // the extension alone picks the format, the label and the backend
        let g = build_csr(&GraphSource::Hypercube { dim: 3 }, 0).unwrap();
        let dir = std::env::temp_dir().join("wx-lab-source-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = |name: &str| dir.join(name).to_str().unwrap().to_string();
        wx_core::graph::io::save_graph(&g, path("g.edges")).unwrap();
        wx_core::graph::io::save_graph(&g, path("g.col")).unwrap();
        g.write_wxg(path("g.wxg")).unwrap();
        for (name, label) in [
            ("g.edges", "edge-list"),
            ("g.col", "dimacs"),
            ("g.wxg", "wxg-mmap"),
        ] {
            let src = GraphSource::File { path: path(name) };
            assert_eq!(src.label(), format!("{label}({})", path(name)));
            assert_eq!(build_csr(&src, 0).unwrap(), g, "{name}");
            let mapped = matches!(src.build_backend(0).unwrap(), BuiltGraph::Mmap(_));
            assert_eq!(mapped, name == "g.wxg", "{name}");
        }

        // DIMACS text under an edge-list name fails on line 1, naming the file
        std::fs::copy(path("g.col"), path("dimacs-text.edges")).unwrap();
        let misnamed = GraphSource::File {
            path: path("dimacs-text.edges"),
        };
        let err = build_csr(&misnamed, 0).unwrap_err();
        assert!(matches!(err, GraphError::Parse { line: 1, .. }), "{err}");
        assert!(err.to_string().contains("dimacs-text.edges"), "{err}");

        // the per-format tags, which could contradict the extension, are gone
        for old in [
            r#"{"EdgeListFile": {"path": "g.edges"}}"#,
            r#"{"DimacsFile": {"path": "g.col"}}"#,
        ] {
            assert!(serde_json::from_str::<GraphSource>(old).is_err(), "{old}");
        }
    }

    #[test]
    fn wxg_paths_build_the_mmap_backend() {
        let g = build_csr(&GraphSource::Hypercube { dim: 4 }, 0).unwrap();
        let dir = std::env::temp_dir().join("wx-lab-source-wxg-test");
        std::fs::create_dir_all(&dir).unwrap();
        let wxg = dir.join("g.wxg");
        g.write_wxg(&wxg).unwrap();
        let path = wxg.to_str().unwrap();

        // `.wxg` paths dispatch to the out-of-core mmap backend
        let src = GraphSource::File {
            path: path.to_string(),
        };
        assert!(!src.is_randomized());
        assert_eq!(src.label(), format!("wxg-mmap({path})"));
        let BuiltGraph::Mmap(backend) = src.build_backend(0).unwrap() else {
            panic!("a .wxg source must build the mmap backend");
        };
        use wx_core::graph::GraphView;
        assert_eq!(backend.num_vertices(), 16);
        // the materialized fallback round-trips to the original graph
        assert_eq!(build_csr(&src, 0).unwrap(), g);

        // induced sources run zero-copy over the mmap base
        let induced = GraphSource::Induced {
            base: Box::new(src.clone()),
            size: None,
            vertices: Some(vec![0, 1, 2, 3, 4, 5]),
        };
        let BuiltGraph::Induced { base, index } = induced.build_backend(0).unwrap() else {
            panic!("induced sources must build the induced backend");
        };
        assert!(
            matches!(*base, BuiltGraph::Mmap(_)),
            "induced-of-mmap must keep the base mapped"
        );
        assert_eq!(index.set().len(), 6);
        assert_eq!(
            build_csr(&induced, 0).unwrap(),
            g.induced_subgraph(&g.vertex_set(vec![0, 1, 2, 3, 4, 5])).0
        );

        // a file source round-trips through JSON
        let json = serde_json::to_string(&src).unwrap();
        let back: GraphSource = serde_json::from_str(&json).unwrap();
        assert_eq!(back, src);

        // text behind a `.wxg` name is rejected by the open-time
        // validation (bad magic), never parsed as garbage
        let bogus = dir.join("text.wxg");
        std::fs::write(&bogus, "2 1\n0 1\n").unwrap();
        let bogus = GraphSource::File {
            path: bogus.to_str().unwrap().to_string(),
        };
        assert!(bogus.build_backend(0).is_err());
    }

    #[test]
    fn a_bad_parameter_is_one_invalid_spec_on_every_path() {
        // one bad parameter set per rule: the spec check rejects it as an
        // invalid scenario, and a build stops at the same rule text
        for source in [
            r#"{"Grid": {"rows": 0, "cols": 5}}"#,
            r#"{"Torus": {"rows": 2, "cols": 5}}"#,
            r#"{"Hypercube": {"dim": 27}}"#,
            r#"{"Margulis": {"m": 1}}"#,
            r#"{"CompletePlus": {"k": 2}}"#,
            r#"{"KAryTree": {"arity": 0, "levels": 3}}"#,
            r#"{"RandomTree": {"n": 0}}"#,
            r#"{"RandomRegular": {"n": 5, "d": 3}}"#,
            r#"{"Implicit": {"family": {"Torus": {"rows": 2, "cols": 5}}}}"#,
            r#"{"Induced": {"base": {"Hypercube": {"dim": 3}}, "size": 0}}"#,
            r#"{"Induced": {"base": {"Hypercube": {"dim": 3}}, "size": 99}}"#,
            r#"{"Induced": {"base": {"Hypercube": {"dim": 3}}, "vertices": [0, 99]}}"#,
        ] {
            let spec: crate::spec::ScenarioSpec = serde_json::from_str(&format!(
                r#"{{"name": "bad", "source": {source}, "task": {{"Profile": {{}}}}}}"#
            ))
            .unwrap();
            let Err(crate::LabError::InvalidSpec(message)) = spec.validate() else {
                panic!("{source} must be an invalid spec");
            };
            let built = spec.source.build_backend(0).unwrap_err();
            assert_eq!(message, format!("source: {built}"), "{source}");
        }
    }

    #[test]
    fn catalog_lists_every_variant_once() {
        // an exhaustive match with no `_` arm: a new variant needs an index
        // here to compile and a catalog row to pass
        let mut rows = [0; 11];
        for (source, _) in catalog() {
            rows[match source {
                GraphSource::RandomRegular { .. } => 0,
                GraphSource::Hypercube { .. } => 1,
                GraphSource::Margulis { .. } => 2,
                GraphSource::CompletePlus { .. } => 3,
                GraphSource::Grid { .. } => 4,
                GraphSource::Torus { .. } => 5,
                GraphSource::KAryTree { .. } => 6,
                GraphSource::RandomTree { .. } => 7,
                GraphSource::File { .. } => 8,
                GraphSource::Implicit { .. } => 9,
                GraphSource::Induced { .. } => 10,
            }] += 1;
            assert!(source.validate().is_ok(), "{source:?}");
        }
        assert_eq!(rows, [1; 11]);
    }
}
