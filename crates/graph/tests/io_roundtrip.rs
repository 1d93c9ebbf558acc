//! Property-based round-trip tests for `wx_graph::io`: for random graphs,
//! `save_graph` → `load_graph` reproduces the original CSR graph exactly,
//! in both text formats, and mutating the saved header is always detected.

use std::sync::atomic::{AtomicUsize, Ordering};

use proptest::prelude::*;
use wx_graph::io::{load_graph, save_graph};
use wx_graph::{Graph, GraphError};

/// Saves `g` to a fresh scratch file with extension `ext`, rewrites the
/// saved text with `edit`, and loads it back.
fn reload(g: &Graph, ext: &str, edit: impl Fn(String) -> String) -> Result<Graph, GraphError> {
    static COUNTER: AtomicUsize = AtomicUsize::new(0);
    let dir = std::env::temp_dir().join(format!("wx-graph-io-prop-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    let path = dir.join(format!(
        "g-{}.{ext}",
        COUNTER.fetch_add(1, Ordering::Relaxed)
    ));
    save_graph(g, &path).unwrap();
    std::fs::write(&path, edit(std::fs::read_to_string(&path).unwrap())).unwrap();
    let result = load_graph(&path);
    std::fs::remove_file(&path).ok();
    result
}

/// The saved edge list's `n m` header line.
fn header(g: &Graph) -> String {
    format!("{} {}\n", g.num_vertices(), g.num_edges())
}

/// Strategy: a random graph on up to `max_n` vertices (possibly with
/// isolated vertices and no edges at all).
fn graph_strategy(max_n: usize) -> impl Strategy<Value = Graph> {
    (
        1..=max_n,
        prop::collection::vec((0..10_000usize, 0..10_000usize), 0..80),
    )
        .prop_map(|(n, pairs)| {
            Graph::from_edges(
                n,
                pairs
                    .into_iter()
                    .map(|(u, v)| (u % n, v % n))
                    .filter(|(u, v)| u != v),
            )
            .expect("endpoints are reduced into range and loops are filtered")
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Edge list: write → read is the identity on CSR graphs.
    #[test]
    fn edge_list_round_trips(g in graph_strategy(40)) {
        prop_assert_eq!(reload(&g, "edges", |t| t).expect("writer output parses"), g);
    }

    /// DIMACS: write → read is the identity on CSR graphs.
    #[test]
    fn dimacs_round_trips(g in graph_strategy(40)) {
        prop_assert_eq!(reload(&g, "col", |t| t).expect("writer output parses"), g);
    }

    /// The two formats agree: loading a graph saved in either format
    /// yields the same graph.
    #[test]
    fn formats_agree(g in graph_strategy(30)) {
        prop_assert_eq!(reload(&g, "edges", |t| t).unwrap(), reload(&g, "col", |t| t).unwrap());
    }

    /// Understating the edge count in the header is always detected (the
    /// reader refuses both truncated and over-full edge sections).
    #[test]
    fn edge_count_mismatch_is_detected(g in graph_strategy(30), delta in 1usize..3) {
        prop_assume!(g.num_edges() >= delta);
        let understated = format!("{} {}\n", g.num_vertices(), g.num_edges() - delta);
        let err = reload(&g, "edges", |t| t.replacen(&header(&g), &understated, 1))
            .expect_err("mismatch must be rejected");
        prop_assert!(matches!(err, GraphError::Parse { .. }));
    }

    /// Shrinking the declared vertex count makes some endpoint out of range,
    /// which surfaces as a parse error, never a panic.
    #[test]
    fn shrunken_vertex_count_is_rejected(g in graph_strategy(30)) {
        prop_assume!(g.num_edges() > 0);
        let max_endpoint = g.edges().map(|(u, v)| u.max(v)).max().unwrap();
        let shrunk = format!("{} {}\n", max_endpoint, g.num_edges());
        let err = reload(&g, "edges", |t| t.replacen(&header(&g), &shrunk, 1))
            .expect_err("out-of-range endpoint must be rejected");
        prop_assert!(matches!(err, GraphError::Parse { .. }));
    }
}
