//! Property-based round-trip tests for the on-disk `.wxg` container: for
//! random graphs, `Graph::write_wxg` → [`MmapGraph::open`] reproduces the
//! CSR exactly (as a labelled graph *and* through every Γ operator), the
//! external-sort converter produces byte-identical files to the in-memory
//! writer, and arbitrary single-byte corruption is always rejected with a
//! typed error — never a panic, never a silently wrong graph.
//!
//! The measurement-level equivalence (all three expansion notions agree
//! between the mmap and in-memory backends) lives next to the engine in
//! `wx-expansion/tests/properties.rs`; report-level byte identity is pinned
//! by the `wx-lab` CLI tests.

use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};

use proptest::prelude::*;
use wx_graph::io::save_graph;
use wx_graph::view::{materialize, GraphView};
use wx_graph::{convert_to_wxg, ConvertOptions, Graph, MmapGraph, NeighborhoodScratch, VertexSet};

/// A scratch directory unique to this test binary, plus a fresh file name
/// per call so sequential proptest cases never reuse a mapping.
fn scratch_path(tag: &str, ext: &str) -> PathBuf {
    static COUNTER: AtomicUsize = AtomicUsize::new(0);
    let dir = std::env::temp_dir().join(format!("wx-graph-wxg-prop-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    let id = COUNTER.fetch_add(1, Ordering::Relaxed);
    dir.join(format!("{tag}-{id}.{ext}"))
}

/// Strategy: a random graph on up to `max_n` vertices (possibly with
/// isolated vertices and no edges at all) — same shape as `io_roundtrip`.
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
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// `write_wxg` → `MmapGraph::open` reproduces the CSR graph exactly,
    /// and the mapped view agrees with the in-memory graph on the raw view
    /// interface and every Γ operator.
    #[test]
    fn wxg_round_trips_exactly(
        g in graph_strategy(32),
        raw_sets in prop::collection::vec(
            (prop::collection::vec(0usize..32, 1..8),
             prop::collection::vec(0usize..32, 0..8)),
            1..4),
    ) {
        let path = scratch_path("roundtrip", "wxg");
        g.write_wxg(&path).unwrap();
        let m = MmapGraph::open(&path).unwrap();

        prop_assert_eq!(m.num_vertices(), g.num_vertices());
        prop_assert_eq!(m.num_edges(), g.num_edges());
        prop_assert_eq!(materialize(&m), g.clone());
        // the mapping's own state is the struct plus exactly the file bytes
        prop_assert_eq!(
            m.memory_bytes(),
            std::mem::size_of::<MmapGraph>() + m.file_len()
        );

        let n = g.num_vertices();
        let mut scr_g = NeighborhoodScratch::new(0);
        let mut scr_m = NeighborhoodScratch::new(0);
        for (s_raw, sp_raw) in &raw_sets {
            let s = VertexSet::from_iter(n, s_raw.iter().map(|v| v % n));
            let members = s.to_vec();
            // S' ⊆ S, as the Γ¹_S(S') kernel requires
            let s_prime = VertexSet::from_iter(
                n,
                sp_raw
                    .iter()
                    .filter(|_| !members.is_empty())
                    .map(|i| members[i % members.len()]),
            );
            prop_assert_eq!(
                scr_g.neighborhood(&g, &s).to_vec(),
                scr_m.neighborhood(&m, &s).to_vec(),
                "Γ(S)"
            );
            prop_assert_eq!(
                scr_g.external_neighborhood(&g, &s).to_vec(),
                scr_m.external_neighborhood(&m, &s).to_vec(),
                "Γ⁻(S)"
            );
            prop_assert_eq!(
                scr_g.unique_neighborhood(&g, &s).to_vec(),
                scr_m.unique_neighborhood(&m, &s).to_vec(),
                "Γ¹(S)"
            );
            prop_assert_eq!(
                scr_g.s_excluding_unique_neighborhood(&g, &s, &s_prime).to_vec(),
                scr_m.s_excluding_unique_neighborhood(&m, &s, &s_prime).to_vec(),
                "Γ¹_S(S')"
            );
        }
        std::fs::remove_file(&path).ok();
    }

    /// The streaming external-sort converter and the in-memory writer
    /// produce byte-identical `.wxg` files, even when a tiny chunk
    /// capacity forces the converter through its spill-and-merge path.
    #[test]
    fn converter_matches_in_memory_writer_byte_for_byte(
        g in graph_strategy(24),
        chunk_capacity in 2usize..12,
    ) {
        let text_path = scratch_path("convert-in", "edges");
        let via_convert = scratch_path("convert-out", "wxg");
        let via_writer = scratch_path("writer-out", "wxg");
        save_graph(&g, &text_path).unwrap();
        let stats =
            convert_to_wxg(&text_path, &via_convert, &ConvertOptions { chunk_capacity }).unwrap();
        g.write_wxg(&via_writer).unwrap();
        prop_assert_eq!(stats.vertices, g.num_vertices());
        prop_assert_eq!(stats.edges_unique, g.num_edges());
        let a = std::fs::read(&via_convert).unwrap();
        let b = std::fs::read(&via_writer).unwrap();
        prop_assert_eq!(a, b, "converter and writer bytes diverged");
        for p in [&text_path, &via_convert, &via_writer] {
            std::fs::remove_file(p).ok();
        }
    }

    /// Flipping any single byte of a valid `.wxg` file is rejected by
    /// `MmapGraph::open` with a typed `GraphError` — the validation gauntlet
    /// (magic, version, flags, sizes, checksum, CSR structure) leaves no
    /// byte unguarded, and corruption never panics or yields a graph.
    #[test]
    fn any_single_byte_flip_is_rejected(
        g in graph_strategy(16),
        offset_raw in 0usize..10_000,
        flip_raw in 0u8..255,
    ) {
        let flip = flip_raw + 1; // a nonzero XOR mask always changes the byte
        let path = scratch_path("corrupt", "wxg");
        g.write_wxg(&path).unwrap();
        let mut bytes = std::fs::read(&path).unwrap();
        let offset = offset_raw % bytes.len();
        bytes[offset] ^= flip;
        std::fs::write(&path, &bytes).unwrap();
        let result = MmapGraph::open(&path);
        prop_assert!(
            result.is_err(),
            "corruption at byte {offset} (xor {flip:#04x}) went undetected"
        );
        std::fs::remove_file(&path).ok();
    }
}
