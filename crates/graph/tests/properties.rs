//! Property-based tests for the graph substrate.
//!
//! These tests pin the substrate against simple reference models: `VertexSet`
//! against `std::collections::BTreeSet`, the CSR graph against its edge list,
//! and the neighborhood operators against their set-theoretic definitions.

use proptest::prelude::*;
use std::collections::BTreeSet;
use wx_graph::{BipartiteGraph, Graph, GraphView, NeighborhoodScratch, VertexSet};

/// Universe sizes for the `VertexSet` models: one word, a word boundary on
/// either side, and multi-word sets with a partial tail word.
const UNIVERSES: [usize; 6] = [1, 63, 64, 65, 130, 200];

/// Checks `set` against its `BTreeSet` model: size, ascending iteration
/// (`next` and `fold`), membership (including just past the universe) and
/// clear tail bits.
fn assert_models(set: &VertexSet, model: &BTreeSet<usize>) -> Result<(), TestCaseError> {
    let n = set.universe();
    let members: Vec<usize> = model.iter().copied().collect();
    prop_assert_eq!(set.len(), model.len());
    prop_assert_eq!(set.iter().collect::<Vec<_>>(), members.clone());
    prop_assert_eq!(set.to_vec(), members);
    for v in 0..=n {
        prop_assert_eq!(set.contains(v), model.contains(&v));
    }
    let words = set.as_words();
    let tail = n % 64;
    prop_assert!(tail == 0 || words[words.len() - 1] >> tail == 0);
    Ok(())
}

/// Strategy: a small random edge list over `n` vertices.
fn edge_list(n: usize) -> impl Strategy<Value = Vec<(usize, usize)>> {
    prop::collection::vec((0..n, 0..n), 0..(n * 3).max(1)).prop_map(move |pairs| {
        pairs
            .into_iter()
            .filter(|(u, v)| u != v)
            .collect::<Vec<_>>()
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// VertexSet behaves exactly like a BTreeSet: built from unsorted input
    /// with duplicates and under insert/remove, on universes that end
    /// inside, at and just past a word boundary.
    #[test]
    fn vertex_set_models_a_btreeset(universe in 0usize..UNIVERSES.len(),
                                    init in prop::collection::vec(0usize..400, 0..80),
                                    ops in prop::collection::vec((0usize..400, prop::bool::ANY), 0..120)) {
        let n = UNIVERSES[universe];
        let mut vs = VertexSet::from_iter(n, init.iter().map(|v| v % n));
        let mut model: BTreeSet<usize> = init.iter().map(|v| v % n).collect();
        assert_models(&vs, &model)?;
        // `from_words` rebuilds the set from its words, clearing bits past
        // the universe in the tail word.
        let mut words = vs.as_words().to_vec();
        if let (Some(last), tail @ 1..) = (words.last_mut(), n % 64) {
            *last |= !0u64 << tail;
        }
        prop_assert_eq!(VertexSet::from_words(n, words), vs.clone());
        for (v, insert) in ops {
            let v = v % n;
            if insert {
                prop_assert_eq!(vs.insert(v), model.insert(v));
            } else {
                prop_assert_eq!(vs.remove(v), model.remove(&v));
            }
        }
        assert_models(&vs, &model)?;
    }

    /// Set algebra agrees with BTreeSet member for member, and complement is
    /// an involution, on universes spanning one to four words.
    #[test]
    fn vertex_set_algebra(universe in 0usize..UNIVERSES.len(),
                          a in prop::collection::vec(0usize..400, 0..120),
                          b in prop::collection::vec(0usize..400, 0..120)) {
        let n = UNIVERSES[universe];
        let ma: BTreeSet<usize> = a.iter().map(|v| v % n).collect();
        let mb: BTreeSet<usize> = b.iter().map(|v| v % n).collect();
        let sa = VertexSet::from_iter(n, a.iter().map(|v| v % n));
        let sb = VertexSet::from_iter(n, b.iter().map(|v| v % n));
        assert_models(&sa.union(&sb), &ma.union(&mb).copied().collect())?;
        assert_models(&sa.intersection(&sb), &ma.intersection(&mb).copied().collect())?;
        assert_models(&sa.difference(&sb), &ma.difference(&mb).copied().collect())?;
        assert_models(&sa.complement(), &(0..n).filter(|v| !ma.contains(v)).collect())?;
        prop_assert_eq!(sa.complement().complement(), sa.clone());
        prop_assert_eq!(sa.is_subset_of(&sb), ma.is_subset(&mb));
        prop_assert_eq!(sa.is_disjoint_from(&sb), ma.is_disjoint(&mb));
        let inter = sa.intersection(&sb);
        prop_assert!(inter.is_subset_of(&sa) && inter.is_subset_of(&sb));
        prop_assert!(sa.difference(&sb).is_disjoint_from(&sb));
    }

    /// Graph construction: degrees sum to 2m, adjacency is symmetric and
    /// deduplicated, has_edge agrees with the edge list.
    #[test]
    fn graph_invariants(edges in edge_list(16)) {
        let g = Graph::from_edges(16, edges.iter().copied()).unwrap();
        let degree_sum: usize = g.vertices().map(|v| g.degree(v)).sum();
        prop_assert_eq!(degree_sum, 2 * g.num_edges());
        let edge_set: BTreeSet<(usize, usize)> = edges
            .iter()
            .map(|&(u, v)| (u.min(v), u.max(v)))
            .collect();
        prop_assert_eq!(g.num_edges(), edge_set.len());
        for &(u, v) in &edge_set {
            prop_assert!(g.has_edge(u, v) && g.has_edge(v, u));
        }
        for v in g.vertices() {
            let nbrs = g.neighbors(v);
            prop_assert!(nbrs.windows(2).all(|w| w[0] < w[1]), "sorted & deduped");
            prop_assert!(!nbrs.contains(&v), "no self-loops");
        }
    }

    /// Neighborhood operators match their set-theoretic definitions.
    #[test]
    fn neighborhood_definitions(edges in edge_list(12),
                                 members in prop::collection::btree_set(0usize..12, 1..8),
                                 sub in prop::collection::btree_set(0usize..12, 0..8)) {
        let g = Graph::from_edges(12, edges).unwrap();
        let s = VertexSet::from_iter(12, members.iter().copied());
        let s_prime = VertexSet::from_iter(12, sub.iter().copied().filter(|v| s.contains(*v)));

        let gamma = wx_graph::neighborhood::neighborhood(&g, &s);
        let gamma_minus = wx_graph::neighborhood::external_neighborhood(&g, &s);
        let gamma_one = wx_graph::neighborhood::unique_neighborhood(&g, &s);

        for v in 0..12 {
            let nbrs_in_s = g.neighbors(v).iter().filter(|&&u| s.contains(u)).count();
            prop_assert_eq!(gamma.contains(v), nbrs_in_s > 0);
            prop_assert_eq!(gamma_minus.contains(v), nbrs_in_s > 0 && !s.contains(v));
            prop_assert_eq!(gamma_one.contains(v), nbrs_in_s == 1 && !s.contains(v));
        }
        // S-excluding operators with S' ⊆ S
        let ex = wx_graph::neighborhood::s_excluding_unique_neighborhood(&g, &s, &s_prime);
        for v in 0..12 {
            let nbrs_in_sp = g.neighbors(v).iter().filter(|&&u| s_prime.contains(u)).count();
            prop_assert_eq!(ex.contains(v), nbrs_in_sp == 1 && !s.contains(v));
        }
        let mut scr = NeighborhoodScratch::default();
        prop_assert_eq!(scr.count_s_excluding_unique(&g, &s, &s_prime), ex.len());
    }

    /// The epoch-stamped scratch kernel agrees with naive set-materializing
    /// recomputation from the definitions, for the neighborhood primitives
    /// (`Γ`, `Γ⁻`, `Γ¹`, `Γ¹_S(S')`), in their counting and materializing
    /// forms — including when one scratch is reused across consecutive
    /// evaluations (epoch isolation).
    #[test]
    fn kernel_counts_match_naive_operators(edges in edge_list(14),
                                           members in prop::collection::btree_set(0usize..14, 1..9),
                                           sub in prop::collection::btree_set(0usize..14, 0..9)) {
        let g = Graph::from_edges(14, edges).unwrap();
        let s = VertexSet::from_iter(14, members.iter().copied());
        let s_prime = VertexSet::from_iter(14, sub.iter().copied().filter(|v| s.contains(*v)));

        // naive reference: per-vertex counts straight from the definitions
        let nbrs_in = |set: &VertexSet, v: usize| {
            g.neighbors(v).iter().filter(|&&u| set.contains(u)).count()
        };
        let naive_gamma: Vec<usize> = (0..14).filter(|&v| nbrs_in(&s, v) > 0).collect();
        let naive_gamma_minus: Vec<usize> =
            (0..14).filter(|&v| nbrs_in(&s, v) > 0 && !s.contains(v)).collect();
        let naive_gamma_one: Vec<usize> =
            (0..14).filter(|&v| nbrs_in(&s, v) == 1 && !s.contains(v)).collect();
        let naive_s_excl_one: Vec<usize> =
            (0..14).filter(|&v| nbrs_in(&s_prime, v) == 1 && !s.contains(v)).collect();

        // one scratch reused across all seven kernel calls
        let mut scr = NeighborhoodScratch::default();
        prop_assert_eq!(scr.count_external_neighborhood(&g, &s), naive_gamma_minus.len());
        prop_assert_eq!(scr.count_unique_neighborhood(&g, &s), naive_gamma_one.len());
        prop_assert_eq!(scr.count_s_excluding_unique(&g, &s, &s_prime), naive_s_excl_one.len());
        prop_assert_eq!(scr.neighborhood(&g, &s).to_vec(), naive_gamma);
        prop_assert_eq!(scr.external_neighborhood(&g, &s).to_vec(), naive_gamma_minus.clone());
        prop_assert_eq!(scr.unique_neighborhood(&g, &s).to_vec(), naive_gamma_one.clone());
        prop_assert_eq!(
            scr.s_excluding_unique_neighborhood(&g, &s, &s_prime).to_vec(),
            naive_s_excl_one
        );

        // the compatibility wrappers (thread-scratch pool) agree too
        prop_assert_eq!(
            wx_graph::neighborhood::external_neighborhood(&g, &s).to_vec(),
            naive_gamma_minus
        );
        prop_assert_eq!(
            wx_graph::neighborhood::unique_neighborhood(&g, &s).to_vec(),
            naive_gamma_one
        );
    }

    /// The bipartite view of a set matches the direct operators on the graph.
    #[test]
    fn bipartite_view_is_consistent(edges in edge_list(12),
                                    members in prop::collection::btree_set(0usize..12, 1..7)) {
        let g = Graph::from_edges(12, edges).unwrap();
        let s = VertexSet::from_iter(12, members.iter().copied());
        let (bip, left_ids, right_ids) = BipartiteGraph::from_set_in_graph(&g, &s);
        prop_assert_eq!(left_ids.len(), s.len());
        prop_assert_eq!(right_ids.len(),
            wx_graph::neighborhood::external_neighborhood(&g, &s).len());
        // total edges = sum over S of external degree
        let expected_edges: usize = s.iter()
            .map(|v| g.neighbors(v).iter().filter(|&&u| !s.contains(u)).count())
            .sum();
        prop_assert_eq!(bip.num_edges(), expected_edges);
        // unique coverage of the full left side equals |Γ¹(S)|
        let full = VertexSet::full(bip.num_left());
        prop_assert_eq!(
            bip.unique_coverage(&full),
            wx_graph::neighborhood::unique_neighborhood(&g, &s).len()
        );
    }

    /// The words kernel of unique coverage counts what a count-then-scan
    /// over the right side counts, on left sides of one to three words, and
    /// leaves its counters zeroed for the next call.
    #[test]
    fn unique_coverage_kernel_matches_count_then_scan(
            left in 1usize..150,
            edges in prop::collection::vec((0usize..150, 0usize..30), 0..300),
            members in prop::collection::vec(0usize..150, 0..150)) {
        let g = BipartiteGraph::from_edges(left, 30, edges.iter().map(|&(u, w)| (u % left, w)))
            .unwrap();
        let subset = VertexSet::from_iter(left, members.iter().map(|u| u % left));
        let mut count_then_scan = [0u32; 30];
        for u in subset.iter() {
            for &w in g.left_neighbors(u) {
                count_then_scan[w] += 1;
            }
        }
        let expected = count_then_scan.iter().filter(|&&c| c == 1).count();
        let mut count = vec![0u32; 30];
        for _ in 0..2 {
            prop_assert_eq!(g.unique_coverage_of_words(subset.as_words(), &mut count), expected);
            prop_assert!(count.iter().all(|&c| c == 0));
        }
        prop_assert_eq!(g.unique_coverage(&subset), expected);
    }

    /// Degeneracy and arboricity bounds sandwich the exact arboricity.
    #[test]
    fn arboricity_sandwich(edges in edge_list(10)) {
        let g = Graph::from_edges(10, edges).unwrap();
        let bounds = wx_graph::arboricity::arboricity_bounds(&g);
        let exact = wx_graph::arboricity::exact_arboricity_small(&g);
        prop_assert!(bounds.lower <= exact, "lower {} > exact {exact}", bounds.lower);
        prop_assert!(exact <= bounds.upper.max(1) || g.num_edges() == 0,
            "exact {exact} > upper {}", bounds.upper);
        // degeneracy peeling order is a permutation
        let (_, order) = wx_graph::arboricity::degeneracy(&g);
        let mut sorted = order.clone();
        sorted.sort_unstable();
        prop_assert_eq!(sorted, (0..10).collect::<Vec<_>>());
    }

    /// BFS distances satisfy the triangle-style consistency: every edge spans
    /// at most one BFS layer, and layer counts sum to the reachable count.
    #[test]
    fn bfs_layering(edges in edge_list(14)) {
        let g = Graph::from_edges(14, edges).unwrap();
        let res = wx_graph::traversal::bfs(&g, 0);
        for (u, v) in g.edges() {
            let du = res.dist[u];
            let dv = res.dist[v];
            if du != usize::MAX && dv != usize::MAX {
                prop_assert!(du.abs_diff(dv) <= 1, "edge ({u},{v}) spans layers {du},{dv}");
            } else {
                prop_assert_eq!(du == usize::MAX, dv == usize::MAX);
            }
        }
        let reachable = res.dist.iter().filter(|&&d| d != usize::MAX).count();
        prop_assert_eq!(res.order.len(), reachable);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// CSR invariants under builder construction with duplicate insertions:
    /// adjacency lists come out sorted and strictly increasing, edges are
    /// symmetric, and `num_edges` equals both the deduplicated edge count and
    /// half the `edges()` multiplicity-free sum.
    #[test]
    fn csr_builder_invariants(edges in edge_list(12),
                              dup_rounds in 1usize..4) {
        let mut builder = wx_graph::GraphBuilder::new(12);
        // insert every edge several times, in both orientations
        for _ in 0..dup_rounds {
            for &(u, v) in &edges {
                builder.add_edge(u, v).unwrap();
                builder.add_edge(v, u).unwrap();
            }
        }
        let g = builder.build();

        // sorted, strictly increasing (deduped), self-loop-free adjacency
        for v in g.vertices() {
            let nbrs = g.neighbors(v);
            prop_assert!(nbrs.windows(2).all(|w| w[0] < w[1]));
            prop_assert!(!nbrs.contains(&v));
        }
        // symmetry: u ∈ N(v) ⟺ v ∈ N(u)
        for v in g.vertices() {
            for &u in g.neighbors(v) {
                prop_assert!(g.neighbors(u).contains(&v), "asymmetric edge ({v},{u})");
            }
        }
        // num_edges consistency: equals the dedup'd undirected edge count,
        // the edges() iterator length, and half the degree sum
        let edge_set: BTreeSet<(usize, usize)> =
            edges.iter().map(|&(u, v)| (u.min(v), u.max(v))).collect();
        prop_assert_eq!(g.num_edges(), edge_set.len());
        let listed: Vec<(usize, usize)> = g.edges().collect();
        prop_assert_eq!(listed.len(), g.num_edges());
        for &(u, v) in &listed {
            prop_assert!(u < v, "edges() must emit canonical (min,max) pairs");
            prop_assert!(edge_set.contains(&(u, v)));
        }
        let degree_sum: usize = g.vertices().map(|v| g.degree(v)).sum();
        prop_assert_eq!(degree_sum, 2 * g.num_edges());
        // and the builder round-trips through from_edges
        prop_assert_eq!(Graph::from_edges(12, edges.iter().copied()).unwrap(), g);
    }

    /// Builder rejection behavior: self-loops and out-of-range endpoints are
    /// errors and leave the builder unchanged (the built graph holds only the
    /// one valid edge).
    #[test]
    fn csr_builder_rejects_bad_edges(v in 0usize..10, w in 0usize..10) {
        let mut builder = wx_graph::GraphBuilder::new(10);
        if v != w {
            builder.add_edge(v, w).unwrap();
        }
        prop_assert_eq!(
            builder.add_edge(v, v),
            Err(wx_graph::GraphError::SelfLoop(v))
        );
        prop_assert_eq!(
            builder.add_edge(v, 10 + w),
            Err(wx_graph::GraphError::VertexOutOfRange { vertex: 10 + w, n: 10 })
        );
        prop_assert_eq!(
            builder.add_edge(17, w),
            Err(wx_graph::GraphError::VertexOutOfRange { vertex: 17, n: 10 })
        );
        prop_assert_eq!(builder.build().num_edges(), usize::from(v != w));
        // from_edges surfaces the same rejections
        prop_assert!(Graph::from_edges(10, [(v, v)]).is_err());
        prop_assert!(Graph::from_edges(10, [(v, 12usize)]).is_err());
    }

    /// Induced subgraphs preserve CSR invariants: adjacency stays sorted and
    /// edge counts consistent.
    #[test]
    fn csr_invariants_survive_structural_ops(edges in edge_list(10),
                                             members in prop::collection::btree_set(0usize..10, 1..8)) {
        let g = Graph::from_edges(10, edges).unwrap();
        let s = VertexSet::from_iter(10, members.iter().copied());
        let (sub, ids) = g.induced_subgraph(&s);
        prop_assert_eq!(sub.num_vertices(), s.len());
        prop_assert_eq!(sub.num_edges(), g.edges_within(&s));
        for v in sub.vertices() {
            prop_assert!(sub.neighbors(v).windows(2).all(|w| w[0] < w[1]));
            for &u in sub.neighbors(v) {
                prop_assert!(g.has_edge(ids[u], ids[v]), "subgraph edge not in parent");
            }
        }
    }
}
