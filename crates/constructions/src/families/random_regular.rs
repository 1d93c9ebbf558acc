//! Random `d`-regular graphs.
//!
//! Generated with the configuration model (a uniformly random pairing of
//! `n·d` half-edges) followed by a *switching repair* pass: every self-loop
//! or parallel edge is removed by a double-edge swap with a uniformly random
//! good edge. For fixed `d` and large `n` the result is contiguous with the
//! uniform random regular graph model, and such graphs are near-Ramanujan
//! (λ₂ ≤ 2√(d−1) + o(1)) with high probability — exactly the kind of
//! expander the paper's Corollary 4.11 plugs its core graph into.

use rand::seq::SliceRandom;
use rand::Rng;
use std::collections::HashSet;
use wx_graph::random::rng_from_seed;
use wx_graph::{Graph, GraphBuilder, GraphError, GraphView, Result};

/// Checks the parameters [`random_regular_graph`] accepts (`d < n`, `n·d`
/// even and within a `usize`) and returns the vertex count `n`.
pub fn check_random_regular(n: usize, d: usize) -> Result<usize> {
    if d >= n {
        return Err(GraphError::invalid(format!(
            "degree {d} must be smaller than the number of vertices {n}"
        )));
    }
    let half_edges = n.checked_mul(d).ok_or_else(|| {
        GraphError::invalid(format!("n·d does not fit in a usize, got n = {n}, d = {d}"))
    })?;
    if !half_edges.is_multiple_of(2) {
        return Err(GraphError::invalid(format!(
            "n·d must be even, got n = {n}, d = {d}"
        )));
    }
    Ok(n)
}

/// Generates a random simple `d`-regular graph on `n` vertices.
///
/// Fails on the parameters [`check_random_regular`] rejects, and with
/// [`GraphError::DidNotConverge`] if the switching repair cannot eliminate
/// all defects (practically impossible for `d ≤ n/4` and `n ≥ 8`).
pub fn random_regular_graph(n: usize, d: usize, seed: u64) -> Result<Graph> {
    check_random_regular(n, d)?;
    let half_edges = n * d;
    if d == 0 {
        return Ok(Graph::empty(n));
    }
    let mut rng = rng_from_seed(seed);

    // Half-edge pairing.
    let mut stubs: Vec<usize> = (0..half_edges).map(|i| i / d).collect();
    stubs.shuffle(&mut rng);
    // edges[i] = (u, v) for stub pair (2i, 2i+1)
    let mut edges: Vec<(usize, usize)> = stubs.chunks_exact(2).map(|c| (c[0], c[1])).collect();

    // Switching repair: keep a set of the currently-present simple edges and
    // a list of defective pairings (self-loops or duplicates).
    let normalize = |(a, b): (usize, usize)| if a <= b { (a, b) } else { (b, a) };
    // Determinism audit: `present` is queried only via insert/contains/remove
    // (membership), never iterated, so hash order cannot reach the RNG draw
    // sequence or the emitted edge list — the output graph is a pure function
    // of `seed` via the `edges` Vec, whose order drives everything.
    // wx-allow(determinism): membership-only HashSet; never iterated, order cannot escape
    let mut present: HashSet<(usize, usize)> = HashSet::new();
    let mut defective: Vec<usize> = Vec::new();
    for (i, &e) in edges.iter().enumerate() {
        let key = normalize(e);
        if e.0 == e.1 || !present.insert(key) {
            defective.push(i);
        }
    }

    let max_rounds = half_edges.saturating_mul(200).saturating_add(10_000);
    let mut rounds = 0usize;
    while let Some(&i) = defective.last() {
        rounds += 1;
        if rounds > max_rounds {
            return Err(GraphError::DidNotConverge(format!(
                "random regular graph repair did not converge for n = {n}, d = {d}"
            )));
        }
        // pick a random partner pairing j and propose the swap
        let j = rng.gen_range(0..edges.len());
        if j == i {
            continue;
        }
        let (a, b) = edges[i];
        let (c, e) = edges[j];
        // proposed new edges: (a, e) and (c, b)
        if a == e || c == b {
            continue;
        }
        let new1 = normalize((a, e));
        let new2 = normalize((c, b));
        if new1 == new2 || present.contains(&new1) || present.contains(&new2) {
            continue;
        }
        // the partner edge j must currently be a good (present) simple edge;
        // defective edges were never inserted into `present`.
        let old_j = normalize((c, e));
        let j_is_good = c != e && present.contains(&old_j) && !defective.contains(&j);
        if !j_is_good {
            continue;
        }
        // apply the swap
        present.remove(&old_j);
        let old_i = normalize((a, b));
        if a != b {
            // duplicates were not inserted, self-loops neither; nothing to remove
            let _ = old_i;
        }
        present.insert(new1);
        present.insert(new2);
        edges[i] = (a, e);
        edges[j] = (c, b);
        defective.pop();
    }

    let mut builder = GraphBuilder::new(n);
    for &(u, v) in &edges {
        builder.add_edge(u, v)?;
    }
    let g = builder.build();
    debug_assert!(g.is_regular(d));
    Ok(g)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_half_edge_count_that_overflows_is_rejected() {
        // n·d = 2^64 once wrapped to 0, which is even
        let err = random_regular_graph(1 << 63, 2, 0).unwrap_err();
        assert!(matches!(err, GraphError::InvalidParameter(_)), "{err}");
    }

    #[test]
    fn produces_regular_simple_graphs() {
        for (n, d, seed) in [(16usize, 3usize, 1u64), (32, 4, 2), (64, 8, 3), (100, 6, 4)] {
            let g = random_regular_graph(n, d, seed).unwrap();
            assert_eq!(g.num_vertices(), n);
            assert!(g.is_regular(d), "n = {n}, d = {d}");
            assert_eq!(g.num_edges(), n * d / 2);
        }
    }

    #[test]
    fn handles_dense_degrees() {
        let g = random_regular_graph(512, 32, 7).unwrap();
        assert!(g.is_regular(32));
        let g = random_regular_graph(64, 16, 9).unwrap();
        assert!(g.is_regular(16));
    }

    #[test]
    fn deterministic_for_fixed_seed() {
        let a = random_regular_graph(40, 4, 11).unwrap();
        let b = random_regular_graph(40, 4, 11).unwrap();
        assert_eq!(a, b);
        let c = random_regular_graph(40, 4, 12).unwrap();
        assert_ne!(a, c);
    }

    #[test]
    fn rejects_bad_parameters() {
        assert!(random_regular_graph(5, 5, 0).is_err());
        assert!(random_regular_graph(5, 3, 0).is_err()); // odd n·d
        assert!(random_regular_graph(4, 0, 0).is_ok());
    }

    #[test]
    fn random_regular_graphs_are_connected_and_expanding() {
        // 3-regular random graphs on ≥ 16 vertices are connected w.h.p.; with
        // a fixed seed this is a deterministic regression check.
        let g = random_regular_graph(64, 3, 5).unwrap();
        assert!(wx_graph::traversal::is_connected(&g));
        // crude expansion sanity: the whole-graph halves expand by ≥ 0.2
        let s = g.vertex_set(0..32);
        assert!(wx_graph::neighborhood::expansion_of_set(&g, &s) > 0.2);
    }

    #[test]
    fn spectral_gap_is_near_ramanujan() {
        let d = 6usize;
        let g = random_regular_graph(256, d, 13).unwrap();
        let l2 = wx_expansion::spectral::second_eigenvalue(&g, 1);
        // Ramanujan bound 2√(d−1) ≈ 4.47; allow generous slack.
        assert!(l2 < 2.0 * ((d - 1) as f64).sqrt() + 0.8, "λ₂ = {l2}");
    }
}
