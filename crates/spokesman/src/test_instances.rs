//! Random bipartite instance families for the oracle property tests of
//! Procedure Partition and the Lemma A.1 greedy.

use proptest::prelude::*;
use rand::Rng;
use wx_graph::random::rng_from_seed;
use wx_graph::BipartiteGraph;

/// Instances of every family in [`instance`] with 0–60 vertices per side.
pub(crate) fn instances() -> impl Strategy<Value = BipartiteGraph> {
    (0u8..4, 0usize..=60, 0usize..=60, any::<u64>())
        .prop_map(|(shape, s, n, seed)| instance(shape, s, n, seed))
}

/// One instance with `s` left and `n` right vertices from the family
/// `shape`:
///
/// * 0 — independent edges with a probability drawn from sparse to dense;
/// * 1 — a star (one left vertex sees every right vertex, or one right
///   vertex sees every left vertex) over a sparse background;
/// * 2 — twin-heavy: every left vertex copies one of at most three
///   prototype neighborhoods, sometimes with one extra edge;
/// * 3 — edgeless.
fn instance(shape: u8, s: usize, n: usize, seed: u64) -> BipartiteGraph {
    let mut rng = rng_from_seed(seed);
    let mut edges = Vec::new();
    match shape {
        0 => {
            let p: f64 = rng.gen();
            sprinkle(&mut rng, s, n, p * p, &mut edges);
        }
        1 => {
            sprinkle(&mut rng, s, n, 0.05, &mut edges);
            if rng.gen_bool(0.5) && s > 0 {
                let center = rng.gen_range(0..s);
                edges.extend((0..n).map(|w| (center, w)));
            } else if n > 0 {
                let center = rng.gen_range(0..n);
                edges.extend((0..s).map(|u| (u, center)));
            }
        }
        2 => {
            let density: f64 = rng.gen_range(0.05..0.6);
            let prototypes: Vec<Vec<usize>> = (0..rng.gen_range(1usize..=3))
                .map(|_| (0..n).filter(|_| rng.gen_bool(density)).collect())
                .collect();
            for u in 0..s {
                let proto = &prototypes[rng.gen_range(0..prototypes.len())];
                edges.extend(proto.iter().map(|&w| (u, w)));
                if n > 0 && rng.gen_bool(0.2) {
                    edges.push((u, rng.gen_range(0..n)));
                }
            }
        }
        _ => {}
    }
    // wx-allow(panic-freedom): test-only module; every edge is drawn from 0..s × 0..n
    BipartiteGraph::from_edges(s, n, edges).expect("edges are in range")
}

/// Adds each of the `s · n` possible edges independently with probability
/// `p`.
fn sprinkle(rng: &mut impl Rng, s: usize, n: usize, p: f64, edges: &mut Vec<(usize, usize)>) {
    for u in 0..s {
        for w in 0..n {
            if rng.gen_bool(p) {
                edges.push((u, w));
            }
        }
    }
}
