//! Breadth-first traversal, connectivity, distances and diameter.
//!
//! The Section-5 broadcast lower-bound experiment needs graph diameters and
//! BFS layerings (the broadcast wave can advance at most one BFS layer per
//! round in the best case), and the adversarial set samplers in
//! `wx-expansion` use BFS balls as candidate low-expansion sets.

use crate::{GraphView, Vertex};
use std::collections::VecDeque;

/// The result of a single-source BFS.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct BfsResult {
    /// `dist[v]` is the hop distance from the source, or `usize::MAX` if `v`
    /// is unreachable.
    pub dist: Vec<usize>,
    /// Vertices in the order they were discovered.
    pub order: Vec<Vertex>,
    /// The eccentricity of the source within its component.
    pub eccentricity: usize,
}

/// Breadth-first search from a single source.
pub fn bfs<G: GraphView + ?Sized>(g: &G, source: Vertex) -> BfsResult {
    let n = g.num_vertices();
    let mut dist = vec![usize::MAX; n];
    let mut order = Vec::with_capacity(n);
    let mut queue = VecDeque::new();
    dist[source] = 0;
    queue.push_back(source);
    let mut ecc = 0;
    while let Some(v) = queue.pop_front() {
        order.push(v);
        ecc = ecc.max(dist[v]);
        for u in g.neighbors_iter(v) {
            if dist[u] == usize::MAX {
                dist[u] = dist[v] + 1;
                queue.push_back(u);
            }
        }
    }
    BfsResult {
        dist,
        order,
        eccentricity: ecc,
    }
}

/// Connected components; returns a component id per vertex and the number of
/// components.
pub fn connected_components<G: GraphView + ?Sized>(g: &G) -> (Vec<usize>, usize) {
    let n = g.num_vertices();
    let mut comp = vec![usize::MAX; n];
    let mut next = 0usize;
    for s in 0..n {
        if comp[s] != usize::MAX {
            continue;
        }
        let mut queue = VecDeque::new();
        comp[s] = next;
        queue.push_back(s);
        while let Some(v) = queue.pop_front() {
            for u in g.neighbors_iter(v) {
                if comp[u] == usize::MAX {
                    comp[u] = next;
                    queue.push_back(u);
                }
            }
        }
        next += 1;
    }
    (comp, next)
}

/// `true` if the graph is connected (the empty graph counts as connected).
pub fn is_connected<G: GraphView + ?Sized>(g: &G) -> bool {
    if g.num_vertices() == 0 {
        return true;
    }
    connected_components(g).1 == 1
}

/// The exact diameter, computed by running BFS from every vertex
/// (`O(n·(n+m))`). Returns `None` for a disconnected or empty graph.
pub fn diameter<G: GraphView + ?Sized>(g: &G) -> Option<usize> {
    if g.num_vertices() == 0 || !is_connected(g) {
        return None;
    }
    Some(
        g.vertices()
            .map(|v| bfs(g, v).eccentricity)
            .max()
            .unwrap_or(0),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Graph, VertexSet};

    fn cycle(n: usize) -> Graph {
        Graph::from_edges(n, (0..n).map(|i| (i, (i + 1) % n))).unwrap()
    }

    /// `true` if the graph is bipartite (2-colorable); also returns a witness
    /// coloring when it is.
    fn bipartition<G: GraphView + ?Sized>(g: &G) -> Option<Vec<bool>> {
        let n = g.num_vertices();
        let mut color: Vec<Option<bool>> = vec![None; n];
        for s in 0..n {
            if color[s].is_some() {
                continue;
            }
            color[s] = Some(false);
            let mut queue = VecDeque::from([s]);
            while let Some(v) = queue.pop_front() {
                let cv = color[v].expect("queued vertices are colored");
                for u in g.neighbors_iter(v) {
                    match color[u] {
                        None => {
                            color[u] = Some(!cv);
                            queue.push_back(u);
                        }
                        Some(cu) if cu == cv => return None,
                        Some(_) => {}
                    }
                }
            }
        }
        Some(color.into_iter().map(|c| c.unwrap_or(false)).collect())
    }

    /// The ball of radius `r` around `center` (all vertices within distance
    /// `r`, including the center) — the BFS-ball notion the expansion
    /// sampler's candidates follow.
    fn ball<G: GraphView + ?Sized>(g: &G, center: Vertex, r: usize) -> VertexSet {
        let res = bfs(g, center);
        VertexSet::from_iter(
            g.num_vertices(),
            res.dist
                .iter()
                .enumerate()
                .filter(|(_, &d)| d <= r)
                .map(|(v, _)| v),
        )
    }

    #[test]
    fn bfs_on_path() {
        let g = Graph::from_edges(4, [(0, 1), (1, 2), (2, 3)]).unwrap();
        let r = bfs(&g, 0);
        assert_eq!(r.dist, vec![0, 1, 2, 3]);
        assert_eq!(r.eccentricity, 3);
        assert_eq!(r.order, vec![0, 1, 2, 3]);
    }

    #[test]
    fn bfs_unreachable() {
        let g = Graph::from_edges(4, [(0, 1), (2, 3)]).unwrap();
        let r = bfs(&g, 0);
        assert_eq!(r.dist[2], usize::MAX);
        assert_eq!(r.dist[3], usize::MAX);
        assert_eq!(r.eccentricity, 1);
    }

    #[test]
    fn ball_radii() {
        let g = cycle(8);
        assert_eq!(ball(&g, 0, 0).to_vec(), vec![0]);
        assert_eq!(ball(&g, 0, 1).to_vec(), vec![0, 1, 7]);
        assert_eq!(ball(&g, 0, 4).len(), 8);
    }

    #[test]
    fn components_and_connectivity() {
        let g = Graph::from_edges(5, [(0, 1), (1, 2), (3, 4)]).unwrap();
        let (comp, k) = connected_components(&g);
        assert_eq!(k, 2);
        assert_eq!(comp[0], comp[2]);
        assert_ne!(comp[0], comp[3]);
        assert!(!is_connected(&g));
        assert!(is_connected(&cycle(5)));
        assert!(is_connected(&Graph::empty(0)));
        assert!(!is_connected(&Graph::empty(2)));
    }

    #[test]
    fn distances_and_diameter() {
        let g = cycle(6);
        assert_eq!(bfs(&g, 0).dist[3], 3);
        assert_eq!(diameter(&g), Some(3));
        let path = Graph::from_edges(5, [(0, 1), (1, 2), (2, 3), (3, 4)]).unwrap();
        assert_eq!(diameter(&path), Some(4));
        let disconnected = Graph::from_edges(4, [(0, 1), (2, 3)]).unwrap();
        assert_eq!(diameter(&disconnected), None);
        assert_eq!(bfs(&disconnected, 0).dist[3], usize::MAX);
    }

    #[test]
    fn bipartition_detection() {
        assert!(bipartition(&cycle(6)).is_some());
        assert!(bipartition(&cycle(5)).is_none());
        let coloring = bipartition(&cycle(4)).unwrap();
        assert_ne!(coloring[0], coloring[1]);
        assert_eq!(coloring[0], coloring[2]);
    }

    #[test]
    fn diameter_of_single_vertex() {
        let g = Graph::empty(1);
        assert_eq!(diameter(&g), Some(0));
    }
}
