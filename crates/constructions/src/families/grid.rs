//! 2-D grids and tori — the planar / low-arboricity contrast family.
//!
//! The paper's arboricity corollary says that on low-arboricity graphs
//! (planar graphs in particular) the wireless expansion matches the ordinary
//! expansion up to a constant factor. Grids (planar, arboricity ≤ 3) and
//! tori (toroidal, arboricity ≤ 3) are the workloads experiment E9 uses to
//! demonstrate that, in contrast with the core-graph family where the loss is
//! genuinely logarithmic.

use wx_graph::view::materialize;
use wx_graph::{Graph, GraphBuilder, GraphError, ImplicitFamily, ImplicitGraph, Result};

/// Checks the parameters [`grid_graph`] accepts and returns the grid's
/// vertex count `rows · cols`.
pub fn check_grid(rows: usize, cols: usize) -> Result<usize> {
    if rows == 0 || cols == 0 {
        return Err(GraphError::invalid("grid dimensions must be positive"));
    }
    rows.checked_mul(cols).ok_or_else(|| {
        GraphError::invalid(format!(
            "a {rows}x{cols} grid has more vertices than a usize holds"
        ))
    })
}

/// Builds the `rows × cols` grid graph (4-neighbor, no wraparound).
pub fn grid_graph(rows: usize, cols: usize) -> Result<Graph> {
    let idx = |r: usize, c: usize| r * cols + c;
    let mut b = GraphBuilder::new(check_grid(rows, cols)?);
    for r in 0..rows {
        for c in 0..cols {
            if c + 1 < cols {
                b.add_edge(idx(r, c), idx(r, c + 1))?;
            }
            if r + 1 < rows {
                b.add_edge(idx(r, c), idx(r + 1, c))?;
            }
        }
    }
    Ok(b.build())
}

/// Builds the `rows × cols` torus (grid with wraparound) by materializing
/// the [`ImplicitFamily::Torus`] rule, whose check it shares: both sides at
/// least 3, so the wraparound does not create parallel edges.
pub fn torus_graph(rows: usize, cols: usize) -> Result<Graph> {
    ImplicitGraph::new(ImplicitFamily::Torus { rows, cols }).map(|g| materialize(&g))
}

#[cfg(test)]
mod tests {
    use super::*;
    use wx_graph::arboricity::arboricity_bounds;
    use wx_graph::GraphView;

    #[test]
    fn a_cell_count_that_overflows_is_rejected() {
        let side = 1usize << 32;
        for err in [
            grid_graph(side, side).unwrap_err(),
            torus_graph(side, side).unwrap_err(),
        ] {
            assert!(matches!(err, GraphError::InvalidParameter(_)), "{err}");
        }
    }

    #[test]
    fn grid_shape() {
        let g = grid_graph(4, 5).unwrap();
        assert_eq!(g.num_vertices(), 20);
        assert_eq!(g.num_edges(), 4 * 4 + 5 * 3);
        assert_eq!(g.max_degree(), 4);
        assert_eq!(g.min_degree(), 2);
        assert!(wx_graph::traversal::is_connected(&g));
    }

    #[test]
    fn torus_is_4_regular() {
        let g = torus_graph(5, 6).unwrap();
        assert!(g.is_regular(4));
        assert_eq!(g.num_edges(), 2 * 30);
        assert!(wx_graph::traversal::is_connected(&g));
    }

    #[test]
    fn grids_have_low_arboricity() {
        let g = grid_graph(8, 8).unwrap();
        let b = arboricity_bounds(&g);
        assert!(b.upper <= 3, "grid arboricity bound {}", b.upper);
        let t = torus_graph(8, 8).unwrap();
        let bt = arboricity_bounds(&t);
        assert!(bt.upper <= 4, "torus arboricity bound {}", bt.upper);
    }

    #[test]
    fn degenerate_parameters() {
        assert!(grid_graph(0, 3).is_err());
        assert!(torus_graph(2, 5).is_err());
        assert!(grid_graph(1, 1).is_ok());
    }

    #[test]
    fn path_and_single_row_grid() {
        let g = grid_graph(1, 6).unwrap();
        assert_eq!(g.num_edges(), 5);
        assert_eq!(wx_graph::traversal::diameter(&g), Some(5));
    }
}
