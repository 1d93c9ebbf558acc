//! Standard graph families used as substrates and workloads.
//!
//! The positive result (Theorem 1.1) is universally quantified over ordinary
//! expanders, so experiments need concrete expander instances to measure; the
//! negative result (Corollary 4.11) needs an expander to plug the core graph
//! into; and the arboricity corollary needs low-arboricity families for
//! contrast. This module provides all of them:
//!
//! * [`random_regular`] — random `d`-regular graphs (near-Ramanujan w.h.p.),
//!   the stand-in for the explicit Ramanujan graphs mentioned after
//!   Corollary 4.11.
//! * [`hypercube`] — the Boolean hypercube `Q_d` (a classic `log n`-degree
//!   expander).
//! * [`margulis`] — the explicit Margulis–Gabber–Galil constant-degree
//!   expander on `Z_m × Z_m`.
//! * [`complete_plus`] — the `C⁺` motivating example from the paper's
//!   introduction (complete graph plus a pendant source).
//! * [`grid`] — 2-D grids and tori (planar / near-planar, arboricity ≤ 3).
//! * [`tree`] — complete `k`-ary and random trees (arboricity 1).
//! * [`random_bipartite`] — random left-`d`-regular bipartite graphs, the
//!   generic Spokesman-Election workload.

pub mod complete_plus;
pub mod grid;
pub mod hypercube;
pub mod margulis;
pub mod random_bipartite;
pub mod random_regular;
pub mod tree;

pub use complete_plus::{check_complete_plus, complete_plus_graph};
pub use grid::{check_grid, grid_graph, torus_graph};
pub use hypercube::{check_hypercube, hypercube_graph};
pub use margulis::{check_margulis, margulis_graph};
pub use random_bipartite::random_left_regular_bipartite;
pub use random_regular::{check_random_regular, random_regular_graph};
pub use tree::{check_k_ary_tree, check_random_tree, complete_k_ary_tree, random_tree};
