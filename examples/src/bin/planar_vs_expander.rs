//! Low-arboricity graphs keep their expansion wireless; core graphs don't.
//!
//! The arboricity corollary of Theorem 1.1 says the wireless loss factor is
//! `O(log(2·min{Δ/β, Δ·β}))`, which is `O(1)` for planar / bounded-arboricity
//! graphs. This example measures the ratio `β̂/β̂w` on grids, tori and trees
//! (arboricity ≤ 3) and on the core-graph family (where the loss grows like
//! `log s`), printing them side by side.
//!
//! Run with `cargo run -p wx-examples --bin planar_vs_expander [seed]`.

use wx_core::prelude::*;
use wx_core::report::{fmt_f64, render_table, TableRow};
use wx_examples::{section, seed_from_args};

/// The loss `β/βw`, infinite when `βw = 0`.
fn wireless_loss(beta: f64, beta_w: f64) -> f64 {
    if beta_w > 0.0 {
        beta / beta_w
    } else {
        f64::INFINITY
    }
}

fn profile_row(name: &str, g: &Graph, rows: &mut Vec<TableRow>) {
    let engine = MeasurementEngine::builder()
        .exact_up_to(10)
        .sampler(SamplerConfig::light())
        .build();
    let t = engine
        .measure_all(g, &Wireless::default())
        .expect("non-empty graph");
    let (beta, beta_w) = (t.ordinary.value, t.wireless.value);
    let arb = wx_core::graph::arboricity::arboricity_bounds(g);
    rows.push(TableRow::new(
        name,
        vec![
            g.num_vertices().to_string(),
            arb.upper.to_string(),
            fmt_f64(beta),
            fmt_f64(beta_w),
            fmt_f64(wireless_loss(beta, beta_w)),
            fmt_f64(wx_core::spokesman::bounds::theorem_1_1_lower_bound(
                g.max_degree(),
                beta,
            )),
        ],
    ));
}

fn core_row(s: usize, rows: &mut Vec<TableRow>) {
    // For the core graph we measure the *planted* set S directly (it is the
    // worst set by design): ordinary expansion log 2s, wireless ≤ 2s/|S|·…
    let core = CoreGraph::new(s).expect("power of two");
    let g = core.graph.to_graph();
    let s_set = VertexSet::from_iter(g.num_vertices(), 0..s);
    let beta = wx_core::graph::neighborhood::expansion_of_set(&g, &s_set);
    let portfolio = PortfolioSolver::default();
    let (beta_w, _) = wx_core::expansion::wireless::of_set_lower_bound(&g, &s_set, &portfolio, 5);
    let arb = wx_core::graph::arboricity::arboricity_bounds(&g);
    rows.push(TableRow::new(
        format!("core-{s}"),
        vec![
            g.num_vertices().to_string(),
            arb.upper.to_string(),
            fmt_f64(beta),
            fmt_f64(beta_w),
            fmt_f64(wireless_loss(beta, beta_w)),
            fmt_f64(wx_core::spokesman::bounds::theorem_1_1_lower_bound(
                g.max_degree(),
                beta,
            )),
        ],
    ));
}

fn main() {
    let seed = seed_from_args(5);
    let mut rows = Vec::new();

    section("Low-arboricity family");
    profile_row("grid-12x12", &grid_graph(12, 12).unwrap(), &mut rows);
    profile_row("torus-10x10", &torus_graph(10, 10).unwrap(), &mut rows);
    profile_row(
        "binary-tree-127",
        &complete_k_ary_tree(2, 7).unwrap(),
        &mut rows,
    );
    profile_row(
        "random-tree-100",
        &random_tree(100, seed).unwrap(),
        &mut rows,
    );

    section("Core-graph family (the paper's bad example)");
    for s in [8usize, 16, 32, 64] {
        core_row(s, &mut rows);
    }

    println!(
        "{}",
        render_table(
            "Wireless loss β/βw: bounded for low arboricity, growing for core graphs",
            &[
                "graph",
                "n",
                "arboricity ub",
                "β̂",
                "β̂w",
                "loss β̂/β̂w",
                "thm 1.1 ref"
            ],
            &rows
        )
    );
    println!("Expected shape: the loss column stays ≈ 1–2 for the planar/tree rows");
    println!("and grows roughly like log₂(2s) down the core-graph rows.");
}
