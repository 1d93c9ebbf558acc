//! Broadcast protocols racing on different topologies.
//!
//! Runs naive flooding, round-robin, decay and the spokesman schedule on a
//! random regular expander, a grid, a complete binary tree and the Section-5
//! broadcast chain, printing completion rounds. The chain is where the
//! `Ω(D·log(n/D))` lower bound bites: even the centralized spokesman
//! schedule pays ≈ log(n/D) rounds per hop.
//!
//! Run with `cargo run -p wx-examples --bin radio_broadcast_race [seed]`.

use wx_core::prelude::*;
use wx_core::radio::{run_lanes, ProtocolKind};
use wx_core::report::{fmt_opt, render_table, TableRow};
use wx_examples::{section, seed_from_args};

fn race(name: &str, graph: &Graph, source: Vertex, seed: u64, rows: &mut Vec<TableRow>) {
    let cfg = SimulatorConfig {
        max_rounds: 20_000,
        stop_when_complete: true,
    };
    let sim = RadioSimulator::new(graph, source, cfg);
    let mut cells = vec![graph.num_vertices().to_string()];
    // each protocol runs as a one-lane batch of the bit-sliced lane engine
    for kind in ProtocolKind::ALL {
        let outcome = run_lanes(&sim, &mut *kind.build(), &[seed])[0];
        cells.push(fmt_opt(outcome.completed_at));
    }
    rows.push(TableRow::new(name, cells));
}

fn main() {
    let seed = seed_from_args(3);
    let mut rows = Vec::new();

    section("Building topologies");
    let expander = random_regular_graph(256, 6, seed).expect("valid");
    println!("random 6-regular expander on 256 vertices");
    let grid = grid_graph(16, 16).expect("valid");
    println!("16×16 grid (planar, low arboricity)");
    let tree = complete_k_ary_tree(2, 8).expect("valid");
    println!("complete binary tree with 8 levels");
    let chain = BroadcastChain::new(16, 4, seed).expect("valid");
    println!(
        "Section-5 chain: 4 stages of core graphs with s = 16 ({} vertices, reference lower bound {:.1} rounds)",
        chain.num_vertices(),
        chain.reference_lower_bound()
    );

    section("Race");
    race("expander-256", &expander, 0, seed, &mut rows);
    race("grid-16x16", &grid, 0, seed, &mut rows);
    race("binary-tree-255", &tree, 0, seed, &mut rows);
    race("chain-s16-d4", &chain.graph, chain.root, seed, &mut rows);

    println!(
        "{}",
        render_table(
            "Broadcast completion rounds ('-' = did not complete in 20k rounds)",
            &[
                "topology",
                "n",
                "naive",
                "round-robin",
                "decay",
                "spokesman"
            ],
            &rows
        )
    );

    section("Per-relay timings on the chain (Section 5)");
    let exp = wx_core::radio::lower_bound::ChainExperiment::new(
        &chain,
        SimulatorConfig {
            max_rounds: 20_000,
            stop_when_complete: true,
        },
    );
    let run = exp.run(ProtocolKind::Spokesman, seed);
    println!("relay informed at rounds: {:?}", run.relay_rounds);
    println!(
        "mean per-stage gap {:.1} rounds vs log2(2s) = {:.1}",
        run.mean_gap().unwrap_or(f64::NAN),
        ((16f64).log2() + 1.0)
    );
}
