//! Quickstart: the paper's motivating example in thirty lines.
//!
//! Builds the `C⁺` graph from the introduction (a clique plus a pendant
//! source), measures its three expansion quantities, and runs the broadcast
//! comparison: naive flooding deadlocks after one round, while the
//! spokesman schedule — the algorithmic face of wireless expansion —
//! finishes in a couple of rounds.
//!
//! Run with `cargo run -p wx-examples --bin quickstart [seed]`.

use wx_core::prelude::*;
use wx_core::radio::{run_lanes, ProtocolKind};
use wx_core::report::fmt_opt;
use wx_examples::{section, seed_from_args};

fn main() {
    let seed = seed_from_args(7);

    section("C⁺ — the motivating example");
    let (graph, source) = complete_plus_graph(10).expect("valid parameters");
    println!(
        "clique of 10 + source: n = {}, m = {}, Δ = {}",
        graph.num_vertices(),
        graph.num_edges(),
        graph.max_degree()
    );

    section("Expansion profile (exact for this size)");
    let t = MeasurementEngine::default()
        .measure_all(&graph, &Wireless::default())
        .expect("non-empty graph");
    let (beta, beta_u, beta_w) = (t.ordinary.value, t.unique.value, t.wireless.value);
    let delta = graph.max_degree();
    println!(
        "n={} m={} Δ={delta} | β={beta:.3} βu={beta_u:.3} βw={beta_w:.3} (loss {:.2}x) | thm1.1 ref {:.3}",
        graph.num_vertices(),
        graph.num_edges(),
        beta / beta_w,
        wx_core::spokesman::bounds::theorem_1_1_lower_bound(delta, beta)
    );
    println!(
        "observation 2.1 (β ≥ βw ≥ βu): {}",
        beta + 1e-9 >= beta_w && beta_w + 1e-9 >= beta_u
    );
    println!(
        "unique expansion collapses to {beta_u:.3} while wireless expansion stays at {beta_w:.3}"
    );

    section("Backends: the same engine on an unmaterialized hypercube");
    // Every entry point above is generic over `GraphView`; the implicit
    // backend computes neighborhoods from the family rule, so nothing here
    // materializes Q_12's 24k edges.
    let q12 = ImplicitGraph::hypercube(12).expect("valid dimension");
    let engine = MeasurementEngine::builder()
        .alpha(0.5)
        .exact_up_to(0)
        .sampler(SamplerConfig::light())
        .seed(seed)
        .build();
    let beta = engine.measure(&q12, &Ordinary).expect("non-empty graph");
    println!(
        "implicit Q_12: n = {}, Δ = {}, sampled β ≈ {:.3} (witness |S| = {})",
        GraphView::num_vertices(&q12),
        GraphView::max_degree(&q12),
        beta.value,
        beta.witness.len()
    );

    section("Broadcast race from the pendant source");
    // Each protocol runs as a one-lane batch of the bit-sliced lane engine.
    let sim = RadioSimulator::new(
        &graph,
        source,
        SimulatorConfig {
            max_rounds: 5_000,
            stop_when_complete: true,
        },
    );
    for (label, kind) in [
        ("naive flooding    ", ProtocolKind::NaiveFlooding),
        ("decay protocol    ", ProtocolKind::Decay),
        ("spokesman schedule", ProtocolKind::Spokesman),
    ] {
        let outcome = run_lanes(&sim, &mut *kind.build(), &[seed])[0];
        println!("{label} : {}", fmt_opt(outcome.completed_at));
    }
    println!();
    println!("(naive flooding '-' means it never completed: after the first round");
    println!(" the informed set {{source, x, y}} has no unique neighbors, exactly the");
    println!(" failure mode wireless expanders are designed to avoid.)");
}
