//! E6 — Theorem 1.2 / Corollary 4.11: worst-case expanders.
//!
//! Plugs the generalized core graph onto a random regular expander for a
//! sweep of blow-up parameters `ε`, and reports: the combined graph's
//! parameters (Δ̃, β̃), the planted set's ordinary expansion, its wireless
//! expansion (portfolio certificate and structural cap), the Corollary 4.11
//! upper bound, and — for contrast — the certified wireless expansion of a
//! random base set of the same size.

use crate::error::Result;
use crate::registry::SweepOptions;
use wx_core::prelude::*;
use wx_core::report::{fmt_f64, render_table, TableRow};

/// Runs the experiment and returns the report text.
pub fn run(opts: &SweepOptions) -> Result<String> {
    // The Lemma 4.6 parameter window needs ε² ≥ 2e·β/Δ, so with β = 1 and
    // Δ = 64 any ε ≥ 0.3 is admissible.
    let (n, d) = if opts.quick {
        (256usize, 64usize)
    } else {
        (1024, 64)
    };
    let base = random_regular_graph(n, d, opts.seed)?;
    let base_beta = 1.0;
    let epsilons: &[f64] = if opts.quick {
        &[0.3]
    } else {
        &[0.3, 0.35, 0.45]
    };

    let mut rows = Vec::new();
    for &eps in epsilons {
        let wce = match WorstCaseExpander::plug(&base, base_beta, eps) {
            Ok(w) => w,
            Err(e) => {
                rows.push(TableRow::new(
                    format!("ε={eps}"),
                    vec![format!("rejected: {e}")],
                ));
                continue;
            }
        };
        let planted_ord = wx_core::graph::neighborhood::expansion_of_set(&wce.graph, &wce.s_star);
        let (planted_wireless_lb, planted_wireless_ub) = wce.planted_set_wireless_bounds(opts.seed);
        // contrast: a random base set of the same size
        let mut rng = wx_core::graph::random::rng_from_seed(opts.seed ^ 0x5EED);
        let typical_base =
            wx_core::graph::random::random_subset_of_size(&mut rng, wce.base_n, wce.s_star.len());
        let typical = VertexSet::from_iter(wce.graph.num_vertices(), typical_base.iter());
        let portfolio = PortfolioSolver::default();
        let (typical_wireless, _) = wx_core::expansion::wireless::of_set_lower_bound(
            &wce.graph, &typical, &portfolio, opts.seed,
        );
        rows.push(TableRow::new(
            format!("ε={eps}"),
            vec![
                format!("{}", wce.graph.num_vertices()),
                wce.delta_tilde().to_string(),
                fmt_f64(wce.beta_tilde()),
                fmt_f64(planted_ord),
                fmt_f64(planted_wireless_lb),
                fmt_f64(planted_wireless_ub),
                fmt_f64(wce.wireless_upper_bound()),
                fmt_f64(typical_wireless),
            ],
        ));
    }

    let mut out = render_table(
        &format!("E6: worst-case expander plugged onto a random {d}-regular graph on {n} vertices"),
        &[
            "blow-up",
            "ñ",
            "Δ̃",
            "β̃",
            "β(S*)",
            "βw(S*) certified",
            "βw(S*) cap",
            "Cor 4.11 bound",
            "βw(random set)",
        ],
        &rows,
    );
    out.push_str(
        "\nExpected: the planted set S* keeps ordinary expansion ≥ β̃ but its wireless\n\
         expansion is pinned at the structural cap (well below β(S*)), within the\n\
         Corollary 4.11 bound; random sets of the same size keep a much larger\n\
         certified wireless expansion — only the planted set is bad, which is all\n\
         Theorem 1.2 needs.\n",
    );
    Ok(out)
}
