//! E2 — Figure 1 / Lemmas 3.2–3.3: the unique-expansion gap.
//!
//! Sweeps the `G_bad` gadget over `β ∈ [Δ/2, Δ]` and reports the measured
//! unique expansion of the full set `S` against the predicted `2β − Δ`
//! (Lemma 3.3 tightness of Lemma 3.2), plus the wireless certificate from the
//! alternating subset, which Remark 1 predicts to be `max{2β − Δ, Δ/2}`.

use crate::error::Result;
use crate::registry::SweepOptions;
use wx_core::prelude::*;
use wx_core::report::{fmt_f64, render_table, TableRow};

/// Runs the experiment and returns the report text.
pub fn run(opts: &SweepOptions) -> Result<String> {
    let mut rows = Vec::new();
    let deltas: &[usize] = if opts.quick { &[8] } else { &[8, 16, 32] };
    for &delta in deltas {
        let s = 4 * delta;
        for beta in (delta / 2)..=delta {
            // skip a few intermediate values on the big sweeps
            if !opts.quick && delta >= 16 && (beta - delta / 2) % (delta / 8) != 0 {
                continue;
            }
            let gadget = BadUniqueExpander::new(s, delta, beta)?;
            let measured_unique = gadget.unique_expansion_of_full_set();
            let predicted_unique = (2 * beta) as f64 - delta as f64;
            let alternating = gadget.alternating_certificate();
            let portfolio_cert = {
                let r = PortfolioSolver::default().solve(&gadget.graph, opts.seed);
                r.unique_coverage as f64 / s as f64
            };
            let remark_bound = predicted_unique.max(delta as f64 / 2.0);
            rows.push(TableRow::new(
                format!("Δ={delta} β={beta} s={s}"),
                vec![
                    fmt_f64(measured_unique),
                    fmt_f64(predicted_unique),
                    fmt_f64(alternating.max(measured_unique)),
                    fmt_f64(portfolio_cert.max(measured_unique)),
                    fmt_f64(remark_bound),
                ],
            ));
        }
    }
    let mut out = render_table(
        "E2: unique vs wireless expansion on the Lemma 3.3 gadget",
        &[
            "instance",
            "βu measured",
            "2β−Δ predicted",
            "βw (alternating)",
            "βw (portfolio)",
            "Remark-1 bound",
        ],
        &rows,
    );
    out.push_str(
        "\nExpected: 'βu measured' equals '2β−Δ predicted' exactly (Lemma 3.3 is\n\
         tight for Lemma 3.2), and both wireless certificates sit at or above the\n\
         Remark-1 bound max{2β−Δ, Δ/2} — wireless expansion never collapses even\n\
         when unique expansion hits 0 at β = Δ/2.\n",
    );
    Ok(out)
}
