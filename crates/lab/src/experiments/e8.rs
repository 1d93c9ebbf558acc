//! E8 — Section 5: the `Ω(D·log(n/D))` broadcast-time lower bound.
//!
//! Sweeps the broadcast chain over the number of stages (`D/2`) and the
//! per-stage core size `s` (`n/D` scale), runs the decay protocol and the
//! centralized spokesman schedule, and reports completion rounds against the
//! reference curve `D·log₂(n/D)` plus the per-relay gap against `log₂(2s)`.

use crate::error::Result;
use crate::registry::SweepOptions;
use wx_core::prelude::*;
use wx_core::radio::lower_bound::{reference_curve, ChainExperiment};
use wx_core::radio::ProtocolKind;
use wx_core::report::{fmt_f64, fmt_opt, render_table, TableRow};

/// Runs the experiment and returns the report text.
pub fn run(opts: &SweepOptions) -> Result<String> {
    let configs: &[(usize, usize)] = if opts.quick {
        &[(8, 2), (8, 4), (32, 2)]
    } else {
        &[
            (8, 2),
            (8, 4),
            (8, 8),
            (32, 2),
            (32, 4),
            (32, 8),
            (128, 2),
            (128, 4),
        ]
    };
    let sim_cfg = SimulatorConfig {
        max_rounds: 100_000,
        stop_when_complete: true,
    };
    let mut rows = Vec::new();
    for &(s, stages) in configs {
        let chain = BroadcastChain::new(s, stages, opts.seed ^ (s as u64) ^ (stages as u64))?;
        let exp = ChainExperiment::new(&chain, sim_cfg.clone());
        let decay_run = exp.run(ProtocolKind::Decay, opts.seed);
        let spokesman_run = exp.run(ProtocolKind::Spokesman, opts.seed);
        let log2s = (s as f64).log2() + 1.0;
        rows.push(TableRow::new(
            format!("s={s} stages={stages}"),
            vec![
                chain.num_vertices().to_string(),
                (2 * stages).to_string(),
                fmt_opt(decay_run.completed_at),
                fmt_opt(spokesman_run.completed_at),
                fmt_f64(decay_run.mean_gap().unwrap_or(f64::NAN)),
                fmt_f64(spokesman_run.mean_gap().unwrap_or(f64::NAN)),
                fmt_f64(log2s),
                fmt_f64(reference_curve(stages, s)),
                fmt_f64(chain.reference_lower_bound()),
            ],
        ));
    }

    let mut out = render_table(
        "E8: broadcast time on the Section-5 chain (rounds)",
        &[
            "chain",
            "n",
            "D",
            "decay total",
            "spokesman total",
            "decay gap/stage",
            "spokesman gap/stage",
            "log₂(2s)",
            "D·log₂(n/D)",
            "paper LB (D/2·log2s/4)",
        ],
        &rows,
    );
    out.push_str(
        "\nExpected shape: total rounds grow linearly in D for fixed s and\n\
         logarithmically in s for fixed D; the per-stage gap tracks log₂(2s); and\n\
         even the centralized spokesman schedule cannot beat the paper's lower\n\
         bound column — the wave must pay ≈ log(n/D) rounds per relay because at\n\
         most a 2/log(2s) fraction of each stage's N side can hear a collision-free\n\
         transmission per round (Corollary 5.1).\n",
    );
    Ok(out)
}
