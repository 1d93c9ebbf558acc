//! E11 — the introduction's `C⁺` example, end to end.
//!
//! Measures the three expansions of `C⁺` for a sweep of clique sizes and runs
//! the broadcast race from the pendant source, demonstrating in one table the
//! paper's motivating story: excellent ordinary expansion, zero unique
//! expansion, healthy wireless expansion — and correspondingly, flooding
//! stalls while a spokesman schedule finishes immediately.

use crate::error::Result;
use crate::registry::SweepOptions;
use wx_core::graph::random::derive_seed;
use wx_core::prelude::*;
use wx_core::radio::{run_lanes, ProtocolKind};
use wx_core::report::{fmt_f64, fmt_opt, render_table, TableRow};

/// Runs the experiment and returns the report text.
pub fn run(opts: &SweepOptions) -> Result<String> {
    let sizes: &[usize] = if opts.quick {
        &[6, 10]
    } else {
        &[6, 10, 14, 20, 40]
    };
    let mut rows = Vec::new();
    for &k in sizes {
        let (g, source) = complete_plus_graph(k)?;
        let engine = if g.num_vertices() <= 14 {
            MeasurementEngine::default()
        } else {
            MeasurementEngine::builder()
                .exact_up_to(10)
                .sampler(SamplerConfig::light())
                .build()
        };
        let Some(t) = engine.measure_all(&g, &Wireless::default()) else {
            continue; // only the empty graph measures nothing
        };
        let sim = RadioSimulator::new(
            &g,
            source,
            SimulatorConfig {
                max_rounds: 5_000,
                stop_when_complete: true,
            },
        );
        let race = |kind: ProtocolKind, seeds: &[u64]| -> Vec<Option<usize>> {
            run_lanes(&sim, &mut *kind.build(), seeds)
                .iter()
                .map(|o| o.completed_at)
                .collect()
        };
        // decay: the median completion round over three seeds
        let decay_seeds: Vec<u64> = (0..3).map(|i| derive_seed(opts.seed, i)).collect();
        let mut decay: Vec<usize> = race(ProtocolKind::Decay, &decay_seeds)
            .into_iter()
            .flatten()
            .collect();
        decay.sort_unstable();
        rows.push(TableRow::new(
            format!("C⁺ clique={k}"),
            vec![
                fmt_f64(t.ordinary.value),
                fmt_f64(t.unique.value),
                fmt_f64(t.wireless.value),
                fmt_opt(race(ProtocolKind::NaiveFlooding, &[opts.seed])[0]),
                fmt_opt(decay.get(decay.len() / 2).copied()),
                fmt_opt(race(ProtocolKind::Spokesman, &[opts.seed])[0]),
            ],
        ));
    }
    let mut out = render_table(
        "E11: the C⁺ example — expansions and broadcast rounds from the pendant source",
        &["instance", "β̂", "β̂u", "β̂w", "naive", "decay", "spokesman"],
        &rows,
    );
    out.push_str(
        "\nExpected: β̂u = 0 for every clique size (the set {source, x, y} has no\n\
         unique neighbors) while β̂w stays ≥ 1; naive flooding never completes\n\
         ('-') whereas decay completes in O(log n) rounds and the spokesman\n\
         schedule in 2–3 rounds.\n",
    );
    Ok(out)
}
