//! # wx-core — the `wireless-expanders` facade
//!
//! One-stop entry point for the *Wireless Expanders* (SPAA 2018)
//! reproduction. It re-exports the workspace crates and adds:
//!
//! * [`prelude`] — the `use wx_core::prelude::*` import that brings the
//!   common types (graphs, the measurement engine, solvers, protocols,
//!   constructions) into scope;
//! * [`report`] — plain-text table rendering and JSON export for experiment
//!   reports.
//!
//! ## Quick start
//!
//! ```
//! use wx_core::prelude::*;
//!
//! // Build the paper's motivating example C⁺₈ and measure β, βu and βw
//! // over one shared candidate enumeration (exact for n ≤ 14).
//! let (graph, _source) = complete_plus_graph(8).unwrap();
//! let engine = MeasurementEngine::builder().alpha(0.5).exact_up_to(14).build();
//! let t = engine.measure_all(&graph, &Wireless::default()).unwrap();
//! // The headline βu < βw phenomenon: unique-neighbor expansion collapses
//! // to 0 on C⁺ while wireless expansion stays positive.
//! assert!(t.wireless.exact);
//! assert_eq!(t.unique.value, 0.0);
//! assert!(t.unique.value < t.wireless.value);
//! // Observation 2.1: β ≥ βw ≥ βu.
//! assert!(t.ordinary.value + 1e-9 >= t.wireless.value);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod prelude;
pub mod report;

/// The workspace README's code examples, compiled as doc-tests so the
/// quickstart can never drift from the real API.
#[doc = include_str!("../../../README.md")]
#[cfg(doctest)]
pub struct ReadmeDoctests;
pub use report::{render_table, TableRow};

// Re-export the component crates under stable names.
pub use wx_constructions as constructions;
pub use wx_expansion as expansion;
pub use wx_graph as graph;
pub use wx_radio as radio;
pub use wx_spokesman as spokesman;
pub use wx_trace as trace;
