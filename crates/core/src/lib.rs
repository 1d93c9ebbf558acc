//! # wx-core — the `wireless-expanders` facade
//!
//! One-stop entry point for the *Wireless Expanders* (SPAA 2018)
//! reproduction. It re-exports the workspace crates and adds:
//!
//! * [`prelude`] — the `use wx_core::prelude::*` import that brings the
//!   common types (graphs, expansion profiles, solvers, protocols,
//!   constructions) into scope;
//! * [`report`] — plain-text table rendering and JSON export for experiment
//!   harnesses.
//!
//! ## Quick start
//!
//! ```
//! use wx_core::prelude::*;
//!
//! // Build the paper's motivating example C⁺₈ and profile it.
//! let (graph, _source) = complete_plus_graph(8).unwrap();
//! let config = ProfileConfig::builder().alpha(0.5).exact_up_to(14).build();
//! let profile = ExpansionProfile::measure(&graph, &config);
//! // The headline βu < βw phenomenon: unique-neighbor expansion collapses
//! // to 0 on C⁺ while wireless expansion stays positive.
//! assert_eq!(profile.unique.value, 0.0);
//! assert!(profile.unique.value < profile.wireless.value);
//! assert!(profile.satisfies_observation_2_1());
//!
//! // The same three quantities through the measurement engine directly:
//! let engine = config.engine();
//! let triple = engine.measure_all(&graph, &Wireless::default()).unwrap();
//! assert!(triple.unique.value < triple.wireless.value);
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
