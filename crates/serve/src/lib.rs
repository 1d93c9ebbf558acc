//! `wx-serve` — the long-running scenario service and the `wx` CLI
//! entry point.
//!
//! The batch pipeline (`wx run`) rebuilds every graph and re-runs every
//! solver from scratch. This crate keeps a process alive instead: a
//! bounded worker pool executes [`ScenarioSpec`](wx_lab::spec::ScenarioSpec)
//! requests against a shared content-addressed
//! [`ArtifactCache`](wx_lab::ArtifactCache), so repeated and
//! overlapping requests pay solver time once.
//!
//! - [`service`] — worker pool, request coalescing, response envelopes.
//! - [`jsonl`] — the stdin-jsonl transport (one request line in, one
//!   envelope line out, responses in request order).
//! - [`http`] — a minimal dependency-free HTTP/1.1 front end
//!   (`POST /run`, `GET /healthz`, `GET /stats`).
//! - [`cli`] — the `wx` front end; serving subcommands here, batch
//!   subcommands delegated to [`wx_lab::cli`].
//!
//! The contract throughout: report bytes are exactly what `wx run`
//! prints — invariant under worker count, cache state, coalescing, and
//! trial parallelism. Everything wall-clock-dependent (queue/run time,
//! hit counts) travels in envelopes or headers, never in reports.

pub mod cli;
pub mod http;
pub mod jsonl;
pub mod service;

pub use http::HttpServer;
pub use service::{Response, ServeConfig, Service};
