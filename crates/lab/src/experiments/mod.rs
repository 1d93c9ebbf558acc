//! The paper experiments: one module per reproduced paper statement.
//!
//! The paper is a theory paper: its "evaluation" is a collection of
//! theorems, explicit constructions and worked examples rather than
//! measured tables. Each module therefore regenerates the empirical
//! content of one statement, which its docs name, as a text report.
//!
//! Every module has a `run(&SweepOptions) -> Result<String>` entry point;
//! the [registry](crate::registry) lists them after the demo scenarios and
//! runs them through its one entry runner. Timing lives in the `wxbench`
//! benchmark, not here: reports are byte-deterministic.

pub mod e1;
pub mod e10;
pub mod e11;
pub mod e2;
pub mod e3;
pub mod e4;
pub mod e5;
pub mod e6;
pub mod e7;
pub mod e8;
pub mod e9;
