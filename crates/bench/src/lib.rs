//! Reproduction harness for every table and figure in the paper's
//! Chapter 5, plus the oracle study of Chapter 6.
//!
//! [`runner`] provides the shared measurement plumbing; [`tables`]
//! contains one generator per experiment, each returning structured
//! rows (so integration tests can assert on them) plus a formatter.
//! The `repro` binary prints any or all of them. [`reporting`] and
//! [`health`] back the `report` and `health` binaries, [`pins`] the
//! `pins` binary; [`json`] is the offline parser the artifact schema
//! tests validate with.

pub mod health;
pub mod json;
pub mod pins;
pub mod reporting;
pub mod runner;
pub mod tables;
