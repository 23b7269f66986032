//! End-to-end and per-layer benchmark of the SPHINX scheduler.
//!
//! `cargo run --release -- --workload <name> --seed <n> --seconds <s>
//! --trace <0|1>` repeats one seeded workload for the measurement window,
//! checks every repeat's output, and prints the metrics as one JSON line.
//! See `README.md` in this directory for the workloads and metrics.

pub mod bench;
pub mod driver;
pub mod run;
pub mod tracer;
pub mod workload;
