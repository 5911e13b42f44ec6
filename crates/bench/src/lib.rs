//! The evaluation harness: regenerates every table and figure of the
//! paper's evaluation section (§VI) from the reimplemented system.
//!
//! * [`micro`] — Fig 8a–8f operator microbenchmarks;
//! * [`evaluation`] — Fig 9 (Table I spatial workload), Fig 10a–c (TPC-H
//!   Q1/Q6/Q14), Fig 11 (multi-stream throughput), Fig 1 (motivation);
//! * [`throughput`] — the Fig 11 runner, measured on the scheduler;
//! * [`workload`] — seeded short/long scheduler workloads;
//! * [`report`] — table rendering and CSV output.
//!
//! Run `cargo run --release -p bwd-bench --bin figures -- all` (or a
//! single figure id). The shapes these figures must keep are tier-1
//! tests (`tests/paper_shapes.rs`); wall-clock numbers per layer come
//! from the `benchmark/` harness.

pub mod evaluation;
pub mod micro;
pub mod report;
pub mod throughput;
pub mod workload;
