//! Multi-device scheduling live: a two-card platform serving one A&R
//! query batch with statistics-based admission.
//!
//! Builds an `Env` with two simulated GTX 680s, decomposes a column
//! (automatically replicated to both cards), then lets the scheduler's
//! least-loaded placement spread a concurrent batch. Per-device
//! statistics show both cards serving queries, neither oversubscribed.
//!
//! ```text
//! cargo run --release --example multi_device [-- rows]
//! ```
//!
//! `tests/multi_device.rs` runs one batch on one card and on two and
//! asserts the busiest card's simulated time falls with the second.

use std::sync::Arc;

use waste_not::device::DeviceSpec;
use waste_not::engine::{Database, ExecMode};
use waste_not::sched::{SchedConfig, Scheduler};
use waste_not::storage::Column;
use waste_not::{Env, Result};

fn main() -> Result<()> {
    let rows: i32 = std::env::args()
        .nth(1)
        .and_then(|a| a.parse().ok())
        .unwrap_or(400_000);

    // Two identical cards; heterogeneous pools work the same way
    // (e.g. push a `.with_capacity(..)` variant for the second spec).
    let env = Env::with_devices(vec![DeviceSpec::gtx680(), DeviceSpec::gtx680()]);
    let mut db = Database::with_env(env);
    db.create_table(
        "t",
        vec![
            (
                "a".into(),
                Column::from_i32((0..rows).map(|i| i % 10_000).collect()),
            ),
            (
                "b".into(),
                Column::from_i32((0..rows).map(|i| (i * 7) % 32).collect()),
            ),
        ],
    )?;
    // Decomposition replicates the device-resident approximation onto
    // every card, so either one can serve any A&R query.
    db.bwdecompose("t", "a", 24)?;
    db.bwdecompose("t", "b", 32)?;
    for (i, dev) in db.env().pool.devices().iter().enumerate() {
        println!(
            "device {i}: {} — {} KiB persistent",
            dev.spec().name,
            dev.memory().used() >> 10
        );
    }

    let sched = Scheduler::new(
        Arc::new(db),
        SchedConfig {
            workers: 4,
            ..SchedConfig::default()
        },
    );
    let session = sched.session();
    let sql = "select b, count(*) as n, sum(a) as s from t \
               where a between 100 and 999 group by b";
    let tickets: Vec<_> = (0..16)
        .map(|_| session.submit_sql(sql, ExecMode::ApproxRefine))
        .collect::<Result<_>>()?;
    let mut rows_out = None;
    for t in tickets {
        let r = t.wait()?;
        if let Some(prev) = &rows_out {
            assert_eq!(prev, &r.rows, "placement must not change results");
        }
        rows_out = Some(r.rows);
    }

    let stats = sched.stats();
    println!("\nper-device scheduling statistics over 16 concurrent A&R queries:");
    for (i, d) in stats.devices.iter().enumerate() {
        println!(
            "  device {i}: {} queries, {} admission waits, {} requeues, \
             peak {} / {} MiB, sim {}",
            d.queries,
            d.admission_waits,
            d.requeues,
            d.peak_bytes >> 20,
            d.capacity_bytes >> 20,
            d.breakdown,
        );
        assert!(d.peak_bytes <= d.capacity_bytes, "never oversubscribed");
    }
    println!(
        "errors {}, total admission waits {}, total requeues {}",
        stats.errors, stats.admission_waits, stats.admission_requeues
    );
    Ok(())
}
