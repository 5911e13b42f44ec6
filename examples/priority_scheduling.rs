//! Priority-aware scheduling live: the same mixed workload — short A&R
//! probes interleaved with long classic scans — drained in arrival order
//! (`aging_threshold: 0`) and in the queue's one order (priority, then
//! latency estimate, then arrival), showing the order un-blocking the
//! short queries' tail latency while aging keeps the long scans moving.
//!
//! ```text
//! cargo run --release --example priority_scheduling [-- long_rows]
//! ```

use std::sync::Arc;

use bwd_bench::workload::{JobKind, WorkloadGen, WorkloadSpec};
use waste_not::sched::{SchedConfig, Scheduler};
use waste_not::Result;

fn main() -> Result<()> {
    let long_rows: usize = std::env::args()
        .nth(1)
        .and_then(|a| a.parse().ok())
        .unwrap_or(400_000);
    let shorts = 16;
    let longs = 4;
    println!(
        "{shorts} short A&R probes + {longs} long classic scans ({long_rows}-row bulk table), \
         1 worker\n"
    );

    println!(
        "{:<18} {:>12} {:>12} {:>14} {:>12}",
        "order", "short p50", "short p99", "short wait", "est/actual"
    );
    let one_order = SchedConfig::default().aging_threshold;
    for (label, aging_threshold) in [("arrival", 0), ("one order", one_order)] {
        // Same seed → byte-identical workload in both orders.
        let mut gen = WorkloadGen::new(
            0xC0FFEE,
            WorkloadSpec {
                long_rows,
                ..WorkloadSpec::default()
            },
        )?;
        let batch = gen.mixed(shorts, longs);
        let sched = Scheduler::new(
            Arc::clone(gen.db()),
            SchedConfig {
                workers: 1,
                aging_threshold,
                ..SchedConfig::default()
            },
        );
        let session = sched.session();
        let tickets: Vec<_> = batch
            .iter()
            .map(|q| session.submit_with(q.plan.clone(), q.mode.clone(), q.submit_options(1)))
            .collect();
        let mut short_ms: Vec<f64> = Vec::new();
        let mut ratios: Vec<f64> = Vec::new();
        for (q, t) in batch.iter().zip(tickets) {
            let (result, report) = t.wait_report()?;
            assert_eq!(result.rows, gen.reference(q)?.rows, "answers never change");
            if q.kind == JobKind::Short {
                short_ms.push((report.queue_wait + report.exec).as_secs_f64() * 1e3);
            }
            if report.actual_sim_seconds > 0.0 {
                ratios.push(report.est_seconds / report.actual_sim_seconds);
            }
        }
        short_ms.sort_by(f64::total_cmp);
        let stats = sched.stats();
        println!(
            "{:<18} {:>9.2} ms {:>9.2} ms {:>11.2} ms {:>12.2}",
            label,
            short_ms[short_ms.len() / 2],
            short_ms[short_ms.len() - 1],
            stats.approx_refine.mean_queued().as_secs_f64() * 1e3,
            ratios.iter().sum::<f64>() / ratios.len().max(1) as f64,
        );
    }
    println!(
        "\nSame answers in both orders (asserted above); the one order cuts the short-query \
         tail by an order of magnitude or more while bypass-count aging guarantees the long scans a slot."
    );
    Ok(())
}
