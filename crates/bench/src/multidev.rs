//! Multi-device scheduling sweep: the same A&R query batch on a
//! one-card and a two-card platform.
//!
//! Per-query simulated cost is identical on identical cards, so the win
//! of a second device is *concurrency*: the least-loaded placement
//! spreads the batch, halving the device-stream makespan (the busiest
//! card's simulated busy time) and the admission queueing. Every run is
//! checked bit-identical against the serial single-device execution —
//! the sweep measures scheduling, not approximation error.
//!
//! `figures -- bench-multidev` renders the comparison; the capacity is
//! deliberately small enough that a single card admits only one query at
//! a time, so the one-device configuration exposes the admission queue
//! the second card drains.

use crate::report::Figure;
use bwd_core::plan::ArPlan;
use bwd_device::{DeviceSpec, Env};
use bwd_engine::{Database, ExecMode};
use bwd_obs::Clock;
use bwd_sched::{EstimateConfig, PlanFootprint, SchedConfig, Scheduler};
use bwd_sql::{bind, parse, BoundStatement};
use bwd_types::{BwdError, Result};
use std::sync::Arc;

const QUERY: &str = "select b, count(*) as n, sum(a) as s from t \
     where a between 100 and 999 group by b";

/// One configuration's measurements.
#[derive(Debug, Clone)]
pub struct MultiDevRun {
    /// Number of devices in the pool.
    pub devices: usize,
    /// Queries completed (all configurations run the same batch).
    pub queries: usize,
    /// Simulated busy seconds of the *busiest* card — the device-stream
    /// makespan a perfect scheduler minimizes.
    pub device_makespan_seconds: f64,
    /// Simulated device-stream throughput: `queries / makespan`.
    pub sim_qps: f64,
    /// Admission reservations that had to queue.
    pub admission_waits: u64,
    /// Underestimate re-queues (should be 0 at the default safety factor).
    pub requeues: u64,
    /// Queries served per device, in pool order.
    pub per_device_queries: Vec<u64>,
    /// Wall-clock seconds for the whole batch.
    pub wall_seconds: f64,
}

/// The 1-device vs 2-device comparison.
#[derive(Debug, Clone)]
pub struct MultiDevReport {
    /// Rows in the micro table.
    pub rows: usize,
    /// One entry per swept pool size.
    pub runs: Vec<MultiDevRun>,
    /// Whether every scheduled result matched the serial reference.
    pub bit_identical: bool,
}

fn build_db(rows: usize, devices: usize, capacity: u64) -> Result<(Arc<Database>, ArPlan)> {
    let env = Env::with_devices(vec![DeviceSpec::gtx680().with_capacity(capacity); devices]);
    let mut db = Database::with_env(env);
    db.create_table(
        "t",
        vec![
            (
                "a".into(),
                bwd_storage::Column::from_i32((0..rows as i32).map(|i| i % 10_000).collect()),
            ),
            (
                "b".into(),
                bwd_storage::Column::from_i32((0..rows as i32).map(|i| (i * 7) % 32).collect()),
            ),
        ],
    )?;
    let stmt = parse(QUERY)?;
    let BoundStatement::Query(logical) = bind(&stmt, db.catalog())? else {
        return Err(BwdError::Exec("benchmark statement is not a query".into()));
    };
    let plan = db.bind(&logical, &Default::default())?;
    db.auto_bind(&plan)?;
    Ok((Arc::new(db), plan))
}

/// Run the sweep: `queries` A&R submissions on pools of 1 and 2 cards.
pub fn measure(rows: usize, queries: usize) -> Result<MultiDevReport> {
    // Serial reference on a throwaway single-device platform.
    let (ref_db, ref_plan) = build_db(rows, 1, bwd_device::GIB)?;
    let reference = ref_db.run_bound(&ref_plan, ExecMode::ApproxRefine)?;

    // Size the card so persistent data plus ONE statistics-based
    // reservation fit, but two do not: a single device serializes the
    // batch through its admission queue, which is exactly what the
    // second card relieves.
    let est = PlanFootprint::of(&ref_db, &ref_plan, &ExecMode::ApproxRefine, 1)
        .reservation(EstimateConfig::default().scale(1.0))
        .estimated;
    let persistent = ref_db.env().device.memory().used();
    let capacity = persistent + est + est / 2;

    let mut runs = Vec::new();
    let mut bit_identical = true;
    for devices in [1usize, 2] {
        let (db, plan) = build_db(rows, devices, capacity)?;
        let sched = Scheduler::new(
            Arc::clone(&db),
            SchedConfig {
                workers: 4,
                ..SchedConfig::default()
            },
        );
        let session = sched.session();
        let clock = Clock::monotonic();
        let started = clock.now_seconds();
        let tickets: Vec<_> = (0..queries)
            .map(|_| session.submit(plan.clone(), ExecMode::ApproxRefine))
            .collect();
        for t in tickets {
            let r = t.wait()?;
            bit_identical &= r.rows == reference.rows && r.breakdown == reference.breakdown;
        }
        let wall_seconds = clock.now_seconds() - started;
        let stats = sched.stats();
        sched.shutdown();
        for d in &stats.devices {
            if d.peak_bytes > d.capacity_bytes {
                return Err(BwdError::Exec(format!(
                    "device {} oversubscribed: {} > {}",
                    d.name, d.peak_bytes, d.capacity_bytes
                )));
            }
        }
        let device_makespan_seconds = stats
            .devices
            .iter()
            .map(|d| d.breakdown.device + d.breakdown.pcie)
            .fold(0.0f64, f64::max);
        runs.push(MultiDevRun {
            devices,
            queries,
            device_makespan_seconds,
            sim_qps: queries as f64 / device_makespan_seconds.max(1e-12),
            admission_waits: stats.admission_waits,
            requeues: stats.admission_requeues,
            per_device_queries: stats.devices.iter().map(|d| d.queries).collect(),
            wall_seconds,
        });
    }
    Ok(MultiDevReport {
        rows,
        runs,
        bit_identical,
    })
}

/// Render the report as a figure table.
pub fn figure(report: &MultiDevReport) -> Figure {
    let mut fig = Figure::new(
        "bench-multidev",
        format!(
            "Multi-device scheduling: {} A&R queries over {} rows, 1 vs 2 cards",
            report.runs.first().map(|r| r.queries).unwrap_or(0),
            report.rows
        ),
        "configuration",
        vec!["sim q/s", "makespan s", "adm waits", "requeues", "wall ms"],
    );
    for run in &report.runs {
        fig.push(
            format!(
                "{} device{} (per-dev queries {:?})",
                run.devices,
                if run.devices == 1 { "" } else { "s" },
                run.per_device_queries
            ),
            vec![
                run.sim_qps,
                run.device_makespan_seconds,
                run.admission_waits as f64,
                run.requeues as f64,
                run.wall_seconds * 1e3,
            ],
        );
    }
    if let (Some(one), Some(two)) = (report.runs.first(), report.runs.get(1)) {
        fig.note(format!(
            "device-stream speedup {:.2}x; results bit-identical to serial: {}",
            one.device_makespan_seconds / two.device_makespan_seconds.max(1e-12),
            report.bit_identical
        ));
    }
    fig
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn two_devices_halve_the_makespan_bit_identically() {
        let report = measure(60_000, 8).unwrap();
        assert!(report.bit_identical);
        assert_eq!(report.runs.len(), 2);
        let one = &report.runs[0];
        let two = &report.runs[1];
        // Same batch, same per-query cost; the second card splits it.
        assert_eq!(one.per_device_queries, vec![8]);
        assert_eq!(two.per_device_queries.iter().sum::<u64>(), 8);
        assert!(two.per_device_queries.iter().all(|&q| q > 0));
        assert!(
            two.device_makespan_seconds < one.device_makespan_seconds,
            "{report:?}"
        );
        assert!(two.sim_qps > one.sim_qps);
    }
}
