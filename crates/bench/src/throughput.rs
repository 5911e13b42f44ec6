//! Multi-stream throughput — the Figure 11 experiment ("A Gap in the
//! Memory Wall"), *measured* on the concurrent scheduler.
//!
//! Two independent query streams run against the same data: one classic
//! stream on the CPU with a varying simulated thread count, and one A&R
//! stream driving the co-processor. CPU throughput saturates at the
//! memory wall; the device stream works out of its own memory and is not
//! bound by the same wall, so the two throughputs combine almost
//! additively — the paper's headline observation.
//!
//! Unlike the earlier closed-form model, every number here comes from
//! queries actually executed on [`Scheduler`] worker threads:
//!
//! * per-configuration latencies are the simulated costs of real
//!   executions (classic selection chains run morsel-parallel on real
//!   threads; A&R queries pass device-memory admission);
//! * the A&R stream's host-bandwidth demand — the interference term — is
//!   taken from the stream's *measured* per-query host traffic
//!   ([`bwd_engine::QueryResult::traffic`]), not estimated from time;
//! * the combined phase genuinely runs both streams concurrently, so the
//!   report also carries wall-clock figures and the device-memory peak.
//!
//! The simulated component times of the two streams do not physically
//! interfere (they run on disjoint simulated hardware); the one shared
//! resource is host memory bandwidth, composed with the paper's
//! bandwidth-stealing rule: the CPU stream keeps
//! `1 - ar_demand / bw_max` of its throughput.

use bwd_core::plan::ArPlan;
use bwd_engine::{Database, ExecMode};
use bwd_obs::Clock;
use bwd_sched::{SchedConfig, Scheduler, Session, SubmitOptions};
use bwd_types::Result;
use std::sync::Arc;

/// Queries executed per configuration point.
const QUERIES_PER_STEP: usize = 3;

/// Scheduler worker threads (≥ 2 so the combined phase genuinely overlaps
/// the two streams).
const WORKERS: usize = 4;

/// Throughput (queries/second) of every configuration in Figure 11.
#[derive(Debug, Clone, PartialEq)]
pub struct ThroughputReport {
    /// Classic CPU stream at each requested simulated thread count.
    pub cpu_parallel: Vec<(u32, f64)>,
    /// The A&R stream alone (single host thread).
    pub ar_only: f64,
    /// The CPU stream at full threads while the A&R stream runs.
    pub cpu_with_ar: f64,
    /// `cpu_with_ar + ar_only`: the combined system.
    pub cumulative: f64,
    /// Measured host-memory traffic of one A&R query (the interference
    /// term's numerator).
    pub ar_host_bytes_per_query: u64,
    /// Wall-clock seconds the combined (concurrent) phase took.
    pub combined_wall_seconds: f64,
    /// Mean per-query scheduler queue wait of the classic stream during
    /// the combined phase, wall-clock seconds.
    pub cpu_mean_queue_wait_seconds: f64,
    /// Mean per-query scheduler queue wait of the A&R stream during the
    /// combined phase, wall-clock seconds.
    pub ar_mean_queue_wait_seconds: f64,
    /// Estimated over actual simulated seconds for the A&R stream in the
    /// combined phase ([`bwd_sched::StreamSnapshot::estimate_ratio`]) — how
    /// well the SJF latency estimator predicted this workload's bill.
    pub ar_estimate_ratio: f64,
    /// Device-memory high-water mark across the whole experiment (the
    /// maximum over the pool's devices).
    pub device_peak_bytes: u64,
    /// Per-device memory high-water marks, in pool order (one entry on
    /// the paper's single-card platform).
    pub device_peaks: Vec<u64>,
}

impl ThroughputReport {
    /// The best CPU-only configuration's throughput.
    pub fn best_cpu_only(&self) -> f64 {
        self.cpu_parallel
            .iter()
            .map(|&(_, q)| q)
            .fold(0.0, f64::max)
    }
}

/// Run the Figure 11 experiment for one query.
///
/// `thread_steps` is the simulated CPU thread sweep (the paper uses 1..32
/// in powers of two). Every referenced column must already be bound
/// (`Database::auto_bind`) — the database is shared immutably from here.
pub fn run_throughput(
    db: Arc<Database>,
    plan: &ArPlan,
    thread_steps: &[u32],
) -> Result<ThroughputReport> {
    let config = SchedConfig {
        workers: WORKERS,
        ..SchedConfig::default()
    };
    let clock = Clock::monotonic();

    // --- CPU-only stream at each simulated thread count. ---
    let mut cpu_parallel = Vec::with_capacity(thread_steps.len());
    {
        let sched = Scheduler::new(Arc::clone(&db), config.clone());
        let session = sched.session();
        for &threads in thread_steps {
            let sim = run_batch(&session, plan, ExecMode::Classic, threads)?;
            cpu_parallel.push((threads, QUERIES_PER_STEP as f64 / sim.max(1e-12)));
        }
    }

    // --- A&R stream alone (single simulated host thread). ---
    let (ar_only, ar_host_bytes_per_query) = {
        let sched = Scheduler::new(Arc::clone(&db), config.clone());
        let session = sched.session();
        let before = sched.stats().approx_refine;
        let sim = run_batch(&session, plan, ExecMode::ApproxRefine, 1)?;
        let after = sched.stats().approx_refine;
        let host_bytes = (after.traffic.host - before.traffic.host) / QUERIES_PER_STEP as u64;
        (QUERIES_PER_STEP as f64 / sim.max(1e-12), host_bytes)
    };

    // --- Combined: both streams submitted concurrently. ---
    let max_threads = *thread_steps.iter().max().unwrap_or(&1);
    let (cpu_full_qps, combined_wall_seconds, combined_stats) = {
        let sched = Scheduler::new(Arc::clone(&db), config);
        let cpu_session = sched.session();
        let ar_session = sched.session();
        let started = clock.now_seconds();
        let cpu_tickets: Vec<_> = (0..QUERIES_PER_STEP)
            .map(|_| {
                cpu_session.submit_with(
                    plan.clone(),
                    ExecMode::Classic,
                    SubmitOptions {
                        host_threads: Some(max_threads),
                        ..SubmitOptions::default()
                    },
                )
            })
            .collect();
        let ar_tickets: Vec<_> = (0..QUERIES_PER_STEP)
            .map(|_| {
                ar_session.submit_with(
                    plan.clone(),
                    ExecMode::ApproxRefine,
                    SubmitOptions {
                        host_threads: Some(1),
                        ..SubmitOptions::default()
                    },
                )
            })
            .collect();
        let mut cpu_sim = 0.0;
        for t in cpu_tickets {
            cpu_sim += t.wait()?.breakdown.total();
        }
        for t in ar_tickets {
            t.wait()?;
        }
        let wall = clock.now_seconds() - started;
        (
            QUERIES_PER_STEP as f64 / cpu_sim.max(1e-12),
            wall,
            sched.stats(),
        )
    };

    // The A&R stream's measured host-bandwidth demand steals from the CPU
    // stream (both live behind the same memory controllers).
    let ar_bw_demand = ar_only * ar_host_bytes_per_query as f64; // bytes per simulated second
    let bw_max = db.env().cpu.mem_bandwidth_max;
    let interference = (1.0 - ar_bw_demand / bw_max).clamp(0.0, 1.0);
    let cpu_with_ar = cpu_full_qps * interference;

    let devices = db.env().pool.devices().iter();
    let device_peaks: Vec<u64> = devices.map(|d| d.memory().peak()).collect();
    Ok(ThroughputReport {
        cpu_parallel,
        ar_only,
        cpu_with_ar,
        cumulative: cpu_with_ar + ar_only,
        ar_host_bytes_per_query,
        combined_wall_seconds,
        cpu_mean_queue_wait_seconds: combined_stats.classic.mean_queued().as_secs_f64(),
        ar_mean_queue_wait_seconds: combined_stats.approx_refine.mean_queued().as_secs_f64(),
        ar_estimate_ratio: combined_stats.approx_refine.estimate_ratio(),
        device_peak_bytes: device_peaks.iter().copied().max().unwrap_or(0),
        device_peaks,
    })
}

/// Submit [`QUERIES_PER_STEP`] copies of the plan, wait for all, and
/// return the stream's total simulated seconds.
fn run_batch(session: &Session, plan: &ArPlan, mode: ExecMode, host_threads: u32) -> Result<f64> {
    let tickets: Vec<_> = (0..QUERIES_PER_STEP)
        .map(|_| {
            session.submit_with(
                plan.clone(),
                mode.clone(),
                SubmitOptions {
                    host_threads: Some(host_threads),
                    ..SubmitOptions::default()
                },
            )
        })
        .collect();
    let mut sim = 0.0;
    for t in tickets {
        sim += t.wait()?.breakdown.total();
    }
    Ok(sim)
}

#[cfg(test)]
mod tests {
    use super::*;
    use bwd_core::plan::{AggExpr, AggFunc, LogicalPlan, Predicate};
    use bwd_storage::Column;
    use bwd_types::Value;

    fn setup() -> (Arc<Database>, ArPlan) {
        let mut db = Database::new();
        let n = 200_000;
        db.create_table(
            "t",
            vec![
                (
                    "a".into(),
                    Column::from_i32((0..n).map(|i| i % 10_000).collect()),
                ),
                (
                    "b".into(),
                    Column::from_i32((0..n).map(|i| (i * 7) % 100).collect()),
                ),
            ],
        )
        .unwrap();
        let plan = LogicalPlan::scan("t")
            .filter(Predicate::Between {
                column: "a".into(),
                lo: Value::Int(100),
                hi: Value::Int(999),
            })
            .aggregate(
                vec![],
                vec![AggExpr {
                    func: AggFunc::Count,
                    arg: None,
                    alias: "n".into(),
                }],
            );
        let ar = db.bind(&plan, &Default::default()).unwrap();
        db.auto_bind(&ar).unwrap();
        (Arc::new(db), ar)
    }

    #[test]
    fn cpu_scaling_saturates_and_ar_adds_throughput() {
        let (db, plan) = setup();
        let report = run_throughput(db, &plan, &[1, 2, 4, 8, 16, 32]).unwrap();
        let qps: Vec<f64> = report.cpu_parallel.iter().map(|&(_, q)| q).collect();
        // Monotone non-decreasing scaling.
        for w in qps.windows(2) {
            assert!(w[1] >= w[0] * 0.99, "{qps:?}");
        }
        // Early scaling is near-linear, late scaling saturates.
        assert!(qps[1] / qps[0] > 1.6, "1->2 threads should nearly double");
        assert!(
            qps[5] / qps[4] < 1.35,
            "16->32 threads must be memory-wall limited: {qps:?}"
        );
        // The device stream adds real throughput on top — the paper's
        // additive-gap observation, now measured on the scheduler.
        assert!(report.ar_only > 0.0);
        assert!(report.cumulative > report.best_cpu_only());
        assert!(
            report.cpu_with_ar <= qps[5] * 1.001,
            "interference only reduces"
        );
        // The combined phase really ran: wall clock advanced, device
        // admission never exceeded the card.
        assert!(report.combined_wall_seconds > 0.0);
        assert!(report.device_peak_bytes <= 2 * bwd_device::GIB);
    }

    #[test]
    fn measured_traffic_feeds_interference() {
        // Space-constrained configuration: a 24-bit decomposition leaves
        // residuals on the host, so A&R refinement produces real host
        // traffic (the fully-resident path legitimately produces none).
        let mut db = Database::new();
        let n = 200_000;
        db.create_table(
            "t",
            vec![(
                "a".into(),
                Column::from_i32((0..n).map(|i| i % 10_000).collect()),
            )],
        )
        .unwrap();
        let plan = LogicalPlan::scan("t")
            .filter(Predicate::Between {
                column: "a".into(),
                lo: Value::Int(100),
                hi: Value::Int(999),
            })
            .aggregate(
                vec![],
                vec![AggExpr {
                    func: AggFunc::Count,
                    arg: None,
                    alias: "n".into(),
                }],
            );
        let ar = db.bind(&plan, &Default::default()).unwrap();
        db.bwdecompose("t", "a", 24).unwrap();
        let report = run_throughput(Arc::new(db), &ar, &[1, 4]).unwrap();
        // The A&R pipe refines on the host, so its measured host traffic
        // must be non-zero — and the interference term with it.
        assert!(report.ar_host_bytes_per_query > 0);
        assert!(report.cpu_with_ar > 0.0);
    }
}
