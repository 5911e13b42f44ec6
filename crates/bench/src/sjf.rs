//! Queue-policy sweep: short A&R probes vs long classic scans under
//! `Fifo`, `ShortestJobFirst` and `Priority` ordering.
//!
//! The paper's mixed-stream experiments (Figure 11) interleave short
//! co-processor probes with bulk CPU scans; a FIFO queue head-of-line
//! blocks every probe behind whichever scan arrived first. This sweep
//! runs the *identical* seeded workload ([`bwd_sched::WorkloadGen`])
//! under each [`QueuePolicy`] on a one-worker scheduler — the queue is
//! frozen behind a [`Gate`] while the batch is submitted, so the drain
//! order is exactly the policy's decision, not a submission race — and
//! reports the short queries' p50/p99 latency and mean queue wait from
//! the per-job [`bwd_sched::JobReport`]s.
//!
//! Every run is checked bit-identical (rows *and* simulated costs)
//! against the serial reference: the policy reorders work, it must never
//! change answers. `figures -- bench-sjf` renders the table and fails if
//! SJF does not strictly beat FIFO on mean short-query wait; a starved
//! long scan cannot slip through either — the sweep drains every ticket,
//! so starvation hangs it into the CI step timeout instead of returning.
//!
//! A fourth column re-runs the FIFO queue with morsel-boundary
//! preemption enabled: the long scans yield between partition slices and
//! host the queued probes inline, so the probes' p99 is bounded by one
//! slice of scan work instead of whole scans — without reordering the
//! queue, and still bit-identical.

use crate::report::Figure;
use bwd_obs::Clock;
use bwd_sched::{
    Gate, JobKind, JobReport, PreemptConfig, QueuePolicy, SchedConfig, Scheduler, WorkloadGen,
    WorkloadSpec,
};
use bwd_types::{BwdError, Result};
use std::sync::Arc;

/// One policy's measurements over the shared workload.
#[derive(Debug, Clone)]
pub struct SjfRun {
    /// The queue policy measured.
    pub policy: QueuePolicy,
    /// Whether morsel-boundary preemption was enabled for this run.
    pub preempt: bool,
    /// Yield-point hostings the run performed (always 0 when disabled).
    pub preemptions: u64,
    /// Median short-query latency (queue wait + execution), milliseconds.
    pub short_p50_ms: f64,
    /// 99th-percentile short-query latency, milliseconds.
    pub short_p99_ms: f64,
    /// Mean short-query queue wait, milliseconds (the acceptance metric).
    pub short_mean_wait_ms: f64,
    /// Mean long-query queue wait, milliseconds (what aging/fairness
    /// costs the bulk stream).
    pub long_mean_wait_ms: f64,
    /// Wall-clock milliseconds until the whole batch drained.
    ///
    /// A finite value is itself the bench-level no-starvation witness:
    /// [`measure`] blocks on every ticket, so a policy that starved a
    /// long scan would hang the sweep (bounded by the CI step timeout)
    /// rather than return. The *exact* aging bound — a queued job is
    /// overtaken at most `aging_threshold` times — is asserted
    /// positionally in `tests/priority_sched.rs`.
    pub wall_ms: f64,
    /// Mean estimated-over-actual simulated seconds across the batch —
    /// how well the latency estimate was calibrated on this workload.
    pub estimate_ratio: f64,
}

/// The policy comparison over one seeded workload.
#[derive(Debug, Clone)]
pub struct SjfReport {
    /// Rows in the bulk (long-scan) table.
    pub long_rows: usize,
    /// Short probes per run.
    pub shorts: usize,
    /// Long scans per run.
    pub longs: usize,
    /// One entry per swept policy.
    pub runs: Vec<SjfRun>,
    /// Whether every scheduled result (rows and simulated breakdown)
    /// matched the serial reference under every policy.
    pub bit_identical: bool,
}

impl SjfReport {
    /// The non-preempting run for `policy`, if it was swept.
    pub fn run(&self, policy: QueuePolicy) -> Option<&SjfRun> {
        self.runs.iter().find(|r| r.policy == policy && !r.preempt)
    }

    /// The preemption-enabled run (FIFO + yield points), if swept.
    pub fn preempt_run(&self) -> Option<&SjfRun> {
        self.runs.iter().find(|r| r.preempt)
    }
}

fn percentile(sorted_ms: &[f64], p: f64) -> f64 {
    if sorted_ms.is_empty() {
        return 0.0;
    }
    let idx = ((sorted_ms.len() as f64 - 1.0) * p).round() as usize;
    sorted_ms[idx.min(sorted_ms.len() - 1)]
}

const SEED: u64 = 0xC0FFEE;

/// Run the sweep: the same seeded batch of `shorts` A&R probes and
/// `longs` classic scans (bulk table of `long_rows` rows) under each
/// queue policy.
pub fn measure(long_rows: usize, shorts: usize, longs: usize) -> Result<SjfReport> {
    let spec = WorkloadSpec {
        long_rows,
        ..WorkloadSpec::default()
    };
    // Serial references, computed once: the seed makes every policy's
    // batch identical, so index i always denotes the same query.
    let reference: Vec<_> = {
        let mut gen = WorkloadGen::new(SEED, spec)?;
        let batch = gen.mixed(shorts, longs);
        batch
            .iter()
            .map(|q| gen.reference(q))
            .collect::<Result<_>>()?
    };

    let mut runs = Vec::new();
    let mut bit_identical = true;
    // The fourth run is the preemption column: same FIFO queue, but long
    // scans yield at morsel boundaries and host queued shorts inline —
    // head-of-line blocking dissolves without reordering the queue at all.
    for (policy, preempt) in [
        (QueuePolicy::Fifo, false),
        (QueuePolicy::ShortestJobFirst, false),
        (QueuePolicy::Priority, false),
        (QueuePolicy::Fifo, true),
    ] {
        let mut gen = WorkloadGen::new(SEED, spec)?;
        let batch = gen.mixed(shorts, longs);
        let sched = Scheduler::new(
            Arc::clone(gen.db()),
            SchedConfig {
                workers: 1,
                admission_deadline: None,
                policy,
                preempt: PreemptConfig {
                    enabled: preempt,
                    ..PreemptConfig::default()
                },
                ..SchedConfig::default()
            },
        );
        let session = sched.session();

        // Freeze the single worker behind the admission gate so the whole
        // batch queues before the first policy decision is made.
        let gate = Gate::block(gen.db(), 0)?;
        let gate_job = gen.short();
        let gate_ticket = session.submit_with(
            gate_job.plan.clone(),
            gate_job.mode.clone(),
            gate.submit_options(),
        );
        gate.wait_admission_blocked(1);
        let tickets: Vec<_> = batch
            .iter()
            .map(|q| session.submit_with(q.plan.clone(), q.mode.clone(), q.submit_options(1)))
            .collect();
        let clock = Clock::monotonic();
        let started = clock.now_seconds();
        gate.release();

        let mut reports: Vec<(JobKind, JobReport)> = Vec::with_capacity(batch.len());
        for (i, t) in tickets.into_iter().enumerate() {
            let (result, report) = t.wait_report()?;
            bit_identical &=
                result.rows == reference[i].rows && result.breakdown == reference[i].breakdown;
            reports.push((batch[i].kind, report));
        }
        let wall_ms = (clock.now_seconds() - started) * 1e3;
        gate_ticket.wait()?;
        let preemptions = sched
            .metrics_snapshot()
            .lines()
            .find_map(|l| l.strip_prefix("bwd_sched_preemptions_total"))
            .and_then(|v| v.trim().parse().ok())
            .unwrap_or(0);
        sched.shutdown();

        let mut short_latency_ms: Vec<f64> = reports
            .iter()
            .filter(|(k, _)| *k == JobKind::Short)
            .map(|(_, r)| (r.queue_wait + r.exec).as_secs_f64() * 1e3)
            .collect();
        short_latency_ms.sort_by(f64::total_cmp);
        let mean_wait = |kind: JobKind| -> f64 {
            let waits: Vec<f64> = reports
                .iter()
                .filter(|(k, _)| *k == kind)
                .map(|(_, r)| r.queue_wait.as_secs_f64() * 1e3)
                .collect();
            waits.iter().sum::<f64>() / waits.len().max(1) as f64
        };
        let ratios: Vec<f64> = reports
            .iter()
            .filter(|(_, r)| r.actual_sim_seconds > 0.0)
            .map(|(_, r)| r.est_seconds / r.actual_sim_seconds)
            .collect();
        runs.push(SjfRun {
            policy,
            preempt,
            preemptions,
            short_p50_ms: percentile(&short_latency_ms, 0.50),
            short_p99_ms: percentile(&short_latency_ms, 0.99),
            short_mean_wait_ms: mean_wait(JobKind::Short),
            long_mean_wait_ms: mean_wait(JobKind::Long),
            wall_ms,
            estimate_ratio: ratios.iter().sum::<f64>() / ratios.len().max(1) as f64,
        });
    }
    Ok(SjfReport {
        long_rows,
        shorts,
        longs,
        runs,
        bit_identical,
    })
}

/// Assert the sweep's acceptance properties (the CI smoke): identical
/// answers everywhere and SJF strictly better than FIFO on mean
/// short-query queue wait. (Starvation cannot produce a report at all —
/// [`measure`] drains every ticket, so a starved long scan hangs the
/// sweep into the CI timeout instead of slipping past an assertion.)
pub fn check(report: &SjfReport) -> Result<()> {
    if !report.bit_identical {
        return Err(BwdError::Exec(
            "bench-sjf: scheduled results were NOT bit-identical to serial".into(),
        ));
    }
    let fifo = report.run(QueuePolicy::Fifo);
    let sjf = report.run(QueuePolicy::ShortestJobFirst);
    let (Some(fifo), Some(sjf)) = (fifo, sjf) else {
        return Err(BwdError::Exec("bench-sjf: missing policy runs".into()));
    };
    // Strictly-lower required (NaN or equality also fails the smoke).
    if sjf.short_mean_wait_ms.total_cmp(&fifo.short_mean_wait_ms) != std::cmp::Ordering::Less {
        return Err(BwdError::Exec(format!(
            "bench-sjf: SJF mean short wait {:.3} ms is not below FIFO's {:.3} ms",
            sjf.short_mean_wait_ms, fifo.short_mean_wait_ms
        )));
    }
    // The preemption column: yield points must actually fire, and hosting
    // shorts inside the saturating long scan must bound their tail — the
    // p99 stays strictly under what the same FIFO queue costs without
    // preemption (where every probe eats at least one whole scan).
    let Some(pre) = report.preempt_run() else {
        return Err(BwdError::Exec("bench-sjf: missing preemption run".into()));
    };
    if pre.preemptions == 0 {
        return Err(BwdError::Exec(
            "bench-sjf: preemption run never yielded to a queued probe".into(),
        ));
    }
    if pre.short_p99_ms.total_cmp(&fifo.short_p99_ms) != std::cmp::Ordering::Less {
        return Err(BwdError::Exec(format!(
            "bench-sjf: preempting short p99 {:.3} ms is not below plain FIFO's {:.3} ms",
            pre.short_p99_ms, fifo.short_p99_ms
        )));
    }
    Ok(())
}

/// Render the report as a figure table.
pub fn figure(report: &SjfReport) -> Figure {
    let mut fig = Figure::new(
        "bench-sjf",
        format!(
            "Queue policy: {} short A&R probes + {} long classic scans ({} rows), 1 worker",
            report.shorts, report.longs, report.long_rows
        ),
        "policy",
        vec!["short p50", "short p99", "short wait", "long wait", "wall"],
    );
    for run in &report.runs {
        let label = if run.preempt {
            format!("{:?}+preempt", run.policy)
        } else {
            format!("{:?}", run.policy)
        };
        fig.push(
            label,
            vec![
                run.short_p50_ms / 1e3,
                run.short_p99_ms / 1e3,
                run.short_mean_wait_ms / 1e3,
                run.long_mean_wait_ms / 1e3,
                run.wall_ms / 1e3,
            ],
        );
    }
    if let (Some(fifo), Some(sjf)) = (
        report.run(QueuePolicy::Fifo),
        report.run(QueuePolicy::ShortestJobFirst),
    ) {
        let preempt_note = report
            .preempt_run()
            .map(|p| {
                format!(
                    "; preemption cuts FIFO p99 {:.1}x ({} yields)",
                    fifo.short_p99_ms / p.short_p99_ms.max(1e-9),
                    p.preemptions
                )
            })
            .unwrap_or_default();
        fig.note(format!(
            "SJF cuts short-query p99 {:.1}x (mean wait {:.1}x); est/actual {:.2}; bit-identical: {}{}",
            fifo.short_p99_ms / sjf.short_p99_ms.max(1e-9),
            fifo.short_mean_wait_ms / sjf.short_mean_wait_ms.max(1e-9),
            sjf.estimate_ratio,
            report.bit_identical,
            preempt_note
        ));
    }
    fig
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sjf_beats_fifo_on_short_waits_bit_identically() {
        let report = measure(150_000, 12, 3).unwrap();
        check(&report).unwrap();
        let fifo = report.run(QueuePolicy::Fifo).unwrap();
        let sjf = report.run(QueuePolicy::ShortestJobFirst).unwrap();
        let prio = report.run(QueuePolicy::Priority).unwrap();
        // The tail is where head-of-line blocking shows up.
        assert!(sjf.short_p99_ms < fifo.short_p99_ms, "{report:?}");
        // Priority (shorts submitted at priority 1) also clears the
        // blockage on this workload.
        assert!(
            prio.short_mean_wait_ms < fifo.short_mean_wait_ms,
            "{report:?}"
        );
        // Every policy drained the whole batch (measure() returning at
        // all is the no-hang witness) and recorded the longs' waits.
        assert!(report.runs.iter().all(|r| r.long_mean_wait_ms > 0.0));
        // The preemption column: same FIFO queue, but the saturating
        // long scan hosts queued probes at its yield points — the probes'
        // tail is bounded by a morsel slice of the scan, not the scan.
        let pre = report.preempt_run().unwrap();
        assert!(pre.preemptions > 0, "{report:?}");
        assert!(pre.short_p99_ms < fifo.short_p99_ms, "{report:?}");
        // No yield points fire in any of the disabled runs.
        assert!(report
            .runs
            .iter()
            .filter(|r| !r.preempt)
            .all(|r| r.preemptions == 0));
    }
}
