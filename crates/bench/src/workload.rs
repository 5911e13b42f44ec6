//! Deterministic scheduler test harness: seeded mixed workloads.
//!
//! Scheduling tests have two classic sources of flakiness: *what* runs
//! (hand-rolled ad-hoc query mixes) and *when* it runs (sleeps and
//! wall-clock races). This module removes both:
//!
//! * [`WorkloadGen`] builds a self-contained database (one bulk table for
//!   long classic scans, one small table for short A&R probes) and emits
//!   query specs from a seeded SplitMix64 stream — the same seed always
//!   produces the same workload, on every machine, so a bench or test can
//!   re-run the identical mix in either queue order (the default, or
//!   arrival order with `aging_threshold: 0`) and compare results
//!   bit-for-bit;
//! * the tests' `Gate` (`tests/support/gate.rs`) freezes a scheduler
//!   deterministically: it reserves every free byte of a device so the
//!   first A&R job blocks *inside* admission, pinning a worker while the
//!   test stacks up the queue it wants to observe. Combined with a
//!   one-worker scheduler and [`bwd_sched::JobReport::completion_index`],
//!   the exact pop order of the queue becomes a plain integer assertion —
//!   no sleeps, no timing.
//!
//! The ordering rules themselves are additionally testable with no
//! scheduler at all: [`bwd_sched::PolicyQueue`] is public and pure (its
//! aging is bypass-count-based, not wall-clock-based), so the "virtual
//! clock" of a scheduling test is simply the sequence of pops.

use bwd_core::plan::{AggExpr, AggFunc, ArPlan, LogicalPlan, Predicate};
use bwd_device::Env;
use bwd_engine::{Database, ExecMode, QueryResult};
use bwd_sched::SubmitOptions;
use bwd_storage::Column;
use bwd_types::{Result, SplitMix64, Value};
use std::sync::Arc;

/// Shape of a generated workload.
#[derive(Debug, Clone, Copy)]
pub struct WorkloadSpec {
    /// Rows in the bulk table (`big`) that long classic scans sweep.
    pub long_rows: usize,
    /// Rows in the probe table (`small`) that short A&R queries hit.
    pub short_rows: usize,
    /// Payload domain: values are `0..domain`, uniformly laid out, so the
    /// bill's min/max keep shares are accurate by construction.
    pub domain: i32,
    /// Distinct group keys in the `b` columns.
    pub groups: i32,
    /// Width of a short probe's range as a fraction of the domain (the
    /// predicted selectivity of a short query).
    pub probe_fraction: f64,
}

impl Default for WorkloadSpec {
    fn default() -> Self {
        WorkloadSpec {
            long_rows: 400_000,
            short_rows: 16_000,
            domain: 10_000,
            groups: 32,
            probe_fraction: 0.01,
        }
    }
}

/// Whether a generated query is a short probe or a long scan.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JobKind {
    /// Selective A&R aggregation over the small table.
    Short,
    /// Grouped classic scan over the bulk table.
    Long,
}

/// One generated query: a bound plan, its execution mode and its kind.
#[derive(Debug, Clone)]
pub struct QuerySpec {
    /// The bound A&R plan (classic mode executes the same plan).
    pub plan: ArPlan,
    /// Execution mode ([`ExecMode::ApproxRefine`] for shorts,
    /// [`ExecMode::Classic`] for longs).
    pub mode: ExecMode,
    /// Short probe or long scan.
    pub kind: JobKind,
}

impl QuerySpec {
    /// Submission options matching this spec's kind: `short_priority`
    /// for probes, priority 0 for scans.
    pub fn submit_options(&self, short_priority: i32) -> SubmitOptions {
        SubmitOptions {
            priority: match self.kind {
                JobKind::Short => short_priority,
                JobKind::Long => 0,
            },
            ..SubmitOptions::default()
        }
    }
}

/// Seeded generator of mixed short/long scheduler workloads over its own
/// pre-bound [`Database`] (draws from the workspace's shared
/// [`SplitMix64`] stream).
///
/// # Examples
///
/// ```
/// use bwd_bench::workload::{WorkloadGen, WorkloadSpec};
///
/// let mut gen = WorkloadGen::new(7, WorkloadSpec {
///     long_rows: 20_000,
///     short_rows: 2_000,
///     ..WorkloadSpec::default()
/// }).unwrap();
/// let batch = gen.mixed(3, 1);
/// assert_eq!(batch.len(), 4);
/// // Same seed, same workload — bit-for-bit.
/// let mut again = WorkloadGen::new(7, WorkloadSpec {
///     long_rows: 20_000,
///     short_rows: 2_000,
///     ..WorkloadSpec::default()
/// }).unwrap();
/// assert_eq!(format!("{:?}", again.mixed(3, 1)), format!("{batch:?}"));
/// ```
pub struct WorkloadGen {
    db: Arc<Database>,
    rng: SplitMix64,
    spec: WorkloadSpec,
}

impl WorkloadGen {
    /// Build the workload database on the default (paper) platform and
    /// seed the query stream.
    pub fn new(seed: u64, spec: WorkloadSpec) -> Result<WorkloadGen> {
        WorkloadGen::with_env(seed, spec, Env::paper_default())
    }

    /// [`WorkloadGen::new`] on an explicit platform (small cards, device
    /// pools).
    pub fn with_env(seed: u64, spec: WorkloadSpec, env: Env) -> Result<WorkloadGen> {
        let mut db = Database::with_env(env);
        for (name, rows) in [("big", spec.long_rows), ("small", spec.short_rows)] {
            db.create_table(
                name,
                vec![
                    (
                        "a".into(),
                        Column::from_i32((0..rows as i32).map(|i| i % spec.domain).collect()),
                    ),
                    (
                        "b".into(),
                        Column::from_i32((0..rows as i32).map(|i| (i * 7) % spec.groups).collect()),
                    ),
                ],
            )?;
        }
        let mut gen = WorkloadGen {
            db: Arc::new(db),
            rng: SplitMix64::new(seed),
            spec,
        };
        // Bind every column the generated plan shapes reference, once, so
        // submissions never race decomposition. Ranges vary per query;
        // binding is per column.
        let short = gen.short();
        let long = gen.long();
        let db = Arc::get_mut(&mut gen.db).expect("sole owner during setup");
        db.auto_bind(&short.plan)?;
        db.auto_bind(&long.plan)?;
        gen.rng = SplitMix64::new(seed); // restart the stream after warm-up draws
        Ok(gen)
    }

    /// The shared workload database (hand to [`bwd_sched::Scheduler::new`]).
    pub fn db(&self) -> &Arc<Database> {
        &self.db
    }

    fn bind(&self, plan: &LogicalPlan) -> ArPlan {
        self.db
            .bind(plan, &Default::default())
            .expect("workload plan binds against its own schema")
    }

    /// Next short A&R probe: a count over a randomly-placed range
    /// covering `probe_fraction` of the domain in the small table.
    pub fn short(&mut self) -> QuerySpec {
        let width = ((self.spec.domain as f64 * self.spec.probe_fraction) as i64).max(1);
        let lo = self.rng.below((self.spec.domain as i64 - width + 1) as u64) as i64;
        let plan = LogicalPlan::scan("small")
            .filter(Predicate::Between {
                column: "a".into(),
                lo: Value::Int(lo),
                hi: Value::Int(lo + width - 1),
            })
            .aggregate(
                vec![],
                vec![AggExpr {
                    func: AggFunc::Count,
                    arg: None,
                    alias: "n".into(),
                }],
            );
        QuerySpec {
            plan: self.bind(&plan),
            mode: ExecMode::ApproxRefine,
            kind: JobKind::Short,
        }
    }

    /// Next long classic scan: a near-full-table grouped aggregation over
    /// the bulk table (the head-of-line blocker).
    pub fn long(&mut self) -> QuerySpec {
        // 90–100% of the domain survives: a genuine bulk scan whose
        // predicted selectivity keeps its latency estimate large.
        let lo = self.rng.below((self.spec.domain as u64 / 10).max(1)) as i64;
        let plan = LogicalPlan::scan("big")
            .filter(Predicate::Between {
                column: "a".into(),
                lo: Value::Int(lo),
                hi: Value::Int(self.spec.domain as i64 - 1),
            })
            .aggregate(
                vec!["b".into()],
                vec![
                    AggExpr {
                        func: AggFunc::Count,
                        arg: None,
                        alias: "n".into(),
                    },
                    AggExpr {
                        func: AggFunc::Sum,
                        arg: Some(bwd_core::plan::ScalarExpr::col("a")),
                        alias: "s".into(),
                    },
                ],
            );
        QuerySpec {
            plan: self.bind(&plan),
            mode: ExecMode::Classic,
            kind: JobKind::Long,
        }
    }

    /// A deterministically-shuffled batch of `shorts` probes and `longs`
    /// scans. The first element is always a long scan when `longs > 0`,
    /// so an arrival-order drain provably head-of-line-blocks the probes
    /// behind it.
    pub fn mixed(&mut self, shorts: usize, longs: usize) -> Vec<QuerySpec> {
        let mut batch: Vec<QuerySpec> = Vec::with_capacity(shorts + longs);
        for _ in 0..shorts {
            batch.push(self.short());
        }
        for _ in 0..longs {
            batch.push(self.long());
        }
        // Seeded Fisher–Yates.
        for i in (1..batch.len()).rev() {
            let j = self.rng.below(i as u64 + 1) as usize;
            batch.swap(i, j);
        }
        if longs > 0 {
            if let Some(first_long) = batch.iter().position(|q| q.kind == JobKind::Long) {
                batch.swap(0, first_long);
            }
        }
        batch
    }

    /// Serial reference execution of one spec (for bit-identity checks
    /// against scheduled runs).
    pub fn reference(&self, q: &QuerySpec) -> Result<QueryResult> {
        self.db.run_bound(&q.plan, q.mode.clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_workload_different_seed_differs() {
        let spec = WorkloadSpec {
            long_rows: 10_000,
            short_rows: 2_000,
            ..WorkloadSpec::default()
        };
        let a: Vec<_> = WorkloadGen::new(42, spec).unwrap().mixed(5, 2);
        let b: Vec<_> = WorkloadGen::new(42, spec).unwrap().mixed(5, 2);
        let c: Vec<_> = WorkloadGen::new(43, spec).unwrap().mixed(5, 2);
        assert_eq!(format!("{a:?}"), format!("{b:?}"));
        assert_ne!(format!("{a:?}"), format!("{c:?}"));
        assert_eq!(a.len(), 7);
        assert_eq!(a[0].kind, JobKind::Long, "first item pinned to a long");
        assert_eq!(a.iter().filter(|q| q.kind == JobKind::Short).count(), 5);
    }

    #[test]
    fn specs_execute_and_probes_are_selective() {
        let mut gen = WorkloadGen::new(
            1,
            WorkloadSpec {
                long_rows: 20_000,
                short_rows: 4_000,
                ..WorkloadSpec::default()
            },
        )
        .unwrap();
        let short = gen.short();
        let long = gen.long();
        let footprint = |q: &QuerySpec| bwd_sched::PlanFootprint::of(gen.db(), &q.plan, &q.mode, 1);
        let (fs, fl) = (footprint(&short), footprint(&long));
        let kept = |c: &bwd_engine::Counts| c.survivors as f64 / c.rows as f64;
        assert!(kept(&fs.counts) < 0.05);
        assert!(kept(&fl.counts) > 0.5);
        let s = gen.reference(&short).unwrap();
        let l = gen.reference(&long).unwrap();
        assert_eq!(s.rows.len(), 1);
        assert!(!l.rows.is_empty());
        // The generated pair is genuinely short-vs-long under the cost
        // model the queue sorts by.
        let (es, el) = (fs.latency(), fl.latency());
        assert!(
            el.total() > 10.0 * es.total(),
            "long {el:?} vs short {es:?}"
        );
    }
}
