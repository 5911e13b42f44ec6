//! Figure 11 live — "A Gap in the Memory Wall" — measured on the
//! `bwd-sched` concurrent scheduler instead of a closed-form model.
//!
//! A classic CPU stream sweeps its simulated thread count and saturates at
//! the host memory wall; an A&R stream drives the co-processor out of its
//! own memory. Run concurrently, the two throughputs combine almost
//! additively.
//!
//! ```text
//! cargo run --release --example concurrent_streams [-- scale_factor]
//! ```

use std::sync::Arc;

use bwd_bench::throughput::run_throughput;
use waste_not::core::plan::ArPlan;
use waste_not::data::{gen_lineitem, TpchConfig};
use waste_not::engine::{Database, ExecMode};
use waste_not::sched::{SchedConfig, Scheduler, SubmitOptions};
use waste_not::sql::{bind, parse, BoundStatement};
use waste_not::Result;

const Q6: &str = "select sum(l_extendedprice * l_discount) as revenue from lineitem \
    where l_shipdate >= date '1994-01-01' \
    and l_shipdate < date '1994-01-01' + interval '1' year \
    and l_discount between 0.05 and 0.07 and l_quantity < 24";

fn main() -> Result<()> {
    let sf: f64 = std::env::args()
        .nth(1)
        .and_then(|a| a.parse().ok())
        .unwrap_or(0.05);
    println!("TPC-H Q6 streams at SF {sf} (paper: SF 10, Figure 11)\n");

    let mut db = Database::new();
    db.create_table(
        "lineitem",
        gen_lineitem(&TpchConfig::scale(sf)).into_columns(),
    )?;
    let stmt = parse(Q6)?;
    let BoundStatement::Query(logical) = bind(&stmt, db.catalog())? else {
        unreachable!("Q6 is a query")
    };
    let plan: ArPlan = db.bind(&logical, &Default::default())?;
    db.auto_bind(&plan)?;
    // Space-constrained shipdate (28/4): refinement consumes host
    // bandwidth, which is exactly the interference the paper measures.
    db.bwdecompose("lineitem", "l_shipdate", 28)?;
    let db = Arc::new(db);

    // --- The Figure 11 sweep, measured on the scheduler. ---
    let steps = [1u32, 2, 4, 8, 16, 32];
    let report = run_throughput(Arc::clone(&db), &plan, &steps)?;

    println!("configuration        queries/s");
    for (t, qps) in &report.cpu_parallel {
        println!("  CPU parallel {t:>2}    {qps:>8.2}");
    }
    println!("  A&R only           {:>8.2}", report.ar_only);
    println!("  CPU w/ A&R         {:>8.2}", report.cpu_with_ar);
    println!("  Cumulative         {:>8.2}", report.cumulative);
    println!(
        "\nbest CPU-only {:.2} q/s -> combined {:.2} q/s (gap in the memory wall: +{:.0}%)",
        report.best_cpu_only(),
        report.cumulative,
        100.0 * (report.cumulative / report.best_cpu_only() - 1.0)
    );
    println!(
        "A&R host traffic {} KiB/query; combined phase wall clock {:.1} ms; device peak {} MiB",
        report.ar_host_bytes_per_query >> 10,
        report.combined_wall_seconds * 1e3,
        report.device_peak_bytes >> 20,
    );
    println!(
        "combined-phase queue waits: classic {:.2} ms, A&R {:.2} ms mean; \
         A&R latency estimator est/actual {:.2}",
        report.cpu_mean_queue_wait_seconds * 1e3,
        report.ar_mean_queue_wait_seconds * 1e3,
        report.ar_estimate_ratio,
    );

    // --- One concurrent burst with per-component accounting. ---
    let sched = Scheduler::new(Arc::clone(&db), SchedConfig::default());
    let cpu = sched.session();
    let ar = sched.session();
    let k = 8;
    let tickets: Vec<_> = (0..k)
        .flat_map(|_| {
            [
                cpu.submit_with(
                    plan.clone(),
                    ExecMode::Classic,
                    SubmitOptions {
                        host_threads: Some(32),
                        ..SubmitOptions::default()
                    },
                ),
                ar.submit_with(
                    plan.clone(),
                    ExecMode::ApproxRefine,
                    SubmitOptions::default(),
                ),
            ]
        })
        .collect();
    for t in tickets {
        t.wait()?;
    }
    let stats = sched.stats();
    println!("\nper-stream simulated component time over {k}+{k} concurrent queries:");
    println!("  classic pipe: {}", stats.classic.breakdown);
    println!("  A&R pipe:     {}", stats.approx_refine.breakdown);
    println!(
        "  wall clock: classic {:.1} ms busy, A&R {:.1} ms busy; admission waits {}",
        stats.classic.busy.as_secs_f64() * 1e3,
        stats.approx_refine.busy.as_secs_f64() * 1e3,
        stats.admission_waits,
    );
    Ok(())
}
