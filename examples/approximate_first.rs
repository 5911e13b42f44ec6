//! "Waste not": the approximation subplan is self-contained, so a query
//! can serve an *approximate answer early* and refine it afterwards at no
//! extra cost (§III). This example also demonstrates the A&R extremum
//! machinery (Figure 6).
//!
//! ```text
//! cargo run --release --example approximate_first
//! ```

use waste_not::core::ops::{extremum_approx, extremum_refine, Extremum};
use waste_not::core::{classify_granule, CmpOp, GranuleMatch, RangePred};
use waste_not::core::{ops::select::select_approx, BoundColumn};
use waste_not::device::{CostLedger, Env};
use waste_not::engine::{ArExecOptions, ExecMode};
use waste_not::kernels::ScanOptions;
use waste_not::storage::{Column, DecomposedColumn, DecompositionSpec};
use waste_not::types::DataType;
use waste_not::{Db, Result, Value};

fn main() -> Result<()> {
    approximate_answer_first()?;
    figure6_min_with_false_positives()?;
    Ok(())
}

/// A dashboard-style query that shows its candidate count long before the
/// exact answer lands.
fn approximate_answer_first() -> Result<()> {
    println!("--- approximate answer first ---");
    let n = 2_000_000i64;
    let mut db = Db::new();
    db.create_table(
        "events",
        vec![(
            "severity".into(),
            Column::from_i32((0..n).map(|i| ((i * 40_503) % 1_000_000) as i32).collect()),
        )],
    )?;
    // Coarse decomposition: 16 device bits -> larger granules, faster
    // residence, more refinement work.
    db.sql("select bwdecompose(severity, 16) from events")?;

    let out = db.sql_mode(
        "select count(*) from events where severity >= 990000",
        ExecMode::ApproxRefineWith(ArExecOptions {
            approximate_answer: true,
        }),
    )?;
    let q = out.query().unwrap();
    let approx = q.approx.as_ref().unwrap();
    println!(
        "after {:.3} ms (device only): at most {} events match",
        approx.breakdown.total() * 1e3,
        approx.candidate_count
    );
    println!(
        "after {:.3} ms (refined):     exactly {} events match\n",
        q.breakdown.total() * 1e3,
        q.rows[0][0]
    );
    // The approximation over-approximates: it never misses a match.
    assert_eq!(q.rows[0][0], Value::Int(20_000));
    assert!(approx.candidate_count >= 20_000);
    Ok(())
}

/// Figure 6: the tuple with the minimal *approximate* value is a selection
/// false positive; the candidate-set construction still finds the true
/// minimum.
fn figure6_min_with_false_positives() -> Result<()> {
    println!("--- Figure 6: min() under approximation ---");
    let env = Env::paper_default();
    // x: selection column, y: aggregated column (granule = 4 payloads).
    let x_vals: Vec<i64> = vec![4, 5, 7, 8, 9, 12];
    let y_vals: Vec<i64> = vec![90, 2, 50, 60, 70, 80];
    let mut load = CostLedger::new();
    let bind = |vals: &[i64], load: &mut CostLedger| -> Result<BoundColumn> {
        BoundColumn::bind(
            DecomposedColumn::decompose(
                vals,
                DataType::Int32,
                &DecompositionSpec::with_device_bits(30),
            )?,
            &env.device,
            "fig6",
            load,
        )
    };
    let x = bind(&x_vals, &mut load)?;
    let y = bind(&y_vals, &mut load)?;

    // Precise query: select min(y) from r where x > 6.
    let range = RangePred::from_cmp(CmpOp::Gt, 6).unwrap();
    let mut ledger = CostLedger::new();
    let cands = select_approx(&env, &x, &range, &ScanOptions::default(), &mut ledger);
    println!(
        "relaxed selection candidates: {:?} (x=5 at oid 1 is a false positive with the smallest y)",
        cands.oids
    );
    let x_meta = *x.meta();
    let stored = cands.approx.clone();
    let is_certain =
        move |i: usize| classify_granule(&x_meta, stored[i], &range) == GranuleMatch::Certain;
    let min_cands = extremum_approx(&env, &y, &cands, &is_certain, Extremum::Min, &mut ledger);
    println!("extremum candidate set: {:?}", min_cands.oids);
    let survives = |oid| range.test(x.reconstruct(oid));
    let m = extremum_refine(&env, &y, &min_cands, &survives, Extremum::Min, &mut ledger);
    println!(
        "refined min(y) = {:?} (naive approximate min would be 2)\n",
        m.unwrap()
    );
    let kept = x_vals.iter().zip(&y_vals).filter(|&(&x, _)| x > 6);
    let scalar = kept.map(|(_, &y)| y).min();
    assert_eq!((m, scalar), (Some(50), Some(50)));
    Ok(())
}
