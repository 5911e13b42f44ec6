//! Quickstart: decompose a column, run a query through both pipelines,
//! inspect the early approximate answer.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```

use waste_not::storage::Column;
use waste_not::{ArExecOptions, Db, ExecMode, Result};

fn main() -> Result<()> {
    // A table of 1M rows: `a` is a wide-domain measurement, `b` a
    // low-cardinality category.
    let n = 1_000_000i64;
    let mut db = Db::new();
    db.create_table(
        "readings",
        vec![
            (
                "a".into(),
                Column::from_i32(
                    (0..n)
                        .map(|i| (i * 2_654_435_761u64 as i64) as i32 % 10_000_000)
                        .collect(),
                ),
            ),
            (
                "b".into(),
                Column::from_i32((0..n).map(|i| (i % 37) as i32).collect()),
            ),
        ],
    )?;

    // Bitwise decomposition (§V-A): 24 major bits of `a` go to the device,
    // 8 minor bits stay on the host. `b` is small enough to live on the
    // device whole (37 values need 6 bits).
    let out = db.sql("select bwdecompose(a, 24) from readings")?;
    println!("decomposed a: {out:?}\n");

    let query = "select b, count(*) as n, sum(a) as total \
                 from readings where a between 1000000 and 1999999 group by b";

    // Classic pipe: CPU-only bulk processing (the MonetDB-style baseline).
    let classic = db.sql_mode(query, ExecMode::Classic)?;
    let classic = classic.query().unwrap();
    println!("classic pipe: {}", classic.breakdown);

    // bwd pipe: Approximate & Refine co-processing, with the approximate
    // answer captured after the approximation subplan.
    let ar = db.sql_mode(
        query,
        ExecMode::ApproxRefineWith(ArExecOptions {
            approximate_answer: true,
        }),
    )?;
    let ar = ar.query().unwrap();
    println!("bwd pipe:     {}", ar.breakdown);

    // The approximation subplan is self-contained (§III): an approximate
    // answer exists before any refinement ran.
    let approx = ar.approx.as_ref().unwrap();
    println!(
        "\napproximate answer after {:.3} ms: <= {} candidates (exact: {})",
        approx.breakdown.total() * 1e3,
        approx.candidate_count,
        ar.survivors,
    );

    // Both pipelines produce identical rows.
    assert_eq!(ar.rows, classic.rows);
    println!("\n{} | {}", ar.columns[0], ar.columns[1..].join(" | "));
    for row in ar.rows.iter().take(5) {
        let cells: Vec<String> = row.iter().map(|v| v.to_string()).collect();
        println!("{}", cells.join(" | "));
    }
    println!("... ({} groups, identical in both pipes)", ar.rows.len());
    println!(
        "\nspeedup (simulated): {:.2}x",
        classic.breakdown.total() / ar.breakdown.total()
    );
    Ok(())
}
