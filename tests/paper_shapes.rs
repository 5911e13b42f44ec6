//! The paper's shapes at micro scale, guarded by the tier-1 command
//! (`cargo test -q` at the root; ROADMAP 5d). The figures themselves are
//! `crates/bench`'s; these assertions are the ones a cost-model change
//! must not bend.

use bwd_bench::evaluation::{fig10_query, tpch_db, Q1};
use bwd_bench::micro::fig8f_grouping;
use waste_not::Env;

/// Fig 8f: "the performance improves with the number of groups due to
/// fewer write conflicts on the grouping table". The grouping operator is
/// the paper's own and keeps its price: both A&R series are the parent
/// commit's, digit for digit.
#[test]
fn fig8f_grouping_time_falls_with_the_group_count() {
    let fig = fig8f_grouping(&Env::paper_default(), 100_000);
    let series = |i: usize| -> Vec<f64> { fig.rows.iter().map(|(_, r)| r[i]).collect() };
    let (ar, approx) = (series(1), series(2));
    assert!(approx.windows(2).all(|w| w[1] < w[0]), "{approx:?}");
    assert!(ar.windows(2).all(|w| w[1] < w[0]), "{ar:?}");
    let at_parent = [
        0.00025299999999999997,
        0.0001464375,
        0.00011350000000000001,
        0.00010290506329113925,
        9.955e-5,
    ];
    assert_eq!(approx, at_parent);
    let at_parent = [
        0.00036626582278481007,
        0.00025970332278481013,
        0.00022676582278481015,
        0.0002161708860759494,
        0.0002128158227848101,
    ];
    assert_eq!(ar, at_parent);
}

/// Fig 10a: on Q1 all-GPU A&R is no slower than space-constrained A&R
/// (`l_shipdate` 24/8), which beats the classic pipe.
#[test]
fn fig10a_q1_all_gpu_then_space_constrained_then_classic() {
    let mut db = tpch_db(0.02).unwrap();
    let fig = fig10_query(&mut db, "fig10a", "TPC-H Query 1 (SF 0.02)", Q1, "").unwrap();
    let total = |row: usize| fig.rows[row].1[3];
    let (ar, space, classic) = (total(0), total(1), total(2));
    assert!(ar <= space && space < classic, "{ar} {space} {classic}");
}
