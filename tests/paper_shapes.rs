//! The paper's shapes at micro scale, guarded by the tier-1 command
//! (`cargo test -q` at the root; ROADMAP 4g). The figures themselves are
//! `crates/bench`'s; these assertions are the ones a cost-model change
//! must not bend, and every pinned series is the digits the figure
//! printed before the bill moved into `engine/bill.rs`.

use bwd_bench::evaluation::{fig10_query, fig11, fig9_spatial, tpch_db, Q1, Q14, Q6};
use bwd_bench::micro::{
    fig8_projection, fig8_selection, fig8c_bits_sweep, fig8f_grouping, SELECTIVITY_SWEEP,
};
use bwd_bench::report::Figure;
use waste_not::Env;

fn series(fig: &Figure, i: usize) -> Vec<f64> {
    fig.rows.iter().map(|(_, r)| r[i]).collect()
}

/// The approximate phase of a selection over N = 200 000 at every
/// selectivity of fig 8a/8b: one launch plus one compare per tuple.
const APPROX_SELECT: [f64; 8] = [4.8e-5; 8];

/// Fig 8a: on GPU-resident data A&R selection beats MonetDB at low
/// selectivity, and the approximate phase is always cheaper than the
/// total. Both A&R series are the parent commit's, digit for digit.
#[test]
fn fig8a_shapes() {
    let f = fig8_selection(&Env::paper_default(), 200_000, 32, "fig8a");
    assert_eq!(f.rows.len(), SELECTIVITY_SWEEP.len());
    let (_, low) = &f.rows[0];
    assert!(low[1] < low[0], "A&R must win at 1%: {low:?}");
    for (_, r) in &f.rows {
        assert!(r[2] <= r[1]);
    }
    let at_parent = [
        6.602531645569621e-5,
        7.205063291139242e-5,
        9.012658227848102e-5,
        0.00012025316455696203,
        0.00018050632911392408,
        0.00036126582278481016,
        0.0005118987341772152,
        0.0006625316455696203,
    ];
    assert_eq!(series(&f, 1), at_parent);
    assert_eq!(series(&f, 2), APPROX_SELECT);
}

/// Fig 8b: with 8 bits on the CPU A&R still wins at 1 %, and refinement
/// costs defeat it at 100 %.
#[test]
fn fig8b_crossover_at_high_selectivity() {
    let f = fig8_selection(&Env::paper_default(), 200_000, 24, "fig8b");
    let (_, low) = &f.rows[0];
    let (_, high) = f.rows.last().unwrap();
    assert!(low[1] < low[0], "A&R wins at 1%");
    assert!(
        high[1] > high[0],
        "refinement costs defeat A&R at 100% on distributed data: {high:?}"
    );
    let at_parent = [
        7.50100253164557e-5,
        9.002005063291139e-5,
        0.0001350501265822785,
        0.00020822400000000002,
        0.000354571746835443,
        0.0007936149873417721,
        0.0011594843544303797,
        0.0015258227848101269,
    ];
    assert_eq!(series(&f, 1), at_parent);
    assert_eq!(series(&f, 2), APPROX_SELECT);
}

/// Fig 8c: at the most selective sweep (.01 %), few GPU bits are much
/// worse than many.
#[test]
fn fig8c_more_bits_help_selective_queries() {
    let f = fig8c_bits_sweep(&Env::paper_default(), 100_000);
    let first = &f.rows.first().unwrap().1;
    let last = &f.rows.last().unwrap().1;
    assert!(
        first[2] > last[2] * 1.5,
        "10 bits must be much slower than 30 for .01%: {first:?} vs {last:?}"
    );
    // Up to 18 device bits all three cuts end inside the first granule:
    // the same candidates, the same bill.
    let coarse = [
        0.0007412658227848102,
        0.0007412658227848102,
        0.0007412658227848102,
        0.0005016554936708861,
        0.000156450835443038,
    ];
    let at_parent: [&[f64]; 3] = [
        &[
            9.874389873417722e-5,
            7.703898734177216e-5,
            7.736303797468355e-5,
            7.721600000000001e-5,
            7.717964556962025e-5,
            7.743670886075949e-5,
        ],
        &[
            6.937194936708862e-5,
            4.7407797468354436e-5,
            4.186815189873418e-5,
            4.047108860759494e-5,
            4.047513924050633e-5,
            4.038946835443038e-5,
        ],
        &[
            6.937194936708862e-5,
            4.7407797468354436e-5,
            4.186815189873418e-5,
            4.047108860759494e-5,
            4.0118784810126586e-5,
            4.0089974683544306e-5,
        ],
    ];
    for (i, fine) in at_parent.into_iter().enumerate() {
        assert_eq!(
            series(&f, i),
            [&coarse[..], fine].concat(),
            "A+R series {i}"
        );
        assert_eq!(series(&f, 3 + i), [2.8000000000000003e-5; 11]);
    }
}

/// Fig 8d: A&R projection on resident data is competitive from moderate
/// selectivities up. Fixed launch/transfer latencies dominate tiny
/// candidate lists; the paper's N is 100 M, where they vanish.
#[test]
fn fig8d_projection_ar_wins() {
    let f = fig8_projection(&Env::paper_default(), 1_000_000, 32, "fig8d");
    for ((x, r), _) in f.rows.iter().zip(SELECTIVITY_SWEEP).skip(2) {
        assert!(
            r[1] <= r[0] * 1.2,
            "A&R projection competitive at {x}: {r:?}"
        );
    }
    let at_parent = [
        4.832911392405063e-5,
        7.665822784810126e-5,
        0.00016164556962025318,
        0.00030329113924050635,
        0.0005865822784810128,
        0.0014364556962025317,
        0.0021446835443037974,
        0.002852911392405063,
    ];
    assert_eq!(series(&f, 1), at_parent);
    let at_parent = [
        9.999999999999999e-6,
        1.2e-5,
        1.8e-5,
        2.8000000000000003e-5,
        4.8e-5,
        0.00010800000000000001,
        0.000158,
        0.00020800000000000001,
    ];
    assert_eq!(series(&f, 2), at_parent);
}

/// Fig 8f: "the performance improves with the number of groups due to
/// fewer write conflicts on the grouping table". The grouping operator is
/// the paper's own and keeps its price: both A&R series are the parent
/// commit's, digit for digit.
#[test]
fn fig8f_grouping_time_falls_with_the_group_count() {
    let fig = fig8f_grouping(&Env::paper_default(), 100_000);
    let (ar, approx) = (series(&fig, 1), series(&fig, 2));
    assert!(approx.windows(2).all(|w| w[1] < w[0]), "{approx:?}");
    assert!(ar.windows(2).all(|w| w[1] < w[0]), "{ar:?}");
    for (x, r) in &fig.rows {
        assert!(r[1] < r[0], "A&R must beat MonetDB at {x} groups: {r:?}");
    }
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

/// Fig 10b/10c: on Q6 and Q14 too, all-GPU A&R is no slower than
/// space-constrained A&R, which beats the classic pipe; on Q6 all-GPU
/// A&R is at least 3x faster than classic (paper, SF 10: ~14x).
#[test]
fn fig10bc_q6_q14_space_constrained_beats_classic() {
    let mut db = tpch_db(0.02).unwrap();
    for (id, sql) in [("fig10b", Q6), ("fig10c", Q14)] {
        let fig = fig10_query(&mut db, id, id, sql, "").unwrap();
        let total = |row: usize| fig.rows[row].1[3];
        let (ar, space, classic) = (total(0), total(1), total(2));
        assert!(
            ar <= space && space < classic,
            "{id}: {ar} {space} {classic}"
        );
        if id == "fig10b" {
            assert!(ar * 3.0 < classic, "{id}: {ar} vs {classic}");
        }
    }
}

/// Fig 9: on the Table I spatial query A&R beats both MonetDB and the
/// hypothetical stream, and spends most of its time on the device
/// (paper: ~80 %).
#[test]
fn fig9_ar_beats_classic_and_stream() {
    let f = fig9_spatial(300_000).unwrap();
    let (ar, monetdb, stream) = (f.rows[0].1[3], f.rows[1].1[3], f.rows[2].1[3]);
    assert!(ar < monetdb, "A&R {ar} must beat MonetDB {monetdb}");
    assert!(ar < stream, "A&R {ar} must beat streaming {stream}");
    let gpu_frac = f.rows[0].1[0] / ar;
    assert!(gpu_frac > 0.4, "GPU share {gpu_frac}");
}

/// Fig 11: "a gap in the memory wall" — the CPU stream beside the A&R
/// stream serves more queries per second than either stream alone (the
/// CPU at 32 threads, the A&R stream by itself).
#[test]
fn fig11_combined_beats_either_stream_alone() {
    let f = fig11(0.005).unwrap();
    let qps = |label: &str| {
        f.rows
            .iter()
            .find(|(x, _)| x == label)
            .unwrap_or_else(|| panic!("no {label} row: {:?}", f.rows))
            .1[0]
    };
    let cumulative = qps("Cumulative");
    for alone in ["CPU parallel 32", "A&R only"] {
        assert!(
            cumulative > qps(alone),
            "{cumulative} vs {alone} {}",
            qps(alone)
        );
    }
}
