//! TPC-H subset integration: the evaluation queries (§VI-D) through the
//! full SQL → bind → rewrite → execute stack, in every configuration.

use waste_not::data::{gen_lineitem, gen_part, TpchConfig};
use waste_not::engine::{Database, ExecMode};
use waste_not::sql::{bind, parse, BoundStatement};
use waste_not::storage::DecompositionSpec;
use waste_not::{BwdError, Value};

const SF: f64 = 0.01;

fn tpch() -> Database {
    let cfg = TpchConfig::scale(SF);
    let mut db = Database::new();
    db.create_table("lineitem", gen_lineitem(&cfg).into_columns())
        .unwrap();
    db.create_table("part", gen_part(&cfg).into_columns())
        .unwrap();
    db.declare_fk("lineitem", "l_partkey", "part", "p_partkey")
        .unwrap();
    db
}

fn run_both(db: &mut Database, sql: &str) -> (Vec<Vec<Value>>, Vec<Vec<Value>>) {
    let stmt = parse(sql).unwrap();
    let BoundStatement::Query(plan) = bind(&stmt, db.catalog()).unwrap() else {
        panic!("not a query")
    };
    let classic = db.run(&plan, ExecMode::Classic).unwrap();
    let ar = db.run(&plan, ExecMode::ApproxRefine).unwrap();
    (classic.rows, ar.rows)
}

#[test]
fn q6_equivalence_and_reference_value() {
    let mut db = tpch();
    let (classic, ar) = run_both(
        &mut db,
        "select sum(l_extendedprice * l_discount) as revenue from lineitem \
         where l_shipdate >= date '1994-01-01' \
         and l_shipdate < date '1994-01-01' + interval '1' year \
         and l_discount between 0.05 and 0.07 and l_quantity < 24",
    );
    assert_eq!(classic, ar);
    // Reference from a straight scalar evaluation over the generator.
    let cfg = TpchConfig::scale(SF);
    let li = gen_lineitem(&cfg);
    let d94 = bwd_types::Date::parse("1994-01-01").unwrap().days() as i64;
    let d95 = bwd_types::Date::parse("1995-01-01").unwrap().days() as i64;
    let mut expect: i128 = 0;
    for i in 0..li.l_quantity.len() {
        let ship = li.l_shipdate.payload(i);
        let disc = li.l_discount.payload(i);
        let qty = li.l_quantity.payload(i);
        if ship >= d94 && ship < d95 && (5..=7).contains(&disc) && qty < 24 {
            expect += (li.l_extendedprice.payload(i) * disc) as i128;
        }
    }
    match &ar[0][0] {
        Value::Decimal { unscaled, scale } => {
            assert_eq!(*scale, 4);
            assert_eq!(*unscaled as i128, expect);
        }
        other => panic!("unexpected {other:?}"),
    }
}

#[test]
fn q1_equivalence_across_decompositions() {
    let mut db = tpch();
    let q1 = "select l_returnflag, l_linestatus, sum(l_quantity) as sq, \
              sum(l_extendedprice * (1 - l_discount)) as sd, \
              avg(l_discount) as ad, count(*) as n \
              from lineitem \
              where l_shipdate <= date '1998-12-01' - interval '90' day \
              group by l_returnflag, l_linestatus";
    let (classic, ar_resident) = run_both(&mut db, q1);
    assert_eq!(classic, ar_resident);
    // Space-constrained: decomposed shipdate must not change results.
    db.bwdecompose("lineitem", "l_shipdate", 24).unwrap();
    let (_, ar_space) = run_both(&mut db, q1);
    assert_eq!(classic, ar_space);
    // 3-4 (returnflag, linestatus) combinations exist.
    assert!(
        classic.len() >= 3 && classic.len() <= 4,
        "{}",
        classic.len()
    );
}

const Q14: &str = "select \
    sum(case when p_type like 'PROMO%' then l_extendedprice * (1 - l_discount) else 0 end) as promo, \
    sum(l_extendedprice * (1 - l_discount)) as total \
    from lineitem, part where l_partkey = p_partkey \
    and l_shipdate >= date '1995-09-01' \
    and l_shipdate < date '1995-09-01' + interval '1' month";

#[test]
fn q14_join_and_case_equivalence() {
    let mut db = tpch();
    let (classic, ar) = run_both(&mut db, Q14);
    assert_eq!(classic, ar);
    // Promo revenue is a strict positive fraction of total (~1/5 of types
    // are PROMO).
    let promo = ar[0][0].as_f64().unwrap();
    let total = ar[0][1].as_f64().unwrap();
    assert!(promo > 0.0 && promo < total, "promo {promo} total {total}");
    let ratio = promo / total;
    assert!(ratio > 0.05 && ratio < 0.45, "ratio {ratio}");
}

/// `auto_bind` uploads what a selection, a group key or the tail reads —
/// not the join key: both executors reach the dimension through the FK
/// index alone, so its approximation would sit on the device unread. The
/// space-constrained A&R run is the one the commit that still uploaded it
/// produced, bit for bit — but for the result download, which now carries
/// both accumulators' 16 B where that commit billed one (+16 B of PCI-E),
/// and the refinement, which the bill now places on the device: the
/// residual partition streams up and no host event is left.
#[test]
fn auto_bind_leaves_the_join_key_off_the_device() {
    let mut db = tpch();
    let BoundStatement::Query(q14) = bind(&parse(Q14).unwrap(), db.catalog()).unwrap() else {
        panic!("not a query")
    };
    let plan = db.bind(&q14, &Default::default()).unwrap();
    let fk_link = db.env().device.memory().used();
    db.auto_bind(&plan).unwrap();
    assert!(!db.is_bound("lineitem", "l_partkey"));
    let read = [
        ("lineitem", "l_shipdate"),
        ("lineitem", "l_extendedprice"),
        ("lineitem", "l_discount"),
        ("part", "p_type"),
    ];
    let uploaded: u64 = (read.iter())
        .map(|&(table, column)| {
            assert!(db.is_bound(table, column), "{table}.{column}");
            let col = db.catalog().table(table).unwrap().column(column).unwrap();
            let split = col.clone().decompose(&DecompositionSpec::all_device());
            split.unwrap().split().unwrap().device_bytes()
        })
        .sum();
    assert_eq!(db.env().device.memory().used(), fk_link + uploaded);

    db.bwdecompose("lineitem", "l_shipdate", 24).unwrap();
    let ar = db.run_bound(&plan, ExecMode::ApproxRefine).unwrap();
    let (cost, traffic) = (ar.breakdown, ar.traffic);
    let dump = format!(
        "{:?} device {:#018x} host {:#018x} pcie {:#018x} bytes {} {} {}",
        ar.rows,
        cost.device.to_bits(),
        cost.host.to_bits(),
        cost.pcie.to_bits(),
        traffic.device,
        traffic.host,
        traffic.pcie,
    );
    assert_eq!(dump, PARENT_Q14, "\n{dump}");
}

const PARENT_Q14: &str = "[[Decimal { unscaled: 56616630850, scale: 4 }, \
    Decimal { unscaled: 264230816910, scale: 4 }]] \
    device 0x3f0ea99011179af5 host 0x0000000000000000 pcie 0x3f048d1027993e80 \
    bytes 79654 0 60032";

#[test]
fn q14_with_decomposed_dimension_column() {
    let mut db = tpch();
    // Decompose the dimension attribute too: the FK refine path must
    // reconstruct through the dimension residual.
    db.bwdecompose("part", "p_type", 4).unwrap();
    let q = "select count(*) from lineitem, part \
             where l_partkey = p_partkey and p_type like 'PROMO%'";
    let (classic, ar) = run_both(&mut db, q);
    assert_eq!(classic, ar);
}

#[test]
fn dimension_predicate_in_where_clause() {
    let mut db = tpch();
    let q = "select count(*), sum(l_quantity) from lineitem, part \
             where l_partkey = p_partkey and p_type like 'ECONOMY%' \
             and l_quantity < 10";
    let (classic, ar) = run_both(&mut db, q);
    assert_eq!(classic, ar);
}

#[test]
fn space_constrained_uses_less_device_memory() {
    let mut db = tpch();
    let stmt =
        parse("select count(*) from lineitem where l_shipdate >= date '1997-01-01'").unwrap();
    let BoundStatement::Query(p) = bind(&stmt, db.catalog()).unwrap() else {
        panic!()
    };
    let plan = db.bind(&p, &Default::default()).unwrap();
    db.auto_bind(&plan).unwrap();
    let resident_bytes = db.env().device.memory().used();
    db.bwdecompose_spec(
        "lineitem",
        "l_shipdate",
        &DecompositionSpec::with_device_bits(24),
    )
    .unwrap();
    let constrained_bytes = db.env().device.memory().used();
    assert!(
        constrained_bytes < resident_bytes,
        "decomposition must shrink the device footprint: {constrained_bytes} vs {resident_bytes}"
    );
    let r = db.run_bound(&plan, ExecMode::ApproxRefine).unwrap();
    let c = db.run_bound(&plan, ExecMode::Classic).unwrap();
    assert_eq!(r.rows, c.rows);
}

/// Q1 in the space-constrained configuration folds the discount and the
/// tax into its grouping: a hash pre-grouping over the four resident keys
/// (11 bits: a warp of slot tables would not fit) writes a 4 B id per
/// candidate, and the device gathers only the quantity and the price over
/// decided ∪ refined rows. The reservation is the executor's own transient
/// bytes over the *predicted* counts, so at safety factor 1 — where the
/// reservation *is* the enforced budget — the margin is what the
/// statistics miss: 60 000 candidate pairs × 12 B + 60 000 ids × 4 B +
/// 57 863 predicted survivors × 2 columns × 8 B + 5 273 survivor bits =
/// 1 886 468 B, against 1 886 312 B held (57 853 survivors, 5 311
/// undecided). Admitted once: no `DeviceOutOfMemory`, no worst-case
/// requeue. (Unfolded, the packed 3-bit key was the group id and the
/// device gathered four value columns: 2 572 276 B reserved.)
#[test]
fn space_constrained_q1_is_admitted_first_time() {
    use std::sync::Arc;
    use waste_not::{SchedConfig, Scheduler};

    let mut db = tpch();
    let stmt = parse(
        "select l_returnflag, l_linestatus, sum(l_quantity), sum(l_extendedprice), \
         sum(l_extendedprice * (1 - l_discount)), \
         sum(l_extendedprice * (1 - l_discount) * (1 + l_tax)), \
         avg(l_quantity), avg(l_extendedprice), avg(l_discount), count(*) \
         from lineitem where l_shipdate <= date '1998-12-01' - interval '90' day \
         group by l_returnflag, l_linestatus",
    )
    .unwrap();
    let BoundStatement::Query(q1) = bind(&stmt, db.catalog()).unwrap() else {
        panic!("not a query")
    };
    let plan = db.bind(&q1, &Default::default()).unwrap();
    db.auto_bind(&plan).unwrap();
    db.bwdecompose("lineitem", "l_shipdate", 24).unwrap();
    let classic = db.run_bound(&plan, ExecMode::Classic).unwrap();

    let config = SchedConfig {
        safety_factor: 1.0,
        ..SchedConfig::default()
    };
    let sched = Scheduler::new(Arc::new(db), config);
    let ar = sched
        .session()
        .query(&plan, ExecMode::ApproxRefine)
        .unwrap();
    assert_eq!(ar.rows, classic.rows);
    assert!(
        ar.breakdown.device > ar.breakdown.host,
        "{:?}",
        ar.breakdown
    );
    let stats = sched.stats();
    assert_eq!((stats.admission_requeues, stats.errors), (0, 0));
}

/// A decimal literal with more than 18 fractional digits is a parse error
/// that names it — not a scale wrapped at 256, which read
/// `l_discount < 0.<255 zeros>1` as `l_discount < 1` and counted every
/// row. Below that a literal keeps its scale, trailing zeros included:
/// `1.00 / l_quantity` divides at scale 2 (a quotient keeps its left
/// operand's scale), so it is not `1 / l_quantity`.
#[test]
fn a_decimal_literal_keeps_its_scale() {
    let mut db = Database::new();
    let lineitem = gen_lineitem(&TpchConfig::scale(0.001));
    let expect: i64 = (0..lineitem.l_quantity.len())
        .map(|i| 100 / lineitem.l_quantity.payload(i))
        .sum();
    db.create_table("lineitem", lineitem.into_columns())
        .unwrap();
    let count =
        |literal: &str| format!("select count(*) as n from lineitem where l_discount < {literal}");
    let tiny = format!("0.{}1", "0".repeat(255));
    let err = parse(&count(&tiny)).unwrap_err();
    assert!(
        matches!(&err, BwdError::Parse(m) if m.contains(&tiny)),
        "{err:?}"
    );
    let (classic, ar) = run_both(&mut db, &count("0.0500"));
    assert_eq!(classic, ar);
    assert_eq!((classic, ar), run_both(&mut db, &count("0.05")));
    let (classic, ar) = run_both(&mut db, "select sum(1.00 / l_quantity) as s from lineitem");
    assert_eq!(classic, ar);
    assert_eq!(classic, [[Value::decimal(expect, 2)]]);
}

/// The frozen benchmark's grouping cell (`kernels.group_ns_per_row`):
/// `hash_group_multi` over every row of Q1's flag columns assigns the
/// first-seen ids and keys it assigned before a key was numbered by mixed
/// radix over its domains — pinned as taken then.
#[test]
fn q1_flag_grouping_is_pinned() {
    use waste_not::core::BoundColumn;
    use waste_not::device::{CostLedger, Env};
    use waste_not::kernels::{group::hash_group_multi, Candidates};

    let env = Env::paper_default();
    let lineitem = gen_lineitem(&TpchConfig::scale(SF)).into_columns();
    let upload = |name: &str| {
        let col = lineitem.iter().find(|(n, _)| n == name).unwrap().1.clone();
        let split = col.decompose(&DecompositionSpec::all_device()).unwrap();
        let split = split.split().unwrap().clone();
        BoundColumn::bind(split, &env.device, name, &mut CostLedger::new()).unwrap()
    };
    let (flag, status) = (upload("l_returnflag"), upload("l_linestatus"));
    let rows = Candidates::dense_all(flag.approx().len());
    let keys = [flag.approx(), status.approx()];
    let g = hash_group_multi(&env, &keys, &rows, &mut CostLedger::new());
    let fingerprint = (g.group_ids.iter()).fold(0u64, |h, &id| {
        h.wrapping_mul(0x100_0000_01b3) ^ u64::from(id)
    });
    assert_eq!(
        (g.group_ids.len(), g.group_keys, fingerprint),
        (
            60_000,
            vec![vec![2, 0], vec![0, 0], vec![1, 1]],
            0x098e_349d_a1a6_9986
        )
    );
}
