//! The guard behind "plain columns are stored in the bytes their values
//! need": physical bytes per row of every generated column, pinned beside
//! the modeled bytes no width may move.
//!
//! At 50 000 fixes (seed 3) and TPC-H SF 0.005 (seed 1; 30 000 lineitems,
//! 1 000 parts) — the scale `crates/engine/tests/load_ledger.rs` pins the
//! load ledger at. Each physical width is the first of `i8`, `i16`, `u16`,
//! the 3-byte `I24` and `i32` (else `i64`) holding the domain stated
//! beside it; the generators push the TPC-H measures and `l_partkey` in
//! those widths (the key's picked by that rule from `1..=parts` before the
//! fill) and the coordinates in 3 bytes; `p_partkey`, the prices, `tripid`
//! and `time` arrive as `i32` and the storage rule narrows them on its own.
//!
//! At the benchmark's scale (8 M fixes, SF 0.5; 3 M lineitems, 100 000
//! parts): `tripid` 1..≈40 000 needs a `u16` (2), the coordinates stay 3,
//! `time` reaches ≈ 44 M (4); `l_partkey` and `p_partkey` 1..=100 000 and
//! `p_retailprice` ≤ 389 900 need 3, `l_extendedprice` reaches 19 495 000
//! (4), the rest are as here. So `trips` 2 + 3 + 3 + 4 = 12, `lineitem`
//! 3 + 1 + 4 + 1 + 1 + 1 + 1 + 2 = 14, `part` 3 + 1 + 3 = 7 B/row, against
//! modeled 16 / 44 / 16.
//!
//! A width that moves back fails the physical column; a width that leaks
//! into a bill fails the modeled one, the reports or the ledger — all
//! three are the parent's dump for the same tables.

use waste_not::data::{gen_lineitem, gen_part, gen_trips, SpatialConfig, TpchConfig};
use waste_not::engine::Database;

/// `(table, column, physical B/row, modeled B/row)`.
const WIDTHS: [(&str, &str, u64, u64); 15] = [
    // ~250 trips of 1..=400 fixes: more than 127, fewer than 32 768.
    ("trips", "tripid", 2, 4),
    // −1 262 427..=2 964 975 and 2 709 371..=7 013 643: inside ±2^23.
    ("trips", "lon", 3, 4),
    ("trips", "lat", 3, 4),
    // 50 000 steps of 1..=10 s: past 65 535, below 2^23.
    ("trips", "time", 3, 4),
    // 1..=1 000.
    ("lineitem", "l_partkey", 2, 4),
    // 1..=50.
    ("lineitem", "l_quantity", 1, 4),
    // Up to 50 × 199 890 = 9 994 500 cents (key 999): past 2^23.
    ("lineitem", "l_extendedprice", 4, 8),
    // 0..=10 and 0..=8 cents.
    ("lineitem", "l_discount", 1, 8),
    ("lineitem", "l_tax", 1, 8),
    // Three and two dictionary entries.
    ("lineitem", "l_returnflag", 1, 4),
    ("lineitem", "l_linestatus", 1, 4),
    // Days 8 036..=10 561.
    ("lineitem", "l_shipdate", 2, 4),
    // 1..=1 000; 125 dictionary entries; 90 110..=199 890 cents.
    ("part", "p_partkey", 2, 4),
    ("part", "p_type", 1, 4),
    ("part", "p_retailprice", 3, 8),
];

/// `(table, column, device bits, device bytes, host bytes, resbits, stored
/// width)` of the benchmark's set-up sequence: both coordinates 24/8,
/// every column Q1/Q6/Q14 touch all-device, then `l_shipdate` 24/8.
const REPORTS: [(&str, &str, u32, u64, u64, u32, u32); 12] = [
    ("trips", "lon", 24, 87_500, 50_000, 8, 14),
    ("trips", "lat", 24, 81_250, 50_000, 8, 13),
    ("lineitem", "l_partkey", 64, 37_500, 0, 0, 10),
    ("lineitem", "l_quantity", 64, 22_500, 0, 0, 6),
    ("lineitem", "l_extendedprice", 64, 90_000, 0, 0, 24),
    ("lineitem", "l_discount", 64, 15_000, 0, 0, 4),
    ("lineitem", "l_tax", 64, 15_000, 0, 0, 4),
    ("lineitem", "l_returnflag", 64, 7_500, 0, 0, 2),
    ("lineitem", "l_linestatus", 64, 3_750, 0, 0, 1),
    ("lineitem", "l_shipdate", 64, 45_000, 0, 0, 12),
    ("part", "p_type", 64, 875, 0, 0, 7),
    ("lineitem", "l_shipdate", 24, 15_000, 30_000, 8, 4),
];

#[test]
fn physical_bytes_per_row_are_pinned_and_reach_no_bill() {
    let trips = gen_trips(&SpatialConfig {
        seed: 3,
        ..SpatialConfig::fixes(50_000)
    });
    let tpch = TpchConfig {
        scale: 0.005,
        seed: 1,
    };
    let mut db = Database::new();
    let mut columns = std::collections::BTreeMap::new();
    for (table, cols) in [
        ("trips", trips.into_columns()),
        ("lineitem", gen_lineitem(&tpch).into_columns()),
        ("part", gen_part(&tpch).into_columns()),
    ] {
        columns.insert(table, cols.len());
        db.create_table(table, cols).unwrap();
    }

    let mut per_row = std::collections::BTreeMap::new();
    for (table, name, physical, modeled) in WIDTHS {
        let col = db.catalog().table(table).unwrap().column(name).unwrap();
        let rows = col.len() as u64;
        assert_eq!(col.physical_bytes(), rows * physical, "{table}.{name}");
        assert_eq!(col.plain_bytes(), rows * modeled, "{table}.{name}");
        let (p, m) = per_row.entry(table).or_insert((0, 0));
        (*p, *m) = (*p + physical, *m + modeled);
    }
    let expected = [
        ("lineitem", (13, 44)),
        ("part", (6, 16)),
        ("trips", (11, 16)),
    ];
    assert_eq!(per_row.into_iter().collect::<Vec<_>>(), expected);
    for (table, _) in expected {
        let listed = WIDTHS.iter().filter(|w| w.0 == table).count();
        assert_eq!(columns[table], listed, "{table}: a column is not pinned");
    }

    db.declare_fk("lineitem", "l_partkey", "part", "p_partkey")
        .unwrap();
    for (table, column, device_bits, device, host, resbits, stored) in REPORTS {
        let r = db.bwdecompose(table, column, device_bits).unwrap();
        let plain = db.catalog().table(table).unwrap().column(column).unwrap();
        assert_eq!(
            (r.device_bytes, r.host_bytes, r.resbits, r.stored_width),
            (device, host, resbits, stored),
            "{table}.{column} {device_bits}"
        );
        assert_eq!(r.plain_bytes, plain.plain_bytes(), "{table}.{column}");
    }
    // The running ledger's last line in the parent's dump.
    let (cost, traffic) = (db.load_costs().breakdown(), db.load_costs().traffic());
    assert_eq!(
        (cost.host.to_bits(), cost.pcie.to_bits(), traffic.pcie),
        (0x3f1a013305e6c9ce, 0x3f31d425634ba8b6, 458_375)
    );
    assert_eq!((cost.device, traffic.device, traffic.host), (0.0, 0, 0));
}
