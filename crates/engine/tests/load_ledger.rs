//! The load ledger and the decomposition reports, pinned.
//!
//! How a column is ingested, indexed and decomposed is free to change;
//! what the load *costs on the paper's clock* and what it leaves on the
//! device and the host is not. This walks the benchmark's set-up sequence
//! (both spatial columns 24/8, all-device residency for every column
//! Q1/Q6/Q14 touch, then the space-constrained `l_shipdate` 24/8) at
//! 50 000 fixes / SF 0.005 and compares the running `load_costs()` after
//! every step — so each label's seconds and bytes — and every
//! `DecompositionReport` with the dump of the commit before the one-pass
//! load path.

use bwd_data::{gen_lineitem, gen_part, gen_trips, SpatialConfig, TpchConfig};
use bwd_engine::Database;

const PARENT_DUMP: &str = "\
fk lineitem.l_partkey: host 0x3f1a013305e6c9ce pcie 0x3ef689a9d1015b11 bytes 37500
trips.lon 24: host 0x3f1a013305e6c9ce pcie 0x3f0d2c9f36a74baa bytes 125000
  device 87500 host 50000 resbits 8 stored 14 plain 200000
trips.lat 24: host 0x3f1a013305e6c9ce pcie 0x3f1720056c0c95dc bytes 206250
  device 81250 host 50000 resbits 8 stored 13 plain 200000
lineitem.l_partkey 64: host 0x3f1a013305e6c9ce pcie 0x3f1cc26fe04ceca0 bytes 243750
  device 37500 host 0 resbits 0 stored 10 plain 120000
lineitem.l_quantity 64: host 0x3f1a013305e6c9ce pcie 0x3f20b301290d62da bytes 266250
  device 22500 host 0 resbits 0 stored 6 plain 120000
lineitem.l_extendedprice 64: host 0x3f1a013305e6c9ce pcie 0x3f2542306775ea31 bytes 356250
  device 90000 host 0 resbits 0 stored 24 plain 240000
lineitem.l_discount 64: host 0x3f1a013305e6c9ce pcie 0x3f2754439fc0374f bytes 371250
  device 15000 host 0 resbits 0 stored 4 plain 240000
lineitem.l_tax 64: host 0x3f1a013305e6c9ce pcie 0x3f296656d80a846d bytes 386250
  device 15000 host 0 resbits 0 stored 4 plain 240000
lineitem.l_returnflag 64: host 0x3f1a013305e6c9ce pcie 0x3f2b38b40fb8321e bytes 393750
  device 7500 host 0 resbits 0 stored 2 plain 120000
lineitem.l_linestatus 64: host 0x3f1a013305e6c9ce pcie 0x3f2ceb3647179019 bytes 397500
  device 3750 host 0 resbits 0 stored 1 plain 120000
lineitem.l_shipdate 64: host 0x3f1a013305e6c9ce pcie 0x3f2ffc2181d45ae7 bytes 442500
  device 45000 host 0 resbits 0 stored 12 plain 120000
part.p_type 64: host 0x3f1a013305e6c9ce pcie 0x3f30cb1bc7268227 bytes 443375
  device 875 host 0 resbits 0 stored 7 plain 4000
lineitem.l_shipdate 24: host 0x3f1a013305e6c9ce pcie 0x3f31d425634ba8b6 bytes 458375
  device 15000 host 30000 resbits 8 stored 4 plain 120000
";

#[test]
fn load_costs_and_reports_equal_the_parents_dump() {
    let mut db = Database::new();
    let trips = gen_trips(&SpatialConfig {
        seed: 3,
        ..SpatialConfig::fixes(50_000)
    });
    let tpch = TpchConfig {
        scale: 0.005,
        seed: 1,
    };
    db.create_table("trips", trips.into_columns()).unwrap();
    let lineitem = gen_lineitem(&tpch).into_columns();
    let names: Vec<String> = lineitem.iter().map(|(name, _)| name.clone()).collect();
    db.create_table("lineitem", lineitem).unwrap();
    db.create_table("part", gen_part(&tpch).into_columns())
        .unwrap();

    let ledger_line = |db: &Database, step: &str| {
        let (cost, traffic) = (db.load_costs().breakdown(), db.load_costs().traffic());
        assert_eq!((cost.device, traffic.device, traffic.host), (0.0, 0, 0));
        format!(
            "{step}: host {:#018x} pcie {:#018x} bytes {}\n",
            cost.host.to_bits(),
            cost.pcie.to_bits(),
            traffic.pcie,
        )
    };
    db.declare_fk("lineitem", "l_partkey", "part", "p_partkey")
        .unwrap();
    let mut dump = ledger_line(&db, "fk lineitem.l_partkey");
    let mut steps = vec![
        ("trips", "lon".to_string(), 24),
        ("trips", "lat".to_string(), 24),
    ];
    steps.extend(names.into_iter().map(|c| ("lineitem", c, 64)));
    steps.push(("part", "p_type".to_string(), 64));
    steps.push(("lineitem", "l_shipdate".to_string(), 24));
    for (table, column, device_bits) in steps {
        let r = db.bwdecompose(table, &column, device_bits).unwrap();
        dump.push_str(&ledger_line(
            &db,
            &format!("{table}.{column} {device_bits}"),
        ));
        dump.push_str(&format!(
            "  device {} host {} resbits {} stored {} plain {}\n",
            r.device_bytes, r.host_bytes, r.resbits, r.stored_width, r.plain_bytes
        ));
    }
    assert_eq!(dump, PARENT_DUMP, "\n{dump}");
}
