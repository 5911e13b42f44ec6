//! Every generated column, pinned.
//!
//! The generators feed the benchmark's simulated clock: one changed
//! `lineitem` row moves `sim_ms_per_query` by 0.1–0.2 %. A generator may
//! change how it *builds* its columns, never the rows: same RNG streams,
//! same draws per row. The checksums below were taken on the commit before
//! the generators moved to physical-width storage.

use bwd_data::{gen_lineitem, gen_part, gen_trips, SpatialConfig, TpchConfig};
use bwd_storage::Column;

/// FNV-1a over the type, every payload and every dictionary string.
fn checksum(col: &Column) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    let mut eat = |bytes: &[u8]| {
        for &b in bytes {
            h = (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    eat(col.dtype().to_string().as_bytes());
    eat(&(col.len() as u64).to_le_bytes());
    for i in 0..col.len() {
        eat(&col.payload(i).to_le_bytes());
    }
    for s in col.dictionary().into_iter().flat_map(|d| d.iter()) {
        eat(s.as_bytes());
        eat(&[0xff]);
    }
    h
}

fn assert_pinned(table: &str, columns: Vec<(String, Column)>, pinned: &[(&str, u64)]) {
    let got: Vec<(&str, u64)> = columns
        .iter()
        .map(|(name, col)| (name.as_str(), checksum(col)))
        .collect();
    assert_eq!(got, pinned, "{table}: a generated column changed");
}

#[test]
fn trips_50k_fixes_seed_3() {
    let trips = gen_trips(&SpatialConfig {
        seed: 3,
        ..SpatialConfig::fixes(50_000)
    });
    let pinned = [
        ("tripid", 3943995153603039372),
        ("lon", 17850676779491331988),
        ("lat", 4676664928561890172),
        ("time", 3183473896900485617),
    ];
    assert_pinned("trips", trips.into_columns(), &pinned);
}

#[test]
fn tpch_sf_0_005_seed_1() {
    let cfg = TpchConfig {
        scale: 0.005,
        seed: 1,
    };
    let lineitem = [
        ("l_partkey", 10094114509573402284),
        ("l_quantity", 8081860343237123786),
        ("l_extendedprice", 12028694745512484847),
        ("l_discount", 9818760278871948749),
        ("l_tax", 4359681978231071309),
        ("l_returnflag", 10876078777561491949),
        ("l_linestatus", 10775351652467221860),
        ("l_shipdate", 6955518246255945326),
    ];
    assert_pinned("lineitem", gen_lineitem(&cfg).into_columns(), &lineitem);
    let part = [
        ("p_partkey", 341031169765279230),
        ("p_type", 15669918960199927685),
        ("p_retailprice", 5306995432653747062),
    ];
    assert_pinned("part", gen_part(&cfg).into_columns(), &part);
}

/// Above 2^20 rows a generator fills its pieces on every core; these were
/// taken on the commit before it did, with one thread filling every row.
#[test]
fn trips_1_1m_fixes_seed_3() {
    let trips = gen_trips(&SpatialConfig {
        seed: 3,
        ..SpatialConfig::fixes(1_100_000)
    });
    let pinned = [
        ("tripid", 9385510257580834439),
        ("lon", 457903037377738090),
        ("lat", 9114205407162881479),
        ("time", 11533613240216358168),
    ];
    assert_pinned("trips", trips.into_columns(), &pinned);
}

#[test]
fn tpch_sf_0_2_seed_1() {
    let cfg = TpchConfig {
        scale: 0.2,
        seed: 1,
    };
    let lineitem = [
        ("l_partkey", 3699200910582412822),
        ("l_quantity", 14283527214088118666),
        ("l_extendedprice", 8281878124587615780),
        ("l_discount", 1367992227135937664),
        ("l_tax", 17906210611774365198),
        ("l_returnflag", 14119025676791382573),
        ("l_linestatus", 15258624277835775332),
        ("l_shipdate", 2524981025665647149),
    ];
    assert_pinned("lineitem", gen_lineitem(&cfg).into_columns(), &lineitem);
}

/// The benchmark's exact data: 8 M fixes at the spatial seed `--seed 1`
/// derives (the first `SplitMix64(1)` draw) and TPC-H SF 0.5 at its fixed
/// seed. It holds a benchmark set-up's whole data at once, so the default
/// run skips it; run it with `--release -- --ignored`.
#[test]
#[ignore]
fn benchmark_scale_fingerprint() {
    let seed = bwd_types::SplitMix64::new(1).next_u64();
    let trips = gen_trips(&SpatialConfig {
        seed,
        ..SpatialConfig::fixes(8_000_000)
    });
    let pinned = [
        ("tripid", 3547430075149521768),
        ("lon", 16253279008595636567),
        ("lat", 12756948132095121817),
        ("time", 16800202839085796753),
    ];
    assert_pinned("trips", trips.into_columns(), &pinned);
    let cfg = TpchConfig {
        scale: 0.5,
        seed: 0x7C_41,
    };
    let lineitem = [
        ("l_partkey", 12470752817596355635),
        ("l_quantity", 13938838588828960791),
        ("l_extendedprice", 10881353257807302344),
        ("l_discount", 11841738373379781566),
        ("l_tax", 7068403928462079029),
        ("l_returnflag", 15864609267700740870),
        ("l_linestatus", 11256171326557055817),
        ("l_shipdate", 17616888820848006446),
    ];
    assert_pinned("lineitem", gen_lineitem(&cfg).into_columns(), &lineitem);
    let part = [
        ("p_partkey", 17110246524825787218),
        ("p_type", 15354059949996806480),
        ("p_retailprice", 2263861785437319679),
    ];
    assert_pinned("part", gen_part(&cfg).into_columns(), &part);
}
