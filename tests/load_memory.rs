//! The guard behind the one-pass load path: ingesting, indexing and
//! decomposing a column may not hold a row-count-sized transient.
//!
//! One test, alone in its binary (the high-water mark is per process).
//! First, on the counting heap's own high-water mark: `gen_lineitem` may
//! peak at the columns it returns (its key filled in its stored width, no
//! `i32` vector beside a narrowed copy) and `declare_fk` over a dense
//! dimension at its link plus 4 B a key of the span (no hash table), each
//! plus 64 KiB. Then, over 4 M rows, every load step — `Column::from_strings`,
//! `Column::from_decimals`, `Column::from_i32`, `create_table`,
//! `declare_fk`, `bwdecompose` 24/8 and all-device — may raise `VmHWM`
//! over the resident set just before it by the bytes the step leaves
//! resident (payloads in the 1, 2, 3, 4 or 8 bytes they need, the FK
//! mapping once — packed at the dimension's row width, the one copy the
//! device gathers through and the host decodes —, both packed partitions
//! of a re-split column, and of a plain one what they add over the
//! payloads they replace, which hand their pages back as they are packed;
//! the heap is trimmed first, so the new partitions touch fresh pages)
//! plus 8 MiB for hash tables, dictionaries and allocator slack; a
//! constructor handed values wider than they need may hold that input
//! beside the re-packed column until it returns, and not a moment longer. What this replaced held, on top: a 61 MiB `Vec<&str>` of
//! row references to sort while building a dictionary, a 30.5 MiB widened
//! `Vec<i64>` copy of every column it indexed or decomposed, and —
//! resident for good — 8 bytes a row for an eleven-valued decimal. And
//! what a `bwdecompose` leaves *on the heap* — counted, because `VmRSS`
//! cannot say: the allocator hands a later step the pages an earlier one
//! freed — is its approximation and its packed residual, less everything
//! the column held before: a decomposed column keeps no plain payloads,
//! and every clone, decomposition and binding of it shares the two
//! partitions by pointer. Linux-only, and skipped where
//! `/proc/self/clear_refs` cannot reset the high-water mark.

#![cfg(target_os = "linux")]

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering::Relaxed};
use std::sync::{Mutex, MutexGuard, PoisonError};
use waste_not::core::plan::ArPlan;
use waste_not::core::BoundColumn;
use waste_not::data::{gen_lineitem, gen_part, gen_trips, SpatialConfig, TpchConfig};
use waste_not::device::{CostLedger, Env};
use waste_not::engine::tail::SLICE_ROWS;
use waste_not::engine::{Database, ExecMode};
use waste_not::sql::{bind, parse, BoundStatement};
use waste_not::storage::{Column, DecompositionSpec, Storage};
use waste_not::types::SplitMix64;

const ROWS: usize = 4_000_000;
const SLACK_MIB: f64 = 8.0;
const MIB: f64 = (1 << 20) as f64;

/// Bytes the heap holds, and the most it has held since [`heap_rise`]
/// last reset it. Statistics: they publish no other data.
static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

/// Count `size` more bytes on the heap.
fn grow(size: usize) {
    PEAK.fetch_max(LIVE.fetch_add(size, Relaxed) + size, Relaxed);
}

/// The system allocator, counting. Every entry point forwards to its
/// namesake, so zeroed and grown blocks touch the pages they always did.
struct Counting;

// SAFETY: each method hands its arguments, unchanged, to the `System`
// method of the same name, whose contract the caller already upholds.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        grow(layout.size());
        // SAFETY: the caller's `layout`, as is.
        unsafe { System.alloc(layout) }
    }
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        grow(layout.size());
        // SAFETY: the caller's `layout`, as is.
        unsafe { System.alloc_zeroed(layout) }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE.fetch_sub(layout.size(), Relaxed);
        // SAFETY: `ptr` came from this allocator, so from `System`.
        unsafe { System.dealloc(ptr, layout) }
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        grow(new_size);
        LIVE.fetch_sub(layout.size(), Relaxed);
        // SAFETY: `ptr` came from this allocator, so from `System`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static HEAP: Counting = Counting;

/// The counts are per process: the tests of this binary take turns.
fn alone() -> MutexGuard<'static, ()> {
    static TURN: Mutex<()> = Mutex::new(());
    TURN.lock().unwrap_or_else(PoisonError::into_inner)
}

/// A `/proc/self/status` field in MiB.
fn status_mib(field: &str) -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap();
    let line = status.lines().find(|l| l.starts_with(field)).unwrap();
    let kib: f64 = line.split_whitespace().nth(1).unwrap().parse().unwrap();
    kib / 1024.0
}

/// Run `step`; its result, and how far the peak RSS rose over the RSS
/// just before it, in MiB.
fn peak_rise<T>(step: impl FnOnce() -> T) -> (T, f64) {
    // "5" resets the peak RSS to the current RSS (Linux ≥ 4.0).
    std::fs::write("/proc/self/clear_refs", "5").unwrap();
    let before = status_mib("VmRSS:");
    let out = step();
    (out, status_mib("VmHWM:") - before)
}

/// Run `step`; its result, and how far the heap's peak rose over what the
/// heap held just before it, in bytes — what no `VmHWM` can tell once the
/// allocator reuses the pages an earlier step freed.
fn heap_rise<T>(step: impl FnOnce() -> T) -> (T, usize) {
    let before = LIVE.load(Relaxed);
    PEAK.store(before, Relaxed);
    let out = step();
    (out, PEAK.load(Relaxed) - before)
}

/// Hand the heap's free pages back to the OS, so that a step's new blocks
/// touch fresh pages — and show in the peak — instead of pages an earlier
/// step freed but the allocator kept resident.
fn trim_heap() {
    #[cfg(target_env = "gnu")]
    {
        extern "C" {
            fn malloc_trim(pad: usize) -> i32;
        }
        // SAFETY: glibc's `malloc_trim` only returns free heap pages to
        // the OS; it takes no pointer and leaves every live block as is.
        unsafe { malloc_trim(0) };
    }
}

fn assert_no_transient(step: &str, rise_mib: f64, resident_bytes: u64) {
    let resident_mib = resident_bytes as f64 / MIB;
    eprintln!("{step}: peak RSS +{rise_mib:.1} MiB, {resident_mib:.1} MiB of it stay resident");
    assert!(
        rise_mib <= resident_mib + SLACK_MIB,
        "{step}: peak RSS rose {rise_mib:.1} MiB for {resident_mib:.1} MiB that stay resident \
         (slack {SLACK_MIB} MiB) — is something copying the column?"
    );
}

#[test]
fn loading_holds_no_row_count_sized_transient() {
    let _turn = alone();
    // Set-up peaks, counted on the heap. A generator fills each column in
    // the width its domain needs — `l_partkey`'s, `1..=40 000` at SF 0.2,
    // in `u16` — so its peak is the columns it returns, not an `i32` key
    // vector beside their narrowed copy.
    let (li, rise) = heap_rise(|| gen_lineitem(&TpchConfig::scale(0.2)));
    let li = li.into_columns();
    let physical: u64 = li.iter().map(|(_, c)| c.physical_bytes()).sum();
    eprintln!("gen_lineitem: heap peak +{rise} B for {physical} B of columns");
    assert!(
        rise as u64 <= physical + (64 << 10),
        "gen_lineitem: the heap peaked {rise} B over its start for {physical} B of columns"
    );
    drop(li);
    // A dimension whose key span is dense is addressed, not hashed: the
    // build holds the link and 4 B a key of the span, no hash table.
    let (dim_rows, fact_rows) = (20_000, 1 << 21);
    let dim: Vec<i32> = (0..dim_rows).map(|r| 1 + (r * 7919) % dim_rows).collect();
    let fact: Vec<i32> = (0..fact_rows).map(|r| 1 + (r * 31) % dim_rows).collect();
    let mut db = Database::new();
    db.create_table("dim", vec![("key".into(), Column::from_i32(dim))])
        .unwrap();
    db.create_table("fact", vec![("key".into(), Column::from_i32(fact))])
        .unwrap();
    let (_, rise) = heap_rise(|| db.declare_fk("fact", "key", "dim", "key").unwrap());
    let (link, slots) = (fact_rows as u64 * 15 / 8, 4 * dim_rows as u64);
    eprintln!("declare_fk (dense): heap peak +{rise} B for a {link} B link and {slots} B of slots");
    assert!(
        rise as u64 <= link + slots + (64 << 10),
        "declare_fk (dense): the heap peaked {rise} B over its start for a {link} B link and \
         {slots} B of slots — is the dimension hashed?"
    );
    drop(db);

    if std::fs::write("/proc/self/clear_refs", "5").is_err() {
        eprintln!("skipped: /proc/self/clear_refs is not writable");
        return;
    }
    const FLAGS: [&str; 3] = ["A", "N", "R"];
    let flags: Vec<&str> = (0..ROWS).map(|i| FLAGS[i * 7 % 3]).collect();
    let (flag, rise) = peak_rise(|| Column::from_strings(&flags));
    // First-seen ids are 4 bytes a row — a dictionary's size is known only
    // after its last row — until the ranks are packed into the 1 they need.
    let step = "from_strings (4 B/row of ids while it runs, 1 B/row after)";
    assert_no_transient(step, rise, ROWS as u64 * (4 + 1));
    assert_eq!(flag.physical_bytes(), ROWS as u64);
    drop(flags);

    // A decimal(12,2) of eleven values, handed over in the 8 bytes a row
    // its type is modeled at: the peak holds the re-packed byte a row
    // beside the input it arrived with, and when the constructor returns
    // the input is gone.
    let wide: Vec<i64> = (0..ROWS).map(|i| (i * 7 % 11) as i64).collect();
    let with_input = status_mib("VmRSS:");
    let (discount, rise) = peak_rise(|| Column::from_decimals(wide, 12, 2).unwrap());
    assert_no_transient("from_decimals", rise, ROWS as u64);
    let stays = status_mib("VmRSS:") - (with_input - (ROWS * 8) as f64 / MIB);
    eprintln!("from_decimals: {stays:.1} MiB stay resident");
    assert!(
        stays <= ROWS as f64 / MIB + SLACK_MIB,
        "from_decimals: {stays:.1} MiB stay resident for eleven values a byte holds"
    );
    assert_eq!(discount.plain_bytes(), ROWS as u64 * 8);

    // The two widths between the powers of two, handed over as `i32`: a
    // domain past `i16` that a `u16` holds, and a 23-bit one. The peak holds
    // the re-packed 2 or 3 bytes a row beside the input; afterwards the
    // counted heap holds those bytes and no `i32` copy.
    let domains = [("u16", 32_768, 1 << 15, 2), ("i24", -(1 << 22), 1 << 23, 3)];
    for (domain, lo, span, width) in domains {
        let held = LIVE.load(Relaxed);
        let input: Vec<i32> = (0..ROWS).map(|i| lo + (i * 7919 % span) as i32).collect();
        let (col, rise) = peak_rise(|| Column::from_i32(input));
        let kept = ROWS as u64 * width;
        assert_no_transient(&format!("from_i32 ({domain} domain)"), rise, kept);
        assert_eq!(col.physical_bytes(), kept, "{domain}");
        let stays = LIVE.load(Relaxed) - held;
        assert!(
            stays <= kept as usize + (64 << 10),
            "from_i32 ({domain} domain): {stays} B stay on the heap for {kept} B of payloads"
        );
    }

    let i32s = |f: fn(usize) -> usize| Column::from_i32((0..ROWS).map(|i| f(i) as i32).collect());
    let columns = vec![
        ("key".into(), i32s(|i| 1 + i * 31 % 1000)),
        ("wide".into(), i32s(|i| i * 7919 % ROWS)),
        ("narrow".into(), i32s(|i| i % 50)),
        ("flag".into(), flag),
        ("discount".into(), discount),
    ];
    let dim = vec![("key".into(), Column::from_i32((1..=1000).collect()))];

    let mut db = Database::new();
    let (_, rise) = peak_rise(|| {
        db.create_table("fact", columns).unwrap();
        db.create_table("dim", dim).unwrap();
    });
    assert_no_transient("create_table", rise, 0);

    let held = LIVE.load(Relaxed);
    let (_, rise) = peak_rise(|| db.declare_fk("fact", "key", "dim", "key").unwrap());
    // 10-bit packed positions, which the host reads as well: no 4-byte
    // host copy, not even while the index is built.
    let link = ROWS as u64 * 10 / 8;
    assert_no_transient("declare_fk", rise, link);
    let stays = LIVE.load(Relaxed) - held;
    assert!(
        stays <= link as usize + (64 << 10),
        "declare_fk: {stays} B stay on the heap for a {link} B link — is a host copy back?"
    );

    let steps = [
        ("wide", 24),
        ("narrow", 64),
        ("flag", 64),
        ("wide", 64),
        ("discount", 56),
        ("discount", 64),
    ];
    fn column<'a>(db: &'a Database, name: &str) -> &'a Column {
        db.catalog().table("fact").unwrap().column(name).unwrap()
    }
    for (name, device_bits) in steps {
        // A plain column's payloads, or a split one's two partitions.
        let plain = column(&db, name).split().is_none();
        let released = column(&db, name).physical_bytes() as i64;
        let held = LIVE.load(Relaxed) as i64;
        trim_heap();
        let (report, rise) = peak_rise(|| db.bwdecompose("fact", name, device_bits).unwrap());
        let step = format!("bwdecompose({name}, {device_bits})");
        // The approximation and the packed residual, the paper's host
        // partition: every bit once. 24/8 over 4 M rows of a 22-bit
        // domain: 7 000 000 + 4 000 000 B, for the 16 000 000 B released.
        // A plain column hands its pages back as they are packed, so the
        // peak holds no more than what the split adds over it (24/8: none);
        // a split one is read in place beside the new split.
        let split = report.device_bytes + report.host_bytes;
        let grows = if plain {
            split.saturating_sub(released as u64)
        } else {
            split
        };
        assert_no_transient(&step, rise, grows);
        assert!(
            matches!(column(&db, name).storage(), Storage::Split(_)),
            "{step}"
        );
        assert_eq!(column(&db, name).physical_bytes(), split, "{step}");
        if (name, device_bits) == ("wide", 24) {
            assert_eq!(
                (report.device_bytes, report.host_bytes),
                (7_000_000, 4_000_000)
            );
        }
        let stays = LIVE.load(Relaxed) as i64 - held;
        let want = split as i64 - released;
        assert!(
            (stays - want).abs() <= 64 << 10,
            "{step}: the heap moved {stays} B, not {want} B — {split} B of partitions for \
             {released} B released: is a plain copy kept beside the split column?"
        );
    }

    // One copy of each partition, however many hands hold the column: a
    // clone shares the catalog's storage, and a decomposition of it (a
    // re-split, block by block) shares its two partitions with its clone
    // and with the binding that moves the approximation to the device.
    let wide = column(&db, "wide");
    assert!(
        std::ptr::eq(wide.clone().storage(), wide.storage()),
        "deep copy"
    );
    let spec = DecompositionSpec::with_device_bits(24);
    let held = LIVE.load(Relaxed);
    let decomposed = wide
        .clone()
        .decompose(&spec)
        .unwrap()
        .split()
        .unwrap()
        .clone();
    let env = Env::paper_default();
    let copy = decomposed.clone();
    let bound = BoundColumn::bind(copy, &env.device, "wide", &mut CostLedger::new()).unwrap();
    assert!(
        std::ptr::eq(bound.approx().data(), decomposed.approx()),
        "deep copy"
    );
    assert!(
        std::ptr::eq(bound.residual(), decomposed.residual()),
        "deep copy"
    );
    let once = (decomposed.device_bytes() + decomposed.host_bytes()) as usize;
    assert!(LIVE.load(Relaxed) - held <= once + (64 << 10));
}

/// An A&R query holds its undecided candidates as bits, not as a list:
/// over 4 M rows whose approximation leaves 1 M of the 2 M candidates
/// undecided, a grouped aggregate (5 000 hash pre-groups) may raise the
/// counted heap by 2 bits a row — the candidates' bitmap and the undecided
/// one —, a per-group constant and one tail slice's buffers, where a list
/// of the undecided oids alone is 4 MiB.
#[test]
fn an_ar_query_holds_no_list_per_candidate() {
    let _turn = alone();
    const ROWS: usize = 1 << 22;
    const GROUPS: usize = 5_000;
    let ints = |f: fn(usize) -> usize| Column::from_i32((0..ROWS).map(|i| f(i) as i32).collect());
    let mut db = Database::new();
    let columns = vec![
        ("d".into(), ints(|i| i % 4096)),
        ("g".into(), ints(|i| i % 100)),
        ("h".into(), ints(|i| i / 100 % 50)),
        ("v".into(), ints(|i| i % 1000)),
    ];
    db.create_table("t", columns).unwrap();
    // 22 device bits leave `d` four granules of 1 024 values, 1 M rows
    // each: `d <= 1500` decides the first and leaves the second undecided.
    db.bwdecompose("t", "d", 22).unwrap();
    let sql = "select g, h, sum(v), count(*) from t where d <= 1500 group by g, h";
    let plan = bind_sql(&db, sql);
    db.auto_bind(&plan).unwrap();
    let mode = ExecMode::ApproxRefine;
    let (first, counts, _) = db
        .run_counted(&plan, mode.clone(), db.env(), 1, None)
        .unwrap();
    assert_eq!((counts.candidates(), counts.undecided), (2 << 20, 1 << 20));
    let (second, rise) = heap_rise(|| db.run_bound(&plan, mode).unwrap());
    assert_eq!(first.rows, second.rows);
    assert_eq!((second.rows.len(), second.survivors), (GROUPS, 1501 << 10));
    let (bits, per_group, slice) = (ROWS / 4, 256 * GROUPS, 64 * SLICE_ROWS);
    eprintln!("A&R grouped aggregate, 1 M undecided: heap +{rise} B");
    assert!(
        rise <= bits + per_group + slice,
        "an A&R run raised the heap {rise} B, past {bits} B of bitmaps, {per_group} B for \
         {GROUPS} groups and {slice} B for a slice — is a list of candidates held?"
    );
}

/// Parse, bind and rewrite `sql` against `db`.
fn bind_sql(db: &Database, sql: &str) -> ArPlan {
    let parsed = parse(sql).unwrap();
    match bind(&parsed, db.catalog()).unwrap() {
        BoundStatement::Query(logical) => db.bind(&logical, &Default::default()).unwrap(),
        BoundStatement::Decompose { .. } => panic!("{sql}: not a query"),
    }
}

/// The benchmark's statements at `--seed 1` (`benchmark/src/gen.rs`): the
/// spatial box unshifted, TPC-H Q6, Q14 and Q1, and a 1 % probe.
const STATEMENTS: [(&str, &str); 5] = [
    (
        "S",
        "select count(lon) from trips where lon between 2.68288 and 2.70228 \
         and lat between 50.42220 and 50.44850",
    ),
    (
        "Q6",
        "select sum(l_extendedprice * l_discount) as revenue from lineitem \
         where l_shipdate >= date '1994-01-01' \
         and l_shipdate < date '1994-01-01' + interval '1' year \
         and l_discount between 0.05 and 0.07 and l_quantity < 24",
    ),
    (
        "Q14",
        "select sum(case when p_type like 'PROMO%' then l_extendedprice * (1 - l_discount) \
         else 0 end) as promo_revenue, sum(l_extendedprice * (1 - l_discount)) as total_revenue \
         from lineitem, part where l_partkey = p_partkey \
         and l_shipdate >= date '1995-09-01' \
         and l_shipdate < date '1995-09-01' + interval '1' month",
    ),
    (
        "Q1",
        "select l_returnflag, l_linestatus, sum(l_quantity) as sum_qty, \
         sum(l_extendedprice) as sum_base_price, \
         sum(l_extendedprice * (1 - l_discount)) as sum_disc_price, \
         sum(l_extendedprice * (1 - l_discount) * (1 + l_tax)) as sum_charge, \
         avg(l_quantity) as avg_qty, avg(l_extendedprice) as avg_price, \
         avg(l_discount) as avg_disc, count(*) as count_order from lineitem \
         where l_shipdate <= date '1998-12-01' - interval '90' day \
         group by l_returnflag, l_linestatus",
    ),
    (
        "probe",
        "select count(*) from small where a between 0 and 655359",
    ),
];

/// The benchmark's database (`benchmark/src/setup.rs` at `--seed 1`):
/// 8 M fixes and TPC-H SF 0.5, decomposed as the set-up decomposes them.
fn benchmark_database() -> Database {
    let mut seeds = SplitMix64::new(1);
    let (spatial_seed, small_seed) = (seeds.next_u64(), seeds.next_u64());
    let trips = gen_trips(&SpatialConfig {
        seed: spatial_seed,
        ..SpatialConfig::fixes(8_000_000)
    });
    let tpch = TpchConfig {
        scale: 0.5,
        seed: 0x7C_41,
    };
    let mut noise = SplitMix64::new(small_seed);
    let small = waste_not::data::micro::unique_shuffled(16_000, small_seed)
        .into_iter()
        .map(|v| (v * 4096 + noise.below(4096) as i64) as i32)
        .collect();
    let mut db = Database::new();
    db.create_table("trips", trips.into_columns()).unwrap();
    db.create_table("lineitem", gen_lineitem(&tpch).into_columns())
        .unwrap();
    db.create_table("part", gen_part(&tpch).into_columns())
        .unwrap();
    db.create_table("small", vec![("a".into(), Column::from_i32(small))])
        .unwrap();
    db.declare_fk("lineitem", "l_partkey", "part", "p_partkey")
        .unwrap();
    db.bwdecompose("trips", "lon", 24).unwrap();
    db.bwdecompose("trips", "lat", 24).unwrap();
    for (_, sql) in &STATEMENTS[1..4] {
        let plan = bind_sql(&db, sql);
        db.auto_bind(&plan).unwrap();
    }
    db.bwdecompose("lineitem", "l_shipdate", 24).unwrap();
    db.bwdecompose("small", "a", 24).unwrap();
    db
}

/// What one query of each benchmark statement raises the counted heap by
/// over what it held at rest, in both pipes, at the benchmark's scale —
/// each statement run once before, so that statistics built on first use
/// are rest. Run with
/// `cargo test --release --test load_memory -- --ignored --nocapture`.
#[test]
#[ignore = "benchmark scale: 8 M fixes and TPC-H SF 0.5, about 150 MiB"]
fn query_heap_rise_at_benchmark_scale() {
    let _turn = alone();
    let db = benchmark_database();
    for (name, sql) in STATEMENTS {
        let plan = bind_sql(&db, sql);
        for (pipe, mode) in [
            ("A&R", ExecMode::ApproxRefine),
            ("Classic", ExecMode::Classic),
        ] {
            db.run_bound(&plan, mode.clone()).unwrap();
            let (_, rise) = heap_rise(|| db.run_bound(&plan, mode).unwrap());
            eprintln!("{pipe} {name}: heap +{:.2} MiB", rise as f64 / MIB);
        }
    }
}
