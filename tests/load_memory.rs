//! The guard behind the one-pass load path: ingesting, indexing and
//! decomposing a column may not hold a row-count-sized transient, and what
//! a set-up leaves goes when it is torn down.
//!
//! The tests of this binary take turns (the high-water marks are per
//! process). A packed run of a granule or more sits in pages of its own,
//! which the counting heap does not see: those are counted by
//! `storage::pages::mapped_bytes` and bounded by `VmHWM`, exact for them.
//! First, on the counting heap's own high-water mark: `gen_lineitem` may
//! peak at the columns it keeps on the heap (each column packed as it is
//! drawn, no typed vector beside it) and `declare_fk` over a dense
//! dimension at 4 B a key of the span (no hash table; its packed link is
//! mapped), each plus 64 KiB. Then, over 4 M rows, every load step —
//! `Column::from_strings`, `Column::from_payloads`, `Column::from_i32`,
//! `create_table`, `declare_fk`, `bwdecompose` 24/8 and all-device — may
//! raise `VmHWM` over the resident set just before it by the bytes the
//! step leaves resident (packed runs in the bits their domains need, the
//! FK mapping once — packed at the dimension's row width, the one copy the
//! device gathers through and the host decodes —, and of a re-split
//! column what the new split adds over the runs it replaces, which hand
//! their pages back as they are read) plus 8 MiB for hash tables,
//! dictionaries and allocator slack. A `bwdecompose` moves the mapped
//! bytes by its split less the runs it replaced, and binding the split a
//! column already holds maps no page: the binding is the catalog's words.
//! Linux-only, and skipped where `/proc/self/clear_refs` cannot reset the
//! high-water mark.

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
use waste_not::storage::pages::mapped_bytes;
use waste_not::storage::{Column, DecompositionSpec};
use waste_not::types::DataType;
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

/// Bytes `c`'s runs hold on the heap: those short of a granule.
fn on_heap(c: &Column) -> u64 {
    let split = c.split().unwrap();
    let words = |bytes: u64| bytes.div_ceil(8) * 8;
    [split.device_bytes(), split.host_bytes()]
        .map(words)
        .into_iter()
        .filter(|&b| b < 1 << 20)
        .sum()
}

/// Bytes `c`'s runs hold in pages of their own.
fn mapped(c: &Column) -> i64 {
    let split = c.split().unwrap();
    let words = |bytes: u64| bytes.div_ceil(8) * 8;
    let runs = [split.device_bytes(), split.host_bytes()].map(words);
    runs.into_iter().filter(|&b| b >= 1 << 20).sum::<u64>() as i64
}

#[test]
fn loading_holds_no_row_count_sized_transient() {
    let _turn = alone();
    // Set-up peaks, counted on the heap. A generator packs each column as
    // it draws it, so the heap holds the short runs it returns and no
    // typed vector of a column: at SF 0.2, no `i32` key vector.
    let (li, rise) = heap_rise(|| gen_lineitem(&TpchConfig::scale(0.2)));
    let li = li.into_columns();
    let heap: u64 = li.iter().map(|(_, c)| on_heap(c)).sum();
    eprintln!("gen_lineitem: heap peak +{rise} B for {heap} B of short runs");
    assert!(
        rise as u64 <= heap + (64 << 10),
        "gen_lineitem: the heap peaked {rise} B over its start for {heap} B of short runs"
    );
    drop(li);
    // A dimension whose key span is dense is addressed, not hashed: the
    // build holds 4 B a key of the span on the heap, no hash table, and
    // maps its packed link.
    let (dim_rows, fact_rows) = (20_000, 1 << 21);
    let dim: Vec<i32> = (0..dim_rows).map(|r| 1 + (r * 7919) % dim_rows).collect();
    let fact: Vec<i32> = (0..fact_rows).map(|r| 1 + (r * 31) % dim_rows).collect();
    let mut db = Database::new();
    db.create_table("dim", vec![("key".into(), Column::from_i32(dim))])
        .unwrap();
    db.create_table("fact", vec![("key".into(), Column::from_i32(fact))])
        .unwrap();
    let before = mapped_bytes();
    let (_, rise) = heap_rise(|| db.declare_fk("fact", "key", "dim", "key").unwrap());
    let (link, slots) = (fact_rows as usize * 15 / 8, 4 * dim_rows as u64);
    eprintln!("declare_fk (dense): heap peak +{rise} B for {slots} B of slots");
    assert!(
        rise as u64 <= slots + (64 << 10),
        "declare_fk (dense): the heap peaked {rise} B over its start for {slots} B of slots — \
         is the dimension hashed?"
    );
    assert_eq!(
        mapped_bytes() - before,
        link,
        "declare_fk (dense): the link's pages"
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
    // after its last row — until the ranks are packed into the 2 bits
    // they need.
    let step = "from_strings (4 B/row of ids while it runs, 2 bits/row after)";
    assert_no_transient(step, rise, ROWS as u64 * 4 + flag.physical_bytes());
    assert_eq!(flag.physical_bytes(), ROWS as u64 / 4);
    drop(flags);

    // A decimal(12,2) of eleven values, handed over in the 8 bytes a row
    // its type is modeled at: the column is its 4 bits a row, packed from
    // the input in place.
    let wide: Vec<i64> = (0..ROWS).map(|i| (i * 7 % 11) as i64).collect();
    let (discount, rise) =
        peak_rise(|| Column::from_payloads(DataType::decimal(2), &wide).unwrap());
    assert_no_transient("from_payloads", rise, ROWS as u64 / 2);
    assert_eq!(discount.physical_bytes(), ROWS as u64 / 2);
    assert_eq!(discount.plain_bytes(), ROWS as u64 * 8);
    drop(wide);

    // Domains between the powers of two, handed over as `i32`: 15 and 23
    // bits a row. The peak holds the packed run beside the input; after,
    // the mapped pages hold that run and the heap no copy.
    let domains = [
        ("15-bit", 32_768, 1 << 15, 15),
        ("23-bit", -(1 << 22), 1 << 23, 23),
    ];
    for (domain, lo, span, bits) in domains {
        let held = LIVE.load(Relaxed);
        let input: Vec<i32> = (0..ROWS).map(|i| lo + (i * 7919 % span) as i32).collect();
        let (col, rise) = peak_rise(|| Column::from_i32(input));
        let kept = ROWS as u64 * bits / 8;
        assert_no_transient(&format!("from_i32 ({domain} domain)"), rise, kept);
        assert_eq!(col.physical_bytes(), kept, "{domain}");
        let stays = LIVE.load(Relaxed) - held;
        assert!(
            stays <= 64 << 10,
            "from_i32 ({domain} domain): {stays} B stay on the heap beside {kept} B of mapped run"
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
        stays <= 64 << 10,
        "declare_fk: {stays} B stay on the heap beside a {link} B mapped link — is a host copy back?"
    );

    fn column<'a>(db: &'a Database, name: &str) -> &'a Column {
        db.catalog().table("fact").unwrap().column(name).unwrap()
    }
    // Binding the split a column holds maps no page: the binding is the
    // catalog's run, and the catalog keeps that run.
    let sql = "select sum(narrow) from fact where narrow < 20";
    let plan = bind_sql(&db, sql);
    let (run, pages): (*const _, _) = (
        column(&db, "narrow").split().unwrap().approx(),
        mapped_bytes(),
    );
    db.auto_bind(&plan).unwrap();
    assert!(db.is_bound("fact", "narrow"));
    let kept = column(&db, "narrow").split().unwrap().approx();
    assert!(
        std::ptr::eq(kept, run),
        "auto_bind packed a copy of the column"
    );
    assert_eq!(mapped_bytes(), pages, "auto_bind mapped pages");

    let steps = [
        ("wide", 24),
        ("narrow", 64),
        ("flag", 64),
        ("wide", 64),
        ("discount", 56),
        ("discount", 64),
    ];
    for (name, device_bits) in steps {
        let (released, pages) = (column(&db, name).physical_bytes(), mapped_bytes() as i64);
        let was = mapped(column(&db, name));
        trim_heap();
        let (report, rise) = peak_rise(|| db.bwdecompose("fact", name, device_bits).unwrap());
        let step = format!("bwdecompose({name}, {device_bits})");
        // The approximation and the packed residual, the paper's host
        // partition: every bit once. 24/8 over 4 M rows of a 22-bit
        // domain: 7 000 000 + 4 000 000 B, for the 11 000 000 B released.
        // The old runs hand their pages back as they are read, so the peak
        // holds no more than what the split adds over them; a split the
        // column holds already is kept as it is.
        let split = report.device_bytes + report.host_bytes;
        assert_no_transient(&step, rise, split.saturating_sub(released));
        assert_eq!(column(&db, name).physical_bytes(), split, "{step}");
        if (name, device_bits) == ("wide", 24) {
            assert_eq!(
                (report.device_bytes, report.host_bytes),
                (7_000_000, 4_000_000)
            );
        }
        let moved = mapped_bytes() as i64 - pages;
        let want = mapped(column(&db, name)) - was;
        assert_eq!(
            moved, want,
            "{step}: the mapped pages moved {moved} B, not {want} B — is the old split kept?"
        );
    }

    // One copy of each partition, however many hands hold the column: a
    // clone shares the catalog's runs, and a decomposition of it (a
    // re-split, block by block) shares its two partitions with its clone
    // and with the binding that moves the approximation to the device.
    let wide = column(&db, "wide");
    let approx = |c: &Column| -> *const _ { c.split().unwrap().approx() };
    assert!(
        std::ptr::eq(approx(&wide.clone()), approx(wide)),
        "deep copy"
    );
    let spec = DecompositionSpec::with_device_bits(24);
    let (held, pages) = (LIVE.load(Relaxed), mapped_bytes());
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
    let grew = LIVE.load(Relaxed) - held + (mapped_bytes() - pages);
    assert!(
        grew <= once + (64 << 10),
        "{grew} B for {once} B of partitions"
    );
}

/// The live data: the counted heap and the mapped runs, in bytes.
fn live() -> usize {
    LIVE.load(Relaxed) + mapped_bytes()
}

/// The resident set follows the data across set-ups: the benchmark's
/// set-up sequence three times in one process, at 1 M fixes and TPC-H
/// SF 0.1, each torn down before the next as the harness does. `VmHWM`
/// stays within 8 MiB of the most live data (heap and mapped runs) any
/// stage holds, and `VmRSS` after each teardown comes back within 8 MiB of
/// where that set-up started: a dropped column's pages leave at once,
/// whatever the heap's state.
#[test]
fn rss_follows_the_data_across_set_ups() {
    let _turn = alone();
    if std::fs::write("/proc/self/clear_refs", "5").is_err() {
        eprintln!("skipped: /proc/self/clear_refs is not writable");
        return;
    }
    let (rss, live0) = (status_mib("VmRSS:"), live());
    let mut most = 0;
    for setup in 1..=3 {
        let start = status_mib("VmRSS:");
        let db = benchmark_database(1_000_000, 0.1, &mut |stage| {
            most = most.max(live());
            eprintln!(
                "set-up {setup} {stage}: VmRSS {:.1} VmHWM {:.1} live {:.1} MiB",
                status_mib("VmRSS:"),
                status_mib("VmHWM:"),
                live() as f64 / MIB
            );
        });
        drop(db);
        let end = status_mib("VmRSS:");
        eprintln!("set-up {setup} torn down: VmRSS {end:.1} (started at {start:.1}) MiB");
        assert!(
            end <= start + SLACK_MIB,
            "set-up {setup}: VmRSS {end:.1} MiB after teardown, {start:.1} MiB before it"
        );
    }
    let data = (most.saturating_sub(live0)) as f64 / MIB;
    let hwm = status_mib("VmHWM:") - rss;
    eprintln!("VmHWM +{hwm:.1} MiB over the start; the most live data +{data:.1} MiB");
    assert!(
        hwm <= data + SLACK_MIB,
        "VmHWM rose {hwm:.1} MiB for at most {data:.1} MiB of live data"
    );
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

/// The benchmark's database (`benchmark/src/setup.rs` at `--seed 1`) at
/// `fixes` and TPC-H scale `sf`, decomposed as the set-up decomposes it;
/// `stage` is called after each step.
fn benchmark_database(fixes: usize, sf: f64, stage: &mut dyn FnMut(&str)) -> Database {
    let mut seeds = SplitMix64::new(1);
    let (spatial_seed, small_seed) = (seeds.next_u64(), seeds.next_u64());
    let trips = gen_trips(&SpatialConfig {
        seed: spatial_seed,
        ..SpatialConfig::fixes(fixes)
    });
    let tpch = TpchConfig {
        scale: sf,
        seed: 0x7C_41,
    };
    let (lineitem, part) = (gen_lineitem(&tpch), gen_part(&tpch));
    let mut noise = SplitMix64::new(small_seed);
    let small = waste_not::data::micro::unique_shuffled(16_000, small_seed)
        .into_iter()
        .map(|v| (v * 4096 + noise.below(4096) as i64) as i32)
        .collect();
    stage("gen");
    let mut db = Database::new();
    db.create_table("trips", trips.into_columns()).unwrap();
    db.create_table("lineitem", lineitem.into_columns())
        .unwrap();
    db.create_table("part", part.into_columns()).unwrap();
    db.create_table("small", vec![("a".into(), Column::from_i32(small))])
        .unwrap();
    db.declare_fk("lineitem", "l_partkey", "part", "p_partkey")
        .unwrap();
    stage("load");
    db.bwdecompose("trips", "lon", 24).unwrap();
    stage("lon 24/8");
    db.bwdecompose("trips", "lat", 24).unwrap();
    stage("lat 24/8");
    for (_, sql) in &STATEMENTS[1..4] {
        let plan = bind_sql(&db, sql);
        db.auto_bind(&plan).unwrap();
    }
    stage("auto_bind");
    db.bwdecompose("lineitem", "l_shipdate", 24).unwrap();
    stage("l_shipdate 24/8");
    db.bwdecompose("small", "a", 24).unwrap();
    stage("small.a 24/8");
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
    let db = benchmark_database(8_000_000, 0.5, &mut |_| {});
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
