//! Wall-clock benchmark of the selection kernel.
//!
//! Sweeps element width × selectivity over one full-relation approximate
//! selection and measures the two production outputs of the one kernel
//! ([`bwd_kernels::ScanSpec`]; identical simulated costs by construction)
//! against a naive oracle defined here:
//!
//! * **oracle** — one `get()` and one compare per row, pushing (oid,
//!   approximation) pairs;
//! * **index** — [`bwd_kernels::ScanSpec::emit`]: packed-domain lane
//!   compare with decode only for 64-blocks that hold survivors at
//!   widths ≤ 21, decode-and-compare above;
//! * **bitmap** — [`bwd_kernels::ScanSpec::fill_mask`]: the match mask
//!   alone (the representation the A&R executor keeps until the gather
//!   boundary).
//!
//! Every cell is checked **bit-identical** — index pairs against the
//! oracle's, and the bitmap converted back to the index list through the
//! scan's block-emission order against `select_range` — before its
//! timing is reported. `BENCH_scan.json` (written by `figures --
//! bench-scan`) is the committed baseline; the CI smoke runs a reduced
//! sweep and fails on any identity violation or on a collapse of the
//! production-over-oracle ratio against the committed baseline at the
//! same scale.

use crate::report::Figure;
use bwd_device::{CostLedger, Env};
use bwd_kernels::scan::select_range;
use bwd_kernels::{DeviceArray, ScanOptions, ScanRows, ScanSpec, SelMask};
use bwd_obs::Clock;
use bwd_storage::{mask_count, BitPackedVec};
use bwd_types::{Oid, Result, SplitMix64};
use std::fmt::Write as _;
use std::path::Path;

/// Element widths swept: the narrow TPC-H range where SWAR lanes are
/// deep (4–16), the last SWAR width (21) and one decode-and-compare
/// width (24).
pub const WIDTHS: [u32; 6] = [4, 8, 12, 16, 21, 24];

/// Selectivity points swept (fraction of rows the relaxed bounds keep).
pub const SELECTIVITIES: [f64; 5] = [0.001, 0.01, 0.1, 0.5, 0.9];

/// One (width, selectivity) cell's measurements.
#[derive(Debug, Clone)]
pub struct ScanSample {
    /// Element width in bits.
    pub width: u32,
    /// Requested selectivity point.
    pub selectivity: f64,
    /// Matches the bounds actually kept (narrow widths quantize).
    pub matches: usize,
    /// Best wall seconds: the naive `get()` oracle.
    pub oracle_s: f64,
    /// Best wall seconds: the kernel's index output.
    pub index_s: f64,
    /// Best wall seconds: the kernel's bitmap output.
    pub bitmap_s: f64,
    /// `oracle_s / index_s`.
    pub index_vs_oracle: f64,
    /// `oracle_s / bitmap_s`.
    pub bitmap_vs_oracle: f64,
}

/// The full sweep plus the identity verdict.
#[derive(Debug, Clone)]
pub struct ScanReport {
    /// Rows per scanned relation.
    pub rows: usize,
    /// Timed repetitions per cell (best-of is reported).
    pub reps: usize,
    /// Hardware threads of the measuring host (the sweep itself is
    /// single-threaded; recorded so baselines from different hosts are
    /// not compared blindly).
    pub host_parallelism: usize,
    /// Whether every cell's outputs produced identical candidates (oids,
    /// order, approximations).
    pub bit_identical: bool,
    /// One sample per (width, selectivity) cell.
    pub samples: Vec<ScanSample>,
}

impl ScanReport {
    /// Best production-over-oracle ratio (either output) among cells with
    /// `width <= max_width` — a same-host ratio, which is what the
    /// baseline guard compares.
    pub fn best_speedup_at_most(&self, max_width: u32) -> f64 {
        self.samples
            .iter()
            .filter(|s| s.width <= max_width)
            .map(|s| s.index_vs_oracle.max(s.bitmap_vs_oracle))
            .fold(0.0, f64::max)
    }
}

fn build_column(env: &Env, width: u32, n: usize) -> DeviceArray {
    let mut rng = SplitMix64::new(0xBEEF ^ u64::from(width));
    let mask = bwd_types::bits::low_mask(width);
    let mut v = BitPackedVec::with_capacity(width, n);
    for _ in 0..n {
        v.push(rng.next_u64() & mask);
    }
    let mut ledger = CostLedger::new();
    DeviceArray::upload(&env.device, v, "bench-scan", &mut ledger)
        .expect("2 GB card fits the bench column")
}

/// Inclusive stored-domain bounds hitting ~`sel` of a uniform
/// `width`-bit column (`lo` offset from 0 so the all-match fast path
/// never fires for sel = 0.9).
fn bounds_for(width: u32, sel: f64) -> (u64, u64) {
    let domain = (width as f64).exp2();
    let span = ((domain * sel).round() as u64).max(1);
    let lo = ((domain as u64).saturating_sub(span)) / 2;
    (lo, lo + span - 1)
}

fn best_of<F: FnMut() -> usize>(reps: usize, mut f: F) -> (f64, usize) {
    let clock = Clock::monotonic();
    let mut best = f64::INFINITY;
    let mut out = 0;
    for _ in 0..reps.max(1) {
        let (o, dt) = clock.time(&mut f);
        out = o;
        best = best.min(dt);
    }
    (best, out)
}

/// The oracle arm: every row through `get()`, one compare each.
fn oracle_scan(arr: &DeviceArray, lo: u64, hi: u64, oids: &mut Vec<Oid>, vals: &mut Vec<u64>) {
    for row in 0..arr.len() {
        let v = arr.get(row);
        if v >= lo && v <= hi {
            oids.push(row as Oid);
            vals.push(v);
        }
    }
}

/// Run the sweep: `n` rows per column, `reps` timed repetitions per
/// cell after one warm-up, identity checked on every cell.
pub fn measure(n: usize, reps: usize) -> Result<ScanReport> {
    let env = Env::paper_default();
    let opts = ScanOptions::default();
    let mut samples = Vec::new();
    let mut bit_identical = true;
    for &width in &WIDTHS {
        let arr = build_column(&env, width, n);
        for &sel in &SELECTIVITIES {
            let (lo, hi) = bounds_for(width, sel);
            let spec = ScanSpec::new(&arr, None, lo, hi, None);
            let mut oids = Vec::new();
            let mut vals = Vec::new();
            // Warm-up + reference output.
            oracle_scan(&arr, lo, hi, &mut oids, &mut vals);
            let matches = oids.len();

            let (oracle_s, _) = best_of(reps, || {
                let mut o = Vec::with_capacity(matches);
                let mut v = Vec::with_capacity(matches);
                oracle_scan(&arr, lo, hi, &mut o, &mut v);
                o.len()
            });
            let mut idx_oids = Vec::new();
            let mut idx_vals = Vec::new();
            let (index_s, _) = best_of(reps, || {
                idx_oids.clear();
                idx_vals.clear();
                idx_oids.reserve(matches);
                idx_vals.reserve(matches);
                spec.emit(ScanRows::Span(0..n), &mut idx_oids, &mut idx_vals);
                idx_oids.len()
            });
            let mut words = vec![0u64; n.div_ceil(64)];
            let (bitmap_s, mask_matches) = best_of(reps, || {
                spec.fill_mask(None, 0, &mut words);
                mask_count(&words)
            });

            // Identity: index pairs == oracle pairs, and the bitmap
            // converted through the block-emission order == the full
            // kernel's candidate list.
            bit_identical &= idx_oids == oids && idx_vals == vals;
            bit_identical &= mask_matches == matches;
            let mask = SelMask::from_words(words, n, &opts);
            let mut l = CostLedger::new();
            bit_identical &=
                mask.to_candidates(&arr) == select_range(&env, &arr, lo, hi, &opts, &mut l);

            samples.push(ScanSample {
                width,
                selectivity: sel,
                matches,
                oracle_s,
                index_s,
                bitmap_s,
                index_vs_oracle: oracle_s / index_s,
                bitmap_vs_oracle: oracle_s / bitmap_s,
            });
        }
    }
    Ok(ScanReport {
        rows: n,
        reps: reps.max(1),
        host_parallelism: std::thread::available_parallelism().map_or(1, |p| p.get()),
        bit_identical,
        samples,
    })
}

/// Render the sweep as a console figure (throughputs in Melem/s).
pub fn figure(report: &ScanReport) -> Figure {
    let mut fig = Figure::new(
        "bench-scan",
        format!(
            "Selection kernel wall clock ({} rows, best of {}, host parallelism {})",
            report.rows, report.reps, report.host_parallelism
        ),
        "width x selectivity",
        vec![
            "oracle Melem/s",
            "index Melem/s",
            "bitmap Melem/s",
            "index/oracle",
            "bitmap/oracle",
        ],
    );
    // Throughputs and ratios, not seconds.
    fig.raw_units = true;
    let round2 = |v: f64| (v * 100.0).round() / 100.0;
    let melems = |s: f64| round2(report.rows as f64 / s / 1e6);
    for s in &report.samples {
        fig.push(
            format!("w{:02} {:>5.1}%", s.width, s.selectivity * 100.0),
            vec![
                melems(s.oracle_s),
                melems(s.index_s),
                melems(s.bitmap_s),
                round2(s.index_vs_oracle),
                round2(s.bitmap_vs_oracle),
            ],
        );
    }
    fig.note(format!(
        "bit-identical across oracle/index/bitmap: {}",
        report.bit_identical
    ));
    fig.note(format!(
        "best production speedup over the get() oracle at widths <= 16: {:.2}x",
        report.best_speedup_at_most(16)
    ));
    fig
}

/// Fail unless every cell was bit-identical (the CI smoke gate).
pub fn check(report: &ScanReport) -> Result<()> {
    if !report.bit_identical {
        return Err(bwd_types::BwdError::Exec(
            "bench-scan: index/bitmap outputs were NOT bit-identical to the get() oracle".into(),
        ));
    }
    Ok(())
}

/// Serialize the baseline as JSON (hand-rolled; no serde in this
/// environment).
pub fn to_json(report: &ScanReport) -> String {
    let mut s = String::new();
    let _ = writeln!(s, "{{");
    let _ = writeln!(s, "  \"bench\": \"packed_domain_scan\",");
    let _ = writeln!(s, "  \"rows\": {},", report.rows);
    let _ = writeln!(s, "  \"reps\": {},", report.reps);
    let _ = writeln!(s, "  \"host_parallelism\": {},", report.host_parallelism);
    let _ = writeln!(s, "  \"bit_identical\": {},", report.bit_identical);
    let _ = writeln!(
        s,
        "  \"best_speedup_over_oracle_w16\": {:.4},",
        report.best_speedup_at_most(16)
    );
    let _ = writeln!(s, "  \"samples\": [");
    for (i, m) in report.samples.iter().enumerate() {
        let _ = writeln!(
            s,
            "    {{\"width\": {}, \"selectivity\": {}, \"matches\": {}, \"oracle_s\": {:.9}, \"index_s\": {:.9}, \"bitmap_s\": {:.9}, \"index_vs_oracle\": {:.4}, \"bitmap_vs_oracle\": {:.4}}}{}",
            m.width,
            m.selectivity,
            m.matches,
            m.oracle_s,
            m.index_s,
            m.bitmap_s,
            m.index_vs_oracle,
            m.bitmap_vs_oracle,
            if i + 1 < report.samples.len() { "," } else { "" }
        );
    }
    let _ = writeln!(s, "  ]");
    let _ = writeln!(s, "}}");
    s
}

/// Write `BENCH_scan.json` at `path`.
pub fn write_json(report: &ScanReport, path: &Path) -> std::io::Result<()> {
    std::fs::write(path, to_json(report))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_sweep_is_bit_identical_and_serializes() {
        let report = measure(30_000, 1).unwrap();
        assert!(report.bit_identical);
        assert!(check(&report).is_ok());
        assert_eq!(report.samples.len(), WIDTHS.len() * SELECTIVITIES.len());
        let json = to_json(&report);
        assert!(json.contains("\"bench\": \"packed_domain_scan\""));
        assert!(json.contains("\"bit_identical\": true"));
        assert!(json.contains("\"host_parallelism\""));
        assert!(json.contains("\"best_speedup_over_oracle_w16\""));
        assert!(bwd_obs::json::parse(&json).is_ok());
        let fig = figure(&report);
        assert_eq!(fig.rows.len(), report.samples.len());
        // Ratios exist for every cell and are finite.
        for s in &report.samples {
            assert!(s.index_vs_oracle.is_finite() && s.index_vs_oracle > 0.0);
            assert!(s.bitmap_vs_oracle.is_finite() && s.bitmap_vs_oracle > 0.0);
        }
    }

    #[test]
    fn bounds_hit_requested_selectivity_roughly() {
        for &w in &[8u32, 16] {
            for &sel in &[0.01, 0.5, 0.9] {
                let (lo, hi) = bounds_for(w, sel);
                let got = (hi - lo + 1) as f64 / (w as f64).exp2();
                assert!((got - sel).abs() < 0.01 + 1.0 / (w as f64).exp2());
            }
        }
    }
}
