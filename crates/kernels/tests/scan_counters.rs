//! The process-wide scan counters count a full direct scan the same way
//! whichever output it produces. This file holds exactly one test so
//! nothing else in the process bumps the global registry meanwhile.

use bwd_device::{CostLedger, Env};
use bwd_kernels::{DeviceArray, ScanRows, ScanSpec};
use bwd_obs::metrics::Registry;
use bwd_storage::BitPackedVec;

fn counters() -> [u64; 3] {
    let r = Registry::global();
    [
        r.counter("bwd_scan_swar_blocks_total").get(),
        r.counter("bwd_scan_swar_zero_blocks_total").get(),
        r.counter("bwd_scan_scalar_blocks_total").get(),
    ]
}

fn delta(f: impl FnOnce()) -> [u64; 3] {
    let before = counters();
    f();
    let after = counters();
    [0, 1, 2].map(|i| after[i] - before[i])
}

#[test]
fn bitmap_scan_moves_the_counters_like_the_index_scan() {
    const BLOCKS: usize = 40;
    let env = Env::paper_default();
    // One SWAR width, one wide width; matches only in the first half, so
    // the second half's blocks are zero blocks.
    for (width, swar) in [(10u32, true), (24, false)] {
        let vals: Vec<u64> = (0..BLOCKS * 64)
            .map(|i| if i < BLOCKS * 32 { 5 } else { 900 })
            .collect();
        let mut ledger = CostLedger::new();
        let packed = BitPackedVec::from_slice(width, &vals);
        let arr = DeviceArray::upload(&env.device, packed, "t", &mut ledger).unwrap();
        let spec = ScanSpec::new(&arr, None, 1, 10, None);

        let (mut oids, mut approx) = (Vec::new(), Vec::new());
        let index = delta(|| spec.emit(ScanRows::Span(0..arr.len()), &mut oids, &mut approx));
        let mut words = vec![0u64; BLOCKS];
        let bitmap = delta(|| spec.fill_mask(None, 0, &mut words));

        let n = BLOCKS as u64;
        let expect = if swar { [n, n / 2, 0] } else { [0, 0, n] };
        assert_eq!(index, expect, "index output, width {width}");
        assert_eq!(bitmap, expect, "bitmap output, width {width}");
        assert_eq!(oids.len(), BLOCKS * 32);
    }
}
