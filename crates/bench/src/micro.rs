//! Microbenchmark figure runners (Fig 8a–8f, §VI-B).
//!
//! These exercise single A&R operator pairs against the classic CPU
//! operator and the hypothetical streaming baseline, exactly as the paper
//! does: N unique, randomly shuffled integers, selectivity / bit-count /
//! group-count sweeps. Reported times are simulated seconds from the
//! calibrated platform model; the computations really run, and every
//! A&R result is checked against the scalar reference before timing is
//! reported.

use crate::report::Figure;
use bwd_core::ops::project::{project_approx, project_refine};
use bwd_core::ops::select::{select_approx, select_refine};
use bwd_core::{BoundColumn, RangePred};
use bwd_data::micro;
use bwd_device::{CostLedger, Env};
use bwd_kernels::group::hash_group;
use bwd_kernels::ScanOptions;
use bwd_storage::{DecomposedColumn, DecompositionSpec};
use bwd_types::{DataType, Oid};

/// Selectivities swept on the x-axis of Fig 8a/8b/8d/8e (fractions).
pub const SELECTIVITY_SWEEP: [f64; 8] = [0.01, 0.02, 0.05, 0.10, 0.20, 0.50, 0.75, 1.00];

fn bind_ints(env: &Env, payloads: &[i64], device_bits: u32) -> BoundColumn {
    let dec = DecomposedColumn::decompose(
        payloads,
        DataType::Int32,
        &DecompositionSpec::with_device_bits(device_bits),
    )
    .expect("decompose");
    let mut load = CostLedger::new();
    BoundColumn::bind(dec, &env.device, "micro", &mut load).expect("bind")
}

/// Simulated cost of the classic MonetDB selection: one full scan plus the
/// materialized oid output.
fn classic_select_seconds(env: &Env, n: usize, matches: usize) -> f64 {
    let mut ledger = CostLedger::new();
    env.charge_host_scan(
        "classic.select",
        n as u64 * 4 + matches as u64 * 4,
        n as u64,
        &mut ledger,
    );
    ledger.breakdown().total()
}

/// Simulated cost of the classic projection: scattered fetch per oid plus
/// the materialized value output.
fn classic_project_seconds(env: &Env, k: usize) -> f64 {
    let mut ledger = CostLedger::new();
    env.charge_host_scattered("classic.project", k as u64 * 8, k as u64, &mut ledger);
    ledger.breakdown().total()
}

/// Fig 8a / 8b: selection over N shuffled unique ints, selectivity sweep.
/// `device_bits = 32` reproduces 8a (GPU-resident), `24` reproduces 8b
/// (distributed, 8 bits on the CPU).
pub fn fig8_selection(env: &Env, n: usize, device_bits: u32, id: &str) -> Figure {
    let payloads = micro::unique_shuffled(n, 0x000F_168A);
    let col = bind_ints(env, &payloads, device_bits);
    let stream = env.pcie.stream_hypothetical(n as u64 * 4);

    let mut fig = Figure::new(
        id,
        format!(
            "Selection on {} data (N={n})",
            if device_bits >= 32 {
                "GPU-resident"
            } else {
                "distributed (8 bit CPU)"
            }
        ),
        "qualifying %",
        vec!["MonetDB", "Approx+Refine", "Approximate", "Stream(Hyp)"],
    );

    for sel in SELECTIVITY_SWEEP {
        let bound = micro::selectivity_bound(n, sel);
        let range = RangePred::at_most(bound - 1);
        let mut approx_ledger = CostLedger::new();
        let cands = select_approx(
            &env.clone(),
            &col,
            &range,
            &ScanOptions::default(),
            &mut approx_ledger,
        );
        let approx_t = approx_ledger.breakdown().total();

        let mut ledger = approx_ledger.clone();
        let refined =
            select_refine(env, &col, &cands, None, &range, true, &mut ledger).expect("refine");
        assert_eq!(refined.len() as i64, bound, "A&R selection must be exact");
        let ar_t = ledger.breakdown().total();

        let classic_t = classic_select_seconds(env, n, refined.len());
        fig.push(
            format!("{:.0}%", sel * 100.0),
            vec![classic_t, ar_t, approx_t, stream],
        );
    }
    fig.note(format!(
        "residual bits: {}; stored approximation width: {} bits",
        col.meta().resbits(),
        col.meta().stored_width()
    ));
    fig
}

/// Fig 8c: selection time vs number of GPU-resident bits, at three
/// selectivities (5%, .05%, .01%).
pub fn fig8c_bits_sweep(env: &Env, n: usize) -> Figure {
    let payloads = micro::unique_shuffled(n, 0x000F_168C);
    let sels = [0.05, 0.0005, 0.0001];
    let stream = env.pcie.stream_hypothetical(n as u64 * 4);

    let mut fig = Figure::new(
        "fig8c",
        format!("Selection, varying number of GPU-resident bits (N={n})"),
        "GPU bits",
        vec![
            "A+R (5%)",
            "A+R (.05%)",
            "A+R (.01%)",
            "Approx (5%)",
            "Approx (.05%)",
            "Approx (.01%)",
            "Stream(Hyp)",
        ],
    );

    for bits in (10..=30).step_by(2) {
        let col = bind_ints(env, &payloads, bits);
        let mut ar = [0.0f64; 3];
        let mut ap = [0.0f64; 3];
        for (i, sel) in sels.iter().enumerate() {
            let bound = micro::selectivity_bound(n, *sel);
            let range = RangePred::at_most(bound - 1);
            let mut ledger = CostLedger::new();
            let cands = select_approx(env, &col, &range, &ScanOptions::default(), &mut ledger);
            ap[i] = ledger.breakdown().total();
            let refined =
                select_refine(env, &col, &cands, None, &range, true, &mut ledger).expect("refine");
            assert_eq!(refined.len() as i64, bound);
            ar[i] = ledger.breakdown().total();
        }
        fig.push(
            bits.to_string(),
            vec![ar[0], ar[1], ar[2], ap[0], ap[1], ap[2], stream],
        );
    }
    fig
}

/// Fig 8d / 8e: projection (positional join) of a value column against the
/// survivors of a selection, selectivity sweep. `device_bits = 32` for 8d,
/// `24` for 8e.
pub fn fig8_projection(env: &Env, n: usize, device_bits: u32, id: &str) -> Figure {
    let sel_payloads = micro::unique_shuffled(n, 0x000F_168D);
    let val_payloads = micro::unique_shuffled(n, 0x000F_168E);
    let sel_col = bind_ints(env, &sel_payloads, 32);
    let val_col = bind_ints(env, &val_payloads, device_bits);
    let stream = env.pcie.stream_hypothetical(n as u64 * 4);

    let mut fig = Figure::new(
        id,
        format!(
            "Projection/Join on {} data (N={n})",
            if device_bits >= 32 {
                "GPU-resident"
            } else {
                "distributed (8 bit CPU)"
            }
        ),
        "qualifying %",
        vec!["MonetDB", "Approx+Refine", "Approximate", "Stream(Hyp)"],
    );

    for sel in SELECTIVITY_SWEEP {
        let bound = micro::selectivity_bound(n, sel);
        let range = RangePred::at_most(bound - 1);
        // The input candidate list comes from a (fully resident, exact)
        // selection — not part of the projection measurement.
        let mut setup = CostLedger::new();
        let cands = select_approx(env, &sel_col, &range, &ScanOptions::default(), &mut setup);
        let survivors: Vec<Oid> = cands.oids.clone();

        let mut ledger = CostLedger::new();
        let approx = project_approx(env, &val_col, &cands, &mut ledger);
        let approx_t = ledger.breakdown().total();
        let payloads = project_refine(
            env,
            &val_col,
            &cands.oids,
            cands.dense.then_some(0),
            &approx,
            &survivors,
            true,
            &mut ledger,
        )
        .expect("refine");
        // Spot-check correctness.
        for (i, &oid) in survivors.iter().enumerate().take(100) {
            assert_eq!(payloads[i], val_payloads[oid as usize]);
        }
        let ar_t = ledger.breakdown().total();
        let classic_t = classic_project_seconds(env, survivors.len());
        fig.push(
            format!("{:.0}%", sel * 100.0),
            vec![classic_t, ar_t, approx_t, stream],
        );
    }
    fig
}

/// Fig 8f: grouping on GPU-resident data, group-count sweep.
pub fn fig8f_grouping(env: &Env, n: usize) -> Figure {
    let stream = env.pcie.stream_hypothetical(n as u64 * 4);
    let mut fig = Figure::new(
        "fig8f",
        format!("Grouping on GPU-resident data (N={n})"),
        "groups",
        vec!["MonetDB", "Approx+Refine", "Approximate", "Stream(Hyp)"],
    );

    for groups in [10u64, 32, 100, 316, 1000] {
        let payloads = micro::grouping_keys(n, groups, 0x000F_168F);
        let col = bind_ints(env, &payloads, 32);

        let mut ledger = CostLedger::new();
        let g = hash_group(env, col.approx(), None, &mut ledger);
        assert_eq!(g.n_groups() as u64, groups);
        let approx_t = ledger.breakdown().total();
        // Refinement: the group-id vector crosses PCI-E (MonetDB's
        // grouping representation is host-side positional ids, §IV-E).
        env.charge_download("group.download", n as u64 * 4, &mut ledger);
        let ar_t = ledger.breakdown().total();

        // Classic: hash per tuple plus materialized group ids.
        let mut classic = CostLedger::new();
        // Hash grouping costs several dependent operations per tuple
        // (hash, probe, insert, group-id write) — ~10 ns/tuple on the
        // paper's hardware.
        env.charge_host_scan("classic.group", n as u64 * 8, 5 * n as u64, &mut classic);
        fig.push(
            groups.to_string(),
            vec![classic.breakdown().total(), ar_t, approx_t, stream],
        );
    }
    fig.note("A&R grouping improves with group count: fewer atomic write conflicts (§IV-E)");
    fig
}
