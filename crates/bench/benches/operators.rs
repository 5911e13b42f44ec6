//! Criterion microbenchmarks: wall-clock performance of the real
//! implementations (the `figures` binary reports *simulated* platform
//! time; these measure what the Rust code itself costs), plus the
//! ablations of ARCHITECTURE.md ("Decided and undecided candidates" keeps
//! `core::ops::select`, the operator pair measured here, paper-exact).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;

use bwd_core::ops::select::select_ar;
use bwd_core::translucent::{hash_join_baseline, translucent_join};
use bwd_core::{BoundColumn, RangePred};
use bwd_data::micro;
use bwd_device::{CostLedger, Env};
use bwd_kernels::group::hash_group;
use bwd_kernels::ScanOptions;
use bwd_storage::{BitPackedVec, DecomposedColumn, DecompositionSpec, PrefixGranularity};
use bwd_types::{DataType, Oid};

const N: usize = 1 << 20;

fn bind(env: &Env, payloads: &[i64], spec: &DecompositionSpec) -> BoundColumn {
    let dec = DecomposedColumn::decompose(payloads, DataType::Int32, spec).unwrap();
    let mut load = CostLedger::new();
    BoundColumn::bind(dec, &env.device, "bench", &mut load).unwrap()
}

/// Bit-packed access vs plain vector access.
fn bench_bitpack(c: &mut Criterion) {
    let vals: Vec<u64> = (0..N as u64).map(|i| i % (1 << 13)).collect();
    let packed = BitPackedVec::from_slice(13, &vals);
    let mut g = c.benchmark_group("bitpack");
    g.bench_function("iterate_13bit", |b| {
        b.iter(|| {
            let mut acc = 0u64;
            for v in packed.iter() {
                acc = acc.wrapping_add(v);
            }
            black_box(acc)
        })
    });
    g.bench_function("random_get_13bit", |b| {
        let mut i = 0usize;
        b.iter(|| {
            i = (i.wrapping_mul(6364136223846793005).wrapping_add(1)) % N;
            black_box(packed.get(i))
        })
    });
    g.finish();
}

/// A&R selection end to end (approximate scan + refinement) at two
/// decompositions and two selectivities.
fn bench_select_ar(c: &mut Criterion) {
    let env = Env::paper_default();
    let payloads = micro::unique_shuffled(N, 42);
    let mut g = c.benchmark_group("select_ar");
    g.sample_size(20);
    for (label, bits) in [("resident", 32u32), ("distributed24", 24)] {
        let col = bind(&env, &payloads, &DecompositionSpec::with_device_bits(bits));
        for sel in [0.01f64, 0.5] {
            let bound = micro::selectivity_bound(N, sel);
            let range = RangePred::at_most(bound - 1);
            g.bench_with_input(
                BenchmarkId::new(label, format!("{}%", sel * 100.0)),
                &range,
                |b, range| {
                    b.iter(|| {
                        let mut ledger = CostLedger::new();
                        let r = select_ar(&env, &col, range, &ScanOptions::default(), &mut ledger)
                            .unwrap();
                        black_box(r.len())
                    })
                },
            );
        }
    }
    g.finish();
}

/// Ablation: translucent join (Algorithm 1) vs a hash join over the same
/// refinement-shaped inputs.
fn bench_translucent_vs_hash(c: &mut Criterion) {
    // Scrambled superset of 1M ids, subset of ~250k in the same order.
    let ids: Vec<Oid> = {
        let v = micro::unique_shuffled(N, 7);
        v.iter().map(|&x| x as Oid).collect()
    };
    let vals: Vec<u64> = ids.iter().map(|&i| i as u64 * 3).collect();
    let subset: Vec<Oid> = ids.iter().copied().step_by(4).collect();
    let mut g = c.benchmark_group("refinement_join");
    g.sample_size(20);
    g.bench_function("translucent", |b| {
        b.iter(|| black_box(translucent_join(&ids, &vals, None, &subset).unwrap()))
    });
    g.bench_function("hash_baseline", |b| {
        b.iter(|| black_box(hash_join_baseline(&ids, &vals, &subset).unwrap()))
    });
    // Invisible fast path on dense ids.
    let dense_ids: Vec<Oid> = (0..N as Oid).collect();
    let dense_vals: Vec<u64> = (0..N as u64).collect();
    g.bench_function("invisible_fastpath", |b| {
        b.iter(|| black_box(translucent_join(&dense_ids, &dense_vals, Some(0), &subset).unwrap()))
    });
    g.finish();
}

/// Ablation: prefix compression on/off — decomposition time and footprint.
fn bench_prefix_compression(c: &mut Criterion) {
    let payloads = micro::unique_shuffled(N, 11);
    let mut g = c.benchmark_group("decompose");
    g.sample_size(10);
    for (label, spec) in [
        ("compressed", DecompositionSpec::with_device_bits(24)),
        (
            "byte_granularity",
            DecompositionSpec {
                device_bits: 24,
                frame_of_reference: true,
                granularity: PrefixGranularity::Byte,
            },
        ),
        ("uncompressed", DecompositionSpec::uncompressed(24)),
    ] {
        g.bench_function(label, |b| {
            b.iter(|| {
                let d = DecomposedColumn::decompose(&payloads, DataType::Int32, &spec).unwrap();
                black_box(d.device_bytes())
            })
        });
    }
    g.finish();
}

/// Grouping kernel across group counts (the Fig 8f contention sweep, but
/// wall-clock).
fn bench_grouping(c: &mut Criterion) {
    let env = Env::paper_default();
    let mut g = c.benchmark_group("group_approx");
    g.sample_size(20);
    for groups in [10u64, 1000] {
        let payloads = micro::grouping_keys(N, groups, 3);
        let col = bind(&env, &payloads, &DecompositionSpec::all_device());
        g.bench_with_input(BenchmarkId::from_parameter(groups), &groups, |b, _| {
            b.iter(|| {
                let mut ledger = CostLedger::new();
                black_box(hash_group(&env, col.approx(), None, &mut ledger).n_groups())
            })
        });
    }
    g.finish();
}

criterion_group!(
    benches,
    bench_bitpack,
    bench_select_ar,
    bench_translucent_vs_hash,
    bench_prefix_compression,
    bench_grouping
);
criterion_main!(benches);
