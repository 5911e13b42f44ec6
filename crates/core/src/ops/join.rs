//! The A&R join operators (§IV-D).
//!
//! Generic unindexed equi-joins on a massively parallel device hinge on
//! concurrent hash-table builds, which the paper deliberately leaves to
//! future work. Two join shapes are supported, exactly as in the paper:
//!
//! * **Foreign-key joins** via a pre-built CPU-side index ([`FkIndex`]):
//!   the fact table's key column is translated once into dimension row
//!   ids; the join then *is* a projective join — it shares the
//!   projection's code path (an extra indirection on the device, an
//!   invisible lookup on the host). These are "among the most common joins
//!   in analytical applications" (star/snowflake OLAP).
//! * **Theta joins** as massively parallel nested loops over granule
//!   *intervals*: the approximation joins every pair whose error intervals
//!   could satisfy the predicate; the refinement re-evaluates exactly.

use crate::column::BoundColumn;
use crate::translucent::translucent_join_with;
use bwd_device::{Component, CostLedger, Device, Env};
use bwd_kernels::gather::gather_indirect;
use bwd_kernels::{Candidates, DeviceArray, Theta};
use bwd_storage::{with_slice, BitPackedVec, ColumnData};
use bwd_types::bits::bits_for_width;
use bwd_types::{BwdError, FxHashMap, Oid, Result};

/// A pre-built foreign-key index: fact row → dimension row.
///
/// The paper's CPU-built hash table, materialized once as a positional
/// map bit-packed at the dimension's row width and resident on the device
/// for approximate (projective) joins. The host reads the same bits: there
/// is no second, word-wide copy of the mapping.
#[derive(Debug)]
pub struct FkIndex {
    link: DeviceArray,
}

impl FkIndex {
    /// Build from the two key columns' storage, read in place: hash the
    /// dimension keys (build side, on the CPU as §IV-D prescribes), then
    /// translate every fact key straight into the packed link. Charges the
    /// build scan + the device upload of the packed index.
    ///
    /// # Errors
    /// A duplicate dimension key, a fact key without a dimension match, a
    /// dimension past `u32::MAX` rows (an [`Oid`] cannot address it) or a
    /// link the device cannot hold.
    pub fn build(
        fact_keys: &ColumnData,
        dim_keys: &ColumnData,
        device: &Device,
        env: &Env,
        ledger: &mut CostLedger,
    ) -> Result<Self> {
        let dim_rows = dim_row_count(dim_keys.len())?;
        let table = with_slice!(dim_keys, keys => dim_rows_by_key(keys))?;
        let width = bits_for_width(u64::from(dim_rows));
        let packed = with_slice!(fact_keys, keys => link_of(keys, &table, width))?;
        // CPU hash build + probe cost.
        let t = env.cpu.scan_seconds(
            (fact_keys.len() + dim_keys.len()) as u64 * 8,
            (fact_keys.len() + dim_keys.len()) as u64,
            env.host_threads,
        );
        ledger.charge(Component::Host, "fkindex.build", t, 0);
        let link = DeviceArray::upload(device, packed, "fkindex", ledger)?;
        Ok(FkIndex { link })
    }

    /// Dimension row of a fact row.
    #[inline]
    pub fn dim_row(&self, fact_oid: Oid) -> u32 {
        self.link.get(fact_oid as usize) as u32
    }

    /// The packed mapping, device-resident: what the device gathers
    /// through and the host decodes.
    #[inline]
    pub fn device(&self) -> &DeviceArray {
        &self.link
    }

    /// Number of fact rows.
    pub fn len(&self) -> usize {
        self.link.len()
    }

    /// Whether the index is empty.
    pub fn is_empty(&self) -> bool {
        self.link.is_empty()
    }
}

/// A dimension's row count, if every row has an [`Oid`].
fn dim_row_count(rows: usize) -> Result<u32> {
    u32::try_from(rows).map_err(|_| {
        BwdError::Unsupported(format!(
            "a dimension of {rows} rows: row ids stop at {}",
            u32::MAX
        ))
    })
}

/// Hash the dimension keys: key → dimension row.
fn dim_rows_by_key<T: Copy + Into<i64>>(keys: &[T]) -> Result<FxHashMap<i64, u64>> {
    let mut table: FxHashMap<i64, u64> = FxHashMap::default();
    table.reserve(keys.len());
    for (row, &k) in keys.iter().enumerate() {
        let k = k.into();
        if table.insert(k, row as u64).is_some() {
            return Err(BwdError::InvalidArgument(format!(
                "dimension key {k} is not unique"
            )));
        }
    }
    Ok(table)
}

/// Translate every fact key into its dimension row, packed `width` bits
/// wide as it goes.
fn link_of<T: Copy + Into<i64>>(
    keys: &[T],
    table: &FxHashMap<i64, u64>,
    width: u32,
) -> Result<BitPackedVec> {
    BitPackedVec::try_pack(
        width,
        keys.iter().map(|&k| {
            let k = k.into();
            let row = table.get(&k).copied();
            row.ok_or_else(|| BwdError::Exec(format!("foreign key {k} has no dimension match")))
        }),
    )
}

/// Approximate FK-projective join: for each fact candidate, fetch the
/// *dimension* column's stored approximation through the device-resident
/// index (`dim.approx[fk[oid]]`). Output aligns with the candidate list.
pub fn fk_project_approx(
    env: &Env,
    fk: &FkIndex,
    dim_col: &BoundColumn,
    cands: &Candidates,
    ledger: &mut CostLedger,
) -> Vec<u64> {
    gather_indirect(
        env,
        dim_col.approx(),
        fk.device(),
        cands,
        "join.fk.approx",
        ledger,
    )
}

/// Refine an FK-projective join: align survivors with the approximate
/// dimension values (translucent join), then reconstruct exact dimension
/// payloads using the *dimension* residual at the position the index maps to.
#[allow(clippy::too_many_arguments)]
pub fn fk_project_refine(
    env: &Env,
    fk: &FkIndex,
    dim_col: &BoundColumn,
    cand_oids: &[Oid],
    cand_dense: Option<Oid>,
    approx_vals: &[u64],
    survivors: &[Oid],
    charge_download: bool,
    ledger: &mut CostLedger,
) -> Result<Vec<i64>> {
    let mut out = Vec::with_capacity(survivors.len());
    translucent_join_with(
        cand_oids,
        approx_vals,
        cand_dense,
        survivors,
        |bi, stored| {
            let dim_row = fk.dim_row(survivors[bi]);
            out.push(
                dim_col
                    .meta()
                    .payload_from_parts(stored, dim_col.residual_of(dim_row)),
            );
        },
    )?;
    charge_fk_project_refine(
        env,
        dim_col,
        cand_oids.len(),
        survivors.len(),
        charge_download,
        ledger,
    );
    Ok(out)
}

/// The simulated cost of an FK-projective refinement over `n_cands`
/// candidates and `n_survivors` survivors. Split out so a morsel-parallel
/// executor that runs the translucent merge itself charges exactly what
/// [`fk_project_refine`] would.
pub fn charge_fk_project_refine(
    env: &Env,
    dim_col: &BoundColumn,
    n_cands: usize,
    n_survivors: usize,
    charge_download: bool,
    ledger: &mut CostLedger,
) {
    if charge_download {
        let bytes =
            bwd_device::units::packed_stream_bytes(dim_col.meta().stored_width(), n_cands as u64);
        env.charge_download("join.fk.refine.download", bytes, ledger);
    }
    if dim_col.meta().fully_device_resident() {
        env.charge_host_scan(
            "join.fk.refine.decode",
            n_survivors as u64 * 4,
            n_survivors as u64,
            ledger,
        );
    } else {
        env.charge_host_scattered(
            "join.fk.refine",
            dim_col.residual_access_bytes(n_survivors) + n_survivors as u64 * 4,
            n_survivors as u64 * crate::ops::REFINE_OPS_PER_TUPLE,
            ledger,
        );
    }
}

/// Approximate theta join: nested loops over granule *intervals*; a pair
/// is a candidate when some pair of exact values inside the two granules
/// could satisfy `theta`. Sound superset by construction.
pub fn theta_join_approx(
    env: &Env,
    a: &BoundColumn,
    b: &BoundColumn,
    theta: Theta,
    ledger: &mut CostLedger,
) -> Vec<(Oid, Oid)> {
    // Pre-decode granule payload intervals once per side.
    let a_iv: Vec<(i64, i64)> = a
        .approx()
        .data()
        .iter()
        .map(|s| a.meta().granule_payload(s))
        .collect();
    let b_iv: Vec<(i64, i64)> = b
        .approx()
        .data()
        .iter()
        .map(|s| b.meta().granule_payload(s))
        .collect();
    let mut out = Vec::new();
    for (i, &(alo, ahi)) in a_iv.iter().enumerate() {
        for (j, &(blo, bhi)) in b_iv.iter().enumerate() {
            let possible = match theta {
                Theta::Less => alo < bhi,
                Theta::LessEq => alo <= bhi,
                Theta::Greater => ahi > blo,
                Theta::GreaterEq => ahi >= blo,
                Theta::Eq => alo <= bhi && blo <= ahi,
                // `!=` fails only when both granules are the same point.
                Theta::NotEq => !(alo == ahi && blo == bhi && alo == blo),
            };
            if possible {
                out.push((i as Oid, j as Oid));
            }
        }
    }
    // Compute-bound massively parallel cost: |A| × |B| comparisons.
    let comparisons = (a.len() as u64).saturating_mul(b.len() as u64);
    let spec = env.device.spec();
    let t = spec.kernel_launch_overhead
        + spec
            .compute_seconds(comparisons)
            .max(spec.stream_seconds(a.approx().packed_bytes() + b.approx().packed_bytes()));
    ledger.charge(Component::Device, "join.theta.approx", t, 0);
    out
}

/// Refine a theta join: re-evaluate the predicate on exact values for every
/// candidate pair (host side; the candidate pairs cross PCI-E).
pub fn theta_join_refine(
    env: &Env,
    a: &BoundColumn,
    b: &BoundColumn,
    theta: Theta,
    candidates: &[(Oid, Oid)],
    ledger: &mut CostLedger,
) -> Vec<(Oid, Oid)> {
    env.charge_download(
        "join.theta.refine.download",
        candidates.len() as u64 * 8,
        ledger,
    );
    let out: Vec<(Oid, Oid)> = candidates
        .iter()
        .copied()
        .filter(|&(i, j)| {
            let x = a.reconstruct(i);
            let y = b.reconstruct(j);
            match theta {
                Theta::Less => x < y,
                Theta::LessEq => x <= y,
                Theta::Greater => x > y,
                Theta::GreaterEq => x >= y,
                Theta::Eq => x == y,
                Theta::NotEq => x != y,
            }
        })
        .collect();
    env.charge_host_scattered(
        "join.theta.refine",
        a.residual_access_bytes(candidates.len()) + b.residual_access_bytes(candidates.len()),
        candidates.len() as u64,
        ledger,
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use bwd_storage::{DecomposedColumn, DecompositionSpec};
    use bwd_types::DataType;

    fn bind(env: &Env, vals: &[i64], device_bits: u32) -> BoundColumn {
        let mut load = CostLedger::new();
        BoundColumn::bind(
            DecomposedColumn::decompose(
                vals,
                DataType::Int32,
                &DecompositionSpec::with_device_bits(device_bits),
            )
            .unwrap(),
            &env.device,
            "j",
            &mut load,
        )
        .unwrap()
    }

    fn cands(oids: Vec<Oid>) -> Candidates {
        let mut c = Candidates {
            approx: vec![0; oids.len()],
            oids,
            sorted: false,
            dense: false,
        };
        c.refresh_flags();
        c
    }

    #[test]
    fn fk_index_builds_and_rejects_bad_input() {
        let env = Env::paper_default();
        let mut ledger = CostLedger::new();
        let keys = |k: &[i32]| ColumnData::I32(k.to_vec());
        let fk = FkIndex::build(
            &keys(&[103, 101, 101, 102]),
            &ColumnData::I64(vec![101, 102, 103]),
            &env.device,
            &env,
            &mut ledger,
        )
        .unwrap();
        assert_eq!(fk.len(), 4);
        assert_eq!(fk.device().width(), 2);
        assert_eq!(
            (0..4).map(|oid| fk.dim_row(oid)).collect::<Vec<_>>(),
            [2, 0, 0, 1]
        );
        // A one-row dimension's link stores no bits at all.
        let one = FkIndex::build(&keys(&[7, 7]), &keys(&[7]), &env.device, &env, &mut ledger);
        let one = one.unwrap();
        assert_eq!((one.device().width(), one.device().packed_bytes()), (0, 0));
        assert_eq!((one.dim_row(0), one.dim_row(1)), (0, 0));
        // Past `u32::MAX` rows a dimension row has no `Oid`.
        assert_eq!(dim_row_count(u32::MAX as usize), Ok(u32::MAX));
        assert!(matches!(
            dim_row_count(u32::MAX as usize + 1),
            Err(BwdError::Unsupported(_))
        ));
        // Duplicate dimension key.
        assert!(
            FkIndex::build(&keys(&[1]), &keys(&[1, 1]), &env.device, &env, &mut ledger).is_err()
        );
        // Dangling foreign key.
        assert!(
            FkIndex::build(&keys(&[9]), &keys(&[1, 2]), &env.device, &env, &mut ledger).is_err()
        );
    }

    #[test]
    fn fk_ar_join_reconstructs_dimension_values() {
        let env = Env::paper_default();
        // Dimension: 100 parts with 13-bit values, decomposed 24/8.
        let dim_vals: Vec<i64> = (0..100).map(|i| i * 67 % 8000).collect();
        let dim_col = bind(&env, &dim_vals, 24);
        let dim_keys: Vec<i64> = (0..100).map(|i| 1000 + i).collect();
        // Facts: 1000 lineitems.
        let fact_keys: Vec<i64> = (0..1000).map(|i| 1000 + (i * 7) % 100).collect();
        let mut ledger = CostLedger::new();
        let fk = FkIndex::build(
            &ColumnData::I64(fact_keys.clone()),
            &ColumnData::I64(dim_keys),
            &env.device,
            &env,
            &mut ledger,
        )
        .unwrap();

        let c = cands(vec![5, 900, 33, 1]);
        let approx = fk_project_approx(&env, &fk, &dim_col, &c, &mut ledger);
        let survivors = vec![5, 33];
        let out = fk_project_refine(
            &env,
            &fk,
            &dim_col,
            &c.oids,
            None,
            &approx,
            &survivors,
            true,
            &mut ledger,
        )
        .unwrap();
        let expect: Vec<i64> = survivors
            .iter()
            .map(|&o| dim_vals[(fact_keys[o as usize] - 1000) as usize])
            .collect();
        assert_eq!(out, expect);
    }

    #[test]
    fn theta_ar_join_equals_exact_nested_loop() {
        let env = Env::paper_default();
        let a_vals: Vec<i64> = (0..60).map(|i| i * 13 % 500).collect();
        let b_vals: Vec<i64> = (0..40).map(|i| i * 29 % 500).collect();
        let a = bind(&env, &a_vals, 26); // 6 residual bits
        let b = bind(&env, &b_vals, 26);
        for theta in [
            Theta::Less,
            Theta::LessEq,
            Theta::Greater,
            Theta::GreaterEq,
            Theta::Eq,
            Theta::NotEq,
        ] {
            let mut ledger = CostLedger::new();
            let cand_pairs = theta_join_approx(&env, &a, &b, theta, &mut ledger);
            let refined = theta_join_refine(&env, &a, &b, theta, &cand_pairs, &mut ledger);
            let mut expect = Vec::new();
            for (i, &x) in a_vals.iter().enumerate() {
                for (j, &y) in b_vals.iter().enumerate() {
                    let m = match theta {
                        Theta::Less => x < y,
                        Theta::LessEq => x <= y,
                        Theta::Greater => x > y,
                        Theta::GreaterEq => x >= y,
                        Theta::Eq => x == y,
                        Theta::NotEq => x != y,
                    };
                    if m {
                        expect.push((i as Oid, j as Oid));
                    }
                }
            }
            assert_eq!(refined, expect, "theta={theta:?}");
            assert!(cand_pairs.len() >= refined.len());
        }
    }

    #[test]
    fn theta_approx_turns_nl_into_candidate_superset() {
        let env = Env::paper_default();
        let a = bind(&env, &[100], 24); // granule 256: wide intervals
        let b = bind(&env, &[90, 200, 5000], 24);
        let mut ledger = CostLedger::new();
        let cand_pairs = theta_join_approx(&env, &a, &b, Theta::Eq, &mut ledger);
        // 100 and 90/200 can share granules; 5000 cannot.
        assert!(cand_pairs.contains(&(0, 0)));
        assert!(!cand_pairs.contains(&(0, 2)));
    }
}
