//! The A&R join operators (§IV-D).
//!
//! Generic unindexed equi-joins on a massively parallel device hinge on
//! concurrent hash-table builds, which the paper deliberately leaves to
//! future work. Foreign-key joins go through a pre-built CPU-side index
//! ([`FkIndex`]): the fact table's key column is translated once into
//! dimension row ids; the join then *is* a projective join — it shares the
//! projection's code path (an extra indirection on the device, an
//! invisible lookup on the host). These are "among the most common joins
//! in analytical applications" (star/snowflake OLAP). The SQL binder
//! accepts only declared FK joins, so the paper's nested-loop theta join
//! is not implemented.

use crate::column::BoundColumn;
use bwd_device::{Component, CostLedger, Device, Env};
use bwd_kernels::DeviceArray;
use bwd_storage::encoding::decode;
use bwd_storage::pieces::chunk_count;
use bwd_storage::{BitPackedVec, Column, DECODE_BLOCK};
use bwd_types::bits::bits_for_width;
use bwd_types::{BwdError, FxHashMap, Result};

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
    /// Build from the two key columns, read in place a block at a time: map the
    /// dimension keys to their rows (build side, on the CPU as §IV-D
    /// prescribes) — by address where their span is at most twice their
    /// count, by hash otherwise —, then translate every fact key straight
    /// into the packed link. Charges the build scan + the device upload of
    /// the packed index, whichever map the build used.
    ///
    /// # Errors
    /// A duplicate dimension key, a fact key without a dimension match, a
    /// dimension past `u32::MAX` rows (an [`Oid`](bwd_types::Oid) cannot address it) or a
    /// link the device cannot hold.
    pub fn build(
        fact_keys: &Column,
        dim_keys: &Column,
        device: &Device,
        env: &Env,
        ledger: &mut CostLedger,
    ) -> Result<Self> {
        let dim_rows = dim_row_count(dim_keys.len())?;
        let table = DimRows::of(dim_keys)?;
        let width = bits_for_width(u64::from(dim_rows));
        let chunks = chunk_count(fact_keys.len());
        let packed = link_of(fact_keys, &table, width, chunks)?;
        // CPU build + probe cost.
        let t = env.cpu.scan_seconds(
            (fact_keys.len() + dim_keys.len()) as u64 * 8,
            (fact_keys.len() + dim_keys.len()) as u64,
            env.host_threads,
        );
        ledger.charge(Component::Host, "fkindex.build", t, 0);
        let link = DeviceArray::upload(device, packed, "fkindex", ledger)?;
        Ok(FkIndex { link })
    }

    /// The packed mapping, device-resident: what the device gathers
    /// through and the host decodes.
    #[inline]
    pub fn device(&self) -> &DeviceArray {
        &self.link
    }
}

/// A dimension's row count, if every row has an [`Oid`](bwd_types::Oid).
fn dim_row_count(rows: usize) -> Result<u32> {
    u32::try_from(rows).map_err(|_| {
        BwdError::Unsupported(format!(
            "a dimension of {rows} rows: row ids stop at {}",
            u32::MAX
        ))
    })
}

/// A dimension whose key span is at most this many times its rows is
/// addressed, not hashed.
const SLOTS_PER_ROW: u64 = 2;

/// A slot no dimension key holds.
const EMPTY: u32 = u32::MAX;

/// The dimension keys' rows: key → dimension row, by either map.
enum DimRows {
    /// The row of key `lo + i` at `slots[i]` ([`EMPTY`] where no key is).
    Slots { lo: i64, slots: Vec<u32> },
    /// The rows hashed by key.
    Hash(FxHashMap<i64, u32>),
}

impl DimRows {
    /// Map `keys`: by address where their span is at most
    /// [`SLOTS_PER_ROW`] times their count, else by hash.
    fn of(keys: &Column) -> Result<Self> {
        let span = keys.payload_min_max().map(|(lo, hi)| (lo, hi.abs_diff(lo)));
        let dense = span.filter(|&(_, span)| span < SLOTS_PER_ROW * keys.len() as u64);
        DimRows::fill(keys, dense.map(|(lo, span)| (lo, span as usize + 1)))
    }

    /// `keys` addressed over `lo..lo + span` where `slots` gives those,
    /// else hashed.
    ///
    /// # Errors
    /// A duplicate key, the first in row order.
    fn fill(keys: &Column, slots: Option<(i64, usize)>) -> Result<Self> {
        let mut map = match slots {
            Some((lo, span)) => DimRows::Slots {
                lo,
                slots: vec![EMPTY; span],
            },
            None => DimRows::Hash(FxHashMap::with_capacity_and_hasher(
                keys.len(),
                <_>::default(),
            )),
        };
        let mut block = [0; DECODE_BLOCK];
        for (row, k) in (0..keys.len()).map(|row| {
            if row % DECODE_BLOCK == 0 {
                let n = (keys.len() - row).min(DECODE_BLOCK);
                keys.encoded_range(row, &mut block[..n]);
            }
            (row as u32, decode(block[row % DECODE_BLOCK], keys.dtype()))
        }) {
            let taken = match &mut map {
                DimRows::Slots { lo, slots } => {
                    std::mem::replace(&mut slots[k.abs_diff(*lo) as usize], row) != EMPTY
                }
                DimRows::Hash(table) => table.insert(k, row).is_some(),
            };
            if taken {
                let msg = format!("dimension key {k} is not unique");
                return Err(BwdError::InvalidArgument(msg));
            }
        }
        Ok(map)
    }

    /// The dimension row of key `k`, if one holds it.
    #[inline]
    fn row(&self, k: i64) -> Option<u32> {
        match self {
            DimRows::Slots { lo, slots } => {
                let at = k.checked_sub(*lo).and_then(|at| usize::try_from(at).ok());
                at.and_then(|at| slots.get(at).copied())
                    .filter(|&row| row != EMPTY)
            }
            DimRows::Hash(table) => table.get(&k).copied(),
        }
    }
}

/// Translate every fact key into its dimension row, packed `width` bits
/// wide as it goes, in `chunks` pieces; a key without a match fails it,
/// the lowest row's whatever the pieces.
fn link_of(keys: &Column, table: &DimRows, width: u32, chunks: usize) -> Result<BitPackedVec> {
    BitPackedVec::try_pack_rows(width, keys.len(), chunks, |at, out| {
        keys.encoded_range(at, out);
        for e in out {
            let k = decode(*e, keys.dtype());
            let row = table.row(k).map(u64::from);
            *e = row
                .ok_or_else(|| BwdError::Exec(format!("foreign key {k} has no dimension match")))?;
        }
        Ok(())
    })
}

/// The simulated cost of an FK-projective refinement over `n_cands`
/// candidates and `n_survivors` survivors: the download of the gathered
/// dimension approximations, then one residual fetch per survivor at the
/// dimension row the index maps it to (a decode when no residual exists).
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

#[cfg(test)]
mod tests {
    use super::*;
    use bwd_types::DataType;

    /// An `Int64` key column.
    fn col(keys: &[i64]) -> Column {
        Column::from_payloads(DataType::Int64, keys).unwrap()
    }

    #[test]
    fn fk_index_builds_and_rejects_bad_input() {
        let env = Env::paper_default();
        let mut ledger = CostLedger::new();
        let keys = |k: &[i32]| Column::from_i32(k.to_vec());
        let fk = FkIndex::build(
            &keys(&[103, 101, 101, 102]),
            &col(&[101, 102, 103]),
            &env.device,
            &env,
            &mut ledger,
        )
        .unwrap();
        assert_eq!(fk.device().len(), 4);
        assert_eq!(fk.device().width(), 2);
        assert_eq!(
            (0..4)
                .map(|oid| fk.device().get(oid as usize) as u32)
                .collect::<Vec<_>>(),
            [2, 0, 0, 1]
        );
        // A one-row dimension's link stores no bits at all.
        let one = FkIndex::build(&keys(&[7, 7]), &keys(&[7]), &env.device, &env, &mut ledger);
        let one = one.unwrap();
        assert_eq!((one.device().width(), one.device().packed_bytes()), (0, 0));
        assert_eq!((one.device().get(0), one.device().get(1)), (0, 0));
        // Past `u32::MAX` rows a dimension row has no `Oid`.
        assert_eq!(dim_row_count(u32::MAX as usize), Ok(u32::MAX));
        assert!(matches!(
            dim_row_count(u32::MAX as usize + 1),
            Err(BwdError::Unsupported(_))
        ));
        // A dense dimension is addressed, a sparse one hashed, and over the
        // same fact keys both give the same link and the same charge: the
        // sparse twin's one far key (its last row) is one no fact row names.
        let dense: Vec<i64> = (0..499).map(|r| 1 + (r * 7) % 499).chain([500]).collect();
        let sparse: Vec<i64> = dense[..499].iter().copied().chain([i64::MAX]).collect();
        assert!(matches!(
            DimRows::of(&col(&dense)),
            Ok(DimRows::Slots { .. })
        ));
        assert!(matches!(DimRows::of(&col(&sparse)), Ok(DimRows::Hash(_))));
        let fact = col(&(0..3_000).map(|r| 1 + (r * 31) % 499).collect::<Vec<_>>());
        let link = |dim: &[i64]| {
            let mut ledger = CostLedger::new();
            let dim = col(dim);
            let fk = FkIndex::build(&fact, &dim, &env.device, &env, &mut ledger).unwrap();
            let rows: Vec<u32> = (0..3_000)
                .map(|oid| fk.device().get(oid as usize) as u32)
                .collect();
            (rows, ledger.events().to_vec())
        };
        let addressed = link(&dense);
        assert_eq!(addressed, link(&sparse));
        assert_eq!(
            addressed.0[1],
            dense.iter().position(|&k| k == 32).unwrap() as u32
        );
        // Two slots a row are addressed, one more is hashed.
        assert!(matches!(
            DimRows::of(&col(&[1, 4])),
            Ok(DimRows::Slots { .. })
        ));
        assert!(matches!(DimRows::of(&col(&[1, 5])), Ok(DimRows::Hash(_))));

        // Either map fails a fact key without a match — in a hole of the
        // span, just outside it, or at either end of `i64`, which no offset
        // from `lo` may overflow into a slot — and finds every one it holds.
        let dims: [&[i64]; 3] = [
            &[3, 1, 4, 6],
            &[i64::MIN, i64::MIN + 2],
            &[i64::MAX - 3, i64::MAX],
        ];
        for dim in dims {
            let (lo, hi) = (*dim.iter().min().unwrap(), *dim.iter().max().unwrap());
            let slots = DimRows::fill(&col(dim), Some((lo, hi.abs_diff(lo) as usize + 1)));
            for map in [slots, DimRows::fill(&col(dim), None)].map(Result::unwrap) {
                let misses = [
                    lo.wrapping_sub(1),
                    hi.wrapping_add(1),
                    2,
                    5,
                    i64::MIN,
                    i64::MAX,
                ];
                for k in misses.into_iter().filter(|k| !dim.contains(k)) {
                    let err = link_of(&col(&[dim[0], k, k]), &map, 3, 1).unwrap_err();
                    let want = format!("foreign key {k} has no dimension match");
                    assert_eq!(err, BwdError::Exec(want), "{k} of {dim:?}");
                }
                let rows: Vec<_> = dim.iter().map(|&k| map.row(k)).collect();
                assert_eq!(rows, (0..dim.len() as u32).map(Some).collect::<Vec<_>>());
            }
        }
        // And so does a duplicate dimension key, the first in row order.
        let want = BwdError::InvalidArgument("dimension key 3 is not unique".into());
        for dim in [&[1, 3, 3, 2, 2][..], &[1, 3, 3, 2, 2, i64::MAX]] {
            let fk = FkIndex::build(&keys(&[1]), &col(dim), &env.device, &env, &mut ledger);
            assert_eq!(fk.err(), Some(want.clone()), "{dim:?}");
            assert_eq!(
                DimRows::fill(&col(dim), None).err(),
                Some(want.clone()),
                "{dim:?}"
            );
        }
        assert_eq!(
            DimRows::fill(&col(&[1, 3, 3, 2, 2]), Some((1, 3))).err(),
            Some(want)
        );
        // Dangling foreign key.
        assert!(
            FkIndex::build(&keys(&[9]), &keys(&[1, 2]), &env.device, &env, &mut ledger).is_err()
        );
    }

    /// The probe's pieces change neither the link nor the error, on either
    /// map: two dangling keys in different pieces report the lower row's,
    /// though its key is the greater and its piece not the calling thread's.
    #[test]
    fn the_link_and_its_error_do_not_depend_on_the_pieces() {
        let dim = col(&(1..=500).collect::<Vec<_>>());
        for table in [Some((1, 500)), None].map(|slots| DimRows::fill(&dim, slots)) {
            let table = table.unwrap();
            let mut fact: Vec<i64> = (0..10_000).map(|r| 1 + (r * 7919) % 500).collect();
            let one = link_of(&col(&fact), &table, 9, 1).unwrap();
            assert_eq!(one.get(9_999), (fact[9_999] - 1) as u64);
            for chunks in [2, 3, 7] {
                assert_eq!(link_of(&col(&fact), &table, 9, chunks).unwrap(), one);
            }
            (fact[100], fact[9_000]) = (900, 800);
            for chunks in [1, 2, 3, 7] {
                let err = link_of(&col(&fact), &table, 9, chunks).unwrap_err();
                let want = BwdError::Exec("foreign key 900 has no dimension match".into());
                assert_eq!(err, want, "{chunks} pieces");
            }
        }
    }
}
