//! Hash-grouping kernel with a write-conflict contention model.
//!
//! The approximate grouping (§IV-E) assigns group ids by hashing approximate
//! key values into a shared table. On a real GPU, concurrent inserts into
//! the same cell serialize through atomics — the fewer distinct groups, the
//! more threads collide on the same cells. The paper observes exactly this:
//! "the performance improves with the number of groups due to fewer write
//! conflicts on the grouping table" (Fig 8f); [`conflicts`] is that model.

use crate::array::DeviceArray;
use crate::candidates::Candidates;
use bwd_device::{Component, CostLedger, Env};
use bwd_types::{BwdError, FxHashMap, Oid, Result};

/// Simulated warp width: the lanes that can collide on one table cell.
pub const WARP: u64 = 32;

/// Expected serialized attempts per atomic update when a warp's lanes
/// scatter over `cells` equally likely accumulator cells — the one
/// contention model of the grouping kernels and of grouped aggregation
/// ([`crate::reduce::GroupedAgg`]).
pub fn conflicts(cells: u64) -> f64 {
    1.0 + (WARP - 1) as f64 / cells.max(1) as f64
}

/// Keys whose domains span at most 2^`DIRECT_BITS` cells index a direct
/// table (2^16 four-byte cells: cache-resident on the host simulating it).
const DIRECT_BITS: u32 = 16;

/// The result of a grouping kernel over keys of type `K`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Grouping<K> {
    /// Group id per input position (aligned with the candidate list, or
    /// with the full column when grouping everything).
    pub group_ids: Vec<u32>,
    /// Key per group id, in the stored domain.
    pub group_keys: Vec<K>,
}

/// A single-column grouping: each group's key is its distinct value.
pub type GroupResult = Grouping<u64>;
/// A multi-column grouping: each group's key holds one value per key column.
pub type MultiGroupResult = Grouping<Vec<u64>>;

impl<K> Grouping<K> {
    /// Number of distinct groups.
    pub fn n_groups(&self) -> usize {
        self.group_keys.len()
    }
}

/// Group the key values of `cands` (or the whole array when `cands` is
/// `None`) by their approximate value. Group ids are assigned in first-seen
/// order — positionally aligned with the input, as MonetDB represents
/// groupings (§IV-E).
pub fn hash_group(
    env: &Env,
    keys: &DeviceArray,
    cands: Option<&Candidates>,
    ledger: &mut CostLedger,
) -> GroupResult {
    let mut grouper = Grouper::new(&[keys]);
    let mut group_ids = Vec::with_capacity(cands.map_or(keys.len(), Candidates::len));
    match cands {
        Some(c) => grouper.assign(c.oids.iter().copied(), |id| group_ids.push(id)),
        None => grouper.assign(0..keys.len() as Oid, |id| group_ids.push(id)),
    }
    let g = Grouping {
        group_ids,
        group_keys: grouper.group_keys(),
    };
    let (spec, tuples) = (env.device.spec(), g.group_ids.len() as u64);
    // Streaming the keys + writing one group id per tuple.
    let io_bytes = keys.packed_bytes() + tuples * 4;
    let base = spec.kernel_launch_overhead
        + spec
            .stream_seconds(io_bytes)
            .max(spec.compute_seconds(2 * tuples));
    let contention = tuples as f64 * conflicts(g.n_groups() as u64) * spec.atomic_conflict_cost;
    let t = base + contention;
    ledger.charge(Component::Device, "group.approx.hash", t, io_bytes);
    g
}

/// Group candidates by a *composite* key over several device-resident
/// columns (TPC-H Q1 groups by `(l_returnflag, l_linestatus)`) in one
/// shot: a [`Grouper`] fed the whole candidate list, billed, its ids
/// materialized — one 4 B id per candidate, which a streaming caller
/// never holds.
pub fn hash_group_multi(
    env: &Env,
    keys: &[&DeviceArray],
    cands: &Candidates,
    ledger: &mut CostLedger,
) -> MultiGroupResult {
    let mut grouper = Grouper::new(keys);
    let mut group_ids = Vec::with_capacity(cands.len());
    grouper.assign(cands.oids.iter().copied(), |id| group_ids.push(id));
    grouper.charge(env, ledger);
    let group_keys = grouper.group_keys();
    Grouping {
        group_ids,
        group_keys: group_keys.chunks(keys.len()).map(<[u64]>::to_vec).collect(),
    }
}

/// The composite-key grouping table as persistent state: candidates
/// stream through [`Grouper::observe`] in any chunking and get first-seen
/// group ids exactly as one pass over the whole list would assign them;
/// afterwards [`Grouper::ids`] is a pure lookup, so the tail's workers
/// share one table and nobody holds an id per candidate. A key's *cell* is
/// its codes' mixed-radix number over the key columns' stored domains: up
/// to 2^16 cells index a direct-address table, up to 2^64 a hash map;
/// wider composites hash their codes. Only the table holds the keys.
#[derive(Debug)]
pub struct Grouper<'a> {
    keys: Vec<&'a DeviceArray>,
    /// Per key column its least stored code and its radix.
    domains: Vec<(u64, u128)>,
    table: Table,
    groups: usize,
    observed: usize,
}

/// Cell → group id, by how many cells the domains span.
#[derive(Debug)]
enum Table {
    /// Direct-address: group id + 1 per cell (0 = unseen).
    Direct(Vec<u32>),
    Packed(FxHashMap<u64, u32>),
    Wide(FxHashMap<Vec<u64>, u32>),
}

/// `oid`'s value in every key column.
fn key_of(keys: &[&DeviceArray], oid: Oid) -> Vec<u64> {
    keys.iter().map(|k| k.get(oid as usize)).collect()
}

/// `oid`'s value in every key column, concatenated into one word, first
/// column in the high bits (at most 64 key bits together; a 64-bit column
/// shifts everything before it — all zero-width — out). The slot a key of
/// few enough bits *is*: the group id grouped aggregation folds by
/// ([`crate::reduce::GroupedAgg::direct_slots`]).
#[inline]
pub fn packed_key_of(keys: &[&DeviceArray], oid: Oid) -> u64 {
    let shl = |k: u64, by: u32| k.checked_shl(by).unwrap_or(0);
    (keys.iter()).fold(0, |k, a| shl(k, a.width()) | a.get(oid as usize))
}

/// `oid`'s cell over `domains` (exact up to 2^64 cells: a radix of 2^64
/// wraps to 0, and then every other column has one code).
fn cell_of(keys: &[&DeviceArray], domains: &[(u64, u128)], oid: Oid) -> u64 {
    (keys.iter().zip(domains)).fold(0, |cell, (a, &(lo, radix))| {
        let code = a.get(oid as usize).wrapping_sub(lo);
        cell.wrapping_mul(radix as u64).wrapping_add(code)
    })
}

impl<'a> Grouper<'a> {
    /// [`Grouper::over`] every code each key column's width can store.
    pub fn new(keys: &[&'a DeviceArray]) -> Self {
        let all = |k: &&DeviceArray| (0, bwd_types::bits::low_mask(k.width()));
        Self::over(keys, &keys.iter().map(all).collect::<Vec<_>>())
    }

    /// An empty table over the key columns `keys` whose stored codes lie in
    /// `domains`, `(lo, hi)` per column — its extrema's codes.
    ///
    /// # Panics
    /// Panics without a key column.
    pub fn over(keys: &[&'a DeviceArray], domains: &[(u64, u64)]) -> Self {
        assert!(!keys.is_empty(), "grouping requires a key column");
        let domains: Vec<_> = (domains.iter())
            .map(|&(lo, hi)| (lo, u128::from(hi.saturating_sub(lo)) + 1))
            .collect();
        let table = match (domains.iter()).try_fold(1u128, |n, d| n.checked_mul(d.1)) {
            Some(n) if n <= 1 << DIRECT_BITS => Table::Direct(vec![0; n as usize]),
            Some(n) if n <= 1 << 64 => Table::Packed(FxHashMap::default()),
            _ => Table::Wide(FxHashMap::default()),
        };
        Grouper {
            keys: keys.to_vec(),
            domains,
            table,
            groups: 0,
            observed: 0,
        }
    }

    /// Feed the next chunk of candidates: a key not seen before claims the
    /// next group id.
    pub fn observe(&mut self, oids: &[Oid]) {
        self.assign(oids.iter().copied(), |_| {});
    }

    /// [`Grouper::observe`], handing each oid's group id to `emit`.
    fn assign(&mut self, oids: impl IntoIterator<Item = Oid>, mut emit: impl FnMut(u32)) {
        let (keys, domains) = (self.keys.as_slice(), self.domains.as_slice());
        for oid in oids {
            let next = self.groups as u32;
            let id = match &mut self.table {
                Table::Direct(table) => {
                    let id = &mut table[cell_of(keys, domains, oid) as usize];
                    if *id == 0 {
                        *id = next + 1;
                    }
                    *id - 1
                }
                Table::Packed(table) => *table.entry(cell_of(keys, domains, oid)).or_insert(next),
                Table::Wide(table) => *table.entry(key_of(keys, oid)).or_insert(next),
            };
            self.groups += usize::from(id == next);
            self.observed += 1;
            emit(id);
        }
    }

    /// Replace `out` with the group id of every oid, aligned with `oids`.
    ///
    /// # Errors
    /// Fails on an oid whose key was never observed.
    pub fn ids(&self, oids: &[Oid], out: &mut Vec<u32>) -> Result<()> {
        let (keys, domains) = (self.keys.as_slice(), self.domains.as_slice());
        out.clear();
        out.reserve(oids.len());
        for &oid in oids {
            let id = match &self.table {
                Table::Direct(table) => table[cell_of(keys, domains, oid) as usize].checked_sub(1),
                Table::Packed(table) => table.get(&cell_of(keys, domains, oid)).copied(),
                Table::Wide(table) => table.get(&key_of(keys, oid)).copied(),
            };
            out.push(id.ok_or_else(|| {
                BwdError::InvalidArgument(format!("oid {oid}: its group key was never observed"))
            })?);
        }
        Ok(())
    }

    /// Number of distinct groups observed so far.
    pub fn n_groups(&self) -> usize {
        self.groups
    }

    /// Every group's key, in id order: one stored code per key column,
    /// read off the table.
    pub fn group_keys(&self) -> Vec<u64> {
        let n = self.keys.len();
        let mut keys = vec![0; self.groups * n];
        let mut put = |id: u32, cell: u64| {
            let (key, mut cell) = (&mut keys[id as usize * n..][..n], u128::from(cell));
            for (code, &(lo, radix)) in key.iter_mut().zip(&self.domains).rev() {
                (*code, cell) = (lo + (cell % radix) as u64, cell / radix);
            }
        };
        match &self.table {
            Table::Direct(table) => (table.iter().enumerate())
                .filter(|&(_, &id)| id > 0)
                .for_each(|(cell, &id)| put(id - 1, cell as u64)),
            Table::Packed(table) => table.iter().for_each(|(&cell, &id)| put(id, cell)),
            Table::Wide(table) => (table.iter())
                .for_each(|(key, &id)| keys[id as usize * n..][..n].copy_from_slice(key)),
        }
        keys
    }

    /// Charge the grouping kernel over everything observed
    /// ([`charge_hash_group_multi`]).
    pub fn charge(&self, env: &Env, ledger: &mut CostLedger) {
        let widths = self.keys.iter().map(|k| k.width());
        charge_hash_group_multi(
            env,
            widths,
            self.observed as u64,
            self.n_groups() as u64,
            ledger,
        );
    }
}

/// The composite-key grouping kernel's price: one gather stream per key
/// column, one 4 B id per candidate and the shared contention model — a
/// function of the key `widths`, the `observed` candidates and the
/// `groups` they fall into alone.
pub fn charge_hash_group_multi(
    env: &Env,
    widths: impl Iterator<Item = u32>,
    observed: u64,
    groups: u64,
    ledger: &mut CostLedger,
) {
    let gather_bytes: u64 = widths
        .map(|w| observed * bwd_device::units::element_access_bytes(w))
        .sum();
    let spec = env.device.spec();
    let t = spec.kernel_launch_overhead
        + spec.scattered_seconds(gather_bytes + observed * 4)
        + observed as f64 * conflicts(groups) * spec.atomic_conflict_cost;
    ledger.charge(
        Component::Device,
        "group.approx.hash-multi",
        t,
        gather_bytes,
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use bwd_device::Env;
    use bwd_storage::BitPackedVec;
    use bwd_types::bits::low_mask;

    /// First-seen-order group ids over a stream of keys: `lookup(key, next)`
    /// returns the id `key` already has, or claims `next` for it.
    fn assign_ids<K>(
        keys: impl Iterator<Item = K>,
        mut lookup: impl FnMut(&K, u32) -> u32,
    ) -> Grouping<K> {
        let mut group_ids = Vec::with_capacity(keys.size_hint().0);
        let mut group_keys = Vec::new();
        for key in keys {
            let id = lookup(&key, group_keys.len() as u32);
            if id as usize == group_keys.len() {
                group_keys.push(key);
            }
            group_ids.push(id);
        }
        Grouping {
            group_ids,
            group_keys,
        }
    }

    fn arr(env: &Env, width: u32, vals: &[u64]) -> DeviceArray {
        let mut l = CostLedger::new();
        DeviceArray::upload(
            &env.device,
            BitPackedVec::from_slice(width, vals),
            "k",
            &mut l,
        )
        .unwrap()
    }

    #[test]
    fn groups_assigned_in_first_seen_order() {
        let env = Env::paper_default();
        let keys = arr(&env, 4, &[7, 3, 7, 1, 3, 7]);
        let mut ledger = CostLedger::new();
        let g = hash_group(&env, &keys, None, &mut ledger);
        assert_eq!(g.group_ids, vec![0, 1, 0, 2, 1, 0]);
        assert_eq!(g.group_keys, vec![7, 3, 1]);
        assert_eq!(g.n_groups(), 3);
    }

    #[test]
    fn grouping_over_candidates() {
        let env = Env::paper_default();
        let keys = arr(&env, 4, &[5, 6, 5, 6, 7]);
        let c = Candidates {
            oids: vec![4, 0, 2],
            approx: vec![0; 3],
            sorted: false,
            dense: false,
        };
        let mut ledger = CostLedger::new();
        let g = hash_group(&env, &keys, Some(&c), &mut ledger);
        assert_eq!(g.group_ids, vec![0, 1, 1]);
        assert_eq!(g.group_keys, vec![7, 5]);
    }

    #[test]
    fn fewer_groups_cost_more_per_tuple() {
        let env = Env::paper_default();
        let n = 200_000u64;
        let few: Vec<u64> = (0..n).map(|i| i % 4).collect();
        let many: Vec<u64> = (0..n).map(|i| i % 1024).collect();
        let a_few = arr(&env, 10, &few);
        let a_many = arr(&env, 10, &many);
        let mut l_few = CostLedger::new();
        let mut l_many = CostLedger::new();
        let _ = hash_group(&env, &a_few, None, &mut l_few);
        let _ = hash_group(&env, &a_many, None, &mut l_many);
        assert!(
            l_few.breakdown().device > l_many.breakdown().device,
            "write conflicts must make low-cardinality grouping slower: {} vs {}",
            l_few.breakdown().device,
            l_many.breakdown().device
        );
    }

    #[test]
    fn empty_input() {
        let env = Env::paper_default();
        let keys = arr(&env, 4, &[]);
        let mut ledger = CostLedger::new();
        let g = hash_group(&env, &keys, None, &mut ledger);
        assert!(g.group_ids.is_empty());
        assert_eq!(g.n_groups(), 0);
    }

    /// The one-shot grouping this module used to be, one `Vec` key per
    /// row: the oracle for every arm of the [`Grouper`].
    fn group_wide(keys: &[&DeviceArray], oids: &[Oid]) -> MultiGroupResult {
        let mut table: FxHashMap<Vec<u64>, u32> = FxHashMap::default();
        let key_of = |&oid: &Oid| keys.iter().map(|k| k.get(oid as usize)).collect();
        assign_ids(oids.iter().map(key_of), |key: &Vec<u64>, next| {
            *table.entry(key.clone()).or_insert(next)
        })
    }

    /// Every group's key, in id order.
    fn keys_of(g: &Grouper<'_>) -> Vec<Vec<u64>> {
        let keys = g.group_keys();
        keys.chunks(g.keys.len()).map(<[u64]>::to_vec).collect()
    }

    /// Key columns whose stored codes span less than their widths — two to
    /// five of 3..=12 bits, each code between its seeded extrema — number
    /// their cells by mixed radix into a direct-address table where the
    /// widths alone would hash: both assign the `Vec`-keyed oracle's
    /// first-seen ids, in any chunking, and hold its keys.
    #[test]
    fn mixed_radix_cells_group_like_hashed_codes() {
        let env = Env::paper_default();
        let mut rng = bwd_types::SplitMix64::new(0x3a7d);
        let mut direct = 0;
        for _ in 0..200 {
            let n_cols = 2 + rng.below(4) as usize;
            let mut domains = Vec::new();
            let cols: Vec<DeviceArray> = (0..n_cols)
                .map(|_| {
                    let width = 3 + rng.below(10) as u32;
                    let lo = rng.below(1 << width);
                    let hi = (lo + rng.below(1 + (1 << 4))).min(low_mask(width));
                    domains.push((lo, hi));
                    let vals: Vec<u64> = (0..500).map(|_| lo + rng.below(hi - lo + 1)).collect();
                    arr(&env, width, &vals)
                })
                .collect();
            let keys: Vec<&DeviceArray> = cols.iter().collect();
            let oids: Vec<Oid> = (0..500).rev().collect();
            let oracle = group_wide(&keys, &oids);
            let (mut cells, mut hashed) = (Grouper::over(&keys, &domains), Grouper::new(&keys));
            let bits: u32 = cols.iter().map(DeviceArray::width).sum();
            assert_eq!(
                matches!(hashed.table, Table::Direct(_)),
                bits <= DIRECT_BITS
            );
            direct += usize::from(matches!(cells.table, Table::Direct(_)) && bits > DIRECT_BITS);
            for chunk in oids.chunks(1 + rng.below(100) as usize) {
                hashed.observe(chunk);
                cells.observe(chunk);
            }
            for g in [&cells, &hashed] {
                let mut ids = Vec::new();
                g.ids(&oids, &mut ids).unwrap();
                assert_eq!(ids, oracle.group_ids, "{domains:?}");
                assert_eq!(keys_of(g), oracle.group_keys, "{domains:?}");
            }
        }
        assert!(direct > 100, "{direct} of 200 wide keys addressed directly");
    }

    /// One to three key columns of every width up to 32 bits (and one of
    /// 64) — composites of 1..=96 bits, so the direct-address table, the
    /// `u64` hash table and the `Vec`-keyed fallback all run — against the
    /// `Vec`-keyed oracle: same first-seen ids, same keys, and the bill a
    /// function of the widths, the candidate count and the group count
    /// alone — in one shot, and fed in arbitrary chunks (a lookup of any
    /// oids afterwards returns the ids the one shot assigned).
    #[test]
    fn packed_keys_group_like_vec_keys() {
        let env = Env::paper_default();
        let mut rng = bwd_types::SplitMix64::new(0x9a0c);
        let shapes = (1..=3usize).flat_map(|c| (1..=32u32).map(move |w| (c, w)));
        for (n_cols, width) in shapes.chain([(1, 64)]) {
            // Per column a pool of at most four values, the widest included.
            let cols: Vec<DeviceArray> = (0..n_cols)
                .map(|_| {
                    let pool: Vec<u64> = (0..3)
                        .map(|_| rng.next_u64() & low_mask(width))
                        .chain([low_mask(width)])
                        .collect();
                    let vals: Vec<u64> = (0..600).map(|_| pool[rng.below(4) as usize]).collect();
                    arr(&env, width, &vals)
                })
                .collect();
            let keys: Vec<&DeviceArray> = cols.iter().collect();
            let oids: Vec<Oid> = (0..600).rev().step_by(2).collect();
            let cands = Candidates::from_pairs(oids, Vec::new());
            let mut ledger = CostLedger::with_trace();
            let g = hash_group_multi(&env, &keys, &cands, &mut ledger);
            assert_eq!(g, group_wide(&keys, &cands.oids), "{n_cols} x {width}");
            let spec = env.device.spec();
            let gathered = n_cols as u64 * 300 * bwd_device::units::element_access_bytes(width);
            let t = spec.kernel_launch_overhead
                + spec.scattered_seconds(gathered + 300 * 4)
                + 300.0 * conflicts(g.n_groups() as u64) * spec.atomic_conflict_cost;
            let e = &ledger.events()[0];
            assert_eq!((e.bytes, e.seconds), (gathered, t), "{n_cols} x {width}");

            let mut chunked = Grouper::new(&keys);
            let mut rest = cands.oids.as_slice();
            while !rest.is_empty() {
                let (chunk, tail) = rest.split_at(1 + rng.below(rest.len() as u64) as usize);
                chunked.observe(chunk);
                rest = tail;
            }
            assert_eq!(keys_of(&chunked), g.group_keys, "{n_cols} x {width}");
            let mut streamed = CostLedger::with_trace();
            chunked.charge(&env, &mut streamed);
            assert_eq!(streamed.events(), ledger.events(), "{n_cols} x {width}");
            let (mut ids, mut want) = (vec![7], Vec::new());
            for at in [0..300, 0..0, 17..290, 299..300] {
                chunked.ids(&cands.oids[at.clone()], &mut ids).unwrap();
                assert_eq!(ids, g.group_ids[at], "{n_cols} x {width}");
                want.extend_from_slice(&ids);
            }
            assert_eq!(want.len(), 300 + 273 + 1);
            // A key nothing observed is a typed error on every table kind.
            let unobserved = Grouper::new(&keys).ids(&cands.oids[..1], &mut ids);
            assert!(matches!(unobserved, Err(BwdError::InvalidArgument(_))));
        }
    }

    /// The slot function is the concatenation of the stored codes, first
    /// column in the high bits — what `engine/bill.rs:slot_table` decodes a
    /// slot by — so distinct keys never share a slot and every slot is
    /// below `2^Σ widths`: one to three columns of 0..=9 bits together.
    #[test]
    fn the_packed_key_is_the_concatenated_codes() {
        let env = Env::paper_default();
        let mut rng = bwd_types::SplitMix64::new(0x5107);
        for _ in 0..200 {
            let widths: Vec<u32> = (0..1 + rng.below(3)).map(|_| rng.below(4) as u32).collect();
            let cols: Vec<DeviceArray> = (widths.iter())
                .map(|&w| {
                    let vals: Vec<u64> = (0..64).map(|_| rng.next_u64() & low_mask(w)).collect();
                    arr(&env, w, &vals)
                })
                .collect();
            let keys: Vec<&DeviceArray> = cols.iter().collect();
            let bits: u32 = widths.iter().sum();
            let mut slot_of: FxHashMap<u64, Vec<u64>> = FxHashMap::default();
            for oid in 0..64 {
                let (slot, key) = (packed_key_of(&keys, oid), key_of(&keys, oid));
                assert!(slot < 1 << bits, "{widths:?}: slot {slot}");
                let (mut rest, mut decoded) = (slot, vec![0; key.len()]);
                for (code, &w) in decoded.iter_mut().zip(&widths).rev() {
                    (*code, rest) = (rest & low_mask(w), rest >> w);
                }
                assert_eq!(decoded, key, "{widths:?}: slot {slot}");
                assert_eq!(*slot_of.entry(slot).or_insert(key.clone()), key);
            }
        }
    }

    #[test]
    fn multi_column_grouping() {
        let env = Env::paper_default();
        // (flag, status) pairs: (0,0) (0,1) (1,0) (0,0) ...
        let flag = arr(&env, 1, &[0, 0, 1, 0, 1]);
        let status = arr(&env, 1, &[0, 1, 0, 0, 0]);
        let cands = Candidates {
            oids: (0..5).collect(),
            approx: vec![0; 5],
            sorted: true,
            dense: true,
        };
        let mut ledger = CostLedger::new();
        let g = hash_group_multi(&env, &[&flag, &status], &cands, &mut ledger);
        assert_eq!(g.n_groups(), 3);
        assert_eq!(g.group_ids, vec![0, 1, 2, 0, 2]);
        assert_eq!(g.group_keys[0], vec![0, 0]);
        assert_eq!(g.group_keys[1], vec![0, 1]);
        assert_eq!(g.group_keys[2], vec![1, 0]);
        assert!(ledger.breakdown().device > 0.0);
    }
}
