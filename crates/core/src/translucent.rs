//! The translucent join (Algorithm 1) and its invisible fast path.
//!
//! Refinement operators constantly join a *refined* (smaller) tuple-id
//! list against the *approximate* (larger) list that carries values for
//! those tuples. This join is not generic: at runtime the operator knows
//! (§IV-A) that
//!
//! 1. both id sets are unique,
//! 2. the smaller set is a subset of the larger, and
//! 3. both share one permutation (order-changing operators are never
//!    placed between an approximation and its refinement).
//!
//! Under those conditions a single merge pass suffices *without sortedness*:
//! advance the cursor on the large side until it matches the current small
//! element — `O(|A| + |B|)` memory accesses, `O(|A|)` comparisons. When the
//! large side's ids are sorted **and** dense, matching positions can be
//! computed directly (the *invisible* join of column-store lore), skipping
//! the merge entirely.

use bwd_types::{BwdError, Oid, Result};

/// How a translucent join was executed (exposed for tests and
/// diagnostics).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JoinPath {
    /// Positional lookup: the outer ids were sorted and dense.
    Invisible,
    /// Cursor merge over a shared permutation.
    Translucent,
}

/// Join each id in `b_ids` (the subset side) with its value in the
/// enumerated relation `(a_ids, a_vals)` (the superset side), invoking
/// `emit(b_index, a_value)` for every match in `b_ids` order. Refinement
/// operators fuse their reconstruction + predicate re-evaluation into this
/// single pass (Algorithm 2's one-loop optimization).
///
/// `a_dense_base`: when the superset ids are known to be `base..base+n`
/// (sorted + dense), pass `Some(base)` to take the invisible path.
///
/// # Errors
/// Returns an execution error if the preconditions are violated (a `b` id
/// missing from `a_ids`, or appearing out of order) — this is a plan bug,
/// not a data condition, but it is checked in release builds too because
/// silent misalignment would corrupt results.
pub fn translucent_join_with<T: Copy>(
    a_ids: &[Oid],
    a_vals: &[T],
    a_dense_base: Option<Oid>,
    b_ids: &[Oid],
    mut emit: impl FnMut(usize, T),
) -> Result<JoinPath> {
    debug_assert_eq!(a_ids.len(), a_vals.len());
    if let Some(base) = a_dense_base {
        for (bi, &b) in b_ids.iter().enumerate() {
            let idx = (b.wrapping_sub(base)) as usize;
            let v = a_vals.get(idx).ok_or_else(|| {
                BwdError::Exec(format!("invisible join: oid {b} outside dense range"))
            })?;
            emit(bi, *v);
        }
        return Ok(JoinPath::Invisible);
    }
    let mut ia = 0usize;
    for (bi, &b) in b_ids.iter().enumerate() {
        loop {
            let Some(&a) = a_ids.get(ia) else {
                return Err(BwdError::Exec(format!(
                    "translucent join: oid {b} not found — permutation precondition violated"
                )));
            };
            ia += 1;
            if a == b {
                emit(bi, a_vals[ia - 1]);
                break;
            }
        }
    }
    Ok(JoinPath::Translucent)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The join's values, materialized in `b_ids` order.
    fn translucent_values<T: Copy>(
        a_ids: &[Oid],
        a_vals: &[T],
        a_dense_base: Option<Oid>,
        b_ids: &[Oid],
    ) -> Result<(Vec<T>, JoinPath)> {
        let mut out = Vec::with_capacity(b_ids.len());
        let path = translucent_join_with(a_ids, a_vals, a_dense_base, b_ids, |_, v| out.push(v))?;
        Ok((out, path))
    }

    /// The oracle of the translucent join's property: a hash join over the
    /// same input shape — build on A, probe with B. Requires conditions
    /// 1–2 but *not* the shared permutation.
    fn hash_join_baseline<T: Copy>(a_ids: &[Oid], a_vals: &[T], b_ids: &[Oid]) -> Result<Vec<T>> {
        let table: bwd_types::FxHashMap<Oid, T> =
            a_ids.iter().copied().zip(a_vals.iter().copied()).collect();
        b_ids
            .iter()
            .map(|b| {
                table
                    .get(b)
                    .copied()
                    .ok_or_else(|| BwdError::Exec(format!("hash join: oid {b} not found")))
            })
            .collect()
    }

    #[test]
    fn paper_figure5_example() {
        // Figure 5: A (approximation) ids [3,9,1,5,2,7] ⊃ B (residual-side)
        // ids [9,1,5,7] in the same relative order.
        let a_ids = [3, 9, 1, 5, 2, 7];
        let a_vals = [0, 80, 16, 48, 16, 32];
        let b_ids = [9, 1, 5, 7];
        let (vals, path) = translucent_values(&a_ids, &a_vals, None, &b_ids).unwrap();
        assert_eq!(vals, vec![80, 16, 48, 32]);
        assert_eq!(path, JoinPath::Translucent);
    }

    #[test]
    fn invisible_fast_path_on_dense_ids() {
        let a_ids: Vec<Oid> = (100..200).collect();
        let a_vals: Vec<i64> = (0..100).map(|i| i * 2).collect();
        let b_ids = [150, 101, 199]; // any order works positionally
        let (vals, path) = translucent_values(&a_ids, &a_vals, Some(100), &b_ids).unwrap();
        assert_eq!(vals, vec![100, 2, 198]);
        assert_eq!(path, JoinPath::Invisible);
    }

    #[test]
    fn detects_missing_id() {
        let a_ids = [1, 2, 3];
        let a_vals = [10, 20, 30];
        assert!(translucent_values(&a_ids, &a_vals, None, &[5]).is_err());
        assert!(translucent_values(&a_ids, &a_vals, Some(1), &[5]).is_err());
    }

    #[test]
    fn detects_permutation_violation() {
        // B out of order relative to A: 3 appears after 1 in A, so [3, 1]
        // violates condition 3 and must error (cursor already past 1).
        let a_ids = [1, 3];
        let a_vals = [10, 30];
        assert!(translucent_values(&a_ids, &a_vals, None, &[3, 1]).is_err());
    }

    #[test]
    fn empty_subset_and_empty_superset() {
        let (vals, _) = translucent_values::<i64>(&[1, 2], &[1, 2], None, &[]).unwrap();
        assert!(vals.is_empty());
        assert!(translucent_values::<i64>(&[], &[], None, &[1]).is_err());
        let (vals, _) = translucent_values::<i64>(&[], &[], None, &[]).unwrap();
        assert!(vals.is_empty());
    }

    #[test]
    fn emits_the_subset_index_with_each_value() {
        let a_ids = [7, 2, 9, 4];
        let a_vals = [70, 20, 90, 40];
        let b_ids = [2, 4];
        let mut seen = Vec::new();
        let path = translucent_join_with(&a_ids, &a_vals, None, &b_ids, |bi, v| seen.push((bi, v)))
            .unwrap();
        assert_eq!(path, JoinPath::Translucent);
        assert_eq!(seen, vec![(0, 20), (1, 40)]);
    }

    #[test]
    fn hash_baseline_handles_any_order() {
        let a_ids = [1, 3, 5];
        let a_vals = [10, 30, 50];
        // Order violation is fine for the hash join.
        let vals = hash_join_baseline(&a_ids, &a_vals, &[5, 1]).unwrap();
        assert_eq!(vals, vec![50, 10]);
        assert!(hash_join_baseline(&a_ids, &a_vals, &[2]).is_err());
    }

    proptest! {
        /// Any subset of a shuffled id list, taken in the same relative
        /// order, joins correctly and agrees with the hash baseline.
        #[test]
        fn prop_translucent_equals_hash(
            n in 1usize..300,
            seed in any::<u64>(),
            keep_mask in any::<u64>(),
        ) {
            // Deterministic shuffle of ids 0..n.
            let mut ids: Vec<Oid> = (0..n as Oid).collect();
            let mut s = seed | 1;
            for i in (1..ids.len()).rev() {
                s = s.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                ids.swap(i, (s % (i as u64 + 1)) as usize);
            }
            let vals: Vec<u64> = ids.iter().map(|&i| i as u64 * 7).collect();
            // Subsequence selection.
            let b_ids: Vec<Oid> = ids
                .iter()
                .enumerate()
                .filter(|(i, _)| (keep_mask >> (i % 64)) & 1 == 1)
                .map(|(_, &id)| id)
                .collect();
            let (tl, path) = translucent_values(&ids, &vals, None, &b_ids).unwrap();
            let hj = hash_join_baseline(&ids, &vals, &b_ids).unwrap();
            prop_assert_eq!(&tl, &hj);
            prop_assert_eq!(path, JoinPath::Translucent);
            for (i, v) in b_ids.iter().zip(&tl) {
                prop_assert_eq!(*v, *i as u64 * 7);
            }
        }
    }
}
