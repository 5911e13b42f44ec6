//! The one chooser. A run may execute any plan that returns the bound
//! plan's rows: its selections in another order (σ_p∘σ_q = σ_q∘σ_p), its
//! tail folding co-factors into the grouping (Σ(c·x + d) =
//! c·Σx + d·N over the tail's exact integers, arxiv 2207.00850). So one
//! enumeration, one price — the bill over predicted counts — and one tie
//! rule pick both (ARCHITECTURE.md, "The bill").

use super::predict::domain;
use super::{locate, pick, Shape};
use crate::catalog::Catalog;
use crate::database::{Database, ExecMode};
use crate::tail::degree;
use bwd_core::plan::ArPlan;
use bwd_device::Env;
use std::borrow::Cow;

/// Chains up to this long try every order of their selections (6! = 720);
/// longer ones run their predicted keep shares ascending.
const PRICED_CHAIN: usize = 6;

/// The plan a run of `plan` in `mode` on `env` executes: the one its own
/// pipe's bill prices cheapest. [`Database::run_counted`] — every
/// `Database::run*` entry point — runs this plan, and the scheduler's
/// footprint prices it, so an estimate is the bill of the plan that runs.
///
/// The space is orders × folds. The orders: every permutation of a chain
/// of at most `PRICED_CHAIN` selections, in lexicographic order from the
/// plan's own; their predicted keep shares ascending past that. Each
/// order runs plain, then folding each set `fold_sets` admits — a fold
/// the plan carries is decided afresh. Each pipe pays its own way: A&R by
/// what the granules admit, Classic by the width it fetches. A candidate's
/// price is its bill over the counts [`Shape::predict`] predicts for it,
/// and the bill's `pick` decides, so a chosen plan chooses itself.
/// A lone candidate is not priced, and one that does not resolve is
/// infeasible. `plan` comes back borrowed where it wins, and where no
/// candidate resolves (its run reports why).
pub fn order<'p>(db: &Database, plan: &'p ArPlan, mode: &ExecMode, env: &Env) -> Cow<'p, ArPlan> {
    cheapest(db, plan, mode, env).1
}

/// [`order`], and per step the index of the chosen plan's selection in
/// `plan` (what the run's trace reports): the one place candidates are
/// built and priced.
pub(crate) fn cheapest<'p>(
    db: &Database,
    plan: &'p ArPlan,
    mode: &ExecMode,
    env: &Env,
) -> (Vec<usize>, Cow<'p, ArPlan>) {
    let sels = &plan.selections;
    let own: Vec<usize> = (0..sels.len()).collect();
    let mut orders = vec![own.clone()];
    if sels.len() > PRICED_CHAIN {
        if let Ok(shape) = Shape::resolve(db, plan, mode, env) {
            let share = |&i: &usize| shape.keep(i).unwrap_or(f64::INFINITY);
            orders[0].sort_by(|a, b| share(a).total_cmp(&share(b)));
        }
    } else {
        let mut perm = own.clone();
        while next_permutation(&mut perm) {
            orders.push(perm.clone());
        }
    }
    let mut folds = vec![Vec::new()];
    folds.extend(fold_sets(db.catalog(), plan));
    let arranged = |k: usize| ArPlan {
        selections: (orders[k / folds.len()].iter())
            .map(|&i| sels[i].clone())
            .collect(),
        fold: folds[k % folds.len()].clone(),
        ..plan.clone()
    };
    let price = |k: usize| {
        let candidate = arranged(k);
        let shape = Shape::resolve(db, &candidate, mode, env).ok()?;
        Some(shape.bill(&shape.predict(), env).total())
    };
    let chosen = match orders.len() * folds.len() {
        1 => Some(0),
        n => pick((0..n).map(|k| (k, price(k)))),
    };
    match chosen.map(|k| (orders[k / folds.len()].clone(), arranged(k))) {
        Some((order, chosen)) if chosen != *plan => (order, Cow::Owned(chosen)),
        _ => (own, Cow::Borrowed(plan)),
    }
}

/// Step `perm` to its lexicographic successor; `false`, leaving it as it
/// is, at the last one.
fn next_permutation(perm: &mut [usize]) -> bool {
    let Some(i) = (1..perm.len()).rfind(|&i| perm[i - 1] < perm[i]) else {
        return false;
    };
    // `perm[i]` itself is larger than `perm[i - 1]`: the search finds one.
    let j = (i..perm.len())
        .rfind(|&j| perm[j] > perm[i - 1])
        .unwrap_or(i);
    perm.swap(i - 1, j);
    perm[i..].reverse();
    true
}

/// Fold sets are drawn from at most this many columns, the ones of the
/// smallest domains: at most 2^6 − 1 sets.
const FOLD_COLUMNS: usize = 6;

/// Every co-factor set F `plan`'s tail can fold into its grouping — none
/// where it cannot (ARCHITECTURE.md, "The fold"). The plan is grouped and
/// every aggregate is a `sum`, `avg` or `count`; F is a set of fact-side
/// columns the aggregates read and the plan does not group by, such that
/// each aggregate reads at most one column outside K ∪ F — its measure —
/// and is of degree ≤ 1 in it. In first-reference order, each set too.
pub(super) fn fold_sets(catalog: &Catalog, plan: &ArPlan) -> Vec<Vec<String>> {
    use bwd_core::plan::AggFunc::{Avg, Count, Sum};
    let summable = plan
        .aggs
        .iter()
        .all(|a| matches!(a.func, Sum | Avg | Count));
    if plan.group_by.is_empty() || plan.aggs.is_empty() || !summable {
        return Vec::new();
    }
    let reads: Vec<Vec<String>> = (plan.aggs.iter())
        .map(|a| {
            let mut read = Vec::new();
            a.arg.iter().for_each(|e| e.collect_columns(&mut read));
            read
        })
        .collect();
    let fact_domain = |name: &str| match locate(plan, name) {
        Ok((table, col, false)) => Some(domain(catalog.table(table).ok()?.column(col).ok()?)),
        _ => None,
    };
    let mut pool: Vec<(usize, &String, f64)> = Vec::new();
    for c in reads.iter().flatten() {
        if !plan.group_by.contains(c) && pool.iter().all(|p| p.1 != c) {
            pool.extend(fact_domain(c).map(|d| (pool.len(), c, d)));
        }
    }
    pool.sort_by(|a, b| a.2.total_cmp(&b.2));
    pool.truncate(FOLD_COLUMNS);
    pool.sort_by_key(|p| p.0);
    let admits = |fold: &[String]| {
        plan.aggs.iter().zip(&reads).all(|(a, read)| {
            let mut outside =
                (read.iter()).filter(|c| !plan.group_by.contains(c) && !fold.contains(c));
            let x = outside.next().map_or("", String::as_str);
            let degree = a.arg.as_ref().map_or(Some(0), |e| degree(e, x));
            outside.all(|c| c == x) && degree.is_some_and(|d| d <= 1)
        })
    };
    (1..1usize << pool.len())
        .map(|set| {
            let members = pool.iter().enumerate().filter(|&(i, _)| set >> i & 1 == 1);
            members.map(|(_, p)| p.1.clone()).collect::<Vec<_>>()
        })
        .filter(|fold| admits(fold))
        .collect()
}

#[cfg(test)]
pub(super) mod tests {
    use super::*;
    use crate::arexec::{tests::run_ar_sliced, ArExecOptions};
    use crate::bill::tests::{agg, arranged, between, db, fold_sets};
    use crate::classic::tests::run_classic_sliced;
    use crate::tail::SLICE_ROWS;
    use bwd_core::plan::{AggFunc, BinOp, LogicalPlan, RewriteOptions, ScalarExpr as E};
    use bwd_device::CostLedger;
    use bwd_types::{SplitMix64, Value};

    /// The rows of `plan`, run as it stands in `mode`'s pipe on [`db`]
    /// over `morsels` workers and tail slices of `slice` rows.
    fn rows(db: &Database, plan: &ArPlan, mode: &ExecMode, morsels: usize, slice: usize) -> String {
        let (env, ledger) = (db.env(), &mut CostLedger::new());
        let run = match mode {
            ExecMode::Classic => {
                let fk = db.fk_index("t", "fk").unwrap().device().data();
                run_classic_sliced(db.catalog(), plan, Some(fk), env, morsels, slice, ledger)
            }
            _ => run_ar_sliced(
                db,
                plan,
                &ArExecOptions::default(),
                env,
                morsels,
                slice,
                ledger,
            ),
        };
        format!("{:?}", run.unwrap().rows)
    }

    /// Every plan the chooser weighs for `plan`: per permutation of the
    /// chain, in lexicographic order from the plan's own, the plain form,
    /// then folding each co-factor set it can fold.
    fn candidates(db: &Database, plan: &ArPlan) -> Vec<ArPlan> {
        let sets = fold_sets(db, plan);
        let mut perm: Vec<usize> = (0..plan.selections.len()).collect();
        let mut candidates = Vec::new();
        loop {
            candidates.push(arranged(plan, &perm, &[]));
            candidates.extend(sets.iter().map(|f| arranged(plan, &perm, f)));
            if !next_permutation(&mut perm) {
                return candidates;
            }
        }
    }

    /// The chooser's space for a plan in `mode` on `env`, enumerated apart
    /// from it ([`candidates`]). The plan [`order`] picks is one of
    /// them, its predicted bill at most every candidate's and below every
    /// earlier one's, and [`cheapest`] reports its chain. Returns the
    /// candidates and the pick's place among them.
    pub(in crate::bill) fn the_pick_is_the_cheapest(
        db: &Database,
        plan: &ArPlan,
        mode: &ExecMode,
        env: &Env,
        ctx: &str,
    ) -> (Vec<ArPlan>, usize) {
        let candidates = candidates(db, plan);
        let bills: Vec<f64> = (candidates.iter())
            .map(|c| {
                let shape = Shape::resolve(db, c, mode, env).unwrap();
                shape.bill(&shape.predict(), env).total()
            })
            .collect();
        let (chain, chosen) = cheapest(db, plan, mode, env);
        let at = candidates.iter().position(|c| *c == *chosen).unwrap();
        assert_eq!(arranged(plan, &chain, &chosen.fold), *chosen, "{ctx}");
        for (k, bill) in bills.iter().enumerate() {
            let (pick, other) = (&candidates[at], &candidates[k]);
            assert!(bills[at] <= *bill, "{ctx}: {pick:?} over {other:?}");
            assert!(k >= at || bills[at] < *bill, "{ctx}: tie past {other:?}");
        }
        (candidates, at)
    }

    /// The columns a generated chain draws from, each with the largest
    /// value it holds: split `d, e, h, w`, resident `g, v`, and `dim.y`
    /// (split) behind `fk`.
    const LAW_COLUMNS: [(&str, i64); 7] = [
        ("d", 19_999),
        ("e", 999),
        ("h", 299),
        ("w", 4_999),
        ("g", 6),
        ("v", 999),
        ("dim.y", 4_900),
    ];

    /// The chooser's laws, over seeded chains of 2–4 selections drawn from
    /// [`LAW_COLUMNS`] (every other one with the dimension predicate, every
    /// third with an empty range) under a grouped device tail (`v` folds),
    /// a host tail, a bare count and `sum(v * (1 - k3))` by `g`, in
    /// both pipes: every order × fold candidate returns the same rows
    /// (σ_p∘σ_q = σ_q∘σ_p, and the fold's roll-up); the pick's predicted
    /// bill is at most every candidate's, the earliest among equals
    /// ([`the_pick_is_the_cheapest`]); choosing for the chosen plan returns
    /// it, borrowed — and in each pipe some chain's bound plan is not the
    /// cheapest. A plan with one selection comes back borrowed; a chain past
    /// [`PRICED_CHAIN`] runs its predicted keep shares in ascending order.
    #[test]
    fn the_chain_order_laws() {
        use {AggFunc::*, BinOp::*};
        let (db, env) = (db(), db().env());
        let rng = &mut SplitMix64::new(27);
        let sum = |c: &str| agg(Sum, Some(E::col(c)));
        let bind = |plan: &LogicalPlan| db.bind(plan, &RewriteOptions::default());
        let modes = [ExecMode::Classic, ExecMode::ApproxRefine];
        // Per pipe, the cases whose bound plan was not the cheapest.
        let mut moved = [0; 2];
        for case in 0..16 {
            let mut columns: Vec<_> = LAW_COLUMNS[..6].to_vec();
            let steps = 2 + rng.below(3) as usize;
            let mut drawn = Vec::new();
            if case % 2 == 0 {
                drawn.push(LAW_COLUMNS[6]);
            }
            while drawn.len() < steps {
                drawn.push(columns.swap_remove(rng.below(columns.len() as u64) as usize));
            }
            let mut scan = LogicalPlan::scan("t").fk_join("fk", "dim");
            for (k, &(column, max)) in drawn.iter().enumerate() {
                let (lo, hi) = match case % 3 == 0 && k == steps - 1 {
                    true => (max, max / 2),
                    false => {
                        let lo = rng.below(max as u64 + 1) as i64;
                        (lo, lo + rng.below((max - lo) as u64 + 1) as i64)
                    }
                };
                scan = scan.filter(between(column, lo, hi));
            }
            let discounted =
                E::col("v").binary(Mul, E::Literal(Value::Int(1)).binary(Sub, E::col("k3")));
            let (groups, aggs) = match case % 4 {
                0 => (vec!["g".into()], vec![sum("v"), agg(Count, None)]),
                1 => (vec![], vec![sum("w")]),
                2 => (vec![], vec![agg(Count, None)]),
                _ => (vec!["g".into()], vec![agg(Sum, Some(discounted))]),
            };
            let plan = bind(&scan.aggregate(groups, aggs)).unwrap();
            assert_eq!(plan.selections.len(), steps, "case {case}");
            let foldable = !fold_sets(db, &plan).is_empty();
            assert_eq!(foldable, case % 4 == 0 || case % 4 == 3, "case {case}");
            let mut want = None;
            for (m, mode) in modes.iter().enumerate() {
                let ctx = format!("case {case} {mode:?} {:?}", plan.selections);
                let (candidates, at) = the_pick_is_the_cheapest(db, &plan, mode, env, &ctx);
                for c in &candidates {
                    let got = rows(db, c, mode, 1, SLICE_ROWS);
                    let ctx = format!("{ctx} {:?} {:?}", c.selections, c.fold);
                    assert_eq!(want.get_or_insert_with(|| got.clone()), &got, "{ctx}");
                }
                moved[m] += usize::from(at > 0);
                let chosen = order(db, &plan, mode, env);
                let again = order(db, &chosen, mode, env);
                assert!(
                    matches!(again, Cow::Borrowed(p) if std::ptr::eq(p, &*chosen)),
                    "{ctx}"
                );
            }
        }
        assert!(moved.iter().all(|&n| n > 0), "{moved:?}");

        let count = || vec![agg(Count, None)];
        let one = LogicalPlan::scan("t").filter(between("d", 5, 50));
        let mut seven = LogicalPlan::scan("t").fk_join("fk", "dim");
        for &(column, max) in LAW_COLUMNS.iter().rev() {
            seven = seven.filter(between(column, 0, max / 3));
        }
        let (one, seven) = (
            one.aggregate(vec![], count()),
            seven.aggregate(vec![], count()),
        );
        let plan = bind(&one).unwrap();
        for mode in &modes {
            let ordered = order(db, &plan, mode, env);
            assert!(matches!(ordered, Cow::Borrowed(p) if std::ptr::eq(p, &plan)));
        }
        let plan = bind(&seven).unwrap();
        let ordered = order(db, &plan, &modes[1], env);
        let shape = Shape::resolve(db, &ordered, &modes[1], env).unwrap();
        let shares: Vec<f64> = (0..7).map(|i| shape.keep(i).unwrap()).collect();
        assert!(shares.windows(2).all(|w| w[0] <= w[1]), "{shares:?}");
        assert_eq!(plan.selections.len(), 7);
    }

    /// The fold's laws (ARCHITECTURE.md, "The fold"), over seeded grouped
    /// plans on [`db`]: group keys among `g, k1, k2` (and the split `h`,
    /// which the host groups by), a measure among `v, w` (`w` split: a host
    /// tail) or the group key `g`, and co-factors among `k1, k2, k3`, in
    /// aggregates that must fold — the measure times `1 − k`, times `k₁·k₂`
    /// plus `k₁`, a pure-key `avg(k)`, a degree-2 measure (folded itself),
    /// a measure behind the join (the fact column beside it folds), a fold
    /// table past shared memory, a lone `sum(v)` — and plans that must not:
    /// a `/`, a `CASE`, a `min`, a `max`, two columns behind the join. In
    /// both pipes, at 1 and 3 workers and slices of [`SLICE_ROWS`] and
    /// 1 000 rows: every fold set's rows are the plain rows are the
    /// row-at-a-time oracle's, bit for bit; the form [`order`] keeps is the
    /// one the bill predicts cheapest, the plain one on a tie
    /// ([`the_pick_is_the_cheapest`]); ordering its plan returns it
    /// borrowed, and a fold the input carries is decided afresh; and the
    /// chosen run's counts bill its breakdown to the bit. Each pipe folds
    /// some plan.
    #[test]
    fn the_fold_laws() {
        use crate::tail::tests::oracle;
        use {AggFunc::*, BinOp::*};
        let db = db();
        let env = db.env();
        let rng = &mut SplitMix64::new(28);
        let col = |c: &str| E::col(c);
        let one = || E::Literal(Value::Int(1));
        let t = || {
            LogicalPlan::scan("t")
                .fk_join("fk", "dim")
                .filter(between("d", 100, 15_000))
        };
        let bind = |plan: LogicalPlan| db.bind(&plan, &RewriteOptions::default()).unwrap();
        let mut cases = Vec::new();
        for _ in 0..10 {
            let keys = [&["g"][..], &["k1"], &["k2"], &["g", "k1"]][rng.below(4) as usize];
            let measure = ["v", "w"][rng.below(2) as usize];
            let mut cofactors: Vec<&str> = ["k1", "k2", "k3"]
                .into_iter()
                .filter(|k| !keys.contains(k))
                .collect();
            while cofactors.len() > 2 {
                cofactors.swap_remove(rng.below(cofactors.len() as u64) as usize);
            }
            let (m, k1, k2) = (|| col(measure), || col(cofactors[0]), || col(cofactors[1]));
            let mut aggs = vec![match rng.below(2) {
                0 => agg(Sum, Some(m().binary(Mul, one().binary(Sub, k1())))),
                _ => agg(
                    Sum,
                    Some(m().binary(Mul, k1()).binary(Mul, k2()).binary(Add, k1())),
                ),
            }];
            let more = [
                agg(Avg, Some(k1())),
                agg(Avg, Some(m())),
                agg(Count, None),
                agg(Sum, Some(k2().binary(Sub, one()))),
            ];
            aggs.extend(more.into_iter().filter(|_| rng.below(2) == 0));
            let keys = keys.iter().map(|k| k.to_string()).collect();
            cases.push((true, bind(t().aggregate(keys, aggs))));
        }
        let fold = || {
            agg(
                Sum,
                Some(col("v").binary(Mul, one().binary(Sub, col("k3")))),
            )
        };
        let when = Box::new(between("k3", 0, 3));
        let case = E::Case {
            when,
            then: Box::new(col("v")),
            otherwise: Box::new(E::Literal(Value::Int(0))),
        };
        let times_one_minus_k1 =
            |m: &str| agg(Sum, Some(col(m).binary(Mul, one().binary(Sub, col("k1")))));
        for (group_by, aggs, folds) in [
            // The host groups by the split key.
            (
                "h",
                vec![times_one_minus_k1("v"), agg(Avg, Some(col("k1")))],
                true,
            ),
            // The measure is a group key: no row sums it.
            (
                "g",
                vec![times_one_minus_k1("g"), agg(Avg, Some(col("g")))],
                true,
            ),
            (
                "g",
                vec![
                    fold(),
                    agg(Sum, Some(col("v").binary(Div, E::Literal(Value::Int(2))))),
                ],
                false,
            ),
            ("g", vec![fold(), agg(Sum, Some(case))], false),
            ("g", vec![fold(), agg(Min, Some(col("v")))], false),
            ("g", vec![fold(), agg(Max, Some(col("g")))], false),
            // A degree-2 measure folds into the key itself.
            (
                "g",
                vec![fold(), agg(Sum, Some(col("v").binary(Mul, col("v"))))],
                true,
            ),
            // `dim.x` is the measure, `v` the co-factor.
            (
                "g",
                vec![agg(Sum, Some(col("v").binary(Mul, col("dim.x"))))],
                true,
            ),
            (
                "g",
                vec![agg(Sum, Some(col("dim.y").binary(Mul, col("dim.x"))))],
                false,
            ),
            // 4 × 512 fold groups of two accumulators: past shared memory.
            (
                "k2",
                vec![agg(Sum, Some(col("v").binary(Mul, col("k9"))))],
                true,
            ),
            ("g", vec![agg(Sum, Some(col("v"))), agg(Count, None)], true),
        ] {
            cases.push((folds, bind(t().aggregate(vec![group_by.into()], aggs))));
        }
        let modes = [ExecMode::Classic, ExecMode::ApproxRefine];
        let mut chose_fold = [0; 2];
        for (must_fold, plan) in &cases {
            let ctx = format!("{:?} by {:?}", plan.aggs, plan.group_by);
            let sets = fold_sets(db, plan);
            assert_eq!(!sets.is_empty(), *must_fold, "{ctx}");
            let forms: Vec<ArPlan> = (sets.iter())
                .map(|fold| arranged(plan, &[0], fold))
                .collect();
            let folded = forms.last().unwrap_or(plan);
            let want = format!("{:?}", oracle(db, plan).unwrap().0);
            for (m, mode) in modes.iter().enumerate() {
                for form in std::iter::once(plan).chain(&forms) {
                    for (morsels, slice) in [(1, SLICE_ROWS), (3, SLICE_ROWS), (1, 1000), (3, 1000)]
                    {
                        let tag =
                            format!("{ctx} {mode:?} fold {:?} x{morsels} /{slice}", form.fold);
                        assert_eq!(rows(db, form, mode, morsels, slice), want, "{tag}");
                    }
                }
                the_pick_is_the_cheapest(db, plan, mode, env, &format!("{ctx} {mode:?}"));
                let chosen = order(db, plan, mode, env);
                assert_eq!(*order(db, folded, mode, env), *chosen, "{ctx} {mode:?}");
                chose_fold[m] += usize::from(!chosen.fold.is_empty());
                let again = order(db, &chosen, mode, env);
                assert!(
                    matches!(again, Cow::Borrowed(p) if std::ptr::eq(p, &*chosen)),
                    "{ctx} {mode:?}"
                );
                let (run, counts, _) = db.run_counted(plan, mode.clone(), env, 1, None).unwrap();
                assert_eq!(format!("{:?}", run.rows), want, "{ctx} {mode:?}");
                let shape = Shape::resolve(db, &chosen, mode, env).unwrap();
                assert_eq!(shape.bill(&counts, env), run.breakdown, "{ctx} {mode:?}");
            }
        }
        assert!(chose_fold.iter().all(|&n| n > 0), "{chose_fold:?}");
    }

    /// A run of `plan` as it stands in `mode` on `env` over the `tpch`
    /// fixture's tables: its rows and its bill's total.
    fn run_bill(db: &Database, plan: &ArPlan, mode: &ExecMode, env: &Env) -> (String, f64) {
        let ledger = &mut CostLedger::new();
        let run = match mode {
            ExecMode::Classic => {
                let link = db.fk_index("lineitem", "l_partkey").unwrap();
                let link = plan.fk_join.as_ref().map(|_| link.device().data());
                run_classic_sliced(db.catalog(), plan, link, env, 1, SLICE_ROWS, ledger)
            }
            _ => {
                let opts = ArExecOptions::default();
                run_ar_sliced(db, plan, &opts, env, 1, SLICE_ROWS, ledger)
            }
        };
        let run = run.unwrap();
        (format!("{:?}", run.rows), run.breakdown.total())
    }

    /// The pick's *run* bill is the least. For each of the benchmark's
    /// statements at a small scale ([`crate::bill::tests::tpch`]), in both
    /// pipes, at one host thread — where the device refines Q1 and Q14 —
    /// and at 16, where the host does: every order × fold candidate runs
    /// through the executor as it stands, returns the rows of the plan
    /// [`order`] picks, and bills at least what that plan's run bills. So a
    /// placement the bill prices cannot buy a pick that runs dearer.
    #[test]
    fn the_picks_run_bill_is_the_least() {
        let (db, plans) = crate::bill::tests::tpch();
        for (name, plan) in plans {
            for mode in [ExecMode::Classic, ExecMode::ApproxRefine] {
                for threads in [1, 16] {
                    let env = db.env().clone().host_threads(threads);
                    let ctx = format!("{name} {mode:?} at {threads} threads");
                    let (rows, least) = run_bill(db, &order(db, plan, &mode, &env), &mode, &env);
                    for c in candidates(db, plan) {
                        let (got, bill) = run_bill(db, &c, &mode, &env);
                        assert_eq!(got, rows, "{ctx}: {:?} {:?}", c.selections, c.fold);
                        assert!(least <= bill, "{ctx}: {least} over {bill} of {c:?}");
                    }
                }
            }
        }
    }

    /// Q1 offers eight fold sets beside its plain plan: any two or all
    /// three of price, discount and tax — `sum(price·(1 − disc)·(1 +
    /// tax))` leaves at most one of them outside the keys —, each with and
    /// without the quantity. Each set is one the tail compiles, and every
    /// other set of the four columns fails to compile. A `min`, a `max`, a
    /// `CASE` or a `/` anywhere leaves nothing to fold.
    #[test]
    fn the_fold_sets_are_every_admissible_one() {
        let (db, plans) = crate::bill::tests::tpch();
        let q1 = &plans.iter().find(|(n, _)| *n == "q1").unwrap().1;
        let sets = fold_sets(db, q1);
        let names = |set: usize| -> Vec<String> {
            let cols = ["l_quantity", "l_extendedprice", "l_discount", "l_tax"];
            let members = cols.iter().enumerate().filter(|&(i, _)| set >> i & 1 == 1);
            members.map(|(_, c)| c.to_string()).collect()
        };
        let want: Vec<Vec<String>> = [6, 7, 10, 11, 12, 13, 14, 15].map(names).to_vec();
        assert_eq!(sets, want);
        assert_eq!(candidates(db, q1).len(), 1 + 8);
        for set in 1..16 {
            let plan = arranged(q1, &[0], &names(set));
            let compiles = Shape::resolve(db, &plan, &ExecMode::Classic, db.env()).is_ok();
            assert_eq!(compiles, want.contains(&plan.fold), "{:?}", plan.fold);
        }

        use {AggFunc::*, BinOp::*};
        let db = crate::bill::tests::db();
        let (v, k3) = (|| E::col("v"), || E::col("k3"));
        let discounted = agg(
            Sum,
            Some(v().binary(Mul, E::Literal(Value::Int(1)).binary(Sub, k3()))),
        );
        let case = E::Case {
            when: Box::new(between("k3", 0, 3)),
            then: Box::new(v()),
            otherwise: Box::new(E::Literal(Value::Int(0))),
        };
        for decline in [
            agg(Min, Some(v())),
            agg(Max, Some(k3())),
            agg(Sum, Some(case)),
            agg(Avg, Some(v().binary(Div, k3()))),
        ] {
            let plan = LogicalPlan::scan("t")
                .filter(between("d", 100, 15_000))
                .aggregate(vec!["g".into()], vec![discounted.clone(), decline]);
            let plan = db.bind(&plan, &RewriteOptions::default()).unwrap();
            assert_eq!(
                fold_sets(db, &plan),
                Vec::<Vec<String>>::new(),
                "{:?}",
                plan.aggs
            );
        }
    }

    /// Folding the quantity pays where the device's accumulator updates
    /// cost more than hashing a fifth key and rolling up 50 times the fold
    /// groups (SF 0.02, `l_shipdate` 24/8): A&R adds the quantity at one
    /// host thread and at 16 — the device rolls the fold groups up, or the
    /// host's roll-up is cheap —; the classic pipe, which rolls up on one
    /// host thread, keeps the discount and the tax at both. At each, the
    /// pick runs no dearer than the other form.
    #[test]
    fn q1_folds_quantity_where_it_runs_cheaper() {
        let (db, plans) = crate::bill::tests::tpch();
        let q1 = &plans.iter().find(|(n, _)| *n == "q1").unwrap().1;
        let two = ["l_discount", "l_tax"].map(String::from).to_vec();
        let three = ["l_quantity", "l_discount", "l_tax"]
            .map(String::from)
            .to_vec();
        let (c, ar) = (ExecMode::Classic, ExecMode::ApproxRefine);
        for (mode, threads, keeps, other) in [
            (&ar, 1, &three, &two),
            (&ar, 16, &three, &two),
            (&c, 1, &two, &three),
            (&c, 16, &two, &three),
        ] {
            let env = db.env().clone().host_threads(threads);
            let ctx = format!("{mode:?} at {threads} threads");
            let chosen = order(db, q1, mode, &env);
            assert_eq!(chosen.fold, *keeps, "{ctx}");
            let (rows, pick) = run_bill(db, &chosen, mode, &env);
            let (got, bill) = run_bill(db, &arranged(q1, &[0], other), mode, &env);
            assert_eq!(got, rows, "{ctx}");
            assert!(pick <= bill, "{ctx}: {pick} over {bill}");
        }
    }
}
