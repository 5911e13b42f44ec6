//! The one chooser. A run may execute any plan that returns the bound
//! plan's rows: its selections in another order (σ_p∘σ_q = σ_q∘σ_p), its
//! tail folding small-domain co-factors into the grouping (Σ(c·x + d) =
//! c·Σx + d·N over the tail's exact integers, arxiv 2207.00850). So one
//! enumeration, one price — the bill over predicted counts — and one tie
//! rule pick both (ARCHITECTURE.md, "The bill").

use super::predict::domain;
use super::{locate, Shape};
use crate::catalog::Catalog;
use crate::database::{Database, ExecMode};
use crate::tail::degree;
use bwd_core::plan::ArPlan;
use bwd_device::Env;
use bwd_kernels::reduce::ACCUMULATOR_BYTES;
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
/// order runs plain, then folding its co-factors where it has any — a fold
/// the plan carries is decided afresh. Each pipe pays its own way: A&R by
/// what the granules admit, Classic by the width it fetches. A candidate's
/// price is its bill over the counts [`Shape::predict`] predicts for it,
/// and the earliest strict minimum wins, so a chosen plan chooses itself.
/// A lone candidate is not priced, and one that does not resolve is passed
/// over. `plan` comes back borrowed where it wins, and where its plain form
/// does not resolve (its run reports why).
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
    let mut candidate = ArPlan {
        fold: Vec::new(),
        ..plan.clone()
    };
    let bound = env.device.spec().shared_mem_per_block;
    let mut folds = vec![Vec::new(), cofactors(db.catalog(), &candidate, bound)];
    folds.dedup();
    let priced = orders.len() * folds.len() > 1;
    let mut best: Option<(f64, &[usize], ArPlan)> = None;
    'search: for order in &orders {
        for fold in &folds {
            candidate.selections = order.iter().map(|&i| sels[i].clone()).collect();
            candidate.fold.clone_from(fold);
            let bill = match priced.then(|| Shape::resolve(db, &candidate, mode, env)) {
                None => 0.0,
                Some(Ok(shape)) => shape.bill(&shape.predict(), env).total(),
                Some(Err(_)) if best.is_none() => break 'search,
                Some(Err(_)) => continue,
            };
            if best.as_ref().is_none_or(|(least, ..)| bill < *least) {
                best = Some((bill, order, candidate.clone()));
            }
        }
    }
    match best {
        Some((_, order, chosen)) if chosen != *plan => (order.to_vec(), Cow::Owned(chosen)),
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

/// The co-factors `plan`'s tail can fold into its grouping — none where it
/// cannot (ARCHITECTURE.md, "The bill"). The plan is grouped, and every
/// aggregate is a `sum`, `avg` or `count` of an argument built from
/// columns, literals, `+`, `−` and `×` of degree ≤ 1 in the column of the
/// largest domain it reads, its measure; every other column it reads is a
/// key, and the keys not grouped by already are the co-factors. Each of
/// them is on the fact side, and the fold table — Π domains(K ∪ F) × one
/// accumulator per measure and a count × 16 B — fits `table_bound`.
pub(super) fn cofactors(catalog: &Catalog, plan: &ArPlan, table_bound: u64) -> Vec<String> {
    use bwd_core::plan::AggFunc::{Avg, Count, Sum};
    let column = |name: &str| {
        let (table, col, is_dim) = locate(plan, name).ok()?;
        Some((catalog.table(table).ok()?.column(col).ok()?, is_dim))
    };
    let domain_of = |name: &str| column(name).map(|(col, _)| domain(col));
    let (mut fold, mut measures) = (Vec::<String>::new(), Vec::<String>::new());
    if plan.group_by.is_empty() || plan.aggs.is_empty() {
        return fold;
    }
    for a in &plan.aggs {
        let mut read = Vec::new();
        if let Some(e) = &a.arg {
            e.collect_columns(&mut read);
        }
        // The measure is the first column of the largest domain.
        let (mut measure, mut keys) = (None::<(String, f64)>, Vec::new());
        for c in read {
            let Some(d) = domain_of(&c) else {
                return Vec::new();
            };
            match &measure {
                Some((_, m)) if d <= *m => keys.push(c),
                _ => keys.extend(measure.replace((c, d)).map(|(m, _)| m)),
            }
        }
        let measure = measure.map(|(m, _)| m);
        let x = measure.as_deref().unwrap_or("");
        let affine = (a.arg.as_ref()).map_or(Some(0), |e| degree(e, x));
        if !matches!(a.func, Sum | Avg | Count) || affine.is_none_or(|d| d > 1) {
            return Vec::new();
        }
        measures.extend(measure);
        for k in keys {
            if !plan.group_by.contains(&k) && !fold.contains(&k) {
                fold.push(k);
            }
        }
    }
    // Every co-factor is on the fact side.
    if fold
        .iter()
        .any(|c| column(c).is_none_or(|(_, is_dim)| is_dim))
    {
        return Vec::new();
    }
    measures.retain(|m| !fold.contains(m) && !plan.group_by.contains(m));
    measures.sort();
    measures.dedup();
    let mut keys: Vec<&String> = plan.group_by.iter().chain(&fold).collect();
    keys.sort();
    keys.dedup();
    let slots: f64 = keys
        .iter()
        .map(|k| domain_of(k).unwrap_or(f64::INFINITY))
        .product();
    let entry = (measures.len() as u64 + 1) * ACCUMULATOR_BYTES;
    match slots * entry as f64 <= table_bound as f64 {
        true => fold,
        false => Vec::new(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::arexec::{tests::run_ar_sliced, ArExecOptions};
    use crate::bill::tests::{agg, arranged, between, db, folded};
    use crate::classic::tests::run_classic_sliced;
    use crate::tail::SLICE_ROWS;
    use bwd_core::plan::{AggFunc, BinOp, LogicalPlan, RewriteOptions, ScalarExpr as E};
    use bwd_device::CostLedger;
    use bwd_types::SplitMix64;

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
    /// chain, in lexicographic order from the plan's own, the plain form
    /// and — where the plan has co-factors — the folded one.
    fn candidates(db: &Database, plan: &ArPlan) -> Vec<ArPlan> {
        let cofactors = folded(db, plan).fold;
        let mut perm: Vec<usize> = (0..plan.selections.len()).collect();
        let mut candidates = Vec::new();
        loop {
            candidates.push(arranged(plan, &perm, &[]));
            if !cofactors.is_empty() {
                candidates.push(arranged(plan, &perm, &cofactors));
            }
            if !next_permutation(&mut perm) {
                return candidates;
            }
        }
    }

    /// The chooser's space for a plan in `mode`, enumerated apart from it
    /// ([`candidates`]). The plan [`order`] picks is one of
    /// them, its predicted bill at most every candidate's and below every
    /// earlier one's, and [`cheapest`] reports its chain. Returns the
    /// candidates and the pick's place among them.
    fn the_pick_is_the_cheapest(
        db: &Database,
        plan: &ArPlan,
        mode: &ExecMode,
        ctx: &str,
    ) -> (Vec<ArPlan>, usize) {
        let env = db.env();
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
    /// third with an empty range) under a grouped device tail, a host
    /// tail, a bare count and a foldable `sum(v * (1 - k3))` by `g`, in
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
            let discounted = E::col("v").binary(Mul, E::lit(1i64).binary(Sub, E::col("k3")));
            let (groups, aggs) = match case % 4 {
                0 => (vec!["g".into()], vec![sum("v"), agg(Count, None)]),
                1 => (vec![], vec![sum("w")]),
                2 => (vec![], vec![agg(Count, None)]),
                _ => (vec!["g".into()], vec![agg(Sum, Some(discounted))]),
            };
            let plan = bind(&scan.aggregate(groups, aggs)).unwrap();
            assert_eq!(plan.selections.len(), steps, "case {case}");
            let foldable = !folded(db, &plan).fold.is_empty();
            assert_eq!(foldable, case % 4 == 3, "case {case}");
            let mut want = None;
            for (m, mode) in modes.iter().enumerate() {
                let ctx = format!("case {case} {mode:?} {:?}", plan.selections);
                let (candidates, at) = the_pick_is_the_cheapest(db, &plan, mode, &ctx);
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

    /// The fold's laws (ARCHITECTURE.md, "The bill"), over seeded grouped
    /// plans on [`db`]: group keys among `g, k1, k2` (and the split `h`,
    /// which the host groups by), a measure among `v, w` (`w` split: a host
    /// tail) or the group key `g`, and co-factors among `k1, k2, k3`, in
    /// aggregates that must fold — the measure times `1 − k`, times `k₁·k₂`
    /// plus `k₁`, a pure-key `avg(k)` — and plans that must not: a `/`, a
    /// `CASE`, a `min`, a `max`, a degree-2 measure, a dimension
    /// co-factor, a fold table past the shared-memory bound, nothing to
    /// fold. In both pipes, at 1 and 3
    /// workers and slices of [`SLICE_ROWS`] and 1 000 rows: the folded rows
    /// are the plain rows are the row-at-a-time oracle's, bit for bit; the
    /// form [`order`] keeps is the one the bill predicts cheaper, the plain
    /// one on a tie ([`the_pick_is_the_cheapest`]); ordering its plan
    /// returns it borrowed, and a fold the
    /// input carries is decided afresh; and the chosen run's counts bill
    /// its breakdown to the bit. Each pipe folds some plan.
    #[test]
    fn the_fold_laws() {
        use crate::tail::tests::oracle;
        use {AggFunc::*, BinOp::*};
        let db = db();
        let env = db.env();
        let rng = &mut SplitMix64::new(28);
        let col = |c: &str| E::col(c);
        let one = || E::lit(1i64);
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
            otherwise: Box::new(E::lit(0i64)),
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
                vec![fold(), agg(Sum, Some(col("v").binary(Div, E::lit(2i64))))],
                false,
            ),
            ("g", vec![fold(), agg(Sum, Some(case))], false),
            ("g", vec![fold(), agg(Min, Some(col("v")))], false),
            ("g", vec![fold(), agg(Max, Some(col("g")))], false),
            (
                "g",
                vec![fold(), agg(Sum, Some(col("v").binary(Mul, col("v"))))],
                false,
            ),
            (
                "g",
                vec![agg(Sum, Some(col("v").binary(Mul, col("dim.x"))))],
                false,
            ),
            (
                "k2",
                vec![agg(Sum, Some(col("v").binary(Mul, col("k9"))))],
                false,
            ),
            ("g", vec![agg(Sum, Some(col("v"))), agg(Count, None)], false),
        ] {
            cases.push((folds, bind(t().aggregate(vec![group_by.into()], aggs))));
        }
        let modes = [ExecMode::Classic, ExecMode::ApproxRefine];
        let mut chose_fold = [0; 2];
        for (must_fold, plan) in &cases {
            let ctx = format!("{:?} by {:?}", plan.aggs, plan.group_by);
            let folded = folded(db, plan);
            assert_eq!(!folded.fold.is_empty(), *must_fold, "{ctx}");
            let want = format!("{:?}", oracle(db, plan).unwrap().0);
            for (m, mode) in modes.iter().enumerate() {
                for form in [plan, &folded] {
                    for (morsels, slice) in [(1, SLICE_ROWS), (3, SLICE_ROWS), (1, 1000), (3, 1000)]
                    {
                        let tag =
                            format!("{ctx} {mode:?} fold {:?} x{morsels} /{slice}", form.fold);
                        assert_eq!(rows(db, form, mode, morsels, slice), want, "{tag}");
                    }
                }
                the_pick_is_the_cheapest(db, plan, mode, &format!("{ctx} {mode:?}"));
                let chosen = order(db, plan, mode, env);
                assert_eq!(*order(db, &folded, mode, env), *chosen, "{ctx} {mode:?}");
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
        let link = db
            .fk_index("lineitem", "l_partkey")
            .unwrap()
            .device()
            .data();
        for (name, plan) in plans {
            for mode in [ExecMode::Classic, ExecMode::ApproxRefine] {
                for threads in [1, 16] {
                    let env = db.env().clone().host_threads(threads);
                    let run = |plan: &ArPlan| {
                        let ledger = &mut CostLedger::new();
                        let run = match mode {
                            ExecMode::Classic => {
                                let link = plan.fk_join.as_ref().map(|_| link);
                                run_classic_sliced(
                                    db.catalog(),
                                    plan,
                                    link,
                                    &env,
                                    1,
                                    SLICE_ROWS,
                                    ledger,
                                )
                            }
                            _ => {
                                let opts = ArExecOptions::default();
                                run_ar_sliced(db, plan, &opts, &env, 1, SLICE_ROWS, ledger)
                            }
                        };
                        let run = run.unwrap();
                        (format!("{:?}", run.rows), run.breakdown.total())
                    };
                    let ctx = format!("{name} {mode:?} at {threads} threads");
                    let (rows, least) = run(&order(db, plan, &mode, &env));
                    for c in candidates(db, plan) {
                        let (got, bill) = run(&c);
                        assert_eq!(got, rows, "{ctx}: {:?} {:?}", c.selections, c.fold);
                        assert!(least <= bill, "{ctx}: {least} over {bill} of {c:?}");
                    }
                }
            }
        }
    }
}
