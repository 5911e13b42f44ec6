//! The streaming query tail shared by both executors: slice-at-a-time
//! gather → group → evaluate → aggregate.
//!
//! Both pipes end in the same place — a set of surviving tuples, the
//! columns the output needs, an optional grouping and a list of
//! aggregates or projections. Neither materializes survivors × columns,
//! or the survivors themselves: an executor-specific `SliceSource` walks
//! its selection's positions and fills a reused slice-local
//! [`RowBlock`] with the next run of at most [`SLICE_ROWS`] survivors,
//! and a `Sink` assigns group ids against a table that persists across
//! slices (keys in one flat arena), evaluates every *distinct* expression
//! node column-at-a-time into reused `i128` buffers (a sub-expression
//! shared by several aggregates is computed once per slice) and folds the
//! slice into per-group accumulators. The arithmetic is exact (i128 over
//! scaled integers), so the classic and A&R paths produce *identical*
//! rows — the equivalence the integration tests assert.
//!
//! `morsels` workers each own a sink over a contiguous part of the
//! candidates' emission sequence and advance one slice per round; partial
//! sinks merge in partition order (aggregate over a union of partitions =
//! merge of the partials; projected rows concatenate), so rows are
//! bit-identical at every worker count and slice size. The
//! orchestrating thread polls the fault plan and the yield point between
//! rounds, with every worker joined. Simulated costs are not this
//! module's business: the executors charge them once from the totals.

use crate::eval::{AggValue, ColumnSlot, Exprs, Node, RowBlock};
use crate::morsel::run_parts_mut;
use bwd_core::plan::{AggExpr, AggFunc, ArPlan, BinOp, ScalarExpr};
use bwd_device::Env;
use bwd_obs::GroupAggTail;
use bwd_types::{BwdError, FaultSite, FxHasher, Result, Value};
use std::borrow::Cow;
use std::hash::Hasher;
use std::ops::Range;

/// Rows per slice of the query tail — the unit both executors gather,
/// group and aggregate at a time, and the interval between yield, fault
/// and cancel checks (a paused short query waits about this much work).
pub const SLICE_ROWS: usize = 16 * 1024;

/// Fold groups a roll-up evaluates at a time: its DAG buffers stay a few
/// KiB however many fold groups the keys form.
const ROLLUP_GROUPS: usize = 1024;

/// The executor-specific half of the tail: where a slice's payloads come
/// from (classic: fetch by oid; A&R: gather the survivors' approximations
/// and refine them with residuals).
pub(crate) trait SliceSource: Send {
    /// Re-size `block` to the next run of at most `slice_rows` survivors
    /// (possibly none: a window of candidates may keep no survivor) and
    /// fill every slot; a source that carries a device grouping also
    /// replaces `ids` with the run's group ids. Returns whether the source has more
    /// to walk after this slice.
    fn fill(&mut self, slice_rows: usize, block: &mut RowBlock, ids: &mut Vec<u32>)
        -> Result<bool>;
}

/// The query's bound output: the expression DAG plus what consumes its roots.
#[derive(Debug, Default)]
struct Program {
    exprs: Exprs,
    /// Block slots of the group keys the sinks hash (none when the source
    /// carries a device grouping: its key columns need not be gathered).
    key_slots: Vec<usize>,
    /// Distinct accumulator inputs (`None` = `count(*)`): `sum(x)` and
    /// `avg(x)` fold the same node once.
    accs: Vec<Option<usize>>,
    /// Per output aggregate: the function and its accumulator (under a
    /// fold, its plain input in [`Fold::inputs`]).
    aggs: Vec<(AggFunc, usize)>,
    /// Per projected expression: its root node (non-aggregate queries).
    project: Vec<usize>,
    columns: Vec<String>,
    /// The roll-up of a grouping folded over co-factor keys.
    fold: Option<Fold>,
}

/// Index of `item` in `items`, appending it on first appearance.
fn intern<T: PartialEq>(items: &mut Vec<T>, item: T) -> usize {
    items.iter().position(|i| *i == item).unwrap_or_else(|| {
        items.push(item);
        items.len() - 1
    })
}

/// The degree of `e` as a polynomial in column `x` (0 where `e` does not
/// read it); `None` where `e` is no polynomial — a `/` or a `CASE`.
pub(crate) fn degree(e: &ScalarExpr, x: &str) -> Option<u32> {
    match e {
        ScalarExpr::Column(c) => Some(u32::from(c == x)),
        ScalarExpr::Literal(_) => Some(0),
        ScalarExpr::Binary { op, lhs, rhs } => {
            let (l, r) = (degree(lhs, x)?, degree(rhs, x)?);
            match op {
                BinOp::Add | BinOp::Sub => Some(l.max(r)),
                BinOp::Mul => Some(l + r),
                BinOp::Div => None,
            }
        }
        ScalarExpr::Case { .. } => None,
    }
}

impl Program {
    /// Bind `plan` over `schema`; `carried` is the device grouping's table
    /// (its columns the group keys), whose ids stand in for the key slots.
    fn compile(plan: &ArPlan, schema: &RowBlock, carried: Option<&GroupTable>) -> Result<Program> {
        let mut p = Program::default();
        if plan.aggs.is_empty() {
            for (e, alias) in &plan.project {
                let root = p.exprs.bind(e, schema)?;
                p.project.push(root);
                p.columns.push(alias.clone());
            }
            return Ok(p);
        }
        let keys = plan.group_keys();
        if carried.is_none() {
            let slot = |g: &String| schema.slot_index(g);
            p.key_slots = keys.iter().map(slot).collect::<Result<_>>()?;
        }
        p.columns = plan.group_by.clone();
        if !plan.fold.is_empty() {
            let key_cols = match carried {
                Some(t) => t.cols.clone(),
                None => p
                    .key_slots
                    .iter()
                    .map(|&s| schema.slot(s).clone())
                    .collect(),
            };
            p.fold = Some(Fold::new(plan, key_cols, schema)?);
        }
        for a in &plan.aggs {
            if a.arg.is_none() && a.func != AggFunc::Count {
                let msg = format!("{:?} requires an argument expression", a.func);
                return Err(BwdError::Plan(msg));
            }
            let acc = match &mut p.fold {
                None => {
                    let root = a.arg.as_ref().map(|e| p.exprs.bind(e, schema));
                    intern(&mut p.accs, root.transpose()?)
                }
                // A row accumulates the sum of the input's measure; the
                // input itself is evaluated once per fold group.
                Some(fold) => {
                    let sum = match fold.measure(a)? {
                        Some(m) => {
                            let x = p.exprs.bind(&ScalarExpr::col(m), schema)?;
                            Some(intern(&mut p.accs, Some(x)))
                        }
                        None => None,
                    };
                    let root = a.arg.as_ref().map(|e| fold.exprs.bind(e, &fold.block));
                    intern(&mut fold.inputs, (root.transpose()?, sum))
                }
            };
            p.aggs.push((a.func, acc));
            p.columns.push(a.alias.clone());
        }
        if let Some(fold) = &mut p.fold {
            fold.count = intern(&mut p.accs, None);
        }
        Ok(p)
    }

    /// The plain accumulator inputs and the DAG they are bound in: what
    /// an output aggregate's accumulator index refers to.
    fn inputs(&self) -> (&Exprs, Vec<Option<usize>>) {
        match &self.fold {
            Some(f) => (&f.exprs, f.inputs.iter().map(|i| i.0).collect()),
            None => (&self.exprs, self.accs.clone()),
        }
    }
}

/// A grouping folded over co-factor keys F (ARCHITECTURE.md, "The bill").
/// The sinks group by K ∪ F and accumulate per row one sum per measure plus
/// a count. Every plain accumulator input is affine in its measure `x`
/// over the keys, `c·x + d`, so its sum over a fold group is `c·Σx + d·N`
/// exactly: [`Fold::roll_up`] evaluates the plain DAG once per fold group
/// at `x = 0` (`d`) and `x = 1` (`c + d`) with the same exact evaluator,
/// and adds the fold groups into the K groups' plain accumulators.
#[derive(Debug)]
struct Fold {
    /// The plain accumulator inputs, bound over `block`.
    exprs: Exprs,
    /// One slot per group key (K, then F), then one per measure.
    block: RowBlock,
    /// The columns some row accumulates the sum of.
    measures: Vec<String>,
    /// |K|: the leading keys the fold groups roll up into.
    keys: usize,
    /// |F|: the keys after them.
    cofactors: usize,
    /// The plain program's distinct accumulator inputs (`None` =
    /// `count(*)`), each beside the row accumulator that sums its measure
    /// (`None`: it reads none — it is constant over a fold group).
    inputs: Vec<(Option<usize>, Option<usize>)>,
    /// The row accumulator counting a fold group's rows.
    count: usize,
}

impl Fold {
    /// The fold of `plan` over `key_cols` (its group keys' slots); the
    /// measures' slots come from the tail's `schema`.
    fn new(plan: &ArPlan, key_cols: Vec<ColumnSlot>, schema: &RowBlock) -> Result<Fold> {
        let measures = plan.value_columns();
        let mut block = RowBlock::new(0);
        key_cols.into_iter().for_each(|c| block.push_slot(c));
        for m in &measures {
            block.push_slot(schema.slot(schema.slot_index(m)?).clone());
        }
        Ok(Fold {
            exprs: Exprs::default(),
            block,
            measures,
            keys: plan.group_by.len(),
            cofactors: plan.fold.len(),
            inputs: Vec::new(),
            count: 0,
        })
    }

    /// The measure `a` sums — the one column it reads that no key covers
    /// (`None`: it reads only keys) — once `a` is checked to fold: a sum,
    /// an average or a count of an argument of degree ≤ 1 in it.
    fn measure(&self, a: &AggExpr) -> Result<Option<&str>> {
        let mut read = Vec::new();
        if let Some(e) = &a.arg {
            e.collect_columns(&mut read);
        }
        let free: Vec<&str> = (self.measures.iter())
            .filter(|m| read.contains(m))
            .map(String::as_str)
            .collect();
        let measure = free.first().copied();
        let affine = (a.arg.as_ref()).map_or(Some(0), |e| degree(e, measure.unwrap_or("")));
        let summable = matches!(a.func, AggFunc::Sum | AggFunc::Avg | AggFunc::Count);
        match free.len() <= 1 && summable && affine.is_some_and(|d| d <= 1) {
            true => Ok(measure),
            false => Err(BwdError::Plan(format!("{} does not fold", a.alias))),
        }
    }

    /// The plain accumulators of the K groups — in a new table over the
    /// leading key columns — rolled up from the fold groups of `groups`,
    /// whose row accumulators `accs` hold `stride` per group;
    /// [`ROLLUP_GROUPS`] fold groups at a time.
    fn roll_up(&self, groups: &GroupTable, accs: &[Acc], stride: usize) -> (GroupTable, Vec<Acc>) {
        let (keys, width, nodes) = (groups.cols.len(), self.inputs.len(), &self.exprs.nodes);
        let occupied: Vec<usize> = (0..accs.len() / stride)
            .filter(|&g| accs[g * stride + self.count].count > 0)
            .collect();
        let cols = groups.cols[..self.keys].to_vec();
        let (mut table, mut out) = (GroupTable::from_keys(cols, Vec::new()), Vec::new());
        let mut block = self.block.clone();
        let (mut bufs, mut bad) = (vec![Vec::new(); nodes.len()], vec![Vec::new(); nodes.len()]);
        for slice in occupied.chunks(ROLLUP_GROUPS) {
            block.resize(slice.len());
            for k in 0..keys {
                let out = block.payloads_mut(k).iter_mut();
                out.zip(slice).for_each(|(p, &g)| *p = groups.key(g)[k]);
            }
            // Every input's value per fold group with each measure at `x`.
            let mut at = |x: i64| -> Vec<Vec<i128>> {
                (keys..keys + self.measures.len()).for_each(|m| block.payloads_mut(m).fill(x));
                eval_nodes(nodes, &block, &mut bufs, &mut bad);
                let value = |&(root, _): &(Option<usize>, _)| match root {
                    Some(r) => {
                        let v = src(nodes, &block, &bufs, r);
                        (0..slice.len()).map(|i| v.at(i)).collect()
                    }
                    None => Vec::new(),
                };
                self.inputs.iter().map(value).collect()
            };
            let (offset, at_one) = (at(0), at(1));
            for (row, &g) in slice.iter().enumerate() {
                let id = table.intern(&groups.key(g)[..self.keys]) as usize;
                if out.len() < (id + 1) * width {
                    out.resize((id + 1) * width, EMPTY_ACC);
                }
                let fold = &accs[g * stride..][..stride];
                let n = fold[self.count].count;
                for (i, &(root, sum)) in self.inputs.iter().enumerate() {
                    let acc = &mut out[id * width + i];
                    acc.count += n;
                    if root.is_some() {
                        let (d, c) = (offset[i][row], at_one[i][row] - offset[i][row]);
                        acc.sum += c * sum.map_or(0, |s| fold[s].sum) + d * n as i128;
                    }
                }
            }
        }
        (table, out)
    }
}

/// Where a node's values for the current slice live.
#[derive(Clone, Copy)]
enum Src<'a> {
    Col(&'a [i64]),
    Lit(i128),
    Buf(&'a [i128]),
}

impl Src<'_> {
    #[inline(always)]
    fn at(self, i: usize) -> i128 {
        match self {
            Src::Col(c) => c[i] as i128,
            Src::Lit(v) => v,
            Src::Buf(b) => b[i],
        }
    }
}

fn src<'a>(nodes: &[(Node, u8)], block: &'a RowBlock, bufs: &'a [Vec<i128>], id: usize) -> Src<'a> {
    match nodes[id].0 {
        Node::Col(slot) => Src::Col(&block.slot(slot).payloads),
        Node::Lit(v) => Src::Lit(v as i128),
        _ => Src::Buf(&bufs[id]),
    }
}

/// Evaluate every node over the block, column-at-a-time. `bad[id]` lists
/// the rows whose value is undefined because a division by zero feeds
/// it; a `CASE` only inherits the rows of the branch it takes, so an
/// untaken `x / 0` stays harmless exactly as in row-at-a-time evaluation.
fn eval_nodes(
    nodes: &[(Node, u8)],
    block: &RowBlock,
    bufs: &mut [Vec<i128>],
    bad: &mut [Vec<u32>],
) {
    let len = block.len();
    let pow10 = |d: u8| 10i128.pow(d as u32);
    for id in 0..nodes.len() {
        let (done, rest) = bufs.split_at_mut(id);
        let (bad_done, bad_rest) = bad.split_at_mut(id);
        let (out, bad) = (&mut rest[0], &mut bad_rest[0]);
        out.clear();
        bad.clear();
        match &nodes[id].0 {
            Node::Col(_) | Node::Lit(_) => {}
            Node::Bin(op, l, r) => {
                let (a, b) = (src(nodes, block, done, *l), src(nodes, block, done, *r));
                let (sa, sb) = (nodes[*l].1, nodes[*r].1);
                // Add/Sub meet at the wider scale; Div pre-scales `a` by 10^sb.
                let (fa, fb) = match op {
                    BinOp::Div => (pow10(sb), 1),
                    _ => (pow10(sa.max(sb) - sa), pow10(sa.max(sb) - sb)),
                };
                bad.extend(bad_done[*l].iter().chain(&bad_done[*r]));
                match op {
                    BinOp::Add => out.extend((0..len).map(|i| a.at(i) * fa + b.at(i) * fb)),
                    BinOp::Sub => out.extend((0..len).map(|i| a.at(i) * fa - b.at(i) * fb)),
                    BinOp::Mul => out.extend((0..len).map(|i| a.at(i) * b.at(i))),
                    // Keeps the left scale: (a * 10^sb) / b.
                    BinOp::Div => out.extend((0..len).map(|i| match b.at(i) {
                        0 => {
                            bad.push(i as u32);
                            0
                        }
                        d => a.at(i) * fa / d,
                    })),
                }
            }
            Node::Case {
                slot,
                range,
                then,
                otherwise,
            } => {
                let cond = &block.slot(*slot).payloads;
                let (t, e) = (
                    src(nodes, block, done, *then),
                    src(nodes, block, done, *otherwise),
                );
                let taken = |&i: &&u32| range.test(cond[*i as usize]);
                bad.extend(bad_done[*then].iter().filter(taken));
                bad.extend(bad_done[*otherwise].iter().filter(|i| !taken(i)));
                out.extend((0..len).map(|i| {
                    if range.test(cond[i]) {
                        t.at(i)
                    } else {
                        e.at(i)
                    }
                }));
            }
        }
    }
}

/// Group keys in one flat arena (one payload per key column per group, in
/// group-id order) behind an open-addressing index built on the first
/// `intern` (a carried table, addressed by id, builds none) — no per-row
/// or per-group allocation. Ids are assigned in first-appearance order.
#[derive(Debug, Clone, Default)]
pub(crate) struct GroupTable {
    /// The key columns' names, types and dictionaries (no payloads).
    cols: Vec<ColumnSlot>,
    keys: Vec<i64>,
    /// Group id + 1 per bucket (0 = empty); the length is a power of two.
    index: Vec<u32>,
}

impl GroupTable {
    /// A table over key columns `cols` whose groups `0..keys.len() /
    /// cols.len()` are pre-assigned (a grouping carried in from the
    /// device: a hash pre-grouping's first-seen ids, or one group per slot
    /// of a packed key — addressed by id alone, so the keys of slots no
    /// row can fall into need not be distinct).
    pub(crate) fn from_keys(cols: Vec<ColumnSlot>, keys: Vec<i64>) -> GroupTable {
        GroupTable {
            cols,
            keys,
            index: Vec::new(),
        }
    }

    fn len(&self) -> usize {
        self.keys.len() / self.cols.len().max(1)
    }

    fn key(&self, g: usize) -> &[i64] {
        &self.keys[g * self.cols.len()..][..self.cols.len()]
    }

    fn bucket(&self, key: &[i64]) -> usize {
        let mut h = FxHasher::default();
        key.iter().for_each(|&k| h.write_u64(k as u64));
        let h = h.finish();
        // The multiplicative hash mixes upward; fold the high half down.
        (h ^ (h >> 32)) as usize & (self.index.len() - 1)
    }

    fn rebuild(&mut self) {
        let buckets = (4 * self.len()).next_power_of_two().max(16);
        self.index = vec![0; buckets];
        for g in 0..self.len() {
            let mut b = self.bucket(self.key(g));
            while self.index[b] != 0 {
                b = (b + 1) & (buckets - 1);
            }
            self.index[b] = g as u32 + 1;
        }
    }

    /// The id of `key`, assigning the next one on first appearance.
    fn intern(&mut self, key: &[i64]) -> u32 {
        if 2 * (self.len() + 1) > self.index.len() {
            self.rebuild();
        }
        let mut b = self.bucket(key);
        loop {
            match self.index[b] {
                0 => {
                    self.keys.extend_from_slice(key);
                    self.index[b] = self.len() as u32;
                    return self.index[b] - 1;
                }
                g if self.key(g as usize - 1) == key => return g - 1,
                _ => b = (b + 1) & (self.index.len() - 1),
            }
        }
    }
}

/// One accumulator per (group, distinct aggregate input).
#[derive(Clone, Copy)]
struct Acc {
    sum: i128,
    count: u64,
    min: i128,
    max: i128,
}

const EMPTY_ACC: Acc = Acc {
    sum: 0,
    count: 0,
    min: i128::MAX,
    max: i128::MIN,
};

impl Acc {
    /// The value of aggregate `func` over this accumulator, whose input
    /// expression has decimal scale `scale` (an empty input renders 0).
    fn render(self, func: AggFunc, scale: u8) -> Value {
        let scale = if self.count == 0 { 0 } else { scale };
        let exact = |unscaled: i128| AggValue { unscaled, scale };
        match func {
            AggFunc::Count => Value::Int(self.count as i64),
            AggFunc::Sum => exact(self.sum).to_value(),
            AggFunc::Avg if self.count == 0 => Value::Double(f64::NAN),
            AggFunc::Avg => Value::Double(exact(self.sum).as_f64() / self.count as f64),
            AggFunc::Min => exact(if self.count == 0 { 0 } else { self.min }).to_value(),
            AggFunc::Max => exact(if self.count == 0 { 0 } else { self.max }).to_value(),
        }
    }
}

/// Fold one accumulator input over the slice; `at(row)` is the row's
/// accumulator index.
fn fold(accs: &mut [Acc], values: Option<Src<'_>>, len: usize, at: impl Fn(usize) -> usize) {
    match values {
        None => (0..len).for_each(|i| accs[at(i)].count += 1),
        Some(values) => {
            for i in 0..len {
                let (v, a) = (values.at(i), &mut accs[at(i)]);
                a.count += 1;
                a.sum += v;
                a.min = a.min.min(v);
                a.max = a.max.max(v);
            }
        }
    }
}

/// One worker's running partial result plus its reused slice buffers.
pub(crate) struct Sink<'p> {
    prog: &'p Program,
    block: RowBlock,
    /// Per row its group: hashed from the key slots, or the source's.
    ids: Vec<u32>,
    /// The sink's own table, or the carried one every sink shares.
    groups: Cow<'p, GroupTable>,
    /// `groups.len() × prog.accs.len()` accumulators, group-major.
    accs: Vec<Acc>,
    /// Projected rows (non-aggregate queries).
    rows: Vec<Vec<Value>>,
    bufs: Vec<Vec<i128>>,
    bad: Vec<Vec<u32>>,
}

impl<'p> Sink<'p> {
    /// Group, evaluate and fold the slice currently in `self.block`.
    fn consume(&mut self) -> Result<()> {
        let (p, nodes) = (self.prog, &self.prog.exprs.nodes);
        let (len, stride, grouped) = (self.block.len(), p.accs.len(), !self.groups.cols.is_empty());
        if !p.key_slots.is_empty() {
            let key_col = |&s: &usize| self.block.slot(s).payloads.as_slice();
            let cols: Vec<&[i64]> = p.key_slots.iter().map(key_col).collect();
            let mut key = vec![0i64; cols.len()];
            self.ids.clear();
            for row in 0..len {
                key.iter_mut().zip(&cols).for_each(|(k, c)| *k = c[row]);
                self.ids.push(self.groups.to_mut().intern(&key));
            }
        }
        debug_assert!(!grouped || self.ids.len() == len, "group ids misaligned");
        eval_nodes(nodes, &self.block, &mut self.bufs, &mut self.bad);
        let mut roots = p.accs.iter().flatten().chain(&p.project);
        if roots.any(|&r| !self.bad[r].is_empty()) {
            return Err(BwdError::Exec("division by zero".into()));
        }
        let values = |r: usize| src(nodes, &self.block, &self.bufs, r);
        let n_groups = if grouped { self.groups.len() } else { 1 };
        self.accs.resize(n_groups * stride, EMPTY_ACC);
        for (ai, root) in p.accs.iter().enumerate() {
            let ids = &self.ids;
            match grouped {
                true => fold(&mut self.accs, root.map(values), len, |i| {
                    ids[i] as usize * stride + ai
                }),
                false => fold(&mut self.accs, root.map(values), len, |_| ai),
            }
        }
        let cols: Vec<(Src<'_>, u8)> =
            (p.project.iter().map(|&r| (values(r), nodes[r].1))).collect();
        let value = |i: usize, &(s, scale): &(Src<'_>, u8)| AggValue {
            unscaled: s.at(i),
            scale,
        };
        let project = |i| cols.iter().map(|c| value(i, c).to_value()).collect();
        if !cols.is_empty() {
            self.rows.extend((0..len).map(project));
        }
        Ok(())
    }

    /// Merge a later partition's partial result into this one.
    fn absorb(&mut self, other: Sink<'p>) {
        self.rows.extend(other.rows);
        let stride = self.prog.accs.len();
        if stride == 0 {
            return;
        }
        // A carried table numbers its groups identically in every sink.
        let (grouped, carried) = (!self.groups.cols.is_empty(), self.prog.key_slots.is_empty());
        for (g, part) in other.accs.chunks(stride).enumerate() {
            let id = match (grouped, carried) {
                (false, _) => 0,
                (true, true) => g,
                (true, false) => self.groups.to_mut().intern(other.groups.key(g)) as usize,
            };
            if self.accs.len() < (id + 1) * stride {
                self.accs.resize((id + 1) * stride, EMPTY_ACC);
            }
            for (dst, src) in self.accs[id * stride..].iter_mut().zip(part) {
                dst.sum += src.sum;
                dst.count += src.count;
                dst.min = dst.min.min(src.min);
                dst.max = dst.max.max(src.max);
            }
        }
    }

    /// Render the result, rows sorted by group key.
    fn finish(mut self) -> Output {
        let p = self.prog;
        let columns = p.columns.clone();
        if p.aggs.is_empty() {
            let rows = self.rows;
            return Output {
                columns,
                rows,
                groups: 0,
            };
        }
        let (stride, grouped) = (p.accs.len(), !self.groups.cols.is_empty());
        if !grouped {
            // Global aggregation over zero rows still yields one row.
            self.accs.resize(stride, EMPTY_ACC);
        }
        // A carried grouping numbers groups over the candidates, or over
        // every slot of the packed key; one that kept no survivor is not a
        // group of the result (and its key may be no value of the column
        // at all: it is never rendered).
        let occupied = |accs: &&[Acc]| !grouped || accs[0].count > 0;
        let groups = self.accs.chunks(stride).filter(occupied).count() as u64;
        let (table, accs) = match &p.fold {
            Some(f) => {
                let (table, accs) = f.roll_up(&self.groups, &self.accs, stride);
                (Cow::Owned(table), accs)
            }
            None => (self.groups, self.accs),
        };
        let (exprs, inputs) = p.inputs();
        let scale = |ai: usize| inputs[ai].map_or(0, |root| exprs.nodes[root].1);
        let mut rows: Vec<Vec<Value>> = Vec::new();
        for (g, accs) in accs.chunks(inputs.len()).enumerate() {
            if !occupied(&accs) {
                continue;
            }
            let key = if grouped { table.key(g) } else { &[] };
            let mut row: Vec<Value> = (table.cols.iter().zip(key))
                .map(|(c, &k)| c.logical.value(k))
                .collect();
            row.extend((p.aggs.iter()).map(|&(func, ai)| accs[ai].render(func, scale(ai))));
            rows.push(row);
        }
        // Deterministic output: sort by the group key values.
        let key_len = table.cols.len();
        rows.sort_by(|a, b| {
            (a[..key_len].iter().zip(&b[..key_len]))
                .map(|(x, y)| x.total_cmp(y))
                .find(|o| o.is_ne())
                .unwrap_or(std::cmp::Ordering::Equal)
        });
        Output {
            columns,
            rows,
            groups,
        }
    }
}

/// A tail's rendered result.
pub(crate) struct Output {
    pub(crate) columns: Vec<String>,
    /// Sorted by group key.
    pub(crate) rows: Vec<Vec<Value>>,
    /// The groups the merged sinks folded rows into — under a fold, the
    /// fold groups — or the one of a global aggregate (0 for a projection).
    pub(crate) groups: u64,
}

/// A query's tail, bound once: the compiled output expressions, the
/// slice-block schema and (optionally) a carried device grouping.
pub(crate) struct Tail {
    prog: Program,
    schema: RowBlock,
    carried: Option<GroupTable>,
}

struct Worker<'p, S> {
    source: S,
    sink: Sink<'p>,
    more: bool,
}

impl Tail {
    /// Bind `plan`'s aggregates/projections against `schema` — a
    /// zero-row block holding one slot per gathered column. With
    /// `carried` (a table over the group keys' columns), sources supply
    /// group ids into that pre-filled table, the sinks skip their own
    /// hashing and the schema needs no slot for a key that nothing else
    /// reads.
    pub(crate) fn new(
        plan: &ArPlan,
        schema: RowBlock,
        carried: Option<GroupTable>,
    ) -> Result<Tail> {
        Ok(Tail {
            prog: Program::compile(plan, &schema, carried.as_ref())?,
            schema,
            carried,
        })
    }

    /// Carry the device grouping's `table` in (replacing the placeholder
    /// the tail was bound with).
    pub(crate) fn carry(&mut self, table: GroupTable) {
        self.carried = Some(table);
    }

    /// Expression primitives the tail evaluates per row: every distinct
    /// arithmetic node of the DAG plus one materialized input per distinct
    /// accumulator (or projected column) — what both pipes bill, so a
    /// sub-expression several aggregates share is priced once.
    pub(crate) fn expr_ops(&self) -> u64 {
        let nodes = self.prog.exprs.nodes.iter();
        let arithmetic = nodes.filter(|(n, _)| n.is_arithmetic());
        (arithmetic.count() + self.prog.accs.len() + self.prog.project.len()) as u64
    }

    /// Distinct accumulators per group: `sum(x)` and `avg(x)` share one.
    /// Under a fold, one per measure plus the count.
    pub(crate) fn accumulators(&self) -> usize {
        self.prog.accs.len()
    }

    /// The `GroupAgg` span's account of the fold: the co-factor keys, the
    /// plain program's accumulators and the folded tail's (all 0 without a
    /// fold).
    pub(crate) fn fold_trace(&self) -> GroupAggTail {
        match &self.prog.fold {
            Some(f) => GroupAggTail {
                fold: f.cofactors as u64,
                accs: f.inputs.len() as u64,
                folded_accs: self.prog.accs.len() as u64,
                ..GroupAggTail::default()
            },
            None => GroupAggTail::default(),
        }
    }

    /// Primitives the roll-up runs per fold group: the plain DAG's, at
    /// `x = 0` and at `x = 1` (0 without a fold).
    pub(crate) fn rollup_ops(&self) -> u64 {
        self.prog.fold.as_ref().map_or(0, |f| {
            let arithmetic = f.exprs.nodes.iter().filter(|(n, _)| n.is_arithmetic());
            2 * (arithmetic.count() + f.inputs.len()) as u64
        })
    }

    fn sink(&self) -> Sink<'_> {
        Sink {
            prog: &self.prog,
            block: self.schema.clone(),
            ids: Vec::new(),
            groups: match &self.carried {
                Some(table) => Cow::Borrowed(table),
                None => {
                    let key_col = |&s: &usize| self.schema.slot(s).clone();
                    let cols = self.prog.key_slots.iter().map(key_col).collect();
                    Cow::Owned(GroupTable::from_keys(cols, Vec::new()))
                }
            },
            accs: Vec::new(),
            rows: Vec::new(),
            bufs: vec![Vec::new(); self.prog.exprs.nodes.len()],
            bad: vec![Vec::new(); self.prog.exprs.nodes.len()],
        }
    }

    /// The slice loop: every source (one per worker, over contiguous
    /// survivor partitions in order) advances one slice per round into
    /// its own sink; between rounds — every worker joined — the
    /// orchestrating thread polls the fault plan and the yield point.
    pub(crate) fn run<S: SliceSource>(
        &self,
        env: &Env,
        sources: Vec<S>,
        slice_rows: usize,
    ) -> Result<Vec<Sink<'_>>> {
        let mut workers: Vec<Worker<'_, S>> = (sources.into_iter())
            .map(|source| Worker {
                source,
                sink: self.sink(),
                more: true,
            })
            .collect();
        let lanes: Vec<Range<usize>> = (0..workers.len()).map(|w| w..w + 1).collect();
        while workers.iter().any(|w| w.more) {
            let step = |_, _: Range<usize>, w: &mut [Worker<'_, S>]| -> Result<()> {
                let w = &mut w[0];
                if w.more {
                    w.more = w
                        .source
                        .fill(slice_rows, &mut w.sink.block, &mut w.sink.ids)?;
                    w.sink.consume()?;
                }
                Ok(())
            };
            run_parts_mut(&mut workers, &lanes, step)
                .into_iter()
                .collect::<Result<()>>()?;
            env.fault.check(FaultSite::Exec)?;
            env.yield_point.check()?;
        }
        Ok(workers.into_iter().map(|w| w.sink).collect())
    }

    /// Merge the partial sinks of [`Tail::run`] in partition order and
    /// render the result.
    pub(crate) fn finish(&self, sinks: Vec<Sink<'_>>) -> Output {
        let mut sinks = sinks.into_iter();
        let mut merged = sinks.next().unwrap_or_else(|| self.sink());
        sinks.for_each(|s| merged.absorb(s));
        merged.finish()
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::arexec::tests::run_ar_sliced;
    use crate::classic::tests::run_classic_sliced;
    use crate::eval::ColumnSlot;
    use crate::{ArExecOptions, Database};
    use bwd_core::plan::{AggExpr, LogicalPlan, Predicate, ScalarExpr as E};
    use bwd_storage::{Column, DecompositionSpec};
    use std::collections::BTreeMap;
    use std::sync::OnceLock;

    const S: usize = SLICE_ROWS;
    const ROWS: usize = 3 * S + 1000;
    const SURVIVORS: [usize; 6] = [0, 1, S - 1, S, S + 1, 3 * S + 7];
    const GROUPS: [&str; 6] = ["", "g1", "g4", "g1000", "grow", "g4 g1000"];

    /// `k` is a permutation of `0..ROWS` (`k < s` keeps exactly `s` rows);
    /// `z` is zero exactly where `w >= 3`. With `resident`, every column
    /// lives on the device (the fast path, pre-grouping carried); without,
    /// `k`, `v` and `g1000` keep residuals on the host (refinement, and
    /// host hashing wherever `g1000` is a key).
    fn db(resident: bool) -> &'static Database {
        static DBS: [OnceLock<Database>; 2] = [OnceLock::new(), OnceLock::new()];
        DBS[resident as usize].get_or_init(|| {
            let ints = |n: usize, f: &dyn Fn(i64) -> i64| {
                Column::from_i32((0..n as i64).map(|i| f(i) as i32).collect())
            };
            let v: Vec<i64> = (0..ROWS as i64).map(|i| i * 13 % 9973 - 4000).collect();
            let fact: Vec<(&str, Column)> = vec![
                ("k", ints(ROWS, &|i| i * 7919 % ROWS as i64)),
                ("g1", ints(ROWS, &|_| 5)),
                ("g4", ints(ROWS, &|i| i * 31 % 4)),
                ("g1000", ints(ROWS, &|i| i * 17 % 1000)),
                ("grow", ints(ROWS, &|i| i)),
                (
                    "v",
                    Column::from_payloads(
                        bwd_types::DataType::Decimal {
                            precision: 9,
                            scale: 2,
                        },
                        &v,
                    )
                    .unwrap(),
                ),
                ("w", ints(ROWS, &|i| i % 10)),
                ("nz", ints(ROWS, &|i| i % 5 - 7)),
                ("z", ints(ROWS, &|i| if i % 10 < 3 { 1 + i % 4 } else { 0 })),
                ("fk", ints(ROWS, &|i| i * 3 % 50)),
            ];
            let dim = vec![("id", ints(50, &|i| i)), ("c", ints(50, &|i| i % 6))];
            let mut db = Database::new();
            for (table, cols) in [("t", fact), ("d", dim)] {
                let names: Vec<&str> = cols.iter().map(|c| c.0).collect();
                let cols = cols.into_iter().map(|(n, c)| (n.to_string(), c)).collect();
                db.create_table(table, cols).unwrap();
                for c in names {
                    let split = !resident && ["k", "v", "g1000"].contains(&c);
                    let bits = if split { 24 } else { 64 };
                    let spec = DecompositionSpec::with_device_bits(bits);
                    db.bwdecompose_spec(table, c, &spec).unwrap();
                }
            }
            db.declare_fk("t", "fk", "d", "id").unwrap();
            db
        })
    }

    fn between(column: &str, lo: i64, hi: i64) -> Predicate {
        let (column, lo, hi) = (column.into(), Value::Int(lo), Value::Int(hi));
        Predicate::Between { column, lo, hi }
    }

    /// The aggregates bit `i` of `mask` selects; bit 0 divides by zero
    /// wherever `w >= 3`, bit 1 only in a `CASE` branch it never takes.
    fn aggs(mask: usize) -> Vec<AggExpr> {
        use {AggFunc::*, BinOp::*};
        let (v, w, one) = (|| E::col("v"), || E::col("w"), || E::Literal(Value::Int(1)));
        let div = |by: &str| v().binary(Div, E::col(by));
        let net = || v().binary(Mul, one().binary(Sub, w()));
        let case = |column: &str, lo: i64, hi: i64, then: E, otherwise: E| {
            let when = Box::new(between(column, lo, hi));
            let (then, otherwise) = (Box::new(then), Box::new(otherwise));
            E::Case {
                when,
                then,
                otherwise,
            }
        };
        let all = vec![
            (Sum, Some(div("z"))),
            (Sum, Some(case("w", 0, 2, div("z"), v()))),
            (Count, None),
            (Sum, Some(v())),
            (Avg, Some(v())),
            (Min, Some(w())),
            (Max, Some(w().binary(Sub, div("nz")))),
            (Sum, Some(net())),
            (Sum, Some(net().binary(Mul, one().binary(Add, w())))),
            (Sum, Some(div("nz"))),
            (Sum, Some(case("w", 3, 5, v(), E::Literal(Value::Int(0))))),
            (Sum, Some(case("d.c", 2, 4, v(), E::Literal(Value::Int(0))))),
        ];
        let picked = all
            .into_iter()
            .enumerate()
            .filter(|(i, _)| mask >> i & 1 == 1);
        let agg = |(i, (func, arg))| AggExpr {
            func,
            arg,
            alias: format!("a{i}"),
        };
        picked.map(agg).collect()
    }

    /// The row-at-a-time oracle over table `t` (⋈ its dimension through
    /// `fk`, where declared): scan, filter, per-row `eval_row`, one map
    /// entry per group — `(rows, survivors)`. It reads the plan's
    /// `group_by` and aggregates as they stand: a fold is the tail's
    /// business, not the query's.
    pub(crate) fn oracle(db: &Database, plan: &ArPlan) -> Result<(Vec<Vec<Value>>, usize)> {
        let plan = &ArPlan {
            fold: Vec::new(),
            ..plan.clone()
        };
        let fk = db.fk_index("t", "fk");
        let rows = db.catalog().table("t")?.len();
        let column = |name: &str| {
            let (t, c) = name.split_once('.').unwrap_or(("t", name));
            (db.catalog().table(t).unwrap().column(c).unwrap(), t != "t")
        };
        let fetch = |name: &str, oid: usize| {
            let (col, is_dim) = column(name);
            col.payload(if is_dim {
                fk.as_ref().unwrap().device().get(oid) as usize
            } else {
                oid
            })
        };
        let names = plan.gathered_columns();
        let mut block = RowBlock::new(1);
        for name in names.iter().cloned() {
            let logical = column(&name).0.logical().clone();
            let payloads = vec![0];
            block.push_slot(ColumnSlot {
                name,
                payloads,
                logical,
            });
        }
        let mut exprs = Exprs::default();
        let mut bind = |a: &AggExpr| a.arg.as_ref().map(|e| exprs.bind(e, &block)).transpose();
        let roots: Vec<Option<usize>> = plan.aggs.iter().map(&mut bind).collect::<Result<_>>()?;
        let empty = || vec![(EMPTY_ACC, 0u8); roots.len()];
        let mut groups: BTreeMap<Vec<i64>, Vec<(Acc, u8)>> = BTreeMap::new();
        if plan.group_by.is_empty() {
            groups.insert(Vec::new(), empty());
        }
        let mut survivors = 0;
        let selected = |oid| {
            plan.selections
                .iter()
                .all(|s| s.range.test(fetch(&s.column, oid)))
        };
        for oid in (0..rows).filter(|&oid| selected(oid)) {
            survivors += 1;
            for (slot, name) in names.iter().enumerate() {
                block.payloads_mut(slot)[0] = fetch(name, oid);
            }
            let key = plan.group_by.iter().map(|g| fetch(g, oid)).collect();
            let accs = groups.entry(key).or_insert_with(empty);
            for ((acc, scale), root) in accs.iter_mut().zip(&roots) {
                let v = root.map(|r| exprs.eval_row(r, &block, 0)).transpose()?;
                *scale = v.map_or(0, |v| v.1);
                fold(
                    std::slice::from_mut(acc),
                    v.map(|v| Src::Lit(v.0)),
                    1,
                    |_| 0,
                );
            }
        }
        let rows = groups.into_iter().map(|(key, accs)| {
            let aggs = accs.iter().zip(&plan.aggs);
            let aggs = aggs.map(|(&(acc, scale), a)| acc.render(a.func, scale));
            let key = key
                .into_iter()
                .zip(&plan.group_by)
                .map(|(k, g)| column(g).0.logical().value(k));
            key.chain(aggs).collect()
        });
        Ok((rows.collect(), survivors))
    }

    /// The device's grouped aggregation (`GroupedAgg`) folds every row
    /// into the accumulator table of its thread block and lane and merges
    /// the `blocks × replicas` tables log-depth. Done with the tail's own
    /// sinks — carried ids, `absorb` as the pairwise merge — that equals
    /// the single-table fold bit for bit: sums of `i64` extremes, products
    /// past 2^100, groups most tables never see (their `i128::MAX`/`MIN`
    /// min/max sentinels survive every merge) and one no row is in.
    #[test]
    fn private_tables_merged_pairwise_equal_the_single_table_fold() {
        use {bwd_kernels::reduce::GroupedAgg, AggFunc::*, BinOp::Mul};
        const N: usize = 3 * 65_536 + 1000;
        // Eight slots (a 3-bit key), four of them ever occupied.
        let (slots, wide, scale) = (8u32, [i64::MAX, i64::MIN, -1, 0, 7], [-3, 0, 5, 1 << 40]);
        let mut rng = bwd_types::SplitMix64::new(0x7ab1e);
        let rows: Vec<(u32, i64, i64)> = (0..N)
            .map(|i| {
                // Slot 3 lives in one lane of one block; slots 4..8 nowhere.
                let g = if i % 32 == 9 && i / 65_536 == 2 {
                    3
                } else {
                    rng.below(3) as u32
                };
                (g, wide[rng.below(5) as usize], scale[rng.below(4) as usize])
            })
            .collect();
        let agg = |func, arg, i: usize| AggExpr {
            func,
            arg,
            alias: format!("a{i}"),
        };
        let (v, w) = (|| E::col("v"), || E::col("w"));
        let plan = LogicalPlan::scan("t").aggregate(
            vec!["g".into()],
            vec![
                agg(Sum, Some(v()), 0),
                agg(Count, None, 1),
                agg(Min, Some(w()), 2),
                agg(Max, Some(v().binary(Mul, w())), 3),
            ],
        );
        let slot = |name: &str| ColumnSlot {
            name: name.into(),
            payloads: Vec::new(),
            logical: bwd_storage::Logical::Plain(bwd_types::DataType::Int64),
        };
        let mut db = Database::new();
        let empty = || Column::from_payloads::<i64>(bwd_types::DataType::Int64, &[]).unwrap();
        let cols = ["g", "v", "w"].map(|n| (n.to_string(), empty()));
        db.create_table("t", cols.into()).unwrap();
        let plan = db.bind(&plan, &Default::default()).unwrap();
        let mut schema = RowBlock::new(0);
        schema.push_slot(slot("v"));
        schema.push_slot(slot("w"));
        let carried = GroupTable::from_keys(vec![slot("g")], (0..slots as i64).collect());
        let tail = Tail::new(&plan, schema, Some(carried)).unwrap();

        // Fold `rows` (at most a slice at a time) into `sink`.
        let fold_into = |sink: &mut Sink<'_>, rows: &[(u32, i64, i64)]| {
            for slice in rows.chunks(S) {
                sink.block.resize(slice.len());
                sink.ids = slice.iter().map(|r| r.0).collect();
                for (out, r) in sink.block.payloads_mut(0).iter_mut().zip(slice) {
                    *out = r.1;
                }
                for (out, r) in sink.block.payloads_mut(1).iter_mut().zip(slice) {
                    *out = r.2;
                }
                sink.consume().unwrap();
            }
        };
        let mut single = tail.sink();
        fold_into(&mut single, &rows);

        let gtx = bwd_device::DeviceSpec::gtx680();
        assert_eq!(GroupedAgg::direct_slots(&gtx, 3, plan.aggs.len()), Some(8));
        let spec = GroupedAgg::slotted(&gtx, N, plan.aggs.len(), slots as u64, 4);
        assert_eq!((spec.replicas, spec.blocks), (32, 4));
        let mut private: Vec<Vec<(u32, i64, i64)>> = vec![Vec::new(); 32 * 4];
        // Row `i` folds into its thread block's (of 2^16 rows) replica
        // for its lane.
        let table_of = |i: u64| i / (1 << 16) * spec.replicas + i % spec.replicas;
        for (i, row) in rows.iter().enumerate() {
            private[table_of(i as u64) as usize].push(*row);
        }
        let mut tables: Vec<Sink<'_>> = (private.iter())
            .map(|rows| {
                let mut sink = tail.sink();
                fold_into(&mut sink, rows);
                sink
            })
            .collect();
        while tables.len() > 1 {
            let mut pairs = tables.into_iter();
            tables = Vec::new();
            while let Some(mut left) = pairs.next() {
                pairs
                    .next()
                    .into_iter()
                    .for_each(|right| left.absorb(right));
                tables.push(left);
            }
        }
        let merged = tables.pop().unwrap();

        let bits = |sink: &Sink<'_>| -> Vec<(i128, u64, i128, i128)> {
            let accs = sink.accs.iter().map(|a| (a.sum, a.count, a.min, a.max));
            accs.collect()
        };
        assert_eq!(bits(&merged), bits(&single));
        let (max_product, three) = ((i64::MAX as i128) << 40, &bits(&single)[3 * 4..4 * 4]);
        assert_eq!(three[1].1, 2048, "group 3: one lane of the last full block");
        assert!(bits(&single).iter().any(|a| a.3 == max_product));
        let rows = merged.finish().rows;
        assert_eq!(rows, single.finish().rows);
        assert_eq!(rows.len(), 4, "slots 4..8 kept no row");
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(40))]

        /// The packed key is the group id. Over one to three resident key
        /// columns of 1..=9 bits together — sparsely occupied, the first a
        /// dictionary with unused codes where its width allows — a device
        /// tail folding into slot-addressed tables (shared memory for a
        /// warp of 512-slot tables), one carrying a hash pre-grouping's ids
        /// (no shared memory at all) and whichever of the two the GTX 680's
        /// 48 KiB pick return the rows of the row-at-a-time oracle and of
        /// the classic pipe, at every worker count and slice size, with
        /// refinement dropping candidates.
        #[test]
        fn slots_group_like_carried_ids_and_the_oracle(
            seed: u64,
            bits in 1u32..=9,
            n_cols in 1usize..=3,
            mi in 0usize..4,
            li in 0usize..3,
        ) {
            use bwd_device::DeviceSpec;
            const N: usize = 3000;
            let mut rng = bwd_types::SplitMix64::new(seed);
            // `bits` split over at most `n_cols` columns of at least one bit.
            let mut widths = vec![1u32; n_cols.min(bits as usize)];
            for _ in widths.len() as u32..bits {
                let at = rng.below(widths.len() as u64) as usize;
                widths[at] += 1;
            }
            let mut cols: Vec<(String, Column)> = Vec::new();
            for (i, &w) in widths.iter().enumerate() {
                // Both extrema (so the column is `w` bits wide) and at most
                // two codes between them; a dictionary is the words some
                // row uses, so 2^(w-1) + 1 of them (each used once, then
                // the pool) need `w` bits and leave the codes past the last
                // word without a string.
                let (top, words) = ((1i32 << w) - 1, (1i32 << (w - 1)) + 1);
                let is_dict = i == 0 && w >= 2;
                let top = if is_dict { words - 1 } else { top };
                let pool = [0, top, rng.below(top as u64 + 1) as i32, rng.below(top as u64 + 1) as i32];
                let codes: Vec<i32> = (0..N as i32)
                    .map(|row| match row {
                        _ if is_dict && row < words => row,
                        0 | 1 => pool[row as usize],
                        _ => pool[rng.below(4) as usize],
                    })
                    .collect();
                let col = match is_dict {
                    true => {
                        let vocab: Vec<String> = (0..words).map(|c| format!("w{c:03}")).collect();
                        let spelled: Vec<&str> = codes.iter().map(|&c| &*vocab[c as usize]).collect();
                        Column::from_strings(&spelled)
                    }
                    false => Column::from_i32(codes),
                };
                cols.push((format!("g{i}"), col));
            }
            let ints = |f: &dyn Fn(i64) -> i64| Column::from_i32((0..N as i64).map(|i| f(i) as i32).collect());
            cols.push(("k".into(), ints(&|i| i * 7919 % N as i64)));
            cols.push(("v".into(), ints(&|i| i * 13 % 997 - 400)));
            let mut db = Database::new();
            db.create_table("t", cols).unwrap();
            for (i, _) in widths.iter().enumerate() {
                db.bwdecompose("t", &format!("g{i}"), 32).unwrap();
            }
            db.bwdecompose("t", "k", 24).unwrap();
            db.bwdecompose("t", "v", 32).unwrap();
            let survivors = [1, 700, 2999, N][rng.below(4) as usize] as i64;
            let agg = |func, arg: Option<E>, i: usize| AggExpr { func, arg, alias: format!("a{i}") };
            let plan = LogicalPlan::scan("t")
                .filter(between("k", 0, survivors - 1))
                .aggregate(
                    (0..widths.len()).map(|i| format!("g{i}")).collect(),
                    vec![
                        agg(AggFunc::Sum, Some(E::col("v")), 0),
                        agg(AggFunc::Count, None, 1),
                        agg(AggFunc::Min, Some(E::col("v")), 2),
                    ],
                );
            let plan = db.bind(&plan, &Default::default()).unwrap();
            let (want, kept) = oracle(&db, &plan).unwrap();
            assert_eq!(kept as i64, survivors);
            let (morsels, slice_rows) = ([1, 2, 3, 8][mi], [1, 7, S][li]);
            let opts = ArExecOptions::default();
            let classic =
                run_classic_sliced(db.catalog(), &plan, None, db.env(), morsels, slice_rows, &mut Default::default());
            assert_eq!(classic.unwrap().rows, want);
            let accs = 2; // `sum(v)` and `min(v)` fold one accumulator
            for shared_mem_per_block in [1 << 20, 0, DeviceSpec::gtx680().shared_mem_per_block] {
                let spec = DeviceSpec { shared_mem_per_block, ..DeviceSpec::gtx680() };
                let direct = (1u64 << bits) * accs * 16 * 32 <= shared_mem_per_block;
                let env = Env::with_device(spec);
                let mut ledger = bwd_device::CostLedger::with_trace();
                let run = run_ar_sliced(&db, &plan, &opts, &env, morsels, slice_rows, &mut ledger).unwrap();
                let tag = format!("{widths:?} keys, {shared_mem_per_block} B shared, {morsels} x {slice_rows}");
                assert_eq!(run.rows, want, "{tag}");
                assert_eq!(run.survivors, kept, "{tag}");
                let hashed = ledger.events().iter().any(|e| e.label == "group.approx.hash-multi");
                assert_eq!(hashed, !direct, "{tag}");
            }
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(48))]

        /// Rows and survivors equal the row-at-a-time oracle, and rows,
        /// `breakdown`, `traffic`, `survivors` are bit-identical to the
        /// same mode's serial full-slice run at every slice size and
        /// worker count — in both pipes, on the A&R host path (hashed and
        /// carried grouping), the device fast path and dense
        /// selection-free plans, down to the typed division error.
        #[test]
        fn slices_and_workers_never_change_the_answer(
            si in 0usize..7,
            gi in 0usize..6,
            mask in 2usize..(1 << 12),
            zero in 0usize..4,
            resident: bool,
            mi in 0usize..4,
            li in 0usize..4,
        ) {
            let (db, morsels) = (db(resident), [1, 2, 3, 8][mi]);
            let survivors = SURVIVORS.get(si).copied(); // `None`: no selection, dense candidates
            // Tiny slices stay below a few thousand rounds.
            let slice_rows = [1, 7, 64, S][li].max(survivors.unwrap_or(ROWS) / 4000);
            let scan = LogicalPlan::scan("t");
            let scan = survivors.map_or(scan.clone(), |s| scan.filter(between("k", 0, s as i64 - 1)));
            let group_by = GROUPS[gi].split_whitespace().map(String::from).collect();
            let aggs = aggs(mask & !1 | usize::from(zero == 0));
            let plan = scan.fk_join("fk", "d").aggregate(group_by, aggs);
            let plan = db.bind(&plan, &Default::default()).unwrap();
            let fk = db.fk_index("t", "fk").unwrap().device().data();
            let classic = |m, s| run_classic_sliced(db.catalog(), &plan, Some(fk), db.env(), m, s, &mut Default::default());
            let opts = ArExecOptions::default();
            let ar = |m, s| run_ar_sliced(db, &plan, &opts, db.env(), m, s, &mut Default::default());
            let want = oracle(db, &plan);
            let tag = format!("{plan:?} on {resident}: morsels {morsels} slice {slice_rows}");
            for (serial, sliced) in [
                (classic(1, S), classic(morsels, slice_rows)),
                (ar(1, S), ar(morsels, slice_rows)),
            ] {
                match &want {
                    Ok((rows, survivors)) => {
                        // Compared as text: `avg` over nothing is NaN.
                        let (serial, sliced) = (serial.unwrap(), sliced.unwrap());
                        assert_eq!(format!("{:?}", serial.rows), format!("{rows:?}"), "{tag}");
                        assert_eq!(serial.survivors, *survivors, "{tag}");
                        assert_eq!(format!("{sliced:?}"), format!("{serial:?}"), "{tag}");
                    }
                    Err(e) => {
                        assert!(matches!(e, BwdError::Exec(m) if m == "division by zero"), "{tag}");
                        let got = [serial, sliced].map(|r| r.unwrap_err().to_string());
                        assert_eq!(got, [e.to_string(), e.to_string()], "{tag}");
                    }
                }
            }
        }
    }
}
