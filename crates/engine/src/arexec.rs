//! The A&R executor: interprets an [`ArPlan`] over bound (bitwise
//! distributed) tables.
//!
//! Execution has two phases, mirroring Figure 3 / Figure 7:
//!
//! 1. **Approximation subplan** (device): the relaxed selection chain runs
//!    entirely on the co-processor — full scan first, candidate-list
//!    filters after — followed by the approximate pre-grouping. No step
//!    depends on any refinement, so the approximate answer (candidate
//!    count) is available here.
//! 2. **Refinement** (host): candidate lists cross PCI-E once; selections
//!    are refined last-to-first (each refinement consumes the matching
//!    approximation output through a translucent join), exact values are
//!    reconstructed from residuals, and aggregates are computed — on the
//!    device when *every* referenced column is fully device-resident (the
//!    paper's all-GPU configurations), on the host otherwise (destructive
//!    distributivity, §IV-G).
//!
//! The `pushdown: false` ablation interleaves refinement with the
//! selection chain, paying a PCI-E round trip per predicate (§III-A).

use crate::database::Database;
use crate::eval::{ColumnSlot, RowBlock};
use crate::morsel::{
    partition_mask_ranges, partition_ranges, partition_ranges_min, refine_filter,
    refine_filter_mask, run_parts, run_parts_mut, ResidualReader, ResidualSrc, ScratchPool,
};
use crate::result::{ApproxAnswer, QueryResult};
use crate::tail::{GroupTable, SliceSource, Tail, SLICE_ROWS};
use bwd_core::ops::join::{charge_fk_project_refine, FkIndex};
use bwd_core::ops::project::charge_project_refine;
use bwd_core::plan::ArPlan;
use bwd_core::relax::relax_to_stored;
use bwd_core::{BoundColumn, RangePred};
use bwd_device::units::candidate_stream_bytes;
use bwd_device::{Component, CostLedger, Env};
use bwd_kernels::gather::{
    charge_gather, charge_gather_indirect, gather_indirect_partition_into, gather_partition_into,
};
use bwd_kernels::group::hash_group_multi;
use bwd_kernels::scan::scan_block_ranges;
use bwd_kernels::{Candidates, DeviceArray, ScanOptions, ScanRows, ScanSpec, SelMask, SelVec};
use bwd_obs::{EventKind, SpanId, WorkerHandle, NO_SPAN};
use bwd_types::{BwdError, FaultSite, Oid, Result};
use std::ops::Range;

/// How the approximate-selection chain materializes its candidates.
///
/// Representation only: results, candidate order and simulated costs are
/// bit-identical under every variant (asserted by
/// `tests/packed_selection.rs`); what changes is the real work the host
/// simulation performs per selection step.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum CandidateRep {
    /// Pick per selection: the positional bitmap for direct (fact-side)
    /// predicates whose relaxed stored-domain selectivity estimate is at
    /// least [`BITMAP_MIN_SELECTIVITY`], materialized indices otherwise.
    #[default]
    Auto,
    /// Always materialize (oid, approximation) pairs — the classic path.
    Indices,
    /// Force the bitmap for every direct selection.
    Bitmap,
}

/// [`CandidateRep::Auto`]'s switch point: below ~2% estimated selectivity
/// the sparse index list is smaller than one bit per input row and the
/// mask→index conversion would touch nearly as many 64-row blocks as the
/// survivors themselves; above it the bitmap's constant ⅛ byte per row
/// and its AND-refinement (which skips already-empty 64-row groups) win.
pub const BITMAP_MIN_SELECTIVITY: f64 = 0.02;

/// Execution options for the A&R path.
#[derive(Debug, Clone)]
pub struct ArExecOptions {
    /// Device scan tuning.
    pub scan: ScanOptions,
    /// Candidate representation policy for the approximate-selection
    /// chain (bitmap vs indices; see [`CandidateRep`]).
    pub candidates: CandidateRep,
    /// Capture the approximate answer after the approximation subplan.
    pub approximate_answer: bool,
    /// Real OS threads fanning the refinement-side stages (approximate
    /// selection partitions, selection refinement, projection gathers and
    /// grouping/aggregation) out over contiguous candidate partitions.
    /// `1` runs serially. Results are **bit-identical** and simulated
    /// component costs are unchanged at every value — this knob only buys
    /// wall-clock time on multi-core hosts.
    pub morsels: usize,
    /// Transient device-memory budget in bytes for this query's candidate
    /// lists (12 B per candidate) and device-side aggregation gathers
    /// (8 B per gathered value). `None` is unlimited. The scheduler sets
    /// this to a statistics-based admission reservation; when the query's
    /// *actual* transient footprint exceeds the budget, execution fails
    /// early with [`BwdError::DeviceOutOfMemory`] — the simulated
    /// equivalent of a kernel allocation failing on a full card — and the
    /// scheduler re-queues the query with a worst-case reservation. Pure
    /// bookkeeping: a sufficient budget changes neither results nor
    /// simulated costs.
    pub device_budget: Option<u64>,
}

impl Default for ArExecOptions {
    fn default() -> Self {
        ArExecOptions {
            scan: ScanOptions::default(),
            candidates: CandidateRep::default(),
            approximate_answer: false,
            morsels: 1,
            device_budget: None,
        }
    }
}

use bwd_core::plan::{CANDIDATE_PAIR_BYTES, GATHER_VALUE_BYTES};

/// Running account of a query's transient device allocations, checked
/// against the admission budget (when one is set).
struct TransientBudget {
    used: u64,
    budget: Option<u64>,
}

impl TransientBudget {
    /// Record `bytes` of transient device data; fails when a budget is
    /// set and the running total exceeds it.
    fn charge(&mut self, bytes: u64) -> Result<()> {
        self.used += bytes;
        match self.budget {
            Some(b) if self.used > b => Err(BwdError::DeviceOutOfMemory {
                requested: self.used,
                available: b,
            }),
            _ => Ok(()),
        }
    }
}

/// A phase span over the ledger: snapshots simulated seconds and traffic
/// at `begin`, records the deltas (plus the output cardinality and a
/// kind-specific discriminant) into the span's `End` payload. All cost
/// when tracing is disabled: one branch at begin and one at end — in
/// particular the ledger snapshots are never taken.
struct Probe {
    span: SpanId,
    kind: EventKind,
    sim0: f64,
    bytes0: u64,
}

impl Probe {
    fn begin(
        obs: &WorkerHandle,
        kind: EventKind,
        parent: SpanId,
        ledger: &CostLedger,
        a: u64,
        b: u64,
    ) -> Probe {
        if !obs.enabled() {
            return Probe {
                span: NO_SPAN,
                kind,
                sim0: 0.0,
                bytes0: 0,
            };
        }
        Probe {
            span: obs.begin(kind, parent, a, b),
            kind,
            sim0: ledger.breakdown().total(),
            bytes0: ledger.traffic().total(),
        }
    }

    fn end(self, obs: &WorkerHandle, ledger: &CostLedger, out: u64, d: u64) {
        if self.span == NO_SPAN {
            return;
        }
        let dsim = ledger.breakdown().total() - self.sim0;
        let dbytes = ledger.traffic().total() - self.bytes0;
        obs.end(self.kind, self.span, dsim.to_bits(), dbytes, out, d);
    }
}

/// A resolved column reference.
struct ColRef<'a> {
    bound: &'a BoundColumn,
    /// For a dimension column: the FK index it is reached through.
    fk: Option<&'a FkIndex>,
    dtype: bwd_types::DataType,
    dict: Option<std::sync::Arc<bwd_storage::Dictionary>>,
}

impl<'a> ColRef<'a> {
    /// The device-resident FK link of a dimension column.
    fn link(&self) -> Option<&'a DeviceArray> {
        self.fk.map(FkIndex::device)
    }

    /// Where a refinement touching `accesses` tuples reads the residuals.
    fn residual(&self, accesses: usize) -> ResidualSrc<'a> {
        let host_fk = self.fk.map(FkIndex::host_slice);
        ResidualSrc::for_column(self.bound, self.fk.is_some(), host_fk, accesses)
    }
}

/// Execute the plan with Approximate & Refine processing.
pub fn run_ar(db: &Database, plan: &ArPlan, opts: &ArExecOptions) -> Result<QueryResult> {
    run_ar_in(db, plan, opts, db.env())
}

/// [`run_ar`] against an explicit environment — the per-query override
/// the concurrent scheduler uses, since `db.env()` is shared state. The
/// environment carries both the host-thread allocation *and* the chosen
/// device: pass `db.env().on_device(k)` to run this query against card
/// `k` of a multi-device pool (every card holds a replica of the
/// persistent approximations, so any of them can serve any plan).
pub fn run_ar_in(
    db: &Database,
    plan: &ArPlan,
    opts: &ArExecOptions,
    env: &Env,
) -> Result<QueryResult> {
    run_ar_sliced(db, plan, opts, env, SLICE_ROWS)
}

/// [`run_ar_in`] with an explicit tail slice size (tests sweep it;
/// results and charges are independent of it).
pub(crate) fn run_ar_sliced(
    db: &Database,
    plan: &ArPlan,
    opts: &ArExecOptions,
    env: &Env,
    slice_rows: usize,
) -> Result<QueryResult> {
    let mut ledger = CostLedger::new();
    let obs = env.trace.recorder.worker(&env.trace.lane);
    let begin = |kind, ledger: &CostLedger, a: u64, b: u64| {
        Probe::begin(&obs, kind, env.trace.parent, ledger, a, b)
    };
    let fact = db.catalog().table(&plan.table)?;
    let n = fact.len();
    let morsels = opts.morsels.max(1);
    let mut transient = TransientBudget {
        used: 0,
        budget: opts.device_budget,
    };
    let pool = ScratchPool::default();
    let fk: Option<&FkIndex> = match &plan.fk_join {
        Some(j) => Some(db.fk_index(&plan.table, &j.fact_key)?),
        None => None,
    };

    let resolve = |name: &str| -> Result<ColRef<'_>> {
        let (table, col, fk) = match name.split_once('.') {
            // A joined dimension table implies `fk` (looked up above).
            Some((t, c)) if plan.fk_join.as_ref().is_some_and(|j| j.dim_table == t) => (t, c, fk),
            Some((t, _)) => return Err(BwdError::Bind(format!("table {t} not joined"))),
            None => (plan.table.as_str(), name, None),
        };
        let catalog_col = db.catalog().table(table)?.column(col)?;
        Ok(ColRef {
            bound: db.bound_column(table, col)?,
            fk,
            dtype: catalog_col.dtype(),
            dict: catalog_col.dictionary().cloned(),
        })
    };

    // ======================= Approximation subplan =======================
    let mut sel_outputs: Vec<SelVec> = Vec::with_capacity(plan.selections.len());
    // Exact survivors, once a refinement ran (`None`: the candidates).
    let mut survivors: Option<Vec<Oid>> = None;

    if plan.pushdown {
        for (i, sel) in plan.selections.iter().enumerate() {
            let c = resolve(&sel.column)?;
            // Bitmaps chain through *both* direct and dimension-side
            // predicates: the AND refinement is positional over fact
            // rows either way (a dim step tests `arr[link[row]]` for
            // each still-live bit), so no representation round-trip
            // happens mid-chain.
            let input_len = sel_outputs.last().map_or(n, SelVec::len) as u64;
            let probe = begin(EventKind::ApproxSelect, &ledger, input_len, i as u64);
            let cands = approx_select_step(
                env,
                &c,
                &sel.range,
                sel_outputs.last(),
                &opts.scan,
                morsels,
                opts.candidates,
                probe.span,
                &pool,
                &mut ledger,
            )?;
            let rep_bit = u64::from(matches!(cands, SelVec::Bitmap(_)));
            probe.end(&obs, &ledger, cands.len() as u64, rep_bit);
            transient.charge(cands.len() as u64 * CANDIDATE_PAIR_BYTES)?;
            sel_outputs.push(cands);
            env.fault.check(FaultSite::Exec)?; // the card may die between steps
            env.preempt.check()?; // between approximate-selection steps
        }
    } else {
        // Ablation: approximate *and refine* each selection before the
        // next — survivors re-cross PCI-E per predicate. Every step's
        // candidates are materialized for the immediate refinement
        // anyway, so the chain runs on indices regardless of the
        // representation policy.
        for (i, sel) in plan.selections.iter().enumerate() {
            let c = resolve(&sel.column)?;
            let input = survivors.take().map(|oids| {
                // Upload the refined oid list back to the device.
                ledger.charge(
                    Component::Pcie,
                    "select.approx.upload-survivors",
                    env.pcie.transfer_seconds(oids.len() as u64 * 4),
                    oids.len() as u64 * 4,
                );
                SelVec::Indices(Candidates::from_pairs(oids, Vec::new()))
            });
            let input_len = input.as_ref().map_or(n, SelVec::len) as u64;
            let probe = begin(EventKind::ApproxSelect, &ledger, input_len, i as u64);
            let cands = approx_select_step(
                env,
                &c,
                &sel.range,
                input.as_ref(),
                &opts.scan,
                morsels,
                CandidateRep::Indices,
                probe.span,
                &pool,
                &mut ledger,
            )?;
            probe.end(&obs, &ledger, cands.len() as u64, 0);
            transient.charge(cands.len() as u64 * CANDIDATE_PAIR_BYTES)?;
            let probe = begin(EventKind::Refine, &ledger, cands.len() as u64, i as u64);
            let refined = refine_selection(
                env,
                &c,
                &cands,
                None,
                &sel.range,
                morsels,
                &pool,
                &mut ledger,
            )?;
            probe.end(&obs, &ledger, refined.len() as u64, 0);
            survivors = Some(refined);
            sel_outputs.push(cands);
            env.fault.check(FaultSite::Exec)?; // the card may die between steps
            env.preempt.check()?; // between approx+refine pairs (ablation)
        }
    }

    env.fault.check(FaultSite::Exec)?;
    env.preempt.check()?; // the gather boundary

    // The gather boundary: downstream operators (device pre-grouping,
    // projection gathers, the tail's translucent alignment) need
    // positions, so a bitmap expands here into the oid list the index
    // path would have carried all along — same oids, same block-scrambled
    // order. Its approximations are *not* materialized (8 B per
    // candidate): the one consumer, this selection's own refinement,
    // re-decodes them block-wise through the mask like every other
    // bitmap step.
    let expanded;
    let final_cands: &Candidates = match sel_outputs.last() {
        Some(SelVec::Indices(c)) => c,
        Some(SelVec::Bitmap(m)) => {
            expanded = Candidates::from_pairs(m.oids(), Vec::new());
            &expanded
        }
        None => {
            expanded = Candidates::dense_all(n);
            &expanded
        }
    };

    // Approximate pre-grouping (device) where the keys allow it.
    let group_cols: Vec<ColRef<'_>> = plan
        .group_by
        .iter()
        .map(|g| resolve(g))
        .collect::<Result<_>>()?;
    let device_group = if !plan.group_by.is_empty()
        && group_cols
            .iter()
            .all(|c| c.fk.is_none() && c.bound.meta().fully_device_resident())
    {
        let arrays: Vec<&DeviceArray> = group_cols.iter().map(|c| c.bound.approx()).collect();
        Some(hash_group_multi(env, &arrays, final_cands, &mut ledger))
    } else {
        None
    };

    let approx_answer = opts.approximate_answer.then(|| ApproxAnswer {
        candidate_count: final_cands.len(),
        breakdown: ledger.breakdown(),
    });

    // Columns the aggregation/projection needs.
    let needed_cols: Vec<(String, ColRef<'_>)> = plan
        .gathered_columns()
        .into_iter()
        .map(|nm| resolve(&nm).map(|c| (nm, c)))
        .collect::<Result<_>>()?;

    // Device fast path (the all-GPU configurations): every referenced
    // column — selections included — is fully device-resident, so the
    // relaxed bounds are exact (granule size 1), the candidate list holds
    // no false positives, and no refinement is needed at all: the device
    // computes exact aggregates and only final results cross the bus.
    let selections_resident = plan
        .selections
        .iter()
        .map(|s| resolve(&s.column))
        .collect::<Result<Vec<_>>>()?
        .iter()
        .all(|c| c.bound.meta().fully_device_resident());
    let all_resident = selections_resident
        && needed_cols
            .iter()
            .all(|(_, c)| c.bound.meta().fully_device_resident())
        && plan.pushdown;

    // ============================ Refinement ============================
    // Selections refine last-to-first: the matching approximation output
    // is consumed through a translucent join, survivors shrink monotonically.
    // The device fast path is exact by construction and consumes the
    // candidates; the ablation refined every step already.
    if !all_resident && plan.pushdown {
        for (i, sel) in plan.selections.iter().enumerate().rev() {
            let c = resolve(&sel.column)?;
            // Bitmap outputs are consumed *as masks* — the refinement
            // tests survivors positionally, with no index-list
            // round-trip; index outputs carry their approximations.
            let input_len = survivors.as_ref().map_or(sel_outputs[i].len(), Vec::len) as u64;
            let probe = begin(EventKind::Refine, &ledger, input_len, i as u64);
            let refined = refine_selection(
                env,
                &c,
                &sel_outputs[i],
                survivors.as_deref(),
                &sel.range,
                morsels,
                &pool,
                &mut ledger,
            )?;
            probe.end(&obs, &ledger, refined.len() as u64, 0);
            survivors = Some(refined);
            env.fault.check(FaultSite::Exec)?; // the card may die between steps
            env.preempt.check()?; // between refinement steps
        }
    }
    // Without a refinement the survivors *are* the final candidates.
    let survivor_count = survivors.as_ref().map_or(final_cands.len(), Vec::len);

    env.fault.check(FaultSite::Exec)?;
    env.preempt.check()?; // before the tail

    // ============================== The tail ==============================
    // Gather → refine → group → evaluate → aggregate, one slice of
    // survivors at a time (`crate::tail`). Every charge below is issued
    // once, in program order, from the totals — the simulated platform
    // still runs the bulk operators — so the ledger cannot depend on how
    // the host slices or parallelizes the real work.
    if all_resident {
        // The device fast path gathers every needed column over the
        // candidates into device scratch before aggregating.
        transient
            .charge(final_cands.len() as u64 * needed_cols.len() as u64 * GATHER_VALUE_BYTES)?;
        if !plan.group_by.is_empty() && device_group.is_none() {
            return Err(BwdError::Exec(
                "device aggregation requires a device grouping".into(),
            ));
        }
    }
    let gather_probe = begin(EventKind::Gather, &ledger, survivor_count as u64, 0);
    let mut schema = RowBlock::new(0);
    let mut cols = Vec::with_capacity(needed_cols.len());
    for (name, c) in &needed_cols {
        let (arr, link) = (c.bound.approx(), c.link());
        let n_cands = final_cands.len();
        match (all_resident, link) {
            // Device path: gathers stay on the device, payloads decode
            // exactly (no residual exists), nothing crosses the bus.
            (true, None) => charge_gather(
                env,
                arr,
                final_cands.dense,
                n_cands,
                "aggregate.gather",
                &mut ledger,
            ),
            (true, Some(l)) => {
                charge_gather_indirect(env, arr, l, n_cands, "aggregate.gather", &mut ledger)
            }
            // Host path: approximate projection on the device, download,
            // translucent refinement with residuals.
            (false, None) => {
                let dense = final_cands.dense;
                charge_gather(
                    env,
                    arr,
                    dense,
                    n_cands,
                    "project.approx.gather",
                    &mut ledger,
                );
                charge_project_refine(env, c.bound, n_cands, survivor_count, true, &mut ledger);
            }
            (false, Some(l)) => {
                charge_gather_indirect(env, arr, l, n_cands, "join.fk.approx", &mut ledger);
                charge_fk_project_refine(env, c.bound, n_cands, survivor_count, true, &mut ledger);
            }
        }
        schema.push_slot(ColumnSlot {
            name: name.clone(),
            payloads: Vec::new(),
            dtype: c.dtype,
            dict: c.dict.clone(),
        });
        // Cached-vs-scattered residual reads are decided per query, from
        // the total the refinement will touch — not per slice.
        cols.push((c.bound, link, c.residual(survivor_count)));
    }
    // Group keys that are fully device-resident were pre-grouped exactly
    // (their approximation *is* the value): carry those ids through the
    // slices' translucent alignment instead of re-hashing refined keys.
    let carried = device_group.as_ref().map(|g| {
        let keys = g.group_keys.iter().flat_map(|key| {
            (key.iter().zip(&group_cols))
                .map(|(&stored, c)| c.bound.meta().payload_from_parts(stored, 0))
        });
        GroupTable::from_keys(group_cols.len(), keys.collect())
    });
    let tail = Tail::new(plan, schema, carried)?;
    let sources = partition_ranges(survivor_count, morsels)
        .into_iter()
        .map(|rows| ArSource {
            cands: final_cands,
            survivors: survivors.as_deref().unwrap_or(&final_cands.oids),
            cursor: rows.start,
            rows,
            cols: cols.iter().map(|&(b, l, r)| (b, l, r.reader())).collect(),
            group_ids: device_group.as_ref().map(|g| g.group_ids.as_slice()),
            pos: Vec::new(),
            approx: Vec::new(),
        })
        .collect();
    let partials = tail.run(env, sources, slice_rows)?;
    gather_probe.end(&obs, &ledger, survivor_count as u64, 0);

    let groupagg_probe = begin(
        EventKind::GroupAgg,
        &ledger,
        survivor_count as u64,
        u64::from(all_resident),
    );
    if !all_resident && !plan.group_by.is_empty() {
        // Exact host grouping over the refined key slots.
        env.charge_host_scan(
            "group.refine.host",
            survivor_count as u64 * 8,
            2 * survivor_count as u64,
            &mut ledger,
        );
    }

    // Aggregation / projection arithmetic.
    let agg_component = if all_resident {
        Component::Device
    } else {
        Component::Host
    };
    let expr_ops: u64 = plan
        .aggs
        .iter()
        .map(|a| a.arg.as_ref().map_or(0, |e| e.op_count()) + 1)
        .chain(plan.project.iter().map(|(e, _)| e.op_count() + 1))
        .sum();
    let agg_tuples = survivor_count as u64 * expr_ops.max(1);
    let t_agg = match agg_component {
        Component::Device => {
            let spec = env.device.spec();
            let mut t = spec.compute_seconds(3 * agg_tuples);
            if let Some(g) = device_group.as_ref() {
                // Grouped device aggregation scatters atomic updates into
                // per-group accumulators: the same write-conflict
                // contention as the grouping kernel, once per aggregate
                // per tuple (this is what bounds the paper's Q1 to a ~3x
                // speedup). Expression arithmetic itself runs in registers
                // and does not contend.
                let conflicts = 1.0 + 31.0 / g.group_keys.len().max(1) as f64;
                let updates = survivor_count as f64 * plan.aggs.len() as f64;
                t += updates * conflicts * spec.atomic_conflict_cost;
            }
            t
        }
        _ => {
            // Destructive distributivity (§IV-G): the sums are evaluated
            // with the *classic* bulk operators over reconstructed exact
            // values — per-primitive materialization plus one accumulation
            // pass per aggregate, same pricing as the classic pipe.
            let expr = env.cpu.scan_seconds(
                survivor_count as u64 * expr_ops * 8,
                agg_tuples,
                env.host_threads,
            );
            let accum = plan.aggs.len().max(1) as f64
                * env.cpu.scan_seconds(
                    survivor_count as u64 * 8,
                    survivor_count as u64,
                    env.host_threads,
                );
            expr + accum
        }
    };
    ledger.charge(agg_component, "aggregate.eval", t_agg, 0);

    let (columns, rows) = tail.finish(partials);
    if all_resident {
        // Per-group results cross the bus (tiny).
        env.charge_download("aggregate.download", rows.len() as u64 * 16, &mut ledger);
    }
    groupagg_probe.end(&obs, &ledger, rows.len() as u64, 0);

    Ok(QueryResult {
        columns,
        rows,
        breakdown: ledger.breakdown(),
        traffic: ledger.traffic(),
        survivors: survivor_count,
        approx: approx_answer,
    })
}

/// One approximate selection step (full scan / chained, direct / through
/// the FK link), fanned out over `morsels` real threads, producing the
/// representation the policy picks. The step is one [`ScanSpec`]: its
/// partitions run on the workers, and the cost is charged once from the
/// merged total by the same spec — identically in both representations.
///
/// Bitmap-producing steps distribute word-aligned mask ranges — every
/// partition boundary is a mask-word boundary, so workers fill disjoint
/// words of one shared buffer and the parallel path needs no
/// synchronization at all. The mask is positional over *fact* rows for
/// fact-side and dimension-side predicates alike, so chained predicates
/// AND masks with no representation round-trip at the dim boundary.
/// Index-producing steps distribute contiguous chunks of the simulated
/// thread-block sequence (in its bit-reversed emission order) or
/// contiguous candidate partitions; concatenating worker outputs in
/// chunk order reproduces the serial kernel's permutation byte for byte.
#[allow(clippy::too_many_arguments)]
fn approx_select_step(
    env: &Env,
    col: &ColRef<'_>,
    range: &RangePred,
    input: Option<&SelVec>,
    scan: &ScanOptions,
    morsels: usize,
    rep: CandidateRep,
    stage: SpanId,
    pool: &ScratchPool,
    ledger: &mut CostLedger,
) -> Result<SelVec> {
    // One morsel span per fanned-out partition, recorded from the worker
    // thread itself onto its own lane. The enabled check happens *before*
    // the lane label is built, so the disabled path allocates nothing.
    let morsel_enabled = env.trace.recorder.is_enabled();
    let morsel_begin = |part: usize, input_len: usize| {
        let t = if morsel_enabled {
            env.trace
                .recorder
                .worker(&format!("{}/m{}", env.trace.lane, part))
        } else {
            bwd_obs::Recorder::disabled().worker("")
        };
        let span = t.begin(EventKind::Morsel, stage, input_len as u64, part as u64);
        (t, span)
    };
    let Some((lo, hi)) = relax_to_stored(col.bound.meta(), range) else {
        return Ok(SelVec::Indices(Candidates::empty()));
    };
    let arr = col.bound.approx();
    let link = col.link();
    let rows = link.unwrap_or(arr).len();
    let spec = ScanSpec::new(arr, link, lo, hi, input.map(SelVec::len));

    // A bitmap input is AND-refined into a bitmap; a full scan produces
    // one when the policy says so.
    let mask_in = match input {
        Some(SelVec::Bitmap(m)) => Some(m),
        _ => None,
    };
    if mask_in.is_some() || (input.is_none() && bitmap_worthwhile(rep, lo, hi, arr.width())) {
        let mut words = vec![0u64; rows.div_ceil(64)];
        let ranges = partition_mask_ranges(words.len(), morsels);
        run_parts_mut(&mut words, &ranges, |p, r, chunk| {
            let (t, span) = morsel_begin(p, r.len());
            spec.fill_mask(mask_in.map(|m| &m.words()[r.clone()]), r.start, chunk);
            let out = if morsel_enabled {
                chunk.iter().map(|w| u64::from(w.count_ones())).sum()
            } else {
                0
            };
            t.end(EventKind::Morsel, span, 0, 0, out, 0);
        });
        let mask = match mask_in {
            Some(m) => m.like(words),
            None => SelMask::from_words(words, rows, scan),
        };
        spec.charge(env, mask.count(), scan, ledger);
        return Ok(SelVec::Bitmap(mask));
    }

    let cands_in = input.and_then(SelVec::as_indices);
    let (blocks, parts) = match cands_in {
        None => {
            let blocks = scan_block_ranges(rows, scan);
            let parts = partition_ranges_min(blocks.len(), morsels, 1);
            (blocks, parts)
        }
        Some(c) => (Vec::new(), partition_ranges(c.len(), morsels)),
    };
    let outs = run_parts(&parts, |p, r| {
        let (t, span) = morsel_begin(p, r.len());
        let mut oids = pool.take_u32();
        let mut vals = pool.take_u64();
        match cands_in {
            None => blocks[r]
                .iter()
                .for_each(|b| spec.emit(ScanRows::Span(b.clone()), &mut oids, &mut vals)),
            Some(c) => spec.emit(ScanRows::Oids(&c.oids[r]), &mut oids, &mut vals),
        }
        t.end(EventKind::Morsel, span, 0, 0, oids.len() as u64, 0);
        (oids, vals)
    });
    let (oids, approx) = merge_candidate_parts(outs, pool);
    spec.charge(env, oids.len(), scan, ledger);
    Ok(SelVec::Indices(Candidates::from_pairs(oids, approx)))
}

/// Whether a full-scan selection step should produce the bitmap
/// representation under `rep`'s policy: forced either way, or — under
/// [`CandidateRep::Auto`] — when the relaxed bounds' uniform
/// stored-domain selectivity estimate clears
/// [`BITMAP_MIN_SELECTIVITY`]. The estimate needs no binder statistics:
/// `[lo, hi]` is exactly the interval the relaxed scan filters by, and
/// the stored domain is `2^width`.
fn bitmap_worthwhile(rep: CandidateRep, lo: u64, hi: u64, width: u32) -> bool {
    match rep {
        CandidateRep::Indices => false,
        CandidateRep::Bitmap => true,
        CandidateRep::Auto => {
            let est = ((hi - lo) as f64 + 1.0) / (width as f64).exp2();
            est >= BITMAP_MIN_SELECTIVITY
        }
    }
}

/// Concatenate per-worker candidate buffers in partition order, recycling
/// each buffer into the pool.
fn merge_candidate_parts(
    mut outs: Vec<(Vec<Oid>, Vec<u64>)>,
    pool: &ScratchPool,
) -> (Vec<Oid>, Vec<u64>) {
    if outs.len() == 1 {
        // Single partition: hand the (pool-born) buffers to the caller
        // instead of copying them.
        return outs.pop().unwrap();
    }
    let total: usize = outs.iter().map(|(o, _)| o.len()).sum();
    let mut oids = Vec::with_capacity(total);
    let mut vals = Vec::with_capacity(total);
    for (o, v) in outs {
        oids.extend_from_slice(&o);
        vals.extend_from_slice(&v);
        pool.put_u32(o);
        pool.put_u64(v);
    }
    (oids, vals)
}

/// Refine one selection: download its approximation output, align the
/// survivor subset, reconstruct exact payloads via the residual (at the
/// fact position, or the dimension position through the host FK index)
/// and re-test the precise range — fanned out over `morsels` contiguous
/// partitions, with residual reads routed through the block-cached bulk
/// decoder when the refined set is dense. An index output aligns through
/// the translucent join; a *bitmap* output is consumed directly — the
/// join degenerates to O(1) positional membership and each survivor's
/// approximation is re-decoded from the host replica of the device
/// array, with no index-list round-trip. Charges are keyed on the
/// candidate count, identical in both representations.
#[allow(clippy::too_many_arguments)]
fn refine_selection(
    env: &Env,
    col: &ColRef<'_>,
    approx_out: &SelVec,
    survivors: Option<&[Oid]>,
    range: &RangePred,
    morsels: usize,
    pool: &ScratchPool,
    ledger: &mut CostLedger,
) -> Result<Vec<Oid>> {
    let (meta, cand_n) = (col.bound.meta(), approx_out.len());
    if meta.fully_device_resident() {
        env.charge_download("select.refine.download", cand_n as u64 * 4, ledger);
    } else {
        let bytes = candidate_stream_bytes(meta.stored_width(), cand_n as u64);
        let seconds = env.pcie.transfer_seconds(bytes);
        ledger.charge(Component::Pcie, "select.refine.download", seconds, bytes);
    }
    let refined_n = survivors.map_or(cand_n, <[Oid]>::len);
    let residual = col.residual(refined_n);
    let out = match approx_out {
        SelVec::Indices(c) => refine_filter(meta, residual, c, survivors, range, morsels, pool)?,
        SelVec::Bitmap(mask) => {
            let (arr, link) = (col.bound.approx(), col.link());
            refine_filter_mask(
                meta, residual, mask, arr, link, survivors, range, morsels, pool,
            )?
        }
    };
    let merge_bytes = survivors.map_or(0, |_| cand_n as u64 * 4);
    if meta.fully_device_resident() {
        env.charge_host_scan(
            "select.refine.materialize",
            refined_n as u64 * 4 + merge_bytes,
            refined_n as u64,
            ledger,
        );
    } else {
        env.charge_host_scattered(
            "select.refine",
            col.bound.residual_access_bytes(refined_n) + merge_bytes,
            refined_n as u64 * bwd_core::ops::REFINE_OPS_PER_TUPLE,
            ledger,
        );
    }
    Ok(out)
}

/// The A&R slice source over one worker's contiguous survivor run.
///
/// Survivors are a subset of the final candidates under one shared
/// permutation, so a *running* translucent cursor aligns them: each slice
/// advances it over the candidate window holding the slice's survivors
/// (at most `slice_rows` of either), recording every survivor's position
/// in the window once for all columns. Per column the window's stored
/// approximations are gathered (what the device's projection produced)
/// and refined with residuals into the slice block; a carried device
/// pre-grouping rides the same alignment like one more projected column.
/// Without refinement (`survivors` = the candidates themselves — the
/// device fast path, or a plan without selections) the alignment is the
/// identity and the residuals are empty or read positionally.
struct ArSource<'a> {
    cands: &'a Candidates,
    survivors: &'a [Oid],
    /// This worker's remaining survivor rows.
    rows: Range<usize>,
    /// Candidate-side cursor: no remaining survivor sits before it. It
    /// starts at the run's first row index — survivor `i` cannot precede
    /// candidate `i` — and the merge advances it, so no pre-pass locates
    /// partition boundaries.
    cursor: usize,
    cols: Vec<(&'a BoundColumn, Option<&'a DeviceArray>, ResidualReader<'a>)>,
    /// Device pre-grouping ids, aligned with the candidates.
    group_ids: Option<&'a [u32]>,
    /// Window-relative candidate position per slice row (reused).
    pos: Vec<u32>,
    /// The current column's window approximations (reused).
    approx: Vec<u64>,
}

impl ArSource<'_> {
    /// Advance over the next slice: returns its survivor rows and its
    /// candidate window, leaving the alignment in `self.pos`.
    fn align(&mut self, slice_rows: usize) -> Result<(Range<usize>, Range<usize>)> {
        let (oids, surv) = (&self.cands.oids, self.survivors);
        let (start, end) = (
            self.rows.start,
            self.rows.end.min(self.rows.start + slice_rows),
        );
        self.pos.clear();
        if self.cols.is_empty() && self.group_ids.is_none() {
            self.rows.start = end; // nothing consumes candidate positions
            return Ok((start..end, 0..0));
        }
        let mut row = start;
        let window = if self.cands.dense {
            // Invisible join: a candidate's position is its oid.
            let (base, mut top) = (surv[start] as usize, 0);
            while row < end && (surv[row] as usize).wrapping_sub(base) < slice_rows {
                self.pos.push((surv[row] as usize - base) as u32);
                top = top.max(surv[row] as usize);
                row += 1;
            }
            let window = base..top + 1;
            if window.end > oids.len() {
                return Err(BwdError::Exec(format!(
                    "invisible join: oid {} outside dense range",
                    window.end - 1
                )));
            }
            window
        } else {
            // Algorithm 1: advance the cursor until it matches the
            // current survivor; both advance on a match.
            let first = oids[self.cursor.min(oids.len())..]
                .iter()
                .position(|&o| o == surv[start])
                .ok_or_else(|| {
                    BwdError::Exec(format!(
                        "translucent join: oid {} not found — permutation precondition violated",
                        surv[start]
                    ))
                })?;
            let base = self.cursor + first;
            let mut at = base;
            while row < end && at < oids.len().min(base + slice_rows) {
                if oids[at] == surv[row] {
                    self.pos.push((at - base) as u32);
                    row += 1;
                    self.cursor = at + 1;
                }
                at += 1;
            }
            base..self.cursor
        };
        self.rows.start = row;
        Ok((start..row, window))
    }
}

impl SliceSource for ArSource<'_> {
    fn fill(
        &mut self,
        slice_rows: usize,
        block: &mut RowBlock,
        ids: &mut Vec<u32>,
    ) -> Result<bool> {
        let (run, window) = self.align(slice_rows)?;
        block.resize(run.len());
        let (oids, pos) = (&self.survivors[run], &self.pos);
        for (slot, (col, link, residual)) in self.cols.iter_mut().enumerate() {
            let arr = col.approx();
            self.approx.resize(window.len(), 0);
            match link {
                None if self.cands.dense => arr.data().unpack_range(window.start, &mut self.approx),
                None => {
                    gather_partition_into(arr, &self.cands.oids[window.clone()], &mut self.approx)
                }
                Some(l) => {
                    let window = &self.cands.oids[window.clone()];
                    gather_indirect_partition_into(arr, l, window, &mut self.approx)
                }
            }
            let meta = col.meta();
            for ((out, &p), &oid) in block.payloads_mut(slot).iter_mut().zip(pos).zip(oids) {
                *out = meta.payload_from_parts(self.approx[p as usize], residual.get(oid));
            }
        }
        if let Some(group_ids) = self.group_ids {
            ids.clear();
            ids.extend(pos.iter().map(|&p| group_ids[window.start + p as usize]));
        }
        Ok(!self.rows.is_empty())
    }
}
