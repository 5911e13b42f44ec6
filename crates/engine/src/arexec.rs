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

use crate::aggregate::{compute_aggregates_morsel, compute_projection_morsel, Grouping};
use crate::database::Database;
use crate::eval::{payload_to_value, ColumnSlot, RowBlock};
use crate::morsel::{
    gather_stored, group_rows, partition_mask_ranges, partition_ranges, partition_ranges_min,
    refine_filter, refine_filter_mask, refine_payloads, run_parts, run_parts_mut,
    translucent_starts, ApproxSrc, ResidualSrc, ScratchPool,
};
use crate::result::{ApproxAnswer, QueryResult};
use bwd_core::ops::join::{charge_fk_project_refine, FkIndex};
use bwd_core::ops::project::charge_project_refine;
use bwd_core::plan::ArPlan;
use bwd_core::relax::relax_to_stored;
use bwd_core::{BoundColumn, RangePred};
use bwd_device::{Component, CostLedger, Env};
use bwd_kernels::gather::{charge_gather, charge_gather_indirect};
use bwd_kernels::group::hash_group_multi;
use bwd_kernels::scan::scan_block_ranges;
use bwd_kernels::{Candidates, ScanOptions, ScanRows, ScanSpec, SelMask, SelVec};
use bwd_obs::{EventKind, SpanId, WorkerHandle, NO_SPAN};
use bwd_types::{BwdError, FaultSite, Oid, Result, Value};

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
    fn new(budget: Option<u64>) -> Self {
        TransientBudget { used: 0, budget }
    }

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

    fn end(self, obs: &WorkerHandle, ledger: &CostLedger, out: u64) {
        self.end_with(obs, ledger, out, 0);
    }

    fn end_with(self, obs: &WorkerHandle, ledger: &CostLedger, out: u64, d: u64) {
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
    /// Whether this is a dimension column reached through the FK index.
    is_dim: bool,
    dtype: bwd_types::DataType,
    dict: Option<std::sync::Arc<bwd_storage::Dictionary>>,
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
    let mut ledger = CostLedger::new();
    let obs = env.trace.recorder.worker(&env.trace.lane);
    let phase_parent = env.trace.parent;
    let fact = db.catalog().table(&plan.table)?;
    let n = fact.len();
    let morsels = opts.morsels.max(1);
    let mut transient = TransientBudget::new(opts.device_budget);
    let pool = ScratchPool::default();
    let fk: Option<&FkIndex> = match &plan.fk_join {
        Some(j) => Some(db.fk_index(&plan.table, &j.fact_key)?),
        None => None,
    };

    let resolve = |name: &str| -> Result<ColRef<'_>> {
        let (table, col, is_dim) = match name.split_once('.') {
            Some((t, c)) => {
                let j = plan
                    .fk_join
                    .as_ref()
                    .filter(|j| j.dim_table == t)
                    .ok_or_else(|| BwdError::Bind(format!("table {t} not joined")))?;
                let _ = j;
                (t, c, true)
            }
            None => (plan.table.as_str(), name, false),
        };
        let catalog_col = db.catalog().table(table)?.column(col)?;
        Ok(ColRef {
            bound: db.bound_column(table, col)?,
            is_dim,
            dtype: catalog_col.dtype(),
            dict: catalog_col.dictionary().cloned(),
        })
    };

    // ======================= Approximation subplan =======================
    let mut sel_outputs: Vec<SelVec> = Vec::with_capacity(plan.selections.len());
    let mut interleaved_survivors: Option<Vec<Oid>> = None;

    if plan.pushdown {
        for (i, sel) in plan.selections.iter().enumerate() {
            let c = resolve(&sel.column)?;
            // Bitmaps chain through *both* direct and dimension-side
            // predicates: the AND refinement is positional over fact
            // rows either way (a dim step tests `arr[link[row]]` for
            // each still-live bit), so no representation round-trip
            // happens mid-chain.
            let input_len = sel_outputs.last().map_or(n, SelVec::len) as u64;
            let probe = Probe::begin(
                &obs,
                EventKind::ApproxSelect,
                phase_parent,
                &ledger,
                input_len,
                i as u64,
            );
            let cands = approx_select_step(
                env,
                &c,
                fk,
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
            probe.end_with(&obs, &ledger, cands.len() as u64, rep_bit);
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
        let mut surv: Option<Vec<Oid>> = None;
        for (i, sel) in plan.selections.iter().enumerate() {
            let c = resolve(&sel.column)?;
            let input = surv.map(|oids| {
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
            let probe = Probe::begin(
                &obs,
                EventKind::ApproxSelect,
                phase_parent,
                &ledger,
                input_len,
                i as u64,
            );
            let cands = approx_select_step(
                env,
                &c,
                fk,
                &sel.range,
                input.as_ref(),
                &opts.scan,
                morsels,
                CandidateRep::Indices,
                probe.span,
                &pool,
                &mut ledger,
            )?;
            probe.end(&obs, &ledger, cands.len() as u64);
            transient.charge(cands.len() as u64 * CANDIDATE_PAIR_BYTES)?;
            let probe = Probe::begin(
                &obs,
                EventKind::Refine,
                phase_parent,
                &ledger,
                cands.len() as u64,
                i as u64,
            );
            let refined = refine_selection(
                env,
                &c,
                fk,
                cands.as_indices().expect("ablation chain runs on indices"),
                None,
                &sel.range,
                morsels,
                &pool,
                &mut ledger,
            )?;
            probe.end(&obs, &ledger, refined.len() as u64);
            surv = Some(refined);
            sel_outputs.push(cands);
            env.fault.check(FaultSite::Exec)?; // the card may die between steps
            env.preempt.check()?; // between approx+refine pairs (ablation)
        }
        interleaved_survivors = Some(surv.unwrap_or_else(|| (0..n as Oid).collect()));
    }

    env.fault.check(FaultSite::Exec)?;
    env.preempt.check()?; // the gather boundary

    // The gather boundary: downstream operators (device pre-grouping,
    // projection gathers, refinement downloads) need positions and
    // values, so a bitmap materializes here — lazily, and bit-identically
    // to what the index path would have carried all along (through the
    // FK link when the last selection was dimension-side).
    let final_cands: Candidates = if plan.selections.is_empty() {
        Candidates::dense_all(n)
    } else {
        let last = resolve(&plan.selections.last().unwrap().column)?;
        materialize_sel(sel_outputs.last().unwrap(), &last, fk)?
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
            .all(|c| !c.is_dim && c.bound.meta().fully_device_resident())
    {
        let arrays: Vec<&bwd_kernels::DeviceArray> =
            group_cols.iter().map(|c| c.bound.approx()).collect();
        Some(hash_group_multi(env, &arrays, &final_cands, &mut ledger))
    } else {
        None
    };

    let approx_answer = opts.approximate_answer.then(|| ApproxAnswer {
        candidate_count: final_cands.len(),
        breakdown: ledger.breakdown(),
    });

    // Columns the aggregation/projection needs.
    let mut needed: Vec<String> = plan.group_by.clone();
    for a in &plan.aggs {
        if let Some(arg) = &a.arg {
            arg.collect_columns(&mut needed);
        }
    }
    for (e, _) in &plan.project {
        e.collect_columns(&mut needed);
    }
    needed.dedup();
    let needed_cols: Vec<(String, ColRef<'_>)> = needed
        .iter()
        .map(|nm| resolve(nm).map(|c| (nm.clone(), c)))
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
        && plan.pushdown
        && interleaved_survivors.is_none();

    // ============================ Refinement ============================
    // Selections refine last-to-first: the matching approximation output
    // is consumed through a translucent join, survivors shrink monotonically.
    let survivors: Option<Vec<Oid>> = if all_resident {
        None // exact by construction; the device path consumes candidates
    } else if let Some(s) = interleaved_survivors {
        Some(s)
    } else if plan.selections.is_empty() {
        None // every tuple survives; avoid materializing 0..n twice
    } else {
        let mut surv: Option<Vec<Oid>> = None;
        for (i, sel) in plan.selections.iter().enumerate().rev() {
            let c = resolve(&sel.column)?;
            // The last selection's output was already materialized as
            // `final_cands`, so reuse it instead of converting twice;
            // earlier bitmap outputs are consumed *as masks* — the
            // refinement tests survivors positionally, with no
            // index-list round-trip at this boundary.
            let masked: Option<&SelMask> = if i + 1 == sel_outputs.len() {
                None
            } else {
                match &sel_outputs[i] {
                    SelVec::Indices(_) => None,
                    SelVec::Bitmap(m) => Some(m),
                }
            };
            let input_len = surv.as_ref().map_or(sel_outputs[i].len(), Vec::len) as u64;
            let probe = Probe::begin(
                &obs,
                EventKind::Refine,
                phase_parent,
                &ledger,
                input_len,
                i as u64,
            );
            let refined = match masked {
                Some(m) => refine_selection_mask(
                    env,
                    &c,
                    fk,
                    m,
                    surv.as_deref(),
                    &sel.range,
                    morsels,
                    &pool,
                    &mut ledger,
                )?,
                None => {
                    let approx_out: &Candidates = if i + 1 == sel_outputs.len() {
                        &final_cands
                    } else {
                        sel_outputs[i]
                            .as_indices()
                            .expect("non-last, non-bitmap output is indices")
                    };
                    refine_selection(
                        env,
                        &c,
                        fk,
                        approx_out,
                        surv.as_deref(),
                        &sel.range,
                        morsels,
                        &pool,
                        &mut ledger,
                    )?
                }
            };
            probe.end(&obs, &ledger, refined.len() as u64);
            surv = Some(refined);
            env.fault.check(FaultSite::Exec)?; // the card may die between steps
            env.preempt.check()?; // between refinement steps
        }
        surv
    };
    let survivor_count = survivors.as_ref().map_or_else(
        || if all_resident { final_cands.len() } else { n },
        Vec::len,
    );

    env.fault.check(FaultSite::Exec)?;
    env.preempt.check()?; // before the block build + grouping stage
    let (block, grouping, groupagg_probe) = if all_resident {
        // The device fast path gathers every needed column over the
        // candidates into device scratch before aggregating. Bill the
        // *distinct* columns (`needed` is only consecutively deduped) so
        // the charge never exceeds the admission estimate's worst case,
        // which counts sorted-unique columns.
        let distinct_gathered = {
            let mut names: Vec<&String> = needed.iter().collect();
            names.sort_unstable();
            names.dedup();
            names.len() as u64
        };
        transient.charge(final_cands.len() as u64 * distinct_gathered * GATHER_VALUE_BYTES)?;
        let probe = Probe::begin(
            &obs,
            EventKind::Gather,
            phase_parent,
            &ledger,
            final_cands.len() as u64,
            0,
        );
        let dblock = build_device_block(env, &needed_cols, fk, &final_cands, morsels, &mut ledger)?;
        probe.end(&obs, &ledger, final_cands.len() as u64);
        let groupagg = Probe::begin(
            &obs,
            EventKind::GroupAgg,
            phase_parent,
            &ledger,
            final_cands.len() as u64,
            1,
        );
        let (block, grouping) =
            dblock.with_grouping(env, plan, &group_cols, device_group.as_ref(), &final_cands)?;
        (block, grouping, groupagg)
    } else {
        let surv_slice: Vec<Oid> = match &survivors {
            Some(s) => s.clone(),
            None => (0..n as Oid).collect(),
        };
        let probe = Probe::begin(
            &obs,
            EventKind::Gather,
            phase_parent,
            &ledger,
            surv_slice.len() as u64,
            0,
        );
        let block = build_host_block(
            env,
            &needed_cols,
            fk,
            &final_cands,
            &surv_slice,
            morsels,
            &mut ledger,
        )?;
        probe.end(&obs, &ledger, block.len() as u64);
        let groupagg = Probe::begin(
            &obs,
            EventKind::GroupAgg,
            phase_parent,
            &ledger,
            block.len() as u64,
            0,
        );
        let grouping = host_grouping(env, plan, &block, morsels, &pool, &mut ledger)?;
        (block, grouping, groupagg)
    };

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
    let agg_tuples = block.len() as u64 * expr_ops.max(1);
    let t_agg = match agg_component {
        Component::Device => {
            let spec = env.device.spec();
            let mut t = spec.compute_seconds(3 * agg_tuples);
            if let Some(g) = grouping.as_ref() {
                // Grouped device aggregation scatters atomic updates into
                // per-group accumulators: the same write-conflict
                // contention as the grouping kernel, once per aggregate
                // per tuple (this is what bounds the paper's Q1 to a ~3x
                // speedup). Expression arithmetic itself runs in registers
                // and does not contend.
                let conflicts = 1.0 + 31.0 / g.group_keys.len().max(1) as f64;
                let updates = block.len() as f64 * plan.aggs.len() as f64;
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
                block.len() as u64 * expr_ops * 8,
                agg_tuples,
                env.host_threads,
            );
            let accum = plan.aggs.len().max(1) as f64
                * env.cpu.scan_seconds(
                    block.len() as u64 * 8,
                    block.len() as u64,
                    env.host_threads,
                );
            expr + accum
        }
    };
    ledger.charge(agg_component, "aggregate.eval", t_agg, 0);

    let (columns, rows) = if !plan.aggs.is_empty() {
        compute_aggregates_morsel(&block, grouping.as_ref(), &plan.aggs, morsels)?
    } else {
        compute_projection_morsel(&block, &plan.project, morsels)?
    };
    if all_resident {
        // Per-group results cross the bus (tiny).
        env.charge_download("aggregate.download", rows.len() as u64 * 16, &mut ledger);
    }
    groupagg_probe.end(&obs, &ledger, rows.len() as u64);

    Ok(QueryResult {
        columns,
        rows,
        breakdown: ledger.breakdown(),
        traffic: ledger.traffic(),
        survivors: if all_resident {
            final_cands.len()
        } else {
            survivor_count
        },
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
    fk: Option<&FkIndex>,
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
    let link = if col.is_dim {
        Some(
            fk.ok_or_else(|| BwdError::Exec("dim predicate without FK".into()))?
                .device(),
        )
    } else {
        None
    };
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
/// survivor subset (translucent join), reconstruct exact payloads via the
/// residual (at the fact position, or the dimension position through the
/// host FK index) and re-test the precise range — fanned out over
/// `morsels` contiguous candidate partitions, with residual reads routed
/// through the block-cached bulk decoder when the refined set is dense.
#[allow(clippy::too_many_arguments)]
fn refine_selection(
    env: &Env,
    col: &ColRef<'_>,
    fk: Option<&FkIndex>,
    approx_out: &Candidates,
    survivors: Option<&[Oid]>,
    range: &RangePred,
    morsels: usize,
    pool: &ScratchPool,
    ledger: &mut CostLedger,
) -> Result<Vec<Oid>> {
    if col.bound.meta().fully_device_resident() {
        env.charge_download(
            "select.refine.download",
            approx_out.len() as u64 * 4,
            ledger,
        );
    } else {
        approx_out.download(
            env,
            col.bound.meta().stored_width(),
            "select.refine.download",
            ledger,
        );
    }
    let refined_n = survivors.map_or(approx_out.len(), <[Oid]>::len);
    let residual = ResidualSrc::for_column(
        col.bound,
        col.is_dim,
        fk.map(FkIndex::host_slice),
        refined_n,
    );
    let out = refine_filter(
        col.bound.meta(),
        residual,
        approx_out,
        survivors,
        range,
        morsels,
        pool,
    )?;
    let merge_bytes = if survivors.is_some() {
        approx_out.len() as u64 * 4
    } else {
        0
    };
    if col.bound.meta().fully_device_resident() {
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

/// Materialize a selection output at the gather boundary: indices clone
/// through; bitmaps decode into the bit-identical block-scrambled
/// candidate list — through the FK link (`arr[link[row]]`) when the
/// selection was dimension-side.
fn materialize_sel(sv: &SelVec, col: &ColRef<'_>, fk: Option<&FkIndex>) -> Result<Candidates> {
    if col.is_dim {
        let fkx = fk.ok_or_else(|| BwdError::Exec("dim selection without FK".into()))?;
        Ok(sv.to_candidates_indirect(col.bound.approx(), fkx.device()))
    } else {
        Ok(sv.to_candidates(col.bound.approx()))
    }
}

/// [`refine_selection`] consuming a selection's *bitmap* output directly:
/// the refinement tests survivors positionally against the mask (the
/// translucent join degenerates to O(1) membership) and re-decodes each
/// survivor's approximation from the host replica of the device array —
/// no index-list materialization round-trip. Charges are keyed on the
/// mask's candidate count, which equals the materialized list's length,
/// so simulated costs are bit-identical to the index path.
#[allow(clippy::too_many_arguments)]
fn refine_selection_mask(
    env: &Env,
    col: &ColRef<'_>,
    fk: Option<&FkIndex>,
    mask: &SelMask,
    survivors: Option<&[Oid]>,
    range: &RangePred,
    morsels: usize,
    pool: &ScratchPool,
    ledger: &mut CostLedger,
) -> Result<Vec<Oid>> {
    let cand_n = mask.count();
    if col.bound.meta().fully_device_resident() {
        env.charge_download("select.refine.download", cand_n as u64 * 4, ledger);
    } else {
        // Same bytes `Candidates::download` bills for the equivalent
        // materialized list.
        let bytes = bwd_device::units::candidate_stream_bytes(
            col.bound.meta().stored_width(),
            cand_n as u64,
        );
        ledger.charge(
            Component::Pcie,
            "select.refine.download",
            env.pcie.transfer_seconds(bytes),
            bytes,
        );
    }
    let refined_n = survivors.map_or(cand_n, <[Oid]>::len);
    let residual = ResidualSrc::for_column(
        col.bound,
        col.is_dim,
        fk.map(FkIndex::host_slice),
        refined_n,
    );
    let approx = if col.is_dim {
        ApproxSrc::Linked(
            col.bound.approx(),
            fk.ok_or_else(|| BwdError::Exec("dim refinement without FK".into()))?
                .device(),
        )
    } else {
        ApproxSrc::Direct(col.bound.approx())
    };
    let out = refine_filter_mask(
        col.bound.meta(),
        residual,
        mask,
        approx,
        survivors,
        range,
        morsels,
        pool,
    )?;
    let merge_bytes = if survivors.is_some() {
        cand_n as u64 * 4
    } else {
        0
    };
    if col.bound.meta().fully_device_resident() {
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

/// Intermediate for the device fast path.
struct DeviceBlock {
    block: RowBlock,
}

impl DeviceBlock {
    fn with_grouping(
        self,
        _env: &Env,
        plan: &ArPlan,
        group_cols: &[ColRef<'_>],
        device_group: Option<&bwd_kernels::MultiGroupResult>,
        _cands: &Candidates,
    ) -> Result<(RowBlock, Option<Grouping>)> {
        let grouping = match (plan.group_by.is_empty(), device_group) {
            (true, _) => None,
            (false, Some(g)) => {
                let group_keys: Vec<Vec<Value>> = g
                    .group_keys
                    .iter()
                    .map(|keys| {
                        keys.iter()
                            .zip(group_cols)
                            .map(|(&stored, c)| {
                                payload_to_value(
                                    c.bound.meta().payload_from_parts(stored, 0),
                                    c.dtype,
                                    c.dict.as_deref(),
                                )
                            })
                            .collect()
                    })
                    .collect();
                Some(Grouping {
                    group_ids: g.group_ids.clone(),
                    group_keys,
                    key_names: plan.group_by.clone(),
                })
            }
            (false, None) => {
                return Err(BwdError::Exec(
                    "device aggregation requires a device grouping".into(),
                ))
            }
        };
        Ok((self.block, grouping))
    }
}

/// Materialize needed columns on the device path: gathers stay on the
/// device (charged there), payloads are decoded exactly (no residuals
/// exist), and nothing but final aggregates will cross the bus. Both the
/// gather and the exact decode fan out over candidate partitions.
fn build_device_block(
    env: &Env,
    needed: &[(String, ColRef<'_>)],
    fk: Option<&FkIndex>,
    cands: &Candidates,
    morsels: usize,
    ledger: &mut CostLedger,
) -> Result<DeviceBlock> {
    let mut block = RowBlock::new(cands.len());
    let ranges = partition_ranges(cands.len(), morsels);
    for (name, c) in needed {
        let arr = c.bound.approx();
        let stored = if c.is_dim {
            let fk = fk.ok_or_else(|| BwdError::Exec("dim column without FK".into()))?;
            let stored = gather_stored(arr, Some(fk.device()), cands, morsels);
            charge_gather_indirect(
                env,
                arr,
                fk.device(),
                cands.len(),
                "aggregate.gather",
                ledger,
            );
            stored
        } else {
            let stored = gather_stored(arr, None, cands, morsels);
            charge_gather(
                env,
                arr,
                cands.dense,
                cands.len(),
                "aggregate.gather",
                ledger,
            );
            stored
        };
        let meta = c.bound.meta();
        let mut payloads = vec![0i64; stored.len()];
        run_parts_mut(&mut payloads, &ranges, |_, r, chunk| {
            for (slot, &s) in chunk.iter_mut().zip(&stored[r]) {
                *slot = meta.payload_from_parts(s, 0);
            }
        });
        block.push_slot(ColumnSlot {
            name: name.clone(),
            payloads,
            dtype: c.dtype,
            dict: c.dict.clone(),
        });
    }
    Ok(DeviceBlock { block })
}

/// Materialize needed columns on the host path: approximate projections on
/// the device, downloads, translucent refinement with residuals — every
/// stage fanned out over contiguous candidate/survivor partitions. The
/// translucent partition boundaries are located once and reused by every
/// projected column (candidates and survivors are the same for all of
/// them).
fn build_host_block(
    env: &Env,
    needed: &[(String, ColRef<'_>)],
    fk: Option<&FkIndex>,
    cands: &Candidates,
    survivors: &[Oid],
    morsels: usize,
    ledger: &mut CostLedger,
) -> Result<RowBlock> {
    let mut block = RowBlock::new(survivors.len());
    if needed.is_empty() {
        return Ok(block);
    }
    let ranges = partition_ranges(survivors.len(), morsels);
    let starts = if cands.dense {
        None
    } else {
        Some(translucent_starts(&cands.oids, survivors, &ranges)?)
    };
    for (name, c) in needed {
        let arr = c.bound.approx();
        let residual = ResidualSrc::for_column(
            c.bound,
            c.is_dim,
            fk.map(FkIndex::host_slice),
            survivors.len(),
        );
        let link = if c.is_dim {
            Some(
                fk.ok_or_else(|| BwdError::Exec("dim column without FK".into()))?
                    .device(),
            )
        } else {
            None
        };
        let approx = gather_stored(arr, link, cands, morsels);
        match link {
            None => charge_gather(
                env,
                arr,
                cands.dense,
                cands.len(),
                "project.approx.gather",
                ledger,
            ),
            Some(l) => charge_gather_indirect(env, arr, l, cands.len(), "join.fk.approx", ledger),
        }
        // The refinement consumes the approximate projection positionally
        // aligned with the candidate list.
        let payloads = refine_payloads(
            c.bound.meta(),
            residual,
            &cands.oids,
            &approx,
            survivors,
            &ranges,
            starts.as_deref(),
        )?;
        if c.is_dim {
            charge_fk_project_refine(env, c.bound, cands.len(), survivors.len(), true, ledger);
        } else {
            charge_project_refine(env, c.bound, cands.len(), survivors.len(), true, ledger);
        }
        block.push_slot(ColumnSlot {
            name: name.clone(),
            payloads,
            dtype: c.dtype,
            dict: c.dict.clone(),
        });
    }
    Ok(block)
}

/// Exact host grouping over materialized key slots (used whenever the
/// device pre-grouping is unavailable or unusable), morsel-parallel with
/// thread-local tables merged in partition order.
fn host_grouping(
    env: &Env,
    plan: &ArPlan,
    block: &RowBlock,
    morsels: usize,
    pool: &ScratchPool,
    ledger: &mut CostLedger,
) -> Result<Option<Grouping>> {
    if plan.group_by.is_empty() {
        return Ok(None);
    }
    let slots: Vec<usize> = plan
        .group_by
        .iter()
        .map(|g| block.slot_index(g))
        .collect::<Result<_>>()?;
    let key_cols: Vec<&[i64]> = slots
        .iter()
        .map(|&s| block.slot(s).payloads.as_slice())
        .collect();
    let grouped = group_rows(&key_cols, morsels, pool);
    let group_keys: Vec<Vec<Value>> = grouped
        .keys
        .iter()
        .map(|key| {
            slots
                .iter()
                .zip(key)
                .map(|(&s, &p)| {
                    let slot = block.slot(s);
                    payload_to_value(p, slot.dtype, slot.dict.as_deref())
                })
                .collect()
        })
        .collect();
    env.charge_host_scan(
        "group.refine.host",
        block.len() as u64 * 8,
        2 * block.len() as u64,
        ledger,
    );
    Ok(Some(Grouping {
        group_ids: grouped.ids,
        group_keys,
        key_names: plan.group_by.clone(),
    }))
}
