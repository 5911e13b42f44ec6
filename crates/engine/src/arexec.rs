//! The A&R executor: interprets an [`ArPlan`] over bound (bitwise
//! distributed) tables.
//!
//! Execution has two phases, mirroring Figure 3 / Figure 7:
//!
//! 1. **Approximation subplan** (device): the relaxed selection chain runs
//!    entirely on the co-processor — full scan first, candidate-list
//!    filters after — followed by the approximate pre-grouping where
//!    something needs its ids ([`Grouping`]). Every
//!    selection kernel also tells the candidates it *decides* (whole
//!    granule inside the exact predicate) from those it leaves
//!    *undecided*. No step depends on any refinement, so the approximate
//!    answer (candidate count) is available here.
//! 2. **Refinement** (host) of what the approximation left undecided: the
//!    undecided `(oid, approximation)` pairs cross PCI-E once and
//!    selections re-test them last-to-first with residuals. When every
//!    gathered column is fully device-resident the host then sends one
//!    survivor bit per undecided candidate back up and the device gathers
//!    and aggregates decided ∪ refined rows — the host pays for refinement
//!    and nothing else; otherwise (destructive distributivity, §IV-G) the
//!    host tail covers decided ∪ refined rows. The paper's all-GPU
//!    configurations are the case *undecided = ∅*. See ARCHITECTURE.md,
//!    "Decided and undecided candidates".
//!
//! What the model bills as oid lists the host never builds: past the
//! selection chain the candidates stay in the representation the chain
//! produced, read a window at a time through [`Positions`]; refinement's
//! verdict is positional; the only list-shaped state is O(undecided). See
//! ARCHITECTURE.md, "The query tail".

use crate::bill::{slot, ArShape, Counts, Grouping, RefineCounts, Transient};
use crate::database::Database;
use crate::eval::RowBlock;
use crate::morsel::{
    concat_parts, partition_mask_ranges, partition_ranges, partition_ranges_min, refine_filter,
    run_parts, run_parts_mut, ResidualSrc, ScratchPool,
};
use crate::result::{ApproxAnswer, QueryResult};
use crate::tail::{GroupTable, SliceSource, SLICE_ROWS};
use bwd_core::plan::ArPlan;
use bwd_core::relax::StoredRange;
use bwd_device::{CostLedger, Env};
use bwd_kernels::group::packed_key_of;
use bwd_kernels::scan::scan_block_ranges;
use bwd_kernels::{
    Candidates, Cursor, DeviceArray, Grouper, Positions, ScanOptions, ScanRows, SelMask, SelVec,
};
use bwd_obs::metrics::{Counter, Registry};
use bwd_obs::{EventKind, GroupAggTables, GroupAggTail, SpanId, WorkerHandle, NO_SPAN};
use bwd_types::{BwdError, FaultSite, Oid, Result};
use std::sync::OnceLock;

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
#[derive(Debug, Clone, Copy, Default)]
pub struct ArExecOptions {
    /// Device scan tuning.
    pub scan: ScanOptions,
    /// Candidate representation policy for the approximate-selection
    /// chain (bitmap vs indices; see [`CandidateRep`]).
    pub candidates: CandidateRep,
    /// Capture the approximate answer after the approximation subplan.
    pub approximate_answer: bool,
}

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
pub(crate) struct Probe {
    pub(crate) span: SpanId,
    kind: EventKind,
    sim0: f64,
    bytes0: u64,
}

impl Probe {
    pub(crate) fn begin(
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

    pub(crate) fn end(self, obs: &WorkerHandle, ledger: &CostLedger, out: u64, d: u64) {
        if self.span == NO_SPAN {
            return;
        }
        let dsim = ledger.breakdown().total() - self.sim0;
        let dbytes = ledger.traffic().total() - self.bytes0;
        obs.end(self.kind, self.span, dsim.to_bits(), dbytes, out, d);
    }
}

/// Execute the plan as bound — its selections in their order, its fold as
/// carried — with Approximate & Refine processing on `env`. The
/// environment carries both the host-thread allocation *and* the chosen
/// device: pass `db.env().on_device(k)` to run this query against card
/// `k` of a multi-device pool (every card holds a replica of the
/// persistent approximations, so any of them can serve any plan). The
/// refinement-side stages fan out over `morsels` OS threads, as in
/// [`Database::run_bound_in`].
pub fn run_ar_in(
    db: &Database,
    plan: &ArPlan,
    opts: &ArExecOptions,
    env: &Env,
    morsels: usize,
) -> Result<QueryResult> {
    let chain: Vec<usize> = (0..plan.selections.len()).collect();
    let ledger = &mut CostLedger::new();
    let run = run_ar_counted(
        db, plan, &chain, opts, env, morsels, None, SLICE_ROWS, ledger,
    );
    run.map(|(result, ..)| result)
}

/// [`run_ar_in`] with an explicit transient `budget` (see
/// [`Database::run_bound_in`]), tail slice size and ledger, also
/// returning what the run counted and the transient device bytes it held.
/// `plan` may be the plan [`bill::order`] chose for a bound one; `chain`
/// holds, per step, the selection's index in the bound plan — what an
/// `ApproxSelect` span reports.
///
/// Approximate → refine → tail over one [`Run`]: each phase does the real
/// work, counts what it did and bills the counts through the shape's
/// sites (`crate::bill`) between its spans; where the tail runs was
/// settled when the shape was resolved ([`ArShape::place`]).
///
/// [`bill::order`]: crate::bill::order
#[allow(clippy::too_many_arguments)]
pub(crate) fn run_ar_counted(
    db: &Database,
    plan: &ArPlan,
    chain: &[usize],
    opts: &ArExecOptions,
    env: &Env,
    morsels: usize,
    budget: Option<u64>,
    slice_rows: usize,
    ledger: &mut CostLedger,
) -> Result<(QueryResult, Counts, u64)> {
    let shape = ArShape::resolve(db, plan, opts.scan, env)?;
    let mut run = Run {
        counts: Counts {
            rows: shape.rows,
            ..Counts::default()
        },
        shape,
        chain,
        opts,
        env,
        obs: env.trace.recorder.worker(&env.trace.lane),
        slice_rows,
        morsels: morsels.max(1),
        pool: ScratchPool::default(),
        transient: TransientBudget { used: 0, budget },
        ledger,
    };
    let mut approx = run.approximate()?;
    let answer = opts.approximate_answer.then(|| ApproxAnswer {
        candidate_count: run.counts.candidates() as usize,
        breakdown: run.ledger.breakdown(),
    });
    run.refine(&mut approx)?;
    let result = run.tail(&approx, answer)?;
    Ok((result, run.counts, run.transient.used))
}

/// One execution: the resolved shape, what the run has counted so far and
/// the ledger the counts are billed into.
struct Run<'a> {
    shape: ArShape<'a>,
    /// Per step, the selection's index in the bound plan.
    chain: &'a [usize],
    opts: &'a ArExecOptions,
    env: &'a Env,
    obs: WorkerHandle,
    slice_rows: usize,
    morsels: usize,
    pool: ScratchPool,
    counts: Counts,
    transient: TransientBudget,
    ledger: &'a mut CostLedger,
}

/// What the approximation subplan hands on.
#[derive(Default)]
struct Approx<'a> {
    /// The chain's latest output: a step reads it and replaces it.
    output: Option<SelVec>,
    /// Positional bitmap over fact rows: the candidates some selection's
    /// approximation left undecided (sized by the first step that can).
    /// Refinement clears the bit of every candidate it keeps, so what stays
    /// marked among the candidates is what it dropped.
    undecided_bits: Vec<u64>,
    /// The final candidates' undecided members, and those of them that
    /// passed every refinement so far (`None`: none ran yet).
    undecided: Vec<Oid>,
    refined: Option<Vec<Oid>>,
    /// The hash pre-grouping, where the plan runs one.
    grouper: Option<Grouper<'a>>,
}

impl<'a> Run<'a> {
    fn begin(&self, kind: EventKind, a: u64, b: u64) -> Probe {
        Probe::begin(&self.obs, kind, self.env.trace.parent, self.ledger, a, b)
    }

    /// The group keys' approximations, in key order.
    fn keys(&self) -> Vec<&'a DeviceArray> {
        let keys = self.shape.group_cols.iter();
        keys.map(|c| c.bound.approx()).collect()
    }

    /// The approximation subplan: the relaxed selection chain, then —
    /// where either is needed — one pass over its candidates for the
    /// undecided list and the hash pre-grouping.
    fn approximate(&mut self) -> Result<Approx<'a>> {
        let (plan, env, n) = (self.shape.plan, self.env, self.counts.rows as usize);
        let mut a = Approx::default();
        for i in 0..plan.selections.len() {
            // The approximate selections chain on the device, in either
            // representation (a dim step tests `arr[link[row]]` for each
            // still-live bit, so no round-trip happens mid-chain).
            let input = self.counts.input(i);
            let probe = self.begin(EventKind::ApproxSelect, input, self.chain[i] as u64);
            let cands = approx_select_step(
                env,
                &self.shape,
                i,
                a.output.as_ref(),
                &self.opts.scan,
                self.morsels,
                self.opts.candidates,
                probe.span,
                &self.pool,
                &mut a.undecided_bits,
            );
            let kept = cands.len() as u64;
            self.counts.steps.push(kept);
            self.shape.select(i, &self.counts, env, self.ledger);
            let rep_bit = u64::from(matches!(cands, SelVec::Bitmap(_)));
            probe.end(&self.obs, self.ledger, kept, rep_bit);
            self.transient.charge(Transient::list(kept))?;
            a.output = Some(cands);
            env.fault.check(FaultSite::Exec)?; // the card may die between steps
            env.yield_point.check()?; // between approximate-selection steps
        }

        env.fault.check(FaultSite::Exec)?;
        env.yield_point.check()?; // the gather boundary

        // The gather boundary expands nothing: downstream operators (the
        // undecided list, device pre-grouping, the tail's slice sources) read
        // the final candidates' positions a window at a time — same oids,
        // same block-scrambled order as the list the index path carries, and
        // that list is what the bill keeps pricing. Approximations are *not*
        // materialized: refinement re-decodes them for the undecided
        // candidates only.
        let cands = Positions::of(a.output.as_ref(), n);
        self.counts.dense = cands.dense();
        a.grouper = (self.shape.grouping == Grouping::Hash).then(|| Grouper::new(&self.keys()));
        // One pass over the candidates feeds both consumers that need every
        // one of them: the undecided list and the grouping table.
        let list_undecided = !a.undecided_bits.is_empty();
        if list_undecided || a.grouper.is_some() {
            let mut cursor = cands.cursor(0..cands.span());
            let mut window = self.pool.take_u32();
            let mut more = true;
            while more {
                more = cursor.next_window(self.slice_rows, &mut window);
                if list_undecided {
                    let is_undecided = |&oid: &Oid| marked(&a.undecided_bits, oid);
                    a.undecided
                        .extend(window.iter().copied().filter(is_undecided));
                }
                if let Some(g) = &mut a.grouper {
                    g.observe(&window);
                }
            }
            self.pool.put_u32(window);
        }
        self.counts.undecided = a.undecided.len() as u64;
        self.counts.groups = a.grouper.as_ref().map_or(0, Grouper::n_groups) as u64;
        self.shape.pregroup(&self.counts, env, self.ledger);
        self.transient.charge(self.shape.place.ids(&self.counts))?;
        let metrics = refine_metrics();
        metrics.decided.add(self.counts.decided());
        metrics.undecided.add(self.counts.undecided);
        Ok(a)
    }

    /// Refinement of what the approximation left undecided, where
    /// [`Transient::refinement`] places it: the selections that can leave
    /// a candidate undecided re-test last-to-first, the live set shrinking
    /// monotonically; a plan without undecided candidates has no
    /// refinement step at all. A host refinement for a device tail sends
    /// one survivor bit per undecided candidate back.
    fn refine(&mut self, a: &mut Approx<'_>) -> Result<()> {
        let (env, decided) = (self.env, self.counts.decided());
        self.transient
            .charge(self.shape.place.refining(&self.counts))?;
        self.shape.download(&self.counts, env, self.ledger);
        let order = self.shape.refine_order(&self.counts);
        for (k, i) in order.into_iter().enumerate() {
            let live = a.refined.as_deref().unwrap_or(&a.undecided);
            let live_len = live.len() as u64;
            let probe = self.begin(EventKind::Refine, decided + live_len, i as u64);
            let kept = self.refine_selection(i, live);
            let kept_len = kept.len() as u64;
            self.counts.refines.push(RefineCounts {
                live: live_len,
                kept: kept_len,
            });
            self.shape.refine_step(k, &self.counts, env, self.ledger);
            probe.end(&self.obs, self.ledger, decided + kept_len, live_len);
            a.refined = Some(kept);
            env.fault.check(FaultSite::Exec)?; // the card may die between steps
            env.yield_point.check()?; // between refinement steps
        }
        unmark(&mut a.undecided_bits, a.refined.as_deref().unwrap_or(&[]));
        let refined = a.refined.as_ref().map_or(a.undecided.len(), Vec::len);
        self.counts.survivors = decided + refined as u64;
        self.shape.upload(&self.counts, env, self.ledger);
        refine_metrics()
            .uploaded_bits
            .add(self.shape.place.uploaded_bits(&self.counts));
        env.fault.check(FaultSite::Exec)?;
        env.yield_point.check() // before the tail
    }

    /// Refine selection `i` over `live`, the undecided candidates still
    /// alive: reconstruct each exact payload from its approximation and
    /// residual (at the fact position, or the dimension position through
    /// the FK link) and re-test the precise range, fanned out over
    /// contiguous partitions.
    fn refine_selection(&self, i: usize, live: &[Oid]) -> Vec<Oid> {
        let (col, range) = (&self.shape.sels[i].0, &self.shape.plan.selections[i].range);
        refine_filter(col.residual(), live, range, self.morsels, &self.pool)
    }

    /// The tail: gather → refine → group → evaluate → aggregate, one slice
    /// of survivors at a time (`crate::tail`), in one run over decided ∪
    /// refined rows, priced on the device or the host by the shape's
    /// placement. Every charge is issued once, in program order, from the
    /// totals, so the ledger cannot depend on how the host slices or
    /// parallelizes the real work.
    fn tail(&mut self, a: &Approx<'_>, approx: Option<ApproxAnswer>) -> Result<QueryResult> {
        let (env, place, n) = (self.env, self.shape.place, self.counts.rows as usize);
        let survivors = self.counts.survivors as usize;
        self.transient
            .charge(place.tail(&self.counts) + place.table(&self.counts))?;
        let gather_probe = self.begin(EventKind::Gather, survivors as u64, 0);
        self.shape.gathers(&self.counts, env, self.ledger);
        let cols: Vec<_> = self
            .shape
            .gathered
            .iter()
            .map(|(_, c)| c.residual())
            .collect();
        // Group keys that are fully device-resident are grouped exactly on
        // the device (their approximation *is* the value): the sources look
        // the survivors' ids up in the hash pre-grouping's table, or pack
        // their keys into the slot, instead of gathering, refining and
        // re-hashing the key columns.
        let slot_keys = match self.shape.grouping {
            Grouping::Direct { .. } => self.keys(),
            _ => Vec::new(),
        };
        let ids = match (self.shape.grouping, &a.grouper) {
            (Grouping::Direct { .. }, _) => GroupIds::Packed(&slot_keys),
            (_, Some(grouper)) => GroupIds::Carried(grouper),
            (_, None) => GroupIds::Hashed,
        };
        if let Some(g) = &a.grouper {
            let group_cols = &self.shape.group_cols;
            let keys = g.group_keys().iter().flat_map(|key| {
                (key.iter().zip(group_cols))
                    .map(|(&stored, c)| c.bound.meta().payload_from_parts(stored, 0))
            });
            let slots = self.shape.plan.group_keys().into_iter().zip(group_cols);
            let slots = slots.map(|(g, c)| slot(&g, c.plain)).collect();
            let table = GroupTable::from_keys(slots, keys.collect());
            self.shape.tail.carry(table);
        }
        // The verdict, positionally: a candidate survives unless it is still
        // marked (empty: refinement dropped none).
        let dropped: &[u64] = match self.counts.refined() < self.counts.undecided {
            true => &a.undecided_bits,
            false => &[],
        };
        // A tail that reads nothing by position (a bare count) needs no
        // positions: any `survivors` rows do.
        let (positions, dropped) = match cols.is_empty() && matches!(ids, GroupIds::Hashed) {
            true => (Positions::All(survivors), &[][..]),
            false => (Positions::of(a.output.as_ref(), n), dropped),
        };
        let sources = partition_ranges(positions.span(), self.morsels)
            .into_iter()
            .map(|span| ArSource {
                cursor: positions.cursor(span),
                dropped,
                cols: cols.clone(),
                ids,
                oids: Vec::new(),
            })
            .collect();
        let tail = &self.shape.tail;
        let partials = tail.run(env, sources, self.slice_rows)?;
        gather_probe.end(&self.obs, self.ledger, survivors as u64, 0);

        let placed = GroupAggTail {
            device: place.device_tail,
            uploaded: place.uploaded_bits(&self.counts),
            ..tail.fold_trace()
        };
        let groupagg_probe = self.begin(EventKind::GroupAgg, survivors as u64, placed.pack());
        let out = tail.finish(partials);
        // Where no hash pre-grouping counted them, the groups are the
        // merged table's: the occupied slots, or a host-grouped fold's.
        let (grouping, sized_by, counted) = match self.shape.grouping {
            Grouping::None => (
                u64::from(!self.shape.plan.group_by.is_empty()),
                0,
                self.shape.plan.fold.is_empty(),
            ),
            Grouping::Hash => (2, self.counts.groups, true),
            Grouping::Direct { slots } => (3, slots, false),
        };
        if !counted {
            self.counts.groups = out.groups;
        }
        self.shape.aggregate(&self.counts, env, self.ledger);
        let agg = self.shape.grouped_agg(&self.counts, env);
        let tables = GroupAggTables {
            grouping,
            sized_by,
            replicas: agg.map_or(0, |agg| agg.replicas),
            blocks: agg.map_or(0, |agg| agg.blocks),
        };
        let rendered = out.rows.len() as u64;
        groupagg_probe.end(&self.obs, self.ledger, rendered, tables.pack());

        Ok(QueryResult {
            columns: out.columns,
            rows: out.rows,
            breakdown: self.ledger.breakdown(),
            traffic: self.ledger.traffic(),
            survivors,
            approx,
        })
    }
}

/// Process-wide refinement counters (see
/// `bwd_obs::metrics::Registry::global`), bumped once per query at the
/// gather boundary: how many final candidates the approximation decided,
/// how many it left for the host to re-test, and how many survivor bits
/// went back up for a device tail.
struct RefineMetrics {
    decided: Counter,
    undecided: Counter,
    uploaded_bits: Counter,
}

fn refine_metrics() -> &'static RefineMetrics {
    static METRICS: OnceLock<RefineMetrics> = OnceLock::new();
    METRICS.get_or_init(|| RefineMetrics {
        decided: Registry::global().counter("bwd_refine_decided_total"),
        undecided: Registry::global().counter("bwd_refine_undecided_total"),
        uploaded_bits: Registry::global().counter("bwd_refine_uploaded_bits_total"),
    })
}

/// Whether `oid`'s bit is set in the positional bitmap `bits` (an unsized
/// bitmap marks none: no step could leave a candidate undecided).
#[inline]
fn marked(bits: &[u64], oid: Oid) -> bool {
    (bits.get(oid as usize / 64)).is_some_and(|w| w >> (oid % 64) & 1 == 1)
}

/// Clear the bit of every one of `oids`.
fn unmark(bits: &mut [u64], oids: &[Oid]) {
    for &oid in oids {
        bits[oid as usize / 64] &= !(1 << (oid % 64));
    }
}

/// One approximate selection step (full scan / chained, direct / through
/// the FK link), fanned out over `morsels` real threads, producing the
/// representation the policy picks. The step is one [`ScanSpec`]: its
/// partitions run on the workers, and the cost is charged once from the
/// merged total by the same spec — identically in both representations.
/// The same kernel ORs the matches outside the selection's inner interval
/// into the chain's positional `undecided` bitmap.
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
    shape: &ArShape<'_>,
    i: usize,
    input: Option<&SelVec>,
    scan: &ScanOptions,
    morsels: usize,
    rep: CandidateRep,
    stage: SpanId,
    pool: &ScratchPool,
    undecided: &mut Vec<u64>,
) -> SelVec {
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
    let (col, relaxed) = &shape.sels[i];
    let (
        Some(spec),
        Some(StoredRange {
            outer: (lo, hi), ..
        }),
    ) = (shape.scan_spec(i, input.map(SelVec::len)), *relaxed)
    else {
        return SelVec::Indices(Candidates::empty());
    };
    let arr = col.bound.approx();
    let rows = col.link().unwrap_or(arr).len();
    if !spec.decides_all() && undecided.is_empty() {
        *undecided = vec![0; rows.div_ceil(64)]; // zeroed lazily by the allocator
    }

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
        if !spec.decides_all() {
            run_parts_mut(undecided, &ranges, |_, r, chunk| {
                spec.mark_undecided_mask(&words[r.clone()], r.start, chunk)
            });
        }
        return SelVec::Bitmap(match mask_in {
            Some(m) => m.like(words),
            None => SelMask::from_words(words, rows, scan),
        });
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
    let (oids, vals): (Vec<_>, Vec<_>) = outs.into_iter().unzip();
    let oids = concat_parts(oids, |o| pool.put_u32(o));
    let approx = concat_parts(vals, |v| pool.put_u64(v));
    if !spec.decides_all() {
        spec.mark_undecided(&oids, &approx, undecided);
    }
    SelVec::Indices(Candidates::from_pairs(oids, approx))
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

/// Where a slice's group ids come from.
#[derive(Clone, Copy)]
enum GroupIds<'a> {
    /// The sink hashes the refined key slots (or the plan has no groups).
    Hashed,
    /// Looked up in the hash pre-grouping's table.
    Carried(&'a Grouper<'a>),
    /// The packed key approximations themselves: the slot.
    Packed(&'a [&'a DeviceArray]),
}

/// The A&R slice source over one worker's part of the candidates'
/// emission sequence.
///
/// Each slice pulls the next window of at most `slice_rows` candidates,
/// keeps the survivors — every candidate refinement did not drop — and
/// reads only those: per column the stored approximations (what the
/// device's projection produces, through the FK link for a dimension
/// column) refined with their residuals into the slice block, and the
/// device grouping's ids ([`GroupIds`]). Positions are oids, so nothing
/// is aligned: survivors stay in candidate order because the window is.
struct ArSource<'a> {
    cursor: Cursor<'a>,
    /// Positional: the candidates refinement dropped (empty: none).
    dropped: &'a [u64],
    cols: Vec<ResidualSrc<'a>>,
    ids: GroupIds<'a>,
    /// The current slice's survivors (reused).
    oids: Vec<Oid>,
}

impl SliceSource for ArSource<'_> {
    fn fill(
        &mut self,
        slice_rows: usize,
        block: &mut RowBlock,
        ids: &mut Vec<u32>,
    ) -> Result<bool> {
        let more = self.cursor.next_window(slice_rows, &mut self.oids);
        if !self.dropped.is_empty() {
            self.oids.retain(|&oid| !marked(self.dropped, oid));
        }
        let oids = &self.oids;
        block.resize(oids.len());
        for (slot, col) in self.cols.iter().enumerate() {
            let out = block.payloads_mut(slot);
            col.exact(oids, |i, exact| out[i] = exact);
        }
        match self.ids {
            GroupIds::Hashed => {}
            GroupIds::Carried(grouper) => grouper.ids(oids, ids)?,
            GroupIds::Packed(keys) => {
                ids.clear();
                ids.extend(oids.iter().map(|&oid| packed_key_of(keys, oid) as u32));
            }
        }
        Ok(more)
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::classic::tests::run_classic_sliced;
    use bwd_core::plan::{AggExpr, AggFunc, BinOp, LogicalPlan, Predicate, ScalarExpr as E};
    use bwd_core::CmpOp;
    use bwd_device::{Component, CostEvent, DeviceSpec};
    use bwd_kernels::reduce::GroupedAgg;
    use bwd_storage::Column;
    use bwd_types::Value;

    /// [`run_ar_in`] with an explicit tail slice size and ledger (tests
    /// sweep the one and read the other's events; results and charges are
    /// independent of the slice size).
    pub(crate) fn run_ar_sliced(
        db: &Database,
        plan: &ArPlan,
        opts: &ArExecOptions,
        env: &Env,
        morsels: usize,
        slice_rows: usize,
        ledger: &mut CostLedger,
    ) -> Result<QueryResult> {
        let chain: Vec<usize> = (0..plan.selections.len()).collect();
        let run = run_ar_counted(
            db, plan, &chain, opts, env, morsels, None, slice_rows, ledger,
        );
        run.map(|(result, ..)| result)
    }

    fn agg(func: AggFunc, arg: Option<E>) -> AggExpr {
        let alias = format!("{func:?}({arg:?})");
        AggExpr { func, arg, alias }
    }

    fn sum_and_count(summed: &str) -> Vec<AggExpr> {
        vec![
            agg(AggFunc::Sum, Some(E::col(summed))),
            agg(AggFunc::Count, None),
        ]
    }

    /// `t(d, g, v)` over `rows` rows — `d` is the row number, split
    /// `device_bits`/rest; `g` = `d % groups` and `v` = `3d % 1000` are
    /// resident — and `select [g,] <aggs> from t where d <= <cut> [group
    /// by g]` bound against it.
    fn table_and_plan(
        (rows, groups, cut): (i32, i32, i32),
        device_bits: u32,
        grouped: bool,
        aggs: Vec<AggExpr>,
    ) -> (Database, ArPlan) {
        let ints = |f: &dyn Fn(i32) -> i32| Column::from_i32((0..rows).map(f).collect());
        let mut db = Database::new();
        let cols = [
            ("d", ints(&|i| i)),
            ("g", ints(&|i| i % groups)),
            ("v", ints(&|i| i * 3 % 1000)),
        ];
        let cols = cols.into_iter().map(|(n, c)| (n.to_string(), c)).collect();
        db.create_table("t", cols).unwrap();
        db.bwdecompose("t", "d", device_bits).unwrap();
        let group_by = if grouped { vec!["g".into()] } else { vec![] };
        let plan = LogicalPlan::scan("t")
            .filter(Predicate::Cmp {
                column: "d".into(),
                op: CmpOp::Le,
                value: Value::Int(cut as i64),
            })
            .aggregate(group_by, aggs);
        let plan = db.bind(&plan, &Default::default()).unwrap();
        db.auto_bind(&plan).unwrap();
        (db, plan)
    }

    /// The A&R ledger events of [`table_and_plan`]'s query.
    fn bill(
        shape: (i32, i32, i32),
        device_bits: u32,
        grouped: bool,
        aggs: Vec<AggExpr>,
    ) -> Vec<CostEvent> {
        let (db, plan) = table_and_plan(shape, device_bits, grouped, aggs);
        let mut ledger = CostLedger::with_trace();
        let opts = ArExecOptions::default();
        let r = run_ar_sliced(&db, &plan, &opts, db.env(), 1, SLICE_ROWS, &mut ledger).unwrap();
        assert_eq!(r.survivors, shape.2 as usize + 1);
        let groups = if grouped { shape.1.min(shape.2 + 1) } else { 1 };
        assert_eq!(r.rows.len(), groups as usize);
        ledger.events().to_vec()
    }

    /// `select g, sum(<summed>), count(*) … group by g`.
    fn grouped_bill(shape: (i32, i32, i32), device_bits: u32, summed: &str) -> Vec<CostEvent> {
        bill(shape, device_bits, true, sum_and_count(summed))
    }

    fn labels_and_bytes(bill: &[CostEvent]) -> Vec<(&str, u64)> {
        bill.iter().map(|e| (e.label.as_str(), e.bytes)).collect()
    }

    fn bits(bill: &[CostEvent]) -> Vec<(&str, u64, u64)> {
        (bill.iter())
            .map(|e| (e.label.as_str(), e.bytes, e.seconds.to_bits()))
            .collect()
    }

    const Q1_SHAPED: (i32, i32, i32) = (1000, 4, 599);
    const PAIR_BITS: u64 = 32;
    fn pairs(width: u64, n: u64) -> u64 {
        (n * (PAIR_BITS + width)).div_ceil(8)
    }
    fn packed(width: u64, n: u64) -> u64 {
        (n * width).div_ceil(8)
    }

    /// The bill is a function of the split. 24/8 leaves `d` four granules
    /// of 256 (2 stored bits): `d <= 599` scans granules 0..=2 (768
    /// candidates), decides granules 0..=1 (512 rows) and leaves granule 2
    /// undecided (256 candidates, 88 survivors). `g` is 2 bits wide, `v`
    /// 10. Every gathered column is resident, and at 256 undecided the
    /// stream prices below the host round trip: `d`'s 1 000 B residual
    /// partition goes up, the device re-tests the 256 itself (no host
    /// event, nothing comes down or back up) and folds all 600 survivors
    /// into 32 replicas of a 2^2 × 2 × 16 B table addressed by `g` itself
    /// (4 × 2 × 16 × 32 = 4 096 B of the 49 152): it gathers `g` like `v`,
    /// and no grouping kernel runs.
    #[test]
    fn ledger_follows_the_decided_undecided_split() {
        let split = grouped_bill(Q1_SHAPED, 24, "v");
        assert_eq!(
            labels_and_bytes(&split),
            [
                // The packed column, 768 pairs, one decided bit per pair.
                (
                    "select.approx.scan",
                    packed(2, 1000) + pairs(2, 768) + 768 / 8
                ),
                ("select.refine.stream", packed(8, 1000)),
                ("select.refine.device", 256), // one residual byte each
                ("aggregate.gather", 600 * 4 + packed(2, 600)), // the key
                ("aggregate.gather", 600 * 4 + packed(10, 600)),
                ("aggregate.eval", 0), // device, 600 rows
                ("aggregate.download", 4 * 2 * 16),
            ]
        );
        // Device `aggregate.eval`: two one-op aggregates over 600 rows in
        // registers, their updates spread over 32 × 4 occupied cells per
        // accumulator, one block's replicas merged by a second launch.
        let spec = DeviceSpec::gtx680();
        let agg = GroupedAgg::slotted(&spec, 600, 2, 4, 4);
        assert_eq!((agg.updates, agg.replicas, agg.blocks), (1200, 32, 1));
        assert_eq!(
            split[5].seconds,
            spec.compute_seconds(3 * 600 * 2)
                + (agg.update_seconds(&spec) + agg.merge_seconds(&spec))
        );
        let on_host = |e: &&CostEvent| e.component == Component::Host;
        assert_eq!(
            split.iter().filter(on_host).count(),
            0,
            "nothing on the host"
        );

        let resident = grouped_bill(Q1_SHAPED, 32, "v");
        assert_eq!(
            labels_and_bytes(&resident),
            [
                ("select.approx.scan", packed(10, 1000) + pairs(10, 600)),
                // The candidates are the dense prefix 0..600: streamed.
                ("aggregate.gather", packed(2, 1000) + packed(2, 600)),
                ("aggregate.gather", packed(10, 1000) + packed(10, 600)),
                ("aggregate.eval", 0),
                ("aggregate.download", 4 * 2 * 16),
            ]
        );
        // Space-constrained = all-GPU + refinement: the same fold.
        assert_eq!(split[5].seconds, resident[3].seconds);
    }

    /// A key an aggregate also reads (here `g` in place of `v`) is gathered
    /// once: the slot and the argument are the same read.
    #[test]
    fn a_summed_group_key_is_still_gathered() {
        let bill = grouped_bill(Q1_SHAPED, 24, "g");
        assert_eq!(
            labels_and_bytes(&bill)[3..],
            [
                ("aggregate.gather", 600 * 4 + packed(2, 600)),
                ("aggregate.eval", 0),
                ("aggregate.download", 4 * 2 * 16),
            ]
        );
        // The same fold as when `v` is summed: `aggregate.eval` prices
        // primitives, accumulators and occupied slots, not columns.
        assert_eq!(bill[4].seconds, grouped_bill(Q1_SHAPED, 24, "v")[5].seconds);
    }

    /// The contention is priced on the slots some row folded into, the
    /// table on all of them: `d <= 1` keeps rows of groups 0 and 1 only, so
    /// the two updates per row contend over 32 × 2 cells although each
    /// replica has four slots — and two result rows come home.
    #[test]
    fn contention_is_priced_on_the_occupied_slots() {
        let (db, plan) = table_and_plan((1000, 4, 1), 32, true, sum_and_count("v"));
        let mut ledger = CostLedger::with_trace();
        let opts = ArExecOptions::default();
        let (r, counts, _) = run_ar_counted(
            &db,
            &plan,
            &[0],
            &opts,
            db.env(),
            1,
            None,
            SLICE_ROWS,
            &mut ledger,
        )
        .unwrap();
        assert_eq!((r.rows.len(), counts.groups), (2, 2));
        let spec = DeviceSpec::gtx680();
        let agg = GroupedAgg::slotted(&spec, 2, 2, 4, 2);
        assert_eq!((agg.table_bytes, agg.replicas, agg.groups), (128, 32, 2));
        let eval = ledger.events().iter().find(|e| e.label == "aggregate.eval");
        assert_eq!(
            eval.unwrap().seconds,
            spec.compute_seconds(3 * 2 * 2)
                + (agg.update_seconds(&spec) + agg.merge_seconds(&spec))
        );
        let download = ledger.events().last().unwrap();
        assert_eq!(
            (download.label.as_str(), download.bytes),
            ("aggregate.download", 2 * 2 * 16)
        );
    }

    /// A hash pre-grouping writes one 4 B id per final candidate and holds
    /// them until the tail (here the host's, which needs them over PCI-E) is
    /// done: the run's transient bytes count them beside the candidate
    /// list, and a budget one byte short fails the way the scheduler
    /// requeues on. (`d` summed at 24/8 puts the tail on the host, §IV-G.)
    #[test]
    fn a_hash_pregroupings_ids_are_held_and_reserved() {
        let (db, plan) = table_and_plan(Q1_SHAPED, 24, true, sum_and_count("d"));
        let run = |device_budget| {
            let opts = ArExecOptions::default();
            let mut ledger = CostLedger::with_trace();
            let run = run_ar_counted(
                &db,
                &plan,
                &[0],
                &opts,
                db.env(),
                1,
                device_budget,
                SLICE_ROWS,
                &mut ledger,
            );
            run.map(|(_, counts, held)| (counts, held, ledger.events().to_vec()))
        };
        let (counts, held, events) = run(None).unwrap();
        assert!(events.iter().any(|e| e.label == "group.approx.hash-multi"));
        assert_eq!(counts.candidates(), 768);
        assert_eq!(held, 768 * 12 + 768 * 4);
        assert_eq!(run(Some(held)).unwrap().1, held);
        let short = run(Some(held - 1)).unwrap_err();
        let (requested, available) = (held, held - 1);
        assert!(
            matches!(short, BwdError::DeviceOutOfMemory { requested: r, available: a }
                if (r, a) == (requested, available)),
            "{short:?}"
        );
    }

    /// A tail that reads nothing from the device sends nothing up: the
    /// ungrouped bare count at 24/8 keeps its split — the device counts the
    /// 512 decided rows, its partial rides the list, the host adds its 88 —
    /// and, like the resident run, the parent commit's event list to the bit.
    #[test]
    fn a_bare_count_keeps_the_parents_bill() {
        let count = || vec![agg(AggFunc::Count, None)];
        assert_eq!(
            bits(&bill(Q1_SHAPED, 24, false, count())),
            [
                ("select.approx.scan", 3610, 0x3ee132576b20e04a),
                ("select.refine.download", 1104, 0x3ee9c080c2610076),
                ("select.refine", 256, 0x3eb9c511dc3a41e0),
                ("aggregate.eval", 0, 0x3e949da7e361ce4c),
                ("aggregate.eval", 0, 0x3ea2e5d9e5c45270),
            ]
        );
        assert_eq!(
            bits(&bill(Q1_SHAPED, 32, false, count())),
            [
                ("select.approx.scan", 4400, 0x3ee132576b20e04a),
                ("aggregate.eval", 0, 0x3e9828c0be769dc1),
                ("aggregate.download", 16, 0x3ee92ca0280aa1f4),
            ]
        );
    }

    /// Whatever the split, the cut, the grouping or the summed column: a
    /// tail over device-resident columns bills the host for refinement
    /// only (or, where the stream prices below the round trip, nothing),
    /// moves nothing but the undecided list and its survivor bits — or the
    /// residual partition — and the partials, and folds on the device
    /// exactly what the all-resident run folds.
    #[test]
    fn a_resident_tail_pays_the_host_for_refinement_alone() {
        let eval_bits = |bill: &[CostEvent]| -> Vec<u64> {
            let evals = bill.iter().filter(|e| e.label == "aggregate.eval");
            evals.map(|e| e.seconds.to_bits()).collect()
        };
        for (grouped, summed) in [(false, "v"), (false, "g"), (true, "v"), (true, "g")] {
            // Every cut keeps a survivor in each group: the contention is
            // priced on the slots some survivor folds into.
            for cut in [3, 255, 256, 599, 998, 999] {
                let run = |bits| bill((1000, 4, cut), bits, grouped, sum_and_count(summed));
                let resident = run(32);
                for device_bits in [8, 16, 24, 31, 32] {
                    let tag = format!("{device_bits} bits, d <= {cut}, {grouped} {summed}");
                    let bill = run(device_bits);
                    for e in &bill {
                        let allowed: &[&str] = match e.component {
                            Component::Host => &["select.refine"],
                            Component::Pcie => &[
                                "select.refine.download",
                                "select.refine.upload",
                                "select.refine.stream",
                                "aggregate.download",
                            ],
                            Component::Device => &[
                                "select.approx.scan",
                                "select.refine.device",
                                "group.approx.hash-multi",
                                "aggregate.gather",
                                "aggregate.eval",
                            ],
                        };
                        assert!(allowed.contains(&e.label.as_str()), "{tag}: {e:?}");
                    }
                    assert_eq!(eval_bits(&bill).len(), 1, "{tag}");
                    assert_eq!(eval_bits(&bill), eval_bits(&resident), "{tag}");
                }
            }
        }
    }

    /// Both pipes bill the DAG the tail runs. A Q1-shaped aggregate list
    /// (`v` as quantity and tax, `d` as price, `g` as discount) holds 4
    /// distinct arithmetic nodes and 6 distinct accumulators — `avg(x)`
    /// shares `sum(x)`'s, the charge reuses the discounted price — where
    /// the expression trees count 14 primitives and 8 passes. A list that
    /// shares nothing bills what it always did.
    #[test]
    fn both_pipes_bill_distinct_primitives_and_accumulators() {
        use {AggFunc::*, BinOp::*};
        let (qty, price, disc, tax) = (
            || E::col("v"),
            || E::col("d"),
            || E::col("g"),
            || E::col("v"),
        );
        let one = || E::lit(1i64);
        let disc_price = || price().binary(Mul, one().binary(Sub, disc()));
        let q1 = || {
            vec![
                agg(Sum, Some(qty())),
                agg(Sum, Some(price())),
                agg(Sum, Some(disc_price())),
                agg(
                    Sum,
                    Some(disc_price().binary(Mul, one().binary(Add, tax()))),
                ),
                agg(Avg, Some(qty())),
                agg(Avg, Some(price())),
                agg(Avg, Some(disc())),
                agg(Count, None),
            ]
        };
        let k = 600u64;
        let classic = |aggs: Vec<AggExpr>| {
            let (db, plan) = table_and_plan(Q1_SHAPED, 32, true, aggs);
            let (mut ledger, env) = (CostLedger::with_trace(), db.env());
            run_classic_sliced(db.catalog(), &plan, None, env, 1, SLICE_ROWS, &mut ledger).unwrap();
            let tail = ledger.events().iter().map(|e| (e.label.clone(), e.bytes));
            tail.filter(|(l, _)| l.starts_with("classic.aggregate"))
                .collect::<Vec<_>>()
        };
        let expect = |ops: u64, passes: usize| {
            let mut events = vec![("classic.aggregate.expr".to_string(), k * ops * 8)];
            events.resize(1 + passes, ("classic.aggregate.accum".to_string(), k * 8));
            events
        };
        assert_eq!(classic(q1()), expect(10, 6));
        assert_eq!(classic(sum_and_count("v")), expect(2, 2));

        // The A&R side, same counts. All resident: the device folds 6
        // accumulators per group after 10 primitives per row.
        let (env, spec) = (Env::paper_default(), DeviceSpec::gtx680());
        let eval = |device_bits| {
            let bill = bill(Q1_SHAPED, device_bits, true, q1());
            let mut evals = bill.into_iter().filter(|e| e.label == "aggregate.eval");
            let eval = evals.next().unwrap();
            assert!(evals.next().is_none());
            (eval.component, eval.seconds)
        };
        let agg = GroupedAgg::new(&spec, 600, 6, 4);
        let device = spec.compute_seconds(3 * k * 10)
            + (agg.update_seconds(&spec) + agg.merge_seconds(&spec));
        assert_eq!(eval(32), (Component::Device, device));
        // `d` split 24/8 is summed: §IV-G puts the tail on the host.
        let host =
            env.cpu.scan_seconds(k * 10 * 8, k * 10, 1) + 6.0 * env.cpu.scan_seconds(k * 8, k, 1);
        assert_eq!(eval(24), (Component::Host, host));
    }

    /// `p(id, d, g)` over 10 000 rows: `d` = twice a permutation of the row
    /// numbers, split 24/8 (granules of 256, odd payloads absent); `id`
    /// the row number and `g` = `id % 10`, both resident.
    fn permuted() -> Database {
        let col = |f: fn(i32) -> i32| Column::from_i32((0..10_000).map(f).collect());
        let cols = [
            ("id", col(|i| i)),
            ("d", col(|i| i * 7919 % 10_000 * 2)),
            ("g", col(|i| i % 10)),
        ];
        let mut db = Database::new();
        let cols = cols.into_iter().map(|(n, c)| (n.to_string(), c)).collect();
        db.create_table("p", cols).unwrap();
        for (column, device_bits) in [("id", 32), ("d", 24), ("g", 32)] {
            db.bwdecompose("p", column, device_bits).unwrap();
        }
        db
    }

    fn between(column: &str, lo: i64, hi: i64) -> Predicate {
        let (column, lo, hi) = (column.into(), Value::Int(lo), Value::Int(hi));
        Predicate::Between { column, lo, hi }
    }

    /// What the streamed seam must not move. A projection returns its rows
    /// in candidate order — per simulated thread block in emission order,
    /// ascending inside one; ascending in the classic pipe — whatever holds
    /// the candidates, however many workers walk them in whatever slices;
    /// and the bill is the parent commit's to the bit, in every
    /// representation.
    #[test]
    fn projections_keep_candidate_order_and_the_parents_bill() {
        let db = permuted();
        let one = E::lit(1i64);
        let logical = LogicalPlan::scan("p")
            .filter(between("d", 0, 9_000))
            .filter(between("g", 0, 6))
            .project(vec![
                (E::col("id"), "id".into()),
                (E::col("d").binary(BinOp::Add, one), "d1".into()),
            ]);
        let scan = ScanOptions {
            block_size: 2048,
            preserve_order: false,
        };
        let kept = |id: &usize| id * 7919 % 10_000 * 2 <= 9_000 && id % 10 <= 6;
        let row = |id: usize| {
            vec![
                Value::Int(id as i64),
                Value::Int((id * 7919 % 10_000 * 2 + 1) as i64),
            ]
        };
        let ascending: Vec<_> = (0..10_000).filter(kept).map(row).collect();
        let emission = scan_block_ranges(10_000, &scan).into_iter().flatten();
        let scrambled: Vec<_> = emission.filter(kept).map(row).collect();
        assert_ne!(ascending, scrambled);
        // (breakdown, traffic) as dumped at the parent commit.
        let (breakdown, traffic) = (
            [0x3f07305e9cb7690a, 0x3f1152346b9ca520, 0x3f05b87cd10b6b80],
            [99435, 29040, 21444],
        );
        let plan = db.bind(&logical, &Default::default()).unwrap();
        for morsels in [1, 2, 4] {
            for slice_rows in [1, 1000, SLICE_ROWS] {
                let (mut ledger, env) = (CostLedger::new(), db.env());
                let classic = run_classic_sliced(
                    db.catalog(),
                    &plan,
                    None,
                    env,
                    morsels,
                    slice_rows,
                    &mut ledger,
                );
                assert_eq!(classic.unwrap().rows, ascending, "{morsels} x {slice_rows}");
                for candidates in [
                    CandidateRep::Auto,
                    CandidateRep::Indices,
                    CandidateRep::Bitmap,
                ] {
                    let opts = ArExecOptions {
                        scan,
                        candidates,
                        ..Default::default()
                    };
                    let ledger = &mut CostLedger::new();
                    let r =
                        run_ar_sliced(&db, &plan, &opts, env, morsels, slice_rows, ledger).unwrap();
                    let tag = format!("{candidates:?} {morsels} x {slice_rows}");
                    assert_eq!(r.rows, scrambled, "{tag}");
                    let b = r.breakdown;
                    let bits = [b.device, b.host, b.pcie].map(f64::to_bits);
                    assert_eq!(bits, breakdown, "{tag}: {bits:#x?}");
                    let t = r.traffic;
                    assert_eq!([t.device, t.host, t.pcie], traffic, "{tag}");
                }
            }
        }
    }

    /// No candidate (the range lies past the domain) and no survivor (128
    /// candidates in the granule of an odd payload, none exact) render what
    /// they always did, in both pipes: no projected row, no group, one row
    /// of a global aggregate.
    #[test]
    fn nothing_selected_renders_as_before() {
        let db = permuted();
        let aggs = || {
            vec![
                agg(AggFunc::Count, None),
                agg(AggFunc::Sum, Some(E::col("id"))),
                agg(AggFunc::Min, Some(E::col("d"))),
            ]
        };
        for (range, candidates) in [((30_000, 40_000), 0), ((4_097, 4_097), 128)] {
            let filtered = || LogicalPlan::scan("p").filter(between("d", range.0, range.1));
            let shapes = [
                (
                    filtered().project(vec![(E::col("id"), "id".into())]),
                    vec![],
                ),
                (filtered().aggregate(vec!["g".into()], aggs()), vec![]),
                (
                    filtered().aggregate(vec![], aggs()),
                    vec![vec![Value::Int(0); 3]],
                ),
            ];
            for (logical, rows) in shapes {
                let plan = db.bind(&logical, &Default::default()).unwrap();
                let env = db.env();
                let classic = run_classic_sliced(
                    db.catalog(),
                    &plan,
                    None,
                    env,
                    1,
                    SLICE_ROWS,
                    &mut CostLedger::new(),
                )
                .unwrap();
                assert_eq!(
                    (classic.rows, classic.survivors),
                    (rows.clone(), 0),
                    "{plan:?}"
                );
                for candidates_rep in [CandidateRep::Indices, CandidateRep::Bitmap] {
                    let opts = ArExecOptions {
                        candidates: candidates_rep,
                        approximate_answer: true,
                        ..Default::default()
                    };
                    let ledger = &mut CostLedger::new();
                    let r = run_ar_sliced(&db, &plan, &opts, env, 1, SLICE_ROWS, ledger).unwrap();
                    assert_eq!((r.rows, r.survivors), (rows.clone(), 0), "{plan:?}");
                    assert_eq!(r.approx.unwrap().candidate_count, candidates, "{plan:?}");
                }
            }
        }
    }

    /// 4 096 groups × 2 aggregates × 16 B is past the 48 KiB of shared
    /// memory: one table in device memory, `1 + 31/4096` conflicts per
    /// update, nothing to merge — the whole event list (summing the key,
    /// so nothing leaves the gathers) is the parent commit's, to the bit,
    /// but for the download: the merged table's 4 096 × 2 × 16 B, where
    /// the parent billed one 16 B accumulator per group.
    #[test]
    fn past_the_shared_memory_budget_the_bill_is_the_global_atomics_one() {
        // Labels, bytes and seconds bits as dumped at the parent commit.
        assert_eq!(
            bits(&grouped_bill((8192, 4096, 6143), 32, "g")),
            [
                ("select.approx.scan", 47872, 0x3ee436939bf0e544),
                ("group.approx.hash-multi", 24576, 0x3ee969e6967e6655),
                ("aggregate.gather", 21504, 0x3ee35aac9d222756),
                ("aggregate.eval", 0, 0x3eec71bdc1f3d418),
                ("aggregate.download", 4096 * 2 * 16, 0x3f07b054aa313944),
            ]
        );
    }
}
