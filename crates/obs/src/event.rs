//! Event identifiers: span ids, lifecycle kinds, begin/end phases.

/// Identifier of one span within a [`crate::Recorder`] (allocated from a
/// per-recorder counter; `0` is reserved for "no span").
pub type SpanId = u32;

/// The null span id: roots parent under it, and a disabled recorder
/// returns it from every span allocation.
pub const NO_SPAN: SpanId = 0;

/// Whether an event opens a span, closes one, or stands alone.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Phase {
    /// Opens span `span` under `parent`.
    Begin,
    /// Closes span `span`.
    End,
    /// A point event attached to `parent`.
    Instant,
}

/// The lifecycle stage an event belongs to.
///
/// # Payload conventions
///
/// Unless noted otherwise, `End` events carry `a` = `f64::to_bits` of the
/// simulated seconds the span charged, `b` = bytes the span moved
/// (simulated traffic delta over all components), `c` = the span's output
/// cardinality and `d` = a kind-specific discriminant. `Begin` events
/// carry `a` = input cardinality and `b` = a kind-specific discriminant.
/// Kind-specific payloads:
///
/// | kind          | Begin `a`, `b`              | End `a`–`d` |
/// |---------------|-----------------------------|-------------|
/// | `Query`       | session id, priority        | est-seconds bits, actual-sim bits, result rows, 1 on error |
/// | `Queue`       | est-seconds bits, 0         | queue-wait-seconds bits, 0, 0, 0 |
/// | `Admission`   | requested bytes, attempt    | 0, reserved bytes, requeues so far, 0 |
/// | `Exec`        | morsels, host threads       | sim bits, bytes, result rows, 0 |
/// | `ApproxSelect`| input candidates, the selection's index in the bound plan | sim bits, bytes, output candidates, 1 = bitmap [`SelVec`] representation, 0 = indices |
/// | `Classic`     | [`pack_chain_order`] of the chain, morsels | sim bits, bytes, result rows, 0 |
/// | `Refine`      | candidates still alive (decided + undecided), step idx \| where it ran << 32 (0 host, 1 fetch, 2 stream) | sim bits, bytes, surviving candidates, the undecided ones this step re-tested |
/// | `GroupAgg`    | surviving rows, [`GroupAggTail::pack`] | sim bits, bytes, result rows, [`GroupAggTables::pack`] |
/// | `Morsel`      | partition length, part idx  | 0, 0, output length, 0 |
/// | `Placement`   | (instant) `a` device index, `b` estimated bytes |  |
/// | `Resolve`     | (instant) `a` completion index, `b` 0 |  |
/// | `DeviceDown`  | (instant) `a` device index, `b` consecutive faults |  |
/// | `DeviceUp`    | (instant) `a` device index, `b` probe tick |  |
/// | `Cancel`      | (instant) `a` 1 = deadline expiry / 0 = explicit cancel, `b` 0 |  |
///
/// [`SelVec`]: https://docs.rs/bwd-kernels
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EventKind {
    /// Root span of one query, submit → resolve.
    Query,
    /// Time spent in the scheduler's policy queue.
    Queue,
    /// Device chosen for an A&R query (instant).
    Placement,
    /// Device-memory admission (reservation wait + grant), one per
    /// attempt.
    Admission,
    /// The query's occupancy of its worker thread.
    Exec,
    /// Result delivery back to the ticket (instant).
    Resolve,
    /// One approximate-selection step of the A&R chain.
    ApproxSelect,
    /// One selection refinement (last-to-first).
    Refine,
    /// The gather boundary: candidate materialization + projection
    /// gathers (device or host block build).
    Gather,
    /// Grouping plus aggregation/projection evaluation.
    GroupAgg,
    /// One morsel (contiguous partition) of a fanned-out stage.
    Morsel,
    /// The classic pipe's whole selection + aggregation chain.
    Classic,
    /// A device crossed its consecutive-fault threshold and went offline
    /// (instant, recorded on the query that observed the last fault).
    DeviceDown,
    /// A recovery probe succeeded and the device came back online
    /// (instant).
    DeviceUp,
    /// A query resolved with a cancellation or deadline error (instant).
    Cancel,
}

impl EventKind {
    /// Stable lowercase name (used by the Chrome export and `EXPLAIN`).
    pub fn as_str(self) -> &'static str {
        match self {
            EventKind::Query => "query",
            EventKind::Queue => "queue",
            EventKind::Placement => "placement",
            EventKind::Admission => "admission",
            EventKind::Exec => "exec",
            EventKind::Resolve => "resolve",
            EventKind::ApproxSelect => "approx-select",
            EventKind::Refine => "refine",
            EventKind::Gather => "gather",
            EventKind::GroupAgg => "group-agg",
            EventKind::Morsel => "morsel",
            EventKind::Classic => "classic",
            EventKind::DeviceDown => "device-down",
            EventKind::DeviceUp => "device-up",
            EventKind::Cancel => "cancel",
        }
    }
}

impl std::fmt::Display for EventKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

/// `Classic` Begin `a`: the order the selection chain ran in — per step the
/// selection's index in the bound plan plus one, in 4 bits, the first step
/// lowest; a zero nibble ends the chain. A chain of more than 15 selections
/// packs as 0: no order recorded.
pub fn pack_chain_order(order: &[usize]) -> u64 {
    if order.len() > 15 || order.iter().any(|&i| i >= 15) {
        return 0;
    }
    (order.iter().rev()).fold(0, |word, &i| word << 4 | (i as u64 + 1))
}

/// The chain order [`pack_chain_order`] packed into `word`.
pub fn unpack_chain_order(mut word: u64) -> Vec<usize> {
    let mut order = Vec::new();
    while word & 0xf != 0 {
        order.push((word & 0xf) as usize - 1);
        word >>= 4;
    }
    order
}

/// `GroupAgg` Begin `b`: where the tail ran — on the device, told the
/// refined survivors by `uploaded` bits, or on the host — and the fold its
/// grouping absorbed, packed as `fold << 60 | accs << 54 | folded_accs <<
/// 48 | uploaded << 1 | device` (each field saturating).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct GroupAggTail {
    /// Whether the device ran the tail.
    pub device: bool,
    /// Survivor bits the host sent up for it (47 bits).
    pub uploaded: u64,
    /// Co-factor keys folded into the grouping (0: no fold; 4 bits).
    pub fold: u64,
    /// Under a fold, the plain program's distinct accumulators and the
    /// folded tail's (6 bits each).
    pub accs: u64,
    /// See `accs`.
    pub folded_accs: u64,
}

impl GroupAggTail {
    /// The payload word.
    pub fn pack(self) -> u64 {
        let (fold, accs, folded) = (
            self.fold.min(15),
            self.accs.min(63),
            self.folded_accs.min(63),
        );
        let uploaded = self.uploaded.min((1 << 47) - 1);
        fold << 60 | accs << 54 | folded << 48 | uploaded << 1 | u64::from(self.device)
    }

    /// The fields of a payload word.
    pub fn unpack(b: u64) -> GroupAggTail {
        GroupAggTail {
            device: b & 1 == 1,
            uploaded: b >> 1 & ((1 << 47) - 1),
            fold: b >> 60,
            accs: b >> 54 & 63,
            folded_accs: b >> 48 & 63,
        }
    }
}

/// `GroupAgg` End `d`: which grouping fed the aggregation, beside the count
/// it is sized by, the private accumulator tables of a grouped device
/// aggregation and where a fold was rolled up — packed as `grouping << 62
/// | sized_by << 40 | replicas << 32 | rollup_on_device << 31 | blocks`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct GroupAggTables {
    /// 0 ungrouped, 1 the host hashed the refined keys, 2 hash
    /// pre-grouping on the device, 3 the packed key addressed the slots.
    pub grouping: u64,
    /// Hash pre-grouping: groups among the candidates; direct: slots
    /// (22 bits, saturating).
    pub sized_by: u64,
    /// Copies of the table per thread block (0: no device aggregation).
    pub replicas: u64,
    /// Thread blocks holding private tables (0 = one table in device
    /// memory, past the shared-memory budget; 31 bits, saturating).
    pub blocks: u64,
    /// Whether the device rolled a fold up (false: the host did, or no
    /// fold).
    pub rollup_on_device: bool,
}

impl GroupAggTables {
    const SIZED_BY_MAX: u64 = (1 << 22) - 1;
    const BLOCKS_MAX: u64 = (1 << 31) - 1;

    /// The payload word.
    pub fn pack(self) -> u64 {
        let (sized_by, blocks) = (
            self.sized_by.min(Self::SIZED_BY_MAX),
            self.blocks.min(Self::BLOCKS_MAX),
        );
        let rollup = u64::from(self.rollup_on_device);
        self.grouping << 62 | sized_by << 40 | self.replicas << 32 | rollup << 31 | blocks
    }

    /// The fields of a payload word.
    pub fn unpack(d: u64) -> GroupAggTables {
        GroupAggTables {
            grouping: d >> 62,
            sized_by: d >> 40 & Self::SIZED_BY_MAX,
            replicas: d >> 32 & 0xff,
            blocks: d & Self::BLOCKS_MAX,
            rollup_on_device: d >> 31 & 1 == 1,
        }
    }
}
