//! [`QueryTrace`]: the drained event set of one query, with integrity
//! validation, a span tree, and an `EXPLAIN ANALYZE`-style rendering.

use crate::event::{
    unpack_chain_order, EventKind, GroupAggTables, GroupAggTail, Phase, SpanId, NO_SPAN,
};
use crate::recorder::Recorder;
use crate::ring::Event;
use std::collections::BTreeMap;

/// The recorded events of one query, drained from a [`Recorder`].
#[derive(Debug, Clone, Default, PartialEq)]
pub struct QueryTrace {
    /// All surviving events, sorted by `(t_ns, worker, seq)`.
    pub events: Vec<Event>,
    /// Lane labels, indexed by `Event::worker`.
    pub lanes: Vec<String>,
    /// Total events lost to ring overflow across all lanes.
    pub dropped: u64,
}

impl QueryTrace {
    /// Drain `recorder` into a time-ordered trace. Non-destructive on
    /// the recorder; returns an empty trace for a disabled recorder.
    pub fn capture(recorder: &Recorder) -> QueryTrace {
        let mut events = Vec::new();
        let mut lanes = Vec::new();
        let mut dropped = 0;
        for (label, lane_events, lane_dropped) in recorder.drain() {
            lanes.push(label);
            events.extend(lane_events);
            dropped += lane_dropped;
        }
        events.sort_by_key(|e| (e.t_ns, e.worker, e.seq));
        QueryTrace {
            events,
            lanes,
            dropped,
        }
    }

    /// The span forest (roots are spans whose parent is [`NO_SPAN`] or
    /// was lost to overflow), children in begin-time order.
    pub fn roots(&self) -> Vec<SpanNode> {
        let mut nodes: BTreeMap<SpanId, SpanNode> = BTreeMap::new();
        let mut order: Vec<SpanId> = Vec::new();
        for e in &self.events {
            match e.phase {
                Phase::Begin => {
                    nodes.insert(
                        e.span,
                        SpanNode {
                            span: e.span,
                            parent: e.parent,
                            kind: e.kind,
                            worker: e.worker,
                            t_begin_ns: e.t_ns,
                            t_end_ns: e.t_ns,
                            begin: *e,
                            end: None,
                            instants: Vec::new(),
                            children: Vec::new(),
                        },
                    );
                    order.push(e.span);
                }
                Phase::End => {
                    if let Some(n) = nodes.get_mut(&e.span) {
                        n.t_end_ns = e.t_ns;
                        n.end = Some(*e);
                    }
                }
                Phase::Instant => {
                    if let Some(n) = nodes.get_mut(&e.parent) {
                        n.instants.push(*e);
                    }
                }
            }
        }
        // Attach children to parents, deepest ids last so a simple
        // reverse pass moves every subtree intact.
        let mut roots = Vec::new();
        for span in order.iter().rev() {
            let node = nodes.remove(span).expect("walked once");
            if node.parent != NO_SPAN {
                if let Some(p) = nodes.get_mut(&node.parent) {
                    p.children.push(node);
                    continue;
                }
            }
            roots.push(node);
        }
        roots.reverse();
        for r in &mut roots {
            sort_children(r);
        }
        roots
    }

    /// Render an `EXPLAIN ANALYZE`-style tree: per-phase wall time,
    /// simulated seconds, bytes moved and cardinalities, plus the
    /// estimated-vs-actual summary from the query root's payload.
    pub fn explain(&self) -> String {
        let mut out = String::new();
        if self.dropped > 0 {
            out.push_str(&format!(
                "-- WARNING: {} events dropped (ring overflow); tree is partial\n",
                self.dropped
            ));
        }
        for root in self.roots() {
            render_node(&mut out, &root, &self.lanes, 0);
        }
        out
    }
}

fn sort_children(n: &mut SpanNode) {
    n.children.sort_by_key(|c| (c.t_begin_ns, c.worker, c.span));
    for c in &mut n.children {
        sort_children(c);
    }
}

/// One span of the trace tree (see [`QueryTrace::roots`]).
#[derive(Debug, Clone)]
pub struct SpanNode {
    /// Span id.
    pub span: SpanId,
    /// Parent span id ([`NO_SPAN`] for roots).
    pub parent: SpanId,
    /// Lifecycle stage.
    pub kind: EventKind,
    /// Lane that opened the span.
    pub worker: u16,
    /// Begin timestamp.
    pub t_begin_ns: u64,
    /// End timestamp (== begin when the span never closed).
    pub t_end_ns: u64,
    /// The opening event.
    pub begin: Event,
    /// The closing event, when present.
    pub end: Option<Event>,
    /// Instants attached to this span, in time order.
    pub instants: Vec<Event>,
    /// Child spans in begin-time order.
    pub children: Vec<SpanNode>,
}

impl SpanNode {
    /// Wall-clock duration in seconds.
    pub fn wall_seconds(&self) -> f64 {
        (self.t_end_ns - self.t_begin_ns) as f64 / 1e9
    }

    /// Simulated seconds charged by this span (from the `End` payload),
    /// when the kind carries them.
    pub fn sim_seconds(&self) -> Option<f64> {
        let end = self.end.as_ref()?;
        match self.kind {
            EventKind::Exec
            | EventKind::ApproxSelect
            | EventKind::Refine
            | EventKind::Gather
            | EventKind::GroupAgg
            | EventKind::Classic => Some(f64::from_bits(end.a)),
            _ => None,
        }
    }

    /// Bytes moved by this span (from the `End` payload), when the kind
    /// carries them.
    pub fn bytes(&self) -> Option<u64> {
        let end = self.end.as_ref()?;
        match self.kind {
            EventKind::Exec
            | EventKind::ApproxSelect
            | EventKind::Refine
            | EventKind::Gather
            | EventKind::GroupAgg
            | EventKind::Classic => Some(end.b),
            _ => None,
        }
    }
}

fn human_bytes(b: u64) -> String {
    if b >= 1 << 30 {
        format!("{:.2} GiB", b as f64 / (1u64 << 30) as f64)
    } else if b >= 1 << 20 {
        format!("{:.2} MiB", b as f64 / (1u64 << 20) as f64)
    } else if b >= 1 << 10 {
        format!("{:.2} KiB", b as f64 / (1u64 << 10) as f64)
    } else {
        format!("{b} B")
    }
}

fn human_seconds(s: f64) -> String {
    if s >= 1.0 {
        format!("{s:.3} s")
    } else if s >= 1e-3 {
        format!("{:.3} ms", s * 1e3)
    } else {
        format!("{:.1} us", s * 1e6)
    }
}

fn render_node(out: &mut String, n: &SpanNode, lanes: &[String], depth: usize) {
    let indent = "  ".repeat(depth);
    let lane = lanes
        .get(n.worker as usize)
        .map(String::as_str)
        .unwrap_or("?");
    out.push_str(&format!(
        "{indent}{} [{}]  wall={}",
        n.kind,
        lane,
        human_seconds(n.wall_seconds())
    ));
    if let Some(sim) = n.sim_seconds() {
        out.push_str(&format!("  sim={}", human_seconds(sim)));
    }
    if let Some(b) = n.bytes() {
        if b > 0 {
            out.push_str(&format!("  bytes={}", human_bytes(b)));
        }
    }
    match (n.kind, n.end.as_ref()) {
        (EventKind::Query, Some(end)) => {
            let est = f64::from_bits(end.a);
            let actual = f64::from_bits(end.b);
            out.push_str(&format!(
                "  rows={}  est={}  actual={}",
                end.c,
                human_seconds(est),
                human_seconds(actual)
            ));
            if actual > 0.0 {
                out.push_str(&format!("  est/actual={:.2}", est / actual));
            }
            if end.d != 0 {
                out.push_str("  ERROR");
            }
        }
        (EventKind::Queue, Some(end)) => {
            out.push_str(&format!(
                "  waited={}",
                human_seconds(f64::from_bits(end.a))
            ));
        }
        (EventKind::Admission, Some(end)) => {
            out.push_str(&format!(
                "  requested={}  reserved={}  requeues={}",
                human_bytes(n.begin.a),
                human_bytes(end.b),
                end.c
            ));
        }
        (EventKind::ApproxSelect, Some(end)) => {
            out.push_str(&format!(
                "  sel={}  in={}  out={}  rep={}",
                n.begin.b,
                n.begin.a,
                end.c,
                if end.d == 1 { "bitmap" } else { "indices" }
            ));
        }
        (EventKind::Refine, Some(end)) => {
            let at = ["host", "fetch", "stream"].get((n.begin.b >> 32) as usize);
            out.push_str(&format!(
                "  in={}  out={}  decided={}  undecided={}  at={}",
                n.begin.a,
                end.c,
                n.begin.a.saturating_sub(end.d),
                end.d,
                at.unwrap_or(&"?")
            ));
        }
        (EventKind::Morsel, Some(end)) => {
            out.push_str(&format!("  in={}  out={}", n.begin.a, end.c));
        }
        (EventKind::GroupAgg, Some(end)) => {
            // Where the tail ran and how many survivor bits the host sent
            // up for it; which grouping fed it and what it folded; then
            // which side of the shared-memory budget the device aggregated
            // on.
            let tail = GroupAggTail::unpack(n.begin.b);
            match tail.device {
                true => out.push_str(&format!("  tail=device  uploaded={}", tail.uploaded)),
                false => out.push_str("  tail=host"),
            }
            if end.c > 0 {
                out.push_str(&format!("  out={}", end.c));
            }
            let t = GroupAggTables::unpack(end.d);
            match t.grouping {
                1 => out.push_str("  grouping=host"),
                2 => out.push_str(&format!("  grouping=hash groups={}", t.sized_by)),
                3 => out.push_str(&format!(
                    "  grouping=direct slots={} groups={}",
                    t.sized_by, end.c
                )),
                _ => {}
            }
            if tail.fold > 0 {
                let (fold, before, after) = (tail.fold, tail.accs, tail.folded_accs);
                let side = if t.rollup_on_device { "device" } else { "host" };
                out.push_str(&format!(
                    "  fold={fold} accs={before}→{after}  rollup={side}"
                ));
            }
            if (t.replicas, t.blocks) != (0, 0) {
                out.push_str(&format!("  replicas={}  blocks={}", t.replicas, t.blocks));
            }
        }
        (EventKind::Classic, Some(end)) => {
            let order = unpack_chain_order(n.begin.a);
            if !order.is_empty() {
                let order: Vec<String> = order.iter().map(usize::to_string).collect();
                out.push_str(&format!("  order={}", order.join(",")));
            }
            if end.c > 0 {
                out.push_str(&format!("  out={}", end.c));
            }
        }
        (EventKind::Exec | EventKind::Gather, Some(end)) if end.c > 0 => {
            out.push_str(&format!("  out={}", end.c));
        }
        _ => {}
    }
    if n.end.is_none() {
        out.push_str("  (unclosed)");
    }
    out.push('\n');
    for i in &n.instants {
        let iindent = "  ".repeat(depth + 1);
        match i.kind {
            EventKind::Placement => {
                out.push_str(&format!(
                    "{iindent}@placement device={} est-bytes={}\n",
                    i.a,
                    human_bytes(i.b)
                ));
            }
            EventKind::Resolve => {
                out.push_str(&format!("{iindent}@resolve completion-index={}\n", i.a));
            }
            _ => {
                out.push_str(&format!("{iindent}@{} a={} b={}\n", i.kind, i.a, i.b));
            }
        }
    }
    for c in &n.children {
        render_node(out, c, lanes, depth + 1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::clock::Clock;
    use crate::event::{pack_chain_order, GroupAggTail};
    use crate::recorder::Recorder;

    fn sample_trace() -> QueryTrace {
        let (clock, ctl) = Clock::mock();
        let r = Recorder::with(64, clock);
        let s = r.worker("session");
        let w = r.worker("worker-0");
        let root = s.begin(EventKind::Query, NO_SPAN, 1, 0);
        let q = s.begin(EventKind::Queue, root, 0, 0);
        ctl.advance_ns(1_000);
        w.end(EventKind::Queue, q, 0.000001f64.to_bits(), 0, 0, 0);
        let exec = w.begin(EventKind::Exec, root, 4, 1);
        w.instant(EventKind::Placement, exec, 0, 4096);
        ctl.advance_ns(5_000);
        let sel = w.begin(EventKind::ApproxSelect, exec, 1000, 0);
        ctl.advance_ns(2_000);
        w.end(EventKind::ApproxSelect, sel, 0.5f64.to_bits(), 2048, 100, 1);
        w.end(EventKind::Exec, exec, 0.75f64.to_bits(), 4096, 100, 0);
        w.instant(EventKind::Resolve, root, 0, 0);
        s.end(
            EventKind::Query,
            root,
            0.8f64.to_bits(),
            0.75f64.to_bits(),
            100,
            0,
        );
        QueryTrace::capture(&r)
    }

    #[test]
    fn capture_orders_by_time() {
        let t = sample_trace();
        assert_eq!(t.dropped, 0);
        assert_eq!(t.lanes, vec!["session".to_string(), "worker-0".to_string()]);
        for w in t.events.windows(2) {
            assert!(w[0].t_ns <= w[1].t_ns, "time-ordered");
        }
    }

    #[test]
    fn explain_prints_the_refine_split_and_the_accumulator_tables() {
        let r = Recorder::with(16, Clock::mock().0);
        let w = r.worker("worker-0");
        let exec = w.begin(EventKind::Exec, NO_SPAN, 1, 1);
        // 100 candidates alive, 30 of them undecided, 10 of those refuted
        // by the device, the host having fetched their residuals.
        let refine = w.begin(EventKind::Refine, exec, 100, 1 << 32);
        w.end(EventKind::Refine, refine, 0.25f64.to_bits(), 512, 90, 30);
        // The device tail, told the 20 refined survivors by 30 bits: 3
        // result rows folded through 32 replicas in each of 42 blocks of
        // 8-slot tables the packed key addresses.
        let agg = w.begin(EventKind::GroupAgg, exec, 90, 30 << 1 | 1);
        let tables = |grouping, sized_by| GroupAggTables {
            grouping,
            sized_by,
            replicas: 32,
            blocks: 42,
            rollup_on_device: false,
        };
        w.end(EventKind::GroupAgg, agg, 0, 0, 3, tables(3, 8).pack());
        // The same tail behind a hash pre-grouping that found 4 groups
        // among the candidates, one of which kept no survivor.
        let agg = w.begin(EventKind::GroupAgg, exec, 90, 30 << 1 | 1);
        w.end(EventKind::GroupAgg, agg, 0, 0, 3, tables(2, 4).pack());
        // A host tail (§IV-G) over the same rows: nothing went up, the host
        // hashed the refined keys; and an ungrouped one.
        let agg = w.begin(EventKind::GroupAgg, exec, 90, 0);
        w.end(EventKind::GroupAgg, agg, 0, 0, 3, 1 << 62);
        let agg = w.begin(EventKind::GroupAgg, exec, 90, 0);
        w.end(EventKind::GroupAgg, agg, 0, 0, 1, 0);
        w.end(EventKind::Exec, exec, 0.25f64.to_bits(), 512, 90, 0);
        let text = QueryTrace::capture(&r).explain();
        assert!(
            text.contains("in=100  out=90  decided=70  undecided=30  at=fetch"),
            "{text}"
        );
        for grouping in ["direct slots=8 groups=3", "hash groups=4"] {
            let line = format!(
                "tail=device  uploaded=30  out=3  grouping={grouping}  replicas=32  blocks=42\n"
            );
            assert!(text.contains(&line), "{text}");
        }
        assert!(text.contains("tail=host  out=3  grouping=host\n"), "{text}");
        assert!(text.contains("tail=host  out=1\n"), "{text}");
    }

    /// A folded grouping shows how many co-factor keys it absorbed, the
    /// accumulators before and after and where it was rolled up, on either
    /// pipe's `group-agg` line; a plain one shows nothing of it. The
    /// payload words round-trip every field and saturate each.
    #[test]
    fn explain_prints_the_fold() {
        let folded = GroupAggTail {
            device: true,
            uploaded: 30,
            fold: 2,
            accs: 6,
            folded_accs: 3,
        };
        assert_eq!(GroupAggTail::unpack(folded.pack()), folded);
        let huge = GroupAggTail {
            device: false,
            uploaded: u64::MAX,
            fold: 99,
            accs: 99,
            folded_accs: 99,
        };
        let saturated = GroupAggTail::unpack(huge.pack());
        assert_eq!(
            (
                saturated.uploaded,
                saturated.fold,
                saturated.accs,
                saturated.folded_accs
            ),
            ((1 << 47) - 1, 15, 63, 63)
        );
        let r = Recorder::with(16, Clock::mock().0);
        let w = r.worker("worker-0");
        let exec = w.begin(EventKind::Exec, NO_SPAN, 1, 1);
        let hash = GroupAggTables {
            grouping: 2,
            sized_by: 297,
            replicas: 3,
            blocks: 42,
            rollup_on_device: true,
        };
        assert_eq!(GroupAggTables::unpack(hash.pack()), hash);
        let most = GroupAggTables::unpack(u64::MAX);
        assert_eq!((most.blocks, most.rollup_on_device), ((1 << 31) - 1, true));
        let agg = w.begin(EventKind::GroupAgg, exec, 90, folded.pack());
        w.end(EventKind::GroupAgg, agg, 0, 0, 4, hash.pack());
        let host = GroupAggTail {
            device: false,
            uploaded: 0,
            ..folded
        };
        let agg = w.begin(EventKind::GroupAgg, exec, 90, host.pack());
        w.end(EventKind::GroupAgg, agg, 0, 0, 4, 1 << 62);
        let agg = w.begin(EventKind::GroupAgg, exec, 90, 0);
        w.end(EventKind::GroupAgg, agg, 0, 0, 4, 1 << 62);
        w.end(EventKind::Exec, exec, 0, 0, 4, 0);
        let text = QueryTrace::capture(&r).explain();
        let device = "tail=device  uploaded=30  out=4  grouping=hash groups=297  fold=2 accs=6→3  rollup=device  replicas=3  blocks=42\n";
        assert!(text.contains(device), "{text}");
        assert!(
            text.contains("tail=host  out=4  grouping=host  fold=2 accs=6→3  rollup=host\n"),
            "{text}"
        );
        assert!(text.contains("tail=host  out=4  grouping=host\n"), "{text}");
        assert_eq!(text.matches("fold=").count(), 2, "{text}");
    }

    /// The chain order a run took shows: an A&R step names its selection's
    /// index in the bound plan, a classic span the whole permutation.
    #[test]
    fn explain_prints_the_chain_order() {
        for order in [vec![], vec![0], vec![2, 0, 1], (0..15).rev().collect()] {
            assert_eq!(unpack_chain_order(pack_chain_order(&order)), order);
        }
        assert_eq!(pack_chain_order(&[2, 0, 1]), 0x213);
        assert_eq!(pack_chain_order(&(0..16).collect::<Vec<_>>()), 0);
        let r = Recorder::with(16, Clock::mock().0);
        let w = r.worker("worker-0");
        let exec = w.begin(EventKind::Exec, NO_SPAN, 1, 1);
        let sel = w.begin(EventKind::ApproxSelect, exec, 1000, 2);
        w.end(EventKind::ApproxSelect, sel, 0, 0, 100, 0);
        let classic = w.begin(EventKind::Classic, exec, pack_chain_order(&[0, 2, 1]), 1);
        w.end(EventKind::Classic, classic, 0, 0, 1, 0);
        let bare = w.begin(EventKind::Classic, exec, 0, 1);
        w.end(EventKind::Classic, bare, 0, 0, 1, 0);
        w.end(EventKind::Exec, exec, 0, 0, 1, 0);
        let text = QueryTrace::capture(&r).explain();
        assert!(text.contains("sel=2  in=1000  out=100"), "{text}");
        assert!(text.contains("  order=0,2,1  out=1\n"), "{text}");
        assert_eq!(text.matches("order=").count(), 1, "{text}");
    }

    #[test]
    fn tree_shape_and_explain() {
        let t = sample_trace();
        let roots = t.roots();
        assert_eq!(roots.len(), 1);
        let q = &roots[0];
        assert_eq!(q.kind, EventKind::Query);
        assert_eq!(q.children.len(), 2, "queue + exec");
        assert_eq!(q.children[0].kind, EventKind::Queue);
        assert_eq!(q.children[1].kind, EventKind::Exec);
        assert_eq!(q.children[1].children.len(), 1);
        assert_eq!(q.children[1].children[0].kind, EventKind::ApproxSelect);
        assert!((q.children[1].sim_seconds().unwrap() - 0.75).abs() < 1e-12);

        let text = t.explain();
        assert!(text.contains("query [session]"), "{text}");
        assert!(text.contains("approx-select"), "{text}");
        assert!(text.contains("rep=bitmap"), "{text}");
        assert!(text.contains("@resolve"), "{text}");
        assert!(text.contains("est/actual=1.07"), "{text}");
    }

    #[test]
    fn overflow_is_reported_not_fatal() {
        let r = Recorder::with(4, Clock::monotonic());
        let w = r.worker("w");
        for _ in 0..16 {
            let s = w.begin(EventKind::Morsel, NO_SPAN, 1, 0);
            w.end(EventKind::Morsel, s, 0, 0, 1, 0);
        }
        let t = QueryTrace::capture(&r);
        assert!(t.dropped > 0);
        assert!(
            t.explain().contains("WARNING"),
            "overflow surfaces in explain"
        );
    }
}
