//! Spans recorded from outside the program, around its public entry
//! points, kept in memory and written out when the traced run ends.
//!
//! The program cannot be asked where inside one request its time went
//! (in-program tracing is a later issue), so the harness *replays* a
//! sampled request through nested entry points — serial engine ⊂ session
//! ⊂ duplex front door ⊂ loopback TCP — and times each replay. The
//! outermost replay of an op is a real interval; each inner replay is
//! recorded as a child placed at its parent's start with the duration it
//! really took (clipped to the parent). A level's *self time* is then the
//! usual one: its duration minus the part its children cover.

use std::fmt::Write as _;
use std::time::Instant;

/// One recorded interval.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// Index of this span in its recorder.
    pub id: usize,
    /// The span that caused this one.
    pub parent: Option<usize>,
    /// Identifier shared by the spans of one sampled request.
    pub op: usize,
    /// Layer boundary, e.g. `net.tcp`.
    pub name: &'static str,
    /// Start, nanoseconds since the recorder's origin.
    pub start_ns: u64,
    /// End, nanoseconds since the recorder's origin.
    pub end_ns: u64,
}

impl Span {
    /// Length of the interval.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// In-memory span store.
pub struct SpanRecorder {
    origin: Instant,
    spans: Vec<Span>,
}

impl SpanRecorder {
    /// An empty recorder whose clock starts now.
    pub fn new() -> SpanRecorder {
        SpanRecorder {
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }

    /// Nanoseconds since the recorder was created.
    pub fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Record an interval; returns its id.
    pub fn record(
        &mut self,
        name: &'static str,
        op: usize,
        parent: Option<usize>,
        start_ns: u64,
        end_ns: u64,
    ) -> usize {
        let id = self.spans.len();
        self.spans.push(Span {
            id,
            parent,
            op,
            name,
            start_ns,
            end_ns: end_ns.max(start_ns),
        });
        id
    }

    /// Record a replayed child of `parent`: it starts `offset_ns` into
    /// the parent, lasts `duration_ns`, and is clipped to the parent.
    pub fn record_replayed(
        &mut self,
        name: &'static str,
        parent: usize,
        offset_ns: u64,
        duration_ns: u64,
    ) -> usize {
        let p = &self.spans[parent];
        let (op, start, limit) = (p.op, p.start_ns + offset_ns, p.end_ns);
        let start = start.min(limit);
        self.record(
            name,
            op,
            Some(parent),
            start,
            (start + duration_ns).min(limit),
        )
    }

    /// Everything recorded so far.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// The spans as one JSON document.
    pub fn to_json(&self, workload: &str, seed: u64) -> String {
        let mut out = format!(
            "{{\"workload\": \"{workload}\", \"seed\": {seed}, \"clock\": \"ns since recorder start\", \
             \"note\": \"root spans are real intervals; children are replays placed at their parent's start\", \
             \"spans\": [\n"
        );
        let selfs = self_times(&self.spans);
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = write!(
                out,
                "  {{\"id\": {}, \"parent\": {parent}, \"op\": {}, \"name\": \"{}\", \
                 \"start_ns\": {}, \"end_ns\": {}, \"self_ns\": {}}}",
                s.id, s.op, s.name, s.start_ns, s.end_ns, selfs[i]
            );
            out.push_str(if i + 1 < self.spans.len() {
                ",\n"
            } else {
                "\n"
            });
        }
        out.push_str("]}\n");
        out
    }
}

/// Self time of every span: its duration minus the part of its interval
/// that its children cover (overlapping children are counted once;
/// children reaching outside the parent are clipped).
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            let (lo, hi) = (spans[p].start_ns, spans[p].end_ns);
            let (start, end) = (s.start_ns.clamp(lo, hi), s.end_ns.clamp(lo, hi));
            if end > start {
                children[p].push((start, end));
            }
        }
    }
    spans
        .iter()
        .zip(&mut children)
        .map(|(s, kids)| {
            kids.sort_unstable();
            let mut covered = 0;
            let mut reach = s.start_ns;
            for &(start, end) in kids.iter() {
                let from = start.max(reach);
                if end > from {
                    covered += end - from;
                    reach = end;
                }
            }
            s.duration_ns() - covered
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: usize, parent: Option<usize>, start_ns: u64, end_ns: u64) -> Span {
        Span {
            id,
            parent,
            op: 0,
            name: "x",
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_counts_overlapping_children_once() {
        let spans = [
            span(0, None, 100, 200),
            span(1, Some(0), 110, 150),
            span(2, Some(0), 140, 170), // overlaps span 1 by 10
            span(3, Some(0), 120, 130), // inside span 1
            span(4, Some(1), 110, 120), // grandchild: only span 1 pays
        ];
        // Children of 0 cover [110,170) = 60 → self 40.
        assert_eq!(self_times(&spans), [40, 30, 30, 10, 10]);
    }

    #[test]
    fn children_are_clipped_to_their_parent() {
        let spans = [
            span(0, None, 100, 200),
            span(1, Some(0), 50, 120),  // starts before the parent
            span(2, Some(0), 190, 400), // ends after it
            span(3, Some(0), 300, 350), // entirely outside
        ];
        assert_eq!(self_times(&spans)[0], 100 - 20 - 10);
    }

    #[test]
    fn a_chain_of_replays_telescopes_to_the_root() {
        let mut rec = SpanRecorder::new();
        let tcp = rec.record("net.tcp", 7, None, 1_000, 3_200);
        let duplex = rec.record_replayed("net.duplex", tcp, 0, 900);
        let session = rec.record_replayed("sched.session", duplex, 0, 400);
        let serial = rec.record_replayed("serial", session, 0, 300);
        let a = rec.record_replayed("sql.parse_bind", serial, 0, 50);
        let b = rec.record_replayed("core.rewrite", serial, 50, 30);
        let c = rec.record_replayed("engine.run_bound", serial, 80, 220);
        let selfs = self_times(rec.spans());
        assert_eq!(selfs[tcp], 1_300);
        assert_eq!(selfs[duplex], 500);
        assert_eq!(selfs[session], 100);
        assert_eq!(selfs[serial], 0);
        assert_eq!((selfs[a], selfs[b], selfs[c]), (50, 30, 220));
        assert_eq!(selfs.iter().sum::<u64>(), rec.spans()[tcp].duration_ns());
        assert!(rec.spans().iter().all(|s| s.op == 7));
        // A replay that took longer than its parent is clipped, not negative.
        let slow = rec.record_replayed("net.duplex", tcp, 0, 9_999);
        assert_eq!(rec.spans()[slow].end_ns, 3_200);
        let json = rec.to_json("probe_net", 3);
        let parsed = waste_not::obs::json::parse(&json).unwrap();
        assert_eq!(parsed.get("spans").unwrap().as_arr().unwrap().len(), 8);
    }
}
