//! Chrome `trace_event` JSON export.
//!
//! The output loads in `chrome://tracing` / Perfetto: one process, one
//! display lane (`tid`) per distinct recording-lane label, `"X"`
//! complete events for spans and `"i"` instants for point events.
//! Timestamps are microseconds since the shared process epoch, so
//! traces captured from different per-query recorders merge onto one
//! coherent timeline.

use crate::json;
use crate::trace::{QueryTrace, SpanNode};

/// Serialize a batch of `(query label, trace)` pairs into Chrome
/// `trace_event` JSON.
pub fn chrome_trace(traces: &[(String, QueryTrace)]) -> String {
    // Merge lanes by label across traces so all "worker-0" activity
    // shares one display row regardless of which recorder captured it.
    let mut labels: Vec<&str> = traces
        .iter()
        .flat_map(|(_, t)| t.lanes.iter().map(String::as_str))
        .collect();
    labels.sort_unstable();
    labels.dedup();
    let tid_of = |label: &str| labels.iter().position(|l| *l == label).unwrap_or(0) + 1;

    let mut events: Vec<String> = Vec::new();
    for (tid0, label) in labels.iter().enumerate() {
        events.push(format!(
            "{{\"name\":\"thread_name\",\"ph\":\"M\",\"ts\":0,\"pid\":1,\"tid\":{},\"args\":{{\"name\":\"{}\"}}}}",
            tid0 + 1,
            json::escape(label)
        ));
    }

    for (query, trace) in traces {
        for root in trace.roots() {
            push_span(&mut events, query, trace, &root, &tid_of);
        }
    }

    format!(
        "{{\"traceEvents\":[{}],\"displayTimeUnit\":\"ms\"}}",
        events.join(",")
    )
}

fn push_span(
    events: &mut Vec<String>,
    query: &str,
    trace: &QueryTrace,
    node: &SpanNode,
    tid_of: &dyn Fn(&str) -> usize,
) {
    let lane = trace
        .lanes
        .get(node.worker as usize)
        .map(String::as_str)
        .unwrap_or("?");
    let tid = tid_of(lane);
    let ts = node.t_begin_ns as f64 / 1e3;
    let dur = (node.t_end_ns - node.t_begin_ns) as f64 / 1e3;
    let mut args = format!(
        "\"query\":\"{}\",\"span\":{}",
        json::escape(query),
        node.span
    );
    if let Some(sim) = node.sim_seconds() {
        args.push_str(&format!(",\"sim_seconds\":{sim}"));
    }
    if let Some(bytes) = node.bytes() {
        args.push_str(&format!(",\"bytes\":{bytes}"));
    }
    if let Some(end) = &node.end {
        args.push_str(&format!(",\"out\":{}", end.c));
    }
    events.push(format!(
        "{{\"name\":\"{}\",\"cat\":\"{}\",\"ph\":\"X\",\"ts\":{ts},\"dur\":{dur},\"pid\":1,\"tid\":{tid},\"args\":{{{args}}}}}",
        node.kind, node.kind
    ));
    for i in &node.instants {
        let its = i.t_ns as f64 / 1e3;
        events.push(format!(
            "{{\"name\":\"{}\",\"cat\":\"{}\",\"ph\":\"i\",\"s\":\"t\",\"ts\":{its},\"pid\":1,\"tid\":{tid},\"args\":{{\"a\":{},\"b\":{}}}}}",
            i.kind, i.kind, i.a, i.b
        ));
    }
    for c in &node.children {
        push_span(events, query, trace, c, tid_of);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::clock::Clock;
    use crate::event::{EventKind, NO_SPAN};
    use crate::json::JsonValue;
    use crate::recorder::Recorder;

    fn traced(label: &str, base_ns: u64) -> (String, QueryTrace) {
        let (clock, ctl) = Clock::mock();
        ctl.set_ns(base_ns);
        let r = Recorder::with(64, clock);
        let w = r.worker("worker-0");
        let root = w.begin(EventKind::Query, NO_SPAN, 0, 0);
        let exec = w.begin(EventKind::Exec, root, 2, 1);
        w.instant(EventKind::Resolve, root, 3, 0);
        ctl.advance_ns(10_000);
        w.end(EventKind::Exec, exec, 0.5f64.to_bits(), 64, 9, 0);
        w.end(EventKind::Query, root, 0, 0, 9, 0);
        (label.to_string(), QueryTrace::capture(&r))
    }

    #[test]
    fn export_counts_its_events_and_merges_lanes() {
        let traces = vec![traced("q0", 0), traced("q1", 20_000)];
        let text = chrome_trace(&traces);
        let doc = json::parse(&text).expect("trace json");
        let n = doc
            .get("traceEvents")
            .and_then(JsonValue::as_arr)
            .unwrap()
            .len();
        // 1 thread-name metadata + per trace: query X, exec X, resolve i.
        assert_eq!(n, 1 + 2 * 3);
        assert!(text.contains("\"displayTimeUnit\":\"ms\""));
        assert!(text.contains("thread_name"));
        // Both queries landed on the single merged worker-0 lane.
        assert_eq!(text.matches("\"tid\":1").count(), n);
    }
}
