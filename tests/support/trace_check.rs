//! The trace oracle the test suites share: a captured [`QueryTrace`] is
//! structurally sound. Included by path (`#[path = ...] mod trace_check;`)
//! from each test target that checks one.

use bwd_obs::{Event, Phase, QueryTrace, SpanId, NO_SPAN};
use std::collections::BTreeMap;

/// Check a trace's structural integrity; `Err` describes the first
/// violation.
///
/// Always checked: per-worker sequence numbers strictly increase,
/// and span ids are begun at most once. When `dropped == 0` the
/// stronger pairing invariants also hold: every `Begin` has exactly
/// one `End` at `t_end ≥ t_begin`, every `End` closes a known span,
/// and every non-null parent's `Begin` is at `t ≤` the child's.
/// When events were dropped the pairing checks are skipped — an
/// overflowed trace is *reported* (via `dropped`), never silently
/// treated as complete.
pub fn validate(trace: &QueryTrace) -> Result<(), String> {
    let mut last_seq: BTreeMap<u16, u32> = BTreeMap::new();
    for e in &trace.events {
        if let Some(prev) = last_seq.get(&e.worker) {
            if e.seq <= *prev {
                return Err(format!(
                    "worker {} sequence not monotonic: {} after {}",
                    e.worker, e.seq, prev
                ));
            }
        }
        last_seq.insert(e.worker, e.seq);
    }

    let mut begins: BTreeMap<SpanId, &Event> = BTreeMap::new();
    for e in &trace.events {
        if e.phase == Phase::Begin {
            if e.span == NO_SPAN {
                return Err("begin event with null span id".into());
            }
            if begins.insert(e.span, e).is_some() {
                return Err(format!("span {} begun twice", e.span));
            }
        }
    }

    if trace.dropped > 0 {
        return Ok(());
    }

    // Pairing checks are order-insensitive: lanes record
    // independently, so an `End` on one lane may legitimately share
    // a timestamp with (and sort next to) a `Begin` on another.
    let mut ends: BTreeMap<SpanId, &Event> = BTreeMap::new();
    for e in &trace.events {
        match e.phase {
            Phase::Begin => {
                if e.parent != NO_SPAN {
                    match begins.get(&e.parent) {
                        None => {
                            return Err(format!("span {} has unknown parent {}", e.span, e.parent));
                        }
                        Some(p) if p.t_ns > e.t_ns => {
                            return Err(format!(
                                "span {} begins before its parent {}",
                                e.span, e.parent
                            ));
                        }
                        Some(_) => {}
                    }
                }
            }
            Phase::End => {
                if !begins.contains_key(&e.span) {
                    return Err(format!("end for unopened span {}", e.span));
                }
                if ends.insert(e.span, e).is_some() {
                    return Err(format!("span {} ended twice", e.span));
                }
            }
            Phase::Instant => {
                if e.parent != NO_SPAN && !begins.contains_key(&e.parent) {
                    return Err(format!("instant under unknown parent {}", e.parent));
                }
            }
        }
    }
    for (span, b) in &begins {
        match ends.get(span) {
            None => return Err(format!("span {span} never closed")),
            Some(e) if e.t_ns < b.t_ns => {
                return Err(format!("span {span} ends before it begins"));
            }
            Some(_) => {}
        }
    }
    Ok(())
}
