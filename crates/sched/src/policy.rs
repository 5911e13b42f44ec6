//! The job queue: one order, with deterministic anti-starvation aging.
//!
//! A strictly FIFO queue lets one long classic scan at its head delay
//! every short A&R probe behind it — exactly the head-of-line blocking
//! the paper's mixed-stream experiments (Figure 11) argue a co-processing
//! system must avoid. [`PolicyQueue`] runs jobs in one order: the
//! caller's [`crate::SubmitOptions::priority`] (higher first), then the
//! cost model's latency estimate ([`crate::PlanFootprint::latency`],
//! smaller first), then arrival. Priorities are equal unless a caller
//! sets them, so by default this is shortest-job-first with arrival order
//! on ties, and equal-cost workloads drain in exact arrival order.
//!
//! # Aging, without a clock
//!
//! Any order but arrival order can starve: a stream of short probes would
//! keep a long scan queued forever. The classic fix is wall-clock aging,
//! but wall-clock thresholds make scheduling decisions untestable without
//! sleeps. This queue ages by **bypass count** instead: every time a job
//! is popped ahead of an older queued job, the older job has been
//! bypassed once more; once that count reaches the configured threshold
//! the job becomes *aged* and no younger job may overtake it again (aged
//! jobs drain in arrival order first). The starvation bound is therefore
//! exact and virtual-clock-friendly — a queued job runs after at most
//! `aging_threshold` pops of younger work, regardless of timing — and a
//! test can assert the whole decision sequence by driving [`PolicyQueue`]
//! directly, no threads or sleeps involved. `aging_threshold: 0` is
//! arrival order: nothing may ever be overtaken.
//!
//! # The aged check is arithmetic
//!
//! A pop that bypasses a queued job bypasses every older queued job too,
//! so bypass counts never increase along arrival order: the aged jobs are
//! a prefix of the queue in arrival order, and only the oldest queued job
//! needs checking. Its count needs no per-entry state. Every job that
//! arrived before it since the last [`PolicyQueue::clear`] has left the
//! queue, so each was popped exactly once, and every other pop since was
//! of a younger job — a bypass. With `pops` counted since the last clear
//! net of requeues, and `base` the first seq pushed since, the oldest
//! queued seq `oldest` has been bypassed exactly `pops − (oldest − base)`
//! times. `push` and `pop` are O(log n): one `BTreeMap` holds the entries
//! in run order, a second their keys in arrival order.
//!
//! # Requeue without losing age
//!
//! Preemption and admission underestimates both need to put a
//! popped-but-unrun job *back*. Re-pushing it as a fresh arrival would
//! reset its seq and bypass count — a long job could then be starved past
//! the `aging_threshold` guarantee forever. [`PolicyQueue::pop_if`] +
//! [`PolicyQueue::requeue`] instead treat the pop as provisional:
//! requeuing takes the pop back out of `pops` and restores the job under
//! its original seq, which leaves its own bypass count *and* every other
//! entry's exactly what they were had the pop never happened. (While the
//! pop is outstanding, other entries may observe a count one higher than
//! final — aging can only trigger *early*, so the starvation bound is
//! never exceeded.)

use std::cmp::Ordering;
use std::collections::BTreeMap;

/// The scheduling identity of a queued entry: what
/// [`PolicyQueue::pop_if`] offers its predicate and returns, and what
/// [`PolicyQueue::requeue`] takes to put the entry back.
///
/// Keys order as the queue runs them: higher `priority` first, then the
/// smaller `est_seconds`, then the earlier `seq`.
#[derive(Debug, Clone, Copy)]
pub struct PoppedKey {
    /// Arrival sequence number (monotone per queue) — preserved across a
    /// requeue, so the job keeps its place in the aging order.
    pub seq: u64,
    /// Caller-assigned priority the entry was pushed with.
    pub priority: i32,
    /// Latency estimate (simulated seconds) the entry was pushed with.
    pub est_seconds: f64,
}

impl Ord for PoppedKey {
    fn cmp(&self, other: &Self) -> Ordering {
        (other.priority.cmp(&self.priority))
            .then(self.est_seconds.total_cmp(&other.est_seconds))
            .then(self.seq.cmp(&other.seq))
    }
}

impl PartialOrd for PoppedKey {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl PartialEq for PoppedKey {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}

impl Eq for PoppedKey {}

/// The scheduler's job queue: priority, then estimate, then arrival, with
/// bypass-count aging.
///
/// Generic over the queued item so scheduling decisions can be unit- and
/// property-tested on plain labels; the scheduler instantiates it with its
/// `Job` type. Every operation is O(log queue length) (see the module
/// docs).
///
/// # Examples
///
/// ```
/// use bwd_sched::PolicyQueue;
///
/// let mut q = PolicyQueue::new(8);
/// q.push(0, 10.0, "long scan");
/// q.push(0, 0.1, "short probe");
/// assert_eq!(q.pop(), Some("short probe")); // jumps the long scan
/// assert_eq!(q.pop(), Some("long scan"));
/// ```
#[derive(Debug)]
pub struct PolicyQueue<T> {
    aging_threshold: u32,
    next_seq: u64,
    /// The first seq pushed since the last [`PolicyQueue::clear`].
    base_seq: u64,
    /// Pops since the last clear, net of requeues.
    pops: u64,
    /// Queued entries in run order.
    order: BTreeMap<PoppedKey, T>,
    /// The same entries' keys in arrival order.
    arrivals: BTreeMap<u64, PoppedKey>,
}

impl<T> PolicyQueue<T> {
    /// An empty queue.
    ///
    /// `aging_threshold` is the maximum number of times a queued job may
    /// be bypassed by younger work before it becomes un-overtakable; `0`
    /// forbids bypassing entirely (arrival order), `u32::MAX` effectively
    /// disables aging.
    pub fn new(aging_threshold: u32) -> Self {
        PolicyQueue {
            aging_threshold,
            next_seq: 0,
            base_seq: 0,
            pops: 0,
            order: BTreeMap::new(),
            arrivals: BTreeMap::new(),
        }
    }

    /// The aging threshold (maximum bypasses per queued job).
    pub fn aging_threshold(&self) -> u32 {
        self.aging_threshold
    }

    /// Queued jobs.
    pub fn len(&self) -> usize {
        self.order.len()
    }

    /// Whether the queue is empty.
    pub fn is_empty(&self) -> bool {
        self.order.is_empty()
    }

    /// Drop every queued item (scheduler shutdown). Outstanding
    /// provisional pops are forgotten too — `requeue` after `clear`
    /// re-enters the job as a fresh arrival.
    pub fn clear(&mut self) {
        self.order.clear();
        self.arrivals.clear();
        self.pops = 0;
        self.base_seq = self.next_seq;
    }

    /// Enqueue an item with its priority and latency estimate; returns the
    /// arrival sequence number.
    pub fn push(&mut self, priority: i32, est_seconds: f64, item: T) -> u64 {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.insert(
            PoppedKey {
                seq,
                priority,
                est_seconds,
            },
            item,
        );
        seq
    }

    fn insert(&mut self, key: PoppedKey, item: T) {
        self.arrivals.insert(key.seq, key);
        self.order.insert(key, item);
    }

    /// The key the next pop takes: the oldest entry once it is aged (see
    /// the module docs for why its bypass count is this subtraction),
    /// otherwise the first in run order.
    fn next(&self) -> Option<PoppedKey> {
        let (&oldest, &key) = self.arrivals.first_key_value()?;
        if self.pops - (oldest - self.base_seq) >= u64::from(self.aging_threshold) {
            return Some(key);
        }
        self.order.first_key_value().map(|(&key, _)| key)
    }

    /// Dequeue the next item: the oldest if it is aged (bypassed ≥
    /// threshold), otherwise the first in run order. Every older job the
    /// chosen one overtakes has been bypassed once more.
    pub fn pop(&mut self) -> Option<T> {
        self.pop_if(|_, _| true).map(|(_, item)| item)
    }

    /// Provisionally dequeue the next item, but only if `pred` accepts
    /// it; a rejected candidate stays queued, untouched.
    ///
    /// The candidate is the exact entry [`PolicyQueue::pop`] would take —
    /// in particular, if the next-in-line job is *aged*, no younger entry
    /// is offered in its place (aging's no-overtake guarantee applies to
    /// preemption pops too). An accepted pop counts as a bypass of every
    /// older entry just like a normal pop; [`PolicyQueue::requeue`] puts
    /// the item back as if it had never been popped.
    pub fn pop_if(&mut self, pred: impl FnOnce(&PoppedKey, &T) -> bool) -> Option<(PoppedKey, T)> {
        let key = self.next()?;
        if !pred(&key, self.order.get(&key)?) {
            return None;
        }
        self.arrivals.remove(&key.seq);
        self.pops += 1;
        Some((key, self.order.remove(&key)?))
    }

    /// Return a provisionally popped item to the queue as if the pop never
    /// happened: same seq, same bypass count — and every *other* entry's
    /// bypass count also reverts, because the pop leaves the count again.
    pub fn requeue(&mut self, key: PoppedKey, item: T) {
        if key.seq < self.base_seq {
            // The queue was cleared (shutdown/reset) while the pop was
            // outstanding; its seq predates the count. Re-enter as a
            // fresh arrival rather than corrupt the bookkeeping.
            self.push(key.priority, key.est_seconds, item);
            return;
        }
        self.pops -= 1;
        self.insert(key, item);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn drain<T>(q: &mut PolicyQueue<T>) -> Vec<T> {
        std::iter::from_fn(|| q.pop()).collect()
    }

    #[test]
    fn zero_threshold_is_arrival_order() {
        let mut q = PolicyQueue::new(0);
        q.push(0, 100.0, "a");
        q.push(9, 0.1, "b");
        q.push(-3, 1.0, "c");
        q.push(7, 0.1, "d");
        assert_eq!(drain(&mut q), vec!["a", "b", "c", "d"]);
    }

    #[test]
    fn equal_priorities_order_by_estimate_with_arrival_ties() {
        let mut q = PolicyQueue::new(64);
        q.push(0, 5.0, "long");
        q.push(0, 0.5, "s1");
        q.push(0, 0.5, "s2"); // same estimate: arrival order
        q.push(0, 0.1, "tiny");
        assert_eq!(drain(&mut q), vec!["tiny", "s1", "s2", "long"]);
    }

    #[test]
    fn equal_estimates_drain_in_exact_arrival_order() {
        let mut q = PolicyQueue::new(64);
        for i in 0..10 {
            q.push(0, 1.0, i);
        }
        assert_eq!(drain(&mut q), (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn priority_wins_then_estimate_then_arrival() {
        let mut q = PolicyQueue::new(64);
        q.push(0, 0.1, "low-short");
        q.push(5, 9.0, "hi-long");
        q.push(5, 1.0, "hi-short");
        q.push(5, 1.0, "hi-short-2");
        assert_eq!(
            drain(&mut q),
            vec!["hi-short", "hi-short-2", "hi-long", "low-short"]
        );
    }

    #[test]
    fn aging_caps_bypasses_exactly() {
        // Two shorts bypass the long (-1); the third pop must be the aged
        // long, then the remaining shorts drain.
        let mut q = PolicyQueue::new(2);
        q.push(0, 10.0, -1);
        for i in 0..5 {
            q.push(0, 0.1, i);
        }
        let order = drain(&mut q);
        assert_eq!(order, vec![0, 1, -1, 2, 3, 4]);
    }

    #[test]
    fn aged_jobs_drain_in_arrival_order() {
        let mut q = PolicyQueue::new(1);
        q.push(0, 9.0, "old-a");
        q.push(0, 8.0, "old-b");
        q.push(0, 0.1, "s");
        // "s" bypasses both; both become aged and drain oldest-first even
        // though old-b has the smaller estimate.
        assert_eq!(drain(&mut q), vec!["s", "old-a", "old-b"]);
    }

    #[test]
    fn a_drained_queue_counts_bypasses_from_zero_again() {
        let mut q = PolicyQueue::new(1);
        q.push(0, 10.0, "long");
        q.push(0, 0.1, "s");
        assert_eq!(drain(&mut q), vec!["s", "long"]);
        // Every earlier seq left the queue: the next long starts unaged,
        // one short may pass it, the second may not.
        q.push(0, 10.0, "long2");
        q.push(0, 0.1, "s2");
        q.push(0, 0.1, "s3");
        assert_eq!(drain(&mut q), vec!["s2", "long2", "s3"]);
    }

    #[test]
    fn clear_and_len_bookkeeping() {
        let mut q = PolicyQueue::new(4);
        assert!(q.is_empty());
        q.push(0, 1.0, 1);
        q.push(0, 1.0, 2);
        assert_eq!(q.len(), 2);
        q.clear();
        assert!(q.pop().is_none());
        assert_eq!(q.aging_threshold(), 4);
    }

    #[test]
    fn pop_if_rejection_leaves_queue_untouched() {
        let mut q = PolicyQueue::new(8);
        q.push(0, 10.0, "long");
        q.push(0, 0.1, "short");
        // The candidate offered is the first in run order ("short").
        assert!(q
            .pop_if(|k, item| {
                assert_eq!(*item, "short");
                assert_eq!(k.seq, 1);
                false
            })
            .is_none());
        assert_eq!(q.len(), 2);
        assert_eq!(drain(&mut q), vec!["short", "long"]);
    }

    #[test]
    fn pop_if_never_offers_past_an_aged_job() {
        // Once the long is aged, pop_if must offer the long (which the
        // predicate can reject) — never a younger short in its place.
        let mut q = PolicyQueue::new(1);
        q.push(0, 10.0, "long");
        q.push(0, 0.1, "s1");
        q.push(0, 0.1, "s2");
        assert_eq!(q.pop(), Some("s1")); // long now aged (1 bypass)
        assert!(q
            .pop_if(|_, item| {
                assert_eq!(*item, "long");
                false
            })
            .is_none());
        assert_eq!(drain(&mut q), vec!["long", "s2"]);
    }

    #[test]
    fn pop_if_requeue_round_trip_keeps_the_order() {
        // A provisional pop that gets requeued (nested admission
        // would-block) must leave the queue exactly as if the pop never
        // happened.
        let mut q = PolicyQueue::new(8);
        q.push(0, 10.0, "long");
        q.push(0, 0.3, "s-late");
        q.push(0, 0.1, "s-early");
        let (key, item) = q.pop_if(|k, _| k.est_seconds <= 1.0).unwrap();
        assert_eq!(item, "s-early"); // estimate order, not arrival order
        q.requeue(key, item);
        assert_eq!(drain(&mut q), vec!["s-early", "s-late", "long"]);
    }

    #[test]
    fn requeue_preserves_seq_and_bypass_count_exactly() {
        // Regression for the requeue/aging interaction: a provisionally
        // popped and requeued job must keep its original seq and bypass
        // count — the aging bound must hold across the requeue.
        let mut q = PolicyQueue::new(3);
        q.push(0, 10.0, "long");
        q.push(0, 0.1, "s1");
        q.push(0, 0.2, "s2");
        assert_eq!(q.pop(), Some("s1")); // long: 1 bypass
        assert_eq!(q.pop(), Some("s2")); // long: 2 bypasses
        let (key, item) = q.pop_if(|_, _| true).expect("long is alone");
        assert_eq!((item, key.seq), ("long", 0));
        q.requeue(key, item);
        // After the requeue the long still has exactly 2 bypasses: one
        // more short may overtake it (3rd bypass → aged), the next must
        // not. A fresh-arrival requeue would have reset the count to 0
        // and let 3 more shorts starve it past the bound.
        q.push(0, 0.1, "s3");
        q.push(0, 0.1, "s4");
        assert_eq!(q.pop(), Some("s3")); // 3rd bypass: exactly at threshold
        assert_eq!(q.pop(), Some("long")); // aged — s4 may not overtake
        assert_eq!(drain(&mut q), vec!["s4"]);
    }

    #[test]
    fn requeue_restores_other_entries_bypass_counts() {
        // The provisional pop of the *short* must not age the long by a
        // phantom bypass once the short is requeued.
        let mut q = PolicyQueue::new(1);
        q.push(0, 10.0, "long");
        q.push(0, 0.1, "short");
        let (key, item) = q.pop_if(|_, _| true).unwrap();
        assert_eq!(item, "short");
        q.requeue(key, item);
        // Had the pop stuck, the long would be aged (1 bypass ≥ 1) and
        // would drain first; the requeue undid it, so the estimate wins.
        assert_eq!(drain(&mut q), vec!["short", "long"]);
    }

    #[test]
    fn requeue_after_clear_reenters_as_fresh_arrival() {
        let mut q = PolicyQueue::new(0);
        q.push(0, 1.0, "a");
        let (key, item) = q.pop_if(|_, _| true).unwrap();
        q.clear();
        q.push(0, 1.0, "b");
        q.requeue(key, item);
        assert_eq!(drain(&mut q), vec!["b", "a"]);
    }

    #[test]
    fn mean_queued_scale_drain_stays_exact_fifo() {
        // Deep-queue smoke: a 50k-entry drain (an O(n²) walk would take
        // minutes) stays in exact arrival order.
        let mut q = PolicyQueue::new(32);
        for i in 0..50_000u64 {
            q.push(0, 1.0, i); // equal estimates → exact arrival order
        }
        let order = drain(&mut q);
        assert_eq!(order.len(), 50_000);
        assert!(order.iter().enumerate().all(|(i, &v)| v == i as u64));
    }

    /// A linear oracle: every pop walks the queued entries and bumps the
    /// counter of each older one it passes. A requeue deletes its pop from
    /// the history and replays the rest, so every counter reads what it
    /// would had the pop never happened.
    struct RefQueue {
        aging_threshold: u32,
        next_seq: u64,
        /// `(priority, est, item)` of every seq ever pushed.
        pushed: BTreeMap<u64, (i32, f64, u32)>,
        /// Pushes (`false`) and standing pops (`true`) since the last
        /// clear, in order.
        history: Vec<(u64, bool)>,
        /// Queued seqs and their bypass counters.
        live: BTreeMap<u64, u32>,
    }

    fn walk_pop(live: &mut BTreeMap<u64, u32>, seq: u64) {
        live.remove(&seq);
        for (_, bypassed) in live.range_mut(..seq) {
            *bypassed += 1;
        }
    }

    impl RefQueue {
        fn new(aging_threshold: u32) -> Self {
            RefQueue {
                aging_threshold,
                next_seq: 0,
                pushed: BTreeMap::new(),
                history: Vec::new(),
                live: BTreeMap::new(),
            }
        }

        fn push(&mut self, priority: i32, est: f64, item: u32) -> u64 {
            let seq = self.next_seq;
            self.next_seq += 1;
            self.pushed.insert(seq, (priority, est, item));
            self.history.push((seq, false));
            self.live.insert(seq, 0);
            seq
        }

        fn next(&self) -> Option<u64> {
            let aged = self.live.iter().find(|(_, &b)| b >= self.aging_threshold);
            aged.map(|(&seq, _)| seq).or_else(|| {
                self.live.keys().copied().min_by(|a, b| {
                    let ((pa, ea, _), (pb, eb, _)) = (self.pushed[a], self.pushed[b]);
                    (pb.cmp(&pa)).then(ea.total_cmp(&eb)).then(a.cmp(b))
                })
            })
        }

        fn pop_if(&mut self, pred: impl FnOnce(u32) -> bool) -> Option<(u64, u32)> {
            let seq = self.next()?;
            let item = self.pushed[&seq].2;
            if !pred(item) {
                return None;
            }
            self.history.push((seq, true));
            walk_pop(&mut self.live, seq);
            Some((seq, item))
        }

        fn requeue(&mut self, seq: u64) {
            let Some(i) = self.history.iter().position(|&e| e == (seq, true)) else {
                // Cleared since the pop: a fresh arrival.
                let (priority, est, item) = self.pushed[&seq];
                self.push(priority, est, item);
                return;
            };
            self.history.remove(i);
            self.live.clear();
            for &(seq, popped) in &self.history {
                if popped {
                    walk_pop(&mut self.live, seq);
                } else {
                    self.live.insert(seq, 0);
                }
            }
        }

        fn clear(&mut self) {
            self.history.clear();
            self.live.clear();
        }
    }

    #[test]
    fn randomized_interleavings_match_the_reference_implementation() {
        // Seeded pseudorandom interleavings of push, pop, accepted and
        // rejected `pop_if`, requeues of outstanding pops in random
        // order and one mid-run `clear`, at several aging thresholds: the
        // queue must offer and pop the exact sequence of the walked-
        // counter oracle.
        let mut rng = bwd_types::SplitMix64::new(0x9e3779b97f4a7c15);
        for threshold in [0u32, 1, 3, 17, u32::MAX] {
            let mut q = PolicyQueue::new(threshold);
            let mut r = RefQueue::new(threshold);
            let mut outstanding: Vec<(PoppedKey, u32)> = Vec::new();
            let mut id = 0u32;
            for step in 0..1200 {
                if step == 600 {
                    q.clear();
                    r.clear();
                }
                match rng.next_u64() % 8 {
                    0..=3 => {
                        let prio = (rng.next_u64() % 4) as i32 - 1;
                        let est = (rng.next_u64() % 16) as f64 * 0.25;
                        assert_eq!(q.push(prio, est, id), r.push(prio, est, id));
                        id += 1;
                    }
                    4 => {
                        let want = r.pop_if(|_| true).map(|(_, item)| item);
                        assert_eq!(q.pop(), want, "t={threshold} step {step}");
                    }
                    5 | 6 => {
                        let accept = rng.below(3) != 0;
                        let (mut offered, mut want_offered) = (None, None);
                        let got = q.pop_if(|_, &item| {
                            offered = Some(item);
                            accept
                        });
                        let want = r.pop_if(|item| {
                            want_offered = Some(item);
                            accept
                        });
                        assert_eq!(offered, want_offered, "t={threshold} step {step}");
                        assert_eq!(got.map(|(k, item)| (k.seq, item)), want);
                        // Half the accepted pops run to completion; the
                        // rest stay outstanding until a later requeue.
                        if let Some(popped) = got.filter(|_| rng.below(2) == 0) {
                            outstanding.push(popped);
                        }
                    }
                    _ if !outstanding.is_empty() => {
                        let i = rng.below(outstanding.len() as u64) as usize;
                        let (key, item) = outstanding.swap_remove(i);
                        q.requeue(key, item);
                        r.requeue(key.seq);
                    }
                    _ => {}
                }
                assert_eq!(q.len(), r.live.len(), "t={threshold} step {step}");
            }
            while !outstanding.is_empty() {
                let i = rng.below(outstanding.len() as u64) as usize;
                let (key, item) = outstanding.swap_remove(i);
                q.requeue(key, item);
                r.requeue(key.seq);
            }
            loop {
                let (a, b) = (q.pop(), r.pop_if(|_| true).map(|(_, item)| item));
                assert_eq!(a, b, "t={threshold}");
                if a.is_none() {
                    break;
                }
            }
        }
    }
}
