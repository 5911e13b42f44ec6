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
//! of a younger job — a bypass. With `pops` counted since the last clear,
//! and `base` the first seq pushed since, the oldest queued seq `oldest`
//! has been bypassed exactly `pops − (oldest − base)` times. `push` and
//! `pop` are O(log n): one `BTreeMap` holds the entries in run order, a
//! second their keys in arrival order.

use std::cmp::Ordering;
use std::collections::BTreeMap;

/// The scheduling identity of a queued entry. Keys order as the queue
/// runs them: higher `priority` first, then the smaller `est_seconds`,
/// then the earlier `seq` (arrival).
#[derive(Debug, Clone, Copy)]
struct Key {
    seq: u64,
    priority: i32,
    est_seconds: f64,
}

impl Ord for Key {
    fn cmp(&self, other: &Self) -> Ordering {
        (other.priority.cmp(&self.priority))
            .then(self.est_seconds.total_cmp(&other.est_seconds))
            .then(self.seq.cmp(&other.seq))
    }
}

impl PartialOrd for Key {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl PartialEq for Key {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}

impl Eq for Key {}

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
    /// Pops since the last clear.
    pops: u64,
    /// Queued entries in run order.
    order: BTreeMap<Key, T>,
    /// The same entries' keys in arrival order.
    arrivals: BTreeMap<u64, Key>,
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

    /// Queued jobs.
    pub fn len(&self) -> usize {
        self.order.len()
    }

    /// Whether the queue is empty.
    pub fn is_empty(&self) -> bool {
        self.order.is_empty()
    }

    /// Drop every queued item (scheduler shutdown).
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
        let key = Key {
            seq,
            priority,
            est_seconds,
        };
        self.arrivals.insert(seq, key);
        self.order.insert(key, item);
        seq
    }

    /// The key the next pop takes: the oldest entry once it is aged (see
    /// the module docs for why its bypass count is this subtraction),
    /// otherwise the first in run order.
    fn next(&self) -> Option<Key> {
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
        let key = self.next()?;
        self.arrivals.remove(&key.seq);
        self.pops += 1;
        self.order.remove(&key)
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
    /// counter of each older one it passes.
    struct RefQueue {
        aging_threshold: u32,
        next_seq: u64,
        /// `(priority, est, item)` of every seq ever pushed.
        pushed: BTreeMap<u64, (i32, f64, u32)>,
        /// Queued seqs and their bypass counters.
        live: BTreeMap<u64, u32>,
    }

    impl RefQueue {
        fn new(aging_threshold: u32) -> Self {
            RefQueue {
                aging_threshold,
                next_seq: 0,
                pushed: BTreeMap::new(),
                live: BTreeMap::new(),
            }
        }

        fn push(&mut self, priority: i32, est: f64, item: u32) -> u64 {
            let seq = self.next_seq;
            self.next_seq += 1;
            self.pushed.insert(seq, (priority, est, item));
            self.live.insert(seq, 0);
            seq
        }

        fn pop(&mut self) -> Option<u32> {
            let aged = self.live.iter().find(|(_, &b)| b >= self.aging_threshold);
            let seq = aged.map(|(&seq, _)| seq).or_else(|| {
                self.live.keys().copied().min_by(|a, b| {
                    let ((pa, ea, _), (pb, eb, _)) = (self.pushed[a], self.pushed[b]);
                    (pb.cmp(&pa)).then(ea.total_cmp(&eb)).then(a.cmp(b))
                })
            })?;
            self.live.remove(&seq);
            for (_, bypassed) in self.live.range_mut(..seq) {
                *bypassed += 1;
            }
            Some(self.pushed[&seq].2)
        }
    }

    #[test]
    fn randomized_interleavings_match_the_reference_implementation() {
        // Seeded pseudorandom interleavings of push and pop with one
        // mid-run `clear`, at several aging thresholds: the queue must pop
        // the exact sequence of the walked-counter oracle.
        let mut rng = bwd_types::SplitMix64::new(0x9e3779b97f4a7c15);
        for threshold in [0u32, 1, 3, 17, u32::MAX] {
            let mut q = PolicyQueue::new(threshold);
            let mut r = RefQueue::new(threshold);
            let mut id = 0u32;
            for step in 0..1200 {
                if step == 600 {
                    q.clear();
                    r.live.clear();
                }
                if rng.next_u64() % 8 < 5 {
                    let prio = (rng.next_u64() % 4) as i32 - 1;
                    let est = (rng.next_u64() % 16) as f64 * 0.25;
                    assert_eq!(q.push(prio, est, id), r.push(prio, est, id));
                    id += 1;
                } else {
                    assert_eq!(q.pop(), r.pop(), "t={threshold} step {step}");
                }
                assert_eq!(q.len(), r.live.len(), "t={threshold} step {step}");
            }
            loop {
                let (a, b) = (q.pop(), r.pop());
                assert_eq!(a, b, "t={threshold}");
                if a.is_none() {
                    break;
                }
            }
        }
    }
}
