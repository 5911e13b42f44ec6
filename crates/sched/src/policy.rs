//! Pluggable queue ordering with deterministic anti-starvation aging.
//!
//! The scheduler's central job queue was strictly FIFO through PR 3: one
//! long classic scan at the head delayed every short A&R probe behind it —
//! exactly the head-of-line blocking the paper's mixed-stream experiments
//! (Figure 11) argue a co-processing system must avoid. [`PolicyQueue`]
//! replaces the `VecDeque` with a policy-ordered queue:
//!
//! * [`QueuePolicy::Fifo`] — strict arrival order (the PR 1–3 behavior,
//!   kept as the regression baseline);
//! * [`QueuePolicy::ShortestJobFirst`] — order by the cost model's
//!   latency estimate ([`crate::PlanFootprint::latency`]), arrival order
//!   as the tie-break, so equal-cost workloads degrade to exact FIFO;
//! * [`QueuePolicy::Priority`] — order by the caller's
//!   [`crate::SubmitOptions::priority`] (higher first), then by latency
//!   estimate, then arrival.
//!
//! # Aging, without a clock
//!
//! Any non-FIFO order can starve: a stream of short probes would keep a
//! long scan queued forever. The classic fix is wall-clock aging, but
//! wall-clock thresholds make scheduling decisions untestable without
//! sleeps. This queue ages by **bypass count** instead: every time a job
//! is popped ahead of an older queued job, the older job's bypass counter
//! increments; once it reaches the configured threshold the job becomes
//! *aged* and no younger job may overtake it again (aged jobs drain in
//! arrival order first). The starvation bound is therefore exact and
//! virtual-clock-friendly — a queued job runs after at most
//! `aging_threshold` pops of younger work, regardless of timing — and a
//! test can assert the whole decision sequence by driving [`PolicyQueue`]
//! directly, no threads or sleeps involved.
//!
//! # Sub-linear pops
//!
//! Bypass counters are never stored per entry: an entry's count is
//! *derived* as `pops_total − pops_at_or_before(entry.seq)`, with pop
//! events recorded in a Fenwick tree indexed by arrival sequence. Because
//! a pop of seq `S` bypasses exactly the live entries older than `S`,
//! this derived count equals the walked-and-bumped counter of the old
//! O(n²) implementation — and bypass counts are monotone non-increasing
//! in `seq` among live entries, so the aged set is always a *prefix* of
//! the live entries in arrival order and the aging check only ever needs
//! to look at the single oldest live entry (`BTreeMap::first_key_value`).
//! The policy choice itself comes from a binary heap with lazy deletion.
//! `push`/`pop` are amortized O(log n); the exact decision sequence is
//! unchanged (pinned by the drain-order tests below and
//! `tests/priority_sched.rs`).
//!
//! # Requeue without losing age
//!
//! Preemption (PR 9) and admission underestimates (PR 3) both need to put
//! a popped-but-unrun job *back*. Re-pushing it as a fresh arrival would
//! reset its seq and bypass count — a long job could then be starved past
//! the `aging_threshold` guarantee forever. [`PolicyQueue::pop_if`] +
//! [`PolicyQueue::requeue`] instead treat the pop as provisional:
//! requeuing subtracts the pop event from the Fenwick tree again, which
//! restores the requeued job's own seq/bypass count *and* every other
//! entry's bypass count to exactly what they were had the pop never
//! happened. (While the pop is outstanding, other entries may observe a
//! count one higher than final — aging can only trigger *early*, so the
//! starvation bound is never exceeded.)

use std::cmp::{Ordering, Reverse};
use std::collections::{BTreeMap, BinaryHeap};

/// How the scheduler orders queued jobs.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum QueuePolicy {
    /// Strict arrival order. Aging never triggers (nothing is ever
    /// bypassed), so this reproduces the pre-policy scheduler exactly.
    Fifo,
    /// Smallest estimated latency first, arrival order on ties — the
    /// paper-motivated fix for short probes stuck behind bulk scans.
    /// This is the default.
    #[default]
    ShortestJobFirst,
    /// Highest [`crate::SubmitOptions::priority`] first; within a
    /// priority level, shortest estimated latency, then arrival order.
    Priority,
}

/// The scheduling identity of a provisionally popped entry, returned by
/// [`PolicyQueue::pop_if`] and required by [`PolicyQueue::requeue`] /
/// [`PolicyQueue::finish`] to resolve the pop.
#[derive(Debug, Clone, Copy)]
pub struct PoppedKey {
    /// Arrival sequence number (monotone per queue) — preserved across a
    /// requeue, so the job keeps its place in the aging order.
    pub seq: u64,
    /// Caller-assigned priority the entry was pushed with.
    pub priority: i32,
    /// Latency estimate (simulated seconds) the entry was pushed with.
    pub est_seconds: f64,
    /// How many younger jobs had been popped past this one at pop time.
    pub bypassed: u32,
}

/// One live entry's payload (its scheduling key lives in the map key and
/// the heap).
#[derive(Debug)]
struct Entry<T> {
    priority: i32,
    est_seconds: f64,
    item: T,
}

/// Heap key carrying the policy so `Ord` can rank "runs sooner" as
/// "smaller" (the heap stores `Reverse<HeapKey>`); `seq` is the final
/// tie-break under every policy, so keys are totally ordered.
#[derive(Debug, Clone, Copy)]
struct HeapKey {
    policy: QueuePolicy,
    priority: i32,
    est_seconds: f64,
    seq: u64,
}

impl Ord for HeapKey {
    fn cmp(&self, other: &Self) -> Ordering {
        match self.policy {
            QueuePolicy::Fifo => self.seq.cmp(&other.seq),
            QueuePolicy::ShortestJobFirst => self
                .est_seconds
                .total_cmp(&other.est_seconds)
                .then(self.seq.cmp(&other.seq)),
            QueuePolicy::Priority => other
                .priority
                .cmp(&self.priority)
                .then(self.est_seconds.total_cmp(&other.est_seconds))
                .then(self.seq.cmp(&other.seq)),
        }
    }
}

impl PartialOrd for HeapKey {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl PartialEq for HeapKey {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}

impl Eq for HeapKey {}

/// Fenwick (binary indexed) tree over pop events, indexed by
/// `seq − base_seq`. Supports point add/subtract and prefix sums in
/// O(log n); subtracting exactly undoes a prior add at the same index, so
/// node values never underflow.
#[derive(Debug, Default)]
struct PopTree {
    tree: Vec<u64>,
}

impl PopTree {
    fn clear(&mut self) {
        self.tree.clear();
    }

    /// Record `delta` pop events at index `i` (0-based).
    fn add(&mut self, i: usize, delta: u64) {
        let mut j = i + 1; // 1-based internal indexing
                           // Grow by doubling: each new power-of-two root covers [1, len]
                           // and must be seeded with the previous root's total, or earlier
                           // events would vanish from prefix sums spanning the new root.
        while self.tree.len() < j {
            let old = self.tree.len();
            let new = (old * 2).max(1);
            self.tree.resize(new, 0);
            if old > 0 {
                self.tree[new - 1] = self.tree[old - 1];
            }
        }
        while j <= self.tree.len() {
            self.tree[j - 1] += delta;
            j += j & j.wrapping_neg();
        }
    }

    /// Remove `delta` previously-added pop events at index `i`.
    fn sub(&mut self, i: usize, delta: u64) {
        let mut j = i + 1;
        while j <= self.tree.len() {
            self.tree[j - 1] -= delta;
            j += j & j.wrapping_neg();
        }
    }

    /// Pop events at indices `0..=i`.
    fn prefix(&self, i: usize) -> u64 {
        let mut j = (i + 1).min(self.tree.len());
        let mut sum = 0;
        while j > 0 {
            sum += self.tree[j - 1];
            j &= j - 1;
        }
        sum
    }
}

/// A policy-ordered job queue with bypass-count aging.
///
/// Generic over the queued item so scheduling decisions can be unit- and
/// property-tested on plain labels; the scheduler instantiates it with its
/// `Job` type. Pops are amortized O(log queue length) — a `BTreeMap` holds
/// live entries in arrival order (for the aging prefix check), a lazily
/// pruned binary heap holds the policy order, and a Fenwick tree over pop
/// events derives every bypass count on demand (see the module docs).
///
/// # Examples
///
/// ```
/// use bwd_sched::{PolicyQueue, QueuePolicy};
///
/// let mut q = PolicyQueue::new(QueuePolicy::ShortestJobFirst, 8);
/// q.push(0, 10.0, "long scan");
/// q.push(0, 0.1, "short probe");
/// assert_eq!(q.pop(), Some("short probe")); // jumps the long scan
/// assert_eq!(q.pop(), Some("long scan"));
/// ```
#[derive(Debug)]
pub struct PolicyQueue<T> {
    policy: QueuePolicy,
    aging_threshold: u32,
    next_seq: u64,
    /// Fenwick indices are `seq − base_seq`; rebased when the queue and
    /// all provisional pops drain, so the tree tracks the backlog, not
    /// the lifetime arrival count.
    base_seq: u64,
    pops: PopTree,
    pops_total: u64,
    /// Provisional pops ([`PolicyQueue::pop_if`]) not yet resolved by
    /// `requeue`/`finish`; rebasing would invalidate their seqs.
    leases: usize,
    live: BTreeMap<u64, Entry<T>>,
    heap: BinaryHeap<Reverse<HeapKey>>,
}

impl<T> PolicyQueue<T> {
    /// An empty queue ordering by `policy`.
    ///
    /// `aging_threshold` is the maximum number of times a queued job may
    /// be bypassed by younger work before it becomes un-overtakable; `0`
    /// forbids bypassing entirely (every policy then behaves like FIFO),
    /// `u32::MAX` effectively disables aging.
    pub fn new(policy: QueuePolicy, aging_threshold: u32) -> Self {
        PolicyQueue {
            policy,
            aging_threshold,
            next_seq: 0,
            base_seq: 0,
            pops: PopTree::default(),
            pops_total: 0,
            leases: 0,
            live: BTreeMap::new(),
            heap: BinaryHeap::new(),
        }
    }

    /// The ordering policy.
    pub fn policy(&self) -> QueuePolicy {
        self.policy
    }

    /// The aging threshold (maximum bypasses per queued job).
    pub fn aging_threshold(&self) -> u32 {
        self.aging_threshold
    }

    /// Queued jobs.
    pub fn len(&self) -> usize {
        self.live.len()
    }

    /// Whether the queue is empty.
    pub fn is_empty(&self) -> bool {
        self.live.is_empty()
    }

    /// Drop every queued item (scheduler shutdown). Outstanding
    /// provisional pops are forgotten too — `requeue` after `clear`
    /// re-enters the job as a fresh arrival.
    pub fn clear(&mut self) {
        self.live.clear();
        self.heap.clear();
        self.pops.clear();
        self.pops_total = 0;
        self.leases = 0;
        self.base_seq = self.next_seq;
    }

    /// Enqueue an item with its priority and latency estimate; returns the
    /// arrival sequence number.
    pub fn push(&mut self, priority: i32, est_seconds: f64, item: T) -> u64 {
        // Rebase the pop tree whenever the backlog fully drains (and no
        // provisional pop could still reference an old seq): history
        // before this point can no longer bypass anyone.
        if self.live.is_empty() && self.leases == 0 && self.pops_total > 0 {
            self.heap.clear(); // any residue is stale by construction
            self.pops.clear();
            self.pops_total = 0;
            self.base_seq = self.next_seq;
        }
        let seq = self.next_seq;
        self.next_seq += 1;
        self.live.insert(
            seq,
            Entry {
                priority,
                est_seconds,
                item,
            },
        );
        self.heap.push(Reverse(HeapKey {
            policy: self.policy,
            priority,
            est_seconds,
            seq,
        }));
        seq
    }

    /// Bypass count of the entry with arrival number `seq`: pops of
    /// younger entries recorded while it sat queued.
    fn bypassed(&self, seq: u64) -> u64 {
        self.pops_total - self.pops.prefix((seq - self.base_seq) as usize)
    }

    /// The seq the next pop would take, per policy + aging. Prunes stale
    /// heap keys (entries already popped) as a side effect.
    fn choose(&mut self) -> Option<u64> {
        let (&oldest, _) = self.live.first_key_value()?;
        // Aged jobs form a FIFO express lane: once a job has been
        // bypassed `aging_threshold` times, nothing younger may pass it.
        // Bypass counts are non-increasing in seq, so the aged set is a
        // prefix and only the oldest entry needs checking.
        if self.bypassed(oldest) >= u64::from(self.aging_threshold) {
            return Some(oldest);
        }
        while let Some(Reverse(top)) = self.heap.peek() {
            if self.live.contains_key(&top.seq) {
                return Some(top.seq);
            }
            self.heap.pop();
        }
        None
    }

    /// Remove `seq` from the live set and record the pop event.
    fn commit(&mut self, seq: u64) -> (PoppedKey, T) {
        let bypassed = self.bypassed(seq).min(u64::from(u32::MAX)) as u32;
        let entry = self.live.remove(&seq).expect("chosen seq is live");
        if self.heap.peek().is_some_and(|Reverse(k)| k.seq == seq) {
            self.heap.pop(); // eager prune when the pop took the heap top
        }
        self.pops.add((seq - self.base_seq) as usize, 1);
        self.pops_total += 1;
        (
            PoppedKey {
                seq,
                priority: entry.priority,
                est_seconds: entry.est_seconds,
                bypassed,
            },
            entry.item,
        )
    }

    /// Dequeue the next item under the policy + aging rules.
    ///
    /// Aged jobs (bypassed ≥ threshold) win unconditionally, oldest
    /// first; otherwise the policy chooses. Every older job the chosen
    /// one overtakes observes one more bypass.
    pub fn pop(&mut self) -> Option<T> {
        let seq = self.choose()?;
        Some(self.commit(seq).1)
    }

    /// Provisionally dequeue the next item, but only if `pred` accepts
    /// it; a rejected candidate stays queued, untouched.
    ///
    /// The candidate is the exact entry [`PolicyQueue::pop`] would take —
    /// in particular, if the next-in-line job is *aged*, no younger entry
    /// is offered in its place (aging's no-overtake guarantee applies to
    /// preemption pops too). An accepted pop counts in every other
    /// entry's bypass tally just like a normal pop, and **must** later be
    /// resolved exactly once: [`PolicyQueue::finish`] if the item ran, or
    /// [`PolicyQueue::requeue`] to put it back as if never popped.
    pub fn pop_if(&mut self, pred: impl FnOnce(&PoppedKey, &T) -> bool) -> Option<(PoppedKey, T)> {
        let seq = self.choose()?;
        let entry = self.live.get(&seq).expect("chosen seq is live");
        let key = PoppedKey {
            seq,
            priority: entry.priority,
            est_seconds: entry.est_seconds,
            bypassed: self.bypassed(seq).min(u64::from(u32::MAX)) as u32,
        };
        if !pred(&key, &entry.item) {
            return None;
        }
        let popped = self.commit(seq);
        self.leases += 1;
        Some(popped)
    }

    /// Like [`PolicyQueue::pop_if`], but scans *past* rejected candidates
    /// in policy order until `pred` accepts one, instead of testing only
    /// the head. This is the yield-hook dequeue: under FIFO the next-in-
    /// line job is usually another bulk scan the predicate rejects, and
    /// head-only testing would starve preemption of exactly the short
    /// work it exists to run.
    ///
    /// Aging still binds exactly: if the oldest entry is aged
    /// (bypassed ≥ threshold), it alone is offered — nothing younger may
    /// overtake it, so a scan never weakens the no-starvation bound. (The
    /// aged set is a seq prefix, and an accepted scan-pop records one
    /// bypass on every older entry via the same accounting as a normal
    /// pop, so a not-yet-aged oldest ends at most *at* the threshold.)
    /// Rejected candidates are left exactly as queued. Cost is
    /// O(scanned · log n); an accepted pop must be resolved with
    /// [`PolicyQueue::finish`] or [`PolicyQueue::requeue`] like any
    /// provisional pop.
    pub fn pop_if_scan(
        &mut self,
        mut pred: impl FnMut(&PoppedKey, &T) -> bool,
    ) -> Option<(PoppedKey, T)> {
        let (&oldest, _) = self.live.first_key_value()?;
        if self.bypassed(oldest) >= u64::from(self.aging_threshold) {
            // Aged express lane: the oldest goes next or nobody does.
            return self.pop_if(|k, item| pred(k, item));
        }
        let mut rejected: Vec<Reverse<HeapKey>> = Vec::new();
        let mut accepted = None;
        while let Some(Reverse(top)) = self.heap.pop() {
            let seq = top.seq;
            let Some(entry) = self.live.get(&seq) else {
                continue; // stale key of an already-popped entry: prune
            };
            let key = PoppedKey {
                seq,
                priority: entry.priority,
                est_seconds: entry.est_seconds,
                bypassed: self.bypassed(seq).min(u64::from(u32::MAX)) as u32,
            };
            if pred(&key, &entry.item) {
                accepted = Some(seq);
                break;
            }
            rejected.push(Reverse(top));
        }
        // Rejected candidates go back untouched (the accepted entry's
        // heap key was consumed above, matching `commit`'s eager prune).
        for k in rejected {
            self.heap.push(k);
        }
        let seq = accepted?;
        let popped = self.commit(seq);
        self.leases += 1;
        Some(popped)
    }

    /// Resolve a provisional pop whose item ran to completion.
    pub fn finish(&mut self, _key: PoppedKey) {
        self.leases = self.leases.saturating_sub(1);
    }

    /// Resolve a provisional pop by returning the item to the queue as if
    /// the pop never happened: same seq, same bypass count — and every
    /// *other* entry's bypass count also reverts, because the pop event
    /// is subtracted from the tree again.
    pub fn requeue(&mut self, key: PoppedKey, item: T) {
        self.leases = self.leases.saturating_sub(1);
        if key.seq < self.base_seq || key.seq >= self.next_seq {
            // The queue was cleared (shutdown/reset) while the pop was
            // outstanding; the seq no longer maps into the tree. Re-enter
            // as a fresh arrival rather than corrupt the bookkeeping.
            self.push(key.priority, key.est_seconds, item);
            return;
        }
        self.pops.sub((key.seq - self.base_seq) as usize, 1);
        self.pops_total -= 1;
        self.live.insert(
            key.seq,
            Entry {
                priority: key.priority,
                est_seconds: key.est_seconds,
                item,
            },
        );
        self.heap.push(Reverse(HeapKey {
            policy: self.policy,
            priority: key.priority,
            est_seconds: key.est_seconds,
            seq: key.seq,
        }));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn drain<T>(q: &mut PolicyQueue<T>) -> Vec<T> {
        std::iter::from_fn(|| q.pop()).collect()
    }

    #[test]
    fn fifo_ignores_estimates_and_priorities() {
        let mut q = PolicyQueue::new(QueuePolicy::Fifo, 4);
        q.push(0, 100.0, "a");
        q.push(9, 0.1, "b");
        q.push(-3, 1.0, "c");
        assert_eq!(drain(&mut q), vec!["a", "b", "c"]);
    }

    #[test]
    fn sjf_orders_by_estimate_with_fifo_ties() {
        let mut q = PolicyQueue::new(QueuePolicy::ShortestJobFirst, 64);
        q.push(0, 5.0, "long");
        q.push(0, 0.5, "s1");
        q.push(0, 0.5, "s2"); // same estimate: arrival order
        q.push(0, 0.1, "tiny");
        assert_eq!(drain(&mut q), vec!["tiny", "s1", "s2", "long"]);
    }

    #[test]
    fn equal_estimates_degrade_sjf_to_exact_fifo() {
        let mut q = PolicyQueue::new(QueuePolicy::ShortestJobFirst, 64);
        for i in 0..10 {
            q.push(0, 1.0, i);
        }
        assert_eq!(drain(&mut q), (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn priority_wins_then_sjf_then_fifo() {
        let mut q = PolicyQueue::new(QueuePolicy::Priority, 64);
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
        let mut q = PolicyQueue::new(QueuePolicy::ShortestJobFirst, 2);
        q.push(0, 10.0, -1);
        for i in 0..5 {
            q.push(0, 0.1, i);
        }
        let order = drain(&mut q);
        assert_eq!(order, vec![0, 1, -1, 2, 3, 4]);
    }

    #[test]
    fn zero_threshold_forces_fifo_under_every_policy() {
        for policy in [
            QueuePolicy::Fifo,
            QueuePolicy::ShortestJobFirst,
            QueuePolicy::Priority,
        ] {
            let mut q = PolicyQueue::new(policy, 0);
            q.push(0, 9.0, "first");
            q.push(7, 0.1, "second");
            assert_eq!(drain(&mut q), vec!["first", "second"], "{policy:?}");
        }
    }

    #[test]
    fn aged_jobs_drain_in_arrival_order() {
        let mut q = PolicyQueue::new(QueuePolicy::ShortestJobFirst, 1);
        q.push(0, 9.0, "old-a");
        q.push(0, 8.0, "old-b");
        q.push(0, 0.1, "s");
        // "s" bypasses both; both become aged and drain oldest-first even
        // though old-b has the smaller estimate.
        assert_eq!(drain(&mut q), vec!["s", "old-a", "old-b"]);
    }

    #[test]
    fn clear_and_len_bookkeeping() {
        let mut q = PolicyQueue::new(QueuePolicy::Fifo, 4);
        assert!(q.is_empty());
        q.push(0, 1.0, 1);
        q.push(0, 1.0, 2);
        assert_eq!(q.len(), 2);
        q.clear();
        assert!(q.pop().is_none());
        assert_eq!(q.aging_threshold(), 4);
        assert_eq!(q.policy(), QueuePolicy::Fifo);
    }

    #[test]
    fn pop_if_rejection_leaves_queue_untouched() {
        let mut q = PolicyQueue::new(QueuePolicy::ShortestJobFirst, 8);
        q.push(0, 10.0, "long");
        q.push(0, 0.1, "short");
        // The candidate offered is the SJF winner ("short"); reject it.
        assert!(q
            .pop_if(|k, item| {
                assert_eq!(*item, "short");
                assert_eq!(k.bypassed, 0);
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
        let mut q = PolicyQueue::new(QueuePolicy::ShortestJobFirst, 1);
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
    fn pop_if_scan_hosts_a_deep_short_past_an_ineligible_fifo_head() {
        // The yield-hook case head-only pop_if cannot serve: under FIFO
        // the head is another bulk scan; the eligible short sits behind
        // two of them and must still be found — in arrival order.
        let mut q = PolicyQueue::new(QueuePolicy::Fifo, 32);
        q.push(0, 10.0, "long1");
        q.push(0, 11.0, "long2");
        q.push(0, 0.1, "s1");
        q.push(0, 0.2, "s2");
        let (key, item) = q.pop_if_scan(|k, _| k.est_seconds <= 1.0).unwrap();
        assert_eq!(item, "s1");
        // The scan-pop bypassed both longs — counted like a normal pop.
        assert_eq!(key.bypassed, 0);
        q.finish(key);
        let (key, item) = q.pop_if_scan(|k, _| k.est_seconds <= 1.0).unwrap();
        assert_eq!(item, "s2");
        q.finish(key);
        // Nothing eligible left: rejected candidates stay exactly queued.
        assert!(q.pop_if_scan(|k, _| k.est_seconds <= 1.0).is_none());
        assert_eq!(drain(&mut q), vec!["long1", "long2"]);
    }

    #[test]
    fn pop_if_scan_never_offers_past_an_aged_job() {
        // Aging's no-overtake bound applies to scanning pops too: once
        // the long is aged, the scan offers it alone — rejecting it
        // yields None even though eligible shorts sit behind it.
        let mut q = PolicyQueue::new(QueuePolicy::Fifo, 1);
        q.push(0, 10.0, "long");
        q.push(0, 0.1, "s1");
        q.push(0, 0.1, "s2");
        // First scan-pop takes s1 (long not yet aged) → long: 1 bypass.
        let (key, item) = q.pop_if_scan(|k, _| k.est_seconds <= 1.0).unwrap();
        assert_eq!(item, "s1");
        q.finish(key);
        assert!(q.pop_if_scan(|k, _| k.est_seconds <= 1.0).is_none());
        assert_eq!(drain(&mut q), vec!["long", "s2"]);
    }

    #[test]
    fn pop_if_scan_requeue_round_trip_keeps_policy_order() {
        // A scanned pop that gets requeued (nested admission would-block)
        // must leave the queue exactly as if the pop never happened.
        let mut q = PolicyQueue::new(QueuePolicy::ShortestJobFirst, 8);
        q.push(0, 10.0, "long");
        q.push(0, 0.3, "s-late");
        q.push(0, 0.1, "s-early");
        let (key, item) = q.pop_if_scan(|k, _| k.est_seconds <= 1.0).unwrap();
        assert_eq!(item, "s-early"); // SJF order, not arrival order
        q.requeue(key, item);
        assert_eq!(drain(&mut q), vec!["s-early", "s-late", "long"]);
    }

    #[test]
    fn requeue_preserves_seq_and_bypass_count_exactly() {
        // Regression for the requeue/aging interaction: a provisionally
        // popped and requeued job must keep its original seq and bypass
        // count — the aging bound must hold across the requeue.
        let mut q = PolicyQueue::new(QueuePolicy::ShortestJobFirst, 3);
        q.push(0, 10.0, "long");
        q.push(0, 0.1, "s1");
        q.push(0, 0.2, "s2");
        assert_eq!(q.pop(), Some("s1")); // long: 1 bypass
        assert_eq!(q.pop(), Some("s2")); // long: 2 bypasses
        let (key, item) = q.pop_if(|_, _| true).expect("long is alone");
        assert_eq!(item, "long");
        assert_eq!(key.bypassed, 2);
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
        let mut q = PolicyQueue::new(QueuePolicy::ShortestJobFirst, 1);
        q.push(0, 10.0, "long");
        q.push(0, 0.1, "short");
        let (key, item) = q.pop_if(|_, _| true).unwrap();
        assert_eq!(item, "short");
        q.requeue(key, item);
        // Had the pop stuck, the long would be aged (1 bypass ≥ 1) and
        // would drain first; the requeue undid it, so SJF still wins.
        assert_eq!(drain(&mut q), vec!["short", "long"]);
    }

    #[test]
    fn requeue_after_clear_reenters_as_fresh_arrival() {
        let mut q = PolicyQueue::new(QueuePolicy::Fifo, 4);
        q.push(0, 1.0, "a");
        let (key, item) = q.pop_if(|_, _| true).unwrap();
        q.clear();
        q.push(0, 1.0, "b");
        q.requeue(key, item);
        assert_eq!(drain(&mut q), vec!["b", "a"]);
    }

    #[test]
    fn mean_queued_scale_drain_stays_exact_fifo() {
        // Deep-queue smoke: a 50k-entry drain (the old implementation's
        // O(n²) walk made this take minutes) stays in exact policy order.
        let mut q = PolicyQueue::new(QueuePolicy::ShortestJobFirst, 32);
        for i in 0..50_000u64 {
            q.push(0, 1.0, i); // equal estimates → exact FIFO
        }
        let order = drain(&mut q);
        assert_eq!(order.len(), 50_000);
        assert!(order.iter().enumerate().all(|(i, &v)| v == i as u64));
    }

    /// The PR 4 implementation, kept verbatim as a semantic oracle: pops
    /// scan every entry and bump walked bypass counters.
    struct RefQueue<T> {
        policy: QueuePolicy,
        aging_threshold: u32,
        next_seq: u64,
        entries: Vec<(u64, i32, f64, u32, T)>, // seq, prio, est, bypassed
    }

    impl<T> RefQueue<T> {
        fn push(&mut self, priority: i32, est_seconds: f64, item: T) {
            let seq = self.next_seq;
            self.next_seq += 1;
            self.entries.push((seq, priority, est_seconds, 0, item));
        }

        fn pop(&mut self) -> Option<T> {
            if self.entries.is_empty() {
                return None;
            }
            let idx = if let Some((i, _)) = self
                .entries
                .iter()
                .enumerate()
                .filter(|(_, e)| e.3 >= self.aging_threshold)
                .min_by_key(|(_, e)| e.0)
            {
                i
            } else {
                self.entries
                    .iter()
                    .enumerate()
                    .min_by(|(_, a), (_, b)| match self.policy {
                        QueuePolicy::Fifo => a.0.cmp(&b.0),
                        QueuePolicy::ShortestJobFirst => a.2.total_cmp(&b.2).then(a.0.cmp(&b.0)),
                        QueuePolicy::Priority => {
                            b.1.cmp(&a.1).then(a.2.total_cmp(&b.2)).then(a.0.cmp(&b.0))
                        }
                    })
                    .map(|(i, _)| i)?
            };
            let seq = self.entries[idx].0;
            for e in &mut self.entries {
                if e.0 < seq {
                    e.3 += 1;
                }
            }
            Some(self.entries.remove(idx).4)
        }
    }

    #[test]
    fn randomized_interleavings_match_the_reference_implementation() {
        // Seeded pseudorandom push/pop interleavings across every policy
        // and several aging thresholds: the rewritten queue must produce
        // the byte-for-byte pop sequence of the old O(n²) oracle.
        let mut rng = bwd_types::SplitMix64::new(0x9e3779b97f4a7c15);
        for policy in [
            QueuePolicy::Fifo,
            QueuePolicy::ShortestJobFirst,
            QueuePolicy::Priority,
        ] {
            for threshold in [0u32, 1, 3, 17, u32::MAX] {
                let mut q = PolicyQueue::new(policy, threshold);
                let mut r = RefQueue {
                    policy,
                    aging_threshold: threshold,
                    next_seq: 0,
                    entries: Vec::new(),
                };
                let mut id = 0u32;
                for _ in 0..600 {
                    if rng.next_u64() % 5 < 3 {
                        let prio = (rng.next_u64() % 4) as i32 - 1;
                        let est = (rng.next_u64() % 16) as f64 * 0.25;
                        q.push(prio, est, id);
                        r.push(prio, est, id);
                        id += 1;
                    } else {
                        assert_eq!(q.pop(), r.pop(), "{policy:?} t={threshold}");
                    }
                }
                loop {
                    let (a, b) = (q.pop(), r.pop());
                    assert_eq!(a, b, "{policy:?} t={threshold}");
                    if a.is_none() {
                        break;
                    }
                }
            }
        }
    }
}
