//! Open-loop request schedule with latency measured from the *due* time.
//!
//! Request `i` is due at `start + i * period` whatever happened to the
//! requests before it: sends never wait for responses (responses come
//! back in request order on the one connection). When the generator
//! itself runs late — descheduled, or stuck behind a slow write — the
//! send happens late, and because latency runs from the due time that
//! wait is charged to the request instead of vanishing (the
//! coordinated-omission correction). How late each send was is reported
//! beside it.

/// The connection and clock the schedule runs against (faked in tests).
pub trait Link {
    /// Nanoseconds since an arbitrary fixed origin.
    fn now_ns(&mut self) -> u64;
    /// Send request `i` without waiting for any response.
    fn send(&mut self, i: usize);
    /// Block until at least one response has arrived or the clock has
    /// reached `until_ns` (`None`: no time limit); returns how many
    /// responses arrived. A broken link reports everything still owed
    /// as arrived, so the schedule always terminates.
    fn wait(&mut self, until_ns: Option<u64>) -> usize;
}

/// One open-loop request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Sample {
    /// Response time minus due time.
    pub latency_ns: u64,
    /// Send time minus due time: how late the generator ran.
    pub lateness_ns: u64,
}

/// Send `n` requests, one every `period_ns`, and collect every response.
pub fn run(link: &mut impl Link, n: usize, period_ns: u64) -> Vec<Sample> {
    let start = link.now_ns();
    let due = |i: usize| start + i as u64 * period_ns;
    let mut samples: Vec<Sample> = Vec::with_capacity(n);
    let mut done = 0;
    while done < n {
        let sent = samples.len();
        let now = link.now_ns();
        if sent < n && now >= due(sent) {
            link.send(sent);
            samples.push(Sample {
                latency_ns: 0,
                lateness_ns: now - due(sent),
            });
            continue;
        }
        let arrived = link.wait((sent < n).then(|| due(sent)));
        let now = link.now_ns();
        for sample in samples.iter_mut().skip(done).take(arrived) {
            sample.latency_ns = now.saturating_sub(due(done));
            done += 1;
        }
    }
    samples
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::VecDeque;

    /// A one-at-a-time server: request `i` takes `service[i]` once the
    /// server is free. `blocked_send` makes `send(i)` itself take that
    /// long (a generator stall).
    struct FakeServer {
        now: u64,
        service: Vec<u64>,
        blocked_send: Option<(usize, u64)>,
        free_at: u64,
        completions: VecDeque<u64>,
    }

    impl Link for FakeServer {
        fn now_ns(&mut self) -> u64 {
            self.now
        }

        fn send(&mut self, i: usize) {
            if let Some((_, stall)) = self.blocked_send.filter(|&(at, _)| at == i) {
                self.now += stall;
            }
            self.free_at = self.free_at.max(self.now) + self.service[i];
            self.completions.push_back(self.free_at);
        }

        fn wait(&mut self, until_ns: Option<u64>) -> usize {
            let next = self.completions.front().copied();
            let wake = match (next, until_ns) {
                (Some(c), Some(u)) => c.min(u),
                (Some(c), None) => c,
                (None, Some(u)) => u,
                (None, None) => panic!("waiting forever for nothing"),
            };
            self.now = self.now.max(wake);
            let mut arrived = 0;
            while self.completions.front().is_some_and(|&c| c <= self.now) {
                self.completions.pop_front();
                arrived += 1;
            }
            arrived
        }
    }

    fn server(service: Vec<u64>, blocked_send: Option<(usize, u64)>) -> FakeServer {
        FakeServer {
            now: 1_000,
            service,
            blocked_send,
            free_at: 0,
            completions: VecDeque::new(),
        }
    }

    #[test]
    fn a_slow_response_delays_later_responses_but_not_later_sends() {
        // Period 10, service 2 each, except request 1 which takes 35.
        let mut link = server(vec![2, 35, 2, 2, 2, 2], None);
        let samples = run(&mut link, 6, 10);
        let lateness: Vec<u64> = samples.iter().map(|s| s.lateness_ns).collect();
        let latency: Vec<u64> = samples.iter().map(|s| s.latency_ns).collect();
        // due:  0  10  20  30  40  50   (relative to start)
        // done: 2  45  47  49  51  53   (server is busy until 45)
        assert_eq!(lateness, [0; 6], "open loop: sends keep their schedule");
        assert_eq!(latency, [2, 35, 27, 19, 11, 3]);
    }

    #[test]
    fn a_generator_stall_is_charged_from_the_due_time() {
        // The send of request 1 blocks for 35: requests 2..4 fall due
        // meanwhile, go out late in a burst, and pay for the wait.
        let mut link = server(vec![2; 6], Some((1, 35)));
        let samples = run(&mut link, 6, 10);
        let lateness: Vec<u64> = samples.iter().map(|s| s.lateness_ns).collect();
        let latency: Vec<u64> = samples.iter().map(|s| s.latency_ns).collect();
        // due:  0  10  20  30  40  50
        // sent: 0  10  45  45  45  50   (send 1 returns at 45)
        // done: 2  47  49  51  53  55
        assert_eq!(lateness, [0, 0, 25, 15, 5, 0]);
        assert_eq!(latency, [2, 37, 29, 21, 13, 5]);
    }
}
