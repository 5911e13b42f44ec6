//! Event counters of the front door and the scheduler, read from their
//! Prometheus text and stats. All are expected to stay zero; sheds,
//! protocol errors and scheduler errors fail the run.

use waste_not::{NetServer, Scheduler};

/// Value of one counter in Prometheus text (0 when absent).
pub fn counter(text: &str, name: &str) -> u64 {
    text.lines()
        .find_map(|l| l.strip_prefix(name)?.trim().parse::<f64>().ok())
        .map_or(0, |v| v as u64)
}

/// Counters summed over the servers and schedulers a run used.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct Counts {
    /// `bwd_net_busy_shed_total`.
    pub busy_shed: u64,
    /// `bwd_net_read_pauses_total`.
    pub read_pauses: u64,
    /// `bwd_net_protocol_errors_total`.
    pub protocol_errors: u64,
    /// `bwd_sched_preemptions_total`.
    pub preemptions: u64,
    /// `bwd_sched_retries_total`.
    pub retries: u64,
    /// `SchedulerStats::errors`.
    pub sched_errors: u64,
    /// `SchedulerStats::admission_waits`.
    pub admission_waits: u64,
}

impl Counts {
    /// Add the counters of `sched`.
    pub fn add_scheduler(&mut self, sched: &Scheduler) {
        let text = sched.metrics_snapshot();
        let stats = sched.stats();
        self.preemptions += counter(&text, "bwd_sched_preemptions_total");
        self.retries += counter(&text, "bwd_sched_retries_total");
        self.sched_errors += stats.errors;
        self.admission_waits += stats.admission_waits;
    }

    /// Add the counters of `server` and of its scheduler.
    pub fn add_server(&mut self, server: &NetServer) {
        let text = server.metrics_text();
        self.busy_shed += counter(&text, "bwd_net_busy_shed_total");
        self.read_pauses += counter(&text, "bwd_net_read_pauses_total");
        self.protocol_errors += counter(&text, "bwd_net_protocol_errors_total");
        self.add_scheduler(server.scheduler());
    }

    /// The counters that make a run incorrect.
    pub fn failures(&self) -> u64 {
        self.busy_shed + self.protocol_errors + self.sched_errors
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_reads_prometheus_text() {
        let text = "bwd_net_busy_shed_total 3\nbwd_net_frames_total{dir=\"in\"} 7\n";
        assert_eq!(counter(text, "bwd_net_busy_shed_total"), 3);
        assert_eq!(counter(text, "bwd_net_frames_total{dir=\"in\"}"), 7);
        assert_eq!(counter(text, "bwd_net_absent_total"), 0);
    }
}
