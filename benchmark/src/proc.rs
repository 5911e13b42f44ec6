//! Per-thread CPU time and peak memory, read from `/proc`.
//!
//! `NetClient::recv` spins on `yield_now()`, so whole-process CPU time
//! measures the load generator, not the server. The harness therefore
//! names its generator threads with [`GENERATOR_PREFIX`] and splits the
//! per-thread run time of `/proc/self/task/*/schedstat` into "generator"
//! and "everything else" (worker, reactor, idle main thread).
//!
//! When the per-thread files cannot be read the answer is `None` — never
//! a process-wide figure, which would silently put the spin back in.

use std::fs;
use std::path::Path;

/// Thread-name prefix of load-generator threads (`comm` keeps 15 bytes).
pub const GENERATOR_PREFIX: &str = "bench-gen";

/// Nanoseconds on-CPU so far, split by thread role.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CpuNs {
    /// Threads whose name starts with the excluded prefix.
    pub generator: u64,
    /// All other threads of the process.
    pub server: u64,
}

impl CpuNs {
    /// CPU spent between `earlier` and `self`.
    pub fn since(&self, earlier: &CpuNs) -> CpuNs {
        CpuNs {
            generator: self.generator.saturating_sub(earlier.generator),
            server: self.server.saturating_sub(earlier.server),
        }
    }
}

/// Sum the first `schedstat` field (run-ns) of every task under
/// `task_dir`, attributing tasks whose `comm` starts with `exclude` to
/// the generator. `None` when the directory or any live task's files
/// are unreadable or malformed; a task that exits mid-scan is skipped.
pub fn thread_cpu_in(task_dir: &Path, exclude: &str) -> Option<CpuNs> {
    let mut cpu = CpuNs::default();
    let mut seen = 0usize;
    for entry in fs::read_dir(task_dir).ok()? {
        let path = entry.ok()?.path();
        let (Ok(comm), Ok(stat)) = (
            fs::read_to_string(path.join("comm")),
            fs::read_to_string(path.join("schedstat")),
        ) else {
            if path.exists() {
                return None;
            }
            continue;
        };
        let run_ns: u64 = stat.split_whitespace().next()?.parse().ok()?;
        if comm.trim_end().starts_with(exclude) {
            cpu.generator += run_ns;
        } else {
            cpu.server += run_ns;
        }
        seen += 1;
    }
    (seen > 0).then_some(cpu)
}

/// [`thread_cpu_in`] over this process, excluding generator threads.
pub fn thread_cpu() -> Option<CpuNs> {
    thread_cpu_in(Path::new("/proc/self/task"), GENERATOR_PREFIX)
}

/// Peak resident set size of this process in MiB (`VmHWM`).
pub fn peak_rss_mib() -> Option<f64> {
    let status = fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::mpsc;

    fn fake_task(dir: &Path, tid: u32, comm: &str, schedstat: &str) {
        let t = dir.join(tid.to_string());
        fs::create_dir_all(&t).unwrap();
        fs::write(t.join("comm"), format!("{comm}\n")).unwrap();
        fs::write(t.join("schedstat"), schedstat).unwrap();
    }

    /// A scratch directory under the build's own target directory (tests
    /// may not write outside the checkout).
    fn scratch(name: &str) -> std::path::PathBuf {
        let exe = std::env::current_exe().unwrap();
        let dir = exe.parent().unwrap().join(format!("proc-test-{name}"));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn excludes_named_threads_and_sums_the_rest() {
        let dir = scratch("split");
        fake_task(&dir, 1, "benchmark", "1000 5 1\n");
        fake_task(&dir, 2, "bwd-net", "200 0 3\n");
        fake_task(&dir, 3, "bwd-sched-0", "30000 7 9\n");
        fake_task(&dir, 4, "bench-gen-0", "999999 1 1\n");
        fake_task(&dir, 5, "bench-gen-1", "1 1 1\n");
        let cpu = thread_cpu_in(&dir, GENERATOR_PREFIX).unwrap();
        assert_eq!(cpu.server, 31_200);
        assert_eq!(cpu.generator, 1_000_000);
        let later = CpuNs {
            generator: 1_000_500,
            server: 31_900,
        };
        assert_eq!(
            later.since(&cpu),
            CpuNs {
                generator: 500,
                server: 700
            }
        );
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn degrades_to_unavailable_never_to_process_wide() {
        assert_eq!(thread_cpu_in(Path::new("/nonexistent/task"), "x"), None);
        let dir = scratch("broken");
        assert_eq!(thread_cpu_in(&dir, "x"), None, "no tasks at all");
        fake_task(&dir, 1, "benchmark", "1000 5 1\n");
        fs::create_dir_all(dir.join("2")).unwrap();
        fs::write(dir.join("2").join("comm"), "bwd-net\n").unwrap();
        assert_eq!(thread_cpu_in(&dir, "x"), None, "task without schedstat");
        fs::write(dir.join("2").join("schedstat"), "garbage\n").unwrap();
        assert_eq!(thread_cpu_in(&dir, "x"), None, "malformed schedstat");
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn live_reader_attributes_a_spinning_generator_thread() {
        if thread_cpu().is_none() {
            eprintln!("per-thread schedstat unavailable here; skipping");
            return;
        }
        let before = thread_cpu().unwrap();
        let (tx, rx) = mpsc::channel();
        let spinner = std::thread::Builder::new()
            .name(format!("{GENERATOR_PREFIX}-t"))
            .spawn(move || {
                let start = std::time::Instant::now();
                let mut x = 0u64;
                while start.elapsed().as_millis() < 50 {
                    x = std::hint::black_box(x.wrapping_mul(31).wrapping_add(7));
                }
                // Read while this thread is still alive and counted.
                tx.send(thread_cpu().unwrap()).unwrap();
                x
            })
            .unwrap();
        let during = rx.recv().unwrap();
        spinner.join().unwrap();
        let spent = during.since(&before);
        assert!(
            spent.generator >= 20_000_000,
            "generator spin not attributed: {spent:?}"
        );
        assert!(peak_rss_mib().unwrap() > 0.0);
    }
}
