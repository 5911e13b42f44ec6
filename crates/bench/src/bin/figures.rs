//! Regenerate the paper's evaluation figures.
//!
//! ```text
//! figures [ids...] [--scale-micro N] [--scale-spatial N] [--sf X]
//!         [--full] [--csv DIR]
//!
//!   ids: all (default) | fig1 | fig8a | fig8b | fig8c | fig8d | fig8e
//!        | fig8f | fig9 | tab1 | fig10a | fig10b | fig10c | fig11
//!        | bench-arexec | bench-multidev | bench-sjf | bench-scan
//!        | trace | fault-soak
//! ```
//!
//! `bench-arexec` measures the morsel-parallel A&R pipeline's *wall
//! clock* (not simulated time) on a 1M-row micro table (override with
//! `--scale-micro`) and writes the `BENCH_arexec.json` baseline into the
//! current directory. `bench-multidev` runs the same A&R batch on a
//! 1-card and a 2-card platform and compares device-stream makespan,
//! admission queueing and placement spread (bit-identity enforced).
//! `bench-sjf` drains the identical seeded short/long mix under each
//! queue policy and fails unless shortest-job-first strictly beats FIFO
//! on short-query waits with bit-identical answers and no starved long
//! scan. `bench-scan` sweeps the selection kernel over width ×
//! selectivity (index and bitmap output vs a naive `get()` oracle),
//! writes the `BENCH_scan.json` baseline and fails on any bit-identity
//! violation or a collapse of the production-over-oracle ratio against
//! the committed baseline at the same scale.
//! `trace` runs a seeded scheduler batch with query-lifecycle tracing
//! on, validates every trace, writes the Chrome `trace_event` export to
//! `TRACE_workload.json` and prints one query's EXPLAIN ANALYZE tree.
//! `fault-soak` is the chaos smoke: a seeded allocation-fault burst on
//! one card of a two-card pool must produce offline → failover →
//! recovery with zero lost tickets, bit-identical results, and a
//! transcript that replays exactly from the same seed.
//! None of the six is part of `all`.
//!
//! Defaults are laptop-friendly scales; `--full` switches to the paper's
//! scales (100 M microbenchmark tuples, 250 M GPS fixes, TPC-H SF-10 —
//! needs several GB of RAM and minutes of runtime).

use bwd_bench::evaluation::{self, MacroScale};
use bwd_bench::micro;
use bwd_bench::report::Figure;
use bwd_device::Env;
use std::path::PathBuf;
use std::process::ExitCode;

struct Args {
    ids: Vec<String>,
    micro_n: usize,
    micro_explicit: bool,
    scale: MacroScale,
    csv: Option<PathBuf>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        ids: Vec::new(),
        micro_n: 4_000_000,
        micro_explicit: false,
        scale: MacroScale::default(),
        csv: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        match a.as_str() {
            "--full" => {
                args.micro_n = 100_000_000;
                args.scale = MacroScale::full();
            }
            "--scale-micro" => {
                args.micro_n = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .ok_or("--scale-micro expects a number")?;
                args.micro_explicit = true;
            }
            "--scale-spatial" => {
                args.scale.spatial_fixes = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .ok_or("--scale-spatial expects a number")?;
            }
            "--sf" => {
                args.scale.tpch_sf = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .ok_or("--sf expects a number")?;
            }
            "--csv" => {
                args.csv = Some(PathBuf::from(it.next().ok_or("--csv expects a path")?));
            }
            "--help" | "-h" => {
                return Err("see module docs: figures [ids...] [--full] [--csv DIR] ...".into())
            }
            id if !id.starts_with('-') => args.ids.push(id.to_string()),
            other => return Err(format!("unknown flag {other}")),
        }
    }
    if args.ids.is_empty() || args.ids.iter().any(|i| i == "all") {
        args.ids = [
            "fig1", "fig8a", "fig8b", "fig8c", "fig8d", "fig8e", "fig8f", "tab1", "fig9", "fig10a",
            "fig10b", "fig10c", "fig11",
        ]
        .iter()
        .map(|s| s.to_string())
        .collect();
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::FAILURE;
        }
    };
    let env = Env::paper_default();
    let mut fig10_cache: Option<Vec<Figure>> = None;

    for id in &args.ids {
        let result: Result<Vec<Figure>, String> = match id.as_str() {
            "fig1" => Ok(vec![evaluation::fig1()]),
            "fig8a" => Ok(vec![micro::fig8_selection(&env, args.micro_n, 32, "fig8a")]),
            "fig8b" => Ok(vec![micro::fig8_selection(&env, args.micro_n, 24, "fig8b")]),
            "fig8c" => Ok(vec![micro::fig8c_bits_sweep(&env, args.micro_n)]),
            "fig8d" => Ok(vec![micro::fig8_projection(
                &env,
                args.micro_n,
                32,
                "fig8d",
            )]),
            "fig8e" => Ok(vec![micro::fig8_projection(
                &env,
                args.micro_n,
                24,
                "fig8e",
            )]),
            "fig8f" => Ok(vec![micro::fig8f_grouping(&env, args.micro_n)]),
            "tab1" => tab1(args.scale.spatial_fixes).map(|f| vec![f]),
            "fig9" => evaluation::fig9_spatial(args.scale.spatial_fixes)
                .map(|f| vec![f])
                .map_err(|e| e.to_string()),
            "fig10a" | "fig10b" | "fig10c" => {
                if fig10_cache.is_none() {
                    let figs = evaluation::fig10(args.scale.tpch_sf).map_err(|e| e.to_string());
                    fig10_cache = Some(match figs.and_then(check_fig10_shape) {
                        Ok(f) => f,
                        Err(e) => {
                            eprintln!("fig10: {e}");
                            return ExitCode::FAILURE;
                        }
                    });
                }
                let idx = match id.as_str() {
                    "fig10a" => 0,
                    "fig10b" => 1,
                    _ => 2,
                };
                Ok(vec![fig10_cache.as_ref().unwrap()[idx].clone()])
            }
            "fig11" => evaluation::fig11(args.scale.tpch_sf)
                .map(|f| vec![f])
                .map_err(|e| e.to_string()),
            "bench-arexec" => {
                // Wall-clock baseline: defaults to the 1M-row workload the
                // committed BENCH_arexec.json records.
                let n = if args.micro_explicit {
                    args.micro_n
                } else {
                    1 << 20
                };
                match bwd_bench::arexec::measure(n, 3) {
                    Ok(report) => {
                        let path = std::path::Path::new("BENCH_arexec.json");
                        if let Err(e) = check_arexec_baseline(path, &report) {
                            eprintln!("bench-arexec: {e}");
                            return ExitCode::FAILURE;
                        }
                        match bwd_bench::arexec::write_json(&report, path) {
                            Ok(()) => eprintln!("wrote {}", path.display()),
                            Err(e) => eprintln!("could not write {}: {e}", path.display()),
                        }
                        if !report.bit_identical {
                            eprintln!("bench-arexec: morsel runs were NOT bit-identical");
                            return ExitCode::FAILURE;
                        }
                        if !report.traced_identical {
                            eprintln!("bench-arexec: tracing changed results or simulated costs");
                            return ExitCode::FAILURE;
                        }
                        Ok(vec![bwd_bench::arexec::figure(&report)])
                    }
                    Err(e) => Err(e.to_string()),
                }
            }
            "trace" => match bwd_bench::trace::measure(6, 2, Default::default()) {
                Ok(report) => {
                    let path = std::path::Path::new("TRACE_workload.json");
                    match bwd_bench::trace::write_json(&report, path) {
                        Ok(()) => eprintln!("wrote {}", path.display()),
                        Err(e) => eprintln!("could not write {}: {e}", path.display()),
                    }
                    match bwd_bench::trace::check(&report) {
                        Ok(()) => {
                            println!("{}", report.explain);
                            Ok(vec![bwd_bench::trace::figure(&report)])
                        }
                        Err(e) => {
                            println!("{}", bwd_bench::trace::figure(&report).render());
                            Err(e.to_string())
                        }
                    }
                }
                Err(e) => Err(e.to_string()),
            },
            "bench-scan" => {
                // Selection-kernel sweep: defaults to the 4M-row
                // workload the committed BENCH_scan.json records.
                let n = if args.micro_explicit {
                    args.micro_n
                } else {
                    1 << 22
                };
                match bwd_bench::scan::measure(n, 3) {
                    Ok(report) => {
                        let path = std::path::Path::new("BENCH_scan.json");
                        if let Err(e) = check_scan_baseline(path, &report) {
                            eprintln!("bench-scan: {e}");
                            return ExitCode::FAILURE;
                        }
                        match bwd_bench::scan::write_json(&report, path) {
                            Ok(()) => eprintln!("wrote {}", path.display()),
                            Err(e) => eprintln!("could not write {}: {e}", path.display()),
                        }
                        match bwd_bench::scan::check(&report) {
                            Ok(()) => Ok(vec![bwd_bench::scan::figure(&report)]),
                            Err(e) => {
                                println!("{}", bwd_bench::scan::figure(&report).render());
                                Err(e.to_string())
                            }
                        }
                    }
                    Err(e) => Err(e.to_string()),
                }
            }
            "bench-sjf" => {
                let n = if args.micro_explicit {
                    args.micro_n
                } else {
                    400_000
                };
                match bwd_bench::sjf::measure(n, 16, 4) {
                    Ok(report) => match bwd_bench::sjf::check(&report) {
                        Ok(()) => Ok(vec![bwd_bench::sjf::figure(&report)]),
                        Err(e) => {
                            println!("{}", bwd_bench::sjf::figure(&report).render());
                            Err(e.to_string())
                        }
                    },
                    Err(e) => Err(e.to_string()),
                }
            }
            "bench-multidev" => {
                let n = if args.micro_explicit {
                    args.micro_n
                } else {
                    200_000
                };
                match bwd_bench::multidev::measure(n, 16) {
                    Ok(report) => {
                        if !report.bit_identical {
                            eprintln!("bench-multidev: scheduled runs were NOT bit-identical");
                            return ExitCode::FAILURE;
                        }
                        Ok(vec![bwd_bench::multidev::figure(&report)])
                    }
                    Err(e) => Err(e.to_string()),
                }
            }
            "fault-soak" => match bwd_bench::chaos::measure(0xFA417, 24) {
                Ok(report) => match bwd_bench::chaos::check(&report) {
                    Ok(()) => Ok(vec![bwd_bench::chaos::figure(&report)]),
                    Err(e) => {
                        println!("{}", bwd_bench::chaos::figure(&report).render());
                        Err(e.to_string())
                    }
                },
                Err(e) => Err(e.to_string()),
            },
            other => Err(format!("unknown figure id {other}")),
        };
        match result {
            Ok(figs) => {
                for f in figs {
                    println!("{}", f.render());
                    if let Some(dir) = &args.csv {
                        if let Err(e) = f.write_csv(dir) {
                            eprintln!("csv write failed: {e}");
                        }
                    }
                }
            }
            Err(e) => {
                eprintln!("{id}: {e}");
                return ExitCode::FAILURE;
            }
        }
    }
    ExitCode::SUCCESS
}

/// The shape Fig 10 reports and every executor change must keep: on each
/// query, A&R beats the classic pipe even in the space-constrained
/// (24/8 `l_shipdate`) configuration.
fn check_fig10_shape(figs: Vec<Figure>) -> Result<Vec<Figure>, String> {
    for f in &figs {
        let (space, classic) = (f.rows[1].1[3], f.rows[2].1[3]);
        if space >= classic {
            return Err(format!(
                "{}: space-constrained A&R {space} s does not beat classic {classic} s",
                f.id
            ));
        }
    }
    Ok(figs)
}

/// Zero-overhead guard: compare the fresh sweep — which runs with the
/// recorder *disabled*, the default — against the committed
/// `BENCH_arexec.json`, when one exists for the same workload size
/// (CI's scaled-down smoke never matches the committed 1M-row
/// baseline, so this never flakes across machines). Wall clock on a
/// shared machine is noisy, so only a systemic regression — every
/// morsel count slower than the baseline beyond the noise factor —
/// fails; per-count deltas are always printed.
fn check_arexec_baseline(
    path: &std::path::Path,
    report: &bwd_bench::arexec::ArexecReport,
) -> Result<(), String> {
    const NOISE_FACTOR: f64 = 2.0;
    let Ok(old) = std::fs::read_to_string(path) else {
        return Ok(());
    };
    let Ok(doc) = bwd_obs::json::parse(&old) else {
        eprintln!(
            "existing {} is not valid JSON; skipping baseline comparison",
            path.display()
        );
        return Ok(());
    };
    if doc.get("rows").and_then(|v| v.as_num()) != Some(report.rows as f64) {
        return Ok(());
    }
    let Some(samples) = doc.get("samples").and_then(|v| v.as_arr()) else {
        return Ok(());
    };
    let mut compared = 0;
    let mut regressed = 0;
    for s in samples {
        let (Some(m), Some(base)) = (
            s.get("morsels").and_then(|v| v.as_num()),
            s.get("best_seconds").and_then(|v| v.as_num()),
        ) else {
            continue;
        };
        if let Some(cur) = report.samples.iter().find(|c| c.morsels == m as usize) {
            let ratio = cur.best_seconds / base.max(1e-12);
            eprintln!(
                "bench-arexec: {} morsels best {:.6}s vs baseline {:.6}s ({ratio:.2}x)",
                cur.morsels, cur.best_seconds, base
            );
            compared += 1;
            if ratio > NOISE_FACTOR {
                regressed += 1;
            }
        }
    }
    if compared > 0 && regressed == compared {
        return Err(format!(
            "disabled-recorder sweep regressed beyond {NOISE_FACTOR}x on every morsel count"
        ));
    }
    Ok(())
}

/// Mirror of [`check_arexec_baseline`] for the selection-kernel sweep:
/// when the committed `BENCH_scan.json` records the same workload size,
/// fail if the fresh production-over-oracle headline
/// (`best_speedup_over_oracle_w16`) has collapsed beyond the noise factor
/// against the committed one. The ratio of two wall-clock paths on the
/// *same* run is far steadier than raw seconds, but a shared machine
/// still jitters — only a > 2x collapse fails; the delta is always
/// printed.
fn check_scan_baseline(
    path: &std::path::Path,
    report: &bwd_bench::scan::ScanReport,
) -> Result<(), String> {
    const NOISE_FACTOR: f64 = 2.0;
    let Ok(old) = std::fs::read_to_string(path) else {
        return Ok(());
    };
    let Ok(doc) = bwd_obs::json::parse(&old) else {
        eprintln!(
            "existing {} is not valid JSON; skipping baseline comparison",
            path.display()
        );
        return Ok(());
    };
    if doc.get("rows").and_then(|v| v.as_num()) != Some(report.rows as f64) {
        return Ok(());
    }
    let Some(base) = doc
        .get("best_speedup_over_oracle_w16")
        .and_then(|v| v.as_num())
    else {
        return Ok(());
    };
    let fresh = report.best_speedup_at_most(16);
    eprintln!(
        "bench-scan: best speedup over the oracle (w<=16) {fresh:.2}x vs committed baseline {base:.2}x"
    );
    if fresh < base / NOISE_FACTOR {
        return Err(format!(
            "production-over-oracle speedup collapsed beyond {NOISE_FACTOR}x against the committed \
             baseline ({fresh:.2}x vs {base:.2}x)"
        ));
    }
    Ok(())
}

/// Table I: the spatial benchmark definition, executed verbatim (schema,
/// decomposition statements, query) through the SQL layer in both modes.
fn tab1(fixes: usize) -> Result<Figure, String> {
    use bwd_engine::ExecMode;
    let mut db = evaluation::spatial_db(fixes).map_err(|e| e.to_string())?;
    db.bwdecompose("trips", "lon", 24)
        .map_err(|e| e.to_string())?;
    db.bwdecompose("trips", "lat", 24)
        .map_err(|e| e.to_string())?;
    let classic = evaluation::run_sql(&mut db, evaluation::SPATIAL_QUERY, ExecMode::Classic)
        .map_err(|e| e.to_string())?;
    let ar = evaluation::run_sql(&mut db, evaluation::SPATIAL_QUERY, ExecMode::ApproxRefine)
        .map_err(|e| e.to_string())?;
    if ar.rows != classic.rows {
        return Err("A&R and classic disagree on Table I query".into());
    }
    let mut fig = Figure::new(
        "tab1",
        format!("Table I: the spatial range query benchmark ({fixes} fixes)"),
        "statement",
        vec!["seconds"],
    );
    fig.push(
        "create table trips(tripid int, lon decimal(8,5), lat decimal(7,5), time int)",
        vec![f64::NAN],
    );
    fig.push(
        "select bwdecompose(lon,24), bwdecompose(lat,24) from trips",
        vec![f64::NAN],
    );
    fig.push("query (classic pipe)", vec![classic.breakdown.total()]);
    fig.push("query (bwd pipe / A&R)", vec![ar.breakdown.total()]);
    fig.note(format!(
        "count = {} (identical in both pipes)",
        ar.rows[0][0]
    ));
    Ok(fig)
}
