//! Regenerate the paper's evaluation figures (`figures --help` prints
//! the ids and flags).
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

const USAGE: &str =
    "figures [ids...] [--scale-micro N] [--scale-spatial N] [--sf X] [--full] [--csv DIR]
  ids: all (default) | fig1 | fig8a | fig8b | fig8c | fig8d | fig8e
       | fig8f | fig9 | tab1 | fig10a | fig10b | fig10c | fig11";

/// The ids `all` (and no id) expands to.
const ALL: [&str; 13] = [
    "fig1", "fig8a", "fig8b", "fig8c", "fig8d", "fig8e", "fig8f", "tab1", "fig9", "fig10a",
    "fig10b", "fig10c", "fig11",
];

struct Args {
    ids: Vec<String>,
    micro_n: usize,
    scale: MacroScale,
    csv: Option<PathBuf>,
}

/// `Ok(None)` is `--help`.
fn parse_args() -> Result<Option<Args>, String> {
    let mut args = Args {
        ids: Vec::new(),
        micro_n: 4_000_000,
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
            "--help" | "-h" => return Ok(None),
            id if !id.starts_with('-') => args.ids.push(id.to_string()),
            other => return Err(format!("unknown flag {other}\n{USAGE}")),
        }
    }
    if args.ids.is_empty() || args.ids.iter().any(|i| i == "all") {
        args.ids = ALL.iter().map(|s| s.to_string()).collect();
    }
    Ok(Some(args))
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(Some(a)) => a,
        Ok(None) => {
            println!("{USAGE}");
            return ExitCode::SUCCESS;
        }
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
            other => Err(format!("unknown figure id {other}\n{USAGE}")),
        };
        match result {
            Ok(figs) => {
                for f in figs {
                    println!("{}", f.render());
                    if let Some(dir) = &args.csv {
                        if let Err(e) = f.write_csv(dir) {
                            eprintln!("csv write failed: {e}");
                            return ExitCode::FAILURE;
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
