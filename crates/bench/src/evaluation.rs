//! Macro-benchmark figure runners: the spatial range query (Fig 9 /
//! Table I), the TPC-H subset (Fig 10a–c) and the multi-stream throughput
//! experiment (Fig 11), plus the Figure 1 motivation curve.

use crate::report::Figure;
use crate::throughput::run_throughput;
use bwd_core::plan::ArPlan;
use bwd_data::{gen_lineitem, gen_part, gen_trips, SpatialConfig, TpchConfig};
use bwd_device::{DeviceSpec, Env, GIB};
use bwd_engine::{Database, ExecMode, QueryResult};
use bwd_sql::{bind, parse, BoundStatement};
use bwd_types::{BwdError, Result};

/// Scale configuration for the macro experiments.
#[derive(Debug, Clone, Copy)]
pub struct MacroScale {
    /// Spatial fixes (paper: ~250 M).
    pub spatial_fixes: usize,
    /// TPC-H scale factor (paper: 10).
    pub tpch_sf: f64,
}

impl Default for MacroScale {
    fn default() -> Self {
        MacroScale {
            spatial_fixes: 2_000_000,
            tpch_sf: 0.02,
        }
    }
}

impl MacroScale {
    /// The paper's full scale (needs several GB of RAM and minutes of
    /// runtime — `--full`).
    pub fn full() -> Self {
        MacroScale {
            spatial_fixes: 250_000_000,
            tpch_sf: 10.0,
        }
    }
}

/// The Table I query.
pub const SPATIAL_QUERY: &str = "select count(lon) from trips \
     where lon between 2.68288 and 2.70228 \
     and lat between 50.4222 and 50.4485";

/// TPC-H Q1 (the §VI-D subset formulation).
pub const Q1: &str = "select l_returnflag, l_linestatus, \
     sum(l_quantity) as sum_qty, \
     sum(l_extendedprice) as sum_base_price, \
     sum(l_extendedprice * (1 - l_discount)) as sum_disc_price, \
     sum(l_extendedprice * (1 - l_discount) * (1 + l_tax)) as sum_charge, \
     avg(l_quantity) as avg_qty, \
     avg(l_extendedprice) as avg_price, \
     avg(l_discount) as avg_disc, \
     count(*) as count_order \
     from lineitem \
     where l_shipdate <= date '1998-12-01' - interval '90' day \
     group by l_returnflag, l_linestatus";

/// TPC-H Q6.
pub const Q6: &str = "select sum(l_extendedprice * l_discount) as revenue \
     from lineitem \
     where l_shipdate >= date '1994-01-01' \
     and l_shipdate < date '1994-01-01' + interval '1' year \
     and l_discount between 0.05 and 0.07 \
     and l_quantity < 24";

/// TPC-H Q14 (promo / total revenue; the final ratio is client arithmetic).
pub const Q14: &str = "select \
     sum(case when p_type like 'PROMO%' then l_extendedprice * (1 - l_discount) else 0 end) as promo_revenue, \
     sum(l_extendedprice * (1 - l_discount)) as total_revenue \
     from lineitem, part \
     where l_partkey = p_partkey \
     and l_shipdate >= date '1995-09-01' \
     and l_shipdate < date '1995-09-01' + interval '1' month";

/// Build the spatial database. The device capacity scales with the data so
/// the paper's memory pressure is preserved at any size: full-resolution
/// coordinates (8 bytes/fix) exceed the device, decomposed approximations
/// fit.
pub fn spatial_db(fixes: usize) -> Result<Database> {
    let coord_bytes = fixes as u64 * 8;
    let capacity = ((coord_bytes as f64 / 1.1) as u64).clamp(1 << 20, 2 * GIB);
    let env = Env::with_device(DeviceSpec::gtx680().with_capacity(capacity));
    let mut db = Database::with_env(env);
    let trips = gen_trips(&SpatialConfig::fixes(fixes));
    db.create_table("trips", trips.into_columns())?;
    Ok(db)
}

/// Run one SQL query through a given mode.
pub fn run_sql(db: &mut Database, sql: &str, mode: ExecMode) -> Result<QueryResult> {
    let stmt = parse(sql)?;
    let BoundStatement::Query(plan) = bind(&stmt, db.catalog())? else {
        return Err(BwdError::InvalidArgument("expected a query".into()));
    };
    db.run(&plan, mode)
}

/// Bind a SQL query to an A&R plan.
pub fn bind_sql(db: &Database, sql: &str) -> Result<ArPlan> {
    let stmt = parse(sql)?;
    let BoundStatement::Query(plan) = bind(&stmt, db.catalog())? else {
        return Err(BwdError::InvalidArgument("expected a query".into()));
    };
    db.bind(&plan, &Default::default())
}

/// Fig 9: the spatial range query. Fails if A&R and classic disagree.
pub fn fig9_spatial(fixes: usize) -> Result<Figure> {
    let mut db = spatial_db(fixes)?;

    // The paper's worst case for streaming: the coordinate data does not
    // fit the device at full resolution. Demonstrate with a real OOM.
    let oom = db
        .bwdecompose_spec(
            "trips",
            "lon",
            &bwd_storage::DecompositionSpec::uncompressed(32),
        )
        .and_then(|_| {
            db.bwdecompose_spec(
                "trips",
                "lat",
                &bwd_storage::DecompositionSpec::uncompressed(32),
            )
        });
    let oom_msg = match oom {
        Err(e) => format!("full-resolution residency fails as in the paper: {e}"),
        Ok(_) => "warning: full-resolution data unexpectedly fit the device".into(),
    };

    // Table I decomposition: bwdecompose(lon, 24), bwdecompose(lat, 24).
    let lon_rep = db.bwdecompose("trips", "lon", 24)?;
    let lat_rep = db.bwdecompose("trips", "lat", 24)?;

    let classic = run_sql(&mut db, SPATIAL_QUERY, ExecMode::Classic)?;
    let ar = run_sql(&mut db, SPATIAL_QUERY, ExecMode::ApproxRefine)?;
    if ar.rows != classic.rows {
        return Err(BwdError::Exec("fig9: A&R and classic disagree".into()));
    }

    let input_bytes = db.catalog().table("trips")?.column("lon")?.plain_bytes()
        + db.catalog().table("trips")?.column("lat")?.plain_bytes();
    let stream = db.env().pcie.stream_hypothetical(input_bytes);

    let mut fig = Figure::new(
        "fig9",
        format!("Spatial range queries ({fixes} fixes)"),
        "approach",
        vec!["GPU", "CPU", "PCI", "total"],
    );
    fig.push(
        "A&R",
        vec![
            ar.breakdown.device,
            ar.breakdown.host,
            ar.breakdown.pcie,
            ar.breakdown.total(),
        ],
    );
    fig.push(
        "MonetDB",
        vec![0.0, classic.breakdown.host, 0.0, classic.breakdown.total()],
    );
    fig.push("Stream(Hyp)", vec![f64::NAN, f64::NAN, stream, stream]);
    fig.note(format!("result: count = {}", ar.rows[0][0]));
    fig.note(oom_msg);
    fig.note(format!(
        "device volume after bwdecompose(…,24): lon {} B + lat {} B (plain: {} B) — {}% saved",
        lon_rep.device_bytes,
        lat_rep.device_bytes,
        input_bytes,
        100 - 100
            * (lon_rep.device_bytes
                + lat_rep.device_bytes
                + lon_rep.host_bytes
                + lat_rep.host_bytes)
            / input_bytes.max(1),
    ));
    fig.note(
        "paper (250M fixes): A&R 0.134 s | MonetDB 0.529 s | Stream 0.453 s; ~80% of A&R on GPU",
    );
    Ok(fig)
}

/// Build the TPC-H database (lineitem + part + FK).
pub fn tpch_db(sf: f64) -> Result<Database> {
    let mut db = Database::new();
    let cfg = TpchConfig::scale(sf);
    db.create_table("lineitem", gen_lineitem(&cfg).into_columns())?;
    db.create_table("part", gen_part(&cfg).into_columns())?;
    db.declare_fk("lineitem", "l_partkey", "part", "p_partkey")?;
    Ok(db)
}

/// Fig 10a/b/c: one TPC-H query in four configurations.
pub fn fig10_query(
    db: &mut Database,
    id: &str,
    title: &str,
    sql: &str,
    paper: &str,
) -> Result<Figure> {
    let plan = bind_sql(db, sql)?;

    // All-GPU: every referenced column fully device-resident.
    db.auto_bind(&plan)?;
    let ar = db.run_bound(&plan, ExecMode::ApproxRefine)?;

    // Space-constrained: decompose the most important selection column
    // (l_shipdate, 8 bits on the CPU) as §VI-D1 does.
    db.bwdecompose("lineitem", "l_shipdate", 24)?;
    let ar_space = db.run_bound(&plan, ExecMode::ApproxRefine)?;
    // Restore residency for subsequent figures.
    db.bwdecompose_spec(
        "lineitem",
        "l_shipdate",
        &bwd_storage::DecompositionSpec::all_device(),
    )?;

    let classic = db.run_bound(&plan, ExecMode::Classic)?;
    for (run, rows) in [("all-GPU", &ar.rows), ("space-constrained", &ar_space.rows)] {
        if *rows != classic.rows {
            return Err(BwdError::Exec(format!(
                "{id}: A&R ({run}) and classic disagree"
            )));
        }
    }

    // Streaming baseline: the referenced input columns cross PCI-E.
    let mut input_bytes = 0u64;
    for col in plan.referenced_columns() {
        let (t, c) = col
            .split_once('.')
            .unwrap_or((plan.table.as_str(), col.as_str()));
        input_bytes += db.catalog().table(t)?.column(c)?.plain_bytes();
    }
    let stream = db.env().pcie.stream_hypothetical(input_bytes);

    let mut fig = Figure::new(id, title, "approach", vec!["GPU", "CPU", "PCI", "total"]);
    fig.push(
        "A&R",
        vec![
            ar.breakdown.device,
            ar.breakdown.host,
            ar.breakdown.pcie,
            ar.breakdown.total(),
        ],
    );
    fig.push(
        "A&R SpaceConstr",
        vec![
            ar_space.breakdown.device,
            ar_space.breakdown.host,
            ar_space.breakdown.pcie,
            ar_space.breakdown.total(),
        ],
    );
    fig.push(
        "MonetDB",
        vec![0.0, classic.breakdown.host, 0.0, classic.breakdown.total()],
    );
    fig.push("Stream(Hyp)", vec![f64::NAN, f64::NAN, stream, stream]);
    fig.note(format!(
        "rows: {}; survivors: {}",
        ar.rows.len(),
        ar.survivors
    ));
    fig.note(format!("paper (SF-10): {paper}"));
    Ok(fig)
}

/// All three Fig 10 queries.
pub fn fig10(sf: f64) -> Result<Vec<Figure>> {
    let mut db = tpch_db(sf)?;
    Ok(vec![
        fig10_query(
            &mut db,
            "fig10a",
            &format!("TPC-H Query 1 (SF {sf})"),
            Q1,
            "A&R 6.373 s | space 9.507 s | MonetDB 16.666 s | Stream 0.254 s",
        )?,
        fig10_query(
            &mut db,
            "fig10b",
            &format!("TPC-H Query 6 (SF {sf})"),
            Q6,
            "A&R 0.123 s | space 0.265 s | MonetDB 1.719 s | Stream 0.226 s",
        )?,
        fig10_query(
            &mut db,
            "fig10c",
            &format!("TPC-H Query 14 (SF {sf})"),
            Q14,
            "A&R 0.112 s | space 0.341 s | MonetDB 0.565 s | Stream 0.230 s",
        )?,
    ])
}

/// Fig 11: multi-stream throughput (queries/s).
pub fn fig11(sf: f64) -> Result<Figure> {
    let mut db = tpch_db(sf)?;
    let plan = bind_sql(&db, Q6)?;
    db.auto_bind(&plan)?;
    // The A&R stream runs a (lightly) space-constrained configuration —
    // shipdate decomposed 28/4: its refinement consumes host bandwidth,
    // which produces the CPU-interference the paper measures (16.2 ->
    // 12.6 q/s) while the stream itself stays device-bound.
    db.bwdecompose("lineitem", "l_shipdate", 28)?;
    let report = run_throughput(std::sync::Arc::new(db), &plan, &[1, 2, 4, 8, 16, 32])?;

    let mut fig = Figure::new(
        "fig11",
        format!("A gap in the memory wall: queries/s (SF {sf}, Q6 streams)"),
        "configuration",
        vec!["queries/s"],
    );
    fig.raw_units = true;
    for (t, qps) in &report.cpu_parallel {
        fig.push(format!("CPU parallel {t}"), vec![*qps]);
    }
    fig.push("A&R only", vec![report.ar_only]);
    fig.push("CPU w/ A&R", vec![report.cpu_with_ar]);
    fig.push("Cumulative", vec![report.cumulative]);
    fig.note("paper: 2.3/4.3/6.7/10.9/15.9/16.2 (1..32 threads), A&R 13.4, CPU w/ A&R 12.6, cumulative 26.0");
    fig.note("units are queries/second, larger is better (every other figure reports seconds)");
    Ok(fig)
}

/// Fig 1 (introduction): the flash capacity/bandwidth conflict. Background
/// motivation, regenerated from the figure's depicted data points
/// (the paper's reference \[2\]).
pub fn fig1() -> Figure {
    let mut fig = Figure::new(
        "fig1",
        "Flash memory capacity vs write bandwidth (motivation, data as depicted in [2])",
        "device",
        vec!["capacity GB", "write MB/s"],
    );
    fig.raw_units = true;
    for (name, cap, bw) in [
        ("SLC-1", 32.0, 3400.0),
        ("MLC-1", 128.0, 2600.0),
        ("MLC-2", 1024.0, 1600.0),
        ("TLC-3", 8192.0, 700.0),
    ] {
        fig.push(name, vec![cap, bw]);
    }
    fig.note("the capacity/velocity conflict that motivates hierarchical processing (§I)");
    fig
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig1_static() {
        let f = fig1();
        assert_eq!(f.rows.len(), 4);
    }
}
