//! Set-up: generate → load → decompose → serve → connect → first ping.
//!
//! One fixed data shape for every workload (sizes chosen so a scan costs
//! at least ten times the reactor's 2 ms poll interval, see README.md).

use crate::gen::{Plan, SMALL_ROWS, SMALL_STRIDE, TPCH_SEED};
use crate::Res;
use std::net::SocketAddr;
use std::sync::Arc;
use std::time::Instant;
use waste_not::core::plan::{ArPlan, RewriteOptions};
use waste_not::data::{gen_lineitem, gen_part, gen_trips, SpatialConfig, TpchConfig};
use waste_not::net::NetServerHandle;
use waste_not::sql::{bind, parse, BoundStatement};
use waste_not::storage::Column;
use waste_not::types::SplitMix64;
use waste_not::{Database, Db, DecompositionReport, NetClient, NetConfig, NetServer, SchedConfig};

/// How much data a run loads.
#[derive(Debug, Clone, Copy)]
pub struct Sizes {
    /// GPS fixes in `trips`.
    pub fixes: usize,
    /// TPC-H scale factor.
    pub tpch_sf: f64,
}

impl Sizes {
    /// The benchmark's one shape: 8 M fixes + TPC-H SF 0.5.
    pub const FULL: Sizes = Sizes {
        fixes: 8_000_000,
        tpch_sf: 0.5,
    };
    /// A shape small enough for unit tests.
    #[cfg(test)]
    pub const TINY: Sizes = Sizes {
        fixes: 200_000,
        tpch_sf: 0.01,
    };
}

/// Wall seconds of the set-up stages.
#[derive(Debug, Clone, Copy, Default)]
pub struct SetupTimes {
    /// Data generation.
    pub gen_s: f64,
    /// `create_table` + `declare_fk`.
    pub load_s: f64,
    /// Every `bwdecompose` / `auto_bind`.
    pub decompose_s: f64,
    /// `serve_net_with` → `bind` → `spawn` → connect → first `ping`.
    pub serve_s: f64,
}

impl SetupTimes {
    /// The complete set-up.
    pub fn total_s(&self) -> f64 {
        self.gen_s + self.load_s + self.decompose_s + self.serve_s
    }
}

/// A database being served on loopback TCP, with one connected client.
pub struct Served {
    /// The shared database (for serial references and layer replays).
    pub db: Arc<Database>,
    /// The spawned serve loop.
    pub handle: NetServerHandle,
    /// Its address.
    pub addr: SocketAddr,
    /// The connection that sent the first ping.
    pub client: NetClient,
}

/// The scheduler configuration of every run: one worker, no morsels.
pub fn sched_config(tracing: bool) -> SchedConfig {
    SchedConfig {
        workers: 1,
        max_morsels: 1,
        tracing,
        ..SchedConfig::default()
    }
}

/// Parse, bind and rewrite `sql` against `db`.
pub fn bind_sql(db: &Database, sql: &str) -> Res<ArPlan> {
    let stmt = parse(sql)?;
    match bind(&stmt, db.catalog())? {
        BoundStatement::Query(logical) => Ok(db.bind(&logical, &RewriteOptions::default())?),
        BoundStatement::Decompose { .. } => Err("expected a query, got bwdecompose".into()),
    }
}

fn small_column(seed: u64) -> Column {
    let mut noise = SplitMix64::new(seed);
    let vals = waste_not::data::micro::unique_shuffled(SMALL_ROWS, seed)
        .into_iter()
        .map(|v| (v * SMALL_STRIDE + noise.below(SMALL_STRIDE as u64) as i64) as i32)
        .collect();
    Column::from_i32(vals)
}

/// One complete set-up: the served database, one report per explicitly
/// decomposed column, and the stage times.
pub fn setup(plan: &Plan, sizes: Sizes) -> Res<(Served, Vec<DecompositionReport>, SetupTimes)> {
    let mut times = SetupTimes::default();

    let t = Instant::now();
    let trips = gen_trips(&SpatialConfig {
        seed: plan.spatial_seed,
        ..SpatialConfig::fixes(sizes.fixes)
    });
    let tpch = TpchConfig {
        scale: sizes.tpch_sf,
        seed: TPCH_SEED,
    };
    let lineitem = gen_lineitem(&tpch);
    let part = gen_part(&tpch);
    let small = small_column(plan.small_seed);
    times.gen_s = t.elapsed().as_secs_f64();

    let t = Instant::now();
    let mut db = Db::new();
    db.create_table("trips", trips.into_columns())?;
    db.create_table("lineitem", lineitem.into_columns())?;
    db.create_table("part", part.into_columns())?;
    db.create_table("small", vec![("a".into(), small)])?;
    db.declare_fk("lineitem", "l_partkey", "part", "p_partkey")?;
    times.load_s = t.elapsed().as_secs_f64();

    let t = Instant::now();
    let mut reports = vec![
        db.bwdecompose("trips", "lon", 24)?,
        db.bwdecompose("trips", "lat", 24)?,
    ];
    // All-GPU residency for every column Q1/Q6/Q14 touch, then the
    // Fig 10 "space-constrained" split of the main selection column.
    for sql in [crate::gen::Q1, crate::gen::Q6, crate::gen::Q14] {
        let plan = bind_sql(&db, sql)?;
        db.auto_bind(&plan)?;
    }
    reports.push(db.bwdecompose("lineitem", "l_shipdate", 24)?);
    reports.push(db.bwdecompose("small", "a", 24)?);
    times.decompose_s = t.elapsed().as_secs_f64();

    let t = Instant::now();
    let served = spawn_and_connect(db.serve_net_with(sched_config(false), NetConfig::default()))?;
    times.serve_s = t.elapsed().as_secs_f64();
    Ok((served, reports, times))
}

/// Wrap `server` in loopback TCP, spawn it, connect and ping once.
pub fn spawn_and_connect(mut server: NetServer) -> Res<Served> {
    let db = Arc::clone(server.scheduler().database());
    let addr = server.bind("127.0.0.1:0")?;
    let handle = server.spawn();
    let mut client = NetClient::connect_tcp(addr)?;
    client.ping()?;
    Ok(Served {
        db,
        handle,
        addr,
        client,
    })
}

impl Served {
    /// Stop the serve loop and the scheduler; returns the stopped server
    /// so its counters can still be read.
    pub fn shutdown(self) -> NetServer {
        drop(self.client);
        self.handle.shutdown()
    }
}
