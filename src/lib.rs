//! `waste-not` — Approximate & Refine co-processing of bitwise-distributed
//! relational data.
//!
//! A from-scratch Rust reproduction of *Pirk, Manegold, Kersten: "Waste
//! Not... Efficient Co-Processing of Relational Data", ICDE 2014*. The
//! workspace implements the complete system: bitwise-decomposed columnar
//! storage, a simulated GPU-class co-processor with a calibrated cost
//! model, the A&R operator pairs (relaxed selections, translucent joins,
//! candidate-set extrema, destructive-distributivity-aware aggregation), a
//! MonetDB-style engine with classic and A&R pipelines, a SQL front-end,
//! and the full evaluation harness.
//!
//! This crate is the facade: it re-exports the public API of every layer
//! and adds [`Db`], a convenience wrapper that executes SQL end to end.
//!
//! ```
//! use waste_not::{Db, ExecMode};
//! use waste_not::storage::Column;
//!
//! let mut db = Db::new();
//! db.create_table("r", vec![("a".into(), Column::from_i32((0..1000).collect()))])
//!     .unwrap();
//! // Decompose: 24 device-resident bits, 8 residual bits on the host.
//! db.sql("select bwdecompose(a, 24) from r").unwrap();
//! let out = db.sql("select count(*) from r where a between 100 and 199").unwrap();
//! assert_eq!(out.rows()[0][0].to_string(), "100");
//! ```

pub use bwd_core as core;
pub use bwd_data as data;
pub use bwd_device as device;
pub use bwd_engine as engine;
pub use bwd_kernels as kernels;
pub use bwd_net as net;
pub use bwd_obs as obs;
pub use bwd_sched as sched;
pub use bwd_sql as sql;
pub use bwd_storage as storage;
pub use bwd_types as types;

pub use bwd_device::{Breakdown, Env};
pub use bwd_engine::{ArExecOptions, Database, DecompositionReport, ExecMode, QueryResult};
pub use bwd_net::{NetClient, NetConfig, NetServer};
pub use bwd_sched::{SchedConfig, Scheduler, Session};
pub use bwd_types::{BwdError, FaultKind, FaultPlan, FaultSite, FaultSpec, Result, Value};

use bwd_sql::{bind, parse, BoundStatement};

/// What a SQL statement produced.
#[derive(Debug, Clone, PartialEq)]
pub enum SqlOutput {
    /// A query result.
    Rows(QueryResult),
    /// A `bwdecompose` report.
    Decomposed(DecompositionReport),
}

impl SqlOutput {
    /// The result rows (empty for decomposition statements).
    pub fn rows(&self) -> &[Vec<Value>] {
        match self {
            SqlOutput::Rows(r) => &r.rows,
            SqlOutput::Decomposed(_) => &[],
        }
    }

    /// The query result, if this was a query.
    pub fn query(&self) -> Option<&QueryResult> {
        match self {
            SqlOutput::Rows(r) => Some(r),
            SqlOutput::Decomposed(_) => None,
        }
    }
}

/// An embedded `waste-not` database with SQL convenience.
///
/// Derefs to the underlying [`Database`] for programmatic access
/// (`create_table`, `declare_fk`, `bwdecompose`, plan-level execution).
pub struct Db {
    inner: Database,
}

impl Db {
    /// A database on the paper's default simulated platform (GTX 680-class
    /// device, dual-Xeon-class host, 3.95 GB/s PCI-E).
    pub fn new() -> Self {
        Db {
            inner: Database::new(),
        }
    }

    /// A database on a custom platform.
    pub fn with_env(env: Env) -> Self {
        Db {
            inner: Database::with_env(env),
        }
    }

    /// Execute one SQL statement with Approximate & Refine processing.
    pub fn sql(&mut self, statement: &str) -> Result<SqlOutput> {
        self.sql_mode(statement, ExecMode::ApproxRefine)
    }

    /// Freeze the database and start serving it to concurrent sessions.
    ///
    /// Loading, `declare_fk` and `bwdecompose` are load-time operations;
    /// once the data is in place, `serve()` moves the database behind an
    /// `Arc` and spins up the [`Scheduler`]'s worker pool. Open any
    /// number of [`Session`]s, submit plans or SQL tagged with an
    /// [`ExecMode`], and the scheduler runs classic queries
    /// morsel-parallel on the CPU while A&R queries pass device-memory
    /// admission — the 2 GB card is never oversubscribed.
    ///
    /// ```
    /// use waste_not::{Db, ExecMode};
    /// use waste_not::storage::Column;
    ///
    /// let mut db = Db::new();
    /// db.create_table("r", vec![("a".into(), Column::from_i32((0..1000).collect()))])
    ///     .unwrap();
    /// db.sql("select bwdecompose(a, 24) from r").unwrap();
    /// let server = db.serve();
    /// let session = server.session();
    /// let out = session
    ///     .submit_sql("select count(*) from r where a < 10", ExecMode::ApproxRefine)
    ///     .unwrap()
    ///     .wait()
    ///     .unwrap();
    /// assert_eq!(out.rows[0][0].to_string(), "10");
    /// ```
    pub fn serve(self) -> Scheduler {
        self.serve_with(SchedConfig::default())
    }

    /// [`Db::serve`] with an explicit scheduler configuration.
    pub fn serve_with(self, config: SchedConfig) -> Scheduler {
        Scheduler::new(std::sync::Arc::new(self.inner), config)
    }

    /// [`Db::serve`], then wrap the scheduler in the network front door.
    ///
    /// The returned [`NetServer`] multiplexes any number of client
    /// connections — real TCP ([`NetServer::bind`]) or deterministic
    /// in-memory pipes ([`NetServer::connect`]) — over the scheduler's
    /// worker pool without an async runtime. See `bwd_net` for the wire
    /// protocol and the backpressure watermarks.
    ///
    /// ```
    /// use waste_not::{Db, NetConfig};
    /// use waste_not::net::{NetClient, WireMode};
    /// use waste_not::storage::Column;
    ///
    /// let mut db = Db::new();
    /// db.create_table("r", vec![("a".into(), Column::from_i32((0..100).collect()))])
    ///     .unwrap();
    /// let mut server = db.serve_net(NetConfig::default());
    /// let mut client = NetClient::new(Box::new(server.connect()));
    /// let handle = server.spawn();
    /// let result = client
    ///     .query("select count(*) from r where a < 10", WireMode::Classic)
    ///     .unwrap();
    /// assert_eq!(result.rows[0][0].to_string(), "10");
    /// handle.shutdown().into_scheduler().shutdown();
    /// ```
    pub fn serve_net(self, net: NetConfig) -> NetServer {
        self.serve_net_with(SchedConfig::default(), net)
    }

    /// [`Db::serve_net`] with explicit scheduler *and* network
    /// configuration.
    pub fn serve_net_with(self, sched: SchedConfig, net: NetConfig) -> NetServer {
        NetServer::with_config(self.serve_with(sched), net)
    }

    /// Execute one SQL statement with an explicit execution mode
    /// ([`ExecMode::Classic`] is the CPU-only MonetDB-style baseline).
    pub fn sql_mode(&mut self, statement: &str, mode: ExecMode) -> Result<SqlOutput> {
        let stmt = parse(statement)?;
        match bind(&stmt, self.inner.catalog())? {
            BoundStatement::Decompose {
                table,
                column,
                device_bits,
            } => Ok(SqlOutput::Decomposed(self.inner.bwdecompose(
                &table,
                &column,
                device_bits,
            )?)),
            BoundStatement::Query(plan) => Ok(SqlOutput::Rows(self.inner.run(&plan, mode)?)),
        }
    }
}

impl Default for Db {
    fn default() -> Self {
        Self::new()
    }
}

impl std::ops::Deref for Db {
    type Target = Database;

    fn deref(&self) -> &Database {
        &self.inner
    }
}

impl std::ops::DerefMut for Db {
    fn deref_mut(&mut self) -> &mut Database {
        &mut self.inner
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bwd_storage::Column;

    #[test]
    fn sql_end_to_end_both_modes_agree() {
        let mut db = Db::new();
        db.create_table(
            "r",
            vec![
                ("a".into(), Column::from_i32((0..5000).collect())),
                (
                    "b".into(),
                    Column::from_i32((0..5000).map(|i| i % 7).collect()),
                ),
            ],
        )
        .unwrap();
        let q = "select b, count(*) as n, sum(a) as s from r where a < 3500 group by b";
        let ar = self_rows(db.sql(q).unwrap());
        let classic = self_rows(db.sql_mode(q, ExecMode::Classic).unwrap());
        assert_eq!(ar, classic);
        assert_eq!(ar.len(), 7);
    }

    fn self_rows(out: SqlOutput) -> Vec<Vec<Value>> {
        match out {
            SqlOutput::Rows(r) => r.rows,
            other => panic!("expected rows, got {other:?}"),
        }
    }

    /// A `declare_fk` that fails leaves no declaration behind: a later,
    /// valid one from the same fact key answers its join in both pipes,
    /// and the failed dimension is rejected at bind.
    #[test]
    fn a_failed_declare_fk_leaves_no_trace() {
        let mut db = Db::new();
        let ints = |v: &[i32]| Column::from_i32(v.to_vec());
        let tables = [
            ("f", vec![("k".into(), ints(&[1, 9, 1]))]),
            ("d", vec![("k".into(), ints(&[1, 2]))]),
            (
                "e",
                vec![("k".into(), ints(&[1, 9])), ("v".into(), ints(&[10, 20]))],
            ),
        ];
        for (name, columns) in tables {
            db.create_table(name, columns).unwrap();
        }
        let dangling = db.declare_fk("f", "k", "d", "k").unwrap_err();
        assert_eq!(
            dangling,
            BwdError::Exec("foreign key 9 has no dimension match".into())
        );
        db.declare_fk("f", "k", "e", "k").unwrap();
        for mode in [ExecMode::Classic, ExecMode::ApproxRefine] {
            let q = "select count(*) as n, sum(e.v) as s from f, e where f.k = e.k";
            let rows = self_rows(db.sql_mode(q, mode).unwrap());
            assert_eq!(rows, [[Value::Int(3), Value::Int(40)]]);
        }
        match db.sql("select count(*) from f, d where f.k = d.k") {
            Err(BwdError::Bind(m)) => assert!(m.contains("no declared foreign key joins f and d")),
            other => panic!("expected a bind error, got {other:?}"),
        }
    }

    #[test]
    fn decompose_statement_reports() {
        let mut db = Db::new();
        db.create_table(
            "r",
            vec![("a".into(), Column::from_i32((0..4096).collect()))],
        )
        .unwrap();
        let out = db.sql("select bwdecompose(a, 24) from r").unwrap();
        let SqlOutput::Decomposed(rep) = out else {
            panic!()
        };
        assert_eq!(rep.resbits, 8);
        assert!(db.is_bound("r", "a"));
    }
}
