//! The database facade: schema + storage + both execution pipelines.
//!
//! A [`Database`] owns the catalog, the bitwise-distributed ("bound")
//! columns, the pre-built foreign-key indexes and the simulated platform.
//! `bwdecompose` mirrors the paper's SQL-visible decomposition call (§V-A);
//! queries run either through the classic pipe (CPU bulk processing) or
//! the `bwd` pipe (A&R), built from the same logical plan.

use crate::arexec::ArExecOptions;
use crate::bill::{self, Counts};
use crate::catalog::{Catalog, FkDecl, Table};
use crate::result::QueryResult;
use crate::tail::SLICE_ROWS;
use bwd_core::ops::join::FkIndex;
use bwd_core::plan::{rewrite, ArPlan, LogicalPlan, PlanResolver, RewriteOptions};
use bwd_core::BoundColumn;
use bwd_device::{units::packed_stream_bytes, CostLedger, DeviceBuffer, Env};
use bwd_storage::{Column, DecomposedColumn, DecompositionMeta, DecompositionSpec};
use bwd_types::{BwdError, FxHashMap, Result, Value};

/// How to execute a plan.
#[derive(Debug, Clone, Default)]
pub enum ExecMode {
    /// Classic CPU-only bulk processing (the MonetDB baseline).
    Classic,
    /// Approximate & Refine co-processing with default options.
    #[default]
    ApproxRefine,
    /// A&R with explicit options.
    ApproxRefineWith(ArExecOptions),
}

impl ExecMode {
    /// The A&R options this mode runs with — `ApproxRefine` is
    /// `ApproxRefineWith(ArExecOptions::default())` — or `None` for the
    /// classic pipe.
    pub(crate) fn ar_options(&self) -> Option<ArExecOptions> {
        match self {
            ExecMode::Classic => None,
            ExecMode::ApproxRefine => Some(ArExecOptions::default()),
            ExecMode::ApproxRefineWith(opts) => Some(*opts),
        }
    }
}

/// What `bwdecompose` did (mirrors the paper's data-volume discussion).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DecompositionReport {
    /// Bytes now resident on the device (bit-packed approximation).
    pub device_bytes: u64,
    /// Bytes of residual kept on the host.
    pub host_bytes: u64,
    /// Residual width in bits.
    pub resbits: u32,
    /// Stored approximation width in bits (after prefix compression).
    pub stored_width: u32,
    /// Plain (uncompressed) size of the column for comparison.
    pub plain_bytes: u64,
}

/// An embedded analytical database with a simulated co-processor.
pub struct Database {
    env: Env,
    catalog: Catalog,
    bound: FxHashMap<(String, String), BoundColumn>,
    fks: FxHashMap<(String, String), FkIndex>,
    load_ledger: CostLedger,
    /// Replicas of persistent device-resident data on the non-primary
    /// devices of a multi-device pool, keyed by what they replicate
    /// (`"col:table.column"` / `"fk:table.key"`). Any device can then
    /// serve any A&R query; replacing a key frees the old reservations.
    replicas: FxHashMap<String, Vec<DeviceBuffer>>,
}

impl Database {
    /// A database on the paper's default platform.
    pub fn new() -> Self {
        Self::with_env(Env::paper_default())
    }

    /// A database on a custom platform.
    pub fn with_env(env: Env) -> Self {
        Database {
            env,
            catalog: Catalog::new(),
            bound: FxHashMap::default(),
            fks: FxHashMap::default(),
            load_ledger: CostLedger::new(),
            replicas: FxHashMap::default(),
        }
    }

    /// Replicate `bytes` of persistent device data onto every non-primary
    /// device of the pool (each replica pays its own PCI-E upload into the
    /// load ledger, exactly like the primary copy). The approximation
    /// partitions and FK mappings are what make a card able to serve A&R
    /// queries at all, so a multi-device pool keeps one copy per card.
    fn replicate(&mut self, key: String, bytes: u64, label: &str) -> Result<()> {
        let mut buffers = Vec::new();
        for (i, dev) in self.env.pool.devices().iter().enumerate() {
            if std::sync::Arc::ptr_eq(dev, &self.env.device) {
                continue;
            }
            let replica_label = format!("{label}@dev{i}");
            buffers.push(dev.upload(bytes, &replica_label, &mut self.load_ledger)?);
        }
        if buffers.is_empty() {
            self.replicas.remove(&key);
        } else {
            self.replicas.insert(key, buffers);
        }
        Ok(())
    }

    /// The simulated platform.
    pub fn env(&self) -> &Env {
        &self.env
    }

    /// The schema catalog.
    pub fn catalog(&self) -> &Catalog {
        &self.catalog
    }

    /// Accumulated one-time load costs (decomposition uploads, FK builds).
    pub fn load_costs(&self) -> &CostLedger {
        &self.load_ledger
    }

    /// Create a table from named columns.
    pub fn create_table(
        &mut self,
        name: impl Into<String>,
        columns: Vec<(String, Column)>,
    ) -> Result<()> {
        self.catalog.add_table(Table::new(name, columns)?)
    }

    /// Declare a foreign key and pre-build its index (CPU hash build +
    /// device upload of the packed mapping, §IV-D). The declaration is
    /// registered last, once the index and its replicas stand, so a
    /// declaration that fails leaves none behind; declaring a fact key
    /// again replaces its declaration and index.
    pub fn declare_fk(
        &mut self,
        fact_table: &str,
        fact_key: &str,
        dim_table: &str,
        dim_key: &str,
    ) -> Result<()> {
        let fact_keys = self.catalog.table(fact_table)?.column(fact_key)?;
        let dim_keys = self.catalog.table(dim_table)?.column(dim_key)?;
        let idx = FkIndex::build(
            fact_keys,
            dim_keys,
            &self.env.device,
            &self.env,
            &mut self.load_ledger,
        )?;
        self.replicate(
            format!("fk:{fact_table}.{fact_key}"),
            idx.device().packed_bytes(),
            &format!("fk.{fact_table}.{fact_key}"),
        )?;
        self.fks
            .insert((fact_table.to_string(), fact_key.to_string()), idx);
        self.catalog.add_fk(FkDecl {
            fact_table: fact_table.into(),
            fact_key: fact_key.into(),
            dim_table: dim_table.into(),
            dim_key: dim_key.into(),
        })
    }

    /// `select bwdecompose(column, device_bits) from table` (§V-A):
    /// bitwise-decompose a column, upload the approximation to the device,
    /// keep the residual on the host — and nothing else: the catalog's
    /// column becomes the split one, its old runs released as read.
    pub fn bwdecompose(
        &mut self,
        table: &str,
        column: &str,
        device_bits: u32,
    ) -> Result<DecompositionReport> {
        self.bwdecompose_spec(
            table,
            column,
            &DecompositionSpec::with_device_bits(device_bits),
        )
    }

    /// Decomposition with an explicit spec (compression ablations).
    pub fn bwdecompose_spec(
        &mut self,
        table: &str,
        column: &str,
        spec: &DecompositionSpec,
    ) -> Result<DecompositionReport> {
        let col = self.catalog.table(table)?.column(column)?;
        DecomposedColumn::validate_spec(col.dtype(), spec)?;
        let meta = DecompositionMeta::new(col.dtype(), col.payload_min_max(), spec);
        let bytes = |bits| packed_stream_bytes(bits, col.len() as u64);
        let report = DecompositionReport {
            device_bytes: bytes(meta.stored_width()),
            host_bytes: bytes(meta.resbits()),
            resbits: meta.resbits(),
            stored_width: meta.stored_width(),
            plain_bytes: col.plain_bytes(),
        };
        let label = format!("{table}.{column}");
        let key = (table.to_string(), column.to_string());
        let replica_key = format!("col:{label}");
        // Fit is checked on the meta the pack will use, before the catalog
        // hands its column over: a step that cannot fit leaves column and
        // binding intact. An old binding gives its approximation (a copy per
        // card) back first: re-decomposing needs room for the larger of two.
        let held = self
            .bound
            .get(&key)
            .map_or(0, |old| old.approx().packed_bytes());
        for dev in self.env.pool.devices() {
            let available = dev.memory().available() + held;
            if report.device_bytes > available {
                return Err(BwdError::DeviceOutOfMemory {
                    requested: report.device_bytes,
                    available,
                });
            }
        }
        self.bound.remove(&key);
        self.replicas.remove(&replica_key);
        let split = self.catalog.decompose(table, column, spec).clone();
        let bound = BoundColumn::bind(split, &self.env.device, &label, &mut self.load_ledger)?;
        self.bound.insert(key, bound);
        self.replicate(replica_key, report.device_bytes, &label)?;
        Ok(report)
    }

    /// Whether a column is already decomposed & bound.
    pub fn is_bound(&self, table: &str, column: &str) -> bool {
        self.bound
            .contains_key(&(table.to_string(), column.to_string()))
    }

    /// The bound column (A&R executor).
    pub(crate) fn bound_column(&self, table: &str, column: &str) -> Result<&BoundColumn> {
        self.bound
            .get(&(table.to_string(), column.to_string()))
            .ok_or_else(|| {
                BwdError::NotFound(format!(
                    "column {table}.{column} is not decomposed; call bwdecompose first"
                ))
            })
    }

    /// The FK index (executors).
    pub(crate) fn fk_index(&self, fact_table: &str, fact_key: &str) -> Result<&FkIndex> {
        self.fks
            .get(&(fact_table.to_string(), fact_key.to_string()))
            .ok_or_else(|| {
                BwdError::NotFound(format!(
                    "no foreign-key index on {fact_table}.{fact_key}; call declare_fk first"
                ))
            })
    }

    /// Bind (rewrite) a logical plan into an A&R plan. [`RewriteOptions`]
    /// carries nothing: the parameter stays for callers that pass
    /// `&RewriteOptions::default()`, the benchmark harness among them.
    pub fn bind(&self, plan: &LogicalPlan, _opts: &RewriteOptions) -> Result<ArPlan> {
        rewrite(plan, &Resolver { db: self })
    }

    /// Decompose every not-yet-bound column a selection, a group key or
    /// the tail of the plan reads as fully device-resident — the paper's
    /// all-GPU TPC-H configuration, where narrow attributes are simply
    /// kept bit-packed on the device. A join key none of those names stays
    /// off it: both executors reach the dimension through the FK index.
    pub fn auto_bind(&mut self, plan: &ArPlan) -> Result<()> {
        let selected = plan.selections.iter().map(|s| s.column.clone());
        for name in selected.chain(plan.gathered_columns()) {
            let (t, c) = name.split_once('.').unwrap_or((&plan.table, &name));
            if !self.is_bound(t, c) {
                self.bwdecompose_spec(t, c, &DecompositionSpec::all_device())?;
            }
        }
        Ok(())
    }

    /// Execute a logical plan end to end: bind, (for A&R) auto-decompose
    /// missing columns, run.
    pub fn run(&mut self, plan: &LogicalPlan, mode: ExecMode) -> Result<QueryResult> {
        let ar = self.bind(plan, &RewriteOptions::default())?;
        if !matches!(mode, ExecMode::Classic) {
            self.auto_bind(&ar)?;
        }
        self.run_bound(&ar, mode)
    }

    /// Execute an already-bound A&R plan as its bill prices it cheapest
    /// ([`bill::order`]).
    pub fn run_bound(&self, plan: &ArPlan, mode: ExecMode) -> Result<QueryResult> {
        self.run_bound_in(plan, mode, &self.env, 1, None)
    }

    /// Execute an already-bound plan against an explicit environment,
    /// real-thread morsel count and transient device budget.
    ///
    /// This is the re-entrant entry point of the concurrent scheduler:
    /// `&self` only, the environment override carries the per-session
    /// host-thread allocation and the chosen device of a multi-device
    /// pool (`Env::on_device`; the shared `env()` is not mutated), and
    /// both pipes fan their hot loops out over `morsels` OS threads — the
    /// classic selection chain, and the A&R approximation/refinement
    /// stages. Results and simulated costs are bit-identical at every
    /// morsel count.
    ///
    /// `budget` caps the bytes an A&R run holds on the device for its
    /// candidate lists (12 B per candidate) and device-side aggregation
    /// gathers (8 B per gathered value); `None` is unlimited. The
    /// scheduler passes its admission reservation: a run whose actual
    /// transient footprint exceeds it fails early with
    /// [`BwdError::DeviceOutOfMemory`] — a kernel allocation failing on a
    /// full card — and is re-queued at the worst case. A sufficient budget
    /// changes neither results nor simulated costs.
    pub fn run_bound_in(
        &self,
        plan: &ArPlan,
        mode: ExecMode,
        env: &Env,
        morsels: usize,
        budget: Option<u64>,
    ) -> Result<QueryResult> {
        (self.run_counted(plan, mode, env, morsels, budget)).map(|(result, ..)| result)
    }

    /// [`Database::run_bound_in`], also returning the [`Counts`] the run
    /// observed and the transient device bytes it held — what
    /// [`crate::bill`] priced it from, and what a scheduler's prediction
    /// of the same plan can be held against. The run executes the plan its
    /// bill prices cheapest — selection order and fold ([`bill::order`]);
    /// the counts are that plan's.
    pub fn run_counted(
        &self,
        plan: &ArPlan,
        mode: ExecMode,
        env: &Env,
        morsels: usize,
        budget: Option<u64>,
    ) -> Result<(QueryResult, Counts, u64)> {
        let ledger = &mut CostLedger::new();
        let (chain, chosen) = bill::cheapest(self, plan, &mode, env);
        let plan: &ArPlan = &chosen;
        let Some(opts) = mode.ar_options() else {
            let link = match &plan.fk_join {
                Some(j) => Some(self.fk_index(&plan.table, &j.fact_key)?.device().data()),
                None => None,
            };
            let (result, counts) = crate::classic::run_classic_counted(
                &self.catalog,
                plan,
                &chain,
                link,
                env,
                morsels,
                SLICE_ROWS,
                ledger,
            )?;
            return Ok((result, counts, 0));
        };
        crate::arexec::run_ar_counted(
            self, plan, &chain, &opts, env, morsels, budget, SLICE_ROWS, ledger,
        )
    }
}

impl Default for Database {
    fn default() -> Self {
        Self::new()
    }
}

/// Catalog-backed literal resolution for the plan rewriter.
struct Resolver<'a> {
    db: &'a Database,
}

impl PlanResolver for Resolver<'_> {
    fn payload_of(&self, table: &str, column: &str, v: &Value) -> Result<i64> {
        self.db
            .catalog
            .table(table)?
            .column(column)?
            .payload_of_value(v)
    }

    fn prefix_payload_range(
        &self,
        table: &str,
        column: &str,
        prefix: &str,
    ) -> Result<Option<(i64, i64)>> {
        let col = self.db.catalog.table(table)?.column(column)?;
        let dict = col.dictionary().ok_or_else(|| {
            BwdError::TypeMismatch(format!("{table}.{column} is not a string column"))
        })?;
        Ok(dict
            .prefix_code_range(prefix)
            .map(|(lo, hi)| (lo as i64, hi as i64)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bwd_core::plan::{AggExpr, AggFunc, Predicate, ScalarExpr as E};
    use bwd_core::CmpOp;

    fn demo_db() -> Database {
        let mut db = Database::new();
        db.create_table(
            "r",
            vec![
                ("a".into(), Column::from_i32((0..10_000).collect())),
                (
                    "b".into(),
                    Column::from_i32((0..10_000).map(|i| i % 100).collect()),
                ),
            ],
        )
        .unwrap();
        db
    }

    fn count_where_a(lo: i64, hi: i64) -> LogicalPlan {
        LogicalPlan::scan("r")
            .filter(Predicate::Between {
                column: "a".into(),
                lo: Value::Int(lo),
                hi: Value::Int(hi),
            })
            .aggregate(
                vec![],
                vec![AggExpr {
                    func: AggFunc::Count,
                    arg: None,
                    alias: "n".into(),
                }],
            )
    }

    #[test]
    fn classic_and_ar_agree() {
        let mut db = demo_db();
        let plan = count_where_a(100, 499);
        let classic = db.run(&plan, ExecMode::Classic).unwrap();
        let ar = db.run(&plan, ExecMode::ApproxRefine).unwrap();
        assert_eq!(classic.rows, ar.rows);
        assert_eq!(classic.rows[0][0], Value::Int(400));
    }

    /// The share of the rows selection 0 of `plan` is predicted to keep,
    /// in either pipe (they agree).
    fn predicted_keep(db: &Database, plan: &LogicalPlan) -> f64 {
        let bound = db.bind(plan, &RewriteOptions::default()).unwrap();
        let modes = [ExecMode::Classic, ExecMode::ApproxRefine];
        let shares = modes.map(|mode| {
            let shape = bill::Shape::resolve(db, &bound, &mode, db.env()).unwrap();
            shape.keep(0).unwrap()
        });
        assert_eq!(shares[0].to_bits(), shares[1].to_bits());
        shares[0]
    }

    /// A column spanning all of `i64` overflows no share: `a >= 0` keeps
    /// half the domain, and two of the three rows in either pipe.
    #[test]
    fn a_full_range_column_predicts_a_finite_share() {
        let mut db = Database::new();
        let a = Column::from_payloads(bwd_types::DataType::Int64, &[i64::MIN, 0, i64::MAX]);
        let a = a.unwrap();
        db.create_table("w", vec![("a".into(), a)]).unwrap();
        let plan = LogicalPlan::scan("w")
            .filter(Predicate::Cmp {
                column: "a".into(),
                op: CmpOp::Ge,
                value: Value::Int(0),
            })
            .aggregate(
                vec![],
                vec![AggExpr {
                    func: AggFunc::Count,
                    arg: None,
                    alias: "n".into(),
                }],
            );
        for mode in [ExecMode::Classic, ExecMode::ApproxRefine] {
            let r = db.run(&plan, mode.clone()).unwrap();
            assert_eq!(r.rows[0][0], Value::Int(2), "{mode:?}");
        }
        assert_eq!(predicted_keep(&db, &plan), 0.5);
    }

    /// Conjuncts on one column are predicted on their merged range: `a > 10
    /// and a < 20` keeps what `a between 11 and 19` keeps, 9 of 10 000
    /// payloads.
    #[test]
    fn conjuncts_on_one_column_predict_their_merged_range() {
        let mut db = demo_db();
        db.bwdecompose("r", "a", 24).unwrap();
        let cmp = |op, v| Predicate::Cmp {
            column: "a".into(),
            op,
            value: Value::Int(v),
        };
        let merged = LogicalPlan::scan("r")
            .filter(Predicate::And(vec![cmp(CmpOp::Gt, 10), cmp(CmpOp::Lt, 20)]))
            .aggregate(
                vec![],
                vec![AggExpr {
                    func: AggFunc::Count,
                    arg: None,
                    alias: "n".into(),
                }],
            );
        let share = predicted_keep(&db, &merged);
        assert_eq!(share, predicted_keep(&db, &count_where_a(11, 19)));
        assert_eq!(share, 9.0 / 10_000.0);
    }

    #[test]
    fn decomposed_column_still_exact() {
        let mut db = demo_db();
        db.bwdecompose("r", "a", 24).unwrap();
        let plan = count_where_a(1000, 2999);
        let ar = db.run(&plan, ExecMode::ApproxRefine).unwrap();
        assert_eq!(ar.rows[0][0], Value::Int(2000));
    }

    #[test]
    fn decomposition_report_volumes() {
        let mut db = demo_db();
        let rep = db.bwdecompose("r", "a", 24).unwrap();
        assert_eq!(rep.resbits, 8);
        // 0..10000 needs 14 bits; 8 on the host leaves 6 on the device.
        assert_eq!(rep.stored_width, 6);
        assert_eq!(rep.host_bytes, 10_000); // 8 bits/row
        assert!(rep.device_bytes < rep.plain_bytes);
        assert!(db.is_bound("r", "a"));
        assert!(db.load_costs().breakdown().pcie > 0.0);
    }

    #[test]
    fn grouped_query_agrees() {
        let mut db = demo_db();
        let plan = LogicalPlan::scan("r")
            .filter(Predicate::Cmp {
                column: "a".into(),
                op: CmpOp::Lt,
                value: Value::Int(5_000),
            })
            .aggregate(
                vec!["b".into()],
                vec![
                    AggExpr {
                        func: AggFunc::Count,
                        arg: None,
                        alias: "n".into(),
                    },
                    AggExpr {
                        func: AggFunc::Sum,
                        arg: Some(E::col("a")),
                        alias: "s".into(),
                    },
                ],
            );
        let classic = db.run(&plan, ExecMode::Classic).unwrap();
        let ar = db.run(&plan, ExecMode::ApproxRefine).unwrap();
        assert_eq!(classic.rows, ar.rows);
        assert_eq!(classic.rows.len(), 100);
    }

    #[test]
    fn approximate_answer_is_a_superset_count() {
        let mut db = demo_db();
        db.bwdecompose("r", "a", 22).unwrap(); // coarse: granule 1024
        let ar = db
            .bind(&count_where_a(100, 499), &Default::default())
            .unwrap();
        db.auto_bind(&ar).unwrap();
        let r = db
            .run_bound(
                &ar,
                ExecMode::ApproxRefineWith(ArExecOptions {
                    approximate_answer: true,
                }),
            )
            .unwrap();
        let approx = r.approx.unwrap();
        assert!(approx.candidate_count >= 400);
        assert!(approx.breakdown.total() <= r.breakdown.total());
        assert_eq!(r.rows[0][0], Value::Int(400));
    }

    #[test]
    fn multi_device_pool_replicates_persistent_data() {
        let mut db =
            Database::with_env(Env::with_devices(vec![bwd_device::DeviceSpec::gtx680(); 2]));
        db.create_table(
            "r",
            vec![("a".into(), Column::from_i32((0..10_000).collect()))],
        )
        .unwrap();
        db.bwdecompose("r", "a", 24).unwrap();
        let devs = db.env().pool.devices();
        assert_eq!(
            devs[0].memory().used(),
            devs[1].memory().used(),
            "replica must reserve identical bytes on the second card"
        );
        assert!(devs[1].memory().used() > 0);
        // Re-decomposing replaces, not leaks, the replicas.
        let before = devs[1].memory().used();
        db.bwdecompose("r", "a", 28).unwrap();
        let devs = db.env().pool.devices();
        assert_eq!(devs[0].memory().used(), devs[1].memory().used());
        assert_ne!(devs[1].memory().used(), before);
        // Any device can serve the query with bit-identical results.
        let plan = count_where_a(100, 499);
        let ar = db.bind(&plan, &Default::default()).unwrap();
        let on_primary = db.run_bound(&ar, ExecMode::ApproxRefine).unwrap();
        let env1 = db.env().on_device(1).unwrap();
        let on_second = db
            .run_bound_in(&ar, ExecMode::ApproxRefine, &env1, 1, None)
            .unwrap();
        assert_eq!(on_primary.rows, on_second.rows);
        assert_eq!(on_primary.breakdown, on_second.breakdown);
    }

    #[test]
    fn redecomposition_needs_room_for_the_larger_copy_not_for_both() {
        // 10 000 rows of 14-bit values: 17 500 B all-device, 7 500 B at
        // 24/8, 40 000 B uncompressed — on two cards of 20 000 B each.
        let card = bwd_device::DeviceSpec::gtx680().with_capacity(20_000);
        let mut db = Database::with_env(Env::with_devices(vec![card; 2]));
        let a = Column::from_i32((0..10_000).collect());
        db.create_table("r", vec![("a".into(), a)]).unwrap();
        let used = |db: &Database| -> Vec<u64> {
            let devices = db.env().pool.devices();
            devices.iter().map(|d| d.memory().used()).collect()
        };
        db.bwdecompose("r", "a", 32).unwrap();
        assert_eq!(used(&db), [17_500, 17_500]);
        // Shrinking (the set-up's all-device → 24/8 step): old + new is
        // 25 000 B, the result alone fits.
        db.bwdecompose("r", "a", 24).unwrap();
        assert_eq!(used(&db), [7_500, 7_500]);
        // Growing back: 12 500 B free + the 7 500 B it gives back.
        db.bwdecompose("r", "a", 32).unwrap();
        assert_eq!(used(&db), [17_500, 17_500]);
        // What cannot fit even alone fails before anything is released.
        match db.bwdecompose_spec("r", "a", &DecompositionSpec::uncompressed(32)) {
            Err(BwdError::DeviceOutOfMemory {
                requested: 40_000,
                available: 20_000,
            }) => {}
            other => panic!("expected a 40 000 B request against 20 000 B, got {other:?}"),
        }
        assert_eq!(used(&db), [17_500, 17_500]);
        let old = db.bound_column("r", "a").unwrap().meta();
        assert_eq!(old.resbits(), 0, "the old binding still serves");
        let n = db.run(&count_where_a(100, 499), ExecMode::ApproxRefine);
        assert_eq!(n.unwrap().rows[0][0], Value::Int(400));
        for device in db.env().pool.devices() {
            assert_eq!(device.memory().peak(), 17_500, "never old + new");
        }
    }

    /// Binding the split a column already holds — every `auto_bind` of an
    /// unbound column — packs nothing: the device array is the catalog's run.
    #[test]
    fn binding_the_held_split_shares_its_words() {
        let mut db = demo_db();
        let table = |db: &Database| {
            db.catalog()
                .table("r")
                .unwrap()
                .column("a")
                .unwrap()
                .clone()
        };
        let run: *const _ = table(&db).split().unwrap().approx();
        let plan = db
            .bind(&count_where_a(100, 499), &Default::default())
            .unwrap();
        db.auto_bind(&plan).unwrap();
        let bound = db.bound_column("r", "a").unwrap().approx().data();
        assert!(std::ptr::eq(bound, run), "auto_bind packed a copy");
        assert!(std::ptr::eq(table(&db).split().unwrap().approx(), run));
    }

    /// A first decomposition that cannot fit is refused before the column
    /// is handed over: the error names the bytes the pack would have
    /// uploaded, and the catalog keeps the very runs it had — its
    /// all-device split, same payloads —, unbound, with the card's memory
    /// untouched.
    #[test]
    fn a_first_decomposition_that_cannot_fit_leaves_the_column() {
        // `a`: 10 000 rows of 14-bit values, 40 000 B uncompressed; `b`
        // all-device 8 750 B, on a card of 20 000 B.
        let card = bwd_device::DeviceSpec::gtx680().with_capacity(20_000);
        let mut db = Database::with_env(Env::with_devices(vec![card]));
        let a: Vec<i64> = (0..10_000).map(|i| i * 7 % 10_000).collect();
        let b = Column::from_i32((0..10_000).map(|i| i % 100).collect());
        let a_col = Column::from_payloads(bwd_types::DataType::Int64, &a).unwrap();
        let cols = vec![("a".into(), a_col), ("b".into(), b)];
        db.create_table("r", cols).unwrap();
        db.bwdecompose("r", "b", 32).unwrap();
        let used = db.env().device.memory().used();
        assert_eq!(used, 8_750);
        let column = |db: &Database| {
            db.catalog()
                .table("r")
                .unwrap()
                .column("a")
                .unwrap()
                .clone()
        };
        let held: *const _ = column(&db).split().unwrap().approx();
        match db.bwdecompose_spec("r", "a", &DecompositionSpec::uncompressed(64)) {
            Err(BwdError::DeviceOutOfMemory {
                requested: 80_000,
                available: 11_250,
            }) => {}
            other => panic!("expected 80 000 B against 11 250 B, got {other:?}"),
        }
        let after = column(&db);
        assert!(after.split().unwrap().meta().fully_device_resident());
        assert!(
            std::ptr::eq(after.split().unwrap().approx(), held),
            "the run moved"
        );
        assert_eq!(after.payloads(), a);
        assert!(!db.is_bound("r", "a"));
        assert_eq!(db.env().device.memory().used(), used);
        drop(after);
        // What fits is split from that same column.
        let report = db.bwdecompose("r", "a", 56).unwrap();
        assert_eq!((report.device_bytes, report.host_bytes), (7_500, 10_000));
        assert_eq!(column(&db).payloads(), a);
    }

    /// A column's round trip all-device → 24/8 → all-device, then a
    /// re-decomposition that cannot fit: at every step both pipes return
    /// the rows and bills — to the bit — of the commit that still kept the
    /// plain payloads beside the split, and the catalog's column reads
    /// back the payloads it was loaded with (after the failed step: the
    /// old split, intact).
    #[test]
    fn a_round_trip_through_the_split_answers_as_the_plain_column_did() {
        const PINNED: [u64; 4] = [
            5531037674305693889,
            15689823285867732919,
            5531037674305693889,
            5531037674305693889,
        ];
        // 10 000 rows of 14-bit values: 17 500 B all-device, 7 500 B at
        // 24/8, 40 000 B uncompressed; `b` all-device 8 750 B.
        let card = bwd_device::DeviceSpec::gtx680().with_capacity(30_000);
        let mut db = Database::with_env(Env::with_devices(vec![card]));
        let a: Vec<i32> = (0..10_000).map(|i| i * 7 % 10_000).collect();
        let b = Column::from_i32((0..10_000).map(|i| i % 100).collect());
        let cols = vec![("a".into(), Column::from_i32(a.clone())), ("b".into(), b)];
        db.create_table("r", cols).unwrap();
        let grouped = LogicalPlan::scan("r")
            .filter(Predicate::Cmp {
                column: "a".into(),
                op: CmpOp::Lt,
                value: Value::Int(5_000),
            })
            .aggregate(
                vec!["b".into()],
                vec![AggExpr {
                    func: AggFunc::Sum,
                    arg: Some(E::col("a")),
                    alias: "s".into(),
                }],
            );
        let plans = [count_where_a(100, 499), grouped];
        let mut digests = Vec::new();
        for bits in [32, 24, 32, 0] {
            match bits {
                0 => {
                    let spec = DecompositionSpec::uncompressed(32);
                    let failed = db.bwdecompose_spec("r", "a", &spec);
                    assert!(matches!(failed, Err(BwdError::DeviceOutOfMemory { .. })));
                }
                _ => drop(db.bwdecompose("r", "a", bits).unwrap()),
            }
            let col = db.catalog().table("r").unwrap().column("a").unwrap();
            let want: Vec<i64> = a.iter().map(|&v| v as i64).collect();
            assert_eq!(col.payloads(), want, "{bits}");
            for plan in &plans {
                for mode in [ExecMode::Classic, ExecMode::ApproxRefine] {
                    digests.push(digest(&db.run(plan, mode).unwrap()));
                }
            }
        }
        let per_step: Vec<u64> = (digests.chunks(4))
            .map(|c| c.iter().fold(0, |h: u64, &d| h.rotate_left(7) ^ d))
            .collect();
        assert_eq!(per_step, PINNED);
    }

    #[test]
    fn device_budget_underestimate_fails_then_unlimited_succeeds() {
        let mut db = demo_db();
        let plan = count_where_a(100, 499);
        let ar = db.bind(&plan, &Default::default()).unwrap();
        db.auto_bind(&ar).unwrap();
        let budgeted = |budget| db.run_bound_in(&ar, ExecMode::ApproxRefine, db.env(), 1, budget);
        match budgeted(Some(16)) {
            Err(BwdError::DeviceOutOfMemory {
                requested,
                available,
            }) => {
                assert!(requested > available);
                assert_eq!(available, 16);
            }
            other => panic!("expected budget OOM, got {other:?}"),
        }
        // A worst-case-sized budget changes nothing.
        let rows = db.catalog().table("r").unwrap().len() as u64;
        let budgeted = budgeted(Some(rows * (12 + 2 * 8))).unwrap();
        let unlimited = db.run_bound(&ar, ExecMode::ApproxRefine).unwrap();
        assert_eq!(budgeted.rows, unlimited.rows);
        assert_eq!(budgeted.breakdown, unlimited.breakdown);
    }

    #[test]
    fn device_budget_counts_distinct_gathered_columns() {
        // `needed` = [a, b, a] (group keys then the aggregate argument):
        // the budget must bill 2 distinct columns — matching the
        // admission estimate — not 3, or a worst-case-sized budget could
        // spuriously OOM.
        let mut db = demo_db();
        let plan = LogicalPlan::scan("r")
            .filter(Predicate::Between {
                column: "a".into(),
                lo: Value::Int(0),
                hi: Value::Int(9_999),
            })
            .aggregate(
                vec!["a".into(), "b".into()],
                vec![AggExpr {
                    func: AggFunc::Sum,
                    arg: Some(E::col("a")),
                    alias: "s".into(),
                }],
            );
        let ar = db.bind(&plan, &Default::default()).unwrap();
        db.auto_bind(&ar).unwrap();
        let rows = db.catalog().table("r").unwrap().len() as u64;
        // Exactly the worst case for 1 selection + 2 distinct gathers,
        // and the table of its 10 000 groups × one accumulator, past
        // shared memory.
        let budget = rows * (12 + 2 * 8) + rows * 16;
        let budgeted = db
            .run_bound_in(&ar, ExecMode::ApproxRefine, db.env(), 1, Some(budget))
            .unwrap();
        let unlimited = db.run_bound(&ar, ExecMode::ApproxRefine).unwrap();
        assert_eq!(budgeted.rows, unlimited.rows);
        assert_eq!(budgeted.breakdown, unlimited.breakdown);
    }

    /// What a run returned and billed, as one number: its rows, survivors,
    /// per-component seconds (to the bit) and bytes.
    fn digest(r: &QueryResult) -> u64 {
        use std::hash::{Hash, Hasher};
        let mut h = bwd_types::hash::FxHasher::default();
        let bill = [r.breakdown.device, r.breakdown.host, r.breakdown.pcie].map(f64::to_bits);
        format!("{:?} {} {bill:?} {:?}", r.rows, r.survivors, r.traffic).hash(&mut h);
        h.finish()
    }

    /// The FK link is packed at the dimension's row width: over seeded
    /// dimensions of 1, 2, 2^k and 2^k + 1 rows it is 0, 1, k and k + 1
    /// bits wide, and at every width a classic dimension selection and
    /// fetch, the A&R refinement of a 24/8 dimension column through it
    /// and a Q14-shaped plan in both pipes return — on 1 and on 3
    /// workers — the rows and the bill, to the bit, of the commit that
    /// still kept a word-wide host copy of the mapping (the bill re-taken
    /// when the device took over these small refinements).
    #[test]
    fn every_link_width_answers_and_bills_as_the_word_wide_map_did() {
        use bwd_core::plan::BinOp;
        const FACTS: usize = 20_000;
        const PINNED: [u64; 6] = [
            8828194981329522238,
            15906120356541158608,
            5255284504282062498,
            11718996595882036573,
            16334083683092285340,
            4176271450791184361,
        ];
        let mut rng = bwd_types::SplitMix64::new(32);
        let ks = [2 + rng.below(6) as u32, 8 + rng.below(4) as u32];
        let dims = ks
            .iter()
            .flat_map(|&k| [(1 << k, k), ((1 << k) + 1, k + 1)]);
        let dims = [(1usize, 0u32), (2, 1)].into_iter().chain(dims);
        let mut digests = Vec::new();
        for (rows, width) in dims {
            let mut draw = |n: usize| rng.below(n as u64) as i32;
            let ids: Vec<i32> = (0..rows as i32).map(|i| 7 * i + 3).rev().collect();
            let dim = vec![
                ("id".into(), Column::from_i32(ids.clone())),
                (
                    "x".into(),
                    Column::from_i32((0..rows).map(|_| draw(100_000) - 50_000).collect()),
                ),
                (
                    "p".into(),
                    Column::from_i32((0..rows).map(|_| draw(10)).collect()),
                ),
            ];
            let fact = vec![
                (
                    "fk".into(),
                    Column::from_i32((0..FACTS).map(|_| ids[draw(rows) as usize]).collect()),
                ),
                (
                    "s".into(),
                    Column::from_i32((0..FACTS).map(|_| draw(1000)).collect()),
                ),
                (
                    "v".into(),
                    Column::from_i32((0..FACTS).map(|_| 1 + draw(1000)).collect()),
                ),
                (
                    "w".into(),
                    Column::from_i32((0..FACTS).map(|_| draw(10)).collect()),
                ),
            ];
            let mut db = Database::new();
            db.create_table("d", dim).unwrap();
            db.create_table("t", fact).unwrap();
            db.declare_fk("t", "fk", "d", "id").unwrap();
            assert_eq!(
                db.fk_index("t", "fk").unwrap().device().width(),
                width,
                "{rows} rows"
            );
            db.bwdecompose("d", "x", 24).unwrap();
            db.bwdecompose("t", "s", 24).unwrap();
            let between = |column: &str, lo: i64, hi: i64| Predicate::Between {
                column: column.into(),
                lo: Value::Int(lo),
                hi: Value::Int(hi),
            };
            let net = || {
                E::col("v").binary(
                    BinOp::Mul,
                    E::Literal(Value::Int(10)).binary(BinOp::Sub, E::col("w")),
                )
            };
            let promo = E::Case {
                when: Box::new(between("d.p", 2, 4)),
                then: Box::new(net()),
                otherwise: Box::new(E::Literal(Value::Int(0))),
            };
            let sum = |alias: &str, arg| AggExpr {
                func: AggFunc::Sum,
                arg: Some(arg),
                alias: alias.into(),
            };
            let scan = LogicalPlan::scan("t").fk_join("fk", "d");
            let plans = [
                (scan.clone().filter(between("d.x", -20_000, 9_000))).project(vec![
                    (E::col("d.x"), "x".into()),
                    (E::col("d.p"), "p".into()),
                ]),
                (scan.filter(between("s", 100, 340)))
                    .aggregate(vec![], vec![sum("promo", promo), sum("all", net())]),
            ];
            for plan in plans {
                let plan = db.bind(&plan, &RewriteOptions::default()).unwrap();
                db.auto_bind(&plan).unwrap();
                for mode in [ExecMode::Classic, ExecMode::ApproxRefine] {
                    let run = |m| {
                        db.run_bound_in(&plan, mode.clone(), db.env(), m, None)
                            .unwrap()
                    };
                    let one = digest(&run(1));
                    assert_eq!(one, digest(&run(3)), "{rows} rows, {mode:?}, 3 workers");
                    digests.push(one);
                }
            }
        }
        let per_dim: Vec<u64> = (digests.chunks(4))
            .map(|c| c.iter().fold(0, |h: u64, &d| h.rotate_left(7) ^ d))
            .collect();
        assert_eq!(
            per_dim, PINNED,
            "rows or bill moved (dimensions of 1, 2, 2^{ks:?} (+1) rows)"
        );
    }

    #[test]
    fn unbound_column_error_mentions_bwdecompose() {
        let db = demo_db();
        let err = db.bound_column("r", "a").unwrap_err();
        assert!(err.to_string().contains("bwdecompose"));
    }
}
