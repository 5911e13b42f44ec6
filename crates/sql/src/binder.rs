//! Semantic analysis: resolve a parsed query against the catalog and
//! produce a logical plan.
//!
//! Binding decisions mirror the engine's execution model:
//!
//! * two-table queries must join through a *declared* foreign key — the
//!   binder finds the `fact.fk = dim.pk` conjunct and turns it into the
//!   pre-indexed FK join of §IV-D;
//! * `like 'PREFIX%'` binds to an ordered-dictionary range (§VI-D1);
//! * `count(col)` canonicalizes to `count(*)` (the engine stores no NULLs);
//! * aggregate results are emitted as `group keys ++ aggregates`; scalar
//!   arithmetic *over* aggregate results (Q14's final ratio) is left to
//!   the client, as the plan language has no post-aggregation projection.

use crate::parser::{BinKind, Expr, Query, SelectItem, Statement};
use bwd_core::plan::{AggExpr, AggFunc, BinOp, LogicalPlan, Predicate, ScalarExpr};
use bwd_core::CmpOp;
use bwd_engine::Catalog;
use bwd_types::{BwdError, DataType, Result, Value};

/// A bound statement, ready for the engine.
#[derive(Debug, Clone, PartialEq)]
pub enum BoundStatement {
    /// A query plan.
    Query(LogicalPlan),
    /// A decomposition command.
    Decompose {
        /// Target table.
        table: String,
        /// Target column.
        column: String,
        /// Device-resident bits.
        device_bits: u32,
    },
}

/// Bind a parsed statement against the catalog.
pub fn bind(stmt: &Statement, catalog: &Catalog) -> Result<BoundStatement> {
    match stmt {
        Statement::Decompose {
            table,
            column,
            device_bits,
        } => {
            catalog.table(table)?.column(column)?;
            Ok(BoundStatement::Decompose {
                table: table.clone(),
                column: column.clone(),
                device_bits: *device_bits,
            })
        }
        Statement::Query(q) => Ok(BoundStatement::Query(bind_query(q, catalog)?)),
    }
}

struct Binder<'a> {
    catalog: &'a Catalog,
    fact: String,
    dim: Option<String>,
}

fn bind_query(q: &Query, catalog: &Catalog) -> Result<LogicalPlan> {
    if q.from.is_empty() || q.from.len() > 2 {
        return Err(BwdError::Bind(format!(
            "FROM must name one or two tables, got {}",
            q.from.len()
        )));
    }
    let mut conjuncts = flatten_and(q.where_clause.as_ref());

    // Two-table queries: locate the FK equi-join conjunct.
    let (fact, dim, fact_key) = if q.from.len() == 2 {
        let (a, b) = (&q.from[0], &q.from[1]);
        catalog.table(a)?;
        catalog.table(b)?;
        let mut found: Option<(String, String, usize)> = None;
        for (i, c) in conjuncts.iter().enumerate() {
            if let Expr::Bin(BinKind::Eq, l, r) = c {
                if let (Expr::Col(ql, cl), Expr::Col(qr, cr)) = (l.as_ref(), r.as_ref()) {
                    let owner = |q: &Option<String>, c: &str| -> Option<String> {
                        match q {
                            Some(t) => Some(t.clone()),
                            None => {
                                let in_a = catalog.table(a).ok()?.has_column(c);
                                let in_b = catalog.table(b).ok()?.has_column(c);
                                match (in_a, in_b) {
                                    (true, false) => Some(a.clone()),
                                    (false, true) => Some(b.clone()),
                                    _ => None,
                                }
                            }
                        }
                    };
                    let (Some(tl), Some(tr)) = (owner(ql, cl), owner(qr, cr)) else {
                        continue;
                    };
                    for ((ft, fc), (dt, dc)) in [((&tl, cl), (&tr, cr)), ((&tr, cr), (&tl, cl))] {
                        if let Some(decl) = catalog.fk_from(ft, fc) {
                            if decl.dim_table == *dt && decl.dim_key == *dc {
                                found = Some((ft.clone(), fc.clone(), i));
                            }
                        }
                    }
                }
            }
        }
        let (fact, key, idx) = found.ok_or_else(|| {
            BwdError::Bind(format!(
                "no declared foreign key joins {} and {} (declare_fk first)",
                a, b
            ))
        })?;
        conjuncts.remove(idx);
        let dim = if fact == *a { b.clone() } else { a.clone() };
        (fact, Some(dim), Some(key))
    } else {
        catalog.table(&q.from[0])?;
        (q.from[0].clone(), None, None)
    };

    let binder = Binder { catalog, fact, dim };

    // Predicates.
    let mut preds = Vec::new();
    for c in &conjuncts {
        preds.push(binder.bind_predicate(c)?);
    }

    // Select list: aggregates vs scalars.
    let group_by: Vec<String> = q
        .group_by
        .iter()
        .map(|g| match g {
            Expr::Col(q, c) => binder.qualify(q.as_deref(), c),
            other => Err(BwdError::Bind(format!(
                "GROUP BY supports plain columns, got {other:?}"
            ))),
        })
        .collect::<Result<_>>()?;

    let mut aggs: Vec<AggExpr> = Vec::new();
    let mut scalars: Vec<(ScalarExpr, String)> = Vec::new();
    for (i, item) in q.select.iter().enumerate() {
        binder.bind_select_item(item, i, &group_by, &mut aggs, &mut scalars)?;
    }

    let mut plan = LogicalPlan::scan(binder.fact.clone());
    if let (Some(dim), Some(key)) = (&binder.dim, &fact_key) {
        plan = plan.fk_join(key.clone(), dim.clone());
    }
    if !preds.is_empty() {
        plan = plan.filter(Predicate::And(preds));
    }
    if !aggs.is_empty() {
        if !scalars.is_empty() {
            return Err(BwdError::Bind(
                "mixing non-grouped scalars with aggregates".into(),
            ));
        }
        plan = plan.aggregate(group_by, aggs);
    } else {
        if !group_by.is_empty() {
            return Err(BwdError::Bind("GROUP BY without aggregates".into()));
        }
        plan = plan.project(scalars);
    }
    Ok(plan)
}

impl Binder<'_> {
    /// Resolve `[qualifier.]name` to the plan-level qualified name
    /// (dimension columns become `dim.name`).
    fn qualify(&self, qualifier: Option<&str>, name: &str) -> Result<String> {
        match qualifier {
            Some(t) if t == self.fact => {
                self.catalog.table(&self.fact)?.column(name)?;
                Ok(name.to_string())
            }
            Some(t) if self.dim.as_deref() == Some(t) => {
                self.catalog.table(t)?.column(name)?;
                Ok(format!("{t}.{name}"))
            }
            Some(t) => Err(BwdError::Bind(format!("unknown table {t}"))),
            None => {
                if self.catalog.table(&self.fact)?.has_column(name) {
                    Ok(name.to_string())
                } else if let Some(d) = &self.dim {
                    if self.catalog.table(d)?.has_column(name) {
                        Ok(format!("{d}.{name}"))
                    } else {
                        Err(BwdError::Bind(format!("unknown column {name}")))
                    }
                } else {
                    Err(BwdError::Bind(format!("unknown column {name}")))
                }
            }
        }
    }

    /// The logical type of a qualified column.
    fn dtype_of(&self, qualified: &str) -> Result<DataType> {
        let (t, c) = match qualified.split_once('.') {
            Some((t, c)) => (t, c),
            None => (self.fact.as_str(), qualified),
        };
        Ok(self.catalog.table(t)?.column(c)?.dtype())
    }

    /// Convert a literal AST node against a column's type.
    fn literal(&self, e: &Expr, dtype: DataType) -> Result<Value> {
        Ok(match (e, dtype) {
            (Expr::Int(v), _) => Value::Int(*v),
            (Expr::Dec(u, s), _) => Value::decimal(*u, *s),
            (Expr::Date(d), _) => Value::Date(*d),
            (Expr::Str(s), DataType::Date) => Value::Date(
                bwd_types::Date::parse(s)
                    .ok_or_else(|| BwdError::Bind(format!("bad date literal {s:?}")))?,
            ),
            (Expr::Str(s), _) => Value::Str(s.clone()),
            (other, _) => {
                return Err(BwdError::Bind(format!(
                    "expected a literal, found {other:?}"
                )))
            }
        })
    }

    fn bind_predicate(&self, e: &Expr) -> Result<Predicate> {
        match e {
            Expr::Bin(BinKind::And, l, r) => Ok(Predicate::And(vec![
                self.bind_predicate(l)?,
                self.bind_predicate(r)?,
            ])),
            Expr::Bin(BinKind::Or, ..) => {
                Err(BwdError::Unsupported("disjunctive predicates (OR)".into()))
            }
            Expr::Bin(kind, l, r) => {
                let (col_expr, lit_expr, flip) = match (l.as_ref(), r.as_ref()) {
                    (Expr::Col(..), _) => (l.as_ref(), r.as_ref(), false),
                    (_, Expr::Col(..)) => (r.as_ref(), l.as_ref(), true),
                    _ => {
                        return Err(BwdError::Unsupported(
                            "predicates must compare a column with a literal".into(),
                        ))
                    }
                };
                let Expr::Col(q, c) = col_expr else {
                    unreachable!()
                };
                let column = self.qualify(q.as_deref(), c)?;
                let value = self.literal(lit_expr, self.dtype_of(&column)?)?;
                let op = cmp_of(*kind, flip)?;
                Ok(Predicate::Cmp { column, op, value })
            }
            Expr::Between(c, lo, hi) => {
                let Expr::Col(q, name) = c.as_ref() else {
                    return Err(BwdError::Unsupported(
                        "BETWEEN over computed expressions".into(),
                    ));
                };
                let column = self.qualify(q.as_deref(), name)?;
                let dt = self.dtype_of(&column)?;
                Ok(Predicate::Between {
                    column,
                    lo: self.literal(lo, dt)?,
                    hi: self.literal(hi, dt)?,
                })
            }
            Expr::Like(c, pattern) => {
                let Expr::Col(q, name) = c.as_ref() else {
                    return Err(BwdError::Unsupported("LIKE over expressions".into()));
                };
                let column = self.qualify(q.as_deref(), name)?;
                let prefix = pattern.strip_suffix('%').ok_or_else(|| {
                    BwdError::Unsupported(format!(
                        "only prefix LIKE patterns are supported, got {pattern:?}"
                    ))
                })?;
                if prefix.contains('%') || prefix.contains('_') {
                    return Err(BwdError::Unsupported(format!(
                        "only prefix LIKE patterns are supported, got {pattern:?}"
                    )));
                }
                Ok(Predicate::PrefixLike {
                    column,
                    prefix: prefix.to_string(),
                })
            }
            other => Err(BwdError::Bind(format!("not a predicate: {other:?}"))),
        }
    }

    fn bind_scalar(&self, e: &Expr) -> Result<ScalarExpr> {
        match e {
            Expr::Col(q, c) => Ok(ScalarExpr::Column(self.qualify(q.as_deref(), c)?)),
            Expr::Int(v) => Ok(ScalarExpr::Literal(Value::Int(*v))),
            Expr::Dec(u, s) => Ok(ScalarExpr::Literal(Value::decimal(*u, *s))),
            Expr::Date(d) => Ok(ScalarExpr::Literal(Value::Date(*d))),
            Expr::Str(s) => Ok(ScalarExpr::Literal(Value::Str(s.clone()))),
            Expr::Bin(kind, l, r) => {
                let op = match kind {
                    BinKind::Add => BinOp::Add,
                    BinKind::Sub => BinOp::Sub,
                    BinKind::Mul => BinOp::Mul,
                    BinKind::Div => BinOp::Div,
                    other => {
                        return Err(BwdError::Bind(format!(
                            "comparison {other:?} outside CASE conditions"
                        )))
                    }
                };
                Ok(self.bind_scalar(l)?.binary(op, self.bind_scalar(r)?))
            }
            Expr::Case(when, then, otherwise) => Ok(ScalarExpr::Case {
                when: Box::new(self.bind_predicate(when)?),
                then: Box::new(self.bind_scalar(then)?),
                otherwise: Box::new(self.bind_scalar(otherwise)?),
            }),
            other => Err(BwdError::Bind(format!("unsupported expression {other:?}"))),
        }
    }

    fn bind_select_item(
        &self,
        item: &SelectItem,
        index: usize,
        group_by: &[String],
        aggs: &mut Vec<AggExpr>,
        scalars: &mut Vec<(ScalarExpr, String)>,
    ) -> Result<()> {
        match &item.expr {
            Expr::Func(name, args) => {
                let func = match name.as_str() {
                    "count" => AggFunc::Count,
                    "sum" => AggFunc::Sum,
                    "avg" => AggFunc::Avg,
                    "min" => AggFunc::Min,
                    "max" => AggFunc::Max,
                    other => return Err(BwdError::Bind(format!("unknown function {other}"))),
                };
                let arg = match (func, args.as_slice()) {
                    // count(*) and count(col) coincide without NULLs.
                    (AggFunc::Count, [Expr::Star]) | (AggFunc::Count, [Expr::Col(..)]) => None,
                    (AggFunc::Count, [e]) => Some(self.bind_scalar(e)?),
                    (_, [e]) => Some(self.bind_scalar(e)?),
                    _ => {
                        return Err(BwdError::Bind(format!(
                            "{name} expects exactly one argument"
                        )))
                    }
                };
                let alias = item
                    .alias
                    .clone()
                    .unwrap_or_else(|| format!("{name}_{index}"));
                aggs.push(AggExpr { func, arg, alias });
            }
            Expr::Col(q, c) => {
                let qualified = self.qualify(q.as_deref(), c)?;
                if group_by.contains(&qualified) {
                    // Group keys are emitted automatically, first.
                    return Ok(());
                }
                scalars.push((
                    ScalarExpr::Column(qualified.clone()),
                    item.alias.clone().unwrap_or(qualified),
                ));
            }
            other => {
                let alias = item
                    .alias
                    .clone()
                    .unwrap_or_else(|| format!("expr_{index}"));
                scalars.push((self.bind_scalar(other)?, alias));
            }
        }
        Ok(())
    }
}

fn flatten_and(e: Option<&Expr>) -> Vec<Expr> {
    let mut out = Vec::new();
    fn walk(e: &Expr, out: &mut Vec<Expr>) {
        match e {
            Expr::Bin(BinKind::And, l, r) => {
                walk(l, out);
                walk(r, out);
            }
            other => out.push(other.clone()),
        }
    }
    if let Some(e) = e {
        walk(e, &mut out);
    }
    out
}

fn cmp_of(kind: BinKind, flip: bool) -> Result<CmpOp> {
    let op = match kind {
        BinKind::Eq => CmpOp::Eq,
        BinKind::Ne => CmpOp::Ne,
        BinKind::Lt => CmpOp::Lt,
        BinKind::Le => CmpOp::Le,
        BinKind::Gt => CmpOp::Gt,
        BinKind::Ge => CmpOp::Ge,
        other => return Err(BwdError::Bind(format!("{other:?} is not a comparison"))),
    };
    Ok(if flip {
        match op {
            CmpOp::Lt => CmpOp::Gt,
            CmpOp::Le => CmpOp::Ge,
            CmpOp::Gt => CmpOp::Lt,
            CmpOp::Ge => CmpOp::Le,
            eqne => eqne,
        }
    } else {
        op
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse;
    use bwd_engine::{Catalog, FkDecl, Table};
    use bwd_storage::Column;

    fn catalog() -> Catalog {
        let mut cat = Catalog::new();
        cat.add_table(
            Table::new(
                "lineitem",
                vec![
                    ("l_partkey".into(), Column::from_i32(vec![1, 2, 1])),
                    ("l_quantity".into(), Column::from_i32(vec![10, 20, 30])),
                    (
                        "l_extendedprice".into(),
                        Column::from_payloads(bwd_types::DataType::decimal(2), &[1000, 2000, 3000])
                            .unwrap(),
                    ),
                    (
                        "l_shipdate".into(),
                        Column::from_payloads(
                            bwd_types::DataType::Date,
                            &["1994-03-01", "1995-06-15", "1996-01-20"]
                                .map(|d| bwd_types::Date::parse(d).unwrap().days()),
                        )
                        .unwrap(),
                    ),
                ],
            )
            .unwrap(),
        )
        .unwrap();
        cat.add_table(
            Table::new(
                "part",
                vec![
                    ("p_partkey".into(), Column::from_i32(vec![1, 2])),
                    (
                        "p_type".into(),
                        Column::from_strings(&["PROMO BRUSHED", "STANDARD PLATED"]),
                    ),
                ],
            )
            .unwrap(),
        )
        .unwrap();
        cat.add_fk(FkDecl {
            fact_table: "lineitem".into(),
            fact_key: "l_partkey".into(),
            dim_table: "part".into(),
            dim_key: "p_partkey".into(),
        })
        .unwrap();
        cat
    }

    fn bind_sql(sql: &str) -> Result<LogicalPlan> {
        let cat = catalog();
        match bind(&parse(sql)?, &cat)? {
            BoundStatement::Query(p) => Ok(p),
            other => panic!("expected query, got {other:?}"),
        }
    }

    #[test]
    fn binds_single_table_aggregate() {
        let p = bind_sql(
            "select sum(l_quantity) as q, count(*) as n from lineitem \
             where l_shipdate >= date '1995-01-01'",
        )
        .unwrap();
        let LogicalPlan::Aggregate { aggs, group_by, .. } = &p else {
            panic!("{p:?}")
        };
        assert!(group_by.is_empty());
        assert_eq!(aggs.len(), 2);
        assert_eq!(aggs[0].alias, "q");
        assert!(aggs[1].arg.is_none());
    }

    #[test]
    fn binds_fk_join_and_dim_columns() {
        let p = bind_sql(
            "select count(*) from lineitem, part \
             where l_partkey = p_partkey and p_type like 'PROMO%'",
        )
        .unwrap();
        // Plan spine: Scan -> FkJoin -> Filter -> Aggregate.
        let LogicalPlan::Aggregate { input, .. } = &p else {
            panic!()
        };
        let LogicalPlan::Filter { input, predicate } = input.as_ref() else {
            panic!()
        };
        assert!(matches!(
            predicate.conjuncts()[0],
            Predicate::PrefixLike { column, .. } if column == "part.p_type"
        ));
        assert!(matches!(
            input.as_ref(),
            LogicalPlan::FkJoin { fact_key, dim_table, .. }
                if fact_key == "l_partkey" && dim_table == "part"
        ));
    }

    #[test]
    fn flipped_comparison_normalizes() {
        let p = bind_sql("select count(*) from lineitem where 20 <= l_quantity").unwrap();
        let LogicalPlan::Aggregate { input, .. } = &p else {
            panic!()
        };
        let LogicalPlan::Filter { predicate, .. } = input.as_ref() else {
            panic!()
        };
        assert!(matches!(
            predicate.conjuncts()[0],
            Predicate::Cmp { op: CmpOp::Ge, .. }
        ));
    }

    #[test]
    fn rejects_or_and_suffix_like() {
        assert!(
            bind_sql("select count(*) from lineitem where l_quantity < 5 or l_quantity > 10")
                .is_err()
        );
        assert!(bind_sql(
            "select count(*) from lineitem, part \
             where l_partkey = p_partkey and p_type like '%BRUSHED'"
        )
        .is_err());
    }

    #[test]
    fn rejects_join_without_declared_fk() {
        assert!(
            bind_sql("select count(*) from lineitem, part where l_quantity = p_partkey").is_err()
        );
    }

    #[test]
    fn binds_decompose() {
        let cat = catalog();
        let b = bind(
            &parse("select bwdecompose(l_quantity, 24) from lineitem").unwrap(),
            &cat,
        )
        .unwrap();
        assert_eq!(
            b,
            BoundStatement::Decompose {
                table: "lineitem".into(),
                column: "l_quantity".into(),
                device_bits: 24
            }
        );
        assert!(bind(
            &parse("select bwdecompose(nope, 24) from lineitem").unwrap(),
            &cat
        )
        .is_err());
    }

    #[test]
    fn string_literal_against_date_column() {
        let p = bind_sql("select count(*) from lineitem where l_shipdate < '1995-01-01'").unwrap();
        let LogicalPlan::Aggregate { input, .. } = &p else {
            panic!()
        };
        let LogicalPlan::Filter { predicate, .. } = input.as_ref() else {
            panic!()
        };
        let Predicate::Cmp { value, .. } = predicate.conjuncts()[0] else {
            panic!()
        };
        assert!(matches!(value, Value::Date(_)));
    }

    #[test]
    fn group_keys_not_duplicated() {
        let p = bind_sql("select l_quantity, count(*) from lineitem group by l_quantity").unwrap();
        let LogicalPlan::Aggregate { aggs, group_by, .. } = &p else {
            panic!()
        };
        assert_eq!(group_by, &["l_quantity"]);
        assert_eq!(aggs.len(), 1, "group key must not duplicate into scalars");
    }
}
