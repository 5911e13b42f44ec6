//! Scalar expressions over slice-local row blocks.
//!
//! Both executors (classic and A&R) materialize the columns the query
//! tail needs as payload vectors aligned with one *slice* of surviving
//! rows — a [`RowBlock`] of at most [`SLICE_ROWS`] rows, refilled in place
//! slice after slice — and [`crate::tail`] evaluates bound expressions
//! over it column-at-a-time with explicit decimal-scale tracking
//! (`price * (1 - discount)` multiplies scale-2 payloads into a scale-4
//! result, exactly like MonetDB's fixed-point arithmetic). Binding
//! resolves column names, literal payloads and dictionary prefix ranges
//! once per query.

use crate::tail::SLICE_ROWS;
use bwd_core::plan::{BinOp, Predicate, ScalarExpr};
use bwd_core::RangePred;
use bwd_storage::Logical;
use bwd_types::{BwdError, Result, Value};

/// One materialized column aligned with the slice's surviving rows.
#[derive(Debug, Clone)]
pub struct ColumnSlot {
    /// Qualified column name.
    pub name: String,
    /// Payloads, one per row of the current slice.
    pub payloads: Vec<i64>,
    /// Logical type and dictionary: scale, literal binding, rendering.
    pub logical: Logical,
}

/// A set of aligned column slots over one slice of surviving rows. Each
/// tail worker owns one and refills it per slice, so no query ever holds
/// a survivors × columns materialization.
#[derive(Debug, Clone, Default)]
pub struct RowBlock {
    slots: Vec<ColumnSlot>,
    len: usize,
}

impl RowBlock {
    /// An empty block of `len` rows (slots added incrementally).
    pub fn new(len: usize) -> Self {
        debug_assert!(len <= SLICE_ROWS, "row block of {len} rows exceeds a slice");
        RowBlock {
            slots: Vec::new(),
            len,
        }
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the block has no rows.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Add a slot.
    ///
    /// # Panics
    /// Panics if the payload length differs from the block length.
    pub fn push_slot(&mut self, slot: ColumnSlot) {
        assert_eq!(slot.payloads.len(), self.len, "slot misaligned with block");
        self.slots.push(slot);
    }

    /// Index of a named slot.
    pub fn slot_index(&self, name: &str) -> Result<usize> {
        self.slots
            .iter()
            .position(|s| s.name == name)
            .ok_or_else(|| BwdError::NotFound(format!("column {name} not materialized")))
    }

    /// Slot accessor.
    pub fn slot(&self, idx: usize) -> &ColumnSlot {
        &self.slots[idx]
    }

    /// Re-size every slot for the next slice of `len` rows; the slice
    /// source then overwrites all of them through [`Self::payloads_mut`].
    pub(crate) fn resize(&mut self, len: usize) {
        debug_assert!(len <= SLICE_ROWS, "row block of {len} rows exceeds a slice");
        self.len = len;
        for s in &mut self.slots {
            s.payloads.resize(len, 0);
        }
    }

    /// The payloads of slot `idx`, for the slice source to fill.
    pub(crate) fn payloads_mut(&mut self, idx: usize) -> &mut [i64] {
        &mut self.slots[idx].payloads
    }
}

/// One distinct bound expression node; operands are ids of earlier nodes.
#[derive(Debug, Clone, PartialEq)]
pub(crate) enum Node {
    /// Column slot reference.
    Col(usize),
    /// Constant payload.
    Lit(i64),
    /// Arithmetic over two earlier nodes.
    Bin(BinOp, usize, usize),
    /// `CASE WHEN slot IN range THEN a ELSE b END`.
    Case {
        /// Tested slot.
        slot: usize,
        /// Payload range of the WHEN condition.
        range: RangePred,
        /// Then branch.
        then: usize,
        /// Else branch.
        otherwise: usize,
    },
}

impl Node {
    /// Whether the node computes (a primitive the bill prices), rather
    /// than reading a slot or a constant.
    pub(crate) fn is_arithmetic(&self) -> bool {
        matches!(self, Node::Bin(..) | Node::Case { .. })
    }
}

/// Expressions bound against a row block — names resolved to slot
/// indices, literals to payloads, predicates to payload ranges — and
/// flattened into a DAG of distinct `(node, decimal scale)` pairs in
/// operand-before-user order, so a sub-expression shared by several
/// outputs is bound, and later evaluated, once.
#[derive(Debug, Default)]
pub(crate) struct Exprs {
    pub(crate) nodes: Vec<(Node, u8)>,
}

impl Exprs {
    /// The id of `(node, scale)`, adding it unless it already exists.
    fn intern(&mut self, node: Node, scale: u8) -> usize {
        let key = (node, scale);
        self.nodes
            .iter()
            .position(|n| *n == key)
            .unwrap_or_else(|| {
                self.nodes.push(key);
                self.nodes.len() - 1
            })
    }

    /// Bind a logical expression against a row block; returns its node id.
    pub(crate) fn bind(&mut self, expr: &ScalarExpr, block: &RowBlock) -> Result<usize> {
        match expr {
            ScalarExpr::Column(name) => {
                let slot = block.slot_index(name)?;
                Ok(self.intern(Node::Col(slot), block.slot(slot).logical.dtype().scale()))
            }
            ScalarExpr::Literal(v) => {
                let msg = || format!("literal {v:?} not usable in arithmetic");
                let payload = v.as_i64().ok_or_else(|| BwdError::TypeMismatch(msg()))?;
                let scale = match v {
                    Value::Decimal { scale, .. } => *scale,
                    _ => 0,
                };
                Ok(self.intern(Node::Lit(payload), scale))
            }
            ScalarExpr::Binary { op, lhs, rhs } => {
                let (l, r) = (self.bind(lhs, block)?, self.bind(rhs, block)?);
                let (sa, sb) = (self.nodes[l].1, self.nodes[r].1);
                let scale = match op {
                    BinOp::Add | BinOp::Sub => sa.max(sb),
                    BinOp::Mul => sa + sb,
                    BinOp::Div => sa,
                };
                Ok(self.intern(Node::Bin(*op, l, r), scale))
            }
            ScalarExpr::Case {
                when,
                then,
                otherwise,
            } => {
                let (slot, range) = bind_case_predicate(when, block)?;
                let (then, otherwise) = (self.bind(then, block)?, self.bind(otherwise, block)?);
                // Literal branches coerce to the other branch's scale
                // (`... else 0` against a scale-4 THEN is ubiquitous in Q14).
                let scale = self.nodes[then].1.max(self.nodes[otherwise].1);
                let then = self.coerce_literal_scale(then, scale)?;
                let otherwise = self.coerce_literal_scale(otherwise, scale)?;
                if self.nodes[then].1 != self.nodes[otherwise].1 {
                    return Err(BwdError::TypeMismatch(
                        "CASE branches must share one decimal scale".into(),
                    ));
                }
                let node = Node::Case {
                    slot,
                    range,
                    then,
                    otherwise,
                };
                Ok(self.intern(node, scale))
            }
        }
    }

    /// The node `id` rescaled up to `target` when it is a literal below
    /// it (other nodes, and literals already there, pass through).
    fn coerce_literal_scale(&mut self, id: usize, target: u8) -> Result<usize> {
        match self.nodes[id] {
            (Node::Lit(payload), scale) if scale < target => {
                let payload = payload
                    .checked_mul(10i64.pow((target - scale) as u32))
                    .ok_or_else(|| BwdError::InvalidArgument("literal rescale overflow".into()))?;
                Ok(self.intern(Node::Lit(payload), target))
            }
            _ => Ok(id),
        }
    }

    /// Evaluate node `id` for one row: `(unscaled payload, scale)` — the
    /// row-at-a-time oracle the column-at-a-time evaluator in
    /// [`crate::tail`] is tested against. Scales are re-derived on the
    /// way, and only the taken `CASE` branch is evaluated.
    #[cfg(test)]
    pub(crate) fn eval_row(&self, id: usize, block: &RowBlock, row: usize) -> Result<(i128, u8)> {
        let rescale = |v: i128, from: u8, to: u8| v * 10i128.pow((to - from) as u32);
        match &self.nodes[id] {
            (Node::Col(slot), scale) => Ok((block.slot(*slot).payloads[row] as i128, *scale)),
            (Node::Lit(payload), scale) => Ok((*payload as i128, *scale)),
            (Node::Bin(op, lhs, rhs), _) => {
                let (a, sa) = self.eval_row(*lhs, block, row)?;
                let (b, sb) = self.eval_row(*rhs, block, row)?;
                let s = sa.max(sb);
                match op {
                    BinOp::Add => Ok((rescale(a, sa, s) + rescale(b, sb, s), s)),
                    BinOp::Sub => Ok((rescale(a, sa, s) - rescale(b, sb, s), s)),
                    BinOp::Mul => Ok((a * b, sa + sb)),
                    BinOp::Div if b == 0 => Err(BwdError::Exec("division by zero".into())),
                    // Keep the left scale: (a * 10^sb) / b.
                    BinOp::Div => Ok((a * 10i128.pow(sb as u32) / b, sa)),
                }
            }
            (
                Node::Case {
                    slot,
                    range,
                    then,
                    otherwise,
                },
                _,
            ) => match range.test(block.slot(*slot).payloads[row]) {
                true => self.eval_row(*then, block, row),
                false => self.eval_row(*otherwise, block, row),
            },
        }
    }
}

fn bind_case_predicate(pred: &Predicate, block: &RowBlock) -> Result<(usize, RangePred)> {
    use Predicate::{Between, Cmp, PrefixLike};
    let (Cmp { column, .. } | Between { column, .. } | PrefixLike { column, .. }) = pred else {
        return Err(BwdError::Unsupported(
            "conjunctions inside CASE conditions".into(),
        ));
    };
    let slot = block.slot_index(column)?;
    let logical = &block.slot(slot).logical;
    let range = match (pred, logical) {
        (Cmp { op, value, .. }, _) => RangePred::from_cmp(*op, logical.payload_of(value)?),
        (Between { lo, hi, .. }, _) => Some(RangePred::between(
            logical.payload_of(lo)?,
            logical.payload_of(hi)?,
        )),
        (PrefixLike { prefix, .. }, Logical::Str(dict)) => (dict.prefix_code_range(prefix))
            .map(|(lo, hi)| RangePred::between(lo as i64, hi as i64)),
        _ => {
            let msg = format!("{column} is not a dictionary column");
            return Err(BwdError::TypeMismatch(msg));
        }
    };
    Ok((slot, range.unwrap_or(RangePred::between(1, 0))))
}

/// An accumulated aggregate payload: exact unscaled integer plus scale.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AggValue {
    /// Exact unscaled accumulation.
    pub unscaled: i128,
    /// Decimal scale.
    pub scale: u8,
}

impl AggValue {
    /// Render as a logical value (decimal when it fits, double otherwise).
    pub fn to_value(&self) -> Value {
        match i64::try_from(self.unscaled) {
            Ok(v) if self.scale > 0 => Value::decimal(v, self.scale),
            Ok(v) => Value::Int(v),
            Err(_) => Value::Double(self.unscaled as f64 / 10f64.powi(self.scale as i32)),
        }
    }

    /// As a float (for `avg`).
    pub fn as_f64(&self) -> f64 {
        self.unscaled as f64 / 10f64.powi(self.scale as i32)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bwd_core::plan::ScalarExpr as E;
    use bwd_storage::Dictionary;
    use bwd_types::DataType;
    use std::sync::Arc;

    /// Bind `e` and evaluate it for `row`.
    fn eval(e: &ScalarExpr, b: &RowBlock, row: usize) -> Result<(i128, u8)> {
        let mut exprs = Exprs::default();
        let id = exprs.bind(e, b)?;
        exprs.eval_row(id, b, row)
    }

    fn block() -> RowBlock {
        let mut b = RowBlock::new(3);
        b.push_slot(ColumnSlot {
            name: "price".into(),
            payloads: vec![10_000, 20_000, 150], // scale 2: 100.00, 200.00, 1.50
            logical: Logical::Plain(DataType::decimal(2)),
        });
        b.push_slot(ColumnSlot {
            name: "discount".into(),
            payloads: vec![5, 10, 0], // scale 2: 0.05, 0.10, 0.00
            logical: Logical::Plain(DataType::decimal(2)),
        });
        b
    }

    #[test]
    fn q6_expression_price_times_discount() {
        let b = block();
        let e = E::col("price").binary(BinOp::Mul, E::col("discount"));
        // 100.00 * 0.05 = 5.0000 -> 50000 at scale 4.
        assert_eq!(eval(&e, &b, 0).unwrap(), (50_000, 4));
        assert_eq!(eval(&e, &b, 2).unwrap(), (0, 4));
    }

    #[test]
    fn q1_expression_price_times_one_minus_discount() {
        let b = block();
        let e = E::col("price").binary(
            BinOp::Mul,
            E::lit(1i64).binary(BinOp::Sub, E::col("discount")),
        );
        // (1 - 0.05) = 0.95 at scale 2 -> 95; 100.00 * 0.95 = 9500.00 scale 4.
        assert_eq!(eval(&e, &b, 0).unwrap(), (10_000 * 95, 4));
    }

    #[test]
    fn case_expression_over_dictionary() {
        let (dict, codes) = Dictionary::build(&["ECONOMY", "PROMO A", "PROMO B", "STANDARD"]);
        let mut b = RowBlock::new(4);
        b.push_slot(ColumnSlot {
            name: "p_type".into(),
            payloads: codes.iter().map(|&c| c as i64).collect(),
            logical: Logical::Str(Arc::new(dict)),
        });
        b.push_slot(ColumnSlot {
            name: "v".into(),
            payloads: vec![100, 200, 300, 400],
            logical: Logical::Plain(DataType::Int32),
        });
        // CASE WHEN p_type LIKE 'PROMO%' THEN v ELSE 0 END
        let e = ScalarExpr::Case {
            when: Box::new(Predicate::PrefixLike {
                column: "p_type".into(),
                prefix: "PROMO".into(),
            }),
            then: Box::new(E::col("v")),
            otherwise: Box::new(E::lit(0i64)),
        };
        let got: Vec<i128> = (0..4).map(|i| eval(&e, &b, i).unwrap().0).collect();
        assert_eq!(got, vec![0, 200, 300, 0]);
    }

    #[test]
    fn division_and_errors() {
        let b = block();
        let e = E::col("price").binary(BinOp::Div, E::lit(Value::decimal(200, 2)));
        // 100.00 / 2.00 = 50.00 at scale 2.
        assert_eq!(eval(&e, &b, 0).unwrap(), (5_000, 2));
        let zero = E::col("price").binary(BinOp::Div, E::lit(0i64));
        assert!(eval(&zero, &b, 0).is_err());
        // Unknown column fails at bind time.
        assert!(Exprs::default().bind(&E::col("nope"), &b).is_err());
    }

    #[test]
    fn agg_value_rendering() {
        assert_eq!(
            AggValue {
                unscaled: 12345,
                scale: 2
            }
            .to_value(),
            Value::decimal(12345, 2)
        );
        assert_eq!(
            AggValue {
                unscaled: 7,
                scale: 0
            }
            .to_value(),
            Value::Int(7)
        );
        let huge = AggValue {
            unscaled: i128::from(i64::MAX) * 10,
            scale: 0,
        };
        assert!(matches!(huge.to_value(), Value::Double(_)));
    }

    #[test]
    #[should_panic(expected = "misaligned")]
    fn misaligned_slot_panics() {
        let mut b = RowBlock::new(3);
        b.push_slot(ColumnSlot {
            name: "x".into(),
            payloads: vec![1],
            logical: Logical::Plain(DataType::Int32),
        });
    }
}
