//! Recursive-descent parser for the evaluation SQL subset.
//!
//! Grammar (enough for Table I, TPC-H Q1/Q6/Q14 and the microbenchmarks):
//!
//! ```text
//! statement  := query | decompose
//! query      := SELECT item (',' item)* FROM ident (',' ident)*
//!               [WHERE or_expr] [GROUP BY colref (',' colref)*]
//! item       := expr [AS ident]
//! or_expr    := and_expr (OR and_expr)*
//! and_expr   := cmp_expr (AND cmp_expr)*
//! cmp_expr   := add_expr [ (=|<>|<|<=|>|>=) add_expr
//!                        | [NOT] BETWEEN add_expr AND add_expr
//!                        | [NOT] LIKE string ]
//! add_expr   := mul_expr (('+'|'-') mul_expr)*
//! mul_expr   := unary (('*'|'/') unary)*
//! unary      := primary | '-' unary
//! primary    := literal | colref | func '(' args ')' | '(' or_expr ')'
//!             | CASE WHEN or_expr THEN expr ELSE expr END
//!             | DATE string [± INTERVAL string unit]
//! ```

use crate::lexer::{lex, Token};
use bwd_types::{BwdError, Date, Result};

/// A parsed (unbound) expression.
#[derive(Debug, Clone, PartialEq)]
pub enum Expr {
    /// Column reference `[qualifier.]name`.
    Col(Option<String>, String),
    /// Integer literal.
    Int(i64),
    /// Decimal literal `(unscaled, scale)`.
    Dec(i64, u8),
    /// String literal.
    Str(String),
    /// Date literal.
    Date(Date),
    /// `*` (only valid inside `count(*)`).
    Star,
    /// Binary operation (arithmetic, comparison, or boolean).
    Bin(BinKind, Box<Expr>, Box<Expr>),
    /// `expr BETWEEN lo AND hi`.
    Between(Box<Expr>, Box<Expr>, Box<Expr>),
    /// `expr LIKE 'pattern'`.
    Like(Box<Expr>, String),
    /// Function call (aggregates, `bwdecompose`).
    Func(String, Vec<Expr>),
    /// `CASE WHEN cond THEN a ELSE b END`.
    Case(Box<Expr>, Box<Expr>, Box<Expr>),
}

/// Binary operator kinds at the AST level.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BinKind {
    /// `+`
    Add,
    /// `-`
    Sub,
    /// `*`
    Mul,
    /// `/`
    Div,
    /// `=`
    Eq,
    /// `<>`
    Ne,
    /// `<`
    Lt,
    /// `<=`
    Le,
    /// `>`
    Gt,
    /// `>=`
    Ge,
    /// `AND`
    And,
    /// `OR`
    Or,
}

/// One SELECT-list item.
#[derive(Debug, Clone, PartialEq)]
pub struct SelectItem {
    /// The expression.
    pub expr: Expr,
    /// Optional `AS` alias.
    pub alias: Option<String>,
}

/// A parsed query.
#[derive(Debug, Clone, PartialEq)]
pub struct Query {
    /// SELECT list.
    pub select: Vec<SelectItem>,
    /// FROM tables (1 fact, optionally 1 dimension).
    pub from: Vec<String>,
    /// WHERE predicate.
    pub where_clause: Option<Expr>,
    /// GROUP BY column references.
    pub group_by: Vec<Expr>,
}

/// A parsed statement.
#[derive(Debug, Clone, PartialEq)]
pub enum Statement {
    /// A query.
    Query(Query),
    /// `select bwdecompose(col, bits) from table` (§V-A).
    Decompose {
        /// Target table.
        table: String,
        /// Target column.
        column: String,
        /// Device-resident bits.
        device_bits: u32,
    },
}

/// Parse one SQL statement.
pub fn parse(sql: &str) -> Result<Statement> {
    let tokens = lex(sql)?;
    let mut p = Parser { tokens, pos: 0 };
    let stmt = p.statement()?;
    p.eat_if(&Token::Semi);
    if p.pos != p.tokens.len() {
        return Err(BwdError::Parse(format!(
            "trailing tokens after statement: {:?}",
            &p.tokens[p.pos..]
        )));
    }
    Ok(stmt)
}

struct Parser {
    tokens: Vec<Token>,
    pos: usize,
}

impl Parser {
    fn peek(&self) -> Option<&Token> {
        self.tokens.get(self.pos)
    }

    fn next(&mut self) -> Result<Token> {
        let t = self
            .tokens
            .get(self.pos)
            .cloned()
            .ok_or_else(|| BwdError::Parse("unexpected end of statement".into()))?;
        self.pos += 1;
        Ok(t)
    }

    fn eat_if(&mut self, t: &Token) -> bool {
        if self.peek() == Some(t) {
            self.pos += 1;
            true
        } else {
            false
        }
    }

    fn eat_kw(&mut self, kw: &str) -> bool {
        if matches!(self.peek(), Some(Token::Ident(s)) if s == kw) {
            self.pos += 1;
            true
        } else {
            false
        }
    }

    fn expect_kw(&mut self, kw: &str) -> Result<()> {
        if self.eat_kw(kw) {
            Ok(())
        } else {
            Err(BwdError::Parse(format!(
                "expected {kw:?}, found {:?}",
                self.peek()
            )))
        }
    }

    fn expect_token(&mut self, t: &Token) -> Result<()> {
        if self.eat_if(t) {
            Ok(())
        } else {
            Err(BwdError::Parse(format!(
                "expected {t:?}, found {:?}",
                self.peek()
            )))
        }
    }

    fn ident(&mut self) -> Result<String> {
        match self.next()? {
            Token::Ident(s) => Ok(s),
            other => Err(BwdError::Parse(format!(
                "expected identifier, found {other:?}"
            ))),
        }
    }

    fn statement(&mut self) -> Result<Statement> {
        self.expect_kw("select")?;
        let mut select = vec![self.select_item()?];
        while self.eat_if(&Token::Comma) {
            select.push(self.select_item()?);
        }
        self.expect_kw("from")?;
        let mut from = vec![self.ident()?];
        while self.eat_if(&Token::Comma) {
            from.push(self.ident()?);
        }
        let where_clause = if self.eat_kw("where") {
            Some(self.or_expr()?)
        } else {
            None
        };
        let group_by = if self.eat_kw("group") {
            self.expect_kw("by")?;
            let mut g = vec![self.primary()?];
            while self.eat_if(&Token::Comma) {
                g.push(self.primary()?);
            }
            g
        } else {
            Vec::new()
        };

        // The decomposition pseudo-statement.
        if let [SelectItem {
            expr: Expr::Func(name, args),
            ..
        }] = select.as_slice()
        {
            if name == "bwdecompose" {
                let (col, bits) = match args.as_slice() {
                    [Expr::Col(None, c), Expr::Int(b)] if *b > 0 && *b <= 64 => {
                        (c.clone(), *b as u32)
                    }
                    _ => {
                        return Err(BwdError::Parse(
                            "bwdecompose expects (column, device_bits)".into(),
                        ))
                    }
                };
                if from.len() != 1 || where_clause.is_some() || !group_by.is_empty() {
                    return Err(BwdError::Parse(
                        "bwdecompose takes a single table and no predicates".into(),
                    ));
                }
                return Ok(Statement::Decompose {
                    table: from.remove(0),
                    column: col,
                    device_bits: bits,
                });
            }
        }

        Ok(Statement::Query(Query {
            select,
            from,
            where_clause,
            group_by,
        }))
    }

    fn select_item(&mut self) -> Result<SelectItem> {
        let expr = self.expr()?;
        let alias = if self.eat_kw("as") {
            Some(self.ident()?)
        } else {
            None
        };
        Ok(SelectItem { expr, alias })
    }

    fn expr(&mut self) -> Result<Expr> {
        self.or_expr()
    }

    fn or_expr(&mut self) -> Result<Expr> {
        let mut lhs = self.and_expr()?;
        while self.eat_kw("or") {
            let rhs = self.and_expr()?;
            lhs = Expr::Bin(BinKind::Or, Box::new(lhs), Box::new(rhs));
        }
        Ok(lhs)
    }

    fn and_expr(&mut self) -> Result<Expr> {
        let mut lhs = self.cmp_expr()?;
        while self.eat_kw("and") {
            let rhs = self.cmp_expr()?;
            lhs = Expr::Bin(BinKind::And, Box::new(lhs), Box::new(rhs));
        }
        Ok(lhs)
    }

    fn cmp_expr(&mut self) -> Result<Expr> {
        let lhs = self.add_expr()?;
        let kind = match self.peek() {
            Some(Token::Eq) => Some(BinKind::Eq),
            Some(Token::Ne) => Some(BinKind::Ne),
            Some(Token::Lt) => Some(BinKind::Lt),
            Some(Token::Le) => Some(BinKind::Le),
            Some(Token::Gt) => Some(BinKind::Gt),
            Some(Token::Ge) => Some(BinKind::Ge),
            _ => None,
        };
        if let Some(k) = kind {
            self.pos += 1;
            let rhs = self.add_expr()?;
            return Ok(Expr::Bin(k, Box::new(lhs), Box::new(rhs)));
        }
        if self.eat_kw("between") {
            let lo = self.add_expr()?;
            self.expect_kw("and")?;
            let hi = self.add_expr()?;
            return Ok(Expr::Between(Box::new(lhs), Box::new(lo), Box::new(hi)));
        }
        if self.eat_kw("like") {
            match self.next()? {
                Token::Str(s) => return Ok(Expr::Like(Box::new(lhs), s)),
                other => {
                    return Err(BwdError::Parse(format!(
                        "LIKE expects a string pattern, found {other:?}"
                    )))
                }
            }
        }
        Ok(lhs)
    }

    fn add_expr(&mut self) -> Result<Expr> {
        let mut lhs = self.mul_expr()?;
        loop {
            let kind = match self.peek() {
                Some(Token::Plus) => BinKind::Add,
                Some(Token::Minus) => BinKind::Sub,
                _ => break,
            };
            self.pos += 1;
            // Date interval arithmetic folds at parse time:
            // `date '1998-12-01' - interval '90' day`.
            if self.eat_kw("interval") {
                let bad = |amount: &dyn std::fmt::Debug| {
                    BwdError::Parse(format!("bad interval amount {amount:?}"))
                };
                let amount = match self.next()? {
                    Token::Str(s) => s.parse::<i32>().map_err(|_| bad(&s))?,
                    Token::Int(v) => i32::try_from(v).map_err(|_| bad(&v))?,
                    other => {
                        return Err(BwdError::Parse(format!(
                            "interval expects a quoted amount, found {other:?}"
                        )))
                    }
                };
                let unit = self.ident()?;
                let signed = match kind {
                    BinKind::Sub => amount.checked_neg().ok_or_else(|| bad(&amount))?,
                    _ => amount,
                };
                let Expr::Date(d) = lhs else {
                    return Err(BwdError::Parse(
                        "interval arithmetic requires a date operand".into(),
                    ));
                };
                let shifted = match unit.as_str() {
                    "day" | "days" => d.add_days(signed),
                    "month" | "months" => d.add_months(signed),
                    "year" | "years" => d.add_years(signed),
                    other => {
                        return Err(BwdError::Parse(format!("unknown interval unit {other:?}")))
                    }
                };
                lhs = Expr::Date(shifted.ok_or_else(|| {
                    BwdError::Parse(format!("date {d} shifted by {signed} {unit} overflows"))
                })?);
                continue;
            }
            let rhs = self.mul_expr()?;
            lhs = Expr::Bin(kind, Box::new(lhs), Box::new(rhs));
        }
        Ok(lhs)
    }

    fn mul_expr(&mut self) -> Result<Expr> {
        let mut lhs = self.unary()?;
        loop {
            let kind = match self.peek() {
                Some(Token::Star) => BinKind::Mul,
                Some(Token::Slash) => BinKind::Div,
                _ => break,
            };
            self.pos += 1;
            let rhs = self.unary()?;
            lhs = Expr::Bin(kind, Box::new(lhs), Box::new(rhs));
        }
        Ok(lhs)
    }

    fn unary(&mut self) -> Result<Expr> {
        if self.eat_if(&Token::Minus) {
            return Ok(match self.unary()? {
                Expr::Int(v) => Expr::Int(-v),
                Expr::Dec(u, s) => Expr::Dec(-u, s),
                other => Expr::Bin(BinKind::Sub, Box::new(Expr::Int(0)), Box::new(other)),
            });
        }
        self.primary()
    }

    fn primary(&mut self) -> Result<Expr> {
        match self.next()? {
            Token::Int(v) => Ok(Expr::Int(v)),
            Token::Dec(u, s) => Ok(Expr::Dec(u, s)),
            Token::Str(s) => Ok(Expr::Str(s)),
            Token::Star => Ok(Expr::Star),
            Token::LParen => {
                let e = self.or_expr()?;
                self.expect_token(&Token::RParen)?;
                Ok(e)
            }
            Token::Ident(name) => match name.as_str() {
                "date" => match self.next()? {
                    Token::Str(s) => Date::parse(&s)
                        .map(Expr::Date)
                        .ok_or_else(|| BwdError::Parse(format!("bad date literal {s:?}"))),
                    other => Err(BwdError::Parse(format!(
                        "date expects a quoted literal, found {other:?}"
                    ))),
                },
                "case" => {
                    self.expect_kw("when")?;
                    let when = self.or_expr()?;
                    self.expect_kw("then")?;
                    let then = self.expr()?;
                    self.expect_kw("else")?;
                    let otherwise = self.expr()?;
                    self.expect_kw("end")?;
                    Ok(Expr::Case(
                        Box::new(when),
                        Box::new(then),
                        Box::new(otherwise),
                    ))
                }
                _ => {
                    if self.eat_if(&Token::LParen) {
                        let mut args = Vec::new();
                        if !self.eat_if(&Token::RParen) {
                            args.push(self.expr()?);
                            while self.eat_if(&Token::Comma) {
                                args.push(self.expr()?);
                            }
                            self.expect_token(&Token::RParen)?;
                        }
                        Ok(Expr::Func(name, args))
                    } else if self.eat_if(&Token::Dot) {
                        let col = self.ident()?;
                        Ok(Expr::Col(Some(name), col))
                    } else {
                        Ok(Expr::Col(None, name))
                    }
                }
            },
            other => Err(BwdError::Parse(format!("unexpected token {other:?}"))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_spatial_query() {
        let s = parse(
            "select count(lon) from trips \
             where lon between 2.68288 and 2.70228 \
             and lat between 50.4222 and 50.4485",
        )
        .unwrap();
        let Statement::Query(q) = s else { panic!() };
        assert_eq!(q.from, vec!["trips"]);
        assert_eq!(q.select.len(), 1);
        assert!(matches!(&q.select[0].expr, Expr::Func(n, _) if n == "count"));
        // WHERE is an AND of two BETWEENs.
        let Some(Expr::Bin(BinKind::And, l, r)) = q.where_clause else {
            panic!()
        };
        assert!(matches!(*l, Expr::Between(..)));
        assert!(matches!(*r, Expr::Between(..)));
    }

    #[test]
    fn parses_decompose_statement() {
        let s = parse("select bwdecompose(lon, 24) from trips").unwrap();
        assert_eq!(
            s,
            Statement::Decompose {
                table: "trips".into(),
                column: "lon".into(),
                device_bits: 24
            }
        );
        assert!(parse("select bwdecompose(lon) from trips").is_err());
        assert!(parse("select bwdecompose(lon, 24) from a, b").is_err());
    }

    #[test]
    fn parses_q6_shape() {
        let s = parse(
            "select sum(l_extendedprice * l_discount) as revenue from lineitem \
             where l_shipdate >= date '1994-01-01' \
             and l_shipdate < date '1994-01-01' + interval '1' year \
             and l_discount between 0.05 and 0.07 and l_quantity < 24",
        )
        .unwrap();
        let Statement::Query(q) = s else { panic!() };
        assert_eq!(q.select[0].alias.as_deref(), Some("revenue"));
        // The folded date: 1995-01-01.
        let mut found = false;
        fn walk(e: &Expr, found: &mut bool) {
            match e {
                Expr::Date(d) if d.to_string() == "1995-01-01" => *found = true,
                Expr::Bin(_, a, b) => {
                    walk(a, found);
                    walk(b, found);
                }
                Expr::Between(a, b, c) => {
                    walk(a, found);
                    walk(b, found);
                    walk(c, found);
                }
                _ => {}
            }
        }
        walk(q.where_clause.as_ref().unwrap(), &mut found);
        assert!(found, "interval arithmetic must fold to 1995-01-01");
    }

    #[test]
    fn parses_q1_group_by_and_case() {
        let s = parse(
            "select l_returnflag, l_linestatus, sum(l_quantity) as sum_qty, \
             count(*) as n from lineitem \
             where l_shipdate <= date '1998-12-01' - interval '90' day \
             group by l_returnflag, l_linestatus",
        )
        .unwrap();
        let Statement::Query(q) = s else { panic!() };
        assert_eq!(q.group_by.len(), 2);
        assert_eq!(q.select.len(), 4);

        let s = parse(
            "select sum(case when p_type like 'PROMO%' then l_extendedprice else 0 end) \
             from lineitem, part where l_partkey = p_partkey",
        )
        .unwrap();
        let Statement::Query(q) = s else { panic!() };
        assert_eq!(q.from, vec!["lineitem", "part"]);
    }

    #[test]
    fn parses_arithmetic_precedence() {
        let Statement::Query(q) = parse("select a + b * c from t").unwrap() else {
            panic!()
        };
        let Expr::Bin(BinKind::Add, _, rhs) = &q.select[0].expr else {
            panic!("* must bind tighter than +")
        };
        assert!(matches!(**rhs, Expr::Bin(BinKind::Mul, _, _)));
    }

    #[test]
    fn negative_literals() {
        let Statement::Query(q) =
            parse("select a from t where lon between -12.62427 and 29.64975").unwrap()
        else {
            panic!()
        };
        let Some(Expr::Between(_, lo, _)) = q.where_clause else {
            panic!()
        };
        assert_eq!(*lo, Expr::Dec(-1_262_427, 5));
    }

    /// The date a `select … where d <= <bound>` statement folded its bound
    /// to.
    fn folded(bound: &str) -> Result<Date> {
        let Statement::Query(q) = parse(&format!("select a from t where d <= {bound}"))? else {
            panic!("{bound}: not a query")
        };
        match q.where_clause {
            Some(Expr::Bin(BinKind::Le, _, rhs)) => match *rhs {
                Expr::Date(d) => Ok(d),
                other => panic!("{bound}: folded to {other:?}"),
            },
            other => panic!("{bound}: {other:?}"),
        }
    }

    /// Interval amounts and shifts that leave `i32` are parse errors —
    /// never a truncated amount, a wrapped date or an overflow panic —,
    /// and the ordinary shifts still fold.
    #[test]
    fn interval_overflow_is_a_parse_error() {
        let day = |bound: &str| folded(bound).map(|d| d.to_string());
        assert_eq!(
            day("date '1998-12-01' - interval '90' day").unwrap(),
            "1998-09-02"
        );
        assert_eq!(
            day("date '1998-12-01' - interval 90 day").unwrap(),
            "1998-09-02"
        );
        assert_eq!(
            day("date '1994-01-01' + interval '1' year").unwrap(),
            "1995-01-01"
        );
        for bound in [
            // 2^32 + 90: truncated to `i32` it was 90.
            "date '1998-12-01' - interval 4294967386 day",
            "date '1998-12-01' - interval '4294967386' day",
            "date '1998-12-01' - interval '-2147483648' day",
            "date '1998-12-01' + interval '2147483647' day",
            "date '1998-12-01' - interval '2147483647' day - interval '2147483647' day",
            "date '1998-12-01' + interval '2147483647' month",
            "date '1998-12-01' - interval '2147483647' month",
            "date '1998-12-01' + interval '178956971' year",
            "date '1998-12-01' + interval '2147483647' year",
            "date '1998-12-01' - interval '2147483647' year",
        ] {
            let err = folded(bound).unwrap_err();
            assert!(matches!(err, BwdError::Parse(_)), "{bound}: {err}");
        }
    }

    #[test]
    fn error_cases() {
        assert!(parse("select from t").is_err());
        assert!(parse("select a t").is_err());
        assert!(parse("select a from t where").is_err());
        assert!(parse("select a from t extra junk").is_err());
    }
}
