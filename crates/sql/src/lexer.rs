//! SQL lexer for the evaluation subset.

use bwd_types::{BwdError, Result};

/// A lexical token.
#[derive(Debug, Clone, PartialEq)]
pub enum Token {
    /// Identifier or keyword (lower-cased; quoting is not needed by the
    /// workload).
    Ident(String),
    /// Integer literal.
    Int(i64),
    /// Decimal literal: `(unscaled, scale)` — `2.68288` is `(268288, 5)`.
    Dec(i64, u8),
    /// Single-quoted string literal.
    Str(String),
    /// `(`
    LParen,
    /// `)`
    RParen,
    /// `,`
    Comma,
    /// `.`
    Dot,
    /// `*`
    Star,
    /// `+`
    Plus,
    /// `-`
    Minus,
    /// `/`
    Slash,
    /// `=`
    Eq,
    /// `<>` or `!=`
    Ne,
    /// `<`
    Lt,
    /// `<=`
    Le,
    /// `>`
    Gt,
    /// `>=`
    Ge,
    /// `;`
    Semi,
}

/// Tokenize a statement.
pub fn lex(input: &str) -> Result<Vec<Token>> {
    let mut out = Vec::new();
    let b = input.as_bytes();
    let mut i = 0;
    while i < b.len() {
        let c = b[i] as char;
        match c {
            ' ' | '\t' | '\n' | '\r' => i += 1,
            '(' => {
                out.push(Token::LParen);
                i += 1;
            }
            ')' => {
                out.push(Token::RParen);
                i += 1;
            }
            ',' => {
                out.push(Token::Comma);
                i += 1;
            }
            '.' => {
                out.push(Token::Dot);
                i += 1;
            }
            '*' => {
                out.push(Token::Star);
                i += 1;
            }
            '+' => {
                out.push(Token::Plus);
                i += 1;
            }
            '-' => {
                // Line comments: `-- ...`
                if b.get(i + 1) == Some(&b'-') {
                    while i < b.len() && b[i] != b'\n' {
                        i += 1;
                    }
                } else {
                    out.push(Token::Minus);
                    i += 1;
                }
            }
            '/' => {
                out.push(Token::Slash);
                i += 1;
            }
            ';' => {
                out.push(Token::Semi);
                i += 1;
            }
            '=' => {
                out.push(Token::Eq);
                i += 1;
            }
            '!' => {
                if b.get(i + 1) == Some(&b'=') {
                    out.push(Token::Ne);
                    i += 2;
                } else {
                    return Err(BwdError::Parse(format!("stray '!' at byte {i}")));
                }
            }
            '<' => match b.get(i + 1) {
                Some(&b'=') => {
                    out.push(Token::Le);
                    i += 2;
                }
                Some(&b'>') => {
                    out.push(Token::Ne);
                    i += 2;
                }
                _ => {
                    out.push(Token::Lt);
                    i += 1;
                }
            },
            '>' => {
                if b.get(i + 1) == Some(&b'=') {
                    out.push(Token::Ge);
                    i += 2;
                } else {
                    out.push(Token::Gt);
                    i += 1;
                }
            }
            '\'' => {
                let start = i + 1;
                let mut j = start;
                while j < b.len() && b[j] != b'\'' {
                    j += 1;
                }
                if j >= b.len() {
                    return Err(BwdError::Parse("unterminated string literal".into()));
                }
                out.push(Token::Str(input[start..j].to_string()));
                i = j + 1;
            }
            '0'..='9' => {
                let start = i;
                while i < b.len() && b[i].is_ascii_digit() {
                    i += 1;
                }
                if i < b.len() && b[i] == b'.' && b.get(i + 1).is_some_and(|d| d.is_ascii_digit()) {
                    i += 1; // consume '.'
                    let frac_start = i;
                    while i < b.len() && b[i].is_ascii_digit() {
                        i += 1;
                    }
                    // The fractional digits are the scale, but no i64
                    // decimal holds more than 18: zeros past the 18th are
                    // dropped, and a literal still longer is an error.
                    let literal = &input[start..i];
                    let mut frac = &input[frac_start..i];
                    while frac.len() > 18 && frac.ends_with('0') {
                        frac = &frac[..frac.len() - 1];
                    }
                    if frac.len() > 18 {
                        return Err(BwdError::Parse(format!(
                            "decimal literal {literal}: {} fractional digits, at most 18",
                            frac.len()
                        )));
                    }
                    let text = [&input[start..frac_start - 1], frac].concat();
                    let unscaled: i64 = text.parse().map_err(|_| {
                        BwdError::Parse(format!("decimal literal overflow: {literal}"))
                    })?;
                    out.push(Token::Dec(unscaled, frac.len() as u8));
                } else {
                    let v: i64 = input[start..i].parse().map_err(|_| {
                        BwdError::Parse(format!("integer literal overflow: {}", &input[start..i]))
                    })?;
                    out.push(Token::Int(v));
                }
            }
            'a'..='z' | 'A'..='Z' | '_' => {
                let start = i;
                while i < b.len() && (b[i].is_ascii_alphanumeric() || b[i] == b'_') {
                    i += 1;
                }
                out.push(Token::Ident(input[start..i].to_lowercase()));
            }
            other => {
                return Err(BwdError::Parse(format!(
                    "unexpected character {other:?} at byte {i}"
                )))
            }
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lexes_the_spatial_query() {
        let toks =
            lex("select count(lon) from trips where lon between 2.68288 and 2.70228").unwrap();
        assert!(toks.contains(&Token::Ident("between".into())));
        assert!(toks.contains(&Token::Dec(268_288, 5)));
        assert!(toks.contains(&Token::Dec(270_228, 5)));
    }

    /// A decimal's scale is its count of fractional digits, trailing zeros
    /// included, up to 18; zeros past the 18th are dropped, and a literal
    /// that still has more than 18 is a parse error naming it — never a
    /// scale taken modulo 256 (`0.` then 255 zeros then `1` once lexed as
    /// the integer 1).
    #[test]
    fn a_decimal_scale_is_its_significant_fraction() {
        assert_eq!(lex("1.50").unwrap(), [Token::Dec(150, 2)]);
        assert_eq!(lex("2.000").unwrap(), [Token::Dec(2000, 3)]);
        let eighteen = format!("0.{}1", "0".repeat(17));
        assert_eq!(lex(&eighteen).unwrap(), [Token::Dec(1, 18)]);
        let padded = format!("{eighteen}{}", "0".repeat(300));
        assert_eq!(lex(&padded).unwrap(), [Token::Dec(1, 18)]);
        for zeros in [18, 255, 300] {
            let literal = format!("0.{}1", "0".repeat(zeros));
            let err = lex(&format!("x < {literal}")).unwrap_err();
            assert!(
                matches!(&err, BwdError::Parse(m) if m.contains(&literal)),
                "{zeros} zeros: {err:?}"
            );
        }
    }

    #[test]
    fn lexes_operators_and_comments() {
        let toks = lex("a >= 1 -- trailing comment\nand b <> 2 and c != 3").unwrap();
        assert_eq!(
            toks,
            vec![
                Token::Ident("a".into()),
                Token::Ge,
                Token::Int(1),
                Token::Ident("and".into()),
                Token::Ident("b".into()),
                Token::Ne,
                Token::Int(2),
                Token::Ident("and".into()),
                Token::Ident("c".into()),
                Token::Ne,
                Token::Int(3),
            ]
        );
    }

    #[test]
    fn lexes_strings_and_dates() {
        let toks = lex("l_shipdate >= date '1994-01-01'").unwrap();
        assert!(toks.contains(&Token::Str("1994-01-01".into())));
        assert!(lex("'unterminated").is_err());
    }

    #[test]
    fn keywords_lowercased() {
        let toks = lex("SELECT Sum(X) FROM T").unwrap();
        assert_eq!(toks[0], Token::Ident("select".into()));
        assert_eq!(toks[1], Token::Ident("sum".into()));
    }

    #[test]
    fn rejects_garbage() {
        assert!(lex("select @").is_err());
        assert!(lex("a ! b").is_err());
    }
}
