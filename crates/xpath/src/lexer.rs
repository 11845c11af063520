//! XPath 1.0 lexer.
//!
//! Implements the spec's lexical disambiguation rules: `*` is the multiply
//! operator (and `and`/`or`/`div`/`mod` are operators) exactly when the
//! preceding token could end an operand; otherwise `*` is a wildcard name
//! test and those words are ordinary names.

use std::fmt;

#[derive(Debug, Clone, PartialEq)]
pub enum Tok {
    Number(f64),
    Literal(String),
    /// An NCName (no colon). Prefixed names appear as `Name Colon Name`.
    Name(String),
    Colon,
    DColon,
    Slash,
    DSlash,
    LBracket,
    RBracket,
    LParen,
    RParen,
    At,
    Dot,
    DotDot,
    Comma,
    Pipe,
    Dollar,
    Star,
    Plus,
    Minus,
    Eq,
    Ne,
    Lt,
    Le,
    Gt,
    Ge,
    And,
    Or,
    Div,
    Mod,
}

impl fmt::Display for Tok {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Tok::Number(n) => write!(f, "{n}"),
            Tok::Literal(s) => write!(f, "'{s}'"),
            Tok::Name(s) => write!(f, "{s}"),
            Tok::Colon => write!(f, ":"),
            Tok::DColon => write!(f, "::"),
            Tok::Slash => write!(f, "/"),
            Tok::DSlash => write!(f, "//"),
            Tok::LBracket => write!(f, "["),
            Tok::RBracket => write!(f, "]"),
            Tok::LParen => write!(f, "("),
            Tok::RParen => write!(f, ")"),
            Tok::At => write!(f, "@"),
            Tok::Dot => write!(f, "."),
            Tok::DotDot => write!(f, ".."),
            Tok::Comma => write!(f, ","),
            Tok::Pipe => write!(f, "|"),
            Tok::Dollar => write!(f, "$"),
            Tok::Star => write!(f, "*"),
            Tok::Plus => write!(f, "+"),
            Tok::Minus => write!(f, "-"),
            Tok::Eq => write!(f, "="),
            Tok::Ne => write!(f, "!="),
            Tok::Lt => write!(f, "<"),
            Tok::Le => write!(f, "<="),
            Tok::Gt => write!(f, ">"),
            Tok::Ge => write!(f, ">="),
            Tok::And => write!(f, "and"),
            Tok::Or => write!(f, "or"),
            Tok::Div => write!(f, "div"),
            Tok::Mod => write!(f, "mod"),
        }
    }
}

/// A lexer error with byte offset.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LexError {
    pub offset: usize,
    pub message: String,
}

impl fmt::Display for LexError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "XPath lex error at {}: {}", self.offset, self.message)
    }
}

impl std::error::Error for LexError {}

/// True when, given the previous token, the next `*`/name must be read as an
/// operator per XPath 1.0 §3.7.
fn prev_allows_operator(prev: Option<&Tok>) -> bool {
    match prev {
        None => false,
        Some(t) => !matches!(
            t,
            Tok::At
                | Tok::DColon
                | Tok::Colon
                | Tok::LParen
                | Tok::LBracket
                | Tok::Comma
                | Tok::Slash
                | Tok::DSlash
                | Tok::Pipe
                | Tok::Plus
                | Tok::Minus
                | Tok::Eq
                | Tok::Ne
                | Tok::Lt
                | Tok::Le
                | Tok::Gt
                | Tok::Ge
                | Tok::And
                | Tok::Or
                | Tok::Div
                | Tok::Mod
                | Tok::Star
                | Tok::Dollar
        ),
    }
}

pub fn tokenize(input: &str) -> Result<Vec<Tok>, LexError> {
    let bytes = input.as_bytes();
    let mut toks: Vec<Tok> = Vec::new();
    let mut i = 0;
    while i < bytes.len() {
        let c = bytes[i] as char;
        if c.is_ascii_whitespace() {
            i += 1;
            continue;
        }
        let start = i;
        match c {
            '(' => {
                toks.push(Tok::LParen);
                i += 1;
            }
            ')' => {
                toks.push(Tok::RParen);
                i += 1;
            }
            '[' => {
                toks.push(Tok::LBracket);
                i += 1;
            }
            ']' => {
                toks.push(Tok::RBracket);
                i += 1;
            }
            '@' => {
                toks.push(Tok::At);
                i += 1;
            }
            ',' => {
                toks.push(Tok::Comma);
                i += 1;
            }
            '|' => {
                toks.push(Tok::Pipe);
                i += 1;
            }
            '$' => {
                toks.push(Tok::Dollar);
                i += 1;
            }
            '+' => {
                toks.push(Tok::Plus);
                i += 1;
            }
            '-' => {
                toks.push(Tok::Minus);
                i += 1;
            }
            '=' => {
                toks.push(Tok::Eq);
                i += 1;
            }
            '!' => {
                if bytes.get(i + 1) == Some(&b'=') {
                    toks.push(Tok::Ne);
                    i += 2;
                } else {
                    return Err(LexError { offset: i, message: "expected `!=`".into() });
                }
            }
            '<' => {
                if bytes.get(i + 1) == Some(&b'=') {
                    toks.push(Tok::Le);
                    i += 2;
                } else {
                    toks.push(Tok::Lt);
                    i += 1;
                }
            }
            '>' => {
                if bytes.get(i + 1) == Some(&b'=') {
                    toks.push(Tok::Ge);
                    i += 2;
                } else {
                    toks.push(Tok::Gt);
                    i += 1;
                }
            }
            '/' => {
                if bytes.get(i + 1) == Some(&b'/') {
                    toks.push(Tok::DSlash);
                    i += 2;
                } else {
                    toks.push(Tok::Slash);
                    i += 1;
                }
            }
            ':' => {
                if bytes.get(i + 1) == Some(&b':') {
                    toks.push(Tok::DColon);
                    i += 2;
                } else {
                    toks.push(Tok::Colon);
                    i += 1;
                }
            }
            '.' => {
                if bytes.get(i + 1) == Some(&b'.') {
                    toks.push(Tok::DotDot);
                    i += 2;
                } else if bytes.get(i + 1).is_some_and(|b| b.is_ascii_digit()) {
                    // A number like `.5`.
                    i += 1;
                    while i < bytes.len() && bytes[i].is_ascii_digit() {
                        i += 1;
                    }
                    let text = &input[start..i];
                    let n: f64 = text.parse().map_err(|_| LexError {
                        offset: start,
                        message: format!("bad number `{text}`"),
                    })?;
                    toks.push(Tok::Number(n));
                } else {
                    toks.push(Tok::Dot);
                    i += 1;
                }
            }
            '*' => {
                if prev_allows_operator(toks.last()) {
                    toks.push(Tok::Star); // multiply — parser treats Star as both
                } else {
                    toks.push(Tok::Star);
                }
                i += 1;
            }
            '"' | '\'' => {
                let quote = c;
                i += 1;
                let mut s = String::new();
                loop {
                    if i >= bytes.len() {
                        return Err(LexError {
                            offset: start,
                            message: "unterminated string literal".into(),
                        });
                    }
                    let ch = input[i..].chars().next().expect("in bounds");
                    if ch == quote {
                        i += 1;
                        break;
                    }
                    s.push(ch);
                    i += ch.len_utf8();
                }
                toks.push(Tok::Literal(s));
            }
            _ if c.is_ascii_digit() => {
                while i < bytes.len() && bytes[i].is_ascii_digit() {
                    i += 1;
                }
                if i < bytes.len() && bytes[i] == b'.' && bytes.get(i + 1) != Some(&b'.') {
                    i += 1;
                    while i < bytes.len() && bytes[i].is_ascii_digit() {
                        i += 1;
                    }
                }
                let text = &input[start..i];
                let n: f64 = text.parse().map_err(|_| LexError {
                    offset: start,
                    message: format!("bad number `{text}`"),
                })?;
                toks.push(Tok::Number(n));
            }
            _ if c.is_alphabetic() || c == '_' => {
                let mut j = i;
                while j < bytes.len() {
                    let ch = input[j..].chars().next().expect("in bounds");
                    if ch.is_alphanumeric() || matches!(ch, '_' | '-' | '.') {
                        j += ch.len_utf8();
                    } else {
                        break;
                    }
                }
                let word = &input[i..j];
                let op_position = prev_allows_operator(toks.last());
                let tok = match word {
                    "and" if op_position => Tok::And,
                    "or" if op_position => Tok::Or,
                    "div" if op_position => Tok::Div,
                    "mod" if op_position => Tok::Mod,
                    _ => Tok::Name(word.to_string()),
                };
                toks.push(tok);
                i = j;
            }
            _ => {
                return Err(LexError {
                    offset: i,
                    message: format!("unexpected character `{c}`"),
                })
            }
        }
    }
    Ok(toks)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn simple_path() {
        let t = tokenize("/dept/emp").unwrap();
        assert_eq!(
            t,
            vec![
                Tok::Slash,
                Tok::Name("dept".into()),
                Tok::Slash,
                Tok::Name("emp".into())
            ]
        );
    }

    #[test]
    fn predicate_with_comparison() {
        let t = tokenize("emp[sal > 2000]").unwrap();
        assert_eq!(
            t,
            vec![
                Tok::Name("emp".into()),
                Tok::LBracket,
                Tok::Name("sal".into()),
                Tok::Gt,
                Tok::Number(2000.0),
                Tok::RBracket
            ]
        );
    }

    #[test]
    fn and_as_operator_vs_name() {
        // `and` after an operand is the operator...
        let t = tokenize("a and b").unwrap();
        assert_eq!(t[1], Tok::And);
        // ...but at expression start it is an element name.
        let t = tokenize("and").unwrap();
        assert_eq!(t[0], Tok::Name("and".into()));
    }

    #[test]
    fn div_after_slash_is_name() {
        let t = tokenize("x/div").unwrap();
        assert_eq!(t[2], Tok::Name("div".into()));
    }

    #[test]
    fn numbers() {
        let t = tokenize("1.5 + .25 + 10").unwrap();
        assert_eq!(t[0], Tok::Number(1.5));
        assert_eq!(t[2], Tok::Number(0.25));
        assert_eq!(t[4], Tok::Number(10.0));
    }

    #[test]
    fn string_literals_both_quotes() {
        let t = tokenize(r#"concat("a", 'b')"#).unwrap();
        assert!(matches!(&t[2], Tok::Literal(s) if s == "a"));
        assert!(matches!(&t[4], Tok::Literal(s) if s == "b"));
    }

    #[test]
    fn axis_and_abbreviations() {
        let t = tokenize("child::a/@b/..//.").unwrap();
        assert_eq!(t[1], Tok::DColon);
        assert!(t.contains(&Tok::At));
        assert!(t.contains(&Tok::DotDot));
        assert!(t.contains(&Tok::DSlash));
    }

    #[test]
    fn unterminated_literal_is_error() {
        assert!(tokenize("'abc").is_err());
    }

    #[test]
    fn ne_requires_equals() {
        assert!(tokenize("a ! b").is_err());
    }

    #[test]
    fn prefixed_name_is_three_tokens() {
        let t = tokenize("xsl:template").unwrap();
        assert_eq!(
            t,
            vec![
                Tok::Name("xsl".into()),
                Tok::Colon,
                Tok::Name("template".into())
            ]
        );
    }
}
