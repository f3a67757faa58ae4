//! SQL tokenizer.
//!
//! Hand-rolled single-pass lexer over the input bytes. Supports:
//! line comments (`-- …`), block comments (`/* … */`), single-quoted string
//! literals with `''` escaping, double-quoted identifiers, and the operator
//! set of the dialect. Produces [`Token`]s carrying byte spans into the
//! original text.

use crate::error::{ParseError, Span};
use crate::token::{Keyword, Token, TokenKind};

/// Streaming tokenizer over a SQL string.
pub struct Lexer<'a> {
    src: &'a str,
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Lexer<'a> {
    /// Create a lexer over `src`.
    pub fn new(src: &'a str) -> Self {
        Lexer {
            src,
            bytes: src.as_bytes(),
            pos: 0,
        }
    }

    /// Tokenize the whole input, appending a trailing [`TokenKind::Eof`].
    pub fn tokenize(src: &'a str) -> Result<Vec<Token>, ParseError> {
        let mut lx = Lexer::new(src);
        let mut out = Vec::with_capacity(src.len() / 4 + 4);
        loop {
            let tok = lx.next_token()?;
            let eof = tok.kind == TokenKind::Eof;
            out.push(tok);
            if eof {
                return Ok(out);
            }
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn peek2(&self) -> Option<u8> {
        self.bytes.get(self.pos + 1).copied()
    }

    fn bump(&mut self) -> Option<u8> {
        let b = self.peek()?;
        self.pos += 1;
        Some(b)
    }

    fn skip_trivia(&mut self) -> Result<(), ParseError> {
        loop {
            match self.peek() {
                Some(b) if b.is_ascii_whitespace() => {
                    self.pos += 1;
                }
                Some(b'-') if self.peek2() == Some(b'-') => {
                    while let Some(b) = self.peek() {
                        self.pos += 1;
                        if b == b'\n' {
                            break;
                        }
                    }
                }
                Some(b'/') if self.peek2() == Some(b'*') => {
                    let start = self.pos;
                    self.pos += 2;
                    loop {
                        match self.peek() {
                            Some(b'*') if self.peek2() == Some(b'/') => {
                                self.pos += 2;
                                break;
                            }
                            Some(_) => self.pos += 1,
                            None => {
                                return Err(ParseError::new(
                                    "unterminated block comment",
                                    Span::new(start, self.pos),
                                ))
                            }
                        }
                    }
                }
                _ => return Ok(()),
            }
        }
    }

    /// Lex the next token (skipping whitespace and comments).
    pub(crate) fn next_token(&mut self) -> Result<Token, ParseError> {
        self.skip_trivia()?;
        let start = self.pos;
        let Some(b) = self.peek() else {
            return Ok(Token::new(TokenKind::Eof, Span::new(start, start)));
        };

        let kind = match b {
            b'\'' => return self.lex_string(start),
            b'"' => return self.lex_quoted_ident(start),
            b'0'..=b'9' => return self.lex_number(start),
            b'.' if self.peek2().is_some_and(|c| c.is_ascii_digit()) => {
                return self.lex_number(start)
            }
            c if c == b'_' || c.is_ascii_alphabetic() => return self.lex_word(start),
            b'=' => {
                self.pos += 1;
                TokenKind::Eq
            }
            b'<' => {
                self.pos += 1;
                match self.peek() {
                    Some(b'=') => {
                        self.pos += 1;
                        TokenKind::LtEq
                    }
                    Some(b'>') => {
                        self.pos += 1;
                        TokenKind::NotEq
                    }
                    _ => TokenKind::Lt,
                }
            }
            b'>' => {
                self.pos += 1;
                if self.peek() == Some(b'=') {
                    self.pos += 1;
                    TokenKind::GtEq
                } else {
                    TokenKind::Gt
                }
            }
            b'!' => {
                self.pos += 1;
                if self.peek() == Some(b'=') {
                    self.pos += 1;
                    TokenKind::NotEq
                } else {
                    return Err(ParseError::new(
                        "unexpected character `!` (did you mean `!=`?)",
                        Span::new(start, self.pos),
                    ));
                }
            }
            b'|' => {
                self.pos += 1;
                if self.peek() == Some(b'|') {
                    self.pos += 1;
                    TokenKind::Concat
                } else {
                    return Err(ParseError::new(
                        "unexpected character `|` (did you mean `||`?)",
                        Span::new(start, self.pos),
                    ));
                }
            }
            b'+' => {
                self.pos += 1;
                TokenKind::Plus
            }
            b'-' => {
                self.pos += 1;
                TokenKind::Minus
            }
            b'*' => {
                self.pos += 1;
                TokenKind::Star
            }
            b'/' => {
                self.pos += 1;
                TokenKind::Slash
            }
            b'%' => {
                self.pos += 1;
                TokenKind::Percent
            }
            b'(' => {
                self.pos += 1;
                TokenKind::LParen
            }
            b')' => {
                self.pos += 1;
                TokenKind::RParen
            }
            b',' => {
                self.pos += 1;
                TokenKind::Comma
            }
            b'.' => {
                self.pos += 1;
                TokenKind::Dot
            }
            b';' => {
                self.pos += 1;
                TokenKind::Semicolon
            }
            b'?' => {
                self.pos += 1;
                TokenKind::Placeholder
            }
            other => {
                return Err(ParseError::new(
                    format!("unexpected character `{}`", other as char),
                    Span::new(start, start + 1),
                ))
            }
        };
        Ok(Token::new(kind, Span::new(start, self.pos)))
    }

    fn lex_word(&mut self, start: usize) -> Result<Token, ParseError> {
        while let Some(b) = self.peek() {
            if b == b'_' || b.is_ascii_alphanumeric() {
                self.pos += 1;
            } else {
                break;
            }
        }
        let text = &self.src[start..self.pos];
        let kind = match Keyword::from_str_ci(text) {
            Some(kw) => TokenKind::Keyword(kw),
            None => TokenKind::Ident(text.to_string()),
        };
        Ok(Token::new(kind, Span::new(start, self.pos)))
    }

    fn lex_number(&mut self, start: usize) -> Result<Token, ParseError> {
        let mut seen_dot = false;
        let mut seen_exp = false;
        while let Some(b) = self.peek() {
            match b {
                b'0'..=b'9' => self.pos += 1,
                b'.' if !seen_dot && !seen_exp => {
                    // A dot not followed by a digit terminates the number
                    // (e.g. `1.` is allowed; `1.e3` too).
                    seen_dot = true;
                    self.pos += 1;
                }
                b'e' | b'E' if !seen_exp => {
                    let save = self.pos;
                    self.pos += 1;
                    if matches!(self.peek(), Some(b'+') | Some(b'-')) {
                        self.pos += 1;
                    }
                    if self.peek().is_some_and(|c| c.is_ascii_digit()) {
                        seen_exp = true;
                    } else {
                        // Not an exponent after all (e.g. `123e` = number then ident).
                        self.pos = save;
                        break;
                    }
                }
                _ => break,
            }
        }
        let text = &self.src[start..self.pos];
        Ok(Token::new(
            TokenKind::NumberLit(text.to_string()),
            Span::new(start, self.pos),
        ))
    }

    fn lex_string(&mut self, start: usize) -> Result<Token, ParseError> {
        self.bump(); // opening quote
        let mut value = String::new();
        loop {
            match self.bump() {
                Some(b'\'') => {
                    if self.peek() == Some(b'\'') {
                        // `''` escapes a single quote.
                        value.push('\'');
                        self.pos += 1;
                    } else {
                        return Ok(Token::new(
                            TokenKind::StringLit(value),
                            Span::new(start, self.pos),
                        ));
                    }
                }
                Some(b) => {
                    // Preserve multi-byte UTF-8 sequences verbatim.
                    value.push(b as char);
                    if b >= 0x80 {
                        // Re-decode: back up and copy the full char.
                        value.pop();
                        let rest = &self.src[self.pos - 1..];
                        let ch = rest.chars().next().unwrap();
                        value.push(ch);
                        self.pos += ch.len_utf8() - 1;
                    }
                }
                None => {
                    return Err(ParseError::new(
                        "unterminated string literal",
                        Span::new(start, self.pos),
                    ))
                }
            }
        }
    }

    fn lex_quoted_ident(&mut self, start: usize) -> Result<Token, ParseError> {
        self.bump(); // opening quote
        let mut value = String::new();
        loop {
            match self.bump() {
                Some(b'"') => {
                    if self.peek() == Some(b'"') {
                        value.push('"');
                        self.pos += 1;
                    } else {
                        return Ok(Token::new(
                            TokenKind::QuotedIdent(value),
                            Span::new(start, self.pos),
                        ));
                    }
                }
                Some(b) => value.push(b as char),
                None => {
                    return Err(ParseError::new(
                        "unterminated quoted identifier",
                        Span::new(start, self.pos),
                    ))
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn kinds(sql: &str) -> Vec<TokenKind> {
        Lexer::tokenize(sql)
            .unwrap()
            .into_iter()
            .map(|t| t.kind)
            .collect()
    }

    #[test]
    fn lexes_simple_select() {
        let ks = kinds("SELECT * FROM WaterTemp");
        assert_eq!(
            ks,
            vec![
                TokenKind::Keyword(Keyword::Select),
                TokenKind::Star,
                TokenKind::Keyword(Keyword::From),
                TokenKind::Ident("WaterTemp".into()),
                TokenKind::Eof,
            ]
        );
    }

    #[test]
    fn lexes_operators() {
        let ks = kinds("a <= b <> c != d >= e || f");
        assert!(ks.contains(&TokenKind::LtEq));
        assert_eq!(ks.iter().filter(|k| **k == TokenKind::NotEq).count(), 2);
        assert!(ks.contains(&TokenKind::GtEq));
        assert!(ks.contains(&TokenKind::Concat));
    }

    #[test]
    fn lexes_numbers() {
        let ks = kinds("1 2.5 .5 1e3 1.5e-2 18");
        let nums: Vec<_> = ks
            .iter()
            .filter_map(|k| match k {
                TokenKind::NumberLit(n) => Some(n.as_str()),
                _ => None,
            })
            .collect();
        assert_eq!(nums, vec!["1", "2.5", ".5", "1e3", "1.5e-2", "18"]);
    }

    #[test]
    fn number_followed_by_ident_splits() {
        let ks = kinds("123abc");
        assert_eq!(
            ks,
            vec![
                TokenKind::NumberLit("123".into()),
                TokenKind::Ident("abc".into()),
                TokenKind::Eof
            ]
        );
    }

    #[test]
    fn lexes_string_with_escape() {
        let ks = kinds("'Lake Washington' 'it''s'");
        assert_eq!(ks[0], TokenKind::StringLit("Lake Washington".into()));
        assert_eq!(ks[1], TokenKind::StringLit("it's".into()));
    }

    #[test]
    fn lexes_quoted_ident() {
        let ks = kinds(r#""Water Salinity""#);
        assert_eq!(ks[0], TokenKind::QuotedIdent("Water Salinity".into()));
    }

    #[test]
    fn skips_comments() {
        let ks = kinds("SELECT -- all columns\n * /* really\nall */ FROM t");
        assert_eq!(ks.len(), 5); // SELECT * FROM t EOF
    }

    #[test]
    fn unterminated_string_errors() {
        assert!(Lexer::tokenize("'oops").is_err());
        assert!(Lexer::tokenize("/* oops").is_err());
        assert!(Lexer::tokenize("\"oops").is_err());
    }

    #[test]
    fn spans_point_into_source() {
        let sql = "SELECT temp FROM WaterTemp";
        let toks = Lexer::tokenize(sql).unwrap();
        assert_eq!(toks[1].span.slice(sql), "temp");
        assert_eq!(toks[3].span.slice(sql), "WaterTemp");
    }

    #[test]
    fn bare_bang_is_error() {
        assert!(Lexer::tokenize("a ! b").is_err());
        assert!(Lexer::tokenize("a | b").is_err());
    }

    #[test]
    fn unicode_in_strings() {
        let ks = kinds("'Zürich — lake'");
        assert_eq!(ks[0], TokenKind::StringLit("Zürich — lake".into()));
    }

    #[test]
    fn placeholder_token() {
        let ks = kinds("temp < ?");
        assert!(ks.contains(&TokenKind::Placeholder));
    }
}
