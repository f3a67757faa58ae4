//! Token model shared by the lexer and parser.

use crate::error::Span;
use std::fmt;

/// SQL keywords recognised by the dialect.
///
/// Keywords are matched case-insensitively by the lexer; anything not listed
/// here lexes as an identifier.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Keyword {
    Select,
    Distinct,
    From,
    Where,
    Group,
    By,
    Having,
    Order,
    Asc,
    Desc,
    Limit,
    Offset,
    As,
    And,
    Or,
    Not,
    In,
    Between,
    Like,
    Is,
    Null,
    True,
    False,
    Exists,
    Join,
    Inner,
    Left,
    Right,
    Full,
    Outer,
    Cross,
    On,
    Insert,
    Into,
    Values,
    Create,
    Table,
    Update,
    Set,
    Delete,
    Drop,
    Alter,
    Rename,
    Column,
    To,
    Add,
    Int,
    Integer,
    Float,
    Real,
    Double,
    Text,
    Varchar,
    Boolean,
    Case,
    When,
    Then,
    Else,
    End,
    Union,
    All,
}

impl Keyword {
    /// Look up a keyword from an identifier, case-insensitively.
    pub(crate) fn from_str_ci(s: &str) -> Option<Keyword> {
        use Keyword::*;
        // Uppercase without allocating for the common short case.
        let mut buf = [0u8; 16];
        if s.len() > buf.len() {
            return None;
        }
        for (i, b) in s.bytes().enumerate() {
            buf[i] = b.to_ascii_uppercase();
        }
        let up = &buf[..s.len()];
        Some(match up {
            b"SELECT" => Select,
            b"DISTINCT" => Distinct,
            b"FROM" => From,
            b"WHERE" => Where,
            b"GROUP" => Group,
            b"BY" => By,
            b"HAVING" => Having,
            b"ORDER" => Order,
            b"ASC" => Asc,
            b"DESC" => Desc,
            b"LIMIT" => Limit,
            b"OFFSET" => Offset,
            b"AS" => As,
            b"AND" => And,
            b"OR" => Or,
            b"NOT" => Not,
            b"IN" => In,
            b"BETWEEN" => Between,
            b"LIKE" => Like,
            b"IS" => Is,
            b"NULL" => Null,
            b"TRUE" => True,
            b"FALSE" => False,
            b"EXISTS" => Exists,
            b"JOIN" => Join,
            b"INNER" => Inner,
            b"LEFT" => Left,
            b"RIGHT" => Right,
            b"FULL" => Full,
            b"OUTER" => Outer,
            b"CROSS" => Cross,
            b"ON" => On,
            b"INSERT" => Insert,
            b"INTO" => Into,
            b"VALUES" => Values,
            b"CREATE" => Create,
            b"TABLE" => Table,
            b"UPDATE" => Update,
            b"SET" => Set,
            b"DELETE" => Delete,
            b"DROP" => Drop,
            b"ALTER" => Alter,
            b"RENAME" => Rename,
            b"COLUMN" => Column,
            b"TO" => To,
            b"ADD" => Add,
            b"INT" => Int,
            b"INTEGER" => Integer,
            b"FLOAT" => Float,
            b"REAL" => Real,
            b"DOUBLE" => Double,
            b"TEXT" => Text,
            b"VARCHAR" => Varchar,
            b"BOOLEAN" => Boolean,
            b"CASE" => Case,
            b"WHEN" => When,
            b"THEN" => Then,
            b"ELSE" => Else,
            b"END" => End,
            b"UNION" => Union,
            b"ALL" => All,
            _ => return None,
        })
    }

    /// The canonical (uppercase) spelling.
    pub fn as_str(&self) -> &'static str {
        use Keyword::*;
        match self {
            Select => "SELECT",
            Distinct => "DISTINCT",
            From => "FROM",
            Where => "WHERE",
            Group => "GROUP",
            By => "BY",
            Having => "HAVING",
            Order => "ORDER",
            Asc => "ASC",
            Desc => "DESC",
            Limit => "LIMIT",
            Offset => "OFFSET",
            As => "AS",
            And => "AND",
            Or => "OR",
            Not => "NOT",
            In => "IN",
            Between => "BETWEEN",
            Like => "LIKE",
            Is => "IS",
            Null => "NULL",
            True => "TRUE",
            False => "FALSE",
            Exists => "EXISTS",
            Join => "JOIN",
            Inner => "INNER",
            Left => "LEFT",
            Right => "RIGHT",
            Full => "FULL",
            Outer => "OUTER",
            Cross => "CROSS",
            On => "ON",
            Insert => "INSERT",
            Into => "INTO",
            Values => "VALUES",
            Create => "CREATE",
            Table => "TABLE",
            Update => "UPDATE",
            Set => "SET",
            Delete => "DELETE",
            Drop => "DROP",
            Alter => "ALTER",
            Rename => "RENAME",
            Column => "COLUMN",
            To => "TO",
            Add => "ADD",
            Int => "INT",
            Integer => "INTEGER",
            Float => "FLOAT",
            Real => "REAL",
            Double => "DOUBLE",
            Text => "TEXT",
            Varchar => "VARCHAR",
            Boolean => "BOOLEAN",
            Case => "CASE",
            When => "WHEN",
            Then => "THEN",
            Else => "ELSE",
            End => "END",
            Union => "UNION",
            All => "ALL",
        }
    }
}

impl fmt::Display for Keyword {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// The kind of a lexed token.
#[derive(Debug, Clone, PartialEq)]
pub enum TokenKind {
    /// Bare identifier, original spelling preserved.
    Ident(String),
    /// `"double quoted"` identifier (case preserved, may contain spaces).
    QuotedIdent(String),
    /// A recognised SQL keyword.
    Keyword(Keyword),
    /// `'single quoted'` string literal with escapes resolved.
    StringLit(String),
    /// Numeric literal, original digits preserved (parsed later).
    NumberLit(String),
    /// `=`
    Eq,
    /// `<>` or `!=` (normalised to one kind)
    NotEq,
    /// `<`
    Lt,
    /// `<=`
    LtEq,
    /// `>`
    Gt,
    /// `>=`
    GtEq,
    /// `+`
    Plus,
    /// `-`
    Minus,
    /// `*`
    Star,
    /// `/`
    Slash,
    /// `%`
    Percent,
    /// `||`
    Concat,
    /// `(`
    LParen,
    /// `)`
    RParen,
    /// `,`
    Comma,
    /// `.`
    Dot,
    /// `;`
    Semicolon,
    /// `?` placeholder (produced by constant stripping, accepted on re-parse)
    Placeholder,
    /// End of input.
    Eof,
}

impl TokenKind {
    /// Short human-readable description used in error messages.
    pub fn describe(&self) -> String {
        match self {
            TokenKind::Ident(s) => format!("identifier `{s}`"),
            TokenKind::QuotedIdent(s) => format!("identifier \"{s}\""),
            TokenKind::Keyword(k) => format!("keyword {k}"),
            TokenKind::StringLit(_) => "string literal".to_string(),
            TokenKind::NumberLit(n) => format!("number `{n}`"),
            TokenKind::Eof => "end of input".to_string(),
            other => format!("`{}`", other.lexeme()),
        }
    }

    /// The literal source text for punctuation tokens; empty for others.
    pub(crate) fn lexeme(&self) -> &'static str {
        match self {
            TokenKind::Eq => "=",
            TokenKind::NotEq => "<>",
            TokenKind::Lt => "<",
            TokenKind::LtEq => "<=",
            TokenKind::Gt => ">",
            TokenKind::GtEq => ">=",
            TokenKind::Plus => "+",
            TokenKind::Minus => "-",
            TokenKind::Star => "*",
            TokenKind::Slash => "/",
            TokenKind::Percent => "%",
            TokenKind::Concat => "||",
            TokenKind::LParen => "(",
            TokenKind::RParen => ")",
            TokenKind::Comma => ",",
            TokenKind::Dot => ".",
            TokenKind::Semicolon => ";",
            TokenKind::Placeholder => "?",
            _ => "",
        }
    }

    pub(crate) fn is_keyword(&self, kw: Keyword) -> bool {
        matches!(self, TokenKind::Keyword(k) if *k == kw)
    }
}

/// A token with its source span.
#[derive(Debug, Clone, PartialEq)]
pub struct Token {
    pub kind: TokenKind,
    pub span: Span,
}

impl Token {
    pub fn new(kind: TokenKind, span: Span) -> Self {
        Token { kind, span }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn keyword_lookup_is_case_insensitive() {
        assert_eq!(Keyword::from_str_ci("select"), Some(Keyword::Select));
        assert_eq!(Keyword::from_str_ci("SeLeCt"), Some(Keyword::Select));
        assert_eq!(Keyword::from_str_ci("GROUP"), Some(Keyword::Group));
        assert_eq!(Keyword::from_str_ci("salinity"), None);
    }

    #[test]
    fn keyword_lookup_rejects_long_strings() {
        assert_eq!(Keyword::from_str_ci("averyveryverylongidentifier"), None);
    }

    #[test]
    fn roundtrip_keyword_spelling() {
        for kw in [Keyword::Select, Keyword::Between, Keyword::Varchar] {
            assert_eq!(Keyword::from_str_ci(kw.as_str()), Some(kw));
        }
    }

    #[test]
    fn describe_mentions_content() {
        assert!(TokenKind::Ident("WaterTemp".into())
            .describe()
            .contains("WaterTemp"));
        assert_eq!(TokenKind::LtEq.describe(), "`<=`");
    }
}
