//! Parse errors with byte-span positions.
//!
//! Spans are retained so the CQMS client can highlight the offending region
//! and the correction engine (paper §2.3) can anchor its suggestions.

use std::fmt;

/// A half-open byte range `[start, end)` into the original SQL text.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct Span {
    /// Byte offset of the first character.
    pub start: usize,
    /// Byte offset one past the last character.
    pub end: usize,
}

impl Span {
    /// Construct a span from byte offsets.
    pub fn new(start: usize, end: usize) -> Self {
        Span { start, end }
    }

    /// The smallest span covering both `self` and `other`.
    pub fn merge(self, other: Span) -> Span {
        Span {
            start: self.start.min(other.start),
            end: self.end.max(other.end),
        }
    }

    /// True when the span covers no bytes.
    pub fn is_empty(&self) -> bool {
        self.start >= self.end
    }

    /// Slice `text` to this span, clamped to the text bounds.
    pub fn slice<'a>(&self, text: &'a str) -> &'a str {
        let start = self.start.min(text.len());
        let end = self.end.min(text.len());
        &text[start..end]
    }
}

impl fmt::Display for Span {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}..{}", self.start, self.end)
    }
}

/// An error produced by the lexer or parser.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// Human-readable description of the failure.
    pub message: String,
    /// Where in the input the failure occurred.
    pub span: Span,
    /// Token kinds or keywords the parser would have accepted here.
    ///
    /// The CQMS completion engine uses this to offer context-appropriate
    /// suggestions when a partially typed query fails to parse.
    pub expected: Vec<String>,
}

impl ParseError {
    /// Construct an error at `span`.
    pub fn new(message: impl Into<String>, span: Span) -> Self {
        ParseError {
            message: message.into(),
            span,
            expected: Vec::new(),
        }
    }

    /// Attach the set of inputs the parser would have accepted.
    pub(crate) fn with_expected(mut self, expected: Vec<String>) -> Self {
        self.expected = expected;
        self
    }
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "parse error at {}: {}", self.span, self.message)?;
        if !self.expected.is_empty() {
            write!(f, " (expected one of: {})", self.expected.join(", "))?;
        }
        Ok(())
    }
}

impl std::error::Error for ParseError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn span_merge_covers_both() {
        let a = Span::new(2, 5);
        let b = Span::new(4, 9);
        assert_eq!(a.merge(b), Span::new(2, 9));
        assert_eq!(b.merge(a), Span::new(2, 9));
    }

    #[test]
    fn span_slice_clamps() {
        let s = Span::new(3, 100);
        assert_eq!(s.slice("SELECT"), "ECT");
    }

    #[test]
    fn error_display_includes_expected() {
        let e = ParseError::new("unexpected token", Span::new(0, 1))
            .with_expected(vec!["FROM".into(), "WHERE".into()]);
        let s = e.to_string();
        assert!(s.contains("unexpected token"));
        assert!(s.contains("FROM"));
    }

    #[test]
    fn empty_span() {
        assert!(Span::new(5, 5).is_empty());
        assert!(!Span::new(5, 6).is_empty());
    }
}
