//! Recursive-descent parser with precedence-climbing expressions.
//!
//! The parser consumes the token stream produced by [`crate::lexer::Lexer`]
//! and produces the [`crate::ast`] types. Errors carry the span of the
//! offending token and the set of alternatives the parser would have
//! accepted, which the CQMS correction/completion engines exploit.

use crate::ast::*;
use crate::error::{ParseError, Span};
use crate::lexer::Lexer;
use crate::token::{Keyword, Token, TokenKind};

/// Parse exactly one statement (a trailing `;` is allowed).
pub fn parse_statement(sql: &str) -> Result<Statement, ParseError> {
    let mut p = Parser::new(sql)?;
    let stmt = p.statement()?;
    p.eat(&TokenKind::Semicolon);
    p.expect_eof()?;
    Ok(stmt)
}

/// Parse a standalone scalar expression (used by tests and meta-query tools).
pub fn parse_expression(sql: &str) -> Result<Expr, ParseError> {
    let mut p = Parser::new(sql)?;
    let e = p.expr()?;
    p.expect_eof()?;
    Ok(e)
}

/// Deepest nesting the parser accepts, in two counts that each stay at or
/// below it:
///
/// * recursive descents — a parenthesised expression, a subquery, an
///   `EXISTS`/`IN` operand, each `NOT`/`-` of a unary chain;
/// * operator folds on one root-to-leaf path — a left-associative chain
///   (`a AND b AND …`, `x IS NULL IS NULL …`) deepens the AST one level
///   per operator without recursing.
///
/// Without a bound, SQL text picks the recursion depth of the parser and
/// of every AST walk after it (tree building, canonicalisation, printing,
/// execution), and a deep enough nesting overflows the thread's stack,
/// which aborts the process; past the bound it is a [`ParseError`].
/// Generated and hand-written queries stay far below it.
pub const MAX_NESTING: usize = 128;

/// Token-stream parser. Construct with [`Parser::new`], then call
/// [`Parser::statement`] or [`Parser::expr`].
pub struct Parser {
    tokens: Vec<Token>,
    pos: usize,
    /// Recursive descents in progress (see [`MAX_NESTING`]).
    depth: usize,
    /// Operator folds on the deepest path of everything the innermost
    /// expression in progress has parsed so far (see [`MAX_NESTING`]).
    folds: usize,
}

impl Parser {
    /// Tokenize `sql` and position the parser at the first token.
    pub fn new(sql: &str) -> Result<Self, ParseError> {
        Ok(Parser {
            tokens: Lexer::tokenize(sql)?,
            pos: 0,
            depth: 0,
            folds: 0,
        })
    }

    /// Run `descend` one nesting level deeper, failing past
    /// [`MAX_NESTING`].
    fn nested<T>(
        &mut self,
        descend: impl FnOnce(&mut Self) -> Result<T, ParseError>,
    ) -> Result<T, ParseError> {
        if self.depth >= MAX_NESTING {
            return Err(self.error_here(format!("query nests deeper than {MAX_NESTING} levels")));
        }
        self.depth += 1;
        let out = descend(self);
        self.depth -= 1;
        out
    }

    /// Wrap the expression in progress in one more operator node. Its
    /// operands were all parsed since the expression started, so `folds`
    /// already holds the deepest of them.
    fn fold(&mut self) -> Result<(), ParseError> {
        self.folds += 1;
        if self.folds > MAX_NESTING {
            return Err(self.error_here(format!(
                "expression chains more than {MAX_NESTING} operators"
            )));
        }
        Ok(())
    }

    // ------------------------------------------------------------------
    // Token-stream helpers
    // ------------------------------------------------------------------

    fn peek(&self) -> &TokenKind {
        &self.tokens[self.pos].kind
    }

    fn peek_span(&self) -> Span {
        self.tokens[self.pos].span
    }

    fn peek_ahead(&self, n: usize) -> &TokenKind {
        let idx = (self.pos + n).min(self.tokens.len() - 1);
        &self.tokens[idx].kind
    }

    fn advance(&mut self) -> &TokenKind {
        let idx = self.pos;
        if self.pos + 1 < self.tokens.len() {
            self.pos += 1;
        }
        &self.tokens[idx].kind
    }

    /// Has the parser consumed all input?
    pub(crate) fn at_eof(&self) -> bool {
        matches!(self.peek(), TokenKind::Eof)
    }

    fn check(&self, kind: &TokenKind) -> bool {
        self.peek() == kind
    }

    fn check_kw(&self, kw: Keyword) -> bool {
        self.peek().is_keyword(kw)
    }

    fn eat(&mut self, kind: &TokenKind) -> bool {
        if self.check(kind) {
            self.advance();
            true
        } else {
            false
        }
    }

    fn eat_kw(&mut self, kw: Keyword) -> bool {
        if self.check_kw(kw) {
            self.advance();
            true
        } else {
            false
        }
    }

    fn expect(&mut self, kind: &TokenKind) -> Result<(), ParseError> {
        if self.eat(kind) {
            Ok(())
        } else {
            Err(self
                .error_here(format!(
                    "expected {}, found {}",
                    kind.describe(),
                    self.peek().describe()
                ))
                .with_expected(vec![kind.describe()]))
        }
    }

    fn expect_kw(&mut self, kw: Keyword) -> Result<(), ParseError> {
        if self.eat_kw(kw) {
            Ok(())
        } else {
            Err(self
                .error_here(format!(
                    "expected keyword {kw}, found {}",
                    self.peek().describe()
                ))
                .with_expected(vec![kw.as_str().to_string()]))
        }
    }

    fn expect_eof(&mut self) -> Result<(), ParseError> {
        if self.at_eof() {
            Ok(())
        } else {
            Err(self.error_here(format!(
                "unexpected trailing input: {}",
                self.peek().describe()
            )))
        }
    }

    fn error_here(&self, msg: impl Into<String>) -> ParseError {
        ParseError::new(msg, self.peek_span())
    }

    /// Accept an identifier (bare or quoted). Keywords are *not* identifiers.
    fn ident(&mut self) -> Result<String, ParseError> {
        match self.peek().clone() {
            TokenKind::Ident(s) => {
                self.advance();
                Ok(s)
            }
            TokenKind::QuotedIdent(s) => {
                self.advance();
                Ok(s)
            }
            other => Err(self
                .error_here(format!("expected identifier, found {}", other.describe()))
                .with_expected(vec!["identifier".into()])),
        }
    }

    // ------------------------------------------------------------------
    // Statements
    // ------------------------------------------------------------------

    /// Parse one statement at the current position.
    pub fn statement(&mut self) -> Result<Statement, ParseError> {
        match self.peek() {
            TokenKind::Keyword(Keyword::Select) => Ok(Statement::Select(self.select()?)),
            TokenKind::Keyword(Keyword::Insert) => self.insert(),
            TokenKind::Keyword(Keyword::Create) => self.create_table(),
            TokenKind::Keyword(Keyword::Update) => self.update(),
            TokenKind::Keyword(Keyword::Delete) => self.delete(),
            TokenKind::Keyword(Keyword::Drop) => self.drop_table(),
            TokenKind::Keyword(Keyword::Alter) => self.alter(),
            other => Err(self
                .error_here(format!("expected a statement, found {}", other.describe()))
                .with_expected(
                    [
                        "SELECT", "INSERT", "CREATE", "UPDATE", "DELETE", "DROP", "ALTER",
                    ]
                    .iter()
                    .map(|s| s.to_string())
                    .collect(),
                )),
        }
    }

    /// Parse a SELECT statement (entry point also used for subqueries).
    pub fn select(&mut self) -> Result<SelectStatement, ParseError> {
        self.nested(Self::select_body)
    }

    fn select_body(&mut self) -> Result<SelectStatement, ParseError> {
        self.expect_kw(Keyword::Select)?;
        let distinct = self.eat_kw(Keyword::Distinct);
        if self.eat_kw(Keyword::All) {
            // `SELECT ALL` is the explicit default.
        }

        let projection = self.projection_list()?;

        let mut from = Vec::new();
        if self.eat_kw(Keyword::From) {
            loop {
                from.push(self.table_ref()?);
                if !self.eat(&TokenKind::Comma) {
                    break;
                }
            }
        }

        let where_clause = if self.eat_kw(Keyword::Where) {
            Some(self.expr()?)
        } else {
            None
        };

        let mut group_by = Vec::new();
        if self.eat_kw(Keyword::Group) {
            self.expect_kw(Keyword::By)?;
            loop {
                group_by.push(self.expr()?);
                if !self.eat(&TokenKind::Comma) {
                    break;
                }
            }
        }

        let having = if self.eat_kw(Keyword::Having) {
            Some(self.expr()?)
        } else {
            None
        };

        let mut order_by = Vec::new();
        if self.eat_kw(Keyword::Order) {
            self.expect_kw(Keyword::By)?;
            loop {
                let expr = self.expr()?;
                let desc = if self.eat_kw(Keyword::Desc) {
                    true
                } else {
                    self.eat_kw(Keyword::Asc);
                    false
                };
                order_by.push(OrderByItem { expr, desc });
                if !self.eat(&TokenKind::Comma) {
                    break;
                }
            }
        }

        let limit = if self.eat_kw(Keyword::Limit) {
            Some(self.unsigned_int("LIMIT")?)
        } else {
            None
        };
        let offset = if self.eat_kw(Keyword::Offset) {
            Some(self.unsigned_int("OFFSET")?)
        } else {
            None
        };

        Ok(SelectStatement {
            distinct,
            projection,
            from,
            where_clause,
            group_by,
            having,
            order_by,
            limit,
            offset,
        })
    }

    fn unsigned_int(&mut self, ctx: &str) -> Result<u64, ParseError> {
        match self.peek().clone() {
            TokenKind::NumberLit(n) => {
                let v = n.parse::<u64>().map_err(|_| {
                    self.error_here(format!("{ctx} expects a non-negative integer, got `{n}`"))
                })?;
                self.advance();
                Ok(v)
            }
            other => Err(self.error_here(format!(
                "{ctx} expects an integer, found {}",
                other.describe()
            ))),
        }
    }

    fn projection_list(&mut self) -> Result<Vec<SelectItem>, ParseError> {
        let mut items = Vec::new();
        // Tolerate the paper's partial query `SELECT FROM a, b` (empty
        // projection) only when immediately followed by FROM: the assisted
        // mode needs to parse exactly this shape (§2.2).
        if self.check_kw(Keyword::From) {
            return Ok(items);
        }
        loop {
            items.push(self.projection_item()?);
            if !self.eat(&TokenKind::Comma) {
                break;
            }
        }
        Ok(items)
    }

    fn projection_item(&mut self) -> Result<SelectItem, ParseError> {
        if self.eat(&TokenKind::Star) {
            return Ok(SelectItem::Wildcard);
        }
        // `alias.*`
        if let TokenKind::Ident(name) = self.peek().clone() {
            if self.peek_ahead(1) == &TokenKind::Dot && self.peek_ahead(2) == &TokenKind::Star {
                self.advance();
                self.advance();
                self.advance();
                return Ok(SelectItem::QualifiedWildcard(name));
            }
        }
        let expr = self.expr()?;
        let alias = if self.eat_kw(Keyword::As)
            || matches!(self.peek(), TokenKind::Ident(_) | TokenKind::QuotedIdent(_))
        {
            Some(self.ident()?)
        } else {
            None
        };
        Ok(SelectItem::Expr { expr, alias })
    }

    fn table_ref(&mut self) -> Result<TableRef, ParseError> {
        let name = self.ident()?;
        let alias = self.table_alias()?;
        let mut joins = Vec::new();
        loop {
            let kind = if self.eat_kw(Keyword::Cross) {
                self.expect_kw(Keyword::Join)?;
                JoinKind::Cross
            } else if self.eat_kw(Keyword::Inner) {
                self.expect_kw(Keyword::Join)?;
                JoinKind::Inner
            } else if self.eat_kw(Keyword::Left) {
                self.eat_kw(Keyword::Outer);
                self.expect_kw(Keyword::Join)?;
                JoinKind::LeftOuter
            } else if self.eat_kw(Keyword::Right) {
                self.eat_kw(Keyword::Outer);
                self.expect_kw(Keyword::Join)?;
                JoinKind::RightOuter
            } else if self.eat_kw(Keyword::Full) {
                self.eat_kw(Keyword::Outer);
                self.expect_kw(Keyword::Join)?;
                JoinKind::FullOuter
            } else if self.eat_kw(Keyword::Join) {
                JoinKind::Inner
            } else {
                break;
            };
            let table = self.ident()?;
            let alias = self.table_alias()?;
            let on = if kind == JoinKind::Cross {
                None
            } else {
                self.expect_kw(Keyword::On)?;
                Some(self.expr()?)
            };
            joins.push(JoinClause {
                kind,
                table,
                alias,
                on,
            });
        }
        Ok(TableRef { name, alias, joins })
    }

    fn table_alias(&mut self) -> Result<Option<String>, ParseError> {
        if self.eat_kw(Keyword::As) {
            return Ok(Some(self.ident()?));
        }
        if matches!(self.peek(), TokenKind::Ident(_) | TokenKind::QuotedIdent(_)) {
            return Ok(Some(self.ident()?));
        }
        Ok(None)
    }

    // ------------------------------------------------------------------
    // Expressions (precedence climbing)
    // ------------------------------------------------------------------

    /// Parse an expression at the lowest precedence (OR).
    pub fn expr(&mut self) -> Result<Expr, ParseError> {
        self.expr_bp(0)
    }

    fn expr_bp(&mut self, min_bp: u8) -> Result<Expr, ParseError> {
        // Folds are counted per expression: this one's start from zero,
        // and the enclosing expression's count takes the max of the two.
        let enclosing = std::mem::take(&mut self.folds);
        let out = self.nested(|p| p.expr_bp_body(min_bp));
        self.folds = self.folds.max(enclosing);
        out
    }

    fn expr_bp_body(&mut self, min_bp: u8) -> Result<Expr, ParseError> {
        let mut lhs = self.unary()?;
        loop {
            // Postfix predicates (IS NULL, IN, BETWEEN, LIKE, NOT ...):
            // they bind tighter than AND/OR but looser than comparisons.
            const PREDICATE_BP: u8 = 3;
            if min_bp <= PREDICATE_BP {
                match self.try_postfix_predicate(lhs)? {
                    Ok(wrapped) => {
                        lhs = wrapped;
                        self.fold()?;
                        continue;
                    }
                    Err(original) => lhs = original, // fall through to binary ops
                }
            }

            let Some(op) = self.peek_binary_op() else {
                return Ok(lhs);
            };
            let bp = op.precedence();
            if bp < min_bp {
                return Ok(lhs);
            }
            self.advance();
            let rhs = self.expr_bp(bp + 1)?;
            lhs = Expr::binary(lhs, op, rhs);
            self.fold()?;
        }
    }

    /// Try to wrap `lhs` with a postfix predicate. The outer `Result` is a
    /// parse failure; the inner value is `Ok(wrapped)` when a predicate was
    /// consumed and `Err(lhs)` (handing the expression back) when not.
    #[allow(clippy::type_complexity)]
    fn try_postfix_predicate(&mut self, lhs: Expr) -> Result<Result<Expr, Expr>, ParseError> {
        // IS [NOT] NULL
        if self.check_kw(Keyword::Is) {
            self.advance();
            let negated = self.eat_kw(Keyword::Not);
            self.expect_kw(Keyword::Null)?;
            return Ok(Ok(Expr::IsNull {
                expr: Box::new(lhs),
                negated,
            }));
        }

        // NOT IN / NOT BETWEEN / NOT LIKE
        let negated = if self.check_kw(Keyword::Not)
            && matches!(
                self.peek_ahead(1),
                TokenKind::Keyword(Keyword::In)
                    | TokenKind::Keyword(Keyword::Between)
                    | TokenKind::Keyword(Keyword::Like)
            ) {
            self.advance();
            true
        } else {
            false
        };

        if self.eat_kw(Keyword::In) {
            self.expect(&TokenKind::LParen)?;
            if self.check_kw(Keyword::Select) {
                let sub = self.select()?;
                self.expect(&TokenKind::RParen)?;
                return Ok(Ok(Expr::InSubquery {
                    expr: Box::new(lhs),
                    subquery: Box::new(sub),
                    negated,
                }));
            }
            let mut list = Vec::new();
            if !self.check(&TokenKind::RParen) {
                loop {
                    list.push(self.expr_bp(4)?);
                    if !self.eat(&TokenKind::Comma) {
                        break;
                    }
                }
            }
            self.expect(&TokenKind::RParen)?;
            return Ok(Ok(Expr::InList {
                expr: Box::new(lhs),
                list,
                negated,
            }));
        }

        if self.eat_kw(Keyword::Between) {
            let low = self.expr_bp(4)?;
            self.expect_kw(Keyword::And)?;
            let high = self.expr_bp(4)?;
            return Ok(Ok(Expr::Between {
                expr: Box::new(lhs),
                low: Box::new(low),
                high: Box::new(high),
                negated,
            }));
        }

        if self.eat_kw(Keyword::Like) {
            let pattern = self.expr_bp(4)?;
            return Ok(Ok(Expr::Like {
                expr: Box::new(lhs),
                pattern: Box::new(pattern),
                negated,
            }));
        }

        if negated {
            // We consumed NOT but no predicate followed — cannot happen
            // given the lookahead above.
            return Err(self.error_here("expected IN, BETWEEN or LIKE after NOT"));
        }
        Ok(Err(lhs))
    }

    fn peek_binary_op(&self) -> Option<BinaryOp> {
        Some(match self.peek() {
            TokenKind::Keyword(Keyword::Or) => BinaryOp::Or,
            TokenKind::Keyword(Keyword::And) => BinaryOp::And,
            TokenKind::Eq => BinaryOp::Eq,
            TokenKind::NotEq => BinaryOp::NotEq,
            TokenKind::Lt => BinaryOp::Lt,
            TokenKind::LtEq => BinaryOp::LtEq,
            TokenKind::Gt => BinaryOp::Gt,
            TokenKind::GtEq => BinaryOp::GtEq,
            TokenKind::Plus => BinaryOp::Plus,
            TokenKind::Minus => BinaryOp::Minus,
            TokenKind::Star => BinaryOp::Mul,
            TokenKind::Slash => BinaryOp::Div,
            TokenKind::Percent => BinaryOp::Mod,
            TokenKind::Concat => BinaryOp::Concat,
            _ => return None,
        })
    }

    fn unary(&mut self) -> Result<Expr, ParseError> {
        if self.eat_kw(Keyword::Not) {
            let e = self.expr_bp(3)?;
            return Ok(Expr::Unary {
                op: UnaryOp::Not,
                expr: Box::new(e),
            });
        }
        if self.eat(&TokenKind::Minus) {
            let e = self.nested(Self::unary)?;
            // Fold `-<numeric literal>` into a negative literal so that
            // predicate constants like `temp < -5` extract as the value -5.
            return Ok(match e {
                Expr::Literal(Literal::Int(i)) => Expr::Literal(Literal::Int(-i)),
                Expr::Literal(Literal::Float(f)) => Expr::Literal(Literal::Float(-f)),
                other => Expr::Unary {
                    op: UnaryOp::Neg,
                    expr: Box::new(other),
                },
            });
        }
        if self.eat(&TokenKind::Plus) {
            let e = self.nested(Self::unary)?;
            return Ok(Expr::Unary {
                op: UnaryOp::Plus,
                expr: Box::new(e),
            });
        }
        self.primary()
    }

    fn primary(&mut self) -> Result<Expr, ParseError> {
        match self.peek().clone() {
            TokenKind::NumberLit(n) => {
                self.advance();
                if let Ok(i) = n.parse::<i64>() {
                    Ok(Expr::Literal(Literal::Int(i)))
                } else {
                    let f = n
                        .parse::<f64>()
                        .map_err(|_| self.error_here(format!("invalid numeric literal `{n}`")))?;
                    Ok(Expr::Literal(Literal::Float(f)))
                }
            }
            TokenKind::StringLit(s) => {
                self.advance();
                Ok(Expr::Literal(Literal::Str(s)))
            }
            TokenKind::Placeholder => {
                self.advance();
                Ok(Expr::Literal(Literal::Placeholder))
            }
            TokenKind::Keyword(Keyword::Null) => {
                self.advance();
                Ok(Expr::Literal(Literal::Null))
            }
            TokenKind::Keyword(Keyword::True) => {
                self.advance();
                Ok(Expr::Literal(Literal::Bool(true)))
            }
            TokenKind::Keyword(Keyword::False) => {
                self.advance();
                Ok(Expr::Literal(Literal::Bool(false)))
            }
            TokenKind::Keyword(Keyword::Exists) => {
                self.advance();
                self.expect(&TokenKind::LParen)?;
                let sub = self.select()?;
                self.expect(&TokenKind::RParen)?;
                Ok(Expr::Exists {
                    subquery: Box::new(sub),
                    negated: false,
                })
            }
            TokenKind::Keyword(Keyword::Case) => self.case_expr(),
            TokenKind::LParen => {
                self.advance();
                if self.check_kw(Keyword::Select) {
                    let sub = self.select()?;
                    self.expect(&TokenKind::RParen)?;
                    return Ok(Expr::ScalarSubquery(Box::new(sub)));
                }
                let e = self.expr()?;
                self.expect(&TokenKind::RParen)?;
                Ok(e)
            }
            TokenKind::Ident(_) | TokenKind::QuotedIdent(_) => self.ident_expr(),
            other => Err(self
                .error_here(format!("expected expression, found {}", other.describe()))
                .with_expected(vec![
                    "literal".into(),
                    "column".into(),
                    "function".into(),
                    "(".into(),
                ])),
        }
    }

    fn case_expr(&mut self) -> Result<Expr, ParseError> {
        self.expect_kw(Keyword::Case)?;
        let operand = if self.check_kw(Keyword::When) {
            None
        } else {
            Some(Box::new(self.expr()?))
        };
        let mut branches = Vec::new();
        while self.eat_kw(Keyword::When) {
            let when = self.expr()?;
            self.expect_kw(Keyword::Then)?;
            let then = self.expr()?;
            branches.push((when, then));
        }
        if branches.is_empty() {
            return Err(self.error_here("CASE requires at least one WHEN branch"));
        }
        let else_branch = if self.eat_kw(Keyword::Else) {
            Some(Box::new(self.expr()?))
        } else {
            None
        };
        self.expect_kw(Keyword::End)?;
        Ok(Expr::Case {
            operand,
            branches,
            else_branch,
        })
    }

    /// Identifier-led expression: column ref, qualified column or function.
    fn ident_expr(&mut self) -> Result<Expr, ParseError> {
        let first = self.ident()?;
        if self.eat(&TokenKind::Dot) {
            if self.eat(&TokenKind::Star) {
                // `t.*` only valid in projections; handled there. Here it is
                // an error, but give a precise message.
                return Err(self.error_here("`.*` is only valid in the SELECT list"));
            }
            let name = self.ident()?;
            return Ok(Expr::Column(ColumnRef::qualified(first, name)));
        }
        if self.eat(&TokenKind::LParen) {
            // Function call.
            let distinct = self.eat_kw(Keyword::Distinct);
            if self.eat(&TokenKind::Star) {
                self.expect(&TokenKind::RParen)?;
                return Ok(Expr::Function {
                    name: first,
                    args: Vec::new(),
                    distinct,
                    star: true,
                });
            }
            let mut args = Vec::new();
            if !self.check(&TokenKind::RParen) {
                loop {
                    args.push(self.expr()?);
                    if !self.eat(&TokenKind::Comma) {
                        break;
                    }
                }
            }
            self.expect(&TokenKind::RParen)?;
            return Ok(Expr::Function {
                name: first,
                args,
                distinct,
                star: false,
            });
        }
        Ok(Expr::Column(ColumnRef::bare(first)))
    }

    // ------------------------------------------------------------------
    // Non-SELECT statements
    // ------------------------------------------------------------------

    fn insert(&mut self) -> Result<Statement, ParseError> {
        self.expect_kw(Keyword::Insert)?;
        self.expect_kw(Keyword::Into)?;
        let table = self.ident()?;
        let mut columns = Vec::new();
        if self.eat(&TokenKind::LParen) {
            loop {
                columns.push(self.ident()?);
                if !self.eat(&TokenKind::Comma) {
                    break;
                }
            }
            self.expect(&TokenKind::RParen)?;
        }
        self.expect_kw(Keyword::Values)?;
        let mut rows = Vec::new();
        loop {
            self.expect(&TokenKind::LParen)?;
            let mut row = Vec::new();
            if !self.check(&TokenKind::RParen) {
                loop {
                    row.push(self.expr()?);
                    if !self.eat(&TokenKind::Comma) {
                        break;
                    }
                }
            }
            self.expect(&TokenKind::RParen)?;
            rows.push(row);
            if !self.eat(&TokenKind::Comma) {
                break;
            }
        }
        Ok(Statement::Insert(InsertStatement {
            table,
            columns,
            rows,
        }))
    }

    fn create_table(&mut self) -> Result<Statement, ParseError> {
        self.expect_kw(Keyword::Create)?;
        self.expect_kw(Keyword::Table)?;
        let name = self.ident()?;
        self.expect(&TokenKind::LParen)?;
        let mut columns = Vec::new();
        loop {
            let col = self.ident()?;
            let ty = self.data_type()?;
            columns.push((col, ty));
            if !self.eat(&TokenKind::Comma) {
                break;
            }
        }
        self.expect(&TokenKind::RParen)?;
        Ok(Statement::CreateTable(CreateTableStatement {
            name,
            columns,
        }))
    }

    fn data_type(&mut self) -> Result<DataType, ParseError> {
        let ty = match self.peek() {
            TokenKind::Keyword(Keyword::Int) | TokenKind::Keyword(Keyword::Integer) => {
                DataType::Int
            }
            TokenKind::Keyword(Keyword::Float)
            | TokenKind::Keyword(Keyword::Real)
            | TokenKind::Keyword(Keyword::Double) => DataType::Float,
            TokenKind::Keyword(Keyword::Text) | TokenKind::Keyword(Keyword::Varchar) => {
                DataType::Text
            }
            TokenKind::Keyword(Keyword::Boolean) => DataType::Bool,
            other => {
                return Err(self
                    .error_here(format!("expected data type, found {}", other.describe()))
                    .with_expected(vec![
                        "INT".into(),
                        "FLOAT".into(),
                        "TEXT".into(),
                        "BOOLEAN".into(),
                    ]))
            }
        };
        self.advance();
        // Accept and ignore VARCHAR(n) length.
        if self.eat(&TokenKind::LParen) {
            self.unsigned_int("VARCHAR length")?;
            self.expect(&TokenKind::RParen)?;
        }
        Ok(ty)
    }

    fn update(&mut self) -> Result<Statement, ParseError> {
        self.expect_kw(Keyword::Update)?;
        let table = self.ident()?;
        self.expect_kw(Keyword::Set)?;
        let mut assignments = Vec::new();
        loop {
            let col = self.ident()?;
            self.expect(&TokenKind::Eq)?;
            let val = self.expr()?;
            assignments.push((col, val));
            if !self.eat(&TokenKind::Comma) {
                break;
            }
        }
        let where_clause = if self.eat_kw(Keyword::Where) {
            Some(self.expr()?)
        } else {
            None
        };
        Ok(Statement::Update(UpdateStatement {
            table,
            assignments,
            where_clause,
        }))
    }

    fn delete(&mut self) -> Result<Statement, ParseError> {
        self.expect_kw(Keyword::Delete)?;
        self.expect_kw(Keyword::From)?;
        let table = self.ident()?;
        let where_clause = if self.eat_kw(Keyword::Where) {
            Some(self.expr()?)
        } else {
            None
        };
        Ok(Statement::Delete(DeleteStatement {
            table,
            where_clause,
        }))
    }

    fn drop_table(&mut self) -> Result<Statement, ParseError> {
        self.expect_kw(Keyword::Drop)?;
        self.expect_kw(Keyword::Table)?;
        Ok(Statement::DropTable(self.ident()?))
    }

    fn alter(&mut self) -> Result<Statement, ParseError> {
        self.expect_kw(Keyword::Alter)?;
        self.expect_kw(Keyword::Table)?;
        let table = self.ident()?;
        if self.eat_kw(Keyword::Rename) {
            if self.eat_kw(Keyword::Column) {
                let from = self.ident()?;
                self.expect_kw(Keyword::To)?;
                let to = self.ident()?;
                return Ok(Statement::AlterRenameColumn { table, from, to });
            }
            self.expect_kw(Keyword::To)?;
            let to = self.ident()?;
            return Ok(Statement::AlterRenameTable { table, to });
        }
        if self.eat_kw(Keyword::Drop) {
            self.eat_kw(Keyword::Column);
            let column = self.ident()?;
            return Ok(Statement::AlterDropColumn { table, column });
        }
        if self.eat_kw(Keyword::Add) {
            self.eat_kw(Keyword::Column);
            let column = self.ident()?;
            let data_type = self.data_type()?;
            return Ok(Statement::AlterAddColumn {
                table,
                column,
                data_type,
            });
        }
        Err(self
            .error_here("expected RENAME, DROP or ADD after ALTER TABLE")
            .with_expected(vec!["RENAME".into(), "DROP".into(), "ADD".into()]))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sel(sql: &str) -> SelectStatement {
        match parse_statement(sql).unwrap() {
            Statement::Select(s) => s,
            other => panic!("expected select, got {other:?}"),
        }
    }

    #[test]
    fn parses_figure1_meta_query() {
        // The verbatim meta-query from Figure 1 of the paper.
        let s = sel("SELECT Q.qid, Q.qText \
             FROM Queries Q, Attributes A1, Attributes A2 \
             WHERE Q.qid = A1.qid AND Q.qid = A2.qid \
             AND A1.attrName = 'salinity' \
             AND A1.relName = 'WaterSalinity' \
             AND A2.attrName = 'temp' \
             AND A2.relName = 'WaterTemp'");
        assert_eq!(s.projection.len(), 2);
        assert_eq!(s.from.len(), 3);
        assert_eq!(s.from[1].name, "Attributes");
        assert_eq!(s.from[1].alias.as_deref(), Some("A1"));
        let w = s.where_clause.unwrap();
        assert_eq!(w.conjuncts().len(), 6);
    }

    #[test]
    fn parses_figure3_query() {
        // The query being composed in Figure 3 (completed form).
        let s = sel(
            "SELECT * FROM WaterSalinity S, WaterTemp T, CityLocations L \
             WHERE T.temp < 18 AND S.loc_x = T.loc_x AND S.loc_y = T.loc_y \
             AND L.city IN (SELECT City FROM Cities WHERE State = 'WA')",
        );
        assert_eq!(s.from.len(), 3);
        let w = s.where_clause.unwrap();
        let conj = w.conjuncts();
        assert_eq!(conj.len(), 4);
        assert!(matches!(conj[3], Expr::InSubquery { .. }));
    }

    #[test]
    fn and_or_precedence() {
        let e = parse_expression("a = 1 OR b = 2 AND c = 3").unwrap();
        // Must parse as a=1 OR (b=2 AND c=3).
        match e {
            Expr::Binary {
                op: BinaryOp::Or,
                right,
                ..
            } => match *right {
                Expr::Binary {
                    op: BinaryOp::And, ..
                } => {}
                other => panic!("expected AND on the right, got {other:?}"),
            },
            other => panic!("expected OR at top, got {other:?}"),
        }
    }

    #[test]
    fn arithmetic_precedence() {
        let e = parse_expression("1 + 2 * 3").unwrap();
        match e {
            Expr::Binary {
                op: BinaryOp::Plus,
                right,
                ..
            } => assert!(matches!(
                *right,
                Expr::Binary {
                    op: BinaryOp::Mul,
                    ..
                }
            )),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn not_precedence() {
        let e = parse_expression("NOT a = 1 AND b = 2").unwrap();
        // NOT binds the comparison, not the conjunction.
        match e {
            Expr::Binary {
                op: BinaryOp::And,
                left,
                ..
            } => assert!(matches!(
                *left,
                Expr::Unary {
                    op: UnaryOp::Not,
                    ..
                }
            )),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn between_and_boundary() {
        // The AND inside BETWEEN must not be confused with conjunction.
        let e = parse_expression("temp BETWEEN 10 AND 20 AND depth > 5").unwrap();
        let parts = e.conjuncts();
        assert_eq!(parts.len(), 2);
        assert!(matches!(parts[0], Expr::Between { .. }));
    }

    #[test]
    fn negated_predicates() {
        assert!(matches!(
            parse_expression("x NOT IN (1, 2)").unwrap(),
            Expr::InList { negated: true, .. }
        ));
        assert!(matches!(
            parse_expression("x NOT LIKE '%lake%'").unwrap(),
            Expr::Like { negated: true, .. }
        ));
        assert!(matches!(
            parse_expression("x NOT BETWEEN 1 AND 2").unwrap(),
            Expr::Between { negated: true, .. }
        ));
        assert!(matches!(
            parse_expression("x IS NOT NULL").unwrap(),
            Expr::IsNull { negated: true, .. }
        ));
    }

    #[test]
    fn aggregates_and_group_by() {
        let s = sel(
            "SELECT lake, COUNT(*), AVG(temp) AS avg_temp FROM WaterTemp \
             GROUP BY lake HAVING COUNT(*) > 10 ORDER BY avg_temp DESC LIMIT 5",
        );
        assert_eq!(s.group_by.len(), 1);
        assert!(s.having.is_some());
        assert_eq!(s.order_by.len(), 1);
        assert!(s.order_by[0].desc);
        assert_eq!(s.limit, Some(5));
        match &s.projection[1] {
            SelectItem::Expr {
                expr: Expr::Function { name, star, .. },
                ..
            } => {
                assert_eq!(name, "COUNT");
                assert!(*star);
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn explicit_joins() {
        let s = sel("SELECT * FROM WaterSalinity S LEFT OUTER JOIN WaterTemp T \
             ON S.loc_x = T.loc_x CROSS JOIN CityLocations");
        assert_eq!(s.from.len(), 1);
        assert_eq!(s.from[0].joins.len(), 2);
        assert_eq!(s.from[0].joins[0].kind, JoinKind::LeftOuter);
        assert_eq!(s.from[0].joins[1].kind, JoinKind::Cross);
        assert!(s.from[0].joins[1].on.is_none());
    }

    #[test]
    fn nested_subqueries() {
        let s = sel("SELECT city FROM CityLocations WHERE pop > \
             (SELECT AVG(pop) FROM CityLocations) AND EXISTS \
             (SELECT * FROM Lakes WHERE Lakes.state = CityLocations.state)");
        let w = s.where_clause.unwrap();
        assert!(w.contains_subquery());
    }

    #[test]
    fn distinct_and_qualified_wildcard() {
        let s = sel("SELECT DISTINCT T.* FROM WaterTemp T");
        assert!(s.distinct);
        assert_eq!(s.projection[0], SelectItem::QualifiedWildcard("T".into()));
    }

    #[test]
    fn partial_query_empty_projection() {
        // §2.2: the client may send `SELECT FROM a, b` while the user is
        // still typing; the feature-query generator needs its FROM list.
        let s = sel("SELECT FROM WaterSalinity, WaterTemperature");
        assert!(s.projection.is_empty());
        assert_eq!(s.from.len(), 2);
    }

    #[test]
    fn create_insert_update_delete() {
        let c = parse_statement("CREATE TABLE t (a INT, b FLOAT, c TEXT, d BOOLEAN)").unwrap();
        match c {
            Statement::CreateTable(ct) => {
                assert_eq!(ct.columns.len(), 4);
                assert_eq!(ct.columns[1], ("b".into(), DataType::Float));
            }
            other => panic!("{other:?}"),
        }
        let i = parse_statement("INSERT INTO t (a, b) VALUES (1, 2.5), (3, 4.5)").unwrap();
        match i {
            Statement::Insert(ins) => {
                assert_eq!(ins.rows.len(), 2);
                assert_eq!(ins.columns, vec!["a", "b"]);
            }
            other => panic!("{other:?}"),
        }
        assert!(matches!(
            parse_statement("UPDATE t SET a = 1 WHERE b = 2").unwrap(),
            Statement::Update(_)
        ));
        assert!(matches!(
            parse_statement("DELETE FROM t WHERE a = 1").unwrap(),
            Statement::Delete(_)
        ));
    }

    #[test]
    fn alter_statements() {
        assert_eq!(
            parse_statement("ALTER TABLE t RENAME COLUMN a TO b").unwrap(),
            Statement::AlterRenameColumn {
                table: "t".into(),
                from: "a".into(),
                to: "b".into()
            }
        );
        assert_eq!(
            parse_statement("ALTER TABLE t DROP COLUMN a").unwrap(),
            Statement::AlterDropColumn {
                table: "t".into(),
                column: "a".into()
            }
        );
        assert_eq!(
            parse_statement("ALTER TABLE t ADD COLUMN x FLOAT").unwrap(),
            Statement::AlterAddColumn {
                table: "t".into(),
                column: "x".into(),
                data_type: DataType::Float
            }
        );
        assert_eq!(
            parse_statement("ALTER TABLE t RENAME TO u").unwrap(),
            Statement::AlterRenameTable {
                table: "t".into(),
                to: "u".into()
            }
        );
    }

    #[test]
    fn error_reports_expected() {
        let err = parse_statement("SELECT * FROM").unwrap_err();
        assert!(err.expected.contains(&"identifier".to_string()));
        let err = parse_statement("SELEC * FROM t").unwrap_err();
        assert!(err.message.contains("SELEC"));
    }

    #[test]
    fn trailing_garbage_rejected() {
        assert!(parse_statement("SELECT * FROM t garbage garbage").is_err());
    }

    #[test]
    fn case_expression() {
        let e = parse_expression(
            "CASE WHEN temp < 10 THEN 'cold' WHEN temp < 25 THEN 'mild' ELSE 'warm' END",
        )
        .unwrap();
        match e {
            Expr::Case {
                operand,
                branches,
                else_branch,
            } => {
                assert!(operand.is_none());
                assert_eq!(branches.len(), 2);
                assert!(else_branch.is_some());
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn in_list_of_strings() {
        let e = parse_expression("state IN ('WA', 'OR', 'ID')").unwrap();
        match e {
            Expr::InList { list, .. } => assert_eq!(list.len(), 3),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn function_with_distinct() {
        let e = parse_expression("COUNT(DISTINCT lake)").unwrap();
        assert!(matches!(e, Expr::Function { distinct: true, .. }));
    }

    #[test]
    fn limit_offset() {
        let s = sel("SELECT * FROM t LIMIT 10 OFFSET 20");
        assert_eq!(s.limit, Some(10));
        assert_eq!(s.offset, Some(20));
    }
}
