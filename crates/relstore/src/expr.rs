//! Expression compilation and evaluation over borrowed tuples.
//!
//! Expressions are compiled against a [`Scope`] (the tables visible in the
//! current query, with a parent pointer for correlated subqueries) into
//! [`CompiledExpr`], which resolves every column reference to a
//! `(scope level, factor, column)` triple. A [`Tuple`] holds one borrowed
//! catalog row per FROM factor — `None` where an outer join NULL-extended
//! it — so no operator concatenates rows: an [`EvalCtx`] is built once per
//! operator and pointed at each tuple in turn, and a correlated subquery
//! evaluates under the explicit [`Outer`] chain of its enclosing tuples.
//! Evaluation follows SQL three-valued logic: comparisons against NULL
//! yield NULL, `AND`/`OR` use Kleene semantics, and a WHERE clause keeps a
//! row only when its predicate evaluates to exactly `TRUE`.

use crate::catalog::Catalog;
use crate::error::EngineError;
use crate::exec::Plan;
use crate::table::Row;
use crate::value::{Key, Value};
use sqlparse::ast::*;
use std::borrow::Cow;
use std::collections::HashSet;

/// One table visible in a scope.
#[derive(Debug, Clone)]
pub struct Binding {
    /// Lower-cased binding name (alias if present, else table name).
    pub binding: String,
    /// Lower-cased underlying table name.
    pub table: String,
    /// Lower-cased column names in row order.
    pub columns: Vec<String>,
}

/// A compilation scope: the bindings of one SELECT (factor `i` is
/// `bindings[i]`), with a link to the enclosing query's scope for
/// correlated references.
pub struct Scope<'a> {
    pub bindings: &'a [Binding],
    pub parent: Option<&'a Scope<'a>>,
}

impl<'a> Scope<'a> {
    pub fn root(bindings: &'a [Binding]) -> Self {
        Scope {
            bindings,
            parent: None,
        }
    }

    /// Resolve a column reference to `(levels_up, factor, column)`.
    fn resolve(&self, col: &ColumnRef) -> Result<(usize, usize, usize), EngineError> {
        let name = col.name.to_ascii_lowercase();
        let qualifier = col.qualifier.as_ref().map(|q| q.to_ascii_lowercase());
        let mut scope = Some(self);
        let mut level = 0usize;
        while let Some(s) = scope {
            let mut hits = s.bindings.iter().enumerate().filter_map(|(f, b)| {
                if qualifier.as_ref().is_some_and(|q| &b.binding != q) {
                    return None;
                }
                b.columns.iter().position(|c| c == &name).map(|c| (f, c))
            });
            match (hits.next(), hits.next()) {
                (None, _) => {
                    scope = s.parent;
                    level += 1;
                }
                (Some((factor, column)), None) => return Ok((level, factor, column)),
                _ => return Err(EngineError::AmbiguousColumn(col.to_string())),
            }
        }
        Err(EngineError::UnknownColumn {
            column: col.to_string(),
            context: "scope".to_string(),
        })
    }
}

/// Supported aggregate functions.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AggKind {
    Count,
    CountStar,
    Sum,
    Avg,
    Min,
    Max,
}

impl AggKind {
    pub fn from_name(name: &str, star: bool) -> Option<AggKind> {
        let up = name.to_ascii_uppercase();
        Some(match (up.as_str(), star) {
            ("COUNT", true) => AggKind::CountStar,
            ("COUNT", false) => AggKind::Count,
            ("SUM", false) => AggKind::Sum,
            ("AVG", false) => AggKind::Avg,
            ("MIN", false) => AggKind::Min,
            ("MAX", false) => AggKind::Max,
            _ => return None,
        })
    }
}

/// A single aggregate slot extracted from a grouped query's expressions.
pub struct AggSpec {
    pub kind: AggKind,
    /// Argument expression (None for `COUNT(*)`).
    pub arg: Option<CompiledExpr>,
    pub distinct: bool,
}

/// Supported scalar functions.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum ScalarFn {
    Lower,
    Upper,
    Length,
    Abs,
    Round,
    Coalesce,
    Substr,
}

impl ScalarFn {
    fn from_name(name: &str) -> Option<ScalarFn> {
        Some(match name.to_ascii_uppercase().as_str() {
            "LOWER" => ScalarFn::Lower,
            "UPPER" => ScalarFn::Upper,
            "LENGTH" => ScalarFn::Length,
            "ABS" => ScalarFn::Abs,
            "ROUND" => ScalarFn::Round,
            "COALESCE" => ScalarFn::Coalesce,
            "SUBSTR" | "SUBSTRING" => ScalarFn::Substr,
            _ => return None,
        })
    }
}

/// A compiled, evaluable expression.
pub enum CompiledExpr {
    /// Column `column` of factor `factor` of the tuple `level` scopes up.
    Col {
        level: usize,
        factor: usize,
        column: usize,
    },
    Lit(Value),
    Not(Box<CompiledExpr>),
    Neg(Box<CompiledExpr>),
    Binary {
        left: Box<CompiledExpr>,
        op: BinaryOp,
        right: Box<CompiledExpr>,
    },
    Scalar {
        func: ScalarFnBox,
        args: Vec<CompiledExpr>,
    },
    InList {
        expr: Box<CompiledExpr>,
        list: Vec<CompiledExpr>,
        negated: bool,
    },
    /// Uncorrelated IN subqueries are pre-materialised into a key set.
    InSet {
        expr: Box<CompiledExpr>,
        set: HashSet<Key>,
        set_has_null: bool,
        negated: bool,
    },
    /// Correlated IN subquery, planned once and run per row.
    InSubquery {
        expr: Box<CompiledExpr>,
        plan: Box<Plan>,
        negated: bool,
    },
    Between {
        expr: Box<CompiledExpr>,
        low: Box<CompiledExpr>,
        high: Box<CompiledExpr>,
        negated: bool,
    },
    Like {
        expr: Box<CompiledExpr>,
        pattern: Box<CompiledExpr>,
        negated: bool,
    },
    IsNull {
        expr: Box<CompiledExpr>,
        negated: bool,
    },
    /// Correlated EXISTS, planned once and run per row.
    Exists {
        plan: Box<Plan>,
        negated: bool,
    },
    /// Correlated scalar subquery, planned once and run per row.
    ScalarSubquery(Box<Plan>),
    Case {
        operand: Option<Box<CompiledExpr>>,
        branches: Vec<(CompiledExpr, CompiledExpr)>,
        else_branch: Option<Box<CompiledExpr>>,
    },
    /// Reference to aggregate slot `i` (grouped queries only).
    AggRef(usize),
}

/// Newtype so `ScalarFn` stays private while `CompiledExpr` is public.
pub struct ScalarFnBox(ScalarFn);

/// Expression compiler. `aggregates` is `Some` when compiling the SELECT
/// list / HAVING / ORDER BY of a grouped query: aggregate function calls are
/// then extracted into slots and replaced by [`CompiledExpr::AggRef`].
pub struct Compiler<'a, 'b> {
    pub scope: &'a Scope<'a>,
    pub catalog: &'a Catalog,
    pub aggregates: Option<&'b mut Vec<AggSpec>>,
    /// How many scopes above its own the compiled expressions read (a
    /// subquery planned here is correlated when this is nonzero for it).
    pub depth: usize,
}

/// A subquery as the compiler leaves it: an uncorrelated one has already
/// run, a correlated one is planned once and run per outer tuple.
enum Subquery {
    Rows(Vec<Row>),
    Correlated(Box<Plan>),
}

impl<'a, 'b> Compiler<'a, 'b> {
    pub fn new(scope: &'a Scope<'a>, catalog: &'a Catalog) -> Self {
        Compiler {
            scope,
            catalog,
            aggregates: None,
            depth: 0,
        }
    }

    pub fn with_aggregates(
        scope: &'a Scope<'a>,
        catalog: &'a Catalog,
        aggs: &'b mut Vec<AggSpec>,
    ) -> Self {
        Compiler {
            aggregates: Some(aggs),
            ..Compiler::new(scope, catalog)
        }
    }

    fn subquery(&mut self, sub: &SelectStatement) -> Result<Subquery, EngineError> {
        let planned = crate::exec::plan_select(self.catalog, sub, Some(self.scope))?;
        if planned.depth == 0 {
            return Ok(Subquery::Rows(
                planned.plan.run(self.catalog, &Outer::Root)?,
            ));
        }
        self.depth = self.depth.max(planned.depth - 1);
        Ok(Subquery::Correlated(Box::new(planned.plan)))
    }

    pub fn compile(&mut self, e: &Expr) -> Result<CompiledExpr, EngineError> {
        Ok(match e {
            Expr::Column(c) => {
                let (level, factor, column) = self.scope.resolve(c)?;
                self.depth = self.depth.max(level);
                CompiledExpr::Col {
                    level,
                    factor,
                    column,
                }
            }
            Expr::Literal(l) => CompiledExpr::Lit(literal_value(l).ok_or_else(|| {
                EngineError::Unsupported("`?` placeholder cannot be executed".into())
            })?),
            Expr::Unary { op, expr } => {
                let inner = self.compile(expr)?;
                match op {
                    UnaryOp::Not => CompiledExpr::Not(Box::new(inner)),
                    UnaryOp::Neg => CompiledExpr::Neg(Box::new(inner)),
                    UnaryOp::Plus => inner,
                }
            }
            Expr::Binary { left, op, right } => CompiledExpr::Binary {
                left: Box::new(self.compile(left)?),
                op: *op,
                right: Box::new(self.compile(right)?),
            },
            Expr::Function {
                name,
                args,
                distinct,
                star,
            } => {
                if let Some(kind) = AggKind::from_name(name, *star) {
                    let arg = if matches!(kind, AggKind::CountStar) {
                        None
                    } else {
                        if args.len() != 1 {
                            return Err(EngineError::Unsupported(format!(
                                "{name} expects exactly one argument"
                            )));
                        }
                        // Aggregate arguments may not nest aggregates.
                        let mut inner = Compiler::new(self.scope, self.catalog);
                        let compiled = inner.compile(&args[0])?;
                        self.depth = self.depth.max(inner.depth);
                        Some(compiled)
                    };
                    let Some(aggs) = self.aggregates.as_deref_mut() else {
                        return Err(EngineError::Unsupported(format!(
                            "aggregate {name} not allowed in this clause"
                        )));
                    };
                    aggs.push(AggSpec {
                        kind,
                        arg,
                        distinct: *distinct,
                    });
                    CompiledExpr::AggRef(aggs.len() - 1)
                } else if let Some(f) = ScalarFn::from_name(name) {
                    let mut compiled = Vec::with_capacity(args.len());
                    for a in args {
                        compiled.push(self.compile(a)?);
                    }
                    check_scalar_arity(f, compiled.len())?;
                    CompiledExpr::Scalar {
                        func: ScalarFnBox(f),
                        args: compiled,
                    }
                } else {
                    return Err(EngineError::Unsupported(format!(
                        "unknown function `{name}`"
                    )));
                }
            }
            Expr::InList {
                expr,
                list,
                negated,
            } => CompiledExpr::InList {
                expr: Box::new(self.compile(expr)?),
                list: list
                    .iter()
                    .map(|e| self.compile(e))
                    .collect::<Result<_, _>>()?,
                negated: *negated,
            },
            Expr::InSubquery {
                expr,
                subquery,
                negated,
            } => {
                let expr = Box::new(self.compile(expr)?);
                let negated = *negated;
                match self.subquery(subquery)? {
                    Subquery::Correlated(plan) => CompiledExpr::InSubquery {
                        expr,
                        plan,
                        negated,
                    },
                    Subquery::Rows(rows) => {
                        let mut set = HashSet::with_capacity(rows.len());
                        let mut set_has_null = false;
                        for row in &rows {
                            let v = single_column(row)?;
                            if v.is_null() {
                                set_has_null = true;
                            } else {
                                set.insert(v.group_key());
                            }
                        }
                        CompiledExpr::InSet {
                            expr,
                            set,
                            set_has_null,
                            negated,
                        }
                    }
                }
            }
            Expr::Between {
                expr,
                low,
                high,
                negated,
            } => CompiledExpr::Between {
                expr: Box::new(self.compile(expr)?),
                low: Box::new(self.compile(low)?),
                high: Box::new(self.compile(high)?),
                negated: *negated,
            },
            Expr::Like {
                expr,
                pattern,
                negated,
            } => CompiledExpr::Like {
                expr: Box::new(self.compile(expr)?),
                pattern: Box::new(self.compile(pattern)?),
                negated: *negated,
            },
            Expr::IsNull { expr, negated } => CompiledExpr::IsNull {
                expr: Box::new(self.compile(expr)?),
                negated: *negated,
            },
            Expr::Exists { subquery, negated } => match self.subquery(subquery)? {
                Subquery::Correlated(plan) => CompiledExpr::Exists {
                    plan,
                    negated: *negated,
                },
                Subquery::Rows(rows) => CompiledExpr::Lit(Value::Bool(rows.is_empty() == *negated)),
            },
            Expr::ScalarSubquery(sub) => match self.subquery(sub)? {
                Subquery::Correlated(plan) => CompiledExpr::ScalarSubquery(plan),
                Subquery::Rows(rows) => CompiledExpr::Lit(scalar_result(&rows)?.clone()),
            },
            Expr::Case {
                operand,
                branches,
                else_branch,
            } => CompiledExpr::Case {
                operand: match operand {
                    Some(o) => Some(Box::new(self.compile(o)?)),
                    None => None,
                },
                branches: branches
                    .iter()
                    .map(|(w, t)| Ok((self.compile(w)?, self.compile(t)?)))
                    .collect::<Result<_, EngineError>>()?,
                else_branch: match else_branch {
                    Some(e) => Some(Box::new(self.compile(e)?)),
                    None => None,
                },
            },
        })
    }
}

/// A literal's value; `None` for the `?` placeholder.
pub(crate) fn literal_value(l: &Literal) -> Option<Value> {
    Some(match l {
        Literal::Int(i) => Value::Int(*i),
        Literal::Float(f) => Value::Float(*f),
        Literal::Str(s) => Value::from(s.as_str()),
        Literal::Bool(b) => Value::Bool(*b),
        Literal::Null => Value::Null,
        Literal::Placeholder => return None,
    })
}

fn check_scalar_arity(f: ScalarFn, n: usize) -> Result<(), EngineError> {
    let ok = match f {
        ScalarFn::Lower | ScalarFn::Upper | ScalarFn::Length | ScalarFn::Abs => n == 1,
        ScalarFn::Round => n == 1 || n == 2,
        ScalarFn::Coalesce => n >= 1,
        ScalarFn::Substr => n == 2 || n == 3,
    };
    if ok {
        Ok(())
    } else {
        Err(EngineError::Unsupported(format!(
            "wrong number of arguments ({n}) for {f:?}"
        )))
    }
}

fn single_column(row: &Row) -> Result<&Value, EngineError> {
    match row.as_slice() {
        [v] => Ok(v),
        _ => Err(EngineError::SubqueryShape(format!(
            "IN subquery must return one column, got {}",
            row.len()
        ))),
    }
}

fn scalar_result(rows: &[Row]) -> Result<&Value, EngineError> {
    match rows.len() {
        0 => Ok(&NULL),
        1 => single_column(&rows[0]),
        n => Err(EngineError::SubqueryShape(format!(
            "scalar subquery returned {n} rows"
        ))),
    }
}

/// One borrowed catalog row per FROM factor, in FROM order; `None` where an
/// outer join NULL-extended the factor.
pub type Tuple<'r> = [Option<&'r Row>];

/// The tuples of the queries enclosing a correlated subquery, innermost
/// first: a column `level` scopes up reads the `level`-th.
pub enum Outer<'t> {
    Root,
    Scope {
        tuple: &'t Tuple<'t>,
        parent: &'t Outer<'t>,
    },
}

/// Evaluation context: the current tuple, the enclosing tuples, the catalog
/// (for correlated subqueries) and optional aggregate slot values. An
/// operator builds one and points it at each tuple in turn with
/// [`EvalCtx::at`].
#[derive(Clone, Copy)]
pub struct EvalCtx<'a> {
    pub catalog: &'a Catalog,
    pub tuple: &'a Tuple<'a>,
    pub outer: &'a Outer<'a>,
    pub agg_values: Option<&'a [Value]>,
}

static NULL: Value = Value::Null;

impl<'a> EvalCtx<'a> {
    pub fn new(catalog: &'a Catalog, outer: &'a Outer<'a>) -> Self {
        EvalCtx {
            catalog,
            tuple: &[],
            outer,
            agg_values: None,
        }
    }

    /// The same context, pointed at `tuple`.
    pub fn at<'t>(self, tuple: &'t Tuple<'t>) -> EvalCtx<'t>
    where
        'a: 't,
    {
        EvalCtx { tuple, ..self }
    }

    fn column(&self, level: usize, factor: usize, column: usize) -> Result<&'a Value, EngineError> {
        let (mut tuple, mut outer) = (self.tuple, self.outer);
        for _ in 0..level {
            let Outer::Scope { tuple: t, parent } = outer else {
                return Err(EngineError::Unsupported("scope level underflow".into()));
            };
            (tuple, outer) = (t, parent);
        }
        Ok(tuple[factor].map_or(&NULL, |row| &row[column]))
    }

    /// Run a correlated subquery's plan with this context's tuple as the
    /// innermost enclosing one.
    fn run(&self, plan: &Plan) -> Result<Vec<Row>, EngineError> {
        let outer = Outer::Scope {
            tuple: self.tuple,
            parent: self.outer,
        };
        plan.run(self.catalog, &outer)
    }
}

impl CompiledExpr {
    /// Evaluate to a [`Value`] under three-valued logic.
    pub fn eval(&self, ctx: &EvalCtx<'_>) -> Result<Value, EngineError> {
        self.value(ctx).map(Cow::into_owned)
    }

    /// Evaluate an operator, function or subquery: everything
    /// [`CompiledExpr::value`] does not borrow.
    fn compute(&self, ctx: &EvalCtx<'_>) -> Result<Value, EngineError> {
        Ok(match self {
            CompiledExpr::Col { .. } | CompiledExpr::Lit(_) | CompiledExpr::AggRef(_) => {
                self.eval(ctx)?
            }
            CompiledExpr::Not(inner) => match inner.eval(ctx)? {
                Value::Null => Value::Null,
                Value::Bool(b) => Value::Bool(!b),
                other => {
                    return Err(EngineError::TypeError(format!(
                        "NOT applied to non-boolean {other:?}"
                    )))
                }
            },
            CompiledExpr::Neg(inner) => match inner.eval(ctx)? {
                Value::Null => Value::Null,
                Value::Int(i) => Value::Int(-i),
                Value::Float(f) => Value::Float(-f),
                other => {
                    return Err(EngineError::TypeError(format!(
                        "unary minus applied to {other:?}"
                    )))
                }
            },
            CompiledExpr::Binary { left, op, right } => eval_binary(ctx, left, *op, right)?,
            CompiledExpr::Scalar { func, args } => eval_scalar(ctx, func.0, args)?,
            CompiledExpr::InList {
                expr,
                list,
                negated,
            } => {
                let v = expr.value(ctx)?;
                if v.is_null() {
                    return Ok(Value::Null);
                }
                let mut saw_null = false;
                for item in list {
                    match v.sql_eq(&*item.value(ctx)?) {
                        Some(true) => return Ok(in_result(true, saw_null, *negated)),
                        Some(false) => {}
                        None => saw_null = true,
                    }
                }
                in_result(false, saw_null, *negated)
            }
            CompiledExpr::InSet {
                expr,
                set,
                set_has_null,
                negated,
            } => {
                let v = expr.value(ctx)?;
                if v.is_null() {
                    return Ok(Value::Null);
                }
                let found = set.contains(&v.group_key());
                in_result(found, *set_has_null, *negated)
            }
            CompiledExpr::InSubquery {
                expr,
                plan,
                negated,
            } => {
                let v = expr.value(ctx)?;
                if v.is_null() {
                    return Ok(Value::Null);
                }
                let mut saw_null = false;
                for row in &ctx.run(plan)? {
                    match v.sql_eq(single_column(row)?) {
                        Some(true) => return Ok(in_result(true, saw_null, *negated)),
                        Some(false) => {}
                        None => saw_null = true,
                    }
                }
                in_result(false, saw_null, *negated)
            }
            CompiledExpr::Between {
                expr,
                low,
                high,
                negated,
            } => {
                let v = expr.value(ctx)?;
                let lo = low.value(ctx)?;
                let hi = high.value(ctx)?;
                let ge = v.sql_cmp(&lo).map(|o| o != std::cmp::Ordering::Less);
                let le = v.sql_cmp(&hi).map(|o| o != std::cmp::Ordering::Greater);
                match kleene_and(ge, le) {
                    None => Value::Null,
                    Some(b) => Value::Bool(b != *negated),
                }
            }
            CompiledExpr::Like {
                expr,
                pattern,
                negated,
            } => match (&*expr.value(ctx)?, &*pattern.value(ctx)?) {
                (Value::Null, _) | (_, Value::Null) => Value::Null,
                (Value::Text(s), Value::Text(pat)) => Value::Bool(like_match(s, pat) != *negated),
                (a, b) => {
                    return Err(EngineError::TypeError(format!(
                        "LIKE requires text operands, got {a:?} / {b:?}"
                    )))
                }
            },
            CompiledExpr::IsNull { expr, negated } => {
                Value::Bool(expr.value(ctx)?.is_null() != *negated)
            }
            CompiledExpr::Exists { plan, negated } => {
                Value::Bool(ctx.run(plan)?.is_empty() == *negated)
            }
            CompiledExpr::ScalarSubquery(plan) => scalar_result(&ctx.run(plan)?)?.clone(),
            CompiledExpr::Case {
                operand,
                branches,
                else_branch,
            } => {
                let op_val = match operand {
                    Some(o) => Some(o.eval(ctx)?),
                    None => None,
                };
                for (when, then) in branches {
                    let cond = when.value(ctx)?;
                    let fire = match &op_val {
                        Some(v) => v.sql_eq(&cond) == Some(true),
                        None => cond.as_bool() == Some(true),
                    };
                    if fire {
                        return then.eval(ctx);
                    }
                }
                match else_branch {
                    Some(e) => e.eval(ctx)?,
                    None => Value::Null,
                }
            }
        })
    }

    /// [`CompiledExpr::eval`] that borrows a column, literal or aggregate
    /// slot instead of cloning it.
    pub fn value<'x>(&'x self, ctx: &EvalCtx<'x>) -> Result<Cow<'x, Value>, EngineError> {
        Ok(Cow::Borrowed(match self {
            CompiledExpr::Col {
                level,
                factor,
                column,
            } => ctx.column(*level, *factor, *column)?,
            CompiledExpr::Lit(v) => v,
            CompiledExpr::AggRef(i) => {
                let aggs = ctx.agg_values.ok_or_else(|| {
                    EngineError::Unsupported("aggregate reference outside grouped context".into())
                })?;
                &aggs[*i]
            }
            _ => return self.compute(ctx).map(Cow::Owned),
        }))
    }

    /// Evaluate as a predicate: `true` only for an exact SQL TRUE.
    pub fn eval_predicate(&self, ctx: &EvalCtx<'_>) -> Result<bool, EngineError> {
        Ok(matches!(*self.value(ctx)?, Value::Bool(true)))
    }
}

/// Evaluate each of `exprs` (a pushing loop: collecting through `Result`
/// grows the vector from empty).
pub(crate) fn eval_all(
    exprs: &[CompiledExpr],
    ctx: &EvalCtx<'_>,
) -> Result<Vec<Value>, EngineError> {
    let mut values = Vec::with_capacity(exprs.len());
    for e in exprs {
        values.push(e.eval(ctx)?);
    }
    Ok(values)
}

fn in_result(found: bool, saw_null: bool, negated: bool) -> Value {
    if found {
        Value::Bool(!negated)
    } else if saw_null {
        // `x IN (…)` with an unmatched NULL in the list is UNKNOWN.
        Value::Null
    } else {
        Value::Bool(negated)
    }
}

fn kleene_and(a: Option<bool>, b: Option<bool>) -> Option<bool> {
    match (a, b) {
        (Some(false), _) | (_, Some(false)) => Some(false),
        (Some(true), Some(true)) => Some(true),
        _ => None,
    }
}

fn kleene_or(a: Option<bool>, b: Option<bool>) -> Option<bool> {
    match (a, b) {
        (Some(true), _) | (_, Some(true)) => Some(true),
        (Some(false), Some(false)) => Some(false),
        _ => None,
    }
}

fn to_kleene(v: &Value) -> Result<Option<bool>, EngineError> {
    match v {
        Value::Null => Ok(None),
        Value::Bool(b) => Ok(Some(*b)),
        other => Err(EngineError::TypeError(format!(
            "expected boolean, got {other:?}"
        ))),
    }
}

fn eval_binary(
    ctx: &EvalCtx<'_>,
    left: &CompiledExpr,
    op: BinaryOp,
    right: &CompiledExpr,
) -> Result<Value, EngineError> {
    // AND/OR get Kleene semantics with short-circuiting on the left value.
    match op {
        BinaryOp::And => {
            let l = to_kleene(left.value(ctx)?.as_ref())?;
            if l == Some(false) {
                return Ok(Value::Bool(false));
            }
            let r = to_kleene(right.value(ctx)?.as_ref())?;
            return Ok(match kleene_and(l, r) {
                Some(b) => Value::Bool(b),
                None => Value::Null,
            });
        }
        BinaryOp::Or => {
            let l = to_kleene(left.value(ctx)?.as_ref())?;
            if l == Some(true) {
                return Ok(Value::Bool(true));
            }
            let r = to_kleene(right.value(ctx)?.as_ref())?;
            return Ok(match kleene_or(l, r) {
                Some(b) => Value::Bool(b),
                None => Value::Null,
            });
        }
        _ => {}
    }

    let l = left.value(ctx)?;
    let r = right.value(ctx)?;

    if op.is_comparison() {
        return Ok(match l.sql_cmp(&r) {
            None => Value::Null,
            Some(ord) => {
                use std::cmp::Ordering::*;
                let b = match op {
                    BinaryOp::Eq => ord == Equal,
                    BinaryOp::NotEq => ord != Equal,
                    BinaryOp::Lt => ord == Less,
                    BinaryOp::LtEq => ord != Greater,
                    BinaryOp::Gt => ord == Greater,
                    BinaryOp::GtEq => ord != Less,
                    _ => unreachable!(),
                };
                Value::Bool(b)
            }
        });
    }

    if l.is_null() || r.is_null() {
        return Ok(Value::Null);
    }

    match op {
        BinaryOp::Concat => {
            let ls = l.render();
            let rs = r.render();
            Ok(Value::from(format!("{ls}{rs}")))
        }
        BinaryOp::Plus | BinaryOp::Minus | BinaryOp::Mul | BinaryOp::Div | BinaryOp::Mod => {
            match (&*l, &*r) {
                (Value::Int(a), Value::Int(b)) => {
                    let a = *a;
                    let b = *b;
                    Ok(match op {
                        BinaryOp::Plus => Value::Int(a.wrapping_add(b)),
                        BinaryOp::Minus => Value::Int(a.wrapping_sub(b)),
                        BinaryOp::Mul => Value::Int(a.wrapping_mul(b)),
                        BinaryOp::Div => {
                            if b == 0 {
                                return Err(EngineError::Arithmetic("division by zero".into()));
                            }
                            Value::Int(a.wrapping_div(b))
                        }
                        BinaryOp::Mod => {
                            if b == 0 {
                                return Err(EngineError::Arithmetic("modulo by zero".into()));
                            }
                            Value::Int(a.wrapping_rem(b))
                        }
                        _ => unreachable!(),
                    })
                }
                _ => {
                    let (a, b) = match (l.as_f64(), r.as_f64()) {
                        (Some(a), Some(b)) => (a, b),
                        _ => {
                            return Err(EngineError::TypeError(format!(
                                "arithmetic on non-numeric operands {l:?} / {r:?}"
                            )))
                        }
                    };
                    Ok(Value::Float(match op {
                        BinaryOp::Plus => a + b,
                        BinaryOp::Minus => a - b,
                        BinaryOp::Mul => a * b,
                        BinaryOp::Div => {
                            if b == 0.0 {
                                return Err(EngineError::Arithmetic("division by zero".into()));
                            }
                            a / b
                        }
                        BinaryOp::Mod => {
                            if b == 0.0 {
                                return Err(EngineError::Arithmetic("modulo by zero".into()));
                            }
                            a % b
                        }
                        _ => unreachable!(),
                    }))
                }
            }
        }
        _ => unreachable!("AND/OR handled above"),
    }
}

fn eval_scalar(
    ctx: &EvalCtx<'_>,
    f: ScalarFn,
    args: &[CompiledExpr],
) -> Result<Value, EngineError> {
    let vals = eval_all(args, ctx)?;
    // COALESCE is the only function that tolerates NULL arguments.
    if f == ScalarFn::Coalesce {
        for v in vals {
            if !v.is_null() {
                return Ok(v);
            }
        }
        return Ok(Value::Null);
    }
    if vals.iter().any(Value::is_null) {
        return Ok(Value::Null);
    }
    Ok(match f {
        ScalarFn::Lower => Value::from(text_arg(&vals[0], "LOWER")?.to_lowercase()),
        ScalarFn::Upper => Value::from(text_arg(&vals[0], "UPPER")?.to_uppercase()),
        ScalarFn::Length => Value::Int(text_arg(&vals[0], "LENGTH")?.chars().count() as i64),
        ScalarFn::Abs => match &vals[0] {
            Value::Int(i) => Value::Int(i.wrapping_abs()),
            Value::Float(fl) => Value::Float(fl.abs()),
            other => {
                return Err(EngineError::TypeError(format!(
                    "ABS expects a number, got {other:?}"
                )))
            }
        },
        ScalarFn::Round => {
            let x = vals[0]
                .as_f64()
                .ok_or_else(|| EngineError::TypeError("ROUND expects a number".into()))?;
            let digits = if vals.len() == 2 {
                vals[1]
                    .as_i64()
                    .ok_or_else(|| EngineError::TypeError("ROUND digits must be int".into()))?
            } else {
                0
            };
            let m = 10f64.powi(digits as i32);
            Value::Float((x * m).round() / m)
        }
        ScalarFn::Coalesce => unreachable!(),
        ScalarFn::Substr => {
            let s = text_arg(&vals[0], "SUBSTR")?;
            let start = vals[1]
                .as_i64()
                .ok_or_else(|| EngineError::TypeError("SUBSTR start must be int".into()))?;
            let chars: Vec<char> = s.chars().collect();
            let from = (start.max(1) as usize - 1).min(chars.len());
            let len = if vals.len() == 3 {
                vals[2]
                    .as_i64()
                    .ok_or_else(|| EngineError::TypeError("SUBSTR length must be int".into()))?
                    .max(0) as usize
            } else {
                chars.len() - from
            };
            Value::from(
                chars[from..(from + len).min(chars.len())]
                    .iter()
                    .collect::<String>(),
            )
        }
    })
}

fn text_arg<'v>(v: &'v Value, f: &str) -> Result<&'v str, EngineError> {
    v.as_str()
        .ok_or_else(|| EngineError::TypeError(format!("{f} expects text, got {v:?}")))
}

/// SQL LIKE with `%` (any run) and `_` (any single char); case-sensitive.
pub fn like_match(s: &str, pattern: &str) -> bool {
    fn rec(s: &[char], p: &[char]) -> bool {
        match p.first() {
            None => s.is_empty(),
            Some('%') => {
                // Collapse consecutive %.
                let rest = &p[1..];
                (0..=s.len()).any(|i| rec(&s[i..], rest))
            }
            Some('_') => !s.is_empty() && rec(&s[1..], &p[1..]),
            Some(c) => s.first() == Some(c) && rec(&s[1..], &p[1..]),
        }
    }
    let sc: Vec<char> = s.chars().collect();
    let pc: Vec<char> = pattern.chars().collect();
    rec(&sc, &pc)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn like_semantics() {
        assert!(like_match("Lake Washington", "Lake%"));
        assert!(like_match("Lake Washington", "%Wash%"));
        assert!(like_match("abc", "a_c"));
        assert!(!like_match("abc", "a_d"));
        assert!(like_match("", "%"));
        assert!(!like_match("", "_"));
        assert!(like_match("a%b", "a%b"));
        assert!(like_match("anything", "%%"));
    }

    #[test]
    fn kleene_tables() {
        assert_eq!(kleene_and(Some(true), None), None);
        assert_eq!(kleene_and(Some(false), None), Some(false));
        assert_eq!(kleene_or(Some(true), None), Some(true));
        assert_eq!(kleene_or(Some(false), None), None);
    }

    #[test]
    fn in_result_matrix() {
        assert_eq!(in_result(true, false, false), Value::Bool(true));
        assert_eq!(in_result(true, true, true), Value::Bool(false));
        assert_eq!(in_result(false, true, false), Value::Null);
        assert_eq!(in_result(false, false, true), Value::Bool(true));
    }
}
