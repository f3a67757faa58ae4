//! SQL text cannot pick the recursion depth of the parser or of the AST
//! walks after it: nesting past `parser::MAX_NESTING` is a parse error,
//! not a stack overflow that aborts the process (each of these inputs
//! overflows a test thread's stack without the limit).

use sqlparse::parse_statement;
use sqlparse::parser::MAX_NESTING;

#[test]
fn deep_nesting_is_a_parse_error() {
    let n = 100_000;
    for sql in [
        format!(
            "SELECT * FROM t WHERE {}x = 1{}",
            "(".repeat(n),
            ")".repeat(n)
        ),
        format!("SELECT * FROM t WHERE {}x = 1", "NOT ".repeat(n)),
        format!("SELECT * FROM t WHERE {}", vec!["x = 1"; n].join(" AND ")),
    ] {
        assert!(parse_statement(&sql).is_err(), "{}…", &sql[..40]);
    }
}

#[test]
fn nesting_within_the_limit_still_parses() {
    let n = MAX_NESTING / 2;
    for sql in [
        format!(
            "SELECT * FROM t WHERE {}x = 1{}",
            "(".repeat(n),
            ")".repeat(n)
        ),
        format!("SELECT * FROM t WHERE {}x = 1", "NOT ".repeat(n)),
        format!("SELECT {}1 FROM t", "- ".repeat(n)),
        format!(
            "SELECT * FROM t WHERE {}x = 1{}",
            "x IN (SELECT x FROM t WHERE ".repeat(n / 2),
            ")".repeat(n / 2)
        ),
        format!("SELECT * FROM t WHERE {}", vec!["x = 1"; n].join(" AND ")),
        // Chains in sibling operands count separately.
        format!("SELECT {0}, {0} FROM t", vec!["x"; MAX_NESTING].join(" + ")),
    ] {
        parse_statement(&sql).unwrap_or_else(|e| panic!("{e}: {sql}"));
    }
}
