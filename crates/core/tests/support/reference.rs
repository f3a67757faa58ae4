//! The record-based reference distances (§4.2, §4.3) that the signature
//! kernels of `cqms_core::similarity` are tested against. Each call
//! rebuilds the feature sets from the records' feature rows and
//! re-parses their text for the parse trees: a logged record keeps its
//! text, not its parse. Test files include this module by path.
#![allow(dead_code)]

use cqms_core::features::{FeatureRows, Vocabulary};
use cqms_core::model::{OutputSummary, QueryRecord};
use cqms_core::similarity::{combined_blend, DistanceKind};
use cqms_core::storage::NewRecord;
use cqms_core::CqmsConfig;
use std::collections::HashSet;
use std::sync::Arc;

/// `new` as a record outside any store, with its own feature rows: a
/// reference probe (a store builds a record's rows only at insert).
pub fn detached(new: &NewRecord) -> QueryRecord {
    let rows = FeatureRows::of(&new.record, &new.extracted, &mut Vocabulary::default());
    QueryRecord {
        features: Arc::new(rows),
        ..new.record.clone()
    }
}

/// Jaccard distance between two sets (1 − |∩|/|∪|; empty ∪ empty = 0).
fn jaccard_distance<T: std::hash::Hash + Eq>(a: &HashSet<T>, b: &HashSet<T>) -> f64 {
    if a.is_empty() && b.is_empty() {
        return 0.0;
    }
    let inter = a.intersection(b).count() as f64;
    let union = (a.len() + b.len()) as f64 - inter;
    1.0 - inter / union
}

/// Feature distance: weighted Jaccard over tables, attributes and
/// predicate templates (weights from config; constants excluded per §4.3).
pub fn feature_distance(a: &QueryRecord, b: &QueryRecord, config: &CqmsConfig) -> f64 {
    let tables = |r: &QueryRecord| -> HashSet<String> {
        r.features.tables().map(|t| t.to_string()).collect()
    };
    let attributes = |r: &QueryRecord| -> HashSet<String> {
        (r.features.attributes())
            .map(|(t, c)| format!("{t}.{c}"))
            .collect()
    };
    let predicates = |r: &QueryRecord| -> HashSet<String> {
        (r.features.predicates())
            .map(|[t, c, op, _]| format!("{t}.{c}{op}"))
            .collect()
    };
    config.weight_tables * jaccard_distance(&tables(a), &tables(b))
        + config.weight_attributes * jaccard_distance(&attributes(a), &attributes(b))
        + config.weight_predicates * jaccard_distance(&predicates(a), &predicates(b))
}

/// The statement `r`'s text parses to.
fn statement(r: &QueryRecord) -> Option<sqlparse::Statement> {
    sqlparse::parse(&r.raw_sql).ok()
}

/// Exact Zhang–Shasha tree edit distance on canonical, constant-stripped
/// parse trees, normalised by the larger tree size; both trees rebuilt.
pub fn tree_edit_distance(a: &QueryRecord, b: &QueryRecord) -> f64 {
    match (statement(a), statement(b)) {
        (Some(sa), Some(sb)) => {
            let ta = sqlparse::statement_tree(&sqlparse::strip_constants(&sa));
            let tb = sqlparse::statement_tree(&sqlparse::strip_constants(&sb));
            sqlparse::normalized_tree_distance(&ta, &tb)
        }
        _ => 1.0,
    }
}

/// Parse-tree distance: normalised edit count between the statements
/// (§4.3 "parse tree similarity"). Unparseable statements are maximally
/// far.
pub fn tree_distance(a: &QueryRecord, b: &QueryRecord) -> f64 {
    match (statement(a), statement(b)) {
        (Some(sqlparse::Statement::Select(sa)), Some(sqlparse::Statement::Select(sb))) => {
            sqlparse::diff::edit_distance_normalized(&sa, &sb)
        }
        (Some(x), Some(y)) if x == y => 0.0,
        _ => 1.0,
    }
}

/// Output distance: Jaccard over stored output rows — treating queries
/// "as black boxes" (§4.1). `None` when either side has no summary.
pub fn output_distance(a: &QueryRecord, b: &QueryRecord) -> Option<f64> {
    let rows = |s: &OutputSummary| -> Option<HashSet<String>> {
        match s {
            OutputSummary::None => None,
            OutputSummary::Full { rows, .. } | OutputSummary::Sample { rows, .. } => {
                Some(rows.iter().map(|r| r.join("\u{1}")).collect())
            }
        }
    };
    Some(jaccard_distance(&rows(&a.summary)?, &rows(&b.summary)?))
}

/// Distance under the chosen metric, in [0, 1].
pub fn distance(a: &QueryRecord, b: &QueryRecord, kind: DistanceKind, config: &CqmsConfig) -> f64 {
    match kind {
        DistanceKind::Features => feature_distance(a, b, config),
        DistanceKind::ParseTree => tree_distance(a, b),
        DistanceKind::TreeEdit => tree_edit_distance(a, b),
        DistanceKind::Output => output_distance(a, b).unwrap_or(1.0),
        DistanceKind::Combined => combined_blend(
            feature_distance(a, b, config),
            tree_distance(a, b),
            output_distance(a, b),
        ),
    }
}
