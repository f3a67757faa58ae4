//! Automatic tutorial generation (§2.3).
//!
//! "By analyzing the set of all queries and the evolution of query sessions
//! … a CQMS may be able to automatically produce a tutorial on the new data
//! set … e.g. the system could introduce each relation and its schema by
//! showing the user the most popular queries that include the relation."

use crate::metaquery::MetaQueryExecutor;
use crate::miner::editpatterns::EditPatternMiner;
use crate::model::QueryRecord;
use std::collections::HashMap;
use std::fmt::Write;

/// Generate a Markdown tutorial for the dataset behind `engine`, driven by
/// the logged queries `view` shows: the query count, each template's
/// popularity, the exemplars and the edit patterns count nothing else.
pub fn generate_tutorial(
    view: &MetaQueryExecutor,
    engine: &relstore::Engine,
    queries_per_relation: usize,
) -> String {
    let mut logged = 0usize;
    let mut popularity: HashMap<u64, u32> = HashMap::new();
    let mut per_rel: HashMap<&str, Vec<&QueryRecord>> = HashMap::new();
    for r in view.records() {
        logged += 1;
        *popularity.entry(r.template_fp).or_insert(0) += 1;
        for t in r.features.tables() {
            per_rel.entry(t).or_default().push(r);
        }
    }
    let mut out = String::new();
    let _ = writeln!(out, "# Dataset tutorial (generated by the CQMS)\n");
    let _ = writeln!(
        out,
        "Derived from {logged} logged queries by the Query Miner.\n"
    );

    let mut names = engine.catalog.table_names();
    names.sort();
    for name in names {
        let lname = name.to_ascii_lowercase();
        let Ok(table) = engine.catalog.table(&name) else {
            continue;
        };
        let _ = writeln!(out, "## Relation `{name}`\n");
        let cols: Vec<String> = table
            .schema
            .columns
            .iter()
            .map(|c| format!("`{}` {}", c.name, c.data_type))
            .collect();
        let _ = writeln!(out, "Schema: {} ({} rows)\n", cols.join(", "), table.len());

        let Some(entries) = per_rel.get_mut(lname.as_str()) else {
            let _ = writeln!(out, "*No logged queries use this relation yet.*\n");
            continue;
        };
        // Deduplicate by template, keep the most popular exemplars.
        let pop = |r: &QueryRecord| popularity[&r.template_fp];
        entries.sort_by(|a, b| pop(b).cmp(&pop(a)).then_with(|| a.id.cmp(&b.id)));
        let mut seen_templates = std::collections::HashSet::new();
        let mut shown = 0;
        let _ = writeln!(out, "Most popular queries on `{name}`:\n");
        for rec in entries.iter() {
            if !seen_templates.insert(rec.template_fp) {
                continue;
            }
            let pop = pop(rec);
            let _ = writeln!(out, "```sql\n{}\n```", rec.raw_sql);
            let annotation = rec.annotation_digest();
            if annotation.is_empty() {
                let _ = writeln!(out, "*(used by {pop} logged queries)*\n");
            } else {
                let _ = writeln!(out, "*(used by {pop} logged queries — \"{annotation}\")*\n");
            }
            shown += 1;
            if shown >= queries_per_relation {
                break;
            }
        }
    }

    // Common practice section from edit patterns.
    let patterns = EditPatternMiner::mine(view);
    let top = patterns.top_edits(5);
    if !top.is_empty() {
        let _ = writeln!(out, "## How analyses typically evolve\n");
        for (kind, count) in top {
            let advice = match kind {
                "change_constant" => "Users iterate on predicate constants most of all — start broad, then tighten thresholds.",
                "add_predicate" => "Adding predicates one at a time is the common way to narrow results.",
                "add_table" => "Analyses often grow by joining one more relation in.",
                "add_projection" | "remove_projection" => "Projection lists are refined late, once the row set looks right.",
                _ => "A recurring editing step in this log.",
            };
            let _ = writeln!(out, "- **{kind}** ({count}×): {advice}");
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::admin::Directory;
    use crate::config::CqmsConfig;
    use crate::features::extract;
    use crate::model::*;
    use crate::storage::{make_record, QueryStorage};

    /// The tutorial of `st` as user 1 sees it.
    fn tutorial(st: &QueryStorage, engine: &relstore::Engine, n: usize) -> String {
        let (dir, cfg) = (Directory::new(), CqmsConfig::default());
        generate_tutorial(
            &MetaQueryExecutor::new(st, &dir, &cfg, UserId(1)),
            engine,
            n,
        )
    }

    #[test]
    fn tutorial_mentions_relations_and_popular_queries() {
        let mut engine = relstore::Engine::new();
        workload::Domain::Lakes.setup(&mut engine, 20, 1);
        let mut st = QueryStorage::new();
        for (i, sql) in [
            "SELECT * FROM WaterTemp WHERE temp < 18",
            "SELECT * FROM WaterTemp WHERE temp < 22",
            "SELECT lake FROM Lakes",
        ]
        .iter()
        .enumerate()
        {
            let stmt = sqlparse::parse(sql).unwrap();
            let feats = extract(&stmt, None);
            st.insert(make_record(
                QueryId(i as u64),
                UserId(1),
                100,
                sql,
                Some(stmt),
                feats,
                RuntimeFeatures {
                    success: true,
                    ..Default::default()
                },
                OutputSummary::None,
                SessionId(i as u64),
                Visibility::Public,
            ));
        }
        st.annotate(
            QueryId(0),
            Annotation {
                author: UserId(1),
                at: 1,
                text: "temperatures of Seattle lakes".into(),
                fragment: None,
            },
        )
        .unwrap();
        let text = tutorial(&st, &engine, 2);
        assert!(text.contains("## Relation `WaterTemp`"));
        assert!(text.contains("temp < 18"));
        assert!(text.contains("temperatures of Seattle lakes"));
        // Relations with no queries are still introduced with their schema.
        assert!(text.contains("## Relation `CityLocations`"));
        assert!(text.contains("No logged queries"));
    }

    #[test]
    fn dedupes_templates() {
        let mut engine = relstore::Engine::new();
        engine.execute("CREATE TABLE t (x INT)").unwrap();
        let mut st = QueryStorage::new();
        for i in 0..5u64 {
            let sql = format!("SELECT * FROM t WHERE x < {i}");
            let stmt = sqlparse::parse(&sql).unwrap();
            let feats = extract(&stmt, None);
            st.insert(make_record(
                QueryId(i),
                UserId(1),
                100,
                &sql,
                Some(stmt),
                feats,
                RuntimeFeatures {
                    success: true,
                    ..Default::default()
                },
                OutputSummary::None,
                SessionId(i),
                Visibility::Public,
            ));
        }
        let text = tutorial(&st, &engine, 3);
        // All five share one template → exactly one SQL block shown.
        assert_eq!(text.matches("```sql").count(), 1);
        assert!(text.contains("used by 5 logged queries"));
    }
}
