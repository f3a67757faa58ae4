//! Edit-pattern mining over session edges (§4.3: "by mining common edit
//! patterns, the CQMS could provide better completion or correction
//! suggestions" and "common query evolution patterns … could automatically
//! generate a tutorial … demonstrating common mistakes and good practices").

use crate::storage::QueryStorage;
use std::collections::HashMap;

/// Frequencies of single edits and edit bigrams across session edges.
#[derive(Debug, Default)]
pub struct EditPatternMiner {
    /// edit kind → count.
    unigrams: HashMap<&'static str, u32>,
    /// (previous edge's kind, next edge's kind) → count.
    bigrams: HashMap<(&'static str, &'static str), u32>,
}

impl EditPatternMiner {
    /// Mine the storage's session graph from scratch.
    pub fn mine(storage: &QueryStorage) -> EditPatternMiner {
        let mut m = EditPatternMiner::default();
        for session in storage.session_ids() {
            let edges = storage.session_edges(session);
            for e in &edges {
                for op in &e.edits {
                    *m.unigrams.entry(op.kind()).or_insert(0) += 1;
                }
            }
            for pair in edges.windows(2) {
                for a in &pair[0].edits {
                    for b in &pair[1].edits {
                        *m.bigrams.entry((a.kind(), b.kind())).or_insert(0) += 1;
                    }
                }
            }
        }
        m
    }

    /// Most common single edits, descending.
    pub fn top_edits(&self, k: usize) -> Vec<(&'static str, u32)> {
        let mut v: Vec<(&'static str, u32)> = self.unigrams.iter().map(|(&a, &c)| (a, c)).collect();
        v.sort_by(|a, b| b.1.cmp(&a.1).then_with(|| a.0.cmp(b.0)));
        v.truncate(k);
        v
    }

    /// Most common edit successions, descending.
    pub fn top_bigrams(&self, k: usize) -> Vec<((&'static str, &'static str), u32)> {
        let mut v: Vec<((&'static str, &'static str), u32)> =
            self.bigrams.iter().map(|(&p, &c)| (p, c)).collect();
        v.sort_by(|a, b| b.1.cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
        v.truncate(k);
        v
    }

    /// Given the user's last edit, what do people usually do next?
    /// Returns (next edit kind, conditional probability).
    pub fn next_edit_distribution(&self, last: &str) -> Vec<(&'static str, f64)> {
        let total: u32 = self
            .bigrams
            .iter()
            .filter(|((a, _), _)| *a == last)
            .map(|(_, &c)| c)
            .sum();
        if total == 0 {
            return Vec::new();
        }
        let mut v: Vec<(&'static str, f64)> = self
            .bigrams
            .iter()
            .filter(|((a, _), _)| *a == last)
            .map(|((_, b), &c)| (*b, c as f64 / total as f64))
            .collect();
        v.sort_by(|a, b| b.1.partial_cmp(&a.1).unwrap_or(std::cmp::Ordering::Equal));
        v
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::features::extract;
    use crate::model::*;
    use crate::storage::make_record;
    use sqlparse::diff_statements;

    fn storage_with_session(sqls: &[&str]) -> QueryStorage {
        let mut st = QueryStorage::new();
        let mut prev: Option<(QueryId, sqlparse::Statement)> = None;
        for (i, sql) in sqls.iter().enumerate() {
            let stmt = sqlparse::parse(sql).unwrap();
            let feats = extract(&stmt, None);
            let id = QueryId(i as u64);
            st.insert(make_record(
                id,
                UserId(1),
                100 + i as u64,
                sql,
                Some(stmt.clone()),
                feats,
                RuntimeFeatures {
                    success: true,
                    ..Default::default()
                },
                OutputSummary::None,
                SessionId(0),
                Visibility::Public,
            ));
            if let Some((pid, pstmt)) = &prev {
                st.add_edge(SessionEdge {
                    from: *pid,
                    to: id,
                    kind: EdgeKind::Evolution,
                    edits: diff_statements(pstmt, &stmt),
                });
            }
            prev = Some((id, stmt));
        }
        st
    }

    #[test]
    fn mines_figure2_patterns() {
        let st = storage_with_session(&workload::querygen::figure2_session());
        let m = EditPatternMiner::mine(&st);
        // Every edit of the five edges is counted once.
        let edits: usize = st.edges().iter().map(|e| e.edits.len()).sum();
        let counted: u32 = m.top_edits(usize::MAX).iter().map(|(_, c)| c).sum();
        assert_eq!((st.edges().len(), counted as usize), (5, edits));
        let top = m.top_edits(3);
        // Figure 2's dominant move is constant tweaking.
        assert!(top.iter().any(|(k, _)| *k == "change_constant"));
        assert!(top.iter().any(|(k, _)| *k == "add_table"));
    }

    #[test]
    fn bigram_transition_probabilities() {
        let st = storage_with_session(&[
            "SELECT * FROM t WHERE x < 1",
            "SELECT * FROM t WHERE x < 2",
            "SELECT * FROM t WHERE x < 3",
            "SELECT * FROM t WHERE x < 3 AND y > 0",
        ]);
        let m = EditPatternMiner::mine(&st);
        let next = m.next_edit_distribution("change_constant");
        assert!(!next.is_empty());
        let total: f64 = next.iter().map(|(_, p)| p).sum();
        assert!((total - 1.0).abs() < 1e-9);
    }

    #[test]
    fn empty_storage_no_patterns() {
        let st = QueryStorage::new();
        let m = EditPatternMiner::mine(&st);
        assert!(m.top_bigrams(5).is_empty());
        assert!(m.top_edits(5).is_empty());
        assert!(m.next_edit_distribution("add_table").is_empty());
    }
}
