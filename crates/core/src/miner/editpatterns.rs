//! Edit-pattern mining over session edges (§4.3: "by mining common edit
//! patterns, the CQMS could provide better completion or correction
//! suggestions" and "common query evolution patterns … could automatically
//! generate a tutorial … demonstrating common mistakes and good practices").

use crate::metaquery::MetaQueryExecutor;
use crate::model::EdgeKind;
use std::collections::HashMap;

/// Frequencies of single edits across session edges.
#[derive(Debug, Default)]
pub struct EditPatternMiner {
    /// edit kind → count.
    unigrams: HashMap<&'static str, u32>,
}

impl EditPatternMiner {
    /// Mine the evolution edges `view` shows from scratch, each labelled
    /// by its ends' current statements.
    pub fn mine(view: &MetaQueryExecutor) -> EditPatternMiner {
        let mut m = EditPatternMiner::default();
        let storage = view.storage();
        for session in storage.session_ids() {
            for e in view.session_edges(session) {
                if e.kind != EdgeKind::Evolution {
                    continue;
                }
                for op in storage.edge_edits(e.from, e.to) {
                    *m.unigrams.entry(op.kind()).or_insert(0) += 1;
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
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::admin::Directory;
    use crate::config::CqmsConfig;
    use crate::features::extract;
    use crate::model::*;
    use crate::storage::{make_record, QueryStorage};

    /// Mine `st` as user 1 sees it.
    fn mine(st: &QueryStorage) -> EditPatternMiner {
        let (dir, cfg) = (Directory::new(), CqmsConfig::default());
        EditPatternMiner::mine(&MetaQueryExecutor::new(st, &dir, &cfg, UserId(1)))
    }

    fn storage_with_session(sqls: &[&str]) -> QueryStorage {
        let mut st = QueryStorage::new();
        let mut prev: Option<QueryId> = None;
        for (i, sql) in sqls.iter().enumerate() {
            let stmt = sqlparse::parse(sql).unwrap();
            let feats = extract(&stmt, None);
            let id = QueryId(i as u64);
            st.insert(make_record(
                id,
                UserId(1),
                100 + i as u64,
                sql,
                Some(stmt),
                feats,
                RuntimeFeatures {
                    success: true,
                    ..Default::default()
                },
                OutputSummary::None,
                SessionId(0),
                Visibility::Public,
            ));
            if let Some(pid) = prev {
                st.add_edge(SessionEdge {
                    from: pid,
                    to: id,
                    kind: EdgeKind::Evolution,
                });
            }
            prev = Some(id);
        }
        st
    }

    #[test]
    fn mines_figure2_patterns() {
        let st = storage_with_session(&workload::querygen::figure2_session());
        let m = mine(&st);
        // Every edit of the five edges is counted once.
        let edits: usize = (st.edges().iter())
            .map(|e| st.edge_edits(e.from, e.to).len())
            .sum();
        let counted: u32 = m.top_edits(usize::MAX).iter().map(|(_, c)| c).sum();
        assert_eq!((st.edges().len(), counted as usize), (5, edits));
        let top = m.top_edits(3);
        // Figure 2's dominant move is constant tweaking.
        assert!(top.iter().any(|(k, _)| *k == "change_constant"));
        assert!(top.iter().any(|(k, _)| *k == "add_table"));
    }

    #[test]
    fn empty_storage_no_patterns() {
        assert!(mine(&QueryStorage::new()).top_edits(5).is_empty());
    }
}
