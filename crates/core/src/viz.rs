//! Text renderings of the paper's client views.
//!
//! * [`render_session`] — the Figure 2 "query session window": nodes are the
//!   session's queries, edges show the parse-tree diff between consecutive
//!   queries' current statements;
//! * [`render_panel`] — the Figure 3 "Similar Queries" panel (score / query
//!   / diff / annotations columns);
//! * [`render_log_summary`] — the Search & Browse listing with sessions
//!   collapsed to one line each.

use crate::assist::recommend::PanelRow;
use crate::error::CqmsError;
use crate::metaquery::MetaQueryExecutor;
use crate::model::{QueryRecord, SessionId};
use std::fmt::Write;

/// Render one session as a Figure 2-style window.
///
/// ```text
/// session 3 (user 1, 4 queries, 02:30 - 02:35)
/// [q12] SELECT * FROM WaterTemp
///    |  +watersalinity
/// [q13] SELECT * FROM WaterTemp, WaterSalinity
///    |  'temp < 22' -> 'temp < 18'
/// [q14] ...
/// ```
///
/// Only the queries the view shows appear, header included; with none the
/// session is `NotFound`, like a missing one.
pub fn render_session(view: &MetaQueryExecutor, session: SessionId) -> Result<String, CqmsError> {
    let members = view.session_members(session);
    let (Some(first), Some(last)) = (members.first(), members.last()) else {
        return Err(CqmsError::NotFound(format!("session {session}")));
    };
    let mut out = String::new();
    let _ = writeln!(
        out,
        "session {} (user {}, {} queries, {} - {})",
        session,
        first.user,
        members.len(),
        fmt_clock(first.ts),
        fmt_clock(last.ts),
    );
    let edges = view.session_edges(session);
    for (i, rec) in members.iter().enumerate() {
        let _ = writeln!(out, "[q{}] {}", rec.id, truncate(&rec.raw_sql, 100));
        if let Some(next) = members.get(i + 1) {
            // Edges from this query to the next, if recorded.
            let mut printed = false;
            for e in edges.iter().filter(|e| e.from == rec.id && e.to == next.id) {
                match e.kind {
                    crate::model::EdgeKind::Evolution => {
                        for op in view.storage().edge_edits(e.from, e.to) {
                            let _ = writeln!(out, "   |  {}", op.label());
                            printed = true;
                        }
                    }
                    crate::model::EdgeKind::Investigation => {
                        let _ = writeln!(out, "   |  (investigates q{})", e.from);
                        printed = true;
                    }
                }
            }
            if !printed {
                let _ = writeln!(out, "   |");
            }
        }
    }
    Ok(out)
}

/// Render the Figure 3 recommendation panel.
///
/// ```text
/// Score  | Query                                    | Diff            | Annotations
/// [100%] | select * from WaterSalinity, ...         | none            | find temp and salinity of
/// [ 98%] | select temp from WaterTemp ...           | -1 col          | find temps of seattle lak
/// ```
pub fn render_panel(rows: &[PanelRow]) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{:<7}| {:<50} | {:<16} | Annotations",
        "Score", "Query", "Diff"
    );
    for r in rows {
        let _ = writeln!(
            out,
            "[{:>3}%] | {:<50} | {:<16} | {}",
            r.score_pct,
            truncate(&r.sql, 50),
            truncate(&r.diff, 16),
            truncate(&r.annotation, 28),
        );
    }
    out
}

/// Browse view: one line per session ("present query sessions instead of
/// individual queries", §2.2), counting only the queries the view shows.
pub fn render_log_summary(view: &MetaQueryExecutor, max_sessions: usize) -> String {
    let sessions: Vec<(SessionId, Vec<&QueryRecord>)> = (view.storage().session_ids())
        .into_iter()
        .map(|s| (s, view.session_members(s)))
        .filter(|(_, members)| !members.is_empty())
        .collect();
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{} queries in {} sessions",
        sessions
            .iter()
            .map(|(_, members)| members.len())
            .sum::<usize>(),
        sessions.len()
    );
    for (session, members) in sessions.iter().take(max_sessions) {
        let (first, last) = (members[0], members[members.len() - 1]);
        let tables: Vec<&str> = last.features.tables().map(|t| &**t).collect();
        let _ = writeln!(
            out,
            "  session {:>4} user {:>3} {:>3} queries {:>8}  [{}]  {}",
            session,
            first.user,
            members.len(),
            fmt_clock(first.ts),
            tables.join(", "),
            truncate(&last.raw_sql, 48),
        );
    }
    out
}

fn fmt_clock(ts: u64) -> String {
    let h = (ts / 3600) % 24;
    let m = (ts / 60) % 60;
    format!("{h:02}:{m:02}")
}

fn truncate(s: &str, n: usize) -> String {
    if s.len() <= n {
        s.to_string()
    } else {
        let mut t: String = s.chars().take(n.saturating_sub(3)).collect();
        t.push_str("...");
        t
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

    fn storage_with_figure2() -> QueryStorage {
        let mut st = QueryStorage::new();
        let sqls = workload::querygen::figure2_session();
        let mut prev: Option<QueryId> = None;
        for (i, sql) in sqls.iter().enumerate() {
            let stmt = sqlparse::parse(sql).unwrap();
            let feats = extract(&stmt, None);
            let id = QueryId(i as u64);
            st.insert(make_record(
                id,
                UserId(1),
                9000 + 60 * i as u64, // 02:30, 02:31, ... like the figure
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
    fn session_window_shows_figure2_labels() {
        let (st, dir, cfg) = (
            storage_with_figure2(),
            Directory::new(),
            CqmsConfig::default(),
        );
        let view = MetaQueryExecutor::new(&st, &dir, &cfg, UserId(1));
        let viz = render_session(&view, SessionId(0)).unwrap();
        // Header with time range like the figure's 2:30—2:35 strip.
        assert!(viz.contains("02:30"), "{viz}");
        assert!(viz.contains("02:35"), "{viz}");
        // The signature edits of Figure 2.
        assert!(viz.contains("+watersalinity"), "{viz}");
        assert!(
            viz.contains("'watertemp.temp < 22' \u{2192} 'watertemp.temp < 10'"),
            "{viz}"
        );
        // Six nodes.
        assert_eq!(viz.matches("[q").count(), 6);
    }

    #[test]
    fn missing_session_errors() {
        let (st, dir, cfg) = (QueryStorage::new(), Directory::new(), CqmsConfig::default());
        let view = MetaQueryExecutor::new(&st, &dir, &cfg, UserId(1));
        assert!(render_session(&view, SessionId(9)).is_err());
    }

    #[test]
    fn panel_renders_columns() {
        let rows = vec![
            PanelRow {
                score_pct: 100,
                sql: "select * from WaterSalinity, WaterTemp".into(),
                diff: "none".into(),
                annotation: "find temp and salinity of seattle lakes".into(),
                id: QueryId(0),
            },
            PanelRow {
                score_pct: 75,
                sql: "select temp from watertemp".into(),
                diff: "-1 col, -1 pred".into(),
                annotation: String::new(),
                id: QueryId(1),
            },
        ];
        let panel = render_panel(&rows);
        assert!(panel.contains("[100%]"));
        assert!(panel.contains("[ 75%]"));
        assert!(panel.contains("-1 col, -1 pred"));
        assert!(panel.contains("Annotations"));
    }

    #[test]
    fn log_summary_collapses_sessions() {
        let (st, dir, cfg) = (
            storage_with_figure2(),
            Directory::new(),
            CqmsConfig::default(),
        );
        let view = MetaQueryExecutor::new(&st, &dir, &cfg, UserId(1));
        let s = render_log_summary(&view, 10);
        assert!(s.contains("6 queries in 1 sessions"));
        assert!(s.contains("session"), "{s}");
        assert!(s.contains("user 1"), "{s}");
    }
}
