//! Full-query recommendation — the "Similar Queries" panel of Figure 3.
//!
//! "A CQMS could also perform complete query recommendations, showing logged
//! queries similar to those the user recently issued" (§2.3). Each panel row
//! carries the combined rank score (shown as a percentage), the query text,
//! the diff against the user's query (`-1 col, -1 pred`) and the annotation
//! digest — exactly the columns of Figure 3.

use crate::config::CqmsConfig;
use crate::error::CqmsError;
use crate::metaquery::{MetaQueryExecutor, ScoredHit};
use crate::model::QueryId;
use crate::similarity::{self, DistanceKind};
use crate::storage::{NewRecord, QueryStorage};
use sqlparse::SelectStatement;

/// One row of the Figure 3 recommendation panel.
#[derive(Debug, Clone, PartialEq)]
pub struct PanelRow {
    /// Rank score in percent (Fig. 3 shows `[100%]`, `[98%]`, `[75%]`).
    pub score_pct: u8,
    /// The recommended SQL text.
    pub sql: String,
    /// Diff summary against the seed query (`none`, `-1 col`, …).
    pub diff: String,
    /// First-annotation digest (possibly empty).
    pub annotation: String,
    /// The recommended query's id.
    pub id: QueryId,
}

/// Compute the recommendation panel for `seed_sql` over what `view` shows.
///
/// The candidate search runs through the signature-backed kNN
/// ([`MetaQueryExecutor::knn`] with the Combined metric), whose
/// feature-class sweep and lower-bound pruning make panel latency track
/// the number of genuinely similar queries rather than the log size. The
/// `3k` candidates are ranked first; only the `k` rows shown are diffed
/// and rendered, against the seed's SELECT folded once.
pub fn recommend_panel(
    view: &MetaQueryExecutor,
    seed_sql: &str,
    k: usize,
) -> Result<Vec<PanelRow>, CqmsError> {
    let seed = NewRecord::probe(view.viewer(), seed_sql)?;
    let hits = knn_candidates(view, &seed, k * 3);
    let (storage, config) = (view.storage(), view.config());
    let now_ts = storage.max_ts();
    let max_pop = storage.max_popularity();
    let mut ranked = rank_candidates(storage, config, &hits, now_ts, max_pop, &|fp| {
        storage.popularity(fp)
    })?;
    sort_ranked(&mut ranked);
    let folded = folded_seed(&seed);
    ranked
        .into_iter()
        .take(k)
        .map(|(score, id)| panel_row(storage, folded.as_ref(), id, score))
        .collect()
}

/// The panel's kNN candidate pool for `seed`: the top `m` Combined hits
/// `view` shows, in the executor's (score desc, id asc) order.
/// Sharded deployments run this per shard and merge with the same
/// comparator, which reproduces a single instance's pool exactly.
pub fn knn_candidates(view: &MetaQueryExecutor, seed: &NewRecord, m: usize) -> Vec<ScoredHit> {
    view.knn(seed, m, DistanceKind::Combined)
}

/// Rank score each candidate living in *this* storage, as `(rank score,
/// id)`, using externally supplied corpus-wide terms (`now_ts`,
/// `max_pop`, template popularity). With local values those are exactly
/// [`recommend_panel`]'s scores; a sharded deployment passes the merged
/// global values instead so a candidate's rank score is
/// placement-independent.
pub fn rank_candidates(
    storage: &QueryStorage,
    config: &CqmsConfig,
    hits: &[ScoredHit],
    now_ts: u64,
    max_pop: u32,
    popularity_of: &dyn Fn(u64) -> u32,
) -> Result<Vec<(f64, QueryId)>, CqmsError> {
    hits.iter()
        .map(|h| {
            let rec = storage.get(h.id)?;
            let pop = popularity_of(rec.template_fp);
            let score = similarity::rank_score(rec, 1.0 - h.score, now_ts, max_pop, pop, config);
            Ok((score, h.id))
        })
        .collect()
}

/// The panel's final order: rank score descending, id ascending.
pub fn sort_ranked(ranked: &mut [(f64, QueryId)]) {
    ranked.sort_by(|a, b| {
        b.0.partial_cmp(&a.0)
            .unwrap_or(std::cmp::Ordering::Equal)
            .then_with(|| a.1.cmp(&b.1))
    });
}

/// The seed's SELECT folded for diffing ([`sqlparse::diff::fold_for_diff`]),
/// or `None` when the seed is no SELECT: what [`panel_row`] diffs the
/// shown candidates against.
pub fn folded_seed(seed: &NewRecord) -> Option<SelectStatement> {
    let select = seed.parsed.as_ref()?.as_select()?;
    Some(sqlparse::diff::fold_for_diff(select))
}

/// Render one ranked candidate of this storage as a panel row: its diff
/// against the seed's [`folded_seed`] — from the candidate signature's
/// folded SELECT, so nothing is re-parsed — and its annotation digest.
pub fn panel_row(
    storage: &QueryStorage,
    seed: Option<&SelectStatement>,
    id: QueryId,
    score: f64,
) -> Result<PanelRow, CqmsError> {
    let rec = storage.get(id)?;
    let folded = storage
        .signature(id)
        .and_then(|s| s.folded_select.as_deref());
    let diff = match (seed, folded) {
        (Some(a), Some(b)) => sqlparse::summarize_edits(&sqlparse::diff::diff_selects_folded(a, b)),
        _ => "n/a".to_string(),
    };
    Ok(PanelRow {
        score_pct: (score * 100.0).round().clamp(0.0, 100.0) as u8,
        sql: rec.raw_sql.to_string(),
        diff,
        annotation: rec.annotation_digest(),
        id: rec.id,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::admin::Directory;
    use crate::features::extract;
    use crate::model::*;
    use crate::storage::make_record;

    fn seeded() -> (QueryStorage, Directory) {
        let mut st = QueryStorage::new();
        let specs: Vec<(&str, u64)> = vec![
            // Popular template: temps of lakes (3 instances).
            ("SELECT * FROM WaterTemp WHERE temp < 18", 100),
            ("SELECT * FROM WaterTemp WHERE temp < 22", 200),
            ("SELECT * FROM WaterTemp WHERE temp < 10", 300),
            // A joined variant.
            (
                "SELECT T.temp FROM WaterTemp T, WaterSalinity S WHERE T.loc_x = S.loc_x",
                400,
            ),
            // Unrelated.
            ("SELECT city FROM CityLocations", 500),
        ];
        for (i, (sql, ts)) in specs.iter().enumerate() {
            let stmt = sqlparse::parse(sql).unwrap();
            let feats = extract(&stmt, None);
            st.insert(make_record(
                QueryId(i as u64),
                UserId(2),
                *ts,
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
                author: UserId(2),
                at: 150,
                text: "find temp and salinity of Seattle lakes".into(),
                fragment: None,
            },
        )
        .unwrap();
        (st, Directory::new())
    }

    #[test]
    fn panel_rows_have_figure3_columns() {
        let (st, dir) = seeded();
        let cfg = CqmsConfig::default();
        let view = MetaQueryExecutor::new(&st, &dir, &cfg, UserId(1));
        let rows = recommend_panel(&view, "SELECT * FROM WaterTemp WHERE temp < 20", 3).unwrap();
        assert_eq!(rows.len(), 3);
        // Best hits are the same-template queries; their diff is a constant
        // change, summarised as `~1 const`.
        assert!(rows[0].diff.contains("const"), "{rows:?}");
        assert!(rows[0].score_pct >= rows[1].score_pct);
        assert!(rows[1].score_pct >= rows[2].score_pct);
        // The annotated query surfaces its annotation.
        assert!(rows.iter().any(|r| r.annotation.contains("Seattle lakes")));
    }

    #[test]
    fn unrelated_queries_rank_last() {
        let (st, dir) = seeded();
        let cfg = CqmsConfig::default();
        let view = MetaQueryExecutor::new(&st, &dir, &cfg, UserId(1));
        let rows = recommend_panel(&view, "SELECT * FROM WaterTemp WHERE temp < 20", 5).unwrap();
        let city_pos = rows
            .iter()
            .position(|r| r.sql.contains("CityLocations"))
            .unwrap();
        assert_eq!(city_pos, rows.len() - 1);
    }

    #[test]
    fn bad_seed_sql_errors() {
        let (st, dir) = seeded();
        let cfg = CqmsConfig::default();
        let view = MetaQueryExecutor::new(&st, &dir, &cfg, UserId(1));
        assert!(recommend_panel(&view, "SELEC nope", 3).is_err());
    }
}
