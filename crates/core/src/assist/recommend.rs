//! Full-query recommendation — the "Similar Queries" panel of Figure 3.
//!
//! "A CQMS could also perform complete query recommendations, showing logged
//! queries similar to those the user recently issued" (§2.3). Each panel row
//! carries the combined rank score (shown as a percentage), the query text,
//! the diff against the user's query (`-1 col, -1 pred`) and the annotation
//! digest — exactly the columns of Figure 3.

use crate::admin::Directory;
use crate::config::CqmsConfig;
use crate::error::CqmsError;
use crate::metaquery::MetaQueryExecutor;
use crate::model::{QueryRecord, UserId};
use crate::similarity::{self, DistanceKind};
use crate::storage::QueryStorage;

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
    pub id: crate::model::QueryId,
}

/// Compute the recommendation panel for `seed_sql` on behalf of `viewer`.
///
/// The candidate search runs through the signature-backed kNN
/// ([`MetaQueryExecutor::knn`] with the Combined metric): the probe is
/// interned against the storage's feature vocabulary once and the
/// posting-index/lower-bound pruning applies, so panel latency tracks the
/// number of genuinely similar queries rather than the log size.
pub fn recommend_panel(
    storage: &QueryStorage,
    directory: &Directory,
    config: &CqmsConfig,
    viewer: UserId,
    seed_sql: &str,
    k: usize,
) -> Result<Vec<PanelRow>, CqmsError> {
    let hits = knn_candidates(storage, directory, config, viewer, seed_sql, k * 3)?;
    let pairs: Vec<(crate::model::QueryId, f64)> = hits.iter().map(|h| (h.id, h.score)).collect();
    let now_ts = storage.max_ts();
    let max_pop = storage.max_popularity();
    let mut rows = panel_rows_for(storage, config, seed_sql, &pairs, now_ts, max_pop, &|fp| {
        storage.popularity(fp)
    })?;
    sort_panel_rows(&mut rows);
    Ok(rows.into_iter().map(|(_, r)| r).take(k).collect())
}

/// The panel's kNN candidate pool for `seed_sql`: the top `m` Combined
/// hits visible to `viewer`, in the executor's (score desc, id asc)
/// order. Sharded deployments run this per shard and merge with the same
/// comparator, which reproduces a single instance's pool exactly.
pub fn knn_candidates(
    storage: &QueryStorage,
    directory: &Directory,
    config: &CqmsConfig,
    viewer: UserId,
    seed_sql: &str,
    m: usize,
) -> Result<Vec<crate::metaquery::ScoredHit>, CqmsError> {
    let stmt = sqlparse::parse(seed_sql)?;
    let feats = crate::features::extract(&stmt, None);
    let probe = crate::storage::make_record(
        crate::model::QueryId(u64::MAX),
        viewer,
        u64::MAX, // not used for ranking of the probe itself
        seed_sql,
        Some(stmt),
        feats,
        Default::default(),
        crate::model::OutputSummary::None,
        crate::model::SessionId(u64::MAX),
        crate::model::Visibility::Private,
    );
    let mq = MetaQueryExecutor::new(storage, directory, config);
    Ok(mq.knn(viewer, &probe, m, DistanceKind::Combined))
}

/// Score `(candidate id, knn score)` pairs living in *this* storage into
/// `(rank score, panel row)` rows using externally supplied corpus-wide
/// terms (`now_ts`, `max_pop`, template popularity). With local values
/// those are exactly [`recommend_panel`]'s rows; a sharded deployment
/// passes the merged global values instead so a candidate's rank score
/// is placement-independent.
pub fn panel_rows_for(
    storage: &QueryStorage,
    config: &CqmsConfig,
    seed_sql: &str,
    hits: &[(crate::model::QueryId, f64)],
    now_ts: u64,
    max_pop: u32,
    popularity_of: &dyn Fn(u64) -> u32,
) -> Result<Vec<(f64, PanelRow)>, CqmsError> {
    let stmt = sqlparse::parse(seed_sql)?;
    let mut rows: Vec<(f64, PanelRow)> = Vec::with_capacity(hits.len());
    for &(id, knn_score) in hits {
        let rec: &QueryRecord = storage.get(id)?;
        let dist = 1.0 - knn_score;
        let score = similarity::rank_score(
            rec,
            dist,
            now_ts,
            max_pop,
            popularity_of(rec.template_fp),
            config,
        );
        let diff = match (&stmt, &rec.statement) {
            (sqlparse::Statement::Select(a), Some(sqlparse::Statement::Select(b))) => {
                sqlparse::summarize_edits(&sqlparse::diff_selects(a, b))
            }
            _ => "n/a".to_string(),
        };
        rows.push((
            score,
            PanelRow {
                score_pct: (score * 100.0).round().clamp(0.0, 100.0) as u8,
                sql: rec.raw_sql.clone(),
                diff,
                annotation: rec.annotation_digest(),
                id: rec.id,
            },
        ));
    }
    Ok(rows)
}

/// The panel's final order: rank score descending, id ascending.
pub fn sort_panel_rows(rows: &mut [(f64, PanelRow)]) {
    rows.sort_by(|a, b| {
        b.0.partial_cmp(&a.0)
            .unwrap_or(std::cmp::Ordering::Equal)
            .then_with(|| a.1.id.cmp(&b.1.id))
    });
}

#[cfg(test)]
mod tests {
    use super::*;
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
        let rows = recommend_panel(
            &st,
            &dir,
            &cfg,
            UserId(1),
            "SELECT * FROM WaterTemp WHERE temp < 20",
            3,
        )
        .unwrap();
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
        let rows = recommend_panel(
            &st,
            &dir,
            &cfg,
            UserId(1),
            "SELECT * FROM WaterTemp WHERE temp < 20",
            5,
        )
        .unwrap();
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
        assert!(recommend_panel(&st, &dir, &cfg, UserId(1), "SELEC nope", 3).is_err());
    }
}
