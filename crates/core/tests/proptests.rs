//! Property-based tests for the CQMS core: snapshot durability, metric
//! axioms, candidate-pruned kNN vs brute force, Apriori correctness
//! against brute force, and completion-prefix discipline, all over
//! generator-driven inputs.

use cqms_core::admin::Directory;
use cqms_core::features::extract;
use cqms_core::metaquery::{MetaQueryExecutor, ScoredHit};
use cqms_core::miner::assoc::{mine_apriori, RuleMiner};
use cqms_core::model::*;
use cqms_core::similarity::{self, DistanceKind};
use cqms_core::storage::{make_record, NewRecord, QueryStorage};
use cqms_core::wal::{MemSink, WalWriter};
use cqms_core::CqmsConfig;
use proptest::prelude::*;
use std::collections::{BTreeMap, HashSet};

#[path = "support/reference.rs"]
mod reference;

// ---------------------------------------------------------------------
// Generators
// ---------------------------------------------------------------------

/// A small SQL generator over the lakes schema: always parseable.
fn sql_strategy() -> impl Strategy<Value = String> {
    let table = prop_oneof![
        Just("WaterTemp"),
        Just("WaterSalinity"),
        Just("CityLocations"),
        Just("Lakes"),
    ];
    let col = prop_oneof![
        Just("temp"),
        Just("salinity"),
        Just("pop"),
        Just("area"),
        Just("month"),
    ];
    let op = prop_oneof![Just("<"), Just(">"), Just("="), Just("<=")];
    (
        table,
        proptest::option::of((col, op, -50i64..50)),
        proptest::option::of(0u64..100),
    )
        .prop_map(|(t, pred, limit)| {
            let mut sql = format!("SELECT * FROM {t}");
            if let Some((c, o, k)) = pred {
                sql.push_str(&format!(" WHERE {c} {o} {k}"));
            }
            if let Some(l) = limit {
                sql.push_str(&format!(" LIMIT {l}"));
            }
            sql
        })
}

fn annotation_strategy() -> impl Strategy<Value = String> {
    // Includes the characters a line-based format would have to escape.
    "[a-zA-Z0-9 \t\n\\\\'\"%_-]{0,40}"
}

fn record_strategy(id: u64) -> impl Strategy<Value = NewRecord> {
    (
        sql_strategy(),
        0u32..4,
        0u64..100_000,
        0u64..20,
        prop_oneof![
            Just(Visibility::Public),
            Just(Visibility::Private),
            (0u32..3).prop_map(|g| Visibility::Group(GroupId(g))),
        ],
        proptest::collection::vec(annotation_strategy(), 0..3),
        any::<bool>(),
    )
        .prop_map(move |(sql, user, ts, session, vis, notes, success)| {
            let stmt = sqlparse::parse(&sql).ok();
            let feats = stmt.as_ref().map(|s| extract(s, None)).unwrap_or_default();
            let mut rec = make_record(
                QueryId(id),
                UserId(user),
                ts,
                &sql,
                stmt,
                feats,
                RuntimeFeatures {
                    elapsed_us: ts % 10_000,
                    cardinality: ts % 97,
                    success,
                    ..Default::default()
                },
                OutputSummary::None,
                SessionId(session),
                vis,
            );
            rec.annotations = notes
                .into_iter()
                .map(|text| Annotation {
                    author: UserId(user),
                    at: ts,
                    text,
                    fragment: None,
                })
                .collect();
            rec
        })
}

fn records_strategy() -> impl Strategy<Value = Vec<NewRecord>> {
    proptest::collection::vec(0u64..1, 1..12).prop_flat_map(|seeds| {
        let n = seeds.len();
        let recs: Vec<_> = (0..n as u64).map(record_strategy).collect();
        recs
    })
}

fn build_storage(records: Vec<NewRecord>) -> QueryStorage {
    let mut st = QueryStorage::new();
    for (i, mut r) in records.into_iter().enumerate() {
        r.id = QueryId(i as u64);
        st.insert(r);
    }
    st
}

/// Re-derive a record's features from its own text and reindex it: the
/// repair path with the text left as it was.
fn reindex_in_place(st: &mut QueryStorage, id: QueryId) {
    let sql = st.get(id).unwrap().raw_sql.clone();
    rewrite(st, id, &sql);
}

/// Reindex record `id` with its text rewritten to `sql`.
fn rewrite(st: &mut QueryStorage, id: QueryId, sql: &str) {
    let parsed = sqlparse::parse(sql).ok();
    st.reindex(id, sql, parsed.as_ref(), None).unwrap();
}

/// The mining items of a statement, as a logged record's rows hold them.
fn items_of(stmt: sqlparse::Statement) -> HashSet<String> {
    let features = extract(&stmt, None);
    let record = make_record(
        QueryId(0),
        UserId(0),
        0,
        "",
        Some(stmt),
        features,
        RuntimeFeatures::default(),
        OutputSummary::None,
        SessionId(0),
        Visibility::Public,
    );
    reference::detached(&record)
        .features
        .items()
        .into_iter()
        .collect()
}

/// Reference kNN: full scan over live visible records with the exact
/// signature kernels, brute-force ordering (score desc, id asc).
fn brute_knn(
    st: &QueryStorage,
    dir: &Directory,
    cfg: &CqmsConfig,
    viewer: UserId,
    probe: &NewRecord,
    metric: DistanceKind,
    k: usize,
) -> Vec<ScoredHit> {
    let psig = st.probe_signature(probe);
    let mut brute: Vec<ScoredHit> = st
        .iter_live()
        .filter(|r| r.id != probe.id && dir.can_see(viewer, r))
        .map(|r| ScoredHit {
            id: r.id,
            score: 1.0
                - similarity::distance_with(
                    probe,
                    &psig,
                    r,
                    st.signature(r.id).unwrap(),
                    metric,
                    cfg,
                ),
        })
        .collect();
    brute.sort_by(|a, b| {
        b.score
            .partial_cmp(&a.score)
            .unwrap_or(std::cmp::Ordering::Equal)
            .then_with(|| a.id.cmp(&b.id))
    });
    brute.truncate(k);
    brute
}

/// Each feature class's id sets → its live members, classes without
/// one dropped: the class index as probes see it.
fn live_classes(st: &QueryStorage) -> BTreeMap<[Vec<u32>; 3], Vec<u64>> {
    let mut out = BTreeMap::new();
    for class in st.indexes().structural().classes.iter() {
        let live: Vec<u64> = class
            .members
            .iter()
            .copied()
            .filter(|&q| st.get(QueryId(q)).unwrap().is_live())
            .collect();
        if !live.is_empty() {
            out.insert(class.key.sets().map(<[u32]>::to_vec), live);
        }
    }
    out
}

/// Records for the kNN-pruning property: the plain SQL generator plus
/// feature-less records (unparseable text ⇒ empty feature sets, no parse
/// tree) and optional output summaries, which together exercise every
/// pruning branch (posting candidates, emptiness patterns, output blend).
fn knn_record_strategy(id: u64) -> impl Strategy<Value = NewRecord> {
    knn_record_of(
        id,
        prop_oneof![
            4 => sql_strategy(),
            1 => Just("not really sql at all".to_string()),
        ],
    )
}

/// SQL drawn mostly from three templates with varying constants, so
/// constant-stripped trees repeat and the tree groups have several
/// members; two of the templates are one relabel apart.
fn grouped_sql_strategy() -> impl Strategy<Value = String> {
    prop_oneof![
        4 => (0usize..3, -9i64..9).prop_map(|(t, c)| match t {
            0 => format!("SELECT * FROM WaterTemp WHERE temp < {c}"),
            1 => format!("SELECT * FROM WaterTemp WHERE month < {c}"),
            _ => format!("SELECT lake FROM Lakes WHERE area > {c} ORDER BY lake"),
        }),
        2 => sql_strategy(),
        1 => Just("not really sql at all".to_string()),
    ]
}

/// A [`knn_record_strategy`] record over [`grouped_sql_strategy`].
fn grouped_record_strategy(id: u64) -> impl Strategy<Value = NewRecord> {
    knn_record_of(id, grouped_sql_strategy())
}

/// A kNN test record with SQL from `sql`.
fn knn_record_of(id: u64, sql: impl Strategy<Value = String>) -> impl Strategy<Value = NewRecord> {
    (
        sql,
        0u32..4,
        0u64..100_000,
        prop_oneof![
            Just(Visibility::Public),
            Just(Visibility::Private),
            (0u32..3).prop_map(|g| Visibility::Group(GroupId(g))),
        ],
        proptest::option::of(proptest::collection::vec("[a-c]{1,2}", 1..4)),
    )
        .prop_map(move |(sql, user, ts, vis, out_rows)| {
            let stmt = sqlparse::parse(&sql).ok();
            let feats = stmt.as_ref().map(|s| extract(s, None)).unwrap_or_default();
            let mut rec = make_record(
                QueryId(id),
                UserId(user),
                ts,
                &sql,
                stmt,
                feats,
                RuntimeFeatures {
                    success: true,
                    ..Default::default()
                },
                OutputSummary::None,
                SessionId(id),
                vis,
            );
            if let Some(rows) = out_rows {
                rec.summary = OutputSummary::Full {
                    columns: vec!["c".into()],
                    rows: rows.into_iter().map(|v| vec![v]).collect(),
                };
            }
            rec
        })
}

/// One step of a generated WAL workload: every logged mutation kind,
/// plus explicit flush points and full snapshot cycles, in any order.
#[derive(Debug, Clone)]
enum WalStep {
    Insert(String),
    Delete(usize),
    Flag(usize),
    Repair(usize),
    Annotate(usize, String),
    Visibility(usize, Visibility),
    Edge(usize, usize, bool),
    Reindex(usize),
    Flush,
    Snapshot,
}

fn wal_step_strategy() -> impl Strategy<Value = WalStep> {
    prop_oneof![
        4 => sql_strategy().prop_map(WalStep::Insert),
        1 => (0usize..32).prop_map(WalStep::Delete),
        1 => (0usize..32).prop_map(WalStep::Flag),
        1 => (0usize..32).prop_map(WalStep::Repair),
        1 => ((0usize..32), annotation_strategy())
            .prop_map(|(i, t)| WalStep::Annotate(i, t)),
        1 => ((0usize..32), any::<bool>()).prop_map(|(i, public)| {
            WalStep::Visibility(
                i,
                if public { Visibility::Public } else { Visibility::Private },
            )
        }),
        1 => ((0usize..32), (0usize..32), any::<bool>())
            .prop_map(|(a, b, inv)| WalStep::Edge(a, b, inv)),
        1 => (0usize..32).prop_map(WalStep::Reindex),
        2 => Just(WalStep::Flush),
        1 => Just(WalStep::Snapshot),
    ]
}

/// The snapshot body of a (restored) storage.
fn resnapshot(storage: &QueryStorage) -> Vec<u8> {
    let mut buf = Vec::new();
    storage.snapshot(&mut buf).unwrap();
    buf
}

// ---------------------------------------------------------------------
// Properties
// ---------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Snapshot → load preserves every persisted field and the derived
    /// search structures.
    #[test]
    fn snapshot_roundtrip(records in records_strategy()) {
        let st = build_storage(records);
        let mut buf = Vec::new();
        st.snapshot(&mut buf).unwrap();
        let restored = QueryStorage::load(&buf[..]).unwrap();
        prop_assert_eq!(&resnapshot(&restored), &buf, "snapshot → load → snapshot is a fixpoint");
        prop_assert_eq!(restored.len(), st.len());
        prop_assert_eq!(restored.live_count(), st.live_count());
        for r in st.iter() {
            let q = restored.get(r.id).unwrap();
            prop_assert_eq!(&q.raw_sql, &r.raw_sql);
            prop_assert_eq!(q.user, r.user);
            prop_assert_eq!(q.ts, r.ts);
            prop_assert_eq!(q.session, r.session);
            prop_assert_eq!(q.visibility, r.visibility);
            prop_assert_eq!(q.annotations.len(), r.annotations.len());
            for (a, b) in q.annotations.iter().zip(&r.annotations) {
                prop_assert_eq!(&a.text, &b.text);
            }
            prop_assert_eq!(q.template_fp, r.template_fp);
            prop_assert_eq!(q.runtime.success, r.runtime.success);
        }
        // Popularity counts rebuilt identically.
        prop_assert_eq!(restored.max_popularity(), st.max_popularity());
    }

    /// Snapshot → load over storages that also saw deletes and
    /// session-graph edges: live records, both text indexes, the feature
    /// relations, the popularity table and the edges all survive.
    #[test]
    fn snapshot_roundtrip_with_deletes_and_edges(
        records in records_strategy(),
        del_seeds in proptest::collection::vec(any::<bool>(), 12),
        edge_seeds in proptest::collection::vec((0usize..12, 0usize..12, any::<bool>()), 0..6),
    ) {
        let mut st = build_storage(records);
        let n = st.len();
        // Session-graph edges between arbitrary pairs.
        for (a, b, investigation) in edge_seeds {
            let from = QueryId((a % n) as u64);
            let to = QueryId((b % n) as u64);
            st.add_edge(SessionEdge {
                from,
                to,
                kind: if investigation { EdgeKind::Investigation } else { EdgeKind::Evolution },
            });
        }
        // Tombstone a random subset.
        for (i, del) in del_seeds.iter().take(n).enumerate() {
            if *del {
                st.delete(QueryId(i as u64)).unwrap();
            }
        }

        let mut buf = Vec::new();
        st.snapshot(&mut buf).unwrap();
        let restored = QueryStorage::load(&buf[..]).unwrap();
        prop_assert_eq!(&resnapshot(&restored), &buf, "snapshot → load → snapshot is a fixpoint");

        prop_assert_eq!(restored.len(), st.len());
        prop_assert_eq!(restored.live_count(), st.live_count());
        for r in st.iter() {
            let q = restored.get(r.id).unwrap();
            prop_assert_eq!(q.is_live(), r.is_live());
            prop_assert_eq!(&q.raw_sql, &r.raw_sql);
            prop_assert_eq!(q.user, r.user);
            prop_assert_eq!(q.session, r.session);
            prop_assert_eq!(q.visibility, r.visibility);
            prop_assert_eq!(q.template_fp, r.template_fp);
            prop_assert_eq!(q.annotations.len(), r.annotations.len());
            // Index membership mirrors liveness, on both sides.
            prop_assert_eq!(r.is_live(), st.text_index().contains(r.id.0));
            prop_assert_eq!(
                restored.text_index().contains(r.id.0),
                st.text_index().contains(r.id.0)
            );
        }
        // Popularity table rebuilt identically (deletes included).
        prop_assert_eq!(restored.template_histogram(), st.template_histogram());
        // Feature relations: SQL meta-queries see the same live qids.
        let mut directory = Directory::new();
        let admin = directory.create_user("admin");
        let config = CqmsConfig::default();
        let visible_qids = |s: &QueryStorage| -> Vec<String> {
            let mut v: Vec<String> = MetaQueryExecutor::new(s, &directory, &config, admin)
                .by_feature_sql("SELECT qid FROM Queries")
                .unwrap()
                .rows
                .iter()
                .map(|row| row[0].render())
                .collect();
            v.sort();
            v
        };
        prop_assert_eq!(visible_qids(&restored), visible_qids(&st));
        // Edges survive with endpoints and kind intact.
        prop_assert_eq!(restored.edges().len(), st.edges().len());
        for (a, b) in restored.edges().iter().zip(st.edges()) {
            prop_assert_eq!(a.from, b.from);
            prop_assert_eq!(a.to, b.to);
            prop_assert_eq!(a.kind, b.kind);
        }
    }

    /// Class-swept kNN returns exactly the brute-force top-k — same ids,
    /// same scores, same tie-breaking — on randomized workloads including
    /// records with empty feature sets, mixed visibility, tombstones,
    /// flagged records and records rewritten through `reindex` (filed
    /// under stale ids until the rebuild), for `Features` and both
    /// `Combined` blend shapes (probes with and without an output
    /// summary), before and after the rebuild that retires the
    /// overrides.
    #[test]
    fn pruned_knn_matches_brute_force(
        records in proptest::collection::vec(0u64..1, 2..20).prop_flat_map(|seeds| {
            (0..seeds.len() as u64).map(knn_record_strategy).collect::<Vec<_>>()
        }),
        // One record in four is deleted and one in four flagged, so most
        // probes still rank a full top k.
        del_seeds in proptest::collection::vec(0u8..4, 20),
        flag_seeds in proptest::collection::vec(0u8..4, 20),
        rewrites in proptest::collection::vec((0usize..20, sql_strategy()), 0..4),
        probe_sql in prop_oneof![
            4 => sql_strategy(),
            1 => Just("word salad, no features".to_string()),
        ],
        probe_rows in proptest::option::of(proptest::collection::vec("[a-c]{1,2}", 1..4)),
        viewer in 0u32..4,
        k in 1usize..6,
    ) {
        let mut st = QueryStorage::new();
        for (i, mut r) in records.into_iter().enumerate() {
            r.id = QueryId(i as u64);
            st.insert(r);
        }
        let n = st.len();
        for (i, del) in del_seeds.iter().take(n).enumerate() {
            if *del == 0 {
                st.delete(QueryId(i as u64)).unwrap();
            }
        }
        for (i, flag) in flag_seeds.iter().take(n).enumerate() {
            if *flag == 0 && st.get(QueryId(i as u64)).unwrap().validity != Validity::Deleted {
                st.set_validity(
                    QueryId(i as u64),
                    Validity::Flagged { reason: "drift".into(), at: 1 },
                ).unwrap();
            }
        }
        for (pick, sql) in &rewrites {
            rewrite(&mut st, QueryId((pick % n) as u64), sql);
        }
        let dir = Directory::new();
        let cfg = CqmsConfig::default();
        let viewer = UserId(viewer);
        let stmt = sqlparse::parse(&probe_sql).ok();
        let feats = stmt.as_ref().map(|s| extract(s, None)).unwrap_or_default();
        let mut probe = make_record(
            QueryId(u64::MAX), viewer, 0, &probe_sql, stmt, feats,
            RuntimeFeatures::default(), OutputSummary::None,
            SessionId(u64::MAX), Visibility::Private,
        );
        if let Some(rows) = probe_rows {
            probe.summary = OutputSummary::Full {
                columns: vec!["c".into()],
                rows: rows.into_iter().map(|v| vec![v]).collect(),
            };
        }
        let check = |st: &QueryStorage, what: &str| -> Result<(), TestCaseError> {
            let mq = MetaQueryExecutor::new(st, &dir, &cfg, viewer);
            for metric in [DistanceKind::Features, DistanceKind::Combined] {
                let got = mq.knn(&probe, k, metric);
                let want = brute_knn(st, &dir, &cfg, viewer, &probe, metric, k);
                prop_assert_eq!(&got, &want, "{:?} diverged {}", metric, what);
            }
            Ok(())
        };
        check(&st, "with overrides outstanding")?;
        st.run_index_maintenance();
        prop_assert_eq!(st.indexes().override_count(), 0);
        check(&st, "after the rebuild")?;
    }

    /// VP-tree TreeEdit kNN returns exactly the brute-force top-k — ids
    /// and scores — through the index's whole coherence lifecycle, over
    /// records drawn mostly from a few templates, so the VP-tree's
    /// entries are tree groups of several members: lazy build over a
    /// store with tombstones, query-time filtering of flagged records and
    /// ACLs, revival of repaired records, a group's first member
    /// tombstoned, flagged or made private, a member rewritten through
    /// `reindex` (an override), incremental inserts into the
    /// already-built tree, a rebuild, and further tombstoning (possibly
    /// crossing the rebuild threshold). Statement-less records (distance
    /// exactly 1.0, outside the index) are covered by the generator.
    #[test]
    fn vp_tree_knn_matches_brute_force(
        records in proptest::collection::vec(0u64..1, 2..16).prop_flat_map(|seeds| {
            (0..seeds.len() as u64).map(grouped_record_strategy).collect::<Vec<_>>()
        }),
        extra in proptest::collection::vec(0u64..1, 1..5).prop_flat_map(|seeds| {
            (100..100 + seeds.len() as u64).map(grouped_record_strategy).collect::<Vec<_>>()
        }),
        del_seeds in proptest::collection::vec(0u8..4, 16),
        flag_seeds in proptest::collection::vec(any::<bool>(), 16),
        first_seeds in proptest::collection::vec(0u8..4, 8),
        rewrite in grouped_sql_strategy(),
        late_del_seeds in proptest::collection::vec(any::<bool>(), 16),
        probe_sql in prop_oneof![
            4 => grouped_sql_strategy(),
            1 => Just("word salad, no features".to_string()),
        ],
        viewer in 0u32..4,
        k in 1usize..6,
    ) {
        let mut st = QueryStorage::new();
        for (i, mut r) in records.into_iter().enumerate() {
            r.id = QueryId(i as u64);
            st.insert(r);
        }
        let n = st.len();
        for (i, del) in del_seeds.iter().take(n).enumerate() {
            if *del == 0 {
                st.delete(QueryId(i as u64)).unwrap();
            }
        }
        let dir = Directory::new();
        let cfg = CqmsConfig::default();
        let viewer = UserId(viewer);
        let stmt = sqlparse::parse(&probe_sql).ok();
        let feats = stmt.as_ref().map(|s| extract(s, None)).unwrap_or_default();
        let probe = make_record(
            QueryId(u64::MAX), viewer, 0, &probe_sql, stmt, feats,
            RuntimeFeatures::default(), OutputSummary::None,
            SessionId(u64::MAX), Visibility::Private,
        );
        let check = |st: &QueryStorage, phase: &str| -> Result<(), TestCaseError> {
            let index = st.indexes().structural();
            prop_assert_eq!(index.tree.len(), index.trees.len(), "one entry per tree group");
            let mq = MetaQueryExecutor::new(st, &dir, &cfg, viewer);
            let got = mq.knn(&probe, k, DistanceKind::TreeEdit);
            let want = brute_knn(st, &dir, &cfg, viewer, &probe, DistanceKind::TreeEdit, k);
            prop_assert_eq!(&got, &want, "TreeEdit diverged in phase `{}`", phase);
            Ok(())
        };
        // Phase 1: lazy build over the tombstoned store.
        check(&st, "build")?;
        // Phase 2: flag a subset — indexed but hidden at query time.
        for (i, flag) in flag_seeds.iter().take(n).enumerate() {
            if *flag {
                let _ = st.set_validity(
                    QueryId(i as u64),
                    Validity::Flagged { reason: "drift".into(), at: 1 },
                );
            }
        }
        check(&st, "flagged")?;
        // Phase 3: repair them — findable again without any index change.
        for (i, flag) in flag_seeds.iter().take(n).enumerate() {
            if *flag && st.get(QueryId(i as u64)).unwrap().validity != Validity::Deleted {
                st.set_validity(
                    QueryId(i as u64),
                    Validity::Repaired { original_sql: "x".into(), at: 2 },
                ).unwrap();
            }
        }
        check(&st, "repaired")?;
        // Phase 4: the first (smallest) member of each tree group that
        // has others is tombstoned, flagged, made private or left alone.
        let groups: Vec<Vec<u64>> = (st.indexes().structural().trees.iter())
            .map(|g| g.members.iter().copied().collect())
            .collect();
        for (g, members) in groups.iter().filter(|m| m.len() > 1).enumerate() {
            let first = QueryId(members[0]);
            if st.get(first).unwrap().validity == Validity::Deleted {
                continue;
            }
            match first_seeds[g % first_seeds.len()] {
                0 => st.delete(first).unwrap(),
                1 => st.set_validity(first, Validity::Flagged { reason: "drift".into(), at: 3 }).unwrap(),
                2 => st.set_visibility(first, Visibility::Private).unwrap(),
                _ => {}
            }
        }
        check(&st, "first members")?;
        // Phase 5: a member of the largest group is rewritten in place:
        // masked in its group, evaluated from its live signature.
        let pick = groups.iter().max_by_key(|m| m.len()).map_or(0, |m| m[m.len() - 1]);
        self::rewrite(&mut st, QueryId(pick), &rewrite);
        prop_assert!(st.indexes().overridden(pick));
        check(&st, "reindexed")?;
        // Phase 6: incremental inserts into the already-built tree.
        for (i, mut r) in extra.into_iter().enumerate() {
            r.id = QueryId((n + i) as u64);
            st.insert(r);
        }
        check(&st, "inserted")?;
        // Phase 7: a rebuild over distinct trees retires the override.
        st.schedule_index_rebuild();
        prop_assert!(st.run_index_maintenance());
        prop_assert_eq!(st.indexes().override_count(), 0);
        check(&st, "rebuilt")?;
        // Phase 8: more tombstones — may cross the rebuild threshold.
        let total = st.len();
        for (i, del) in late_del_seeds.iter().take(total).enumerate() {
            if *del {
                st.delete(QueryId(i as u64)).unwrap();
            }
        }
        check(&st, "late-deletes")?;
    }

    /// Delta-log replay: mutations that land *during* a double-buffered
    /// index rebuild — inserts past the collected horizon, tombstones,
    /// flag/repair transitions and a reindex — are replayed (or kept
    /// masked by the override log) when the build publishes, so
    /// registry-served kNN (ids and scores, TreeEdit and ParseTree)
    /// equals brute force on the post-publish state. No probe ever sees
    /// a missing record, before or after the swap. And a storage clone
    /// pinned before the build or just before the publish keeps answering
    /// from its own records: neither the swap nor later inserts into the
    /// new generation reach an index already pinned.
    #[test]
    fn index_rebuild_delta_replay_matches_brute_force(
        records in proptest::collection::vec(0u64..1, 2..12).prop_flat_map(|seeds| {
            (0..seeds.len() as u64).map(knn_record_strategy).collect::<Vec<_>>()
        }),
        mid_inserts in proptest::collection::vec(0u64..1, 1..6).prop_flat_map(|seeds| {
            (100..100 + seeds.len() as u64).map(knn_record_strategy).collect::<Vec<_>>()
        }),
        del_seeds in proptest::collection::vec(any::<bool>(), 12),
        mid_del_seeds in proptest::collection::vec(any::<bool>(), 18),
        mid_flag_seeds in proptest::collection::vec(any::<bool>(), 18),
        reindex_pick in 0usize..12,
        probe_sql in prop_oneof![
            4 => sql_strategy(),
            1 => Just("word salad, no features".to_string()),
        ],
        viewer in 0u32..4,
        k in 1usize..6,
    ) {
        let later: Vec<NewRecord> =
            records.iter().chain(&mid_inserts).cycle().take(10).cloned().collect();
        let mut st = QueryStorage::new();
        for (i, mut r) in records.into_iter().enumerate() {
            r.id = QueryId(i as u64);
            st.insert(r);
        }
        let n = st.len();
        for (i, del) in del_seeds.iter().take(n).enumerate() {
            if *del {
                st.delete(QueryId(i as u64)).unwrap();
            }
        }
        // Rebuild once so the mid-build window below runs against a
        // bulk-built generation, not just a tree grown from empty.
        st.schedule_index_rebuild();
        st.run_index_maintenance();
        let base_gen = st.index_generation();

        // Open the mid-build window: generation N+1 is built from the
        // current records…
        st.schedule_index_rebuild();
        let pinned_before = st.clone();
        let build = st.begin_index_rebuild();
        // …while inserts, tombstones, flag/repair transitions and a
        // reindex land before it publishes.
        for (i, mut r) in mid_inserts.into_iter().enumerate() {
            r.id = QueryId((n + i) as u64);
            st.insert(r);
        }
        let total = st.len();
        for (i, del) in mid_del_seeds.iter().take(total).enumerate() {
            if *del {
                st.delete(QueryId(i as u64)).unwrap();
            }
        }
        for (i, flag) in mid_flag_seeds.iter().take(total).enumerate() {
            if *flag && st.get(QueryId(i as u64)).unwrap().validity != Validity::Deleted {
                st.set_validity(
                    QueryId(i as u64),
                    Validity::Flagged { reason: "drift".into(), at: 1 },
                ).unwrap();
                st.set_validity(
                    QueryId(i as u64),
                    Validity::Repaired { original_sql: "x".into(), at: 2 },
                ).unwrap();
            }
        }
        let reindexed = QueryId((reindex_pick % n) as u64);
        if st.get(reindexed).unwrap().validity != Validity::Deleted {
            reindex_in_place(&mut st, reindexed);
        }
        // Publish: delta replay + one swap.
        let pinned_mid = st.clone();
        st.publish_index_rebuild(build);
        prop_assert_eq!(st.index_generation(), base_gen + 1);

        let dir = Directory::new();
        let cfg = CqmsConfig::default();
        let viewer = UserId(viewer);
        let stmt = sqlparse::parse(&probe_sql).ok();
        let feats = stmt.as_ref().map(|s| extract(s, None)).unwrap_or_default();
        let probe = make_record(
            QueryId(u64::MAX), viewer, 0, &probe_sql, stmt, feats,
            RuntimeFeatures::default(), OutputSummary::None,
            SessionId(u64::MAX), Visibility::Private,
        );
        let check = |st: &QueryStorage, what: &str| -> Result<(), TestCaseError> {
            let mq = MetaQueryExecutor::new(st, &dir, &cfg, viewer);
            for metric in [
                DistanceKind::TreeEdit,
                DistanceKind::ParseTree,
                DistanceKind::Features,
                DistanceKind::Combined,
            ] {
                let got = mq.knn(&probe, k, metric);
                let want = brute_knn(st, &dir, &cfg, viewer, &probe, metric, k);
                prop_assert_eq!(&got, &want, "{:?} diverged {}", metric, what);
            }
            Ok(())
        };
        check(&st, "after delta replay")?;
        // Ten more inserts grow the generation just published.
        for (i, mut r) in later.into_iter().enumerate() {
            r.id = QueryId((total + i) as u64);
            st.insert(r);
        }
        check(&st, "after inserts into the new generation")?;
        prop_assert_eq!(pinned_before.len(), n);
        prop_assert_eq!(pinned_before.index_generation(), base_gen);
        check(&pinned_before, "on the clone pinned before the build")?;
        prop_assert_eq!(pinned_mid.len(), total);
        prop_assert_eq!(pinned_mid.index_generation(), base_gen);
        check(&pinned_mid, "on the clone pinned before the publish")?;
    }

    /// Bounded ParseTree kNN (diff-profile lower-bound sweep) returns
    /// exactly the brute-force top-k — ids and scores — over stores with
    /// tombstones, statement-less records and mixed ACLs.
    #[test]
    fn parsetree_bounded_knn_matches_brute_force(
        records in proptest::collection::vec(0u64..1, 2..20).prop_flat_map(|seeds| {
            (0..seeds.len() as u64).map(knn_record_strategy).collect::<Vec<_>>()
        }),
        del_seeds in proptest::collection::vec(any::<bool>(), 20),
        flag_seeds in proptest::collection::vec(any::<bool>(), 20),
        probe_sql in prop_oneof![
            4 => sql_strategy(),
            1 => Just("word salad, no features".to_string()),
        ],
        viewer in 0u32..4,
        k in 1usize..6,
    ) {
        let mut st = QueryStorage::new();
        for (i, mut r) in records.into_iter().enumerate() {
            r.id = QueryId(i as u64);
            st.insert(r);
        }
        let n = st.len();
        for (i, del) in del_seeds.iter().take(n).enumerate() {
            if *del {
                st.delete(QueryId(i as u64)).unwrap();
            }
        }
        for (i, flag) in flag_seeds.iter().take(n).enumerate() {
            if *flag && st.get(QueryId(i as u64)).unwrap().validity != Validity::Deleted {
                st.set_validity(
                    QueryId(i as u64),
                    Validity::Flagged { reason: "drift".into(), at: 1 },
                ).unwrap();
            }
        }
        let dir = Directory::new();
        let cfg = CqmsConfig::default();
        let viewer = UserId(viewer);
        let stmt = sqlparse::parse(&probe_sql).ok();
        let feats = stmt.as_ref().map(|s| extract(s, None)).unwrap_or_default();
        let probe = make_record(
            QueryId(u64::MAX), viewer, 0, &probe_sql, stmt, feats,
            RuntimeFeatures::default(), OutputSummary::None,
            SessionId(u64::MAX), Visibility::Private,
        );
        let mq = MetaQueryExecutor::new(&st, &dir, &cfg, viewer);
        let got = mq.knn(&probe, k, DistanceKind::ParseTree);
        let want = brute_knn(&st, &dir, &cfg, viewer, &probe, DistanceKind::ParseTree, k);
        prop_assert_eq!(&got, &want, "ParseTree pruning diverged");
    }

    /// The two cheap structural lower bounds are sound on generated query
    /// pairs: the tree-shape (size + label histogram) bound never exceeds
    /// the exact Zhang–Shasha distance, and the SELECT-profile bound
    /// never exceeds the exact diff distance.
    #[test]
    fn structural_lower_bounds_are_sound(a in sql_strategy(), b in sql_strategy()) {
        let sa = sqlparse::parse(&a).unwrap();
        let sb = sqlparse::parse(&b).unwrap();
        let ta = sqlparse::statement_tree(&sqlparse::strip_constants(&sa));
        let tb = sqlparse::statement_tree(&sqlparse::strip_constants(&sb));
        let (ha, hb) = (sqlparse::TreeShape::of(&ta), sqlparse::TreeShape::of(&tb));
        let ted = sqlparse::tree_edit_distance(&ta, &tb);
        prop_assert!(sqlparse::tree_edit_lower_bound(&ha, &hb) <= ted);
        prop_assert!(
            sqlparse::normalized_tree_lower_bound(&ha, &hb)
                <= sqlparse::normalized_tree_distance(&ta, &tb) + 1e-12
        );
        if let (sqlparse::Statement::Select(pa), sqlparse::Statement::Select(pb)) = (&sa, &sb) {
            let (fa, fb) = (sqlparse::SelectProfile::build(pa), sqlparse::SelectProfile::build(pb));
            prop_assert!(
                sqlparse::edit_distance_lower_bound(&fa, &fb)
                    <= sqlparse::diff::edit_distance_normalized(pa, pb) + 1e-12
            );
        }
    }

    /// Snapshot → load reproduces the similarity-signature state exactly:
    /// the interner, every per-record signature, the posting index and
    /// the live counter (summaries are not persisted, so generated
    /// records carry none).
    #[test]
    fn snapshot_roundtrip_preserves_signature_state(
        records in records_strategy(),
        del_seeds in proptest::collection::vec(any::<bool>(), 12),
        flag_seeds in proptest::collection::vec(any::<bool>(), 12),
    ) {
        let mut st = build_storage(records);
        let n = st.len();
        // Flag a subset (maintenance-style live → non-live transitions
        // unpost the record), then tombstone a possibly-overlapping one.
        for (i, flag) in flag_seeds.iter().take(n).enumerate() {
            if *flag {
                st.set_validity(
                    QueryId(i as u64),
                    Validity::Flagged { reason: "drift".into(), at: 1 },
                ).unwrap();
            }
        }
        for (i, del) in del_seeds.iter().take(n).enumerate() {
            if *del {
                st.delete(QueryId(i as u64)).unwrap();
            }
        }
        let mut buf = Vec::new();
        st.snapshot(&mut buf).unwrap();
        let restored = QueryStorage::load(&buf[..]).unwrap();
        prop_assert_eq!(&resnapshot(&restored), &buf, "snapshot → load → snapshot is a fixpoint");
        prop_assert_eq!(restored.interner(), st.interner());
        prop_assert_eq!(restored.signatures(), st.signatures());
        // Feature classes may differ in tombstoned members (a rebuild
        // drops them; a freshly restored storage never files them) and in
        // creation order, so compare each class's live members.
        prop_assert_eq!(live_classes(&restored), live_classes(&st));
        prop_assert_eq!(restored.live_count(), st.live_count());
    }

    /// WAL replay reproduces the live state exactly under arbitrary
    /// interleavings of logged mutations, flush points and snapshot
    /// cycles (snapshot → rotate → prune). After a final flush, recovery
    /// from the durable in-memory log — newest snapshot plus whatever
    /// segments survived pruning — must equal the storage that wrote it.
    #[test]
    fn wal_replay_matches_live_state_across_snapshot_interleavings(
        steps in proptest::collection::vec(wal_step_strategy(), 1..40),
    ) {
        let (sink, log) = MemSink::new();
        let mut st = QueryStorage::new();
        st.attach_wal(WalWriter::new(Box::new(sink), 1));
        for step in steps {
            let n = st.len();
            match step {
                WalStep::Insert(sql) => {
                    let stmt = sqlparse::parse(&sql).ok();
                    let feats = stmt.as_ref().map(|s| extract(s, None)).unwrap_or_default();
                    let id = n as u64;
                    st.insert(make_record(
                        QueryId(id),
                        UserId((id % 3) as u32),
                        1_000 + id * 60,
                        &sql,
                        stmt,
                        feats,
                        RuntimeFeatures { elapsed_us: id, success: true, ..Default::default() },
                        OutputSummary::None,
                        SessionId(id / 4),
                        Visibility::Public,
                    ));
                }
                WalStep::Delete(i) if n > 0 => {
                    let _ = st.delete(QueryId((i % n) as u64));
                }
                WalStep::Flag(i) if n > 0 => {
                    let id = QueryId((i % n) as u64);
                    if st.get(id).unwrap().validity != Validity::Deleted {
                        st.set_validity(
                            id,
                            Validity::Flagged { reason: "drift".into(), at: 1 },
                        ).unwrap();
                    }
                }
                WalStep::Repair(i) if n > 0 => {
                    let id = QueryId((i % n) as u64);
                    if st.get(id).unwrap().validity != Validity::Deleted {
                        st.set_validity(
                            id,
                            Validity::Repaired { original_sql: "x".into(), at: 2 },
                        ).unwrap();
                    }
                }
                WalStep::Annotate(i, text) if n > 0 => {
                    let _ = st.annotate(
                        QueryId((i % n) as u64),
                        Annotation { author: UserId(0), at: 9, text, fragment: None },
                    );
                }
                WalStep::Visibility(i, vis) if n > 0 => {
                    st.set_visibility(QueryId((i % n) as u64), vis).unwrap();
                }
                WalStep::Edge(a, b, inv) if n > 0 => {
                    let from = QueryId((a % n) as u64);
                    let to = QueryId((b % n) as u64);
                    st.add_edge(SessionEdge {
                        from,
                        to,
                        kind: if inv { EdgeKind::Investigation } else { EdgeKind::Evolution },
                    });
                }
                WalStep::Reindex(i) if n > 0 => {
                    let id = QueryId((i % n) as u64);
                    if st.get(id).unwrap().validity != Validity::Deleted {
                        reindex_in_place(&mut st, id);
                    }
                }
                WalStep::Flush => st.wal_flush().unwrap(),
                WalStep::Snapshot => {
                    let mut body = Vec::new();
                    st.snapshot(&mut body).unwrap();
                    let horizon = st.wal_last_lsn().unwrap_or(0);
                    st.wal_write_snapshot(horizon, &body).unwrap();
                }
                // Index-targeting steps against an empty store: no-ops.
                _ => {}
            }
        }
        st.wal_flush().unwrap();
        let (recovered, report) = log.lock().recover().unwrap();
        prop_assert_eq!(report.frames_failed, 0, "replay failures: {}", report);
        prop_assert_eq!(recovered.len(), st.len());
        prop_assert_eq!(recovered.live_count(), st.live_count());
        prop_assert_eq!(recovered.template_histogram(), st.template_histogram());
        for r in st.iter() {
            let q = recovered.get(r.id).unwrap();
            prop_assert_eq!(&q.raw_sql, &r.raw_sql);
            prop_assert_eq!(&q.validity, &r.validity);
            prop_assert_eq!(q.visibility, r.visibility);
            prop_assert_eq!(q.session, r.session);
            prop_assert_eq!(q.template_fp, r.template_fp);
            prop_assert_eq!(q.annotations.len(), r.annotations.len());
        }
        prop_assert_eq!(recovered.edges().len(), st.edges().len());
    }

    /// Distance metrics satisfy identity, symmetry and [0, 1] bounds.
    #[test]
    fn metric_axioms(a in sql_strategy(), b in sql_strategy()) {
        let cfg = CqmsConfig::default();
        let mk = |id: u64, sql: &str| {
            let stmt = sqlparse::parse(sql).unwrap();
            let feats = extract(&stmt, None);
            make_record(
                QueryId(id), UserId(0), 0, sql, Some(stmt), feats,
                RuntimeFeatures { success: true, ..Default::default() },
                OutputSummary::None, SessionId(0), Visibility::Public,
            )
        };
        let ra = reference::detached(&mk(0, &a));
        let rb = reference::detached(&mk(1, &b));
        for kind in [
            DistanceKind::Features,
            DistanceKind::ParseTree,
            DistanceKind::TreeEdit,
            DistanceKind::Combined,
        ] {
            let daa = reference::distance(&ra, &ra, kind, &cfg);
            prop_assert!(daa.abs() < 1e-9, "{kind:?} identity failed: {daa}");
            let dab = reference::distance(&ra, &rb, kind, &cfg);
            let dba = reference::distance(&rb, &ra, kind, &cfg);
            prop_assert!((dab - dba).abs() < 1e-9, "{kind:?} asymmetric");
            prop_assert!((0.0..=1.0).contains(&dab), "{kind:?} out of range: {dab}");
        }
    }

    /// Apriori's pair rules agree exactly with brute-force counting, and
    /// mining the same transactions as `RuleMiner`'s multiset gives the
    /// same rules.
    #[test]
    fn apriori_matches_brute_force(
        transactions in proptest::collection::vec(
            proptest::collection::vec(0u8..6, 1..5),
            1..40,
        ),
        min_support in 1u32..5,
    ) {
        let txs: Vec<Vec<String>> = transactions
            .iter()
            .map(|t| {
                let mut items: Vec<String> = t.iter().map(|i| format!("i{i}")).collect();
                items.sort();
                items.dedup();
                items
            })
            .collect();
        let weighted: Vec<(&[String], u32)> = txs.iter().map(|t| (t.as_slice(), 1)).collect();
        let rules = mine_apriori(&weighted, min_support, 0.0);
        let mut miner = RuleMiner::new();
        for t in &txs {
            miner.add_transaction(t.clone());
        }
        prop_assert_eq!(&*miner.mine(min_support, 0.0), &rules);
        // Brute force every single-item => single-item rule.
        for a in 0..6u8 {
            for b in 0..6u8 {
                if a == b {
                    continue;
                }
                let ia = format!("i{a}");
                let ib = format!("i{b}");
                let count_a = txs.iter().filter(|t| t.contains(&ia)).count() as u32;
                let count_ab = txs
                    .iter()
                    .filter(|t| t.contains(&ia) && t.contains(&ib))
                    .count() as u32;
                let mined = rules.iter().find(|r| {
                    r.antecedent == vec![ia.clone()] && r.consequent == ib
                });
                if count_ab >= min_support {
                    let rule = mined.expect("frequent pair rule missing");
                    let expect_conf = count_ab as f64 / count_a as f64;
                    prop_assert!((rule.confidence - expect_conf).abs() < 1e-9);
                    let expect_supp = count_ab as f64 / txs.len() as f64;
                    prop_assert!((rule.support - expect_supp).abs() < 1e-9);
                } else {
                    prop_assert!(mined.is_none(), "infrequent rule {ia}=>{ib} mined");
                }
            }
        }
    }

    /// Suggestions never violate the typed prefix, and scores stay ranked.
    #[test]
    fn completion_respects_prefix(prefix in "[A-Za-z]{0,4}") {
        let mut engine = relstore::Engine::new();
        workload::Domain::Lakes.setup(&mut engine, 20, 5);
        let mut cqms = cqms_core::Cqms::new(engine, CqmsConfig::default());
        let u = cqms.register_user("u");
        for i in 0..5 {
            cqms.run_query(u, &format!("SELECT * FROM WaterTemp WHERE temp < {i}"))
                .unwrap();
        }
        let partial = format!("SELECT * FROM {prefix}");
        let suggestions = cqms.capture_snapshot(0).complete(u, &partial, 5);
        for s in &suggestions {
            prop_assert!(
                s.text.to_lowercase().starts_with(&prefix.to_lowercase()),
                "suggestion {} ignores prefix {prefix}",
                s.text
            );
        }
        for w in suggestions.windows(2) {
            prop_assert!(w[0].score >= w[1].score);
        }
    }

    /// Session segmentation is deterministic and never merges users.
    #[test]
    fn segmentation_deterministic(records in records_strategy()) {
        let st = build_storage(records);
        let cfg = CqmsConfig::default();
        let a = cqms_core::miner::sessions::segment_log(&st, &cfg);
        let b = cqms_core::miner::sessions::segment_log(&st, &cfg);
        prop_assert_eq!(&a, &b);
        // Queries of different users never share a predicted session.
        let mut owner: std::collections::HashMap<SessionId, UserId> = Default::default();
        for r in st.iter() {
            let s = a[&r.id];
            if let Some(prev) = owner.insert(s, r.user) {
                prop_assert_eq!(prev, r.user, "session crosses users");
            }
        }
    }

    /// Feature items are stable under canonical re-printing of the query.
    #[test]
    fn feature_items_canonical(sql in sql_strategy()) {
        let stmt = sqlparse::parse(&sql).unwrap();
        let printed = sqlparse::to_sql(&sqlparse::canonicalize(&stmt));
        let reparsed = sqlparse::parse(&printed).unwrap();
        prop_assert_eq!(items_of(stmt), items_of(reparsed));
    }
}

/// Every signature kernel equals its record-based reference on a fixed
/// set of queries, with and without output summaries, under every
/// metric; the disjoint-feature fast path equals the full merge.
#[test]
fn signature_kernels_match_record_kernels() {
    let cfg = CqmsConfig::default();
    let rec = |id: u64, sql: &str, output: &[&str]| {
        let stmt = sqlparse::parse(sql).unwrap();
        let feats = extract(&stmt, None);
        let mut r = make_record(
            QueryId(id),
            UserId(0),
            100,
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
        );
        if !output.is_empty() {
            r.summary = OutputSummary::Full {
                columns: vec!["c".into()],
                rows: output.iter().map(|v| [*v]).collect(),
            };
        }
        r
    };
    let recs = [
        rec(0, "SELECT * FROM WaterTemp WHERE temp < 18", &[]),
        rec(
            1,
            "SELECT lake FROM WaterTemp, Lakes WHERE area > 100",
            &["Lake Washington", "Green Lake"],
        ),
        rec(
            2,
            "SELECT city FROM CityLocations GROUP BY city",
            &["Lake Washington"],
        ),
        rec(
            3,
            "SELECT salinity FROM WaterSalinity WHERE salinity > 0.2",
            &[],
        ),
        rec(4, "INSERT INTO Lakes VALUES ('Lake Union', 2)", &[]),
        rec(5, "INSERT INTO Lakes  VALUES ('Lake Union', 2)", &[]),
    ];
    let mut st = QueryStorage::new();
    for r in &recs {
        st.insert(r.clone());
    }
    let sigs: Vec<_> = (0..recs.len() as u64)
        .map(|i| st.signature(QueryId(i)).unwrap())
        .collect();
    for i in 0..recs.len() {
        for j in 0..recs.len() {
            let (a, b) = (
                st.get(QueryId(i as u64)).unwrap(),
                st.get(QueryId(j as u64)).unwrap(),
            );
            for kind in [
                DistanceKind::Features,
                DistanceKind::ParseTree,
                DistanceKind::TreeEdit,
                DistanceKind::Output,
                DistanceKind::Combined,
            ] {
                let legacy = reference::distance(a, b, kind, &cfg);
                let sig = similarity::distance_with(a, sigs[i], b, sigs[j], kind, &cfg);
                assert_eq!(legacy, sig, "{kind:?} diverges on pair ({i}, {j})");
            }
        }
    }
    // Records 0 and 2 share no tables, attributes or predicates.
    assert_eq!(
        similarity::feature_distance_disjoint(sigs[0], sigs[2], &cfg),
        similarity::feature_distance_sig(sigs[0], sigs[2], &cfg),
    );
}
