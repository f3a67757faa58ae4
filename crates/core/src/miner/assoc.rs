//! Association-rule mining over query feature itemsets (§4.3).
//!
//! "By learning association rules, a CQMS could provide more advanced
//! support for query composition" — the §2.3 example being *WaterSalinity ⇒
//! WaterTemp*. Transactions are per-query item sets from
//! [`crate::features::FeatureRows::items`] (`table:…`, `attr:…`,
//! `pred:…`). Classic Apriori with support counting and single-consequent
//! rule generation over a multiset of transactions. A [`RuleMiner`] is
//! transient: a snapshot read fills it from its viewer's live records.

use std::collections::{HashMap, HashSet};
use std::sync::Arc;

/// An association rule `antecedent ⇒ consequent`.
#[derive(Debug, Clone, PartialEq)]
pub struct AssocRule {
    /// Sorted item set (size 1–2 in practice).
    pub antecedent: Vec<String>,
    /// The implied item.
    pub consequent: String,
    /// Fraction of transactions containing antecedent ∪ consequent.
    pub support: f64,
    /// support(antecedent ∪ consequent) / support(antecedent).
    pub confidence: f64,
}

/// Apriori over a multiset: each distinct sorted item set and its count.
#[derive(Debug, Default, Clone)]
pub struct RuleMiner {
    transactions: HashMap<Vec<String>, u32>,
}

impl RuleMiner {
    /// An empty miner.
    pub fn new() -> Self {
        RuleMiner::default()
    }

    /// Add one transaction (sorted and deduplicated; an empty one is skipped).
    pub fn add_transaction(&mut self, items: Vec<String>) {
        self.add_transaction_n(items, 1);
    }

    /// Add `n` copies of one transaction.
    pub fn add_transaction_n(&mut self, mut items: Vec<String>, n: u32) {
        if items.is_empty() || n == 0 {
            return;
        }
        items.sort();
        items.dedup();
        *self.transactions.entry(items).or_insert(0) += n;
    }

    /// Sum another miner's multiset into this one (a sharded read's merge).
    pub fn merge(&mut self, other: RuleMiner) {
        for (items, n) in other.transactions {
            *self.transactions.entry(items).or_insert(0) += n;
        }
    }

    /// Mine rules at the given thresholds. `min_support` is an absolute
    /// transaction count; confidence is a fraction.
    pub fn mine(&self, min_support: u32, min_confidence: f64) -> Arc<Vec<AssocRule>> {
        let transactions: Vec<(&[String], u32)> = (self.transactions.iter())
            .map(|(items, &n)| (items.as_slice(), n))
            .collect();
        Arc::new(mine_apriori(&transactions, min_support, min_confidence))
    }
}

/// Context-conditional support counts for one `(context, prefix)`
/// completion probe: everything [`suggest_from_counts`] needs to rank the
/// consequents exactly as mined rules over the same transactions would.
/// The point of the raw counts is that they are **summable**: each shard
/// counts its own transactions, the shard layer merges them, and scoring
/// the merged counts equals scoring one log holding every shard's
/// transactions — Apriori's support-monotonicity guarantees the threshold
/// pruning commutes with the merge.
#[derive(Debug, Default, Clone, PartialEq)]
pub struct ContextCounts {
    /// `count(a)` per context item `a` — pair-rule antecedent supports.
    pub singles: HashMap<String, u64>,
    /// `count({x, y})` per unordered context pair (key sorted) —
    /// triple-rule antecedent supports.
    pub pairs: HashMap<(String, String), u64>,
    /// `count({a, b})` per (context item, prefix-matching non-context
    /// consequent) — pair-rule joint supports.
    pub joint_pairs: HashMap<(String, String), u64>,
    /// `count({x, y, z})` per (sorted context pair, consequent) —
    /// triple-rule joint supports.
    pub joint_triples: HashMap<(String, String, String), u64>,
}

impl ContextCounts {
    /// Count `n` copies of one transaction. `items` must be sorted and
    /// deduplicated, so pair keys come out in the same (ordered) form
    /// [`mine_apriori`] uses. Completion adds each distinct live table set
    /// once, weighted by the number of live records that have it.
    pub fn add_n(&mut self, items: &[String], context: &HashSet<String>, prefix: &str, n: u64) {
        let ctx_items: Vec<&String> = items.iter().filter(|i| context.contains(*i)).collect();
        if ctx_items.is_empty() {
            return;
        }
        let cons: Vec<&String> = items
            .iter()
            .filter(|i| i.starts_with(prefix) && !context.contains(*i))
            .collect();
        for (i, &a) in ctx_items.iter().enumerate() {
            *self.singles.entry(a.clone()).or_insert(0) += n;
            for &z in &cons {
                *self.joint_pairs.entry((a.clone(), z.clone())).or_insert(0) += n;
            }
            for &b in &ctx_items[i + 1..] {
                *self.pairs.entry((a.clone(), b.clone())).or_insert(0) += n;
                for &z in &cons {
                    *self
                        .joint_triples
                        .entry((a.clone(), b.clone(), z.clone()))
                        .or_insert(0) += n;
                }
            }
        }
    }

    /// Sum another shard's counts into this one.
    pub fn merge(&mut self, other: &ContextCounts) {
        for (k, v) in &other.singles {
            *self.singles.entry(k.clone()).or_insert(0) += v;
        }
        for (k, v) in &other.pairs {
            *self.pairs.entry(k.clone()).or_insert(0) += v;
        }
        for (k, v) in &other.joint_pairs {
            *self.joint_pairs.entry(k.clone()).or_insert(0) += v;
        }
        for (k, v) in &other.joint_triples {
            *self.joint_triples.entry(k.clone()).or_insert(0) += v;
        }
    }
}

/// Score completion consequents from (possibly merged) context counts —
/// bit-identical to ranking the applicable [`mine_apriori`] rules over the
/// same transactions (the test module keeps that reference): a pair rule
/// `{a} ⇒ b` exists iff `count({a,b}) ≥ min_support` with
/// `confidence = count({a,b}) / count(a)` (the Apriori f1/f2 filters
/// prune only itemsets below `min_support`, which the joint-count
/// threshold already enforces by monotonicity), and likewise for triple
/// rules with the pair-antecedent count. The same float operations run
/// in the same order per consequent, so scores — not just ranks — match.
pub fn suggest_from_counts(
    counts: &ContextCounts,
    min_support: u32,
    min_confidence: f64,
) -> Vec<(String, f64)> {
    let ms = u64::from(min_support);
    let mut best: HashMap<String, f64> = HashMap::new();
    let mut consider = |consequent: &String, s: f64| {
        let e = best.entry(consequent.clone()).or_insert(0.0);
        if s > *e {
            *e = s;
        }
    };
    for ((a, b), &cnt) in &counts.joint_pairs {
        if cnt < ms {
            continue;
        }
        let Some(&ante) = counts.singles.get(a) else {
            continue;
        };
        let confidence = cnt as f64 / ante as f64;
        if confidence >= min_confidence {
            consider(b, confidence + 1e-6);
        }
    }
    for ((x, y, z), &cnt) in &counts.joint_triples {
        if cnt < ms {
            continue;
        }
        let ante = counts
            .pairs
            .get(&(x.clone(), y.clone()))
            .copied()
            .unwrap_or(0);
        if ante == 0 {
            continue;
        }
        let confidence = cnt as f64 / ante as f64;
        if confidence >= min_confidence {
            consider(z, confidence + 2.0 * 1e-6);
        }
    }
    let mut out: Vec<(String, f64)> = best.into_iter().collect();
    out.sort_by(|a, b| {
        b.1.partial_cmp(&a.1)
            .unwrap_or(std::cmp::Ordering::Equal)
            .then_with(|| a.0.cmp(&b.0))
    });
    out
}

/// Run Apriori over weighted transactions (`(items, n)`: `n` copies of sorted,
/// deduplicated `items`): frequent itemsets up to size 3, rules with single
/// consequents and antecedents of size 1–2.
pub fn mine_apriori<T: AsRef<[String]>>(
    transactions: &[(T, u32)],
    min_support: u32,
    min_confidence: f64,
) -> Vec<AssocRule> {
    let n: u64 = transactions.iter().map(|(_, w)| u64::from(*w)).sum();
    if n == 0 {
        return Vec::new();
    }

    // Pass 1: frequent single items.
    let mut c1: HashMap<&str, u32> = HashMap::new();
    for (t, w) in transactions {
        for item in t.as_ref() {
            *c1.entry(item.as_str()).or_insert(0) += w;
        }
    }
    let f1: HashSet<&str> = c1
        .iter()
        .filter(|(_, &c)| c >= min_support)
        .map(|(&i, _)| i)
        .collect();

    // Each transaction's frequent items, for passes 2 and 3.
    let frequent_items: Vec<(Vec<&str>, u32)> = (transactions.iter())
        .map(|(t, w)| {
            let items = t.as_ref().iter().map(String::as_str);
            (items.filter(|i| f1.contains(i)).collect(), *w)
        })
        .collect();

    // Pass 2: frequent pairs (candidates from f1 × f1).
    let mut c2: HashMap<(&str, &str), u32> = HashMap::new();
    for (frequent, w) in &frequent_items {
        for i in 0..frequent.len() {
            for j in (i + 1)..frequent.len() {
                *c2.entry((frequent[i], frequent[j])).or_insert(0) += w;
            }
        }
    }
    let f2: HashMap<(&str, &str), u32> =
        c2.into_iter().filter(|(_, c)| *c >= min_support).collect();

    // Pass 3: frequent triples (candidates joined from f2, pruned).
    let mut c3: HashMap<(&str, &str, &str), u32> = HashMap::new();
    for (frequent, w) in &frequent_items {
        for i in 0..frequent.len() {
            for j in (i + 1)..frequent.len() {
                if !f2.contains_key(&(frequent[i], frequent[j])) {
                    continue;
                }
                for l in (j + 1)..frequent.len() {
                    if f2.contains_key(&(frequent[j], frequent[l]))
                        && f2.contains_key(&(frequent[i], frequent[l]))
                    {
                        *c3.entry((frequent[i], frequent[j], frequent[l]))
                            .or_insert(0) += w;
                    }
                }
            }
        }
    }
    let f3: HashMap<(&str, &str, &str), u32> =
        c3.into_iter().filter(|(_, c)| *c >= min_support).collect();

    let nf = n as f64;
    let mut rules: Vec<AssocRule> = Vec::new();

    // Rules from pairs: {a} ⇒ b and {b} ⇒ a.
    for (&(a, b), &cnt) in &f2 {
        let support = cnt as f64 / nf;
        for (ante, cons) in [(a, b), (b, a)] {
            let ante_cnt = c1[ante] as f64;
            let confidence = cnt as f64 / ante_cnt;
            if confidence >= min_confidence {
                rules.push(AssocRule {
                    antecedent: vec![ante.to_string()],
                    consequent: cons.to_string(),
                    support,
                    confidence,
                });
            }
        }
    }

    // Rules from triples: {a, b} ⇒ c (all three rotations).
    for (&(a, b, c), &cnt) in &f3 {
        let support = cnt as f64 / nf;
        let pair_count = |x: &str, y: &str| -> f64 {
            let key = if x < y { (x, y) } else { (y, x) };
            f2.get(&key).copied().unwrap_or(0) as f64
        };
        for (x, y, z) in [(a, b, c), (a, c, b), (b, c, a)] {
            let ante_cnt = pair_count(x, y);
            if ante_cnt == 0.0 {
                continue;
            }
            let confidence = cnt as f64 / ante_cnt;
            if confidence >= min_confidence {
                let mut antecedent = vec![x.to_string(), y.to_string()];
                antecedent.sort();
                rules.push(AssocRule {
                    antecedent,
                    consequent: z.to_string(),
                    support,
                    confidence,
                });
            }
        }
    }

    rules.sort_by(|a, b| {
        b.confidence
            .partial_cmp(&a.confidence)
            .unwrap_or(std::cmp::Ordering::Equal)
            .then_with(|| {
                b.support
                    .partial_cmp(&a.support)
                    .unwrap_or(std::cmp::Ordering::Equal)
            })
            .then_with(|| a.antecedent.cmp(&b.antecedent))
            .then_with(|| a.consequent.cmp(&b.consequent))
    });
    rules
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(items: &[&str]) -> Vec<String> {
        items.iter().map(|s| s.to_string()).collect()
    }

    /// The reference [`suggest_from_counts`] is compared against:
    /// confidence-ranked consequents of the mined rules applicable in
    /// `context`. Already-present items are not suggested.
    fn suggest(
        m: &RuleMiner,
        context: &HashSet<String>,
        min_support: u32,
        min_confidence: f64,
        prefix: &str,
    ) -> Vec<(String, f64)> {
        let rules = m.mine(min_support, min_confidence);
        let mut best: HashMap<String, f64> = HashMap::new();
        for r in rules.iter() {
            let applies = r.antecedent.iter().all(|a| context.contains(a));
            if !applies || context.contains(&r.consequent) {
                continue;
            }
            if !r.consequent.starts_with(prefix) {
                continue;
            }
            let score = best.entry(r.consequent.clone()).or_insert(0.0);
            // Prefer more specific (longer antecedent) matches at equal
            // confidence by a small epsilon bonus.
            let s = r.confidence + r.antecedent.len() as f64 * 1e-6;
            if s > *score {
                *score = s;
            }
        }
        let mut out: Vec<(String, f64)> = best.into_iter().collect();
        out.sort_by(|a, b| {
            b.1.partial_cmp(&a.1)
                .unwrap_or(std::cmp::Ordering::Equal)
                .then_with(|| a.0.cmp(&b.0))
        });
        out
    }

    fn context_counts(m: &RuleMiner, context: &HashSet<String>, prefix: &str) -> ContextCounts {
        let mut counts = ContextCounts::default();
        for (t, &n) in &m.transactions {
            counts.add_n(t, context, prefix, u64::from(n));
        }
        counts
    }

    #[test]
    fn finds_planted_pair_rule() {
        let mut m = RuleMiner::new();
        // 8 of 10 salinity queries also use watertemp.
        for _ in 0..8 {
            m.add_transaction(t(&["table:watersalinity", "table:watertemp"]));
        }
        for _ in 0..2 {
            m.add_transaction(t(&["table:watersalinity"]));
        }
        for _ in 0..5 {
            m.add_transaction(t(&["table:citylocations"]));
        }
        let rules = m.mine(3, 0.5);
        let rule = rules
            .iter()
            .find(|r| {
                r.antecedent == vec!["table:watersalinity".to_string()]
                    && r.consequent == "table:watertemp"
            })
            .expect("planted rule not found");
        assert!((rule.confidence - 0.8).abs() < 1e-9);
        assert!((rule.support - 8.0 / 15.0).abs() < 1e-9);
    }

    #[test]
    fn respects_min_support_and_confidence() {
        let mut m = RuleMiner::new();
        for _ in 0..2 {
            m.add_transaction(t(&["a", "b"]));
        }
        // Support 2 < min 3 → nothing.
        assert!(m.mine(3, 0.1).is_empty());
        // Confidence filter.
        let mut m = RuleMiner::new();
        for _ in 0..5 {
            m.add_transaction(t(&["a", "b"]));
        }
        for _ in 0..5 {
            m.add_transaction(t(&["a"]));
        }
        let rules = m.mine(3, 0.9);
        // a ⇒ b has confidence 0.5 (dropped); b ⇒ a has 1.0 (kept).
        assert!(rules
            .iter()
            .all(|r| !(r.antecedent == vec!["a".to_string()] && r.consequent == "b")));
        assert!(rules
            .iter()
            .any(|r| r.antecedent == vec!["b".to_string()] && r.consequent == "a"));
    }

    #[test]
    fn triple_rules_capture_context() {
        let mut m = RuleMiner::new();
        // With {a, b} together, c always follows; with a alone, d follows.
        for _ in 0..6 {
            m.add_transaction(t(&["a", "b", "c"]));
        }
        for _ in 0..6 {
            m.add_transaction(t(&["a", "d"]));
        }
        let rules = m.mine(3, 0.9);
        let pair_rule = rules
            .iter()
            .find(|r| r.antecedent.len() == 2 && r.consequent == "c")
            .expect("no {a,b} => c rule");
        assert_eq!(pair_rule.antecedent, vec!["a".to_string(), "b".to_string()]);
        assert!((pair_rule.confidence - 1.0).abs() < 1e-9);
    }

    #[test]
    fn suggest_is_context_aware() {
        // The paper's §2.3 example: plain FROM suggests CityLocations (most
        // popular overall), but with WaterSalinity present, WaterTemp wins.
        let mut m = RuleMiner::new();
        for _ in 0..10 {
            m.add_transaction(t(&["table:citylocations"]));
        }
        for _ in 0..6 {
            m.add_transaction(t(&["table:watersalinity", "table:watertemp"]));
        }
        for _ in 0..2 {
            m.add_transaction(t(&["table:watersalinity", "table:citylocations"]));
        }
        let ctx: HashSet<String> = ["table:watersalinity".to_string()].into_iter().collect();
        let suggestions = suggest(&m, &ctx, 2, 0.1, "table:");
        assert!(!suggestions.is_empty());
        assert_eq!(suggestions[0].0, "table:watertemp", "{suggestions:?}");
    }

    #[test]
    fn suggest_filters_present_items() {
        let mut m = RuleMiner::new();
        for _ in 0..5 {
            m.add_transaction(t(&["a", "b"]));
        }
        let ctx: HashSet<String> = ["a".to_string(), "b".to_string()].into_iter().collect();
        assert!(suggest(&m, &ctx, 2, 0.5, "").is_empty());
    }

    #[test]
    fn mining_repeats_until_new_transactions() {
        let mut m = RuleMiner::new();
        for _ in 0..5 {
            m.add_transaction(t(&["a", "b"]));
        }
        let r1 = m.mine(2, 0.5);
        let r2 = m.mine(2, 0.5);
        assert_eq!(r1, r2);
        m.add_transaction(t(&["a", "c"]));
        let r3 = m.mine(2, 0.5);
        // New data may change supports.
        assert!(r3.iter().any(|r| r.consequent == "b"));
    }

    #[test]
    fn empty_miner_yields_nothing() {
        let m = RuleMiner::new();
        assert!(m.mine(1, 0.1).is_empty());
    }

    /// `suggest_from_counts(context_counts(..))` must equal `suggest(..)`
    /// bit-for-bit — scores included — on one transaction list.
    #[test]
    fn counts_protocol_matches_suggest() {
        let mut m = RuleMiner::new();
        for _ in 0..10 {
            m.add_transaction(t(&["table:citylocations"]));
        }
        for _ in 0..6 {
            m.add_transaction(t(&["table:watersalinity", "table:watertemp", "col:temp"]));
        }
        for _ in 0..4 {
            m.add_transaction(t(&["table:watersalinity", "table:citylocations"]));
        }
        for _ in 0..3 {
            m.add_transaction(t(&["table:watersalinity", "col:temp", "table:sensors"]));
        }
        for (ctx_items, prefix) in [
            (vec!["table:watersalinity"], "table:"),
            (vec!["table:watersalinity", "col:temp"], "table:"),
            (vec!["table:watersalinity", "col:temp"], ""),
            (vec!["table:citylocations"], "col:"),
            (vec![], "table:"),
        ] {
            let ctx: HashSet<String> = ctx_items.iter().map(|s| s.to_string()).collect();
            for (ms, mc) in [(1, 0.1), (2, 0.5), (3, 0.9), (5, 0.0)] {
                let live = suggest(&m, &ctx, ms, mc, prefix);
                let counted = suggest_from_counts(&context_counts(&m, &ctx, prefix), ms, mc);
                assert_eq!(live, counted, "ctx={ctx_items:?} ms={ms} mc={mc}");
            }
        }
    }

    /// Summing two shards' counts and scoring, and mining the sum of two
    /// shards' miners, must each equal one miner holding both shards'
    /// transactions.
    #[test]
    fn merged_counts_match_combined_miner() {
        let txns = [
            t(&["a", "b", "c"]),
            t(&["a", "b"]),
            t(&["a", "c"]),
            t(&["b", "c", "d"]),
            t(&["a", "b", "c", "d"]),
            t(&["a", "d"]),
            t(&["c", "d"]),
        ];
        let mut combined = RuleMiner::new();
        let mut shard0 = RuleMiner::new();
        let mut shard1 = RuleMiner::new();
        for (i, tx) in txns.iter().enumerate() {
            combined.add_transaction(tx.clone());
            if i % 2 == 0 {
                shard0.add_transaction(tx.clone());
            } else {
                shard1.add_transaction(tx.clone());
            }
        }
        let ctx: HashSet<String> = ["a".to_string(), "b".to_string()].into_iter().collect();
        for (ms, mc) in [(1, 0.1), (2, 0.4), (3, 0.6)] {
            let mut merged = context_counts(&shard0, &ctx, "");
            merged.merge(&context_counts(&shard1, &ctx, ""));
            assert_eq!(
                suggest(&combined, &ctx, ms, mc, ""),
                suggest_from_counts(&merged, ms, mc),
                "ms={ms} mc={mc}"
            );
        }
        for (ms, mc) in [(1, 0.0), (2, 0.4), (3, 0.6)] {
            let mut merged = shard0.clone();
            merged.merge(shard1.clone());
            assert!(!combined.mine(ms, mc).is_empty());
            assert_eq!(
                merged.mine(ms, mc),
                combined.mine(ms, mc),
                "ms={ms} mc={mc}"
            );
        }
    }
}
