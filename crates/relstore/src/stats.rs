//! Per-column statistics: histograms, distinct counts, reservoir samples.
//!
//! Three CQMS duties hang off these statistics (paper §4.1 and §4.4):
//!
//! * **Output summarisation** — the profiler stores a bounded summary of each
//!   query's result (reservoir sample + histogram) instead of the full
//!   output;
//! * **Drift detection** — the Query Maintenance component re-executes a
//!   stored query's statistics only when the underlying data distribution
//!   changed "significantly"; [`ColumnStats::drift`] quantifies the change as
//!   a normalised L1 histogram distance;
//! * **Selectivity context** — quality scoring ranks queries partly by how
//!   selective their predicates are relative to the table distribution.

use crate::table::{Row, Table};
#[cfg(test)]
use crate::value::Value;
use std::collections::HashMap;
use std::sync::Arc;

/// Number of equi-width histogram buckets.
pub const HISTOGRAM_BUCKETS: usize = 16;
/// Default reservoir sample size.
pub const DEFAULT_SAMPLE: usize = 32;
/// How many most-frequent values to retain.
pub const TOP_K: usize = 8;

/// Statistics over one column.
#[derive(Debug, Clone, PartialEq)]
pub struct ColumnStats {
    pub name: String,
    pub count: u64,
    pub nulls: u64,
    /// Exact distinct count (laptop scale; an estimator would slot in here).
    pub distinct: u64,
    /// Numeric min/max when the column is numeric.
    pub min: Option<f64>,
    pub max: Option<f64>,
    /// Equi-width histogram over `[min, max]` for numeric columns.
    pub histogram: Vec<u64>,
    /// Most frequent values with their counts (any type).
    pub top_values: Vec<(String, u64)>,
}

impl ColumnStats {
    /// Compute stats for column `col` over `rows`.
    pub fn compute(name: &str, rows: &[Arc<Row>], col: usize) -> ColumnStats {
        let mut count = 0u64;
        let mut nulls = 0u64;
        let mut freqs: HashMap<String, u64> = HashMap::new();
        let mut numeric: Vec<f64> = Vec::new();
        for row in rows {
            count += 1;
            let v = &row[col];
            if v.is_null() {
                nulls += 1;
                continue;
            }
            *freqs.entry(v.render()).or_insert(0) += 1;
            if let Some(f) = v.as_f64() {
                numeric.push(f);
            }
        }
        let distinct = freqs.len() as u64;
        let (min, max) = numeric
            .iter()
            .fold(None::<(f64, f64)>, |acc, &f| match acc {
                None => Some((f, f)),
                Some((lo, hi)) => Some((lo.min(f), hi.max(f))),
            })
            .map_or((None, None), |(lo, hi)| (Some(lo), Some(hi)));

        let histogram = match (min, max) {
            (Some(lo), Some(hi)) if hi > lo => {
                let mut buckets = vec![0u64; HISTOGRAM_BUCKETS];
                let w = (hi - lo) / HISTOGRAM_BUCKETS as f64;
                for f in &numeric {
                    let mut b = ((f - lo) / w) as usize;
                    if b >= HISTOGRAM_BUCKETS {
                        b = HISTOGRAM_BUCKETS - 1;
                    }
                    buckets[b] += 1;
                }
                buckets
            }
            (Some(_), Some(_)) => {
                // Degenerate single-value column: everything in one bucket.
                let mut buckets = vec![0u64; HISTOGRAM_BUCKETS];
                buckets[0] = numeric.len() as u64;
                buckets
            }
            _ => Vec::new(),
        };

        let mut top: Vec<(String, u64)> = freqs.into_iter().collect();
        top.sort_by(|a, b| b.1.cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
        top.truncate(TOP_K);

        ColumnStats {
            name: name.to_string(),
            count,
            nulls,
            distinct,
            min,
            max,
            histogram,
            top_values: top,
        }
    }

    /// Normalised L1 distance between the shapes of two histograms, in
    /// [0, 2]. Returns 2.0 (maximal) when shapes are incomparable.
    pub fn drift(&self, other: &ColumnStats) -> f64 {
        if self.histogram.is_empty() || other.histogram.is_empty() {
            return if self.histogram.len() == other.histogram.len() {
                0.0
            } else {
                2.0
            };
        }
        // Also treat a range shift as drift: re-bucket other onto self's
        // range is overkill here; compare normalised mass per bucket plus a
        // penalty for range movement.
        let sa: u64 = self.histogram.iter().sum();
        let sb: u64 = other.histogram.iter().sum();
        if sa == 0 || sb == 0 {
            return if sa == sb { 0.0 } else { 2.0 };
        }
        let mut l1 = 0.0;
        for (a, b) in self.histogram.iter().zip(&other.histogram) {
            l1 += (*a as f64 / sa as f64 - *b as f64 / sb as f64).abs();
        }
        let range_penalty = match (self.min, self.max, other.min, other.max) {
            (Some(a0), Some(a1), Some(b0), Some(b1)) => {
                let span = (a1 - a0).abs().max(f64::EPSILON);
                (((b0 - a0).abs() + (b1 - a1).abs()) / span).min(1.0)
            }
            _ => 0.0,
        };
        (l1 + range_penalty).min(2.0)
    }
}

/// Statistics over a whole table.
#[derive(Debug, Clone, PartialEq)]
pub struct TableStats {
    pub table: String,
    pub row_count: u64,
    pub columns: Vec<ColumnStats>,
}

impl TableStats {
    pub fn compute(table: &Table) -> TableStats {
        let columns = table
            .schema
            .columns
            .iter()
            .enumerate()
            .map(|(i, c)| ColumnStats::compute(&c.name, &table.rows, i))
            .collect();
        TableStats {
            table: table.schema.name.clone(),
            row_count: table.len() as u64,
            columns,
        }
    }

    pub fn column(&self, name: &str) -> Option<&ColumnStats> {
        self.columns
            .iter()
            .find(|c| c.name.eq_ignore_ascii_case(name))
    }

    /// Maximum drift across shared columns, plus row-count change ratio.
    pub fn drift(&self, other: &TableStats) -> f64 {
        let mut worst = 0.0f64;
        for c in &self.columns {
            if let Some(o) = other.column(&c.name) {
                worst = worst.max(c.drift(o));
            }
        }
        let rc = self.row_count.max(1) as f64;
        let growth = ((other.row_count as f64 - self.row_count as f64).abs() / rc).min(1.0);
        (worst + growth).min(2.0)
    }
}

/// Fixed-size reservoir sample (Vitter's algorithm R) of any item type,
/// with a deterministic SplitMix64 sequence so summaries are
/// reproducible: for one seed, the positions kept depend only on how
/// many items were offered, never on what they are.
#[derive(Debug, Clone)]
pub struct Reservoir<T> {
    capacity: usize,
    seen: u64,
    items: Vec<T>,
    rng_state: u64,
}

impl<T> Reservoir<T> {
    pub fn new(capacity: usize, seed: u64) -> Self {
        Reservoir {
            capacity,
            seen: 0,
            items: Vec::with_capacity(capacity.min(64)),
            rng_state: seed | 1,
        }
    }

    fn next_u64(&mut self) -> u64 {
        // SplitMix64 step: good enough for sampling, dependency-free.
        self.rng_state = self.rng_state.wrapping_add(0x9E3779B97F4A7C15);
        let mut z = self.rng_state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
        z ^ (z >> 31)
    }

    pub fn offer(&mut self, item: T) {
        self.seen += 1;
        if self.items.len() < self.capacity {
            self.items.push(item);
            return;
        }
        let j = self.next_u64() % self.seen;
        if (j as usize) < self.capacity {
            self.items[j as usize] = item;
        }
    }

    pub fn seen(&self) -> u64 {
        self.seen
    }

    pub fn items(&self) -> &[T] {
        &self.items
    }

    pub fn into_items(self) -> Vec<T> {
        self.items
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::TableSchema;
    use sqlparse::ast::DataType;

    fn table_with(vals: &[Option<f64>]) -> Table {
        let mut t = Table::new(TableSchema::build("t", &[("x", DataType::Float)]));
        for v in vals {
            t.insert(vec![match v {
                Some(f) => Value::Float(*f),
                None => Value::Null,
            }])
            .unwrap();
        }
        t
    }

    #[test]
    fn basic_counts() {
        let t = table_with(&[Some(1.0), Some(2.0), Some(2.0), None]);
        let s = TableStats::compute(&t);
        let c = s.column("x").unwrap();
        assert_eq!(c.count, 4);
        assert_eq!(c.nulls, 1);
        assert_eq!(c.distinct, 2);
        assert_eq!(c.min, Some(1.0));
        assert_eq!(c.max, Some(2.0));
        assert_eq!(c.histogram.iter().sum::<u64>(), 3);
    }

    #[test]
    fn identical_distributions_have_zero_drift() {
        let a = TableStats::compute(&table_with(&[Some(1.0), Some(5.0), Some(9.0)]));
        let b = TableStats::compute(&table_with(&[Some(1.0), Some(5.0), Some(9.0)]));
        assert!(a.drift(&b) < 1e-9);
    }

    #[test]
    fn shifted_distribution_has_high_drift() {
        let vals_a: Vec<Option<f64>> = (0..100).map(|i| Some(i as f64 / 10.0)).collect();
        let vals_b: Vec<Option<f64>> = (0..100).map(|i| Some(100.0 + i as f64 / 10.0)).collect();
        let a = TableStats::compute(&table_with(&vals_a));
        let b = TableStats::compute(&table_with(&vals_b));
        assert!(a.drift(&b) > 0.5, "drift = {}", a.drift(&b));
    }

    #[test]
    fn growth_alone_registers() {
        let a = TableStats::compute(&table_with(&[Some(1.0), Some(2.0)]));
        let many: Vec<Option<f64>> = (0..200).map(|i| Some(1.0 + (i % 2) as f64)).collect();
        let b = TableStats::compute(&table_with(&many));
        assert!(a.drift(&b) >= 1.0);
    }

    #[test]
    fn top_values_sorted_by_frequency() {
        let t = table_with(&[
            Some(1.0),
            Some(1.0),
            Some(1.0),
            Some(2.0),
            Some(2.0),
            Some(3.0),
        ]);
        let s = TableStats::compute(&t);
        let top = &s.column("x").unwrap().top_values;
        assert_eq!(top[0], ("1".to_string(), 3));
        assert_eq!(top[1], ("2".to_string(), 2));
    }

    #[test]
    fn reservoir_respects_capacity_and_sees_all() {
        let mut r = Reservoir::new(10, 42);
        for i in 0..1000 {
            r.offer(vec![Value::Int(i)]);
        }
        assert_eq!(r.items().len(), 10);
        assert_eq!(r.seen(), 1000);
    }

    #[test]
    fn reservoir_under_capacity_keeps_everything() {
        let mut r = Reservoir::new(10, 7);
        for i in 0..5 {
            r.offer(vec![Value::Int(i)]);
        }
        assert_eq!(r.items().len(), 5);
    }

    #[test]
    fn reservoir_deterministic_for_seed() {
        let run = |seed| {
            let mut r = Reservoir::new(5, seed);
            for i in 0..100 {
                r.offer(vec![Value::Int(i)]);
            }
            r.into_items()
        };
        assert_eq!(run(1), run(1));
        assert_ne!(run(1), run(2));
    }

    #[test]
    fn index_reservoir_keeps_the_positions_the_row_reservoir_keeps() {
        for seed in [0, 1, 7, 42, 0xC1D2_2009] {
            for (capacity, offered) in [(0, 10), (5, 3), (5, 5), (10, 1000), (64, 5000)] {
                let mut rows = Reservoir::new(capacity, seed);
                let mut indices = Reservoir::new(capacity, seed);
                for i in 0..offered {
                    rows.offer(vec![Value::Int(i as i64)]);
                    indices.offer(i);
                }
                let from_rows: Vec<usize> = rows
                    .into_items()
                    .iter()
                    .map(|r| r[0].as_i64().unwrap() as usize)
                    .collect();
                assert_eq!(
                    from_rows,
                    indices.into_items(),
                    "seed {seed}, {capacity}/{offered}"
                );
            }
        }
    }

    #[test]
    fn degenerate_single_value_histogram() {
        let t = table_with(&[Some(4.0), Some(4.0)]);
        let s = TableStats::compute(&t);
        let c = s.column("x").unwrap();
        assert_eq!(c.histogram[0], 2);
    }

    #[test]
    fn text_columns_have_no_histogram() {
        let mut t = Table::new(TableSchema::build("t", &[("s", DataType::Text)]));
        t.insert(vec!["a".into()]).unwrap();
        let s = TableStats::compute(&t);
        assert!(s.column("s").unwrap().histogram.is_empty());
    }
}
