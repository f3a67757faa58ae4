//! Labeled ordered trees and exact tree edit distance (Zhang–Shasha).
//!
//! §4.3 of the CQMS paper proposes "parse tree similarity, perhaps after
//! removing the constants from the tree" as a query distance; this module
//! is that metric's kernel. It is on the hot path: the Query Storage's
//! VP-tree pays one distance per pivot on every insert — a live ingest, a
//! replayed WAL frame, a loaded snapshot record — and a TreeEdit kNN read
//! pays one per pivot and per surviving leaf entry.
//!
//! So a tree is flattened **once** into a [`FlatTree`] (postorder labels
//! as caller-interned `u32` ids, leftmost-leaf indices, keyroots found in
//! one reverse pass), and [`ted`] — the only Zhang–Shasha DP — runs over
//! two flat `u32` tables allocated once per call, with relabel cost a
//! `u32` inequality. [`tree_edit_distance`] and
//! [`normalized_tree_distance`] over [`TreeNode`]s are the convenience
//! form: they flatten both trees against one local label map.

use crate::ast::*;
use crate::fingerprint::fnv1a;
use crate::printer::expr_to_sql;
use std::collections::HashMap;

/// A labeled ordered tree.
#[derive(Debug, Clone, PartialEq)]
pub struct TreeNode {
    /// Node label (compared for relabel cost).
    pub label: String,
    /// Ordered children.
    pub children: Vec<TreeNode>,
}

impl TreeNode {
    /// A node with no children.
    pub fn leaf(label: impl Into<String>) -> TreeNode {
        TreeNode {
            label: label.into(),
            children: Vec::new(),
        }
    }

    /// An internal node.
    pub fn node(label: impl Into<String>, children: Vec<TreeNode>) -> TreeNode {
        TreeNode {
            label: label.into(),
            children,
        }
    }

    /// Number of nodes.
    pub fn size(&self) -> usize {
        1 + self.children.iter().map(TreeNode::size).sum::<usize>()
    }
}

/// Convert a statement into its labeled tree (identifiers lower-cased;
/// constants kept — strip first with [`crate::canon::strip_constants`] for
/// template-level comparison).
pub fn statement_tree(stmt: &Statement) -> TreeNode {
    match stmt {
        Statement::Select(s) => select_tree(s),
        other => TreeNode::leaf(format!("{other:?}")),
    }
}

/// Convert a SELECT into its labeled tree.
pub fn select_tree(s: &SelectStatement) -> TreeNode {
    let mut children = Vec::new();
    if s.distinct {
        children.push(TreeNode::leaf("distinct"));
    }
    let proj_children: Vec<TreeNode> = s
        .projection
        .iter()
        .map(|item| match item {
            SelectItem::Wildcard => TreeNode::leaf("*"),
            SelectItem::QualifiedWildcard(q) => TreeNode::leaf(format!("{}.​*", q.to_lowercase())),
            SelectItem::Expr { expr, .. } => expr_tree(expr),
        })
        .collect();
    children.push(TreeNode::node("projection", proj_children));

    let mut from_children = Vec::new();
    for t in &s.from {
        from_children.push(TreeNode::leaf(t.name.to_lowercase()));
        for j in &t.joins {
            let mut jc = vec![TreeNode::leaf(j.table.to_lowercase())];
            if let Some(on) = &j.on {
                jc.push(expr_tree(on));
            }
            from_children.push(TreeNode::node(format!("{}", j.kind), jc));
        }
    }
    children.push(TreeNode::node("from", from_children));

    if let Some(w) = &s.where_clause {
        children.push(TreeNode::node("where", vec![expr_tree(w)]));
    }
    if !s.group_by.is_empty() {
        children.push(TreeNode::node(
            "group_by",
            s.group_by.iter().map(expr_tree).collect(),
        ));
    }
    if let Some(h) = &s.having {
        children.push(TreeNode::node("having", vec![expr_tree(h)]));
    }
    if !s.order_by.is_empty() {
        children.push(TreeNode::node(
            "order_by",
            s.order_by
                .iter()
                .map(|o| {
                    let label = if o.desc { "desc" } else { "asc" };
                    TreeNode::node(label, vec![expr_tree(&o.expr)])
                })
                .collect(),
        ));
    }
    if let Some(l) = s.limit {
        children.push(TreeNode::leaf(format!("limit:{l}")));
    }
    TreeNode::node("select", children)
}

fn expr_tree(e: &Expr) -> TreeNode {
    match e {
        Expr::Column(c) => TreeNode::leaf(format!("col:{}", c.to_string().to_lowercase())),
        Expr::Literal(l) => TreeNode::leaf(format!("lit:{l:?}")),
        Expr::Unary { op, expr } => TreeNode::node(op.as_str(), vec![expr_tree(expr)]),
        Expr::Binary { left, op, right } => {
            TreeNode::node(op.as_str(), vec![expr_tree(left), expr_tree(right)])
        }
        Expr::Function { name, args, .. } => TreeNode::node(
            format!("fn:{}", name.to_lowercase()),
            args.iter().map(expr_tree).collect(),
        ),
        Expr::InList {
            expr,
            list,
            negated,
        } => {
            let mut c = vec![expr_tree(expr)];
            c.extend(list.iter().map(expr_tree));
            TreeNode::node(if *negated { "not_in" } else { "in" }, c)
        }
        Expr::InSubquery {
            expr,
            subquery,
            negated,
        } => TreeNode::node(
            if *negated { "not_in_sub" } else { "in_sub" },
            vec![expr_tree(expr), select_tree(subquery)],
        ),
        Expr::Between {
            expr,
            low,
            high,
            negated,
        } => TreeNode::node(
            if *negated { "not_between" } else { "between" },
            vec![expr_tree(expr), expr_tree(low), expr_tree(high)],
        ),
        Expr::Like {
            expr,
            pattern,
            negated,
        } => TreeNode::node(
            if *negated { "not_like" } else { "like" },
            vec![expr_tree(expr), expr_tree(pattern)],
        ),
        Expr::IsNull { expr, negated } => TreeNode::node(
            if *negated { "is_not_null" } else { "is_null" },
            vec![expr_tree(expr)],
        ),
        Expr::Exists { subquery, negated } => TreeNode::node(
            if *negated { "not_exists" } else { "exists" },
            vec![select_tree(subquery)],
        ),
        Expr::ScalarSubquery(sub) => TreeNode::node("scalar_sub", vec![select_tree(sub)]),
        Expr::Case { .. } => TreeNode::leaf(format!("case:{}", expr_to_sql(e).to_lowercase())),
    }
}

/// A tree flattened for [`ted`]: postorder node labels (as `u32` ids from
/// the caller's label map, so two trees are comparable only when they
/// were flattened against the same map), each node's leftmost-leaf
/// postorder index, and the keyroots in ascending order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FlatTree {
    labels: Vec<u32>,
    leftmost: Vec<u32>,
    keyroots: Vec<u32>,
}

impl FlatTree {
    /// Flatten `root`, mapping every node label to its id through
    /// `label_id`.
    pub fn of(root: &TreeNode, label_id: &mut dyn FnMut(&str) -> u32) -> FlatTree {
        /// Append `node`'s subtree in postorder; returns its leftmost leaf.
        fn push(node: &TreeNode, label_id: &mut dyn FnMut(&str) -> u32, t: &mut FlatTree) -> u32 {
            let mut first_leaf = None;
            for child in &node.children {
                let leaf = push(child, label_id, t);
                first_leaf.get_or_insert(leaf);
            }
            let leaf = first_leaf.unwrap_or(t.labels.len() as u32);
            t.labels.push(label_id(&node.label));
            t.leftmost.push(leaf);
            leaf
        }
        let n = root.size();
        let mut t = FlatTree {
            labels: Vec::with_capacity(n),
            leftmost: Vec::with_capacity(n),
            keyroots: Vec::new(),
        };
        push(root, label_id, &mut t);
        // A keyroot is a node no later node shares its leftmost leaf with:
        // walking backwards, the first node seen per leftmost leaf.
        let mut claimed = vec![false; n];
        for i in (0..n).rev() {
            let leaf = t.leftmost[i] as usize;
            if !claimed[leaf] {
                claimed[leaf] = true;
                t.keyroots.push(i as u32);
            }
        }
        t.keyroots.reverse();
        t
    }

    /// Number of nodes (the normaliser of [`normalized_ted`]).
    #[allow(clippy::len_without_is_empty)] // a flattened tree always has its root
    pub fn len(&self) -> usize {
        self.labels.len()
    }
}

/// Exact ordered tree edit distance (Zhang & Shasha 1989) with unit costs
/// for insert, delete and relabel, over two trees flattened against the
/// same label map.
pub fn ted(a: &FlatTree, b: &FlatTree) -> usize {
    let (na, nb) = (a.len(), b.len());
    // td[i * nb + j]: distance between the subtrees rooted at postorder i
    // of a and j of b.
    let mut td = vec![0u32; na * nb];
    // Forest distances of one keyroot pair, row stride nb + 1; every pair
    // reuses it.
    let mut fd = vec![0u32; (na + 1) * (nb + 1)];
    for &i in &a.keyroots {
        for &j in &b.keyroots {
            forest_dist(a, b, i as usize, j as usize, &mut td, &mut fd);
        }
    }
    td[na * nb - 1] as usize
}

/// Fill `fd` for the keyroot pair `(i, j)`, recording every whole-subtree
/// distance it meets into `td`.
fn forest_dist(a: &FlatTree, b: &FlatTree, i: usize, j: usize, td: &mut [u32], fd: &mut [u32]) {
    let nb = b.len();
    let stride = nb + 1;
    let (li, lj) = (a.leftmost[i] as usize, b.leftmost[j] as usize);
    let (m, n) = (i - li + 2, j - lj + 2);
    for x in 0..m {
        fd[x * stride] = x as u32; // delete
    }
    for (y, cell) in fd[..n].iter_mut().enumerate() {
        *cell = y as u32; // insert
    }
    for x in 1..m {
        let ai = li + x - 1;
        let la = a.leftmost[ai] as usize;
        let label = a.labels[ai];
        let (prev, row, td_row) = ((x - 1) * stride, x * stride, ai * nb);
        for y in 1..n {
            let bj = lj + y - 1;
            let lb = b.leftmost[bj] as usize;
            let edit = (fd[prev + y] + 1).min(fd[row + y - 1] + 1);
            fd[row + y] = if la == li && lb == lj {
                // Both forests are whole trees.
                let d = edit.min(fd[prev + y - 1] + u32::from(label != b.labels[bj]));
                td[td_row + bj] = d;
                d
            } else {
                edit.min(fd[(la - li) * stride + (lb - lj)] + td[td_row + bj])
            };
        }
    }
}

/// [`ted`] normalised into [0, 1] by the larger tree size.
pub fn normalized_ted(a: &FlatTree, b: &FlatTree) -> f64 {
    normalized_from_ted(ted(a, b), a.len(), b.len())
}

/// Flatten two trees against one local label map.
fn flatten_pair(a: &TreeNode, b: &TreeNode) -> (FlatTree, FlatTree) {
    let mut ids: HashMap<String, u32> = HashMap::new();
    let mut label_id = |label: &str| match ids.get(label) {
        Some(&id) => id,
        None => {
            let id = ids.len() as u32;
            ids.insert(label.to_owned(), id);
            id
        }
    };
    (
        FlatTree::of(a, &mut label_id),
        FlatTree::of(b, &mut label_id),
    )
}

/// [`ted`] over two [`TreeNode`]s.
pub fn tree_edit_distance(a: &TreeNode, b: &TreeNode) -> usize {
    let (fa, fb) = flatten_pair(a, b);
    ted(&fa, &fb)
}

/// Normalised tree edit distance in [0, 1]: TED / max(size).
pub fn normalized_tree_distance(a: &TreeNode, b: &TreeNode) -> f64 {
    let (fa, fb) = flatten_pair(a, b);
    normalized_ted(&fa, &fb)
}

/// Normalise a (possibly lower-bounded) edit count by the larger tree size —
/// the single source of truth for the [0, 1] mapping, shared by
/// [`normalized_tree_distance`], [`normalized_tree_lower_bound`] and the
/// metric index (which must reproduce the exact same floats).
pub fn normalized_from_ted(ted: usize, size_a: usize, size_b: usize) -> f64 {
    let m = size_a.max(size_b) as f64;
    if m == 0.0 {
        0.0
    } else {
        (ted as f64 / m).min(1.0)
    }
}

/// Size + node-label histogram of a tree: the O(|labels|) screen that
/// rejects a pair before the O(tree²) Zhang–Shasha DP runs.
#[derive(Debug, Clone, PartialEq)]
pub struct TreeShape {
    /// Node count of the tree.
    pub size: u32,
    /// `(label hash, occurrence count)`, sorted by hash.
    pub labels: Vec<(u64, u32)>,
}

impl TreeShape {
    /// Build the shape of `root` (one traversal, labels FNV-hashed).
    pub fn of(root: &TreeNode) -> TreeShape {
        fn rec(node: &TreeNode, hist: &mut std::collections::HashMap<u64, u32>, size: &mut u32) {
            *size += 1;
            *hist.entry(fnv1a(node.label.as_bytes())).or_insert(0) += 1;
            for c in &node.children {
                rec(c, hist, size);
            }
        }
        let mut hist = std::collections::HashMap::new();
        let mut size = 0u32;
        rec(root, &mut hist, &mut size);
        let mut labels: Vec<(u64, u32)> = hist.into_iter().collect();
        labels.sort_unstable();
        TreeShape { size, labels }
    }
}

/// Lower bound on [`tree_edit_distance`] from two [`TreeShape`]s:
///
/// ```text
/// TED(a, b) ≥ max(|a|, |b|) − Σ_label min(count_a, count_b)
/// ```
///
/// Any edit script keeps some set of nodes unchanged (not inserted, deleted
/// or relabelled); unchanged nodes carry equal labels on both sides, so at
/// most `M = Σ_label min(count_a, count_b)` nodes survive. With `R` relabels,
/// the script deletes `|a| − M − R` nodes and inserts `|b| − M − R`, hence
/// `TED = |a| + |b| − 2M − R ≥ max(|a|, |b|) − M` (using `R ≤ min − M`).
/// This subsumes the pure size bound `TED ≥ ||a| − |b||` since `M ≤ min`.
/// Equivalent to `(||a|−|b|| + L1(hist_a, hist_b)) / 2`.
pub fn tree_edit_lower_bound(a: &TreeShape, b: &TreeShape) -> usize {
    let mut shared: u64 = 0;
    let (mut i, mut j) = (0, 0);
    while i < a.labels.len() && j < b.labels.len() {
        match a.labels[i].0.cmp(&b.labels[j].0) {
            std::cmp::Ordering::Less => i += 1,
            std::cmp::Ordering::Greater => j += 1,
            std::cmp::Ordering::Equal => {
                shared += u64::from(a.labels[i].1.min(b.labels[j].1));
                i += 1;
                j += 1;
            }
        }
    }
    (u64::from(a.size.max(b.size)) - shared) as usize
}

/// Lower bound on [`normalized_tree_distance`] from two [`TreeShape`]s.
pub fn normalized_tree_lower_bound(a: &TreeShape, b: &TreeShape) -> f64 {
    normalized_from_ted(
        tree_edit_lower_bound(a, b),
        a.size as usize,
        b.size as usize,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_statement;

    fn tree(sql: &str) -> TreeNode {
        statement_tree(&parse_statement(sql).unwrap())
    }

    #[test]
    fn identical_trees_distance_zero() {
        let a = tree("SELECT * FROM t WHERE x < 1");
        assert_eq!(tree_edit_distance(&a, &a), 0);
        assert_eq!(normalized_tree_distance(&a, &a), 0.0);
    }

    #[test]
    fn known_small_distances() {
        // Single relabel: constant changed.
        let a = tree("SELECT * FROM t WHERE x < 1");
        let b = tree("SELECT * FROM t WHERE x < 2");
        assert_eq!(tree_edit_distance(&a, &b), 1);
        // Single insertion: extra projection column.
        let a = tree("SELECT a FROM t");
        let b = tree("SELECT a, b FROM t");
        assert_eq!(tree_edit_distance(&a, &b), 1);
        // Added conjunct: AND node + comparison + column + literal = 4.
        let a = tree("SELECT * FROM t WHERE x < 1");
        let b = tree("SELECT * FROM t WHERE x < 1 AND y > 2");
        assert_eq!(tree_edit_distance(&a, &b), 4);
    }

    #[test]
    fn symmetric() {
        let a = tree("SELECT a, b FROM t, u WHERE t.x = u.y AND a < 5");
        let b = tree("SELECT a FROM t WHERE a < 9 ORDER BY a");
        assert_eq!(tree_edit_distance(&a, &b), tree_edit_distance(&b, &a));
    }

    #[test]
    fn triangle_inequality_spot_checks() {
        let qs = [
            "SELECT * FROM t",
            "SELECT * FROM t WHERE x < 1",
            "SELECT a FROM t, u WHERE x < 1",
            "SELECT a, COUNT(*) FROM t GROUP BY a",
        ];
        for x in &qs {
            for y in &qs {
                for z in &qs {
                    let dxy = tree_edit_distance(&tree(x), &tree(y));
                    let dyz = tree_edit_distance(&tree(y), &tree(z));
                    let dxz = tree_edit_distance(&tree(x), &tree(z));
                    assert!(dxz <= dxy + dyz, "{x} {y} {z}");
                }
            }
        }
    }

    #[test]
    fn distance_scales_with_difference() {
        let base = tree("SELECT * FROM WaterTemp WHERE temp < 18");
        let close = tree("SELECT * FROM WaterTemp WHERE temp < 22");
        let far =
            tree("SELECT city, COUNT(*) FROM CityLocations GROUP BY city HAVING COUNT(*) > 2");
        assert!(tree_edit_distance(&base, &close) < tree_edit_distance(&base, &far));
    }

    #[test]
    fn normalized_bounds() {
        let a = tree("SELECT * FROM a");
        let b = tree("SELECT x, y, z FROM b, c, d WHERE x = 1 AND y = 2 ORDER BY z LIMIT 3");
        let d = normalized_tree_distance(&a, &b);
        assert!(d > 0.0 && d <= 1.0);
    }

    #[test]
    fn subquery_trees() {
        let a = tree("SELECT * FROM t WHERE x IN (SELECT y FROM u)");
        let b = tree("SELECT * FROM t WHERE x IN (SELECT y FROM v)");
        assert_eq!(tree_edit_distance(&a, &b), 1);
    }

    #[test]
    fn shape_counts_labels() {
        let t = tree("SELECT a, a FROM t");
        let shape = TreeShape::of(&t);
        assert_eq!(shape.size as usize, t.size());
        assert!(shape.labels.windows(2).all(|w| w[0].0 < w[1].0));
        let total: u32 = shape.labels.iter().map(|(_, c)| c).sum();
        assert_eq!(total, shape.size);
        // The duplicated projection column appears with count 2.
        assert!(shape.labels.iter().any(|&(_, c)| c == 2));
    }

    #[test]
    fn shape_bound_never_exceeds_zhang_shasha() {
        // A diverse pool covering relabels, insertions, subqueries,
        // aggregates and disjoint structures.
        let pool = [
            "SELECT * FROM t",
            "SELECT * FROM t WHERE x < 1",
            "SELECT * FROM t WHERE x < 2",
            "SELECT a FROM t",
            "SELECT a, b FROM t",
            "SELECT a, b FROM t, u WHERE t.x = u.y AND a < 5",
            "SELECT a FROM t WHERE a < 9 ORDER BY a",
            "SELECT city, COUNT(*) FROM CityLocations GROUP BY city HAVING COUNT(*) > 2",
            "SELECT * FROM t WHERE x IN (SELECT y FROM u)",
            "SELECT DISTINCT lake FROM WaterTemp WHERE temp < 18 LIMIT 5",
            "SELECT x, y, z FROM b, c, d WHERE x = 1 AND y = 2 ORDER BY z LIMIT 3",
        ];
        let trees: Vec<TreeNode> = pool.iter().map(|q| tree(q)).collect();
        let shapes: Vec<TreeShape> = trees.iter().map(TreeShape::of).collect();
        for i in 0..trees.len() {
            for j in 0..trees.len() {
                let true_ted = tree_edit_distance(&trees[i], &trees[j]);
                let lb = tree_edit_lower_bound(&shapes[i], &shapes[j]);
                assert!(
                    lb <= true_ted,
                    "pool pair ({i}, {j}): bound {lb} > TED {true_ted}"
                );
                let nd = normalized_tree_distance(&trees[i], &trees[j]);
                let nlb = normalized_tree_lower_bound(&shapes[i], &shapes[j]);
                assert!(nlb <= nd, "pool pair ({i}, {j}): {nlb} > {nd}");
                if i == j {
                    assert_eq!(lb, 0);
                }
            }
        }
        // The bound is non-trivial: identical shapes give 0, disjoint
        // label sets give the full larger size.
        let a = TreeShape::of(&trees[0]);
        let far = TreeShape {
            size: 7,
            labels: vec![(1, 3), (2, 4)],
        };
        assert_eq!(tree_edit_lower_bound(&a, &far), (a.size.max(7)) as usize);
    }
}
