//! Compressed feature-posting lists with lazy compaction and O(1) clone.
//!
//! The inverted feature index used to hold raw sorted `Vec<u64>` qids and
//! eagerly removed an id from every list the moment its record stopped
//! being live. At millions of records the hot lists (popular tables) make
//! both choices expensive: 8 bytes per posting, and O(list) shifting per
//! maintenance transition per feature.
//!
//! A [`PostingList`] instead:
//!
//! * **seals full segments** — ids arrive dense and ascending, so every
//!   `SEG_LEN` appends the open tail freezes into an immutable,
//!   delta-encoded segment (`u64` head plus `u32` gaps: 4 bytes per
//!   posting, sequential decode) behind an `Arc`;
//! * **clones by pointer** — sealed segments and the open tail are both
//!   `Arc`'d, so `clone()` is two pointer bumps regardless of length and a
//!   published `ReadSnapshot` shares the hot lists with the writer; the
//!   writer's next append re-copies at most the open tail (≤ `SEG_LEN`
//!   ids);
//! * **defers removal** — a record going non-live only bumps the list's
//!   `dead` counter; the stale id stays until the dead fraction of the
//!   list passes the compact-dead fraction (1/4), when the storage rebuilds the
//!   list from currently-live members in one pass. Consumers already
//!   filter candidates by liveness, so stale ids are harmless: the kNN
//!   exactness argument only needs every *live* record outside the
//!   candidate union to be feature-disjoint from the probe, and live
//!   records are always present in their lists.
//!
//! Candidate generation unions the probe's lists through a galloping
//! multi-way merge ([`union_cursors`]): cursors skip whole segments whose
//! max id falls below the merge frontier in O(1), binary-search within
//! plain runs, and decode delta runs forward — no intermediate allocation,
//! no global sort.

use std::sync::Arc;

/// Appends per sealed segment. Also the maximum open-tail length — the
/// copy bound for the first append after a snapshot clone.
const SEG_LEN: usize = 64;

/// Compact a list once more than a quarter of its entries are stale.
const COMPACT_DEAD_FRACTION_DEN: u32 = 4;

/// One immutable run of sorted ids.
#[derive(Debug, Clone, PartialEq)]
enum Seg {
    /// Sorted ids, uncompressed (gap overflowed `u32` — never with the
    /// storage's dense ids).
    Plain(Vec<u64>),
    /// Sorted ids as `first` plus strictly-positive `u32` gaps.
    Delta {
        first: u64,
        last: u64,
        gaps: Vec<u32>,
    },
}

impl Seg {
    fn encode(ids: Vec<u64>) -> Seg {
        debug_assert!(!ids.is_empty());
        let first = ids[0];
        let last = *ids.last().expect("non-empty");
        let mut gaps = Vec::with_capacity(ids.len() - 1);
        for w in ids.windows(2) {
            match u32::try_from(w[1] - w[0]) {
                Ok(g) => gaps.push(g),
                Err(_) => return Seg::Plain(ids),
            }
        }
        Seg::Delta { first, last, gaps }
    }

    fn first(&self) -> u64 {
        match self {
            Seg::Plain(v) => v[0],
            Seg::Delta { first, .. } => *first,
        }
    }

    fn last(&self) -> u64 {
        match self {
            Seg::Plain(v) => *v.last().expect("sealed segments are non-empty"),
            Seg::Delta { last, .. } => *last,
        }
    }

    fn contains(&self, qid: u64) -> bool {
        match self {
            Seg::Plain(v) => v.binary_search(&qid).is_ok(),
            Seg::Delta { first, last, gaps } => {
                if qid < *first || qid > *last {
                    return false;
                }
                let mut cur = *first;
                if cur == qid {
                    return true;
                }
                for &g in gaps {
                    cur += u64::from(g);
                    if cur >= qid {
                        return cur == qid;
                    }
                }
                false
            }
        }
    }

    fn decode_into(&self, out: &mut Vec<u64>) {
        match self {
            Seg::Plain(v) => out.extend_from_slice(v),
            Seg::Delta { first, gaps, .. } => {
                let mut cur = *first;
                out.push(cur);
                for &g in gaps {
                    cur += u64::from(g);
                    out.push(cur);
                }
            }
        }
    }
}

/// One feature's posting list: sorted, deduplicated qids (possibly stale —
/// see the module docs) plus the stale-entry counter. `clone()` is two
/// `Arc` bumps.
#[derive(Debug, Clone, PartialEq)]
pub struct PostingList {
    /// Sealed, immutable segments in ascending id order.
    segs: Arc<Vec<Arc<Seg>>>,
    /// The mutable tail: plain ascending ids, < `SEG_LEN` long.
    open: Arc<Vec<u64>>,
    /// Largest stored id (undefined when empty).
    last: u64,
    /// Entries in the list (stale included).
    len: usize,
    /// Entries whose record is currently non-live.
    dead: u32,
}

impl Default for PostingList {
    fn default() -> Self {
        PostingList {
            segs: Arc::new(Vec::new()),
            open: Arc::new(Vec::new()),
            last: 0,
            len: 0,
            dead: 0,
        }
    }
}

impl PostingList {
    /// Entries in the list (stale included).
    pub fn len(&self) -> usize {
        self.len
    }

    /// Is the list empty?
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Number of entries currently known stale.
    pub fn dead(&self) -> u32 {
        self.dead
    }

    /// Append `qid`, which must exceed every stored id (the storage
    /// assigns dense ascending ids at insert).
    pub fn append(&mut self, qid: u64) {
        debug_assert!(self.is_empty() || qid > self.last);
        let open = cqms_cow::unshared_with_room(&mut self.open, SEG_LEN);
        open.push(qid);
        self.last = qid;
        self.len += 1;
        if open.len() >= SEG_LEN {
            let full = std::mem::take(open);
            Arc::make_mut(&mut self.segs).push(Arc::new(Seg::encode(full)));
        }
    }

    /// Insert `qid` at its sorted position. Returns `false` when already
    /// present. Mid-list inserts decode and re-encode the whole list —
    /// only maintenance revival paths take this route.
    pub fn insert(&mut self, qid: u64) -> bool {
        if self.is_empty() || qid > self.last {
            self.append(qid);
            return true;
        }
        let mut ids = self.ids();
        match ids.binary_search(&qid) {
            Ok(_) => false,
            Err(pos) => {
                ids.insert(pos, qid);
                self.restore(ids);
                true
            }
        }
    }

    /// Remove `qid` if present (reindex path — the record's feature set
    /// changed, so staleness bookkeeping does not apply).
    pub fn remove(&mut self, qid: u64) -> bool {
        if self.is_empty() || !self.contains(qid) {
            return false;
        }
        let mut ids = self.ids();
        let pos = ids.binary_search(&qid).expect("presence just checked");
        ids.remove(pos);
        self.restore(ids);
        true
    }

    /// Does the list contain `qid` (stale entries included)?
    pub fn contains(&self, qid: u64) -> bool {
        if self.is_empty() || qid > self.last {
            return false;
        }
        if self.open.first().is_some_and(|&f| qid >= f) {
            return self.open.binary_search(&qid).is_ok();
        }
        // Segments are disjoint ascending runs: binary-search for the one
        // whose range covers `qid`.
        let idx = self.segs.partition_point(|s| s.last() < qid);
        self.segs.get(idx).is_some_and(|s| s.contains(qid))
    }

    /// Mark one present entry stale (its record went non-live).
    pub fn mark_dead(&mut self) {
        self.dead += 1;
    }

    /// A stale entry's record came back to life (maintenance repair).
    pub fn mark_alive(&mut self) {
        self.dead = self.dead.saturating_sub(1);
    }

    /// Should the storage compact this list now?
    pub fn needs_compaction(&self) -> bool {
        u64::from(self.dead) * u64::from(COMPACT_DEAD_FRACTION_DEN) > self.len as u64
    }

    /// Rebuild keeping only ids satisfying `keep`; resets the stale count.
    pub fn retain(&mut self, keep: impl Fn(u64) -> bool) {
        let ids: Vec<u64> = self.iter().filter(|&q| keep(q)).collect();
        self.restore(ids);
        self.dead = 0;
    }

    /// Decoded ids (stale included), sorted.
    pub fn ids(&self) -> Vec<u64> {
        let mut out = Vec::with_capacity(self.len);
        for seg in self.segs.iter() {
            seg.decode_into(&mut out);
        }
        out.extend_from_slice(&self.open);
        out
    }

    /// Iterate the ids in sorted order (stale included).
    pub fn iter(&self) -> impl Iterator<Item = u64> + '_ {
        let mut buf = Vec::new();
        let mut seg_idx = 0usize;
        let mut buf_pos = 0usize;
        let mut open_pos = 0usize;
        std::iter::from_fn(move || loop {
            if buf_pos < buf.len() {
                let v = buf[buf_pos];
                buf_pos += 1;
                return Some(v);
            }
            if seg_idx < self.segs.len() {
                buf.clear();
                self.segs[seg_idx].decode_into(&mut buf);
                seg_idx += 1;
                buf_pos = 0;
                continue;
            }
            let v = self.open.get(open_pos).copied();
            open_pos += 1;
            return v;
        })
    }

    /// A merge cursor positioned at the first id.
    pub fn cursor(&self) -> PostingCursor<'_> {
        let mut c = PostingCursor {
            list: self,
            seg_idx: 0,
            pos: 0,
            cur: None,
        };
        c.enter_run();
        c
    }

    /// Rebuild the segments from a full sorted id list.
    fn restore(&mut self, ids: Vec<u64>) {
        self.last = ids.last().copied().unwrap_or(0);
        self.len = ids.len();
        let mut segs: Vec<Arc<Seg>> = Vec::with_capacity(ids.len() / SEG_LEN);
        let mut it = ids.chunks_exact(SEG_LEN);
        for chunk in &mut it {
            segs.push(Arc::new(Seg::encode(chunk.to_vec())));
        }
        self.open = Arc::new(it.remainder().to_vec());
        self.segs = Arc::new(segs);
    }
}

/// One input to the multi-way union merge. Tracks a position inside one
/// run (a sealed segment or the open tail) and skips whole segments whose
/// max id falls below the merge frontier in O(1).
pub struct PostingCursor<'a> {
    list: &'a PostingList,
    /// Current run: `list.segs.len()` means the open tail.
    seg_idx: usize,
    /// For a plain run / open tail: index of the next id. For a delta
    /// run: number of gaps consumed.
    pos: usize,
    /// The decoded value the cursor currently sits on.
    cur: Option<u64>,
}

impl PostingCursor<'_> {
    fn current(&self) -> Option<u64> {
        self.cur
    }

    /// Position on the first id of the current run, advancing over empty
    /// runs (only the open tail can be empty).
    fn enter_run(&mut self) {
        self.pos = 0;
        self.cur = if self.seg_idx < self.list.segs.len() {
            Some(self.list.segs[self.seg_idx].first())
        } else {
            self.list.open.first().copied()
        };
    }

    /// Advance past every id ≤ `v`: skip whole segments by their max id,
    /// binary-search within plain runs, decode delta runs forward.
    fn advance_past(&mut self, v: u64) {
        while let Some(c) = self.cur {
            if c > v {
                return;
            }
            if self.seg_idx < self.list.segs.len() {
                let seg = &self.list.segs[self.seg_idx];
                if seg.last() <= v {
                    self.seg_idx += 1;
                    self.enter_run();
                    continue;
                }
                match seg.as_ref() {
                    Seg::Plain(ids) => {
                        self.pos += ids[self.pos..].partition_point(|&x| x <= v);
                        self.cur = ids.get(self.pos).copied();
                    }
                    Seg::Delta { gaps, .. } => {
                        while let Some(cc) = self.cur {
                            if cc > v {
                                break;
                            }
                            self.cur = gaps.get(self.pos).map(|&g| cc + u64::from(g));
                            self.pos += 1;
                        }
                    }
                }
            } else {
                let ids: &[u64] = &self.list.open;
                self.pos += ids[self.pos..].partition_point(|&x| x <= v);
                self.cur = ids.get(self.pos).copied();
            }
        }
    }
}

/// Sorted, deduplicated union of all cursor streams — the kNN candidate
/// set. Each round emits the minimum current id and gallops every cursor
/// past it, so shared runs cost one comparison per cursor, not one per
/// element.
pub fn union_cursors(mut cursors: Vec<PostingCursor<'_>>) -> Vec<u64> {
    let mut out = Vec::new();
    cursors.retain(|c| c.current().is_some());
    while !cursors.is_empty() {
        let min = cursors
            .iter()
            .filter_map(PostingCursor::current)
            .min()
            .expect("non-empty cursors");
        out.push(min);
        cursors.retain_mut(|c| {
            c.advance_past(min);
            c.current().is_some()
        });
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn list_of(ids: &[u64]) -> PostingList {
        let mut l = PostingList::default();
        for &q in ids {
            l.append(q);
        }
        l
    }

    #[test]
    fn append_roundtrips_across_encodings() {
        // Short stays in the open tail; long seals delta segments; both
        // decode identically.
        let short: Vec<u64> = (0..10).map(|i| i * 3).collect();
        assert_eq!(list_of(&short).ids(), short);
        let long: Vec<u64> = (0..500).map(|i| i * 7 + 1).collect();
        let l = list_of(&long);
        assert!(!l.segs.is_empty());
        assert!(l
            .segs
            .iter()
            .all(|s| matches!(s.as_ref(), Seg::Delta { .. })));
        assert_eq!(l.ids(), long);
        assert_eq!(l.len(), 500);
        for &q in &long {
            assert!(l.contains(q));
        }
        assert!(!l.contains(2));
        assert!(!l.contains(9999));
        assert_eq!(l.iter().collect::<Vec<u64>>(), long);
    }

    #[test]
    fn insert_and_remove_anywhere() {
        let mut l = list_of(&(0..200).map(|i| i * 2).collect::<Vec<u64>>());
        assert!(l.insert(101)); // mid-list, odd
        assert!(!l.insert(101)); // duplicate
        assert!(l.contains(101));
        assert!(l.remove(101));
        assert!(!l.remove(101));
        assert_eq!(l.len(), 200);
        assert_eq!(l.ids(), (0..200).map(|i| i * 2).collect::<Vec<u64>>());
    }

    #[test]
    fn compaction_trigger_and_retain() {
        let mut l = list_of(&(0..100).collect::<Vec<u64>>());
        for _ in 0..20 {
            l.mark_dead();
        }
        assert!(!l.needs_compaction()); // 20/100 ≤ 25%
        for _ in 0..6 {
            l.mark_dead();
        }
        assert!(l.needs_compaction()); // 26/100 > 25%
        l.retain(|q| q % 4 != 0);
        assert_eq!(l.dead(), 0);
        assert_eq!(l.len(), 75);
        assert!(!l.contains(8));
        assert!(l.contains(9));
    }

    #[test]
    fn union_matches_naive_merge() {
        let a = list_of(&(0..300).map(|i| i * 2).collect::<Vec<u64>>());
        let b = list_of(&(0..300).map(|i| i * 3).collect::<Vec<u64>>());
        let c = list_of(&[5, 7, 600, 601]);
        let empty = PostingList::default();
        let got = union_cursors(vec![a.cursor(), b.cursor(), c.cursor(), empty.cursor()]);
        let mut want: Vec<u64> = a.ids();
        want.extend(b.ids());
        want.extend(c.ids());
        want.sort_unstable();
        want.dedup();
        assert_eq!(got, want);
        assert!(union_cursors(Vec::new()).is_empty());
    }

    #[test]
    fn clone_shares_sealed_segments() {
        let mut l = list_of(&(0..300).collect::<Vec<u64>>());
        let snap = l.clone();
        l.append(1000);
        assert_eq!(snap.len(), 300);
        assert_eq!(l.len(), 301);
        assert!(!snap.contains(1000));
        assert!(l.contains(1000));
        assert!(Arc::ptr_eq(&l.segs, &snap.segs));
        assert_eq!(snap.ids(), (0..300).collect::<Vec<u64>>());
    }

    #[test]
    fn cursor_crosses_segment_boundaries() {
        // Ids straddling several sealed segments plus a short open tail.
        let ids: Vec<u64> = (0..(SEG_LEN as u64 * 3 + 10)).map(|i| i * 5).collect();
        let l = list_of(&ids);
        assert_eq!(union_cursors(vec![l.cursor()]), ids);
        // A sparse partner forces long advances that skip whole segments.
        let sparse = list_of(&[3, 750, 751, ids[ids.len() - 1] + 5]);
        let got = union_cursors(vec![l.cursor(), sparse.cursor()]);
        let mut want = ids.clone();
        want.extend(sparse.ids());
        want.sort_unstable();
        want.dedup();
        assert_eq!(got, want);
    }
}
