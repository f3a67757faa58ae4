//! Copy-on-write snapshot collections.
//!
//! The CQMS read path serves every request from an immutable
//! `ReadSnapshot` cloned out of the write path in O(pointer) time. That
//! only works if the underlying containers are **cheap to clone and cheap
//! to keep mutating after a clone**: a snapshot must be one `Arc` bump per
//! shared run of data, and the writer's next mutation must pay at most a
//! small, bounded copy — never O(store).
//!
//! Three sharing shapes cover everything the storage owns:
//!
//! * [`SnapshotVec<T>`] — a chunked vector (`Vec<Arc<Vec<T>>>`). Cloning
//!   copies one `Arc` per chunk; mutating copies one chunk (at most
//!   [`CHUNK`] elements) the first time it diverges from a snapshot.
//!   Used for dense, id-indexed state: records, signatures, per-document
//!   and per-feature slots, VP-tree entries.
//! * [`CowMap<K, V>`] / [`CowSet<T>`] — a persistent 32-way hash trie of
//!   `Arc` nodes with small leaf buckets. Cloning is one `Arc` bump; the
//!   first mutation of a key after a clone copies that key's root-to-leaf
//!   path (O(log₃₂ n) pointer tables) and its bucket, nothing else. Used
//!   where keys are really hashed: terms, trigrams, interned strings,
//!   template fingerprints, session ids.
//! * [`SegVec<T>`] — an append-only list of sealed segments
//!   (`Arc<Vec<Arc<Vec<T>>>>`) plus an `Arc`'d open tail. Cloning is two
//!   `Arc` bumps regardless of length; an append after a clone re-copies
//!   only the open tail (at most one segment). Used for posting lists,
//!   group member lists and VP-tree leaf buckets, where a hot entry keeps
//!   growing for the lifetime of the store.
//!
//! None of them has a sealing step or a delta head: what a clone shares
//! and what the next mutation copies are fixed by the shapes above, and a
//! mutation of an unshared container copies nothing (`Arc::make_mut` on a
//! uniquely-owned node is a refcount check).
//!
//! All three preserve ordering semantics exactly (`SnapshotVec` and
//! `SegVec` are positional; `CowMap` iteration is order-free like the
//! `HashMap` it replaces), so index code swapping them in produces
//! bit-identical results.

use std::borrow::Borrow;
use std::collections::hash_map::RandomState;
use std::hash::{BuildHasher, Hash};
use std::sync::Arc;

/// Default elements per [`SnapshotVec`] chunk. Small enough that the first
/// mutation of a chunk after a snapshot copies little; large enough that
/// cloning a million-element vector is ~4k pointer bumps.
pub const CHUNK: usize = 256;

/// A chunked copy-on-write vector.
///
/// Positional semantics are identical to `Vec<T>`; the difference is the
/// cost model. `clone()` is O(len / N) `Arc` bumps. `get_mut` / `push`
/// detach (copy) at most one chunk of `N` elements when it is shared with
/// a snapshot. The default `N` suits a log that grows without bound and is
/// mutated at its end; a short vector whose writes land anywhere (one slot
/// per interned feature, say) wants a smaller one, or every write copies
/// most of it.
#[derive(Debug)]
pub struct SnapshotVec<T, const N: usize = CHUNK> {
    chunks: Vec<Arc<Vec<T>>>,
    len: usize,
}

impl<T, const N: usize> Default for SnapshotVec<T, N> {
    fn default() -> Self {
        SnapshotVec {
            chunks: Vec::new(),
            len: 0,
        }
    }
}

impl<T, const N: usize> Clone for SnapshotVec<T, N> {
    fn clone(&self) -> Self {
        SnapshotVec {
            chunks: self.chunks.clone(),
            len: self.len,
        }
    }
}

impl<T: Clone, const N: usize> SnapshotVec<T, N> {
    /// An empty vector.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of elements.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Is the vector empty?
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Number of chunks — the `Arc` bumps a `clone()` costs.
    pub fn chunk_count(&self) -> usize {
        self.chunks.len()
    }

    /// Append an element.
    pub fn push(&mut self, value: T) {
        if self.len.is_multiple_of(N) {
            self.chunks.push(Arc::new(Vec::with_capacity(N)));
        }
        let chunk = self.chunks.last_mut().expect("chunk just ensured");
        unshared_with_room(chunk, N).push(value);
        self.len += 1;
    }

    /// Shared reference to the element at `index`.
    pub fn get(&self, index: usize) -> Option<&T> {
        if index >= self.len {
            return None;
        }
        self.chunks[index / N].get(index % N)
    }

    /// Mutable reference to the element at `index`, detaching its chunk
    /// from any snapshot sharing it.
    pub fn get_mut(&mut self, index: usize) -> Option<&mut T> {
        if index >= self.len {
            return None;
        }
        unshared_with_room(&mut self.chunks[index / N], N).get_mut(index % N)
    }

    /// Mutable reference to the slot at `index`, growing the vector with
    /// `T::default()` up to it first — for vectors used as maps from dense
    /// ids (memory is O(largest id), so only for ids the owner assigns).
    pub fn entry_or_default(&mut self, index: usize) -> &mut T
    where
        T: Default,
    {
        while self.len <= index {
            self.push(T::default());
        }
        self.get_mut(index).expect("grown to cover index")
    }

    /// The last element, if any.
    pub fn last(&self) -> Option<&T> {
        self.len.checked_sub(1).and_then(|i| self.get(i))
    }

    /// Iterate the elements in order.
    pub fn iter(&self) -> impl Iterator<Item = &T> {
        self.chunks.iter().flat_map(|c| c.iter())
    }

    /// Iterate `(index, element)` pairs in order.
    pub fn iter_enumerated(&self) -> impl Iterator<Item = (usize, &T)> {
        self.iter().enumerate()
    }

    /// Drop every element.
    pub fn clear(&mut self) {
        self.chunks.clear();
        self.len = 0;
    }
}

impl<T: Clone, const N: usize> FromIterator<T> for SnapshotVec<T, N> {
    fn from_iter<I: IntoIterator<Item = T>>(iter: I) -> Self {
        let mut v = Self::new();
        for item in iter {
            v.push(item);
        }
        v
    }
}

impl<'a, T: Clone, const N: usize> IntoIterator for &'a SnapshotVec<T, N> {
    type Item = &'a T;
    type IntoIter = Box<dyn Iterator<Item = &'a T> + 'a>;
    fn into_iter(self) -> Self::IntoIter {
        Box::new(self.iter())
    }
}

impl<T: Clone, const N: usize> std::ops::Index<usize> for SnapshotVec<T, N> {
    type Output = T;
    fn index(&self, index: usize) -> &T {
        self.get(index).expect("SnapshotVec index out of bounds")
    }
}

impl<T: Clone + PartialEq, const N: usize> PartialEq for SnapshotVec<T, N> {
    fn eq(&self, other: &Self) -> bool {
        self.len == other.len && self.iter().eq(other.iter())
    }
}

impl<T: Clone + Eq, const N: usize> Eq for SnapshotVec<T, N> {}

/// Hash bits consumed per trie level (32-way branching).
const BITS: u32 = 5;

/// Entries a leaf bucket holds before it splits into a branch: the most a
/// single mutation after a clone ever copies by value.
const LEAF_CAP: usize = 8;

/// One stored entry, with its full hash so splits and probes never rehash.
#[derive(Debug, Clone)]
struct Entry<K, V> {
    hash: u64,
    key: K,
    value: V,
}

/// A trie node: a small bucket of entries, or a bitmap-compressed table of
/// up to 32 children indexed by the next [`BITS`] bits of the hash.
#[derive(Debug, Clone)]
enum Node<K, V> {
    Leaf(Vec<Entry<K, V>>),
    Branch {
        bitmap: u32,
        children: Vec<Arc<Node<K, V>>>,
    },
}

/// The child slot `hash` selects at `depth`.
fn slot(hash: u64, depth: u32) -> u32 {
    ((hash >> (depth * BITS)) & ((1 << BITS) - 1)) as u32
}

/// Are there hash bits left to split a bucket at `depth` on? A bucket
/// below the last level just grows (full 64-bit collisions only).
fn can_split(depth: u32) -> bool {
    depth * BITS < u64::BITS
}

impl<K, V> Node<K, V> {
    /// Position of `bit`'s child in the compressed child table.
    fn child_index(bitmap: u32, bit: u32) -> usize {
        (bitmap & (bit - 1)).count_ones() as usize
    }

    /// Distribute an overflowing bucket over the children its entries
    /// select at `depth` (recursively, should they all select the same).
    fn split(entries: Vec<Entry<K, V>>, depth: u32) -> Node<K, V> {
        let mut buckets: Vec<Vec<Entry<K, V>>> = (0..1 << BITS).map(|_| Vec::new()).collect();
        for e in entries {
            buckets[slot(e.hash, depth) as usize].push(e);
        }
        let mut bitmap = 0u32;
        let mut children = Vec::new();
        for (i, bucket) in buckets.into_iter().enumerate() {
            if bucket.is_empty() {
                continue;
            }
            bitmap |= 1 << i;
            children.push(Arc::new(
                if bucket.len() > LEAF_CAP && can_split(depth + 1) {
                    Node::split(bucket, depth + 1)
                } else {
                    Node::Leaf(bucket)
                },
            ));
        }
        Node::Branch { bitmap, children }
    }
}

impl<K: Clone, V: Clone> Node<K, V> {
    /// Path-copying descent to the bucket `hash` belongs in, creating an
    /// empty one where the trie has none yet. Every node on the way is
    /// detached from any clone sharing it (`Arc::make_mut`: a refcount
    /// check when unshared). Returns the bucket and its depth.
    fn bucket_mut(mut node: &mut Arc<Node<K, V>>, hash: u64) -> (&mut Node<K, V>, u32) {
        let mut depth = 0;
        loop {
            // Peek first: the borrow checker cannot see that the `Leaf`
            // arm of a match on `make_mut`'s result ends the loop.
            if matches!(**node, Node::Leaf(_)) {
                return (Arc::make_mut(node), depth);
            }
            let Node::Branch { bitmap, children } = Arc::make_mut(node) else {
                unreachable!("peeked a branch");
            };
            let bit = 1u32 << slot(hash, depth);
            let index = Node::<K, V>::child_index(*bitmap, bit);
            if *bitmap & bit == 0 {
                *bitmap |= bit;
                children.insert(index, Arc::new(Node::Leaf(Vec::new())));
            }
            node = &mut children[index];
            depth += 1;
        }
    }

    /// Remove `key`'s entry below `node`, pruning nodes the removal
    /// empties. Returns the value and whether `node` itself is now empty.
    fn remove_at(node: &mut Arc<Node<K, V>>, hash: u64, depth: u32, key: &K) -> (Option<V>, bool)
    where
        K: Eq,
    {
        match Arc::make_mut(node) {
            Node::Leaf(entries) => {
                let removed = entries
                    .iter()
                    .position(|e| e.hash == hash && e.key == *key)
                    .map(|pos| entries.swap_remove(pos).value);
                (removed, entries.is_empty())
            }
            Node::Branch { bitmap, children } => {
                let bit = 1u32 << slot(hash, depth);
                if *bitmap & bit == 0 {
                    return (None, false);
                }
                let index = Node::<K, V>::child_index(*bitmap, bit);
                let (removed, emptied) =
                    Node::remove_at(&mut children[index], hash, depth + 1, key);
                if emptied {
                    children.remove(index);
                    *bitmap &= !bit;
                }
                (removed, children.is_empty())
            }
        }
    }
}

/// A persistent hash map: a 32-way hash trie of `Arc` nodes with small
/// leaf buckets.
///
/// `clone()` is one `Arc` bump. The first mutation of a key after a clone
/// copies the nodes on that key's root-to-leaf path (O(log₃₂ n) pointer
/// tables) plus its bucket (at most eight entries by value);
/// everything off the path stays shared with the clone. A mutation of an
/// unshared map copies and allocates nothing beyond the entry itself.
/// Keys are hashed with a per-map [`RandomState`], like the `HashMap` this
/// replaces, so iteration order is unspecified and differs between runs.
#[derive(Debug)]
pub struct CowMap<K, V> {
    root: Arc<Node<K, V>>,
    len: usize,
    hasher: RandomState,
}

impl<K, V> Default for CowMap<K, V> {
    fn default() -> Self {
        CowMap {
            root: Arc::new(Node::Leaf(Vec::new())),
            len: 0,
            hasher: RandomState::new(),
        }
    }
}

impl<K, V> Clone for CowMap<K, V> {
    fn clone(&self) -> Self {
        CowMap {
            root: Arc::clone(&self.root),
            len: self.len,
            hasher: self.hasher.clone(),
        }
    }
}

impl<K: Eq + Hash + Clone, V: Clone> CowMap<K, V> {
    /// An empty map.
    pub fn new() -> Self {
        CowMap::default()
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Is the map empty?
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Look up a key.
    pub fn get(&self, key: &K) -> Option<&V> {
        self.get_by(key)
    }

    /// Does the map contain `key`?
    pub fn contains_key(&self, key: &K) -> bool {
        self.get(key).is_some()
    }

    /// Look up by a borrowed form of the key (e.g. `&str` for `String`
    /// keys) without allocating an owned key.
    pub fn get_by<Q>(&self, key: &Q) -> Option<&V>
    where
        K: Borrow<Q>,
        Q: Eq + Hash + ?Sized,
    {
        self.lookup(self.hasher.hash_one(key), key)
    }

    /// [`CowMap::get_by`] with the key's hash in hand.
    fn lookup<Q>(&self, hash: u64, key: &Q) -> Option<&V>
    where
        K: Borrow<Q>,
        Q: Eq + ?Sized,
    {
        let mut node = &*self.root;
        let mut depth = 0;
        loop {
            match node {
                Node::Leaf(entries) => {
                    return entries
                        .iter()
                        .find(|e| e.hash == hash && e.key.borrow() == key)
                        .map(|e| &e.value);
                }
                Node::Branch { bitmap, children } => {
                    let bit = 1u32 << slot(hash, depth);
                    if bitmap & bit == 0 {
                        return None;
                    }
                    node = &children[Node::<K, V>::child_index(*bitmap, bit)];
                    depth += 1;
                }
            }
        }
    }

    /// Mutable access to `key`'s value, inserting `default()` when absent:
    /// one path-copying descent to the key's bucket.
    fn value_mut(&mut self, key: K, default: impl FnOnce() -> V) -> &mut V {
        let hash = self.hasher.hash_one(&key);
        let (bucket, depth) = Node::bucket_mut(&mut self.root, hash);
        let Node::Leaf(entries) = &mut *bucket else {
            unreachable!("bucket_mut returns a leaf");
        };
        if !entries.iter().any(|e| e.hash == hash && e.key == key) {
            self.len += 1;
            entries.push(Entry {
                hash,
                key: key.clone(),
                value: default(),
            });
            if entries.len() > LEAF_CAP && can_split(depth) {
                *bucket = Node::split(std::mem::take(entries), depth);
            }
        }
        Self::find_mut(bucket, hash, depth, &key)
    }

    /// Mutable reference to a present entry's value at or below `node`
    /// (at `depth`), detaching the nodes on the way from any clone.
    fn find_mut<'a, Q>(
        mut node: &'a mut Node<K, V>,
        hash: u64,
        mut depth: u32,
        key: &Q,
    ) -> &'a mut V
    where
        K: Borrow<Q>,
        Q: Eq + ?Sized,
    {
        loop {
            match node {
                Node::Leaf(entries) => {
                    return entries
                        .iter_mut()
                        .find(|e| e.hash == hash && e.key.borrow() == key)
                        .map(|e| &mut e.value)
                        .expect("entry present below this node");
                }
                Node::Branch { bitmap, children } => {
                    let bit = 1u32 << slot(hash, depth);
                    node = Arc::make_mut(&mut children[Node::<K, V>::child_index(*bitmap, bit)]);
                    depth += 1;
                }
            }
        }
    }

    /// Insert (or replace) an entry.
    pub fn insert(&mut self, key: K, value: V) -> Option<V> {
        // `value_mut` consumes the value only if the key is new.
        let mut value = Some(value);
        let slot = self.value_mut(key, || value.take().expect("default runs at most once"));
        value.map(|v| std::mem::replace(slot, v))
    }

    /// Remove an entry, returning its value. A miss copies nothing.
    pub fn remove(&mut self, key: &K) -> Option<V> {
        let hash = self.hasher.hash_one(key);
        self.lookup(hash, key)?;
        let (removed, _) = Node::remove_at(&mut self.root, hash, 0, key);
        self.len -= 1;
        removed
    }

    /// Mutable access to an entry. Returns `None` — and copies nothing —
    /// for absent keys.
    pub fn get_mut(&mut self, key: &K) -> Option<&mut V> {
        self.get_mut_by(key)
    }

    /// [`CowMap::get_mut`] by a borrowed form of the key.
    pub fn get_mut_by<Q>(&mut self, key: &Q) -> Option<&mut V>
    where
        K: Borrow<Q>,
        Q: Eq + Hash + ?Sized,
    {
        let hash = self.hasher.hash_one(key);
        self.lookup(hash, key)?;
        Some(Self::find_mut(Arc::make_mut(&mut self.root), hash, 0, key))
    }

    /// Mutable access to an entry, inserting `V::default()` when absent.
    pub fn entry_or_default(&mut self, key: K) -> &mut V
    where
        V: Default,
    {
        self.value_mut(key, V::default)
    }

    /// Iterate the entries (order unspecified, like `HashMap`).
    pub fn iter(&self) -> Iter<'_, K, V> {
        let mut iter = Iter {
            stack: Vec::new(),
            bucket: [].iter(),
        };
        iter.enter(&self.root);
        iter
    }

    /// Iterate the values.
    pub fn values(&self) -> impl Iterator<Item = &V> {
        self.iter().map(|(_, v)| v)
    }

    /// Iterate the keys.
    pub fn keys(&self) -> impl Iterator<Item = &K> {
        self.iter().map(|(k, _)| k)
    }

    /// Drop every entry.
    pub fn clear(&mut self) {
        *self = CowMap::new();
    }
}

/// Depth-first iterator over a [`CowMap`]'s entries.
#[derive(Debug)]
pub struct Iter<'a, K, V> {
    stack: Vec<std::slice::Iter<'a, Arc<Node<K, V>>>>,
    bucket: std::slice::Iter<'a, Entry<K, V>>,
}

impl<'a, K, V> Iter<'a, K, V> {
    fn enter(&mut self, node: &'a Node<K, V>) {
        match node {
            Node::Leaf(entries) => self.bucket = entries.iter(),
            Node::Branch { children, .. } => self.stack.push(children.iter()),
        }
    }
}

impl<'a, K, V> Iterator for Iter<'a, K, V> {
    type Item = (&'a K, &'a V);

    fn next(&mut self) -> Option<Self::Item> {
        loop {
            if let Some(e) = self.bucket.next() {
                return Some((&e.key, &e.value));
            }
            match self.stack.last_mut()?.next() {
                Some(child) => self.enter(child),
                None => {
                    self.stack.pop();
                }
            }
        }
    }
}

impl<K: Eq + Hash + Clone, V: Clone> FromIterator<(K, V)> for CowMap<K, V> {
    fn from_iter<I: IntoIterator<Item = (K, V)>>(iter: I) -> Self {
        let mut m = CowMap::new();
        for (k, v) in iter {
            m.insert(k, v);
        }
        m
    }
}

/// A persistent hash set: [`CowMap`] without values.
#[derive(Debug)]
pub struct CowSet<T> {
    inner: CowMap<T, ()>,
}

impl<T> Default for CowSet<T> {
    fn default() -> Self {
        CowSet {
            inner: CowMap::default(),
        }
    }
}

impl<T> Clone for CowSet<T> {
    fn clone(&self) -> Self {
        CowSet {
            inner: self.inner.clone(),
        }
    }
}

impl<T: Eq + Hash + Clone> CowSet<T> {
    /// An empty set.
    pub fn new() -> Self {
        CowSet::default()
    }

    /// Number of members.
    pub fn len(&self) -> usize {
        self.inner.len()
    }

    /// Is the set empty?
    pub fn is_empty(&self) -> bool {
        self.inner.is_empty()
    }

    /// Add a member; `true` when newly inserted.
    pub fn insert(&mut self, value: T) -> bool {
        self.inner.insert(value, ()).is_none()
    }

    /// Remove a member; `true` when it was present.
    pub fn remove(&mut self, value: &T) -> bool {
        self.inner.remove(value).is_some()
    }

    /// Is `value` a member?
    pub fn contains(&self, value: &T) -> bool {
        self.inner.contains_key(value)
    }

    /// Iterate members (order unspecified).
    pub fn iter(&self) -> impl Iterator<Item = &T> {
        self.inner.keys()
    }

    /// Drop every member.
    pub fn clear(&mut self) {
        self.inner.clear();
    }
}

/// The vector behind `arc`, detached from any clone sharing it. Unlike
/// `Arc::make_mut`, whose copy has no spare capacity (so the push that
/// follows would reallocate and copy a second time), the copy has room to
/// grow — doubling, up to `cap`.
pub fn unshared_with_room<T: Clone>(arc: &mut Arc<Vec<T>>, cap: usize) -> &mut Vec<T> {
    // These `Arc`s never have `Weak`s, so one owner means unshared.
    if Arc::strong_count(arc) > 1 {
        let room = (arc.len() + 1).next_power_of_two().min(cap);
        let mut copy = Vec::with_capacity(room.max(arc.len()));
        copy.extend_from_slice(arc);
        *arc = Arc::new(copy);
    }
    Arc::get_mut(arc).expect("just detached")
}

/// Elements per sealed [`SegVec`] segment — and the most an append after a
/// clone copies. Small: a write touches dozens of lists (one per trigram
/// of its text), each paying this copy once per publish.
pub const SEG: usize = 64;

/// An append-only segmented vector with O(1) clone.
///
/// Full segments are sealed behind `Arc`s and never change; appends go to
/// an `Arc`'d open tail. `clone()` is two `Arc` bumps. The first append
/// after a clone copies the open tail (≤ [`SEG`] elements) and, once per
/// [`SEG`] appends, the segment-pointer vector — everything else is
/// amortized free.
#[derive(Debug)]
pub struct SegVec<T> {
    segs: Arc<Vec<Arc<Vec<T>>>>,
    open: Arc<Vec<T>>,
    len: usize,
}

impl<T> Default for SegVec<T> {
    fn default() -> Self {
        SegVec {
            segs: Arc::new(Vec::new()),
            open: Arc::new(Vec::new()),
            len: 0,
        }
    }
}

impl<T> Clone for SegVec<T> {
    fn clone(&self) -> Self {
        SegVec {
            segs: self.segs.clone(),
            open: self.open.clone(),
            len: self.len,
        }
    }
}

impl<T: Clone> SegVec<T> {
    /// An empty list.
    pub fn new() -> Self {
        SegVec::default()
    }

    /// Number of elements.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Is the list empty?
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Append an element.
    pub fn push(&mut self, value: T) {
        let open = unshared_with_room(&mut self.open, SEG);
        open.push(value);
        self.len += 1;
        if open.len() >= SEG {
            // A list that filled one segment will fill the next: give the
            // new tail its full size up front instead of regrowing it.
            let full = std::mem::replace(open, Vec::with_capacity(SEG));
            Arc::make_mut(&mut self.segs).push(Arc::new(full));
        }
    }

    /// Iterate the elements in insertion order.
    pub fn iter(&self) -> impl Iterator<Item = &T> {
        self.segs
            .iter()
            .flat_map(|s| s.iter())
            .chain(self.open.iter())
    }

    /// Shared reference to the element at `index`.
    pub fn get(&self, index: usize) -> Option<&T> {
        if index >= self.len {
            return None;
        }
        let seg = index / SEG;
        if seg < self.segs.len() {
            self.segs[seg].get(index % SEG)
        } else {
            self.open.get(index - self.segs.len() * SEG)
        }
    }

    /// The most recently appended element, if any.
    pub fn last(&self) -> Option<&T> {
        self.open
            .last()
            .or_else(|| self.segs.last().and_then(|s| s.last()))
    }

    /// Drop every element.
    pub fn clear(&mut self) {
        self.segs = Arc::new(Vec::new());
        self.open = Arc::new(Vec::new());
        self.len = 0;
    }
}

impl<T: Clone> FromIterator<T> for SegVec<T> {
    fn from_iter<I: IntoIterator<Item = T>>(iter: I) -> Self {
        let mut v = SegVec::new();
        for item in iter {
            v.push(item);
        }
        v
    }
}

impl<T: Clone> std::ops::Index<usize> for SegVec<T> {
    type Output = T;
    fn index(&self, index: usize) -> &T {
        self.get(index).expect("SegVec index out of bounds")
    }
}

impl<'a, T: Clone> IntoIterator for &'a SegVec<T> {
    type Item = &'a T;
    type IntoIter = Box<dyn Iterator<Item = &'a T> + 'a>;
    fn into_iter(self) -> Self::IntoIter {
        Box::new(self.iter())
    }
}

impl<'a, K: Eq + Hash + Clone, V: Clone> IntoIterator for &'a CowMap<K, V> {
    type Item = (&'a K, &'a V);
    type IntoIter = Iter<'a, K, V>;
    fn into_iter(self) -> Self::IntoIter {
        self.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashMap;

    #[test]
    fn snapshot_vec_positional_semantics() {
        let mut v: SnapshotVec<u32> = SnapshotVec::new();
        assert!(v.is_empty());
        for i in 0..(CHUNK as u32 * 3 + 7) {
            v.push(i * 2);
        }
        assert_eq!(v.len(), CHUNK * 3 + 7);
        assert_eq!(v.get(0), Some(&0));
        assert_eq!(v.get(CHUNK), Some(&(CHUNK as u32 * 2)));
        assert_eq!(v.last(), Some(&((CHUNK as u32 * 3 + 6) * 2)));
        assert_eq!(v.get(v.len()), None);
        let collected: Vec<u32> = v.iter().copied().collect();
        assert_eq!(collected.len(), v.len());
        assert!(collected.windows(2).all(|w| w[1] == w[0] + 2));
    }

    #[test]
    fn snapshot_vec_clone_isolates_mutations() {
        let mut v: SnapshotVec<u32> = (0..1000u32).collect();
        let snap = v.clone();
        *v.get_mut(3).unwrap() = 999;
        v.push(1000);
        assert_eq!(snap.get(3), Some(&3));
        assert_eq!(snap.len(), 1000);
        assert_eq!(v.get(3), Some(&999));
        assert_eq!(v.len(), 1001);
        // Untouched chunks stay shared.
        assert!(Arc::ptr_eq(&v.chunks[1], &snap.chunks[1]));
        assert!(!Arc::ptr_eq(&v.chunks[0], &snap.chunks[0]));
    }

    #[test]
    fn cow_map_insert_remove_len() {
        let mut m: CowMap<String, u32> = CowMap::new();
        assert_eq!(m.insert("a".into(), 1), None);
        assert_eq!(m.insert("a".into(), 2), Some(1));
        assert_eq!(m.len(), 1);
        m.insert("b".into(), 3);
        assert_eq!(m.remove(&"a".to_string()), Some(2));
        assert_eq!(m.remove(&"a".to_string()), None);
        assert_eq!(m.len(), 1);
        assert_eq!(m.get(&"b".to_string()), Some(&3));
    }

    #[test]
    fn cow_map_removed_keys_resurrect_cleanly() {
        let mut m: CowMap<u64, u32> = (0..100u64).map(|k| (k, k as u32)).collect();
        m.remove(&5);
        m.insert(7, 700);
        m.insert(200, 200);
        assert_eq!(m.len(), 100); // 100 - 1 removed + 1 new
        assert_eq!(m.get(&5), None);
        assert_eq!(m.get(&7), Some(&700));
        assert_eq!(m.get(&200), Some(&200));
        m.remove(&7);
        assert_eq!(m.get(&7), None);
        assert_eq!(m.len(), 99);
        m.insert(5, 55);
        assert_eq!(m.get(&5), Some(&55));
        assert_eq!(m.len(), 100);
    }

    /// Children of the two roots that are one shared allocation.
    fn shared_root_children<K, V>(a: &CowMap<K, V>, b: &CowMap<K, V>) -> usize {
        match (&*a.root, &*b.root) {
            (Node::Branch { children: ca, .. }, Node::Branch { children: cb, .. }) => ca
                .iter()
                .filter(|x| cb.iter().any(|y| Arc::ptr_eq(x, y)))
                .count(),
            _ => 0,
        }
    }

    #[test]
    fn cow_map_clone_isolates_and_shares() {
        let mut m: CowMap<u64, u32> = (0..50u64).map(|k| (k, k as u32)).collect();
        let snap = m.clone();
        m.insert(1, 100);
        m.remove(&2);
        *m.get_mut(&3).unwrap() += 1;
        m.insert(99, 99);
        assert_eq!(snap.get(&1), Some(&1));
        assert_eq!(snap.get(&2), Some(&2));
        assert_eq!(snap.get(&3), Some(&3));
        assert_eq!(snap.get(&99), None);
        assert_eq!(snap.len(), 50);
        assert_eq!(m.len(), 50); // -1 removed, +1 inserted
                                 // Four touched keys detach at most four of the root's subtrees.
        let Node::Branch { children, .. } = &*snap.root else {
            panic!("50 keys overflow one bucket");
        };
        assert!(shared_root_children(&m, &snap) >= children.len() - 4);
    }

    /// A value that counts its clones (per thread, so parallel tests do
    /// not see each other's).
    #[derive(Debug, Default, PartialEq)]
    struct Counted(u64);

    thread_local! {
        static CLONES: std::cell::Cell<usize> = const { std::cell::Cell::new(0) };
    }

    impl Clone for Counted {
        fn clone(&self) -> Self {
            CLONES.with(|c| c.set(c.get() + 1));
            Counted(self.0)
        }
    }

    fn clones_during(f: impl FnOnce()) -> usize {
        let before = CLONES.with(std::cell::Cell::get);
        f();
        CLONES.with(std::cell::Cell::get) - before
    }

    /// The sharing contract: after a clone, one mutation copies at most one
    /// leaf bucket of values whatever the map's size, and a mutation of an
    /// unshared map copies none.
    #[test]
    fn cow_map_mutation_after_clone_copies_one_bucket() {
        for size in [10u64, 1_000, 100_000] {
            let mut m: CowMap<u64, Counted> = CowMap::new();
            let built = clones_during(|| {
                for k in 0..size {
                    m.insert(k, Counted(k));
                }
            });
            assert_eq!(built, 0, "unshared inserts clone nothing (size {size})");
            let mut held = Vec::new();
            let fresh_insert = clones_during(|| {
                held.push(m.clone());
                m.insert(size, Counted(size));
            });
            assert!(fresh_insert <= LEAF_CAP, "size {size}: {fresh_insert}");
            let in_place = clones_during(|| {
                held.push(m.clone());
                m.get_mut(&(size / 2)).unwrap().0 += 1;
            });
            assert!(in_place <= LEAF_CAP, "size {size}: {in_place}");
            let miss = clones_during(|| {
                held.push(m.clone());
                assert!(m.get_mut(&(size + 7)).is_none());
                assert!(m.remove(&(size + 7)).is_none());
            });
            assert_eq!(miss, 0, "a miss copies nothing (size {size})");
            assert_eq!(held[0].len() as u64, size);
            assert_eq!(held[1].get(&(size / 2)), Some(&Counted(size / 2)));
            assert_eq!(m.get(&(size / 2)), Some(&Counted(size / 2 + 1)));
        }
    }

    /// Model-based equivalence: a random trace of every mutator, with a
    /// clone taken now and then, against `std::HashMap`. The live map and
    /// every held clone must equal the model as of their clone time.
    #[test]
    fn cow_map_matches_hashmap_model_under_clones() {
        type Map = CowMap<u16, Vec<u32>>;
        type Model = HashMap<u16, Vec<u32>>;
        fn same(m: &Map, model: &Model) {
            assert_eq!(m.len(), model.len());
            assert_eq!(m.is_empty(), model.is_empty());
            let mut got: Vec<(u16, Vec<u32>)> = m.iter().map(|(k, v)| (*k, v.clone())).collect();
            let mut want: Vec<(u16, Vec<u32>)> =
                model.iter().map(|(k, v)| (*k, v.clone())).collect();
            got.sort();
            want.sort();
            assert_eq!(got, want);
            assert_eq!(m.keys().count(), model.len());
            assert_eq!(m.values().count(), model.len());
            for k in 0..64u16 {
                assert_eq!(m.get(&k), model.get(&k));
                assert_eq!(m.contains_key(&k), model.contains_key(&k));
            }
        }
        for seed in 1..=8u64 {
            // xorshift64*: the crate has no dependencies, test ones included.
            let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15);
            let mut next = move || {
                state ^= state >> 12;
                state ^= state << 25;
                state ^= state >> 27;
                state.wrapping_mul(0x2545_F491_4F6C_DD1D)
            };
            // Small seeds keep keys colliding in buckets; large ones force
            // splits several levels deep.
            let key_space = if seed % 2 == 0 { 48 } else { 4_000 };
            let mut m = Map::new();
            let mut model = Model::new();
            let mut held: Vec<(Map, Model)> = Vec::new();
            for step in 0..3_000u32 {
                let key = (next() % key_space) as u16;
                match next() % 100 {
                    0..=29 => assert_eq!(m.insert(key, vec![step]), model.insert(key, vec![step])),
                    30..=49 => assert_eq!(m.remove(&key), model.remove(&key)),
                    50..=64 => {
                        let (a, b) = (m.get_mut(&key), model.get_mut(&key));
                        assert_eq!(a.is_some(), b.is_some());
                        if let (Some(a), Some(b)) = (a, b) {
                            a.push(step);
                            b.push(step);
                        }
                    }
                    65..=89 => {
                        m.entry_or_default(key).push(step);
                        model.entry(key).or_default().push(step);
                    }
                    90..=97 => held.push((m.clone(), model.clone())),
                    98 => {
                        m.clear();
                        model.clear();
                    }
                    _ => {
                        let rebuilt: Map = model.iter().map(|(k, v)| (*k, v.clone())).collect();
                        same(&rebuilt, &model);
                    }
                }
                if step % 500 == 0 {
                    same(&m, &model);
                }
            }
            same(&m, &model);
            for (snap, at_clone) in &held {
                same(snap, at_clone);
            }
        }
    }

    #[test]
    fn cow_map_iter_matches_hashmap_semantics() {
        let mut m: CowMap<u64, u32> = (0..20u64).map(|k| (k, k as u32)).collect();
        m.remove(&0);
        m.insert(5, 500);
        m.insert(50, 50);
        let mut got: Vec<(u64, u32)> = m.iter().map(|(k, v)| (*k, *v)).collect();
        got.sort_unstable();
        let mut want: Vec<(u64, u32)> = (1..20u64)
            .map(|k| (k, if k == 5 { 500 } else { k as u32 }))
            .collect();
        want.push((50, 50));
        want.sort_unstable();
        assert_eq!(got, want);
        assert_eq!(m.values().count(), m.len());
    }

    #[test]
    fn cow_map_entry_or_default_counts() {
        let mut m: CowMap<u64, u32> = (0..3u64).map(|k| (k, 10)).collect();
        *m.entry_or_default(0) += 1; // present
        *m.entry_or_default(9) += 1; // fresh default
        assert_eq!(m.get(&0), Some(&11));
        assert_eq!(m.get(&9), Some(&1));
        assert_eq!(m.len(), 4);
    }

    #[test]
    fn cow_set_basics() {
        let mut s: CowSet<u64> = CowSet::new();
        assert!(s.insert(1));
        assert!(!s.insert(1));
        assert!(s.contains(&1));
        let snap = s.clone();
        assert!(s.remove(&1));
        assert!(!s.remove(&1));
        assert!(snap.contains(&1));
        assert!(!s.contains(&1));
        s.insert(2);
        assert!(s.contains(&2));
        assert_eq!(s.iter().count(), 1);
        assert_eq!(snap.len(), 1);
        s.clear();
        assert!(s.is_empty());
    }

    #[test]
    fn seg_vec_appends_and_iterates_in_order() {
        let mut v: SegVec<u64> = SegVec::new();
        for i in 0..(SEG as u64 * 2 + 10) {
            v.push(i);
        }
        assert_eq!(v.len(), SEG * 2 + 10);
        let got: Vec<u64> = v.iter().copied().collect();
        let want: Vec<u64> = (0..(SEG as u64 * 2 + 10)).collect();
        assert_eq!(got, want);
    }

    #[test]
    fn seg_vec_clone_is_shared_and_isolated() {
        let mut v: SegVec<u64> = (0..(SEG as u64 + 5)).collect();
        let snap = v.clone();
        v.push(999);
        assert_eq!(snap.len(), SEG + 5);
        assert_eq!(v.len(), SEG + 6);
        assert_eq!(snap.iter().last(), Some(&(SEG as u64 + 4)));
        assert_eq!(v.iter().last(), Some(&999));
        // Sealed segments are shared by pointer.
        assert!(Arc::ptr_eq(&v.segs[0], &snap.segs[0]));
    }
}
