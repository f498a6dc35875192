//! A disk-based B+-tree index mapping order-preserving key bytes to
//! [`Rid`]s — the IX component of the Redbase substrate.
//!
//! Design notes:
//!
//! * **Non-unique**: duplicate keys are fine and lookups are range scans
//!   `[key, key]`. The tree is ordered on the full `(key, rid)` entry:
//!   internal separators carry the rid of the entry they were copied
//!   from, so inserts and deletes descend straight to the one leaf that
//!   holds (or would hold) an entry, however many leaves its key spans,
//!   and a key's entries come out of a scan in rid order.
//! * **Variable-length keys** stored as sequential cells inside each 4 KiB
//!   node page; inserts shift cell bytes (O(page), which is cheap at this
//!   page size and keeps the layout simple and robust).
//! * **Splits** propagate up through an explicit descent stack; a root
//!   split allocates a fresh root. The root page id lives in the index
//!   header (page 0).
//! * **Deletes** remove the leaf entry without rebalancing (lazy deletion,
//!   as many production trees do); underfull pages are reclaimed only by
//!   a rebuild.
//!
//! Page layout:
//!
//! ```text
//! header page 0:  [magic u32][root u32]
//! node page:      [kind u8][nkeys u16][link u32][cell]*
//!   leaf cell:     [klen u16][key][page u32][slot u16]               (entry → rid)
//!   internal cell: [klen u16][key][page u32][slot u16][child u32]   (separator, right child)
//! ```
//!
//! For an internal node, `link` is the leftmost child (subtree with
//! entries `<` the first cell's `(key, rid)`); each cell's child holds
//! entries `>=` its `(key, rid)` and `<` the next cell's.
//! For a leaf, `link` is the next leaf (0 = none; page 0 is the header so
//! the value is unambiguous).

use crate::buffer::BufferPool;
use crate::heap::Rid;
use crate::page::{FileId, PageId, PAGE_SIZE};
use crate::slotted::SlotId;
use std::sync::Arc;
use wsq_common::{Result, WsqError};

const MAGIC: u32 = 0x5752_4959; // "WRIY": separators carry rids
/// The earlier format, whose separators carried no rid. Its trees could
/// lose entries of keys spanning leaves, so they are not read.
const MAGIC_KEY_ONLY: u32 = 0x5752_4958; // "WRIX"
const KIND_LEAF: u8 = 1;
const KIND_INTERNAL: u8 = 0;
const HDR: usize = 7; // kind + nkeys + link

fn read_u16(d: &[u8], at: usize) -> u16 {
    u16::from_le_bytes([d[at], d[at + 1]])
}
fn read_u32(d: &[u8], at: usize) -> u32 {
    u32::from_le_bytes([d[at], d[at + 1], d[at + 2], d[at + 3]])
}

/// An entry as stored in a node.
#[derive(Debug, Clone, PartialEq, Eq)]
struct Cell {
    key: Vec<u8>,
    /// Leaf: the entry's rid. Internal: the separator's rid.
    rid: Rid,
    /// Internal: the right child page. Leaf: unused (0).
    child: u32,
}

impl Cell {
    fn leaf_size(&self) -> usize {
        2 + self.key.len() + 6
    }
    fn internal_size(&self) -> usize {
        2 + self.key.len() + 10
    }
}

/// Decoded node contents (nodes are small; decoding to a Vec keeps the
/// mutation logic simple and safe).
#[derive(Debug)]
struct Node {
    leaf: bool,
    link: u32,
    cells: Vec<Cell>,
}

impl Node {
    fn decode(d: &[u8]) -> Node {
        let leaf = d[0] == KIND_LEAF;
        let nkeys = read_u16(d, 1) as usize;
        let link = read_u32(d, 3);
        let mut cells = Vec::with_capacity(nkeys);
        let mut at = HDR;
        for _ in 0..nkeys {
            let klen = read_u16(d, at) as usize;
            at += 2;
            let key = d[at..at + klen].to_vec();
            at += klen;
            let rid = Rid {
                page: PageId(read_u32(d, at)),
                slot: SlotId(read_u16(d, at + 4)),
            };
            at += 6;
            let child = if leaf {
                0
            } else {
                at += 4;
                read_u32(d, at - 4)
            };
            cells.push(Cell { key, rid, child });
        }
        Node { leaf, link, cells }
    }

    fn encode(&self, d: &mut [u8]) {
        d[0] = if self.leaf { KIND_LEAF } else { KIND_INTERNAL };
        d[1..3].copy_from_slice(&(self.cells.len() as u16).to_le_bytes());
        d[3..7].copy_from_slice(&self.link.to_le_bytes());
        let mut at = HDR;
        for c in &self.cells {
            d[at..at + 2].copy_from_slice(&(c.key.len() as u16).to_le_bytes());
            at += 2;
            d[at..at + c.key.len()].copy_from_slice(&c.key);
            at += c.key.len();
            d[at..at + 4].copy_from_slice(&c.rid.page.0.to_le_bytes());
            d[at + 4..at + 6].copy_from_slice(&c.rid.slot.0.to_le_bytes());
            at += 6;
            if !self.leaf {
                d[at..at + 4].copy_from_slice(&c.child.to_le_bytes());
                at += 4;
            }
        }
    }

    fn bytes_used(&self) -> usize {
        HDR + self
            .cells
            .iter()
            .map(|c| {
                if self.leaf {
                    c.leaf_size()
                } else {
                    c.internal_size()
                }
            })
            .sum::<usize>()
    }

    /// First cell index whose `(key, rid)` is `>=` the probe; a probe
    /// without a rid sorts before every entry with its key.
    fn lower_bound(&self, key: &[u8], rid: Option<Rid>) -> usize {
        self.cells
            .partition_point(|c| match c.key.as_slice().cmp(key) {
                std::cmp::Ordering::Less => true,
                std::cmp::Ordering::Greater => false,
                std::cmp::Ordering::Equal => match rid {
                    None => false,
                    Some(r) => c.rid < r,
                },
            })
    }

    /// Internal node: the index (0 = `link`, i = cell i-1's child) of the
    /// child whose range holds the probe.
    fn child_index(&self, key: &[u8], rid: Option<Rid>) -> usize {
        let idx = self.lower_bound(key, rid);
        // A separator equal to the probe starts the child to its right.
        match (self.cells.get(idx), rid) {
            (Some(c), Some(r)) if c.key == key && c.rid == r => idx + 1,
            _ => idx,
        }
    }

    fn child(&self, idx: usize) -> u32 {
        if idx == 0 {
            self.link
        } else {
            self.cells[idx - 1].child
        }
    }
}

/// Largest key an index accepts; guarantees at least two entries fit in a
/// node after a split.
pub fn max_key_len() -> usize {
    (PAGE_SIZE - HDR) / 2 - 16
}

/// A B+-tree index over `(key bytes, rid)` entries.
pub struct BTree {
    pool: Arc<BufferPool>,
    file: FileId,
}

impl BTree {
    /// Initialize a fresh index in an empty file.
    pub fn create(pool: Arc<BufferPool>, file: FileId) -> Result<BTree> {
        if pool.num_pages(file)? != 0 {
            return Err(WsqError::Storage(
                "BTree::create requires an empty file".to_string(),
            ));
        }
        let header = pool.allocate_page(file)?;
        debug_assert_eq!(header, PageId(0));
        let root = pool.allocate_page(file)?;
        pool.with_page_mut(file, root, |d| {
            Node {
                leaf: true,
                link: 0,
                cells: vec![],
            }
            .encode(d)
        })?;
        pool.with_page_mut(file, header, |d| {
            d[0..4].copy_from_slice(&MAGIC.to_le_bytes());
            d[4..8].copy_from_slice(&root.0.to_le_bytes());
        })?;
        Ok(BTree { pool, file })
    }

    /// Open an existing index.
    pub fn open(pool: Arc<BufferPool>, file: FileId) -> Result<BTree> {
        if pool.num_pages(file)? < 2 {
            return Err(WsqError::Storage("not a btree file".to_string()));
        }
        let magic = pool.with_page(file, PageId(0), |d| read_u32(d, 0))?;
        if magic == MAGIC_KEY_ONLY {
            return Err(WsqError::Storage(
                "index file uses the old key-only separator format; drop and recreate the index"
                    .to_string(),
            ));
        }
        if magic != MAGIC {
            return Err(WsqError::Storage("not a btree file: bad magic".to_string()));
        }
        Ok(BTree { pool, file })
    }

    /// The underlying file.
    pub fn file_id(&self) -> FileId {
        self.file
    }

    fn root(&self) -> Result<u32> {
        self.pool
            .with_page(self.file, PageId(0), |d| read_u32(d, 4))
    }

    fn set_root(&self, root: u32) -> Result<()> {
        self.pool.with_page_mut(self.file, PageId(0), |d| {
            d[4..8].copy_from_slice(&root.to_le_bytes())
        })
    }

    fn load(&self, page: u32) -> Result<Node> {
        self.pool.with_page(self.file, PageId(page), Node::decode)
    }

    fn store(&self, page: u32, node: &Node) -> Result<()> {
        self.pool
            .with_page_mut(self.file, PageId(page), |d| node.encode(d))
    }

    /// Insert an entry. Duplicate `(key, rid)` pairs are rejected.
    pub fn insert(&self, key: &[u8], rid: Rid) -> Result<()> {
        if key.len() > max_key_len() {
            return Err(WsqError::Storage(format!(
                "index key of {} bytes exceeds the maximum of {}",
                key.len(),
                max_key_len()
            )));
        }
        // Descend to the leaf that holds `(key, rid)`'s place, remembering
        // each internal page and the child index taken there.
        let mut path: Vec<(u32, usize)> = Vec::new();
        let page = self.descend(key, Some(rid), Some(&mut path))?;
        let mut node = self.load(page)?;
        let pos = node.lower_bound(key, Some(rid));
        if node
            .cells
            .get(pos)
            .is_some_and(|c| c.key == key && c.rid == rid)
        {
            return Err(WsqError::Storage("duplicate index entry".to_string()));
        }
        node.cells.insert(
            pos,
            Cell {
                key: key.to_vec(),
                rid,
                child: 0,
            },
        );

        // Split upward while nodes overflow. `split_page` is the node the
        // pending separator came from.
        let mut split: Option<(Cell, u32)> = None; // (separator, new right page)
        if node.bytes_used() > PAGE_SIZE {
            split = Some(self.split(&mut node)?);
        }
        self.store(page, &node)?;
        let mut split_page = page;

        while let Some((mut sep, right)) = split.take() {
            sep.child = right;
            match path.pop() {
                Some((parent_page, child_idx)) => {
                    // The new right sibling goes immediately after the
                    // child that split.
                    let mut parent = self.load(parent_page)?;
                    parent.cells.insert(child_idx, sep);
                    if parent.bytes_used() > PAGE_SIZE {
                        split = Some(self.split(&mut parent)?);
                    }
                    self.store(parent_page, &parent)?;
                    split_page = parent_page;
                }
                None => {
                    // Root split: the old root (leaf or internal) becomes
                    // the leftmost child of a new root.
                    let new_root_page = self.pool.allocate_page(self.file)?;
                    let new_root = Node {
                        leaf: false,
                        link: split_page,
                        cells: vec![sep],
                    };
                    self.store(new_root_page.0, &new_root)?;
                    self.set_root(new_root_page.0)?;
                }
            }
        }
        Ok(())
    }

    /// Split `node`, returning `(separator, right page)`; the caller
    /// points the separator at the right page.
    fn split(&self, node: &mut Node) -> Result<(Cell, u32)> {
        let mid = node.cells.len() / 2;
        let right_page = self.pool.allocate_page(self.file)?;
        let (sep, right) = if node.leaf {
            let right_cells: Vec<Cell> = node.cells.split_off(mid);
            // The separator copies the right half's first entry, rid
            // included.
            let sep = right_cells[0].clone();
            let right = Node {
                leaf: true,
                link: node.link,
                cells: right_cells,
            };
            node.link = right_page.0;
            (sep, right)
        } else {
            // The middle key moves up; its right child becomes the new
            // node's leftmost child.
            let mut right_cells: Vec<Cell> = node.cells.split_off(mid);
            let middle = right_cells.remove(0);
            let right = Node {
                leaf: false,
                link: middle.child,
                cells: right_cells,
            };
            (middle, right)
        };
        self.store(right_page.0, &right)?;
        Ok((sep, right_page.0))
    }

    /// Descend from the root to the leaf whose range holds `(key, rid)` —
    /// without a rid, the leftmost leaf that may hold `key` — pushing each
    /// internal page and the child index taken there onto `path` if one
    /// is given.
    fn descend(
        &self,
        key: &[u8],
        rid: Option<Rid>,
        mut path: Option<&mut Vec<(u32, usize)>>,
    ) -> Result<u32> {
        let mut page = self.root()?;
        loop {
            let node = self.load(page)?;
            if node.leaf {
                return Ok(page);
            }
            let idx = node.child_index(key, rid);
            if let Some(path) = path.as_deref_mut() {
                path.push((page, idx));
            }
            page = node.child(idx);
        }
    }

    /// All rids whose key equals `key`, in rid order.
    pub fn search(&self, key: &[u8]) -> Result<Vec<Rid>> {
        let mut out = Vec::new();
        self.scan_range(key, key, |_, rid| out.push(rid))?;
        Ok(out)
    }

    /// Visit every entry with `low <= key <= high` in key order.
    pub fn scan_range(
        &self,
        low: &[u8],
        high: &[u8],
        mut visit: impl FnMut(&[u8], Rid),
    ) -> Result<()> {
        let mut page = self.descend(low, None, None)?;
        loop {
            let node = self.load(page)?;
            for c in &node.cells {
                if c.key.as_slice() > high {
                    return Ok(());
                }
                if c.key.as_slice() >= low {
                    visit(&c.key, c.rid);
                }
            }
            if node.link == 0 {
                return Ok(());
            }
            page = node.link;
        }
    }

    /// Visit every entry in key order.
    pub fn scan_all(&self, mut visit: impl FnMut(&[u8], Rid)) -> Result<()> {
        let mut page = self.root()?;
        loop {
            let node = self.load(page)?;
            if node.leaf {
                break;
            }
            page = node.link;
        }
        loop {
            let node = self.load(page)?;
            for c in &node.cells {
                visit(&c.key, c.rid);
            }
            if node.link == 0 {
                return Ok(());
            }
            page = node.link;
        }
    }

    /// Remove the entry `(key, rid)`. Returns whether it existed. Lazy:
    /// no rebalancing.
    pub fn delete(&self, key: &[u8], rid: Rid) -> Result<bool> {
        let page = self.descend(key, Some(rid), None)?;
        let mut node = self.load(page)?;
        let pos = node.lower_bound(key, Some(rid));
        if !node
            .cells
            .get(pos)
            .is_some_and(|c| c.key == key && c.rid == rid)
        {
            return Ok(false);
        }
        node.cells.remove(pos);
        self.store(page, &node)?;
        Ok(true)
    }

    /// Number of entries (full scan; for tests and stats).
    pub fn len(&self) -> Result<usize> {
        let mut n = 0;
        self.scan_all(|_, _| n += 1)?;
        Ok(n)
    }

    /// True iff the index has no entries.
    pub fn is_empty(&self) -> Result<bool> {
        Ok(self.len()? == 0)
    }

    /// Tree height (root to leaf), for structural tests.
    pub fn height(&self) -> Result<usize> {
        let mut h = 1;
        let mut page = self.root()?;
        loop {
            let node = self.load(page)?;
            if node.leaf {
                return Ok(h);
            }
            h += 1;
            page = node.link;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::disk::MemStorage;

    fn tree() -> BTree {
        let pool = Arc::new(BufferPool::new(64));
        let file = pool.register_file(Box::new(MemStorage::new()));
        BTree::create(pool, file).unwrap()
    }

    fn rid(n: u32) -> Rid {
        Rid {
            page: PageId(n / 100 + 1),
            slot: SlotId((n % 100) as u16),
        }
    }

    #[test]
    fn insert_and_point_lookup() {
        let t = tree();
        t.insert(b"colorado", rid(1)).unwrap();
        t.insert(b"utah", rid(2)).unwrap();
        t.insert(b"arizona", rid(3)).unwrap();
        assert_eq!(t.search(b"utah").unwrap(), vec![rid(2)]);
        assert_eq!(t.search(b"nevada").unwrap(), vec![]);
        assert_eq!(t.len().unwrap(), 3);
    }

    #[test]
    fn duplicate_keys_different_rids() {
        let t = tree();
        t.insert(b"jackson", rid(10)).unwrap();
        t.insert(b"jackson", rid(5)).unwrap();
        t.insert(b"jackson", rid(7)).unwrap();
        assert_eq!(t.search(b"jackson").unwrap(), vec![rid(5), rid(7), rid(10)]);
        // Identical (key, rid) rejected.
        assert!(t.insert(b"jackson", rid(5)).is_err());
    }

    #[test]
    fn splits_maintain_order_and_completeness() {
        let t = tree();
        // Enough entries to force multiple levels (keys ~40 bytes →
        // ~80 entries/leaf).
        let n = 2000u32;
        for i in 0..n {
            let key = format!("key-{:08}-padding-padding-padding", i * 7919 % n);
            t.insert(key.as_bytes(), rid(i)).unwrap();
        }
        assert_eq!(t.len().unwrap(), n as usize);
        assert!(t.height().unwrap() >= 2, "tree should have split");
        // Full scan is sorted.
        let mut prev: Option<Vec<u8>> = None;
        t.scan_all(|k, _| {
            if let Some(p) = &prev {
                assert!(p.as_slice() <= k);
            }
            prev = Some(k.to_vec());
        })
        .unwrap();
        // Every key findable.
        for i in (0..n).step_by(97) {
            let key = format!("key-{:08}-padding-padding-padding", i * 7919 % n);
            assert_eq!(t.search(key.as_bytes()).unwrap().len(), 1, "{key}");
        }
    }

    #[test]
    fn range_scan() {
        let t = tree();
        for i in 0..100u32 {
            t.insert(format!("k{i:03}").as_bytes(), rid(i)).unwrap();
        }
        let mut seen = Vec::new();
        t.scan_range(b"k010", b"k019", |k, _| {
            seen.push(String::from_utf8(k.to_vec()).unwrap())
        })
        .unwrap();
        assert_eq!(seen.len(), 10);
        assert_eq!(seen[0], "k010");
        assert_eq!(seen[9], "k019");
        // Empty range.
        let mut n = 0;
        t.scan_range(b"zzz", b"zzzz", |_, _| n += 1).unwrap();
        assert_eq!(n, 0);
    }

    #[test]
    fn delete_removes_single_entry() {
        let t = tree();
        for i in 0..50u32 {
            t.insert(b"same", rid(i)).unwrap();
        }
        assert!(t.delete(b"same", rid(25)).unwrap());
        assert!(!t.delete(b"same", rid(25)).unwrap());
        assert_eq!(t.search(b"same").unwrap().len(), 49);
        assert!(!t.delete(b"other", rid(1)).unwrap());
    }

    #[test]
    fn reopen_preserves_tree() {
        let pool = Arc::new(BufferPool::new(64));
        let file = pool.register_file(Box::new(MemStorage::new()));
        {
            let t = BTree::create(pool.clone(), file).unwrap();
            for i in 0..500u32 {
                t.insert(format!("key{i:05}").as_bytes(), rid(i)).unwrap();
            }
        }
        let t = BTree::open(pool, file).unwrap();
        assert_eq!(t.len().unwrap(), 500);
        assert_eq!(t.search(b"key00321").unwrap(), vec![rid(321)]);
    }

    #[test]
    fn key_only_separator_format_is_refused() {
        let pool = Arc::new(BufferPool::new(64));
        let file = pool.register_file(Box::new(MemStorage::new()));
        BTree::create(pool.clone(), file).unwrap();
        pool.with_page_mut(file, PageId(0), |d| {
            d[0..4].copy_from_slice(&MAGIC_KEY_ONLY.to_le_bytes())
        })
        .unwrap();
        let err = BTree::open(pool, file).err().unwrap().to_string();
        assert!(err.contains("recreate the index"), "{err}");
    }

    #[test]
    fn oversized_key_rejected() {
        let t = tree();
        let big = vec![b'x'; max_key_len() + 1];
        assert!(t.insert(&big, rid(1)).is_err());
        let ok = vec![b'x'; max_key_len()];
        t.insert(&ok, rid(1)).unwrap();
        assert_eq!(t.search(&ok).unwrap(), vec![rid(1)]);
    }

    /// Insert `entries` in order into a tree whose pool holds it whole
    /// (these tests are about structure, not eviction), then check that
    /// `search` finds each key's entries in rid order, `scan_all` yields
    /// every entry in `(key, rid)` order, and every entry rejects a second
    /// insert and can be deleted exactly once.
    fn check_entries(entries: &[(Vec<u8>, Rid)], min_height: usize) {
        let pool = Arc::new(BufferPool::new(1024));
        let file = pool.register_file(Box::new(MemStorage::new()));
        let t = BTree::create(pool, file).unwrap();
        for (k, r) in entries {
            t.insert(k, *r).unwrap();
        }
        assert!(t.height().unwrap() >= min_height, "tree too shallow");
        let mut sorted = entries.to_vec();
        sorted.sort();
        let mut scanned = Vec::new();
        t.scan_all(|k, r| scanned.push((k.to_vec(), r))).unwrap();
        assert_eq!(scanned, sorted, "scan_all");
        for run in sorted.chunk_by(|a, b| a.0 == b.0) {
            let want: Vec<Rid> = run.iter().map(|e| e.1).collect();
            assert_eq!(t.search(&run[0].0).unwrap(), want, "search");
        }
        for (k, r) in entries {
            assert!(t.insert(k, *r).is_err(), "second insert accepted");
        }
        for (k, r) in entries.iter().rev() {
            assert!(t.delete(k, *r).unwrap(), "entry {r:?} not deletable");
            assert!(!t.delete(k, *r).unwrap());
        }
        assert!(t.is_empty().unwrap());
    }

    /// 4,000 entries over `distinct` keys (entry `i` has key
    /// `i % distinct` and rid `i`), sorted by rid or shuffled. Keys are
    /// `width` bytes long, which keeps the fan-out near 37, so the tree
    /// grows past an internal-root split.
    fn check_duplicates(distinct: u32, width: usize, shuffled: bool) {
        const N: u32 = 4000;
        let key = |k: u32| format!("{k:08}{}", "-".repeat(width - 8)).into_bytes();
        let mut order: Vec<u32> = (0..N).collect();
        if shuffled {
            // Deterministic Fisher-Yates over a 64-bit LCG.
            let mut x = 0x9e37_79b9_7f4a_7c15u64 ^ u64::from(distinct);
            for i in (1..order.len()).rev() {
                x = x
                    .wrapping_mul(6_364_136_223_846_793_005)
                    .wrapping_add(1_442_695_040_888_963_407);
                order.swap(i, (x >> 33) as usize % (i + 1));
            }
        }
        let entries: Vec<(Vec<u8>, Rid)> =
            order.iter().map(|&i| (key(i % distinct), rid(i))).collect();
        check_entries(&entries, 3);
    }

    // 100-byte keys overflow a leaf at an even cell count (38), 103-byte
    // keys at an odd one (37), so the split point differs.
    #[test]
    fn duplicates_sorted_by_rid_survive_splits() {
        for width in [100, 103] {
            for distinct in [1, 3, 40, 4000] {
                check_duplicates(distinct, width, false);
            }
        }
    }

    #[test]
    fn duplicates_in_shuffled_order_survive_splits() {
        for width in [100, 103] {
            for distinct in [1, 3, 40, 4000] {
                check_duplicates(distinct, width, true);
            }
        }
    }

    /// A leaf holding one key splits with that same key starting its
    /// right half: the new separator equals the one already in the
    /// parent, and the new page must still land right of its sibling.
    #[test]
    fn separator_equal_to_an_existing_one_keeps_sibling_order() {
        let long = |c: u8| {
            let mut k = vec![c];
            k.extend(std::iter::repeat_n(b'.', 199));
            k
        };
        let mut entries: Vec<(Vec<u8>, Rid)> = (0..455).map(|i| (b"b".to_vec(), rid(i))).collect();
        // Splits the all-"b" leaf, then the right one whose only key is
        // "b" overflows and splits at another "b".
        entries.extend((455..466).map(|i| (long(b'c'), rid(i))));
        entries.push((long(b'd'), rid(466)));
        check_entries(&entries, 2);
    }

    #[test]
    fn empty_and_single_key_edge_cases() {
        let t = tree();
        assert!(t.is_empty().unwrap());
        t.insert(b"", rid(1)).unwrap(); // empty key is legal
        assert_eq!(t.search(b"").unwrap(), vec![rid(1)]);
        assert_eq!(t.height().unwrap(), 1);
    }
}
