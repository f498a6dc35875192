//! Redbase-style storage substrate for WSQ/DSQ.
//!
//! The paper's prototype is built on *Redbase*, the instructional RDBMS
//! built by Stanford students: a paged file layer with a page-level buffer,
//! heap files of variable-length records, and an iterator-based executor on
//! top. This crate reproduces that substrate:
//!
//! * [`disk`] — per-file page storage ([`FileStorage`] on disk,
//!   [`MemStorage`] in memory).
//! * [`buffer`] — a shared [`BufferPool`] with LRU replacement and
//!   write-back of dirty pages, serving pages from any number of registered
//!   files.
//! * [`slotted`] — the slotted-page record layout (slot directory growing
//!   forward, record heap growing backward, tombstones, compaction).
//! * [`heap`] — [`HeapFile`]: unordered collections of records addressed by
//!   [`Rid`], with full-scan iteration.
//! * [`codec`] — serialization of [`wsq_common::Tuple`]s to records and
//!   back, driven by a [`wsq_common::Schema`].

pub mod btree;
pub mod buffer;
pub mod codec;
pub mod disk;
pub mod heap;
pub mod page;
pub mod slotted;

pub use btree::BTree;
pub use buffer::{BufferPool, PoolStats};
pub use disk::{FileStorage, MemStorage, Storage};
pub use heap::{HeapCursor, HeapFile, Rid};
pub use page::{FileId, PageId, PAGE_SIZE};
