//! A pinned buffer pool for page-granular snapshot access.
//!
//! [`crate::backend::paged::PagedBackend`] reads DXTS snapshots through
//! this pool instead of slurping the file into RAM: the format (see
//! [`crate::backend::paged`]) splits every store column into fixed-size
//! pages, and the pool keeps at most `budget / page_size` of them
//! resident at once. The design is the read side of the classic
//! database buffer manager:
//!
//! * pages are addressed by [`BlockId`] and faulted in from a
//!   [`PageSource`] on first touch;
//! * a successful [`BufferPool::pin`] hands back a [`PageRef`] — the
//!   page cannot be evicted while any `PageRef` to it is live, and the
//!   ref must be returned through [`BufferPool::unpin`];
//! * when every frame is occupied, the unpinned frame touched least
//!   recently (strict LRU over per-frame access stamps) is recycled;
//!   snapshots are immutable, so a frame is never written back;
//! * [`PoolStats`] counts hits/misses/evictions and tracks the peak
//!   resident byte count, which the scaling bench gate
//!   (`benches/paged.rs`) asserts never exceeds the configured budget.
//!
//! Frames are allocated lazily, so a large budget over a small file
//! costs only what the file needs. A budget smaller than one page is
//! rejected up front — a pool that cannot hold a single page cannot
//! serve any read.

use crate::error::DogmatixError;
use std::collections::HashMap;
use std::fmt;

fn pool_err(message: impl Into<String>) -> DogmatixError {
    DogmatixError::Snapshot {
        message: message.into(),
    }
}

/// Identifies one fixed-size page of a paged snapshot.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct BlockId(pub u32);

impl fmt::Display for BlockId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "block {}", self.0)
    }
}

/// Where the pool faults pages in from.
///
/// Implementations verify their own integrity on read — the snapshot
/// source checks the per-page checksum from the file header before
/// handing a page to the pool, so a byte flip anywhere in the data
/// region surfaces as a [`DogmatixError::Snapshot`] at fault-in time.
pub trait PageSource: fmt::Debug + Send {
    /// The fixed page size, in bytes. Every page, including the last
    /// one of a section, occupies exactly this many bytes on disk.
    fn page_size(&self) -> usize;

    /// Total number of pages the source holds; valid blocks are
    /// `0..page_count`.
    fn page_count(&self) -> u32;

    /// Reads page `block` into `buf` (`buf.len() == page_size()`),
    /// verifying integrity.
    fn read_page(&mut self, block: BlockId, buf: &mut [u8]) -> Result<(), DogmatixError>;
}

/// Counters the pool maintains; snapshot via [`BufferPool::stats`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PoolStats {
    /// Pins served from an already-resident frame.
    pub hits: u64,
    /// Pins that faulted the page in from the source.
    pub misses: u64,
    /// Frames recycled to make room for a faulting page.
    pub evictions: u64,
    /// Total [`BufferPool::pin`] calls that succeeded.
    pub pins: u64,
    /// Total [`BufferPool::unpin`] calls.
    pub unpins: u64,
    /// Bytes currently held in allocated frames.
    pub resident_bytes: usize,
    /// High-water mark of `resident_bytes` — the number the scaling
    /// bench holds under the configured memory budget.
    pub peak_resident_bytes: usize,
}

/// A live pin on one page. Obtained from [`BufferPool::pin`], consumed
/// by [`BufferPool::unpin`]; while any `PageRef` to a page exists, the
/// page cannot be evicted. Deliberately neither `Copy` nor `Clone`, so
/// pins and unpins balance by construction.
#[derive(Debug)]
#[must_use = "a pinned page must be returned via BufferPool::unpin"]
pub struct PageRef {
    frame: usize,
    block: BlockId,
}

impl PageRef {
    /// The page this pin holds.
    pub fn block(&self) -> BlockId {
        self.block
    }
}

#[derive(Debug)]
struct Frame {
    data: Box<[u8]>,
    /// The resident page; `None` while the frame is empty (freshly
    /// allocated, or its fault-in failed after eviction).
    block: Option<BlockId>,
    pin_count: u32,
    /// Pool clock at the frame's latest pin: the LRU victim is the
    /// unpinned frame with the smallest stamp.
    stamp: u64,
}

/// A budget-bounded pool of page frames over a [`PageSource`]. See the
/// [module docs](self) for the pin/unpin/eviction protocol.
#[derive(Debug)]
pub struct BufferPool {
    source: Box<dyn PageSource>,
    frames: Vec<Frame>,
    /// block id → frame index, for every resident page.
    table: HashMap<u32, usize>,
    capacity: usize,
    page_size: usize,
    clock: u64,
    stats: PoolStats,
}

impl BufferPool {
    /// A pool over `source` holding at most `budget_bytes` of page
    /// frames, with least-recently-used eviction. Fails if the budget
    /// does not admit even one page.
    pub fn new(
        source: Box<dyn PageSource>,
        budget_bytes: usize,
    ) -> Result<BufferPool, DogmatixError> {
        let page_size = source.page_size();
        if page_size == 0 {
            return Err(pool_err("page source reports a zero page size"));
        }
        if budget_bytes / page_size == 0 {
            return Err(pool_err(format!(
                "memory budget of {budget_bytes} B does not admit a single \
                 {page_size} B page — raise the budget"
            )));
        }
        // More frames than the source has pages would never be filled;
        // capping here also keeps the victim scan proportional to the
        // file, so an effectively unbounded budget costs nothing.
        let capacity = (budget_bytes / page_size).min(source.page_count().max(1) as usize);
        Ok(BufferPool {
            source,
            frames: Vec::new(),
            table: HashMap::new(),
            capacity,
            page_size,
            clock: 0,
            stats: PoolStats::default(),
        })
    }

    /// The fixed page size, in bytes.
    pub fn page_size(&self) -> usize {
        self.page_size
    }

    /// Maximum number of frames the budget admits.
    pub fn capacity_frames(&self) -> usize {
        self.capacity
    }

    /// Current counters (copied out).
    pub fn stats(&self) -> PoolStats {
        self.stats
    }

    /// Pin count of `block`, or 0 if the page is not resident. Test and
    /// audit hook; detection code holds [`PageRef`]s instead.
    pub fn pin_count(&self, block: BlockId) -> u32 {
        self.table
            .get(&block.0)
            .and_then(|&f| self.frames.get(f))
            .map_or(0, |frame| frame.pin_count)
    }

    /// Number of pages currently resident in frames.
    pub fn resident_pages(&self) -> usize {
        self.table.len()
    }

    /// Pins `block`, faulting it in from the source if needed. Fails if
    /// the block is out of range, the source rejects the read (e.g. a
    /// per-page checksum mismatch), or every frame is pinned.
    pub fn pin(&mut self, block: BlockId) -> Result<PageRef, DogmatixError> {
        if block.0 >= self.source.page_count() {
            return Err(pool_err(format!(
                "{block} out of range: source holds {} pages",
                self.source.page_count()
            )));
        }
        let frame_ix = match self.table.get(&block.0) {
            Some(&frame_ix) => {
                self.stats.hits += 1;
                frame_ix
            }
            None => {
                let frame_ix = self.free_frame()?;
                // Fault the page in before publishing it in the table,
                // so a failed read leaves the frame empty (and
                // unpinned, hence reusable) rather than half-filled.
                self.source
                    .read_page(block, &mut self.frames[frame_ix].data)?;
                self.stats.misses += 1;
                self.frames[frame_ix].block = Some(block);
                self.table.insert(block.0, frame_ix);
                frame_ix
            }
        };
        self.stats.pins += 1;
        self.clock += 1;
        let frame = &mut self.frames[frame_ix];
        frame.pin_count += 1;
        frame.stamp = self.clock;
        Ok(PageRef {
            frame: frame_ix,
            block,
        })
    }

    /// Finds an empty frame for a faulting page: allocate a new one
    /// while under budget, otherwise evict the least recently pinned
    /// unpinned frame.
    fn free_frame(&mut self) -> Result<usize, DogmatixError> {
        if self.frames.len() < self.capacity {
            self.frames.push(Frame {
                data: vec![0u8; self.page_size].into_boxed_slice(),
                block: None,
                pin_count: 0,
                stamp: 0,
            });
            self.stats.resident_bytes += self.page_size;
            self.stats.peak_resident_bytes = self
                .stats
                .peak_resident_bytes
                .max(self.stats.resident_bytes);
            return Ok(self.frames.len() - 1);
        }
        let victim = self
            .frames
            .iter()
            .enumerate()
            .filter(|(_, f)| f.pin_count == 0)
            .min_by_key(|(_, f)| f.stamp)
            .map(|(ix, _)| ix)
            .ok_or_else(|| {
                pool_err(format!(
                    "buffer pool exhausted: all {} frames pinned (budget {} B) — \
                     raise --mem-budget or unpin pages",
                    self.capacity,
                    self.capacity * self.page_size
                ))
            })?;
        if let Some(old) = self.frames[victim].block.take() {
            self.table.remove(&old.0);
            self.stats.evictions += 1;
        }
        Ok(victim)
    }

    /// Read access to a pinned page.
    pub fn data(&self, page: &PageRef) -> &[u8] {
        &self.frames[page.frame].data
    }

    /// Releases one pin. When the last pin on a page drops, the page
    /// becomes a legal eviction victim (its contents stay resident
    /// until the frame is actually recycled).
    pub fn unpin(&mut self, page: PageRef) {
        self.stats.unpins += 1;
        let frame = &mut self.frames[page.frame];
        frame.pin_count = frame.pin_count.saturating_sub(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// An in-memory source: page i is filled with byte `i as u8`.
    #[derive(Debug)]
    struct VecSource {
        pages: Vec<Vec<u8>>,
        page_size: usize,
    }

    impl VecSource {
        fn new(page_count: u32, page_size: usize) -> VecSource {
            VecSource {
                pages: (0..page_count).map(|i| vec![i as u8; page_size]).collect(),
                page_size,
            }
        }
    }

    impl PageSource for VecSource {
        fn page_size(&self) -> usize {
            self.page_size
        }
        fn page_count(&self) -> u32 {
            self.pages.len() as u32
        }
        fn read_page(&mut self, block: BlockId, buf: &mut [u8]) -> Result<(), DogmatixError> {
            buf.copy_from_slice(&self.pages[block.0 as usize]);
            Ok(())
        }
    }

    fn pool(pages: u32, frames: usize) -> BufferPool {
        BufferPool::new(Box::new(VecSource::new(pages, 64)), frames * 64).unwrap()
    }

    #[test]
    fn budget_below_one_page_is_rejected() {
        let err = BufferPool::new(Box::new(VecSource::new(4, 64)), 63).unwrap_err();
        assert!(err.to_string().contains("does not admit"), "{err}");
    }

    #[test]
    fn pin_faults_in_and_rereads_are_hits() {
        let mut p = pool(4, 2);
        let a = p.pin(BlockId(3)).unwrap();
        assert_eq!(p.data(&a), &[3u8; 64][..]);
        let b = p.pin(BlockId(3)).unwrap();
        assert_eq!(p.stats().misses, 1);
        assert_eq!(p.stats().hits, 1);
        assert_eq!(p.pin_count(BlockId(3)), 2);
        p.unpin(a);
        p.unpin(b);
        assert_eq!(p.pin_count(BlockId(3)), 0);
    }

    #[test]
    fn out_of_range_block_is_rejected() {
        let mut p = pool(4, 2);
        let err = p.pin(BlockId(4)).unwrap_err();
        assert!(err.to_string().contains("out of range"), "{err}");
    }

    #[test]
    fn eviction_respects_pins_and_lru_order() {
        let mut p = pool(8, 2);
        let a = p.pin(BlockId(0)).unwrap();
        let b = p.pin(BlockId(1)).unwrap();
        // Full and everything pinned: a third page must fail.
        let err = p.pin(BlockId(2)).unwrap_err();
        assert!(err.to_string().contains("exhausted"), "{err}");
        // Unpin page 0 only — it becomes the (only legal) victim.
        p.unpin(a);
        let c = p.pin(BlockId(2)).unwrap();
        assert_eq!(p.stats().evictions, 1);
        assert_eq!(p.pin_count(BlockId(0)), 0);
        assert!(!p.table.contains_key(&0), "page 0 must have been evicted");
        assert_eq!(p.data(&b), &[1u8; 64][..]);
        assert_eq!(p.data(&c), &[2u8; 64][..]);
        p.unpin(b);
        p.unpin(c);
        // LRU: 1 is now older than 2, so faulting 3 evicts 1.
        let d = p.pin(BlockId(3)).unwrap();
        assert!(!p.table.contains_key(&1), "LRU victim must be page 1");
        assert!(p.table.contains_key(&2));
        p.unpin(d);
    }

    #[test]
    fn peak_residency_stays_within_budget() {
        let mut p = pool(16, 3);
        for round in 0..4u32 {
            for i in 0..16u32 {
                let r = p.pin(BlockId((i * 7 + round) % 16)).unwrap();
                p.unpin(r);
            }
        }
        let stats = p.stats();
        assert!(stats.peak_resident_bytes <= 3 * 64);
        assert_eq!(stats.resident_bytes, 3 * 64);
        assert_eq!(stats.pins, stats.unpins);
        assert!(stats.evictions > 0);
    }

    #[test]
    fn lazy_allocation_never_exceeds_the_working_set() {
        let mut p = pool(16, 8);
        let a = p.pin(BlockId(5)).unwrap();
        let b = p.pin(BlockId(6)).unwrap();
        p.unpin(a);
        p.unpin(b);
        // Only two distinct pages were touched: two frames allocated.
        assert_eq!(p.stats().resident_bytes, 2 * 64);
        assert_eq!(p.resident_pages(), 2);
    }

    #[test]
    fn failed_reads_leave_the_pool_reusable() {
        #[derive(Debug)]
        struct Flaky {
            fail_next: bool,
        }
        impl PageSource for Flaky {
            fn page_size(&self) -> usize {
                8
            }
            fn page_count(&self) -> u32 {
                2
            }
            fn read_page(&mut self, block: BlockId, buf: &mut [u8]) -> Result<(), DogmatixError> {
                if self.fail_next {
                    self.fail_next = false;
                    return Err(DogmatixError::Snapshot {
                        message: "checksum mismatch".into(),
                    });
                }
                buf.fill(block.0 as u8);
                Ok(())
            }
        }
        let mut p = BufferPool::new(Box::new(Flaky { fail_next: true }), 8).unwrap();
        let err = p.pin(BlockId(0)).unwrap_err();
        assert!(err.to_string().contains("checksum"), "{err}");
        // The frame the failed read claimed is reusable.
        let a = p.pin(BlockId(1)).unwrap();
        assert_eq!(p.data(&a), &[1u8; 8][..]);
        p.unpin(a);
    }
}
