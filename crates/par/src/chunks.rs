//! The chunk plan: the *only* place parallel granularity is decided.
//!
//! Determinism hinges on chunk boundaries being a pure function of the
//! input length — independent of thread count, pool size, machine, and
//! scheduling — because [`crate::Exec::par_reduce_det`]'s combine tree is
//! keyed by chunk index. Change these constants and every recorded
//! reduction changes bits; they are part of the determinism contract
//! (DESIGN.md §8).
//!
//! Two plans exist. [`ChunkPlan::for_len`] serves fine loops, whose
//! elements cost nanoseconds: it batches them into at most 64 chunks and
//! runs short lists inline. [`ChunkPlan::per_task`] serves coarse task
//! lists (shards, corpus segments), whose elements each cost milliseconds:
//! one chunk per element and no minimum length, so two tasks already use
//! two threads. Task outputs are index-addressed, so neither plan can
//! change a bit.

use std::ops::Range;

/// Never split below this many elements per chunk: tiny chunks pay more in
/// claim traffic than they win in overlap.
const MIN_CHUNK: usize = 16;

/// Never produce more than this many chunks. 64 partials keep the combine
/// tree trivial while leaving 8 chunks per thread of load-balancing slack
/// at the largest sane `--threads`.
const MAX_CHUNKS: usize = 64;

/// Below this many total elements, a region runs inline on the caller:
/// submitting pool jobs, waking workers, and parking the caller costs more
/// than the loop itself. This gates only *where* chunks execute — the
/// boundaries (and therefore every recorded reduction) are unchanged.
const MIN_PARALLEL_LEN: usize = 64;

/// A fixed partition of `0..len` into contiguous chunks.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ChunkPlan {
    len: usize,
    chunk_size: usize,
    chunks: usize,
    /// One chunk per element of a coarse task list ([`ChunkPlan::per_task`]).
    tasks: bool,
}

impl ChunkPlan {
    /// The canonical plan for an input of `len` elements.
    pub fn for_len(len: usize) -> ChunkPlan {
        if len == 0 {
            return ChunkPlan {
                len: 0,
                chunk_size: MIN_CHUNK,
                chunks: 0,
                tasks: false,
            };
        }
        let chunk_size = len.div_ceil(MAX_CHUNKS).max(MIN_CHUNK);
        ChunkPlan {
            len,
            chunk_size,
            chunks: len.div_ceil(chunk_size),
            tasks: false,
        }
    }

    /// The plan for a coarse task list of `len` elements: one chunk per
    /// element, worth a pool from two tasks up.
    pub fn per_task(len: usize) -> ChunkPlan {
        ChunkPlan {
            len,
            chunk_size: 1,
            chunks: len,
            tasks: true,
        }
    }

    /// Total elements covered.
    pub(crate) fn len(&self) -> usize {
        self.len
    }

    /// Number of chunks (0 only for empty input).
    pub fn chunks(&self) -> usize {
        self.chunks
    }

    /// Elements per chunk (the last chunk may be shorter).
    pub fn chunk_size(&self) -> usize {
        self.chunk_size
    }

    /// Whether fanning this plan out to a pool can plausibly win: more
    /// than one chunk *and* enough total work to amortise dispatch (any
    /// two tasks of a [`per_task`](ChunkPlan::per_task) plan are).
    /// `Exec::for_each_chunk` runs non-worthwhile plans inline on the
    /// caller — same chunks, same order as `threads == 1`, so the output
    /// is bit-identical either way.
    pub fn parallel_worthwhile(&self) -> bool {
        self.chunks > 1 && (self.tasks || self.len >= MIN_PARALLEL_LEN)
    }

    /// The element range of chunk `c`.
    ///
    /// # Panics
    /// Panics if `c` is out of range.
    pub fn range(&self, c: usize) -> Range<usize> {
        assert!(c < self.chunks, "chunk {c} out of {}", self.chunks);
        let start = c * self.chunk_size;
        start..(start + self.chunk_size).min(self.len)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_has_no_chunks() {
        assert_eq!(ChunkPlan::for_len(0).chunks(), 0);
    }

    #[test]
    fn ranges_partition_the_input() {
        for len in [1, 15, 16, 17, 100, 1023, 1024, 1025, 65_536, 1_000_000] {
            let plan = ChunkPlan::for_len(len);
            let mut covered = 0;
            for c in 0..plan.chunks() {
                let r = plan.range(c);
                assert_eq!(r.start, covered, "gap before chunk {c} at len {len}");
                assert!(r.end > r.start);
                covered = r.end;
            }
            assert_eq!(covered, len);
            assert!(plan.chunks() <= MAX_CHUNKS);
        }
    }

    #[test]
    fn small_inputs_stay_single_chunk() {
        for len in 1..=MIN_CHUNK {
            assert_eq!(ChunkPlan::for_len(len).chunks(), 1);
        }
    }

    #[test]
    fn work_floor_gates_tiny_inputs() {
        // Single-chunk plans are never worth dispatching.
        for len in [0, 1, MIN_CHUNK] {
            assert!(!ChunkPlan::for_len(len).parallel_worthwhile(), "len {len}");
        }
        // Multi-chunk but below the work floor: still inline.
        assert!(ChunkPlan::for_len(MIN_PARALLEL_LEN - 1).chunks() > 1);
        assert!(!ChunkPlan::for_len(MIN_PARALLEL_LEN - 1).parallel_worthwhile());
        // At the floor with multiple chunks the pool takes over.
        assert!(ChunkPlan::for_len(MIN_PARALLEL_LEN).parallel_worthwhile());
        assert!(ChunkPlan::for_len(1_000_000).parallel_worthwhile());
    }

    #[test]
    fn task_plans_fan_out_from_two_tasks() {
        assert_eq!(ChunkPlan::per_task(0).chunks(), 0);
        assert!(!ChunkPlan::per_task(1).parallel_worthwhile());
        for len in [2, 3, 63, 200] {
            let plan = ChunkPlan::per_task(len);
            assert_eq!(plan.chunks(), len);
            assert!(plan.parallel_worthwhile(), "len {len}");
            assert!((0..len).all(|c| plan.range(c) == (c..c + 1)));
        }
        // The fine-loop plan for the same short lists stays inline.
        assert!(!ChunkPlan::for_len(2).parallel_worthwhile());
    }

    #[test]
    #[should_panic(expected = "out of")]
    fn out_of_range_chunk_panics() {
        let plan = ChunkPlan::for_len(10);
        let _ = plan.range(1);
    }
}
