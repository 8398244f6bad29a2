//! Struct-of-arrays message slabs, their recycling pool, and
//! dispatch/compute overlap statistics.
//!
//! Messages are uniform across a vertex's out-edges (paper §IV-E), so a
//! dispatcher→computer batch is naturally a sequence of *runs*: one
//! message value paired with the run of destinations it goes to. A
//! [`MsgSlab`] stores the batch in struct-of-arrays form — a flat `dst`
//! column, a per-run `msg` column, and exclusive run-end offsets — so
//! the fold side can stream the destination column with tight,
//! SIMD-friendly inner loops instead of pulling one `(VertexId, MsgVal)`
//! tuple at a time, and the dispatch side can decode CSR records
//! straight into the `dst` column with no intermediate buffer
//! ([`MsgSlab::dst_buf_mut`] + [`MsgSlab::close_run`]).
//!
//! Every batch used to be a freshly allocated buffer, dropped by the
//! computer after folding. The [`MsgSlabPool`] closes that loop:
//! dispatchers pop an empty slab from a shared free-list whenever they
//! hand a full one off, and computers push slabs back after folding
//! them. The pool population converges to the maximum number of batches
//! ever in flight, after which flushing allocates nothing — observable
//! as a byte-weighted hit rate near 1 in
//! [`crate::RunReport::pool_hit_rate`]. Stats count *bytes* of slab
//! capacity, not slab counts: SoA columns make slab payload sizes
//! diverge (a run-heavy slab carries more `msg` bytes per destination),
//! so a slab tally would misstate how much allocation the pool avoids.
//!
//! [`OverlapStats`] makes the paper's dispatch/compute overlap claim
//! measurable: the manager stamps an epoch at superstep start and the
//! first compute batch of the superstep records its arrival time against
//! it (time-to-first-batch). With chunked dispatch this should sit near
//! one chunk's worth of work, not a full interval scan.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use gpsa_graph::VertexId;

use crate::lock;

/// One dispatcher→computer batch in struct-of-arrays run form.
///
/// Run `i` is the destination slice
/// `dst[run_ends[i-1]..run_ends[i]]` (with `run_ends[-1] == 0`) carrying
/// the single message value `msg[i]`. Runs preserve emission order —
/// the fold side must not reorder them (f32 bit-identity depends on the
/// per-destination fold sequence).
#[derive(Debug)]
pub struct MsgSlab<M> {
    /// Flat destination column, all runs concatenated.
    dst: Vec<VertexId>,
    /// One message value per run.
    msg: Vec<M>,
    /// Exclusive end offset of each run within `dst`.
    run_ends: Vec<u32>,
}

impl<M> Default for MsgSlab<M> {
    fn default() -> Self {
        MsgSlab::new()
    }
}

impl<M> MsgSlab<M> {
    /// An empty slab with no reserved capacity.
    pub fn new() -> Self {
        MsgSlab {
            dst: Vec::new(),
            msg: Vec::new(),
            run_ends: Vec::new(),
        }
    }

    /// An empty slab with room for `capacity` destinations (and as many
    /// runs, the singleton-run worst case).
    pub fn with_capacity(capacity: usize) -> Self {
        MsgSlab {
            dst: Vec::with_capacity(capacity),
            msg: Vec::with_capacity(capacity),
            run_ends: Vec::with_capacity(capacity),
        }
    }

    /// Destination messages in the slab (the old per-tuple batch
    /// length).
    pub fn len(&self) -> usize {
        self.dst.len()
    }

    /// No destinations at all.
    pub fn is_empty(&self) -> bool {
        self.dst.is_empty()
    }

    /// Closed runs in the slab.
    pub fn n_runs(&self) -> usize {
        self.msg.len()
    }

    /// Reserved bytes across all three columns — what the pool's
    /// byte-weighted hit/miss stats count.
    pub fn capacity_bytes(&self) -> u64 {
        (self.dst.capacity() * std::mem::size_of::<VertexId>()
            + self.msg.capacity() * std::mem::size_of::<M>()
            + self.run_ends.capacity() * std::mem::size_of::<u32>()) as u64
    }

    /// Drop all contents, keeping the allocations.
    pub fn clear(&mut self) {
        self.dst.clear();
        self.msg.clear();
        self.run_ends.clear();
    }

    /// Append one singleton run.
    pub fn push(&mut self, dst: VertexId, msg: M) {
        debug_assert!(!self.has_open_run());
        self.dst.push(dst);
        self.msg.push(msg);
        self.run_ends.push(self.dst.len() as u32);
    }

    /// Append one run of `targets` sharing `msg` (no-op for an empty
    /// target slice).
    pub fn extend_run(&mut self, targets: &[VertexId], msg: M) {
        debug_assert!(!self.has_open_run());
        if targets.is_empty() {
            return;
        }
        self.dst.extend_from_slice(targets);
        self.msg.push(msg);
        self.run_ends.push(self.dst.len() as u32);
    }

    /// Direct access to the destination column for fused decode: CSR
    /// cursors append a record's targets here, then
    /// [`close_run`](MsgSlab::close_run) seals them as one run. The
    /// caller must close (or truncate away) whatever it appends before
    /// any other mutating call.
    pub fn dst_buf_mut(&mut self) -> &mut Vec<VertexId> {
        &mut self.dst
    }

    /// Destinations appended past the last closed run.
    pub fn open_len(&self) -> usize {
        self.dst.len() - self.run_ends.last().map_or(0, |&e| e as usize)
    }

    /// Whether an unsealed tail exists (see
    /// [`dst_buf_mut`](MsgSlab::dst_buf_mut)).
    pub fn has_open_run(&self) -> bool {
        self.open_len() > 0
    }

    /// Seal the open tail as one run carrying `msg`. No-op when nothing
    /// was appended (an empty record emits no run).
    pub fn close_run(&mut self, msg: M) {
        if self.has_open_run() {
            self.msg.push(msg);
            self.run_ends.push(self.dst.len() as u32);
        }
    }

    /// The flat destination column (closed runs only — callers must not
    /// interleave with an open tail).
    pub fn dsts(&self) -> &[VertexId] {
        &self.dst
    }
}

impl<M: Copy> MsgSlab<M> {
    /// Iterate the closed runs as `(destinations, msg)` pairs, in
    /// emission order.
    pub fn runs(&self) -> Runs<'_, M> {
        debug_assert!(!self.has_open_run());
        Runs {
            slab: self,
            i: 0,
            start: 0,
        }
    }
}

/// Append one dispatched record's messages to per-owner buffers, as
/// one run per owner: each target lands in `buffers[owner_of(target)]`,
/// and every buffer that received any seals them as one run carrying
/// `msg`. Per-owner destination order is the record's order, so a fold
/// sees the same per-vertex sequence it would from an unsplit run.
#[inline]
pub fn split_run<M: Copy>(
    buffers: &mut [MsgSlab<M>],
    targets: &[VertexId],
    msg: M,
    mut owner_of: impl FnMut(VertexId) -> usize,
) {
    for &dst in targets {
        buffers[owner_of(dst)].dst.push(dst);
    }
    for buf in buffers {
        buf.close_run(msg);
    }
}

/// Iterator over a slab's runs. See [`MsgSlab::runs`].
#[derive(Debug)]
pub struct Runs<'a, M> {
    slab: &'a MsgSlab<M>,
    i: usize,
    start: usize,
}

impl<'a, M: Copy> Iterator for Runs<'a, M> {
    type Item = (&'a [VertexId], M);

    fn next(&mut self) -> Option<Self::Item> {
        if self.i >= self.slab.msg.len() {
            return None;
        }
        let end = self.slab.run_ends[self.i] as usize;
        let run = &self.slab.dst[self.start..end];
        let m = self.slab.msg[self.i];
        self.start = end;
        self.i += 1;
        Some((run, m))
    }
}

/// A shared free-list of message slabs.
///
/// Cheap to share behind an `Arc`; every operation is one push or pop on
/// a mutex-guarded `VecDeque` (held for that push or pop only) plus
/// relaxed counter bumps. Hit/miss counters are byte-weighted (see the
/// module docs).
pub struct MsgSlabPool<M> {
    slabs: Mutex<VecDeque<MsgSlab<M>>>,
    slab_capacity: usize,
    hit_bytes: AtomicU64,
    miss_bytes: AtomicU64,
}

impl<M> MsgSlabPool<M> {
    /// A pool whose freshly allocated slabs reserve room for
    /// `slab_capacity` destinations (sized to the engine's `msg_batch`
    /// so a slab fills roughly once before flushing).
    pub fn new(slab_capacity: usize) -> Self {
        MsgSlabPool {
            slabs: Mutex::new(VecDeque::new()),
            slab_capacity,
            hit_bytes: AtomicU64::new(0),
            miss_bytes: AtomicU64::new(0),
        }
    }

    /// Pop a recycled slab, or allocate a fresh one on a miss.
    pub fn acquire(&self) -> MsgSlab<M> {
        // Popped before the match so the lock is not held across a miss's
        // allocation.
        let recycled = lock(&self.slabs).pop_front();
        match recycled {
            Some(slab) => {
                self.hit_bytes
                    .fetch_add(slab.capacity_bytes(), Ordering::Relaxed);
                slab
            }
            None => {
                let slab = MsgSlab::with_capacity(self.slab_capacity);
                self.miss_bytes
                    .fetch_add(slab.capacity_bytes(), Ordering::Relaxed);
                slab
            }
        }
    }

    /// Return a slab to the free-list. Contents are cleared; the
    /// allocations are kept for the next
    /// [`acquire`](MsgSlabPool::acquire).
    pub fn release(&self, mut slab: MsgSlab<M>) {
        slab.clear();
        lock(&self.slabs).push_back(slab);
    }

    /// Capacity bytes handed out from the free-list so far.
    pub fn hit_bytes(&self) -> u64 {
        self.hit_bytes.load(Ordering::Relaxed)
    }

    /// Capacity bytes freshly allocated on pool misses so far.
    pub fn miss_bytes(&self) -> u64 {
        self.miss_bytes.load(Ordering::Relaxed)
    }

    /// `hit_bytes / (hit_bytes + miss_bytes)`, or 0.0 for an unused
    /// pool.
    pub fn hit_rate(&self) -> f64 {
        let h = self.hit_bytes();
        let total = h + self.miss_bytes();
        if total == 0 {
            0.0
        } else {
            h as f64 / total as f64
        }
    }
}

/// Sentinel for "no batch recorded yet this superstep".
const UNSET: u64 = u64::MAX;

/// Time-to-first-compute-batch per superstep.
///
/// The manager calls [`begin_superstep`](OverlapStats::begin_superstep)
/// before sending ITERATION_START; the first computer to fold a batch
/// CASes its offset from the epoch into place. The manager harvests the
/// value at superstep completion with
/// [`take_first_batch`](OverlapStats::take_first_batch).
pub(crate) struct OverlapStats {
    epoch: Mutex<Instant>,
    first_batch_us: AtomicU64,
}

impl OverlapStats {
    pub(crate) fn new() -> Self {
        OverlapStats {
            epoch: Mutex::new(Instant::now()),
            first_batch_us: AtomicU64::new(UNSET),
        }
    }

    /// Reset the superstep epoch. Called by the manager, strictly before
    /// any dispatcher of the superstep is started.
    pub(crate) fn begin_superstep(&self) {
        *lock(&self.epoch) = Instant::now();
        self.first_batch_us.store(UNSET, Ordering::Release);
    }

    /// Record "a compute batch is being folded now" — only the first call
    /// per superstep wins. The fast path (already recorded) is one relaxed
    /// load.
    pub(crate) fn record_first_batch(&self) {
        if self.first_batch_us.load(Ordering::Relaxed) != UNSET {
            return;
        }
        let us = lock(&self.epoch).elapsed().as_micros() as u64;
        let _ = self.first_batch_us.compare_exchange(
            UNSET,
            us.min(UNSET - 1),
            Ordering::AcqRel,
            Ordering::Relaxed,
        );
    }

    /// The superstep's time-to-first-batch, if any batch arrived.
    pub(crate) fn take_first_batch(&self) -> Option<Duration> {
        match self.first_batch_us.load(Ordering::Acquire) {
            UNSET => None,
            us => Some(Duration::from_micros(us)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slab_runs_roundtrip() {
        let mut s = MsgSlab::<u32>::new();
        assert!(s.is_empty());
        s.push(5, 100);
        s.extend_run(&[7, 8, 9], 200);
        s.extend_run(&[], 999); // empty record: no run
        s.dst_buf_mut().extend_from_slice(&[1, 2]);
        assert_eq!(s.open_len(), 2);
        s.close_run(300);
        s.close_run(888); // nothing open: no-op
        assert_eq!(s.len(), 6);
        assert_eq!(s.n_runs(), 3);
        let runs: Vec<(Vec<u32>, u32)> = s.runs().map(|(d, m)| (d.to_vec(), m)).collect();
        assert_eq!(
            runs,
            vec![(vec![5], 100), (vec![7, 8, 9], 200), (vec![1, 2], 300),]
        );
        assert_eq!(s.dsts(), &[5, 7, 8, 9, 1, 2]);
        s.clear();
        assert!(s.is_empty() && s.n_runs() == 0);
    }

    #[test]
    fn pool_recycles_and_counts_bytes() {
        let pool = MsgSlabPool::<u32>::new(8);
        let mut a = pool.acquire();
        // 8 dst u32 + 8 msg u32 + 8 run_ends u32.
        let fresh_bytes = a.capacity_bytes();
        assert_eq!(fresh_bytes, 8 * 4 * 3);
        assert_eq!((pool.hit_bytes(), pool.miss_bytes()), (0, fresh_bytes));
        a.push(1, 2);
        pool.release(a);
        let b = pool.acquire();
        assert!(b.is_empty(), "released slabs come back cleared");
        assert_eq!(
            (pool.hit_bytes(), pool.miss_bytes()),
            (fresh_bytes, fresh_bytes)
        );
        assert!((pool.hit_rate() - 0.5).abs() < 1e-9);
        pool.release(b);
    }

    #[test]
    fn empty_pool_hit_rate_is_zero() {
        assert_eq!(MsgSlabPool::<u32>::new(4).hit_rate(), 0.0);
    }

    #[test]
    fn overlap_stats_record_only_first_batch() {
        let s = OverlapStats::new();
        assert!(s.take_first_batch().is_none());
        s.begin_superstep();
        std::thread::sleep(Duration::from_millis(2));
        s.record_first_batch();
        let first = s.take_first_batch().expect("recorded");
        assert!(first >= Duration::from_millis(1));
        std::thread::sleep(Duration::from_millis(2));
        s.record_first_batch();
        assert_eq!(s.take_first_batch(), Some(first), "later batches ignored");
        s.begin_superstep();
        assert!(
            s.take_first_batch().is_none(),
            "epoch reset clears the record"
        );
    }
}
