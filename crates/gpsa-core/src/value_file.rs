//! The memory-mapped two-column vertex value file (paper §IV-D, §IV-F).
//!
//! Layout: one 4 KiB header page, then two interleaved 32-bit slots per
//! vertex — columns 0 and 1 "next to each other" exactly as in the paper
//! (`offset(v) = |V| * sizeof(Val)` generalized to `2 * v + column`). The
//! columns alternate roles every superstep: one is read by dispatchers
//! (the result of the previous superstep), the other is written by compute
//! actors. Bit 31 of every slot is the *not-updated* flag ([`crate::word`]).
//!
//! # Torn-proof commits (format v2)
//!
//! The header carries **two commit slots** (A/B), written alternately.
//! Each slot records the committed superstep, the next dispatch column,
//! a monotonic sequence number, a copy of the file identity, and a CRC32
//! over all of it. A commit that dies mid-write can only tear the slot it
//! was writing; the other slot still holds the previous commit with a
//! valid checksum, so [`ValueFile::recover`] (which picks the
//! highest-sequence valid slot) never observes a half-written commit.
//! Durable commits `msync` the value pages *before* the header page so
//! the slot on disk never describes data that has not reached the file.
//!
//! Because the dispatch column is never payload-mutated during a
//! superstep, a crash mid-superstep always leaves one intact column — the
//! paper's lightweight fault tolerance (§IV-G); [`ValueFile::recover`]
//! rebuilds a runnable state from it.

use std::path::Path;
use std::sync::atomic::{AtomicU32, Ordering};

use gpsa_mmap::MmapMut;

use crate::frontier::Frontier;
use crate::value::VertexValue;
use crate::word::{clear_flag, set_flag};

const MAGIC: u32 = u32::from_le_bytes(*b"GVAL");
const VERSION: u32 = 2;
/// Header page size in bytes / words.
const HEADER_BYTES: usize = 4096;
const HEADER_WORDS: usize = HEADER_BYTES / 4;

// Identity words (written once at create, never touched by commits).
const W_MAGIC: usize = 0;
const W_VERSION: usize = 1;
const W_NVERT_LO: usize = 2;
const W_NVERT_HI: usize = 3;
/// First global vertex id held by this file (0 for single-node files; a
/// node's range start in the distributed simulation).
const W_BASE: usize = 4;

// Commit slots: 8 words each, at word offsets 8 (slot A) and 16 (slot B).
const SLOT_WORDS: usize = 8;
const SLOT_BASE: [usize; 2] = [8, 16];
// Word offsets within a slot. The CRC is written last; everything before
// it is covered by it, including a copy of the file identity so a slot
// can never validate against the wrong file.
const S_SEQ_LO: usize = 0;
const S_SEQ_HI: usize = 1;
/// Committed superstep, biased by +1 so 0 means "initialized, none run".
const S_COMMITTED: usize = 2;
const S_NEXT_DISPATCH: usize = 3;
const S_NVERT_LO: usize = 4;
const S_NVERT_HI: usize = 5;
const S_BASE: usize = 6;
const S_CRC: usize = 7;

// CRC32 (IEEE, reflected, poly 0xEDB88320) over the little-endian bytes
// of the first seven slot words. Table generated at compile time — no
// external crate needed.
const fn crc_table() -> [u32; 256] {
    let mut table = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 {
                0xEDB8_8320 ^ (c >> 1)
            } else {
                c >> 1
            };
            k += 1;
        }
        table[i] = c;
        i += 1;
    }
    table
}

static CRC_TABLE: [u32; 256] = crc_table();

fn crc32_words(words: &[u32]) -> u32 {
    let mut c = 0xFFFF_FFFFu32;
    for &w in words {
        for b in w.to_le_bytes() {
            c = CRC_TABLE[((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8);
        }
    }
    !c
}

/// CRC32 (IEEE, reflected) over raw bytes — the same polynomial and table
/// the commit slots use, exported so sibling on-disk records (the
/// distributed cluster manifest) checksum with the identical algorithm.
pub fn crc32(bytes: &[u8]) -> u32 {
    let mut c = 0xFFFF_FFFFu32;
    for &b in bytes {
        c = CRC_TABLE[((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8);
    }
    !c
}

/// Typed failures from [`ValueFile::open`] and friends. Corrupt or
/// truncated files are reported, never panicked on.
#[derive(Debug)]
pub enum ValueFileError {
    /// Underlying filesystem / mapping failure.
    Io(std::io::Error),
    /// File is shorter than the header page, or not word-aligned.
    Truncated {
        /// Observed file length in bytes.
        len: usize,
    },
    /// The magic word is not `GVAL`.
    BadMagic(u32),
    /// The format version is not the one this build writes.
    UnsupportedVersion(u32),
    /// File length disagrees with the vertex count in the header.
    SizeMismatch {
        /// Length the header implies.
        expected: usize,
        /// Length on disk.
        actual: usize,
    },
    /// Neither commit slot has a valid checksum — the header page is
    /// corrupt beyond what the dual-slot scheme can absorb.
    NoValidCommitSlot,
}

impl std::fmt::Display for ValueFileError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ValueFileError::Io(e) => write!(f, "value file I/O error: {e}"),
            ValueFileError::Truncated { len } => {
                write!(f, "value file truncated or misaligned ({len} bytes)")
            }
            ValueFileError::BadMagic(m) => write!(f, "not a GVAL value file (magic {m:#010x})"),
            ValueFileError::UnsupportedVersion(v) => {
                write!(f, "unsupported GVAL version {v} (expected {VERSION})")
            }
            ValueFileError::SizeMismatch { expected, actual } => write!(
                f,
                "value file length mismatch (header implies {expected} bytes, file has {actual})"
            ),
            ValueFileError::NoValidCommitSlot => {
                write!(
                    f,
                    "no commit slot passes its checksum (corrupt header page)"
                )
            }
        }
    }
}

impl std::error::Error for ValueFileError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ValueFileError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for ValueFileError {
    fn from(e: std::io::Error) -> Self {
        ValueFileError::Io(e)
    }
}

impl From<gpsa_mmap::Error> for ValueFileError {
    fn from(e: gpsa_mmap::Error) -> Self {
        ValueFileError::Io(e.into())
    }
}

impl From<ValueFileError> for std::io::Error {
    fn from(e: ValueFileError) -> Self {
        match e {
            ValueFileError::Io(e) => e,
            other => std::io::Error::new(std::io::ErrorKind::InvalidData, other.to_string()),
        }
    }
}

/// Decoded header state.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ValueFileHeader {
    /// Number of vertices.
    pub n_vertices: u64,
    /// Last committed superstep (`None` right after initialization).
    pub committed_superstep: Option<u64>,
    /// Column that the *next* superstep dispatches (reads) from.
    pub next_dispatch_col: u32,
}

/// One decoded commit slot.
#[derive(Debug, Clone, Copy)]
struct CommitSlot {
    seq: u64,
    /// Committed superstep, biased by +1 (0 = none yet).
    committed_biased: u32,
    next_dispatch: u32,
}

/// The mmap-backed value file. All slot accesses are atomic so dispatch and
/// compute actors can share one instance behind an `Arc`.
#[derive(Debug)]
pub struct ValueFile {
    map: MmapMut,
    n: usize,
    /// First global vertex id stored here; slots are indexed by `v - base`.
    base: u32,
    /// In-memory active-vertex bitmaps, one per column, kept in lockstep
    /// with the flag bits (see [`crate::frontier`] for the superset
    /// invariant and why recovery never needs to persist them).
    frontier: Frontier,
    /// Chaos hook: scripted msync failures / torn headers.
    #[cfg(feature = "chaos")]
    fault: std::sync::Mutex<Option<std::sync::Arc<crate::fault::FaultPlan>>>,
}

impl ValueFile {
    /// Create a fresh value file for `n` vertices.
    ///
    /// `init` supplies each vertex's initial value and whether the vertex
    /// starts *active*. Both columns receive the payload; the column that
    /// superstep 0 dispatches from (column 0) gets the flag **cleared**
    /// for active vertices (initialization counts as an update, otherwise
    /// superstep 0 would dispatch nothing), while the superstep-0 update
    /// column (column 1) starts fully flagged.
    pub fn create<P, V, F>(path: P, n: usize, init: F) -> Result<ValueFile, ValueFileError>
    where
        P: AsRef<Path>,
        V: VertexValue,
        F: FnMut(u32) -> (V, bool),
    {
        Self::create_ranged(path, 0..n as u32, init)
    }

    /// Create a value file holding only the global vertex range
    /// `range` — one shard of a distributed deployment. Slot addressing
    /// still uses global ids.
    pub fn create_ranged<P, V, F>(
        path: P,
        range: std::ops::Range<u32>,
        mut init: F,
    ) -> Result<ValueFile, ValueFileError>
    where
        P: AsRef<Path>,
        V: VertexValue,
        F: FnMut(u32) -> (V, bool),
    {
        let n = (range.end - range.start) as usize;
        let len = HEADER_BYTES + n * 8;
        let map = MmapMut::create(path, len)?;
        let vf = ValueFile {
            map,
            n,
            base: range.start,
            frontier: Frontier::new(range.clone()),
            #[cfg(feature = "chaos")]
            fault: std::sync::Mutex::new(None),
        };
        {
            let words = vf.words();
            words[W_MAGIC].store(MAGIC, Ordering::Relaxed);
            words[W_VERSION].store(VERSION, Ordering::Relaxed);
            words[W_NVERT_LO].store(n as u32, Ordering::Relaxed);
            words[W_NVERT_HI].store(((n as u64) >> 32) as u32, Ordering::Relaxed);
            words[W_BASE].store(range.start, Ordering::Relaxed);
            for v in range {
                let (val, active) = init(v);
                let bits = val.to_bits();
                let dispatch_bits = if active {
                    vf.frontier.mark(0, v);
                    bits
                } else {
                    set_flag(bits)
                };
                vf.store(0, v, dispatch_bits);
                vf.store(1, v, set_flag(bits));
            }
        }
        // Slot A seeds seq 1 / "nothing committed"; slot B stays zeroed
        // (an all-zero slot has seq 0 and an invalid CRC, so it is never
        // selected).
        vf.write_slot(
            0,
            CommitSlot {
                seq: 1,
                committed_biased: 0,
                next_dispatch: 0,
            },
            false,
        );
        vf.flush()?;
        Ok(vf)
    }

    /// Open an existing value file, validating the header. Truncated or
    /// corrupt files yield a typed [`ValueFileError`], never a panic.
    pub fn open<P: AsRef<Path>>(path: P) -> Result<ValueFile, ValueFileError> {
        let map = MmapMut::open(path)?;
        let len = map.len();
        if len < HEADER_BYTES || len % 4 != 0 {
            return Err(ValueFileError::Truncated { len });
        }
        let vf = ValueFile {
            map,
            n: 0,
            base: 0,
            frontier: Frontier::new(0..0),
            #[cfg(feature = "chaos")]
            fault: std::sync::Mutex::new(None),
        };
        let (magic, version, n, base) = {
            let words = vf.words();
            (
                words[W_MAGIC].load(Ordering::Relaxed),
                words[W_VERSION].load(Ordering::Relaxed),
                words[W_NVERT_LO].load(Ordering::Relaxed) as u64
                    | (words[W_NVERT_HI].load(Ordering::Relaxed) as u64) << 32,
                words[W_BASE].load(Ordering::Relaxed),
            )
        };
        if magic != MAGIC {
            return Err(ValueFileError::BadMagic(magic));
        }
        if version != VERSION {
            return Err(ValueFileError::UnsupportedVersion(version));
        }
        let expected = HEADER_BYTES + n as usize * 8;
        if len != expected {
            return Err(ValueFileError::SizeMismatch {
                expected,
                actual: len,
            });
        }
        let vf = ValueFile {
            map: vf.map,
            n: n as usize,
            base,
            frontier: Frontier::new(base..base + n as u32),
            #[cfg(feature = "chaos")]
            fault: std::sync::Mutex::new(None),
        };
        if vf.best_slot().is_none() {
            return Err(ValueFileError::NoValidCommitSlot);
        }
        // The bitmap is not persisted; a freshly opened file starts from
        // the conservative superset (next dispatch column all-active).
        // The flag check downstream keeps dispatch exact.
        vf.frontier.fill(vf.header().next_dispatch_col);
        Ok(vf)
    }

    fn words(&self) -> &[AtomicU32] {
        self.map.atomic_u32().expect("value file is u32-aligned")
    }

    /// Number of vertices held by this file.
    #[inline]
    pub fn n_vertices(&self) -> usize {
        self.n
    }

    /// Global id range held by this file.
    #[inline]
    pub fn range(&self) -> std::ops::Range<u32> {
        self.base..self.base + self.n as u32
    }

    /// Decode commit slot `idx` (0 = A, 1 = B); `None` if its CRC does not
    /// match or its identity copy disagrees with the file.
    fn read_slot(&self, idx: usize) -> Option<CommitSlot> {
        let words = self.words();
        let at = SLOT_BASE[idx];
        let mut raw = [0u32; SLOT_WORDS];
        // Acquire on the CRC word pairs with the Release store in
        // `write_slot`: a matching checksum implies the covered words are
        // the ones it was computed over.
        raw[S_CRC] = words[at + S_CRC].load(Ordering::Acquire);
        for (i, slot) in raw.iter_mut().enumerate().take(S_CRC) {
            *slot = words[at + i].load(Ordering::Relaxed);
        }
        if crc32_words(&raw[..S_CRC]) != raw[S_CRC] {
            return None;
        }
        let n = raw[S_NVERT_LO] as u64 | (raw[S_NVERT_HI] as u64) << 32;
        let seq = raw[S_SEQ_LO] as u64 | (raw[S_SEQ_HI] as u64) << 32;
        if n != self.n as u64 || raw[S_BASE] != self.base || seq == 0 || raw[S_NEXT_DISPATCH] > 1 {
            return None;
        }
        Some(CommitSlot {
            seq,
            committed_biased: raw[S_COMMITTED],
            next_dispatch: raw[S_NEXT_DISPATCH],
        })
    }

    /// Highest-sequence valid slot, with its index.
    fn best_slot(&self) -> Option<(usize, CommitSlot)> {
        let a = self.read_slot(0).map(|s| (0, s));
        let b = self.read_slot(1).map(|s| (1, s));
        match (a, b) {
            (Some(a), Some(b)) => Some(if a.1.seq >= b.1.seq { a } else { b }),
            (one, other) => one.or(other),
        }
    }

    /// Write commit slot `idx`. The CRC word is stored last with Release
    /// ordering so a concurrent reader can never validate a half-visible
    /// slot. With `torn`, the CRC is deliberately ruined — the chaos
    /// harness's model of a crash mid-header-write.
    fn write_slot(&self, idx: usize, slot: CommitSlot, torn: bool) {
        let words = self.words();
        let at = SLOT_BASE[idx];
        let mut raw = [0u32; SLOT_WORDS];
        raw[S_SEQ_LO] = slot.seq as u32;
        raw[S_SEQ_HI] = (slot.seq >> 32) as u32;
        raw[S_COMMITTED] = slot.committed_biased;
        raw[S_NEXT_DISPATCH] = slot.next_dispatch;
        raw[S_NVERT_LO] = self.n as u32;
        raw[S_NVERT_HI] = ((self.n as u64) >> 32) as u32;
        raw[S_BASE] = self.base;
        raw[S_CRC] = crc32_words(&raw[..S_CRC]);
        if torn {
            raw[S_CRC] ^= 0xDEAD_BEEF;
        }
        for (i, &w) in raw.iter().enumerate().take(S_CRC) {
            words[at + i].store(w, Ordering::Relaxed);
        }
        words[at + S_CRC].store(raw[S_CRC], Ordering::Release);
    }

    /// Decode the header from the best commit slot. A file whose slots are
    /// both invalid (possible only through external corruption; `open`
    /// rejects such files) reads as freshly initialized.
    pub fn header(&self) -> ValueFileHeader {
        let slot = self.best_slot().map(|(_, s)| s);
        ValueFileHeader {
            n_vertices: self.n as u64,
            committed_superstep: slot
                .and_then(|s| s.committed_biased.checked_sub(1))
                .map(u64::from),
            next_dispatch_col: slot.map(|s| s.next_dispatch).unwrap_or(0),
        }
    }

    /// Record that `superstep` completed and the next superstep dispatches
    /// from `next_dispatch_col`.
    ///
    /// The commit goes to the slot *not* currently holding the best
    /// commit, with a higher sequence number — so the previous commit
    /// stays intact until the new one is fully written, and a crash at any
    /// point leaves at least one valid slot. With `durable`, the value
    /// pages are `msync`ed **before** the header page (the paper's
    /// per-superstep checkpoint — cheap because only already-written
    /// pages are involved): the on-disk header never describes data that
    /// has not reached the file.
    pub fn commit(
        &self,
        superstep: u64,
        next_dispatch_col: u32,
        durable: bool,
    ) -> std::io::Result<()> {
        if durable {
            #[cfg(feature = "chaos")]
            if let Some(plan) = crate::lock(&self.fault).as_ref() {
                if plan.take_msync_failure(superstep) {
                    return Err(std::io::Error::other(format!(
                        "chaos-injected msync failure at superstep {superstep}"
                    )));
                }
            }
            // Data before header: the commit slot must never point at
            // value pages that are not on disk yet.
            self.map
                .flush_range(HEADER_BYTES, self.n * 8)
                .map_err(std::io::Error::from)?;
        }
        let (target, seq) = match self.best_slot() {
            Some((best, slot)) => (1 - best, slot.seq + 1),
            None => (0, 1),
        };
        let slot = CommitSlot {
            seq,
            committed_biased: superstep as u32 + 1,
            next_dispatch: next_dispatch_col & 1,
        };
        #[cfg(feature = "chaos")]
        if let Some(plan) = crate::lock(&self.fault).as_ref() {
            if plan.take_torn_commit(superstep) {
                self.write_slot(target, slot, true);
                return Err(std::io::Error::other(format!(
                    "chaos-injected torn commit at superstep {superstep}"
                )));
            }
        }
        self.write_slot(target, slot, false);
        if durable {
            self.map
                .flush_range(0, HEADER_BYTES)
                .map_err(std::io::Error::from)?;
        }
        Ok(())
    }

    /// Install (or clear) the chaos fault plan consulted by
    /// [`ValueFile::commit`].
    #[cfg(feature = "chaos")]
    pub fn set_fault_plan(&self, plan: Option<std::sync::Arc<crate::fault::FaultPlan>>) {
        *crate::lock(&self.fault) = plan;
    }

    /// Test/chaos hook: overwrite the *non-best* slot with a
    /// higher-sequence, bad-CRC record — exactly what a crash in the
    /// middle of a header write leaves behind. Recovery must ignore it.
    #[cfg(any(test, feature = "chaos"))]
    pub fn inject_torn_slot(&self) {
        let (target, seq) = match self.best_slot() {
            Some((best, slot)) => (1 - best, slot.seq + 1),
            None => (0, 1),
        };
        self.write_slot(
            target,
            CommitSlot {
                seq,
                committed_biased: u32::MAX,
                next_dispatch: 0,
            },
            true,
        );
    }

    /// Raw word index of `(col, v)`; `v` is a global id within
    /// [`Self::range`].
    #[inline(always)]
    fn slot(&self, col: u32, v: u32) -> usize {
        debug_assert!(
            col < 2 && v >= self.base && ((v - self.base) as usize) < self.n,
            "vertex {v} outside value-file range"
        );
        HEADER_WORDS + 2 * (v - self.base) as usize + col as usize
    }

    /// Atomically load the raw word (payload + flag) of vertex `v` in
    /// `col`.
    #[inline(always)]
    pub fn load(&self, col: u32, v: u32) -> u32 {
        self.words()[self.slot(col, v)].load(Ordering::Relaxed)
    }

    /// Atomically store the raw word of vertex `v` in `col`.
    #[inline(always)]
    pub fn store(&self, col: u32, v: u32, bits: u32) {
        self.words()[self.slot(col, v)].store(bits, Ordering::Relaxed);
    }

    /// Atomically set the flag bit of vertex `v` in `col`, preserving the
    /// payload (the dispatcher's "invalidate after dispatch").
    #[inline(always)]
    pub fn invalidate(&self, col: u32, v: u32) {
        self.words()[self.slot(col, v)].fetch_or(crate::word::FLAG_BIT, Ordering::Relaxed);
    }

    /// Software-prefetch the cache line holding vertex `v`'s slot pair
    /// into L1. The batch fold kernels issue this a few destinations
    /// ahead so the value-file random access doesn't stall their inner
    /// loop. No-op on non-x86_64 targets.
    #[inline(always)]
    pub fn prefetch(&self, col: u32, v: u32) {
        #[cfg(target_arch = "x86_64")]
        // SAFETY: `slot` bounds-checks (debug) the index; prefetch of any
        // address is side-effect free beyond the cache.
        unsafe {
            let p = self.words().as_ptr().add(self.slot(col, v)) as *const i8;
            core::arch::x86_64::_mm_prefetch(p, core::arch::x86_64::_MM_HINT_T0);
        }
        #[cfg(not(target_arch = "x86_64"))]
        let _ = (col, v);
    }

    /// Best-effort transparent-hugepage hint for the whole mapping (see
    /// [`MmapMut::advise_hugepage`]); `false` is expected on kernels
    /// without file-backed THP support.
    pub fn advise_hugepage(&self) -> bool {
        self.map.advise_hugepage()
    }

    /// The per-column active-vertex bitmaps (see [`crate::frontier`]).
    #[inline]
    pub fn frontier(&self) -> &Frontier {
        &self.frontier
    }

    /// `msync` the whole mapping.
    pub fn flush(&self) -> std::io::Result<()> {
        self.map.flush().map_err(std::io::Error::from)
    }

    /// Rebuild a runnable state after a crash (paper §IV-G, Fig. 6).
    ///
    /// The highest-sequence valid commit slot names the column that held
    /// the last committed superstep's results (`next_dispatch_col`); its
    /// payloads are intact because dispatchers only ever set flag bits.
    /// Torn slots (bad CRC) are rejected, so a crash during the commit of
    /// superstep `s` recovers to superstep `s - 1`'s slot, never a
    /// half-written one. Recovery copies the good column's payloads over
    /// the possibly half-written other column (flagged, = "no update
    /// yet") and re-activates every vertex in the dispatch column so the
    /// interrupted superstep is re-run conservatively. Returns the
    /// superstep to resume from.
    pub fn recover(&self) -> u64 {
        let h = self.header();
        let good = h.next_dispatch_col;
        let resume = h.committed_superstep.map(|s| s + 1).unwrap_or(0);
        for v in self.range() {
            let payload = clear_flag(self.load(good, v));
            self.store(good, v, payload); // flag 0: active
            self.store(1 - good, v, set_flag(payload));
        }
        // Bitmap in lockstep with the flags just rebuilt: every vertex is
        // active in the dispatch column, none in the update column.
        self.frontier.fill(good);
        self.frontier.clear(1 - good);
        resume
    }

    /// Sequence number of the best (highest-seq valid) commit slot; 0 if
    /// neither slot validates. The distributed barrier manifest records
    /// this per node so recovery can verify every shard reached the
    /// barrier it claims.
    pub fn commit_seq(&self) -> u64 {
        self.best_slot().map(|(_, s)| s.seq).unwrap_or(0)
    }

    /// Force this file back to an *externally chosen* barrier: superstep
    /// `committed` (`None` = nothing committed yet) whose results live in
    /// `dispatch_col`.
    ///
    /// Unlike [`ValueFile::recover`], which trusts the file's own best
    /// slot, this is the distributed rollback path: the cluster manifest
    /// — not any single shard — names the last barrier *every* node
    /// committed, and shards that already committed one superstep past it
    /// must step back. That is always possible one superstep deep:
    /// dispatchers only flag-invalidate the column they read, so the
    /// payloads of `dispatch_col` (superstep `committed`'s results) stay
    /// intact until the *following* superstep's dispatch — which cannot
    /// have started, because the cluster barrier for the superstep in
    /// between never completed.
    ///
    /// Rebuilds both columns from `dispatch_col`'s payloads (all-active
    /// conservative frontier, like `recover`) and writes a fresh commit
    /// slot pinning `(committed, dispatch_col)` so a subsequent crash
    /// recovers to the same barrier. Returns the superstep to resume from.
    pub fn rollback_to(&self, committed: Option<u64>, dispatch_col: u32) -> u64 {
        let good = dispatch_col & 1;
        for v in self.range() {
            let payload = clear_flag(self.load(good, v));
            self.store(good, v, payload); // flag 0: active
            self.store(1 - good, v, set_flag(payload));
        }
        self.frontier.fill(good);
        self.frontier.clear(1 - good);
        let (target, seq) = match self.best_slot() {
            Some((best, slot)) => (1 - best, slot.seq + 1),
            None => (0, 1),
        };
        self.write_slot(
            target,
            CommitSlot {
                seq,
                committed_biased: committed.map(|s| s as u32 + 1).unwrap_or(0),
                next_dispatch: good,
            },
            false,
        );
        committed.map(|s| s + 1).unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::word::is_flagged;
    use std::path::PathBuf;

    fn tmp(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("gpsa-vf-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(name)
    }

    #[test]
    fn create_initializes_columns_per_protocol() {
        let path = tmp("init.gval");
        let vf = ValueFile::create(&path, 4, |v| (v * 10, v % 2 == 0)).unwrap();
        // Active vertices: flag clear in column 0.
        assert!(!is_flagged(vf.load(0, 0)));
        assert!(is_flagged(vf.load(0, 1)));
        assert!(!is_flagged(vf.load(0, 2)));
        // Column 1 fully flagged.
        for v in 0..4 {
            assert!(is_flagged(vf.load(1, v)));
            assert_eq!(clear_flag(vf.load(1, v)), v * 10);
            assert_eq!(clear_flag(vf.load(0, v)), v * 10);
        }
        let h = vf.header();
        assert_eq!(h.n_vertices, 4);
        assert_eq!(h.committed_superstep, None);
        assert_eq!(h.next_dispatch_col, 0);
    }

    #[test]
    fn reopen_preserves_state() {
        let path = tmp("reopen.gval");
        {
            let vf = ValueFile::create(&path, 3, |v| (v, true)).unwrap();
            vf.store(1, 2, 99);
            vf.commit(5, 1, true).unwrap();
        }
        let vf = ValueFile::open(&path).unwrap();
        assert_eq!(vf.n_vertices(), 3);
        assert_eq!(vf.load(1, 2), 99);
        let h = vf.header();
        assert_eq!(h.committed_superstep, Some(5));
        assert_eq!(h.next_dispatch_col, 1);
    }

    #[test]
    fn commits_alternate_slots_with_growing_sequence() {
        let path = tmp("alternate.gval");
        let vf = ValueFile::create(&path, 2, |v| (v, true)).unwrap();
        // create seeds slot A with seq 1; slot B starts invalid.
        let (idx0, s0) = vf.best_slot().unwrap();
        assert_eq!((idx0, s0.seq), (0, 1));
        assert!(vf.read_slot(1).is_none());
        for step in 0..6u64 {
            vf.commit(step, (step as u32 + 1) & 1, false).unwrap();
            let (idx, slot) = vf.best_slot().unwrap();
            // Commit k lands in the slot the previous best did NOT occupy.
            assert_eq!(idx, (1 + step as usize) % 2);
            assert_eq!(slot.seq, step + 2);
            assert_eq!(vf.header().committed_superstep, Some(step));
        }
        // Both slots valid now; they differ by exactly one in sequence.
        let a = vf.read_slot(0).unwrap();
        let b = vf.read_slot(1).unwrap();
        assert_eq!(a.seq.abs_diff(b.seq), 1);
    }

    #[test]
    fn invalidate_preserves_payload() {
        let path = tmp("inval.gval");
        let vf = ValueFile::create(&path, 1, |_| (1234u32, true)).unwrap();
        vf.invalidate(0, 0);
        assert!(is_flagged(vf.load(0, 0)));
        assert_eq!(clear_flag(vf.load(0, 0)), 1234);
        // Idempotent.
        vf.invalidate(0, 0);
        assert_eq!(clear_flag(vf.load(0, 0)), 1234);
    }

    #[test]
    fn recover_restores_from_good_column() {
        let path = tmp("recover.gval");
        let vf = ValueFile::create(&path, 3, |_| (7u32, true)).unwrap();
        // Pretend superstep 0 completed: column 1 holds results, next
        // superstep (1) dispatches from column 1.
        for v in 0..3 {
            vf.store(1, v, 100 + v);
        }
        vf.commit(0, 1, false).unwrap();
        // Crash mid-superstep-1: column 0 is half garbage.
        vf.store(0, 0, set_flag(0x7FFF_0000));
        vf.store(0, 1, 0x0BAD);
        let resume = vf.recover();
        assert_eq!(resume, 1);
        for v in 0..3 {
            // Good column re-activated, payload intact.
            assert!(!is_flagged(vf.load(1, v)));
            assert_eq!(clear_flag(vf.load(1, v)), 100 + v);
            // Other column rebuilt: flagged copy of the good payload.
            assert!(is_flagged(vf.load(0, v)));
            assert_eq!(clear_flag(vf.load(0, v)), 100 + v);
        }
    }

    #[test]
    fn recover_ignores_torn_slot() {
        let path = tmp("torn.gval");
        let vf = ValueFile::create(&path, 2, |v| (v, true)).unwrap();
        vf.store(1, 0, 42);
        vf.store(1, 1, 43);
        vf.commit(0, 1, false).unwrap();
        // A crash in the middle of committing superstep 1 leaves a
        // higher-sequence slot with a bad CRC.
        vf.inject_torn_slot();
        let h = vf.header();
        assert_eq!(h.committed_superstep, Some(0), "torn slot must not win");
        assert_eq!(h.next_dispatch_col, 1);
        assert_eq!(vf.recover(), 1);
        assert_eq!(clear_flag(vf.load(1, 0)), 42);
        // And the file still opens after a reload.
        drop(vf);
        let vf = ValueFile::open(&path).unwrap();
        assert_eq!(vf.header().committed_superstep, Some(0));
    }

    #[test]
    fn commit_after_torn_slot_reclaims_it() {
        let path = tmp("torn-reclaim.gval");
        let vf = ValueFile::create(&path, 1, |v| (v, true)).unwrap();
        vf.commit(0, 1, false).unwrap();
        vf.inject_torn_slot();
        // The next commit targets the invalid slot (it is "not the best")
        // and repairs it.
        vf.commit(1, 0, false).unwrap();
        let h = vf.header();
        assert_eq!(h.committed_superstep, Some(1));
        assert_eq!(h.next_dispatch_col, 0);
        assert!(vf.read_slot(0).is_some());
        assert!(vf.read_slot(1).is_some());
    }

    #[test]
    fn recover_on_fresh_file_resumes_at_zero() {
        let path = tmp("fresh.gval");
        let vf = ValueFile::create(&path, 2, |v| (v, v == 0)).unwrap();
        assert_eq!(vf.recover(), 0);
        // All vertices conservatively active.
        assert!(!is_flagged(vf.load(0, 0)));
        assert!(!is_flagged(vf.load(0, 1)));
    }

    #[test]
    fn corrupt_header_rejected_with_typed_errors() {
        // Bad magic.
        let path = tmp("bad.gval");
        ValueFile::create(&path, 2, |v| (v, true)).unwrap();
        let mut bytes = std::fs::read(&path).unwrap();
        bytes[0] ^= 0xFF;
        std::fs::write(&path, &bytes).unwrap();
        assert!(matches!(
            ValueFile::open(&path),
            Err(ValueFileError::BadMagic(_))
        ));
        // Length mismatch: vertex data sliced off the end.
        let path2 = tmp("short.gval");
        ValueFile::create(&path2, 2, |v| (v, true)).unwrap();
        let bytes = std::fs::read(&path2).unwrap();
        std::fs::write(&path2, &bytes[..bytes.len() - 8]).unwrap();
        assert!(matches!(
            ValueFile::open(&path2),
            Err(ValueFileError::SizeMismatch { .. })
        ));
        // Unsupported (v1) version word.
        let path3 = tmp("oldver.gval");
        ValueFile::create(&path3, 2, |v| (v, true)).unwrap();
        let mut bytes = std::fs::read(&path3).unwrap();
        bytes[4..8].copy_from_slice(&1u32.to_le_bytes());
        std::fs::write(&path3, &bytes).unwrap();
        assert!(matches!(
            ValueFile::open(&path3),
            Err(ValueFileError::UnsupportedVersion(1))
        ));
    }

    #[test]
    fn truncated_file_is_a_typed_error_not_a_panic() {
        // Shorter than the header page, and not word-aligned either.
        let path = tmp("trunc.gval");
        std::fs::write(&path, vec![0u8; 137]).unwrap();
        assert!(matches!(
            ValueFile::open(&path),
            Err(ValueFileError::Truncated { len: 137 })
        ));
        // Header-sized but odd length: still typed, still no panic.
        let path2 = tmp("trunc2.gval");
        std::fs::write(&path2, vec![0u8; HEADER_BYTES + 7]).unwrap();
        assert!(matches!(
            ValueFile::open(&path2),
            Err(ValueFileError::Truncated { .. })
        ));
    }

    #[test]
    fn zeroed_header_is_a_typed_error() {
        let path = tmp("zeroed.gval");
        ValueFile::create(&path, 2, |v| (v, true)).unwrap();
        let mut bytes = std::fs::read(&path).unwrap();
        for b in bytes.iter_mut().take(HEADER_BYTES) {
            *b = 0;
        }
        std::fs::write(&path, &bytes).unwrap();
        // Magic is zero, so that is the first thing to trip.
        assert!(matches!(
            ValueFile::open(&path),
            Err(ValueFileError::BadMagic(0))
        ));
    }

    #[test]
    fn both_slots_corrupt_is_rejected_at_open() {
        let path = tmp("noslot.gval");
        ValueFile::create(&path, 2, |v| (v, true)).unwrap();
        let mut bytes = std::fs::read(&path).unwrap();
        // Ruin both slots' CRC words (slot A word 15, slot B word 23)
        // while leaving the identity words intact.
        for word in [SLOT_BASE[0] + S_CRC, SLOT_BASE[1] + S_CRC] {
            let at = word * 4;
            bytes[at] ^= 0xFF;
        }
        std::fs::write(&path, &bytes).unwrap();
        assert!(matches!(
            ValueFile::open(&path),
            Err(ValueFileError::NoValidCommitSlot)
        ));
    }

    #[test]
    fn create_marks_frontier_for_active_vertices_only() {
        let path = tmp("frontier-init.gval");
        let vf = ValueFile::create(&path, 4, |v| (v, v % 2 == 0)).unwrap();
        let f = vf.frontier();
        assert!(f.is_marked(0, 0) && f.is_marked(0, 2));
        assert!(!f.is_marked(0, 1) && !f.is_marked(0, 3));
        assert_eq!(f.count(0), 2);
        assert_eq!(f.count(1), 0, "superstep-0 update column starts empty");
    }

    #[test]
    fn open_fills_frontier_conservatively() {
        let path = tmp("frontier-open.gval");
        {
            let vf = ValueFile::create(&path, 3, |v| (v, v == 0)).unwrap();
            vf.commit(0, 1, true).unwrap();
        }
        let vf = ValueFile::open(&path).unwrap();
        // Bitmap is not persisted: the next dispatch column (1) reads
        // all-active, the other empty.
        assert_eq!(vf.frontier().count(1), 3);
        assert_eq!(vf.frontier().count(0), 0);
    }

    #[test]
    fn recover_rebuilds_frontier_in_lockstep_with_flags() {
        let path = tmp("frontier-recover.gval");
        let vf = ValueFile::create(&path, 3, |_| (7u32, true)).unwrap();
        vf.commit(0, 1, false).unwrap();
        // Mid-superstep-1 state: computer marked a partial frontier in
        // the update column (0) before the crash.
        vf.frontier().mark(0, 2);
        vf.frontier().clear(1);
        let resume = vf.recover();
        assert_eq!(resume, 1);
        // Dispatch column 1: every vertex flag-clear AND bitmap-set;
        // update column 0: every vertex flagged AND bitmap-clear.
        for v in 0..3 {
            assert!(!is_flagged(vf.load(1, v)));
            assert!(vf.frontier().is_marked(1, v));
            assert!(is_flagged(vf.load(0, v)));
            assert!(!vf.frontier().is_marked(0, v));
        }
    }

    #[test]
    fn rollback_steps_an_ahead_shard_back_one_barrier() {
        let path = tmp("rollback.gval");
        let vf = ValueFile::create(&path, 3, |_| (5u32, true)).unwrap();
        // Superstep 0 completed: column 1 holds its results.
        for v in 0..3 {
            vf.store(1, v, 50 + v);
        }
        vf.commit(0, 1, false).unwrap();
        // This shard raced ahead: it ran superstep 1 (writing column 0),
        // invalidated column 1's flags during dispatch, and committed —
        // but the cluster barrier for superstep 1 never completed.
        for v in 0..3 {
            vf.invalidate(1, v);
            vf.store(0, v, 90 + v);
        }
        vf.commit(1, 0, false).unwrap();
        assert_eq!(vf.header().committed_superstep, Some(1));
        let seq_before = vf.commit_seq();
        // Roll back to the cluster-wide barrier (superstep 0, column 1).
        let resume = vf.rollback_to(Some(0), 1);
        assert_eq!(resume, 1);
        let h = vf.header();
        assert_eq!(h.committed_superstep, Some(0));
        assert_eq!(h.next_dispatch_col, 1);
        assert!(vf.commit_seq() > seq_before, "rollback is itself a commit");
        for v in 0..3 {
            // Superstep 0's payloads survive the invalidation (flags only)
            // and come back active; the raced-ahead column is discarded.
            assert!(!is_flagged(vf.load(1, v)));
            assert_eq!(clear_flag(vf.load(1, v)), 50 + v);
            assert!(is_flagged(vf.load(0, v)));
            assert_eq!(clear_flag(vf.load(0, v)), 50 + v);
            assert!(vf.frontier().is_marked(1, v));
            assert!(!vf.frontier().is_marked(0, v));
        }
    }

    #[test]
    fn rollback_to_initial_state_resumes_at_zero() {
        let path = tmp("rollback0.gval");
        let vf = ValueFile::create(&path, 2, |v| (v, v == 0)).unwrap();
        vf.store(1, 0, 77);
        vf.commit(0, 1, false).unwrap();
        // Cluster never finished barrier 0: back to "nothing committed",
        // dispatching from column 0.
        let resume = vf.rollback_to(None, 0);
        assert_eq!(resume, 0);
        let h = vf.header();
        assert_eq!(h.committed_superstep, None);
        assert_eq!(h.next_dispatch_col, 0);
        assert!(!is_flagged(vf.load(0, 0)) && !is_flagged(vf.load(0, 1)));
    }

    #[test]
    fn commit_seq_tracks_commits() {
        let path = tmp("seq.gval");
        let vf = ValueFile::create(&path, 1, |v| (v, true)).unwrap();
        assert_eq!(vf.commit_seq(), 1, "create seeds seq 1");
        vf.commit(0, 1, false).unwrap();
        assert_eq!(vf.commit_seq(), 2);
        vf.commit(1, 0, false).unwrap();
        assert_eq!(vf.commit_seq(), 3);
    }

    #[test]
    fn crc32_bytes_matches_word_crc() {
        let words = [1u32, 2, 3, 0xDEAD_BEEF];
        let mut bytes = Vec::new();
        for w in words {
            bytes.extend_from_slice(&w.to_le_bytes());
        }
        assert_eq!(crc32(&bytes), crc32_words(&words));
        assert_ne!(crc32(&bytes), crc32(&bytes[..15]));
    }

    #[test]
    fn f32_values_roundtrip_through_slots() {
        let path = tmp("f32.gval");
        let vf = ValueFile::create(&path, 2, |_| (0.15f32, true)).unwrap();
        let bits = clear_flag(vf.load(0, 0));
        assert_eq!(f32::from_bits(bits), 0.15);
    }
}
