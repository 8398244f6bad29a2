//! Live graphs: an append-only edge-delta log sealed alongside the
//! immutable CSR, an in-memory overlay merging both, and compaction.
//!
//! A preprocessed CSR file never changes. Mutations land as framed
//! add/remove batches in a sibling delta log (`graph.gcsr` →
//! `graph.gcsr.gdelta`, one CRC-framed [`crate::framed`] record per
//! batch, fsync'd before the mutation is acknowledged), and are replayed
//! into a [`DeltaOverlay`]. A [`GraphSnapshot`] pairs one immutable CSR
//! with one immutable overlay and mirrors the [`DiskCsr`] read API, so
//! the engine's dense, sparse, and strided dispatch paths see the
//! mutated graph without re-preprocessing; snapshots are cheap to clone
//! and pin, so in-flight jobs keep reading the version they started on
//! while new mutations build new snapshots. Compaction
//! ([`GraphSnapshot::compact_to`]) folds everything back into a fresh v2
//! CSR, bit-identical to preprocessing the mutated edge list from
//! scratch.
//!
//! ## Mutation semantics
//!
//! The base CSR is a multiset of edges (duplicates and self-loops are
//! preserved by preprocessing), so the overlay tracks each `(src, dst)`
//! pair through a small state machine, applied in log order:
//!
//! * **remove** deletes *every* copy of the pair — all base occurrences
//!   are suppressed and any overlay-added copy is dropped;
//! * **add** inserts *one* copy iff the pair is not currently present
//!   (base copies of a never-removed pair make an add a no-op).
//!
//! A merged vertex record is the base record in stored order with
//! removed targets filtered out, followed by the overlay-added targets
//! in ascending order — a deterministic convention shared with the
//! from-scratch oracle, which is what makes bit-identity testable.
//! Added edges may name vertices past the base range; the snapshot
//! grows `n_vertices` to cover them.

use std::collections::BTreeMap;
use std::fs::File;
use std::io::{self, BufWriter, Write};
use std::ops::{Bound, Range};
use std::path::{Path, PathBuf};
use std::sync::Arc;

use gpsa_mmap::Advice;

use crate::disk_csr::{
    index_path, write_data_header, write_index_header, DiskCsr, EdgeCursor, SeekCursor,
    VertexEdges, VERSION_V2,
};
use crate::framed;
use crate::types::{Edge, VertexId};
use crate::varint;

/// Derive the delta-log path for a CSR file (`graph.gcsr` →
/// `graph.gcsr.gdelta`).
pub fn delta_path(csr: &Path) -> PathBuf {
    let mut p = csr.as_os_str().to_owned();
    p.push(".gdelta");
    PathBuf::from(p)
}

/// One mutation batch — the unit of atomicity. A batch is exactly one
/// framed record in the delta log, so a torn append drops the whole
/// batch and recovery lands on the clean pre-mutation state.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DeltaBatch {
    /// Insert each edge (one copy, iff not currently present).
    Add(Vec<Edge>),
    /// Delete every copy of each edge.
    Remove(Vec<Edge>),
}

impl DeltaBatch {
    /// The edges in the batch.
    pub fn edges(&self) -> &[Edge] {
        match self {
            DeltaBatch::Add(e) | DeltaBatch::Remove(e) => e,
        }
    }

    /// Whether this is a removal batch.
    pub fn is_remove(&self) -> bool {
        matches!(self, DeltaBatch::Remove(_))
    }

    /// Serialize to the log-record body: `add 0:2 3:1` / `remove 4:4`.
    pub fn encode_body(&self) -> String {
        let mut s = String::from(if self.is_remove() { "remove" } else { "add" });
        for e in self.edges() {
            s.push_str(&format!(" {}:{}", e.src, e.dst));
        }
        s
    }

    /// Parse a log-record body written by [`DeltaBatch::encode_body`].
    pub fn parse_body(s: &str) -> Option<DeltaBatch> {
        let mut toks = s.split(' ');
        let tag = toks.next()?;
        let mut edges = Vec::new();
        for tok in toks {
            let (u, v) = tok.split_once(':')?;
            edges.push(Edge::new(u.parse().ok()?, v.parse().ok()?));
        }
        match tag {
            "add" => Some(DeltaBatch::Add(edges)),
            "remove" => Some(DeltaBatch::Remove(edges)),
            _ => None,
        }
    }
}

/// The append-only, fsync'd delta log for one CSR file.
#[derive(Debug)]
pub struct DeltaLog {
    file: File,
    path: PathBuf,
}

impl DeltaLog {
    /// Open (or create) the delta log sitting next to `csr_path`,
    /// replaying every intact batch in log order. A torn or corrupt tail
    /// is truncated away (the journal's truncate-and-warn idiom, shared
    /// via [`crate::framed::open_scan`]).
    pub fn open<P: AsRef<Path>>(csr_path: P) -> io::Result<(DeltaLog, Vec<DeltaBatch>)> {
        let path = delta_path(csr_path.as_ref());
        let (file, batches) = framed::open_scan(&path, DeltaBatch::parse_body)?;
        Ok((DeltaLog { file, path }, batches))
    }

    /// Append one batch as a single framed record and fsync it. Returns
    /// only after the batch is durable — callers apply the mutation to
    /// in-memory state strictly after this.
    pub fn append(&mut self, batch: &DeltaBatch) -> io::Result<()> {
        self.file
            .write_all(framed::encode_line(&batch.encode_body()).as_bytes())?;
        self.file.sync_data()
    }

    /// Where the log lives on disk.
    pub fn path(&self) -> &Path {
        &self.path
    }
}

/// One source's removed destinations.
#[derive(Debug, Clone, Default)]
struct Removed {
    /// Destinations in "removed" state (base copies suppressed),
    /// ascending.
    dsts: Vec<VertexId>,
    /// How many base-record occurrences `dsts` suppresses (duplicates
    /// counted), so effective degrees stay cheap.
    base_occurrences: u32,
}

/// What a [`DeltaOverlay`] holds. Shared between clones until one of them
/// applies a batch.
#[derive(Debug, Clone, Default)]
struct OverlayState {
    /// Sources of the effective added edges, parallel to `added_dst`. The
    /// pairs are sorted by `(src, dst)` and distinct, so one source's
    /// added targets are one contiguous ascending run of `added_dst`.
    added_src: Vec<VertexId>,
    added_dst: Vec<VertexId>,
    /// Sources with removed pairs — rare, so a small side map.
    removed: BTreeMap<VertexId, Removed>,
    removed_total: u64,
    removed_pairs: u64,
    /// `1 + max endpoint` over effective added edges (0 when none) — how
    /// far the snapshot must grow past the base vertex range.
    virtual_end: usize,
    batches: u64,
}

/// The in-memory merge state built by replaying delta batches against a
/// base CSR. Cloning is `O(1)`: clones share one state until one of them
/// applies a batch, which copies the state only while another clone (a
/// pinned [`GraphSnapshot`]) still shares it. A sealed snapshot therefore
/// never moves.
#[derive(Debug, Clone, Default)]
pub struct DeltaOverlay {
    state: Arc<OverlayState>,
}

impl DeltaOverlay {
    /// An empty overlay (the snapshot degenerates to the base CSR).
    pub fn new() -> DeltaOverlay {
        DeltaOverlay::default()
    }

    /// Apply one batch in log order. `base` is consulted for membership
    /// and duplicate counts (an add of an edge already in the base is a
    /// no-op; a remove suppresses every base copy).
    pub fn apply(&mut self, base: &DiskCsr, batch: &DeltaBatch) {
        let state = Arc::make_mut(&mut self.state);
        match batch {
            DeltaBatch::Add(edges) => state.add(base, edges),
            DeltaBatch::Remove(edges) => state.remove(base, edges),
        }
        state.batches += 1;
    }

    /// Batches applied so far — the snapshot's *delta seq* within its
    /// epoch.
    pub fn batches(&self) -> u64 {
        self.state.batches
    }

    /// No batches applied (the overlay is a pass-through).
    pub fn is_empty(&self) -> bool {
        self.state.batches == 0
    }

    /// Effective edges added on top of the base.
    pub fn added_edges(&self) -> u64 {
        self.state.added_src.len() as u64
    }

    /// Base-record edge occurrences suppressed by removals.
    pub fn removed_edges(&self) -> u64 {
        self.state.removed_total
    }

    /// Whether any pair is in the removed state. Incremental recompute
    /// only re-converges monotone programs over *additions*; removals
    /// require a fresh run.
    pub fn has_removals(&self) -> bool {
        self.state.removed_pairs > 0
    }

    /// Every source of an effective added edge, ascending, with its added
    /// destinations (ascending) — one contiguous scan of the overlay.
    fn added_by_source(&self) -> impl Iterator<Item = (VertexId, &[VertexId])> + '_ {
        let s = &*self.state;
        let mut at = 0;
        s.added_src.chunk_by(|a, b| a == b).map(move |run| {
            let dsts = &s.added_dst[at..at + run.len()];
            at += run.len();
            (run[0], dsts)
        })
    }

    /// `v`'s added destinations, ascending.
    fn added_slice(&self, v: VertexId) -> &[VertexId] {
        &self.state.added_dst[self.state.run(v)]
    }
}

/// An ascending cursor's place in the overlay, so that it finds each
/// record's changes by walking forward instead of searching the whole
/// overlay per record.
#[derive(Debug)]
struct OverlayPlace {
    /// Index of the first added pair whose source is not below the ids
    /// already asked for.
    added: usize,
    /// The next vertex the overlay touches (`VertexId::MAX` when none):
    /// records below it stream straight from the base.
    touched: VertexId,
}

impl OverlayPlace {
    fn new(overlay: &DeltaOverlay, from: VertexId) -> OverlayPlace {
        let s = &*overlay.state;
        let added = s.added_src.partition_point(|&u| u < from);
        OverlayPlace {
            added,
            touched: next_touched(s, added, (Bound::Included(from), Bound::Unbounded)),
        }
    }

    /// Whether the overlay leaves `v`'s record alone — one comparison, for
    /// every record over an empty overlay.
    fn untouched(&self, v: VertexId) -> bool {
        v < self.touched
    }

    /// The overlay's `(removed, added)` targets for `v`'s record, or
    /// `None` when it leaves the record alone. Ids must ascend across
    /// calls.
    fn changes<'o>(
        &mut self,
        overlay: &'o DeltaOverlay,
        v: VertexId,
    ) -> Option<(&'o [VertexId], &'o [VertexId])> {
        if self.untouched(v) {
            return None;
        }
        let s = &*overlay.state;
        // Gallop to `v`'s run: sequential cursors step a few pairs at a
        // time, seeking ones jump.
        let mut step = 1;
        let mut hi = self.added;
        while s.added_src.get(hi).is_some_and(|&u| u < v) {
            self.added = hi + 1;
            hi += step;
            step *= 2;
        }
        let hi = hi.min(s.added_src.len());
        self.added += s.added_src[self.added..hi].partition_point(|&u| u < v);
        let start = self.added;
        while s.added_src.get(self.added) == Some(&v) {
            self.added += 1;
        }
        let removed = &s.removed_of(v).dsts[..];
        self.touched = next_touched(s, self.added, (Bound::Excluded(v), Bound::Unbounded));
        let added = &s.added_dst[start..self.added];
        (!removed.is_empty() || !added.is_empty()).then_some((removed, added))
    }
}

/// The smallest vertex in `after` the overlay touches, given that the
/// added pairs from index `added` on are the ones with sources in `after`.
fn next_touched(
    s: &OverlayState,
    added: usize,
    after: (Bound<VertexId>, Bound<VertexId>),
) -> VertexId {
    let added = s.added_src.get(added).copied().unwrap_or(VertexId::MAX);
    let removed = s
        .removed
        .range(after)
        .next()
        .map_or(VertexId::MAX, |(&u, _)| u);
    added.min(removed)
}

impl OverlayState {
    /// `v`'s removal entry; empty when `v` has none.
    fn removed_of(&self, v: VertexId) -> &Removed {
        static NONE: Removed = Removed {
            dsts: Vec::new(),
            base_occurrences: 0,
        };
        self.removed.get(&v).unwrap_or(&NONE)
    }

    /// Index range of `v`'s run in the added arrays.
    fn run(&self, v: VertexId) -> Range<usize> {
        let lo = self.added_src.partition_point(|&u| u < v);
        lo..lo + self.added_src[lo..].partition_point(|&u| u == v)
    }

    /// Whether `(u, v)` is an effective added edge.
    fn is_added(&self, u: VertexId, v: VertexId) -> bool {
        self.added_dst[self.run(u)].binary_search(&v).is_ok()
    }

    fn add(&mut self, base: &DiskCsr, edges: &[Edge]) {
        let mut scratch = Vec::new();
        let mut new: Vec<(VertexId, VertexId)> = edges.iter().map(|e| (e.src, e.dst)).collect();
        new.sort_unstable();
        new.dedup();
        // An add inserts one copy iff the pair is not currently present:
        // not added already, and not in the base unless removed since.
        new.retain(|&(u, v)| {
            if self.is_added(u, v) {
                return false;
            }
            let removed = self.removed_of(u).dsts.binary_search(&v).is_ok();
            removed || base_count(base, u, v, &mut scratch) == 0
        });
        for &(u, v) in &new {
            self.virtual_end = self.virtual_end.max(u.max(v) as usize + 1);
        }
        // Merge from the back: each new pair shifts the block of older
        // pairs above it once, so the whole batch costs one pass of
        // block moves over the tail it lands in.
        let old = self.added_src.len();
        self.added_src.resize(old + new.len(), 0);
        self.added_dst.resize(old + new.len(), 0);
        let mut end = old;
        for (j, &(u, v)) in new.iter().enumerate().rev() {
            let at = {
                let lo = self.added_src[..end].partition_point(|&s| s < u);
                let hi = lo + self.added_src[lo..end].partition_point(|&s| s == u);
                lo + self.added_dst[lo..hi].partition_point(|&d| d < v)
            };
            self.added_src.copy_within(at..end, at + j + 1);
            self.added_dst.copy_within(at..end, at + j + 1);
            self.added_src[at + j] = u;
            self.added_dst[at + j] = v;
            end = at;
        }
    }

    fn remove(&mut self, base: &DiskCsr, edges: &[Edge]) {
        let mut scratch = Vec::new();
        let mut pairs: Vec<(VertexId, VertexId)> = edges.iter().map(|e| (e.src, e.dst)).collect();
        pairs.sort_unstable();
        pairs.dedup();
        let mut drops_added = false;
        for &(u, v) in &pairs {
            drops_added |= self.is_added(u, v);
            let r = self.removed.entry(u).or_default();
            if let Err(i) = r.dsts.binary_search(&v) {
                r.dsts.insert(i, v);
                self.removed_pairs += 1;
                let occ = base_count(base, u, v, &mut scratch);
                r.base_occurrences += occ;
                self.removed_total += u64::from(occ);
            }
        }
        if !drops_added {
            return;
        }
        // Drop every removed pair from the added arrays in one pass; the
        // graph may shrink back toward the base range.
        let mut kept = 0;
        let mut p = 0;
        for i in 0..self.added_src.len() {
            let e = (self.added_src[i], self.added_dst[i]);
            while p < pairs.len() && pairs[p] < e {
                p += 1;
            }
            if pairs.get(p) != Some(&e) {
                self.added_src[kept] = e.0;
                self.added_dst[kept] = e.1;
                kept += 1;
            }
        }
        self.added_src.truncate(kept);
        self.added_dst.truncate(kept);
        self.virtual_end = self
            .added_src
            .iter()
            .zip(&self.added_dst)
            .map(|(&u, &v)| u.max(v) as usize + 1)
            .max()
            .unwrap_or(0);
    }
}

/// Occurrences of `dst` in `src`'s base record (duplicates counted; 0
/// past the base range).
fn base_count(base: &DiskCsr, src: VertexId, dst: VertexId, scratch: &mut Vec<u32>) -> u32 {
    if (src as usize) >= base.n_vertices() {
        return 0;
    }
    base.record_into(src, scratch)
        .targets
        .iter()
        .filter(|&&t| t == dst)
        .count() as u32
}

/// Filter `base_targets` through `removed` and append `added` — the
/// merged record convention.
fn merge_targets(
    base_targets: &[VertexId],
    removed: &[VertexId],
    added: &[VertexId],
    out: &mut Vec<VertexId>,
) {
    out.clear();
    if removed.is_empty() {
        out.extend_from_slice(base_targets);
    } else {
        out.extend(
            base_targets
                .iter()
                .copied()
                .filter(|t| removed.binary_search(t).is_err()),
        );
    }
    out.extend_from_slice(added);
}

/// One immutable version of a live graph: a base [`DiskCsr`] plus a
/// sealed [`DeltaOverlay`]. Mirrors the `DiskCsr` read API the engine
/// uses, so dense sweeps and sparse seeks stream the mutated graph directly.
///
/// I/O accounting (`words_in_range`, cursor `words_read`/`bytes_read`)
/// counts **base** records only — overlay targets live in memory and
/// cost no disk traffic — so the engine's streamed/skipped conservation
/// invariant carries over unchanged.
#[derive(Debug, Clone)]
pub struct GraphSnapshot {
    base: Arc<DiskCsr>,
    overlay: Arc<DeltaOverlay>,
    n_vertices: usize,
    n_edges: usize,
}

/// Open a CSR together with its sibling delta log, replaying intact
/// batches into the returned snapshot. The log handle is ready to append
/// further batches.
pub fn open_live<P: AsRef<Path>>(csr_path: P) -> io::Result<(GraphSnapshot, DeltaLog)> {
    let base = Arc::new(DiskCsr::open(csr_path.as_ref())?);
    let (log, batches) = DeltaLog::open(csr_path)?;
    let mut overlay = DeltaOverlay::new();
    for b in &batches {
        overlay.apply(&base, b);
    }
    Ok((GraphSnapshot::new(base, Arc::new(overlay)), log))
}

impl GraphSnapshot {
    /// Seal `overlay` over `base`.
    pub fn new(base: Arc<DiskCsr>, overlay: Arc<DeltaOverlay>) -> GraphSnapshot {
        let n_vertices = base.n_vertices().max(overlay.state.virtual_end);
        let n_edges =
            (base.n_edges() as u64 + overlay.added_edges() - overlay.removed_edges()) as usize;
        GraphSnapshot {
            base,
            overlay,
            n_vertices,
            n_edges,
        }
    }

    /// A pass-through snapshot (empty overlay) — how a frozen graph
    /// enters the engine.
    pub fn from_csr(base: Arc<DiskCsr>) -> GraphSnapshot {
        GraphSnapshot::new(base, Arc::new(DeltaOverlay::new()))
    }

    /// The base CSR.
    pub fn base(&self) -> &Arc<DiskCsr> {
        &self.base
    }

    /// The sealed overlay.
    pub fn overlay(&self) -> &Arc<DeltaOverlay> {
        &self.overlay
    }

    /// Overlay batches folded into this snapshot (its *delta seq*).
    pub fn delta_seq(&self) -> u64 {
        self.overlay.batches()
    }

    /// Vertices in the merged graph (base range, grown to cover overlay
    /// endpoints).
    pub fn n_vertices(&self) -> usize {
        self.n_vertices
    }

    /// Edges in the merged graph.
    pub fn n_edges(&self) -> usize {
        self.n_edges
    }

    /// Base edge-file size in bytes (the overlay is memory-resident).
    pub fn file_bytes(&self) -> usize {
        self.base.file_bytes()
    }

    /// See [`DiskCsr::advise_sequential`].
    pub fn advise_sequential(&self) -> io::Result<()> {
        self.base.advise_sequential()
    }

    /// See [`DiskCsr::advise_random`].
    pub fn advise_random(&self) -> io::Result<()> {
        self.base.advise_random()
    }

    /// See [`DiskCsr::advise_hugepage`] (the overlay is heap-resident and
    /// needs no hint).
    pub fn advise_hugepage(&self) -> bool {
        self.base.advise_hugepage()
    }

    /// See [`DiskCsr::advise_vertex_range`] — clamped to the base range
    /// (overlay-only records have no disk span to advise about).
    pub fn advise_vertex_range(&self, vertices: Range<VertexId>, advice: Advice) -> io::Result<()> {
        assert!(vertices.end as usize <= self.n_vertices);
        let (s, e) = self.clamp(&vertices);
        if s >= e {
            return Ok(());
        }
        self.base.advise_vertex_range(s..e, advice)
    }

    fn clamp(&self, vertices: &Range<VertexId>) -> (VertexId, VertexId) {
        let base_n = self.base.n_vertices() as u64;
        (
            (vertices.start as u64).min(base_n) as VertexId,
            (vertices.end as u64).min(base_n) as VertexId,
        )
    }

    /// Logical base words spanned by the records of `vertices` (see
    /// [`DiskCsr::words_in_range`]; overlay-only records count zero).
    pub fn words_in_range(&self, vertices: Range<VertexId>) -> u64 {
        let (s, e) = self.clamp(&vertices);
        if s >= e {
            return 0;
        }
        self.base.words_in_range(s..e)
    }

    /// Physical base bytes spanned by the records of `vertices`.
    pub fn bytes_in_range(&self, vertices: Range<VertexId>) -> u64 {
        let (s, e) = self.clamp(&vertices);
        if s >= e {
            return 0;
        }
        self.base.bytes_in_range(s..e)
    }

    /// See [`DiskCsr::record_overhead_words`].
    pub fn record_overhead_words(&self) -> u64 {
        self.base.record_overhead_words()
    }

    /// Effective out-degree of `v`: the base index, minus the overlay's
    /// precomputed suppression count, plus `v`'s added run (a binary
    /// search). The dense dispatcher asks once per active vertex, so an
    /// empty overlay answers from the base index alone.
    pub fn degree(&self, v: VertexId) -> u32 {
        assert!((v as usize) < self.n_vertices, "vertex {v} out of range");
        if self.overlay.is_empty() {
            return self.base.degree(v);
        }
        self.degree_with(v, self.overlay.state.run(v).len())
    }

    /// `v`'s base degree, minus the base copies its removals suppress,
    /// plus `added`.
    fn degree_with(&self, v: VertexId, added: usize) -> u32 {
        let base_deg = if (v as usize) < self.base.n_vertices() {
            self.base.degree(v)
        } else {
            0
        };
        base_deg - self.overlay.state.removed_of(v).base_occurrences + added as u32
    }

    /// Sum of effective out-degrees over an id range (the edge-balanced
    /// partitioner's weight function): the base index, plus the added
    /// pairs whose source falls in the range (two binary searches), minus
    /// the range's removals.
    pub fn edges_in_range(&self, vertices: Range<VertexId>) -> u64 {
        let (s, e) = self.clamp(&vertices);
        let state = &*self.overlay.state;
        let base = if s >= e {
            0
        } else {
            self.base.edges_in_range(s..e)
        };
        let below = |v: VertexId| state.added_src.partition_point(|&u| u < v) as u64;
        let added = below(vertices.end).saturating_sub(below(vertices.start));
        let removed: u64 = state
            .removed
            .range(vertices)
            .map(|(_, r)| u64::from(r.base_occurrences))
            .sum();
        base + added - removed
    }

    /// Every source of an effective added edge, ascending, with its
    /// effective out-degree and its added destinations (ascending) — the
    /// walk incremental recompute seeds its frontier from.
    pub fn added_by_source(&self) -> impl Iterator<Item = (VertexId, u32, &[VertexId])> + '_ {
        self.overlay
            .added_by_source()
            .map(|(u, dsts)| (u, self.degree_with(u, dsts.len()), dsts))
    }

    /// Random access to one merged record (see [`DiskCsr::record_into`]).
    pub fn record_into<'s>(&'s self, v: VertexId, scratch: &'s mut Vec<u32>) -> VertexEdges<'s> {
        assert!((v as usize) < self.n_vertices, "vertex {v} out of range");
        if (v as usize) >= self.base.n_vertices() {
            let targets = self.overlay.added_slice(v);
            return VertexEdges {
                vid: v,
                degree: targets.len() as u32,
                targets,
            };
        }
        let removed = &self.overlay.state.removed_of(v).dsts[..];
        let added = self.overlay.added_slice(v);
        if removed.is_empty() && added.is_empty() {
            return self.base.record_into(v, scratch);
        }
        let base_targets = self.base.targets(v);
        merge_targets(&base_targets, removed, added, scratch);
        VertexEdges {
            vid: v,
            degree: scratch.len() as u32,
            targets: &scratch[..],
        }
    }

    /// One vertex's merged targets as an owned vector (tests / tools).
    pub fn targets(&self, v: VertexId) -> Vec<VertexId> {
        let mut scratch = Vec::new();
        self.record_into(v, &mut scratch).targets.to_vec()
    }

    /// A sequential merged-record cursor (see [`DiskCsr::cursor`]).
    pub fn cursor(&self, vertices: Range<VertexId>) -> SnapshotCursor<'_> {
        assert!(vertices.end as usize <= self.n_vertices);
        let (s, e) = self.clamp(&vertices);
        SnapshotCursor {
            snap: self,
            base: (s < e).then(|| self.base.cursor(s..e)),
            next: vertices.start,
            end: vertices.end,
            place: OverlayPlace::new(&self.overlay, vertices.start),
            scratch: Vec::new(),
        }
    }

    /// A seeking merged-record cursor for sparse dispatch (see
    /// [`DiskCsr::seek_cursor`]).
    pub fn seek_cursor(&self) -> SnapshotSeekCursor<'_> {
        SnapshotSeekCursor {
            snap: self,
            base: self.base.seek_cursor(),
            place: OverlayPlace::new(&self.overlay, 0),
            scratch: Vec::new(),
        }
    }

    /// See [`DiskCsr::chunk_end`]. Overlay-only tail records are
    /// memory-resident and cheap, so a chunk that exhausts the base
    /// range absorbs the whole tail.
    pub fn chunk_end(&self, vertices: Range<VertexId>, edge_budget: u64) -> VertexId {
        assert!(vertices.end as usize <= self.n_vertices);
        if vertices.start >= vertices.end {
            return vertices.end;
        }
        let (_, ce) = self.clamp(&vertices);
        if vertices.start >= ce {
            return vertices.end;
        }
        let e = self.base.chunk_end(vertices.start..ce, edge_budget);
        if e == ce {
            vertices.end
        } else {
            e
        }
    }

    /// Materialize the merged graph as an edge list (source order, the
    /// merged-record convention per vertex) — the from-scratch oracle's
    /// input and the bridge to edge-list engines.
    pub fn to_edge_list(&self) -> crate::EdgeList {
        let mut edges = Vec::with_capacity(self.n_edges);
        let mut cur = self.cursor(0..self.n_vertices as VertexId);
        while let Some(rec) = cur.next_rec() {
            for &dst in rec.targets {
                edges.push(Edge::new(rec.vid, dst));
            }
        }
        crate::EdgeList::with_vertices(edges, self.n_vertices)
    }

    /// Compaction: stream the merged records into a fresh v2 CSR (+
    /// index) at `path`, fsync'ing both files before returning — the
    /// caller's commit point (e.g. a registry manifest rename) can then
    /// rely on the new epoch being fully on disk. The output is
    /// bit-identical to preprocessing the merged edge list from scratch.
    pub fn compact_to(&self, path: &Path) -> io::Result<()> {
        let n = self.n_vertices;
        let mut out = BufWriter::new(File::create(path)?);
        write_data_header(&mut out, VERSION_V2, 0, n as u64, self.n_edges as u64)?;
        let mut idx = BufWriter::new(File::create(index_path(path))?);
        write_index_header(&mut idx, VERSION_V2, n as u64)?;

        let mut byte_off: u64 = 0;
        let mut edge_off: u64 = 0;
        let mut run = Vec::new();
        let mut cur = self.cursor(0..n as VertexId);
        while let Some(rec) = cur.next_rec() {
            idx.write_all(&byte_off.to_le_bytes())?;
            idx.write_all(&edge_off.to_le_bytes())?;
            run.clear();
            varint::encode_run(rec.targets, &mut run);
            out.write_all(&run)?;
            byte_off += run.len() as u64;
            edge_off += rec.degree as u64;
        }
        idx.write_all(&byte_off.to_le_bytes())?;
        idx.write_all(&edge_off.to_le_bytes())?;
        out.into_inner()?.sync_all()?;
        idx.into_inner()?.sync_all()?;
        Ok(())
    }
}

/// Sequential merged-record reader. See [`GraphSnapshot::cursor`]; same
/// lending-cursor contract as [`EdgeCursor`].
#[derive(Debug)]
pub struct SnapshotCursor<'a> {
    snap: &'a GraphSnapshot,
    base: Option<EdgeCursor<'a>>,
    next: VertexId,
    end: VertexId,
    place: OverlayPlace,
    scratch: Vec<u32>,
}

impl SnapshotCursor<'_> {
    /// The next merged record in the range, or `None` past the end.
    pub fn next_rec(&mut self) -> Option<VertexEdges<'_>> {
        if self.next >= self.end {
            return None;
        }
        let v = self.next;
        self.next += 1;
        let SnapshotCursor {
            snap,
            base,
            place,
            scratch,
            ..
        } = self;
        let changes = place.changes(&snap.overlay, v);
        if (v as usize) >= snap.base.n_vertices() {
            let targets = changes.map_or(&[][..], |(_, added)| added);
            return Some(VertexEdges {
                vid: v,
                degree: targets.len() as u32,
                targets,
            });
        }
        let rec = base
            .as_mut()
            .expect("base cursor covers the clamped range")
            .next_rec()
            .expect("base cursor in step with vertex ids");
        let Some((removed, added)) = changes else {
            return Some(rec);
        };
        merge_targets(rec.targets, removed, added, scratch);
        Some(VertexEdges {
            vid: v,
            degree: scratch.len() as u32,
            targets: &scratch[..],
        })
    }

    /// See [`EdgeCursor::peek_vid`].
    pub fn peek_vid(&self) -> Option<VertexId> {
        (self.next < self.end).then_some(self.next)
    }

    /// See [`EdgeCursor::skip_rec`] — skipped base records still count as
    /// streamed; overlay-only tail records cost nothing either way.
    pub fn skip_rec(&mut self) {
        debug_assert!(self.next < self.end, "skip_rec past the end");
        let v = self.next;
        if (v as usize) < self.snap.base.n_vertices() {
            self.base
                .as_mut()
                .expect("base cursor covers the clamped range")
                .skip_rec();
        }
        self.next += 1;
    }

    /// See [`EdgeCursor::take_rec_into`]. Records the overlay touches
    /// take the merged-record path (decode + filter + append); untouched
    /// base records stream straight from the base cursor.
    pub fn take_rec_into(&mut self, out: &mut Vec<u32>) -> (VertexId, u32) {
        debug_assert!(self.next < self.end, "take_rec_into past the end");
        let v = self.next;
        if (v as usize) < self.snap.base.n_vertices() && self.place.untouched(v) {
            self.next += 1;
            return self
                .base
                .as_mut()
                .expect("base cursor covers the clamped range")
                .take_rec_into(out);
        }
        let rec = self.next_rec().expect("record in range");
        let degree = rec.degree;
        let targets = rec.targets;
        out.extend_from_slice(targets);
        (v, degree)
    }

    /// Logical base words consumed so far (overlay targets are free).
    pub fn words_read(&self) -> u64 {
        self.base.as_ref().map_or(0, |c| c.words_read())
    }

    /// Physical base bytes consumed so far.
    pub fn bytes_read(&self) -> u64 {
        self.base.as_ref().map_or(0, |c| c.bytes_read())
    }
}

/// Seeking merged-record reader over an ascending id stream. See
/// [`GraphSnapshot::seek_cursor`]; same contract as [`SeekCursor`].
#[derive(Debug)]
pub struct SnapshotSeekCursor<'a> {
    snap: &'a GraphSnapshot,
    base: SeekCursor<'a>,
    place: OverlayPlace,
    scratch: Vec<u32>,
}

impl SnapshotSeekCursor<'_> {
    /// Read vertex `v`'s merged record. Ids must ascend across calls.
    pub fn record(&mut self, v: VertexId) -> VertexEdges<'_> {
        assert!(
            (v as usize) < self.snap.n_vertices,
            "vertex {v} out of range"
        );
        let SnapshotSeekCursor {
            snap,
            base,
            place,
            scratch,
        } = self;
        let changes = place.changes(&snap.overlay, v);
        if (v as usize) >= snap.base.n_vertices() {
            let targets = changes.map_or(&[][..], |(_, added)| added);
            return VertexEdges {
                vid: v,
                degree: targets.len() as u32,
                targets,
            };
        }
        let rec = base.record(v);
        let Some((removed, added)) = changes else {
            return rec;
        };
        merge_targets(rec.targets, removed, added, scratch);
        VertexEdges {
            vid: v,
            degree: scratch.len() as u32,
            targets: &scratch[..],
        }
    }

    /// Logical base words consumed so far.
    pub fn words_read(&self) -> u64 {
        self.base.words_read()
    }

    /// Physical base bytes consumed so far.
    pub fn bytes_read(&self) -> u64 {
        self.base.bytes_read()
    }

    /// Base index lookups performed.
    pub fn seeks(&self) -> u64 {
        self.base.seeks()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::preprocess::{edges_to_csr, PreprocessOptions};
    use crate::EdgeList;
    use proptest::prelude::*;
    use std::collections::HashSet;
    use std::sync::atomic::{AtomicUsize, Ordering};

    fn tmpdir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("gpsa-delta-{}-{tag}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    /// Base fixture with a duplicate edge and a self-loop: the multiset
    /// corners the overlay semantics have to get right.
    fn base_edges() -> Vec<Edge> {
        vec![
            Edge::new(0, 2),
            Edge::new(0, 3),
            Edge::new(0, 2), // duplicate
            Edge::new(1, 0),
            Edge::new(2, 2), // self-loop
            Edge::new(3, 1),
        ]
    }

    fn materialize(dir: &Path, tag: &str, el: EdgeList, opts: &PreprocessOptions) -> Arc<DiskCsr> {
        let path = dir.join(format!("{tag}.gcsr"));
        edges_to_csr(el, &path, opts).unwrap();
        Arc::new(DiskCsr::open(&path).unwrap())
    }

    fn flavors() -> Vec<(&'static str, PreprocessOptions)> {
        vec![
            ("v1-deg", PreprocessOptions::uncompressed()),
            (
                "v1-nodeg",
                PreprocessOptions {
                    with_degrees: false,
                    ..PreprocessOptions::uncompressed()
                },
            ),
            ("v2", PreprocessOptions::default()),
        ]
    }

    fn snapshot(base: &Arc<DiskCsr>, batches: &[DeltaBatch]) -> GraphSnapshot {
        let mut ov = DeltaOverlay::new();
        for b in batches {
            ov.apply(base, b);
        }
        GraphSnapshot::new(base.clone(), Arc::new(ov))
    }

    /// Independent oracle: apply the documented pair state machine to the
    /// edge list itself, returning per-vertex target sequences in the
    /// merged-record convention (base input order minus removed, then
    /// added ascending).
    fn oracle_adjacency(
        base: &[Edge],
        base_n: usize,
        batches: &[DeltaBatch],
    ) -> (Vec<Vec<VertexId>>, usize) {
        let base_pairs: HashSet<(u32, u32)> = base.iter().map(|e| (e.src, e.dst)).collect();
        let mut removed: HashSet<(u32, u32)> = HashSet::new();
        let mut added: HashSet<(u32, u32)> = HashSet::new();
        for batch in batches {
            for e in batch.edges() {
                let p = (e.src, e.dst);
                if batch.is_remove() {
                    removed.insert(p);
                    added.remove(&p);
                } else {
                    let present = if removed.contains(&p) {
                        added.contains(&p)
                    } else {
                        added.contains(&p) || base_pairs.contains(&p)
                    };
                    if !present {
                        added.insert(p);
                    }
                }
            }
        }
        let n = added
            .iter()
            .map(|&(u, v)| u.max(v) as usize + 1)
            .max()
            .unwrap_or(0)
            .max(base_n);
        let mut adj: Vec<Vec<VertexId>> = vec![Vec::new(); n];
        for e in base {
            if !removed.contains(&(e.src, e.dst)) {
                adj[e.src as usize].push(e.dst);
            }
        }
        let mut adds: Vec<(u32, u32)> = added.into_iter().collect();
        adds.sort_unstable();
        for (u, v) in adds {
            adj[u as usize].push(v);
        }
        (adj, n)
    }

    fn oracle_edge_list(adj: &[Vec<VertexId>]) -> EdgeList {
        let mut edges = Vec::new();
        for (v, targets) in adj.iter().enumerate() {
            for &t in targets {
                edges.push(Edge::new(v as VertexId, t));
            }
        }
        EdgeList::with_vertices(edges, adj.len())
    }

    /// Full equivalence: iteration, degrees, random access, seek path,
    /// and the I/O accounting conservation the dispatcher relies on.
    fn assert_matches_oracle(snap: &GraphSnapshot, adj: &[Vec<VertexId>], tag: &str) {
        assert_eq!(snap.n_vertices(), adj.len(), "{tag}: n_vertices");
        let total: usize = adj.iter().map(Vec::len).sum();
        assert_eq!(snap.n_edges(), total, "{tag}: n_edges");
        let n = adj.len() as VertexId;
        let mut cur = snap.cursor(0..n);
        for (v, want) in adj.iter().enumerate() {
            let got = cur.next_rec().expect("record per vertex");
            assert_eq!(got.vid, v as VertexId, "{tag}");
            assert_eq!(got.targets, &want[..], "{tag}: vertex {v} targets");
            assert_eq!(got.degree as usize, want.len(), "{tag}: vertex {v} degree");
        }
        assert!(cur.next_rec().is_none(), "{tag}: cursor past the end");
        assert_eq!(cur.words_read(), snap.words_in_range(0..n), "{tag}: words");
        assert_eq!(cur.bytes_read(), snap.bytes_in_range(0..n), "{tag}: bytes");
        for stride in [3, 7] {
            let mut seek = snap.seek_cursor();
            for (v, want) in adj.iter().enumerate().skip(1).step_by(stride) {
                assert_eq!(
                    seek.record(v as VertexId).targets,
                    &want[..],
                    "{tag}: seek {v} by {stride}"
                );
            }
        }
        let mut seek = snap.seek_cursor();
        let mut scratch = Vec::new();
        for (v, want) in adj.iter().enumerate().step_by(2) {
            assert_eq!(
                seek.record(v as VertexId).targets,
                &want[..],
                "{tag}: seek {v}"
            );
            assert_eq!(
                snap.record_into(v as VertexId, &mut scratch).targets,
                &want[..],
                "{tag}: record_into {v}"
            );
            assert_eq!(
                snap.degree(v as VertexId) as usize,
                want.len(),
                "{tag}: degree {v}"
            );
        }
        assert_eq!(snap.edges_in_range(0..n), total as u64, "{tag}: edge sum");
    }

    #[test]
    fn delta_path_convention() {
        assert_eq!(
            delta_path(Path::new("/x/web.gcsr")),
            PathBuf::from("/x/web.gcsr.gdelta")
        );
    }

    #[test]
    fn batch_body_roundtrips() {
        let add = DeltaBatch::Add(vec![Edge::new(0, 2), Edge::new(7, 7)]);
        assert_eq!(add.encode_body(), "add 0:2 7:7");
        assert_eq!(DeltaBatch::parse_body("add 0:2 7:7"), Some(add));
        let rm = DeltaBatch::Remove(vec![Edge::new(3, 1)]);
        assert_eq!(DeltaBatch::parse_body(&rm.encode_body()), Some(rm));
        assert_eq!(
            DeltaBatch::parse_body("remove"),
            Some(DeltaBatch::Remove(vec![]))
        );
        assert_eq!(DeltaBatch::parse_body("nonsense 1:2"), None);
        assert_eq!(DeltaBatch::parse_body("add 12"), None);
        assert_eq!(DeltaBatch::parse_body("add 1:x"), None);
    }

    #[test]
    fn log_replays_batches_and_truncates_torn_tail() {
        let dir = tmpdir("log");
        let csr = dir.join("g.gcsr");
        edges_to_csr(
            EdgeList::from_edges(base_edges()),
            &csr,
            &PreprocessOptions::default(),
        )
        .unwrap();
        let (mut log, replayed) = DeltaLog::open(&csr).unwrap();
        assert!(replayed.is_empty());
        let b1 = DeltaBatch::Add(vec![Edge::new(1, 3), Edge::new(2, 0)]);
        let b2 = DeltaBatch::Remove(vec![Edge::new(0, 2)]);
        log.append(&b1).unwrap();
        log.append(&b2).unwrap();
        drop(log);
        // Tear a third batch: half its framed bytes, no newline. The
        // whole batch must vanish on recovery — batches are atomic.
        let torn = framed::encode_line(&DeltaBatch::Add(vec![Edge::new(3, 3)]).encode_body());
        let mut f = std::fs::OpenOptions::new()
            .append(true)
            .open(delta_path(&csr))
            .unwrap();
        f.write_all(&torn.as_bytes()[..torn.len() / 2]).unwrap();
        drop(f);
        let (mut log, replayed) = DeltaLog::open(&csr).unwrap();
        assert_eq!(replayed, vec![b1.clone(), b2.clone()]);
        // The tail is physically gone and appends continue cleanly.
        log.append(&DeltaBatch::Add(vec![Edge::new(3, 3)])).unwrap();
        drop(log);
        let (snap, log) = open_live(&csr).unwrap();
        assert_eq!(snap.delta_seq(), 3);
        assert_eq!(log.path(), delta_path(&csr));
        let (adj, _) = oracle_adjacency(
            &base_edges(),
            4,
            &[b1, b2, DeltaBatch::Add(vec![Edge::new(3, 3)])],
        );
        assert_matches_oracle(&snap, &adj, "open_live");
    }

    #[test]
    fn overlay_multiset_semantics() {
        let dir = tmpdir("semantics");
        let base = materialize(
            &dir,
            "b",
            EdgeList::from_edges(base_edges()),
            &PreprocessOptions::default(),
        );
        // Add of an edge already in the base: no-op.
        let s = snapshot(&base, &[DeltaBatch::Add(vec![Edge::new(0, 3)])]);
        assert_eq!(s.targets(0), &[2, 3, 2]);
        assert_eq!(s.n_edges(), 6);
        assert!(!s.overlay().has_removals());
        // Remove deletes every copy, including duplicates.
        let s = snapshot(&base, &[DeltaBatch::Remove(vec![Edge::new(0, 2)])]);
        assert_eq!(s.targets(0), &[3]);
        assert_eq!(s.n_edges(), 4);
        assert_eq!(s.degree(0), 1);
        assert!(s.overlay().has_removals());
        // Remove-then-re-add: base copies stay suppressed, one overlay
        // copy appears in the added (ascending) section.
        let s = snapshot(
            &base,
            &[
                DeltaBatch::Remove(vec![Edge::new(0, 2)]),
                DeltaBatch::Add(vec![Edge::new(0, 2)]),
            ],
        );
        assert_eq!(s.targets(0), &[3, 2]);
        assert_eq!(s.n_edges(), 5);
        // Add-then-remove of a new edge cancels out.
        let s = snapshot(
            &base,
            &[
                DeltaBatch::Add(vec![Edge::new(1, 3)]),
                DeltaBatch::Remove(vec![Edge::new(1, 3)]),
            ],
        );
        assert_eq!(s.targets(1), &[0]);
        assert_eq!(s.n_edges(), 6);
        // Removing a nonexistent edge changes nothing but still counts
        // as a removal (incremental recompute must stay conservative).
        let s = snapshot(&base, &[DeltaBatch::Remove(vec![Edge::new(2, 0)])]);
        assert_eq!(s.n_edges(), 6);
        assert!(s.overlay().has_removals());
        // added_by_source yields effective adds only, in order.
        let s = snapshot(
            &base,
            &[
                DeltaBatch::Add(vec![Edge::new(2, 3), Edge::new(1, 2), Edge::new(1, 1)]),
                DeltaBatch::Remove(vec![Edge::new(2, 3)]),
            ],
        );
        let seen: Vec<_> = s.overlay().added_by_source().collect();
        assert_eq!(seen, vec![(1, &[1, 2][..])]);
        let seen: Vec<_> = s.added_by_source().collect();
        assert_eq!(seen, vec![(1, 3, &[1, 2][..])]);
        assert_eq!(s.overlay().added_edges(), 2);
    }

    #[test]
    fn snapshot_grows_past_base_range() {
        let dir = tmpdir("grow");
        let base = materialize(
            &dir,
            "b",
            EdgeList::from_edges(base_edges()),
            &PreprocessOptions::default(),
        );
        let batches = [DeltaBatch::Add(vec![Edge::new(6, 9), Edge::new(2, 5)])];
        let s = snapshot(&base, &batches);
        assert_eq!(s.n_vertices(), 10);
        assert_eq!(s.n_edges(), 8);
        assert_eq!(s.targets(6), &[9]);
        assert_eq!(s.degree(9), 0);
        assert!(s.targets(7).is_empty());
        let (adj, n) = oracle_adjacency(&base_edges(), 4, &batches);
        assert_eq!(n, 10);
        assert_matches_oracle(&s, &adj, "grow");
        // Overlay-only tail vertices cost no base I/O; the tail chunk is
        // absorbed once the base range is exhausted.
        assert_eq!(s.words_in_range(4..10), 0);
        assert_eq!(s.chunk_end(0..10, u64::MAX), 10);
        assert_eq!(s.chunk_end(5..10, 1), 10);
        // Chunks over the base region still respect the budget.
        let first = s.chunk_end(0..10, 1);
        assert!((1..10).contains(&first));
    }

    #[test]
    fn merged_view_matches_scratch_all_flavors() {
        let batches = vec![
            DeltaBatch::Add(vec![Edge::new(1, 3), Edge::new(1, 2), Edge::new(0, 1)]),
            DeltaBatch::Remove(vec![Edge::new(0, 2), Edge::new(2, 2)]),
            DeltaBatch::Add(vec![Edge::new(0, 2), Edge::new(3, 0)]),
        ];
        let (adj, _) = oracle_adjacency(&base_edges(), 4, &batches);
        for (tag, opts) in flavors() {
            let dir = tmpdir(&format!("flavor-{tag}"));
            let base = materialize(&dir, "b", EdgeList::from_edges(base_edges()), &opts);
            let s = snapshot(&base, &batches);
            assert_matches_oracle(&s, &adj, tag);
            // An empty overlay passes base records through untouched.
            let passthrough = GraphSnapshot::from_csr(base.clone());
            assert!(!passthrough.overlay().has_removals());
            assert_eq!(passthrough.n_edges(), base.n_edges());
            for v in 0..4 {
                assert_eq!(passthrough.targets(v), base.targets(v), "{tag}");
            }
        }
    }

    #[test]
    fn snapshot_cursor_take_and_skip_match_next_rec() {
        let batches = vec![
            DeltaBatch::Add(vec![Edge::new(1, 3), Edge::new(6, 2)]),
            DeltaBatch::Remove(vec![Edge::new(0, 2)]),
        ];
        for (tag, opts) in flavors() {
            let dir = tmpdir(&format!("takeskip-{tag}"));
            let base = materialize(&dir, "b", EdgeList::from_edges(base_edges()), &opts);
            let s = snapshot(&base, &batches);
            let n = s.n_vertices() as VertexId;
            let mut cur = s.cursor(0..n);
            let mut out = Vec::new();
            let mut recs = Vec::new();
            while let Some(v) = cur.peek_vid() {
                let before = out.len();
                let (vid, degree) = cur.take_rec_into(&mut out);
                assert_eq!(vid, v, "{tag}");
                assert_eq!(degree as usize, out.len() - before, "{tag}");
                recs.push(out[before..].to_vec());
            }
            assert_eq!(cur.words_read(), s.words_in_range(0..n), "{tag}");
            let mut oracle = s.cursor(0..n);
            for want in &recs {
                assert_eq!(oracle.next_rec().unwrap().targets, &want[..], "{tag}");
            }
            // Any skip/take mix still accounts for the full base span.
            let mut cur = s.cursor(0..n);
            for v in 0..n {
                if v % 2 == 0 {
                    cur.skip_rec();
                } else {
                    cur.take_rec_into(&mut Vec::new());
                }
            }
            assert_eq!(cur.words_read(), s.words_in_range(0..n), "{tag}");
            assert_eq!(cur.bytes_read(), s.bytes_in_range(0..n), "{tag}");
        }
    }

    #[test]
    fn compaction_is_bit_identical_to_scratch_preprocessing() {
        let dir = tmpdir("compact");
        let base = materialize(
            &dir,
            "b",
            EdgeList::from_edges(base_edges()),
            &PreprocessOptions::uncompressed(),
        );
        let batches = vec![
            DeltaBatch::Remove(vec![Edge::new(0, 2)]),
            DeltaBatch::Add(vec![Edge::new(0, 2), Edge::new(5, 1)]),
        ];
        let s = snapshot(&base, &batches);
        let compacted = dir.join("compacted.gcsr");
        s.compact_to(&compacted).unwrap();

        let (adj, _) = oracle_adjacency(&base_edges(), 4, &batches);
        let scratch_path = dir.join("scratch.gcsr");
        edges_to_csr(
            oracle_edge_list(&adj),
            &scratch_path,
            &PreprocessOptions::default(),
        )
        .unwrap();
        assert_eq!(
            std::fs::read(&compacted).unwrap(),
            std::fs::read(&scratch_path).unwrap(),
            "compacted edge file differs from scratch preprocessing"
        );
        assert_eq!(
            std::fs::read(index_path(&compacted)).unwrap(),
            std::fs::read(index_path(&scratch_path)).unwrap(),
            "compacted index differs from scratch preprocessing"
        );
        // The compacted epoch reopens as a normal frozen graph.
        let reopened = DiskCsr::open(&compacted).unwrap();
        reopened.validate().unwrap();
        assert_eq!(reopened.n_edges(), s.n_edges());
    }

    static PROP_CASE: AtomicUsize = AtomicUsize::new(0);

    proptest! {
        #![proptest_config(ProptestConfig { cases: 48, ..ProptestConfig::default() })]

        /// Satellite 3: CSR ⊕ random delta batches (including
        /// remove-then-re-add collisions) is bit-identical to
        /// preprocessing the mutated edge list from scratch, for v1 and
        /// v2 base formats, through every read path.
        #[test]
        fn prop_merged_matches_scratch(
            base_n in 1usize..14,
            raw in proptest::collection::vec((0u32..14, 0u32..14), 0..40),
            ops in proptest::collection::vec(
                (any::<bool>(), proptest::collection::vec((0u32..18, 0u32..18), 1..8)),
                0..6
            ),
            compress in any::<bool>(),
        ) {
            let case = PROP_CASE.fetch_add(1, Ordering::Relaxed);
            let dir = std::env::temp_dir()
                .join(format!("gpsa-delta-prop-{}", std::process::id()))
                .join(format!("case-{case}"));
            std::fs::create_dir_all(&dir).unwrap();

            let edges: Vec<Edge> = raw
                .iter()
                .map(|&(u, v)| Edge::new(u % base_n as u32, v % base_n as u32))
                .collect();
            let batches: Vec<DeltaBatch> = ops
                .iter()
                .map(|(rm, es)| {
                    let es: Vec<Edge> = es.iter().map(|&(u, v)| Edge::new(u, v)).collect();
                    if *rm { DeltaBatch::Remove(es) } else { DeltaBatch::Add(es) }
                })
                .collect();
            let opts = if compress {
                PreprocessOptions::default()
            } else {
                PreprocessOptions::uncompressed()
            };
            materialize(
                &dir,
                "base",
                EdgeList::with_vertices(edges.clone(), base_n),
                &opts,
            );

            // Route the batches through the on-disk log, so replay and
            // parse are under test too.
            let (mut log, _) = DeltaLog::open(dir.join("base.gcsr")).unwrap();
            for b in &batches {
                log.append(b).unwrap();
            }
            drop(log);
            let (snap, _) = open_live(dir.join("base.gcsr")).unwrap();
            prop_assert_eq!(snap.delta_seq(), batches.len() as u64);

            let (adj, _) = oracle_adjacency(&edges, base_n, &batches);
            assert_matches_oracle(&snap, &adj, "prop");

            // Compaction output is byte-for-byte the scratch v2 build.
            let compacted = dir.join("compacted.gcsr");
            snap.compact_to(&compacted).unwrap();
            let scratch_path = dir.join("scratch.gcsr");
            edges_to_csr(oracle_edge_list(&adj), &scratch_path, &PreprocessOptions::default())
                .unwrap();
            prop_assert_eq!(
                std::fs::read(&compacted).unwrap(),
                std::fs::read(&scratch_path).unwrap()
            );
            prop_assert_eq!(
                std::fs::read(index_path(&compacted)).unwrap(),
                std::fs::read(index_path(&scratch_path)).unwrap()
            );
            let _ = std::fs::remove_dir_all(&dir);
        }

        /// Copy-on-write isolation: a snapshot sealed before `apply` keeps
        /// its whole view — edge count, degrees, records, edge list —
        /// whatever add and remove batches a clone of its overlay takes
        /// afterwards, while the clone lands where the oracle says.
        #[test]
        fn prop_pinned_snapshot_survives_applies_to_a_clone(
            base_n in 1usize..12,
            raw in proptest::collection::vec((0u32..12, 0u32..12), 0..30),
            ops in proptest::collection::vec(
                (any::<bool>(), proptest::collection::vec((0u32..16, 0u32..16), 1..8)),
                1..8
            ),
            pinned_at in 0usize..8,
        ) {
            let case = PROP_CASE.fetch_add(1, Ordering::Relaxed);
            let dir = std::env::temp_dir()
                .join(format!("gpsa-delta-cow-{}", std::process::id()))
                .join(format!("case-{case}"));
            std::fs::create_dir_all(&dir).unwrap();
            let edges: Vec<Edge> = raw
                .iter()
                .map(|&(u, v)| Edge::new(u % base_n as u32, v % base_n as u32))
                .collect();
            let base = materialize(
                &dir,
                "base",
                EdgeList::with_vertices(edges.clone(), base_n),
                &PreprocessOptions::default(),
            );
            let batches: Vec<DeltaBatch> = ops
                .iter()
                .map(|(rm, es)| {
                    let es: Vec<Edge> = es.iter().map(|&(u, v)| Edge::new(u, v)).collect();
                    if *rm { DeltaBatch::Remove(es) } else { DeltaBatch::Add(es) }
                })
                .collect();
            let pinned_at = pinned_at.min(batches.len());

            let mut overlay = DeltaOverlay::new();
            for b in &batches[..pinned_at] {
                overlay.apply(&base, b);
            }
            let pinned = GraphSnapshot::new(base.clone(), Arc::new(overlay.clone()));
            let view = |s: &GraphSnapshot| {
                let n = s.n_vertices() as VertexId;
                let degrees: Vec<u32> = (0..n).map(|v| s.degree(v)).collect();
                let records: Vec<Vec<VertexId>> = (0..n).map(|v| s.targets(v)).collect();
                (s.n_edges(), degrees, records, s.to_edge_list().edges)
            };
            let before = view(&pinned);
            for b in &batches[pinned_at..] {
                overlay.apply(&base, b);
                prop_assert_eq!(&view(&pinned), &before);
            }
            let (adj, _) = oracle_adjacency(&edges, base_n, &batches);
            assert_matches_oracle(&GraphSnapshot::new(base, Arc::new(overlay)), &adj, "clone");
            let (adj, _) = oracle_adjacency(&edges, base_n, &batches[..pinned_at]);
            assert_matches_oracle(&pinned, &adj, "pinned");
            let _ = std::fs::remove_dir_all(&dir);
        }
    }
}
