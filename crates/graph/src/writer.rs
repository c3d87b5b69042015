//! Build-direct-to-arena construction: [`ArenaWriter`] fills the final
//! [`TopologyArena`] image in place (count-then-fill, no intermediate
//! heap CSR) — in a heap buffer, or inside a write-through mapping of
//! the destination file so that sealing the writer is the freeze.
//!
//! ## Why write into the image directly
//!
//! The classic freeze pipeline materializes per-peer `Vec` rows, packs
//! them into a heap CSR, and then copies everything into the arena
//! allocation — every edge is touched three times and every byte of the
//! final image is *re*-touched once more at copy time. At 10⁷+ peers the
//! copies (and the page faults backing the transient allocations)
//! dominate construction. The writer inverts this: a cheap counting pass
//! fixes each peer's row extent, the arena is allocated once, and link
//! sampling writes targets straight into their final offsets. The
//! `in_offsets`/`in_edges` transpose and the `FLAG_SORTED` scan run over
//! the finished sections in [`ArenaWriter::finish`], fanned out with
//! [`crate::par`].
//!
//! ## Sharding
//!
//! Disjoint peer ranges own disjoint byte ranges of the `edges` /
//! `edge_pos` / `node_pos` sections (rows are contiguous in peer order),
//! so [`ArenaWriter::fill_shards`] can hand every shard its own mutable
//! slice and fill them concurrently. Shards exist only inside one
//! process, as the unit of fill parallelism: the image is a pure
//! function of what each peer's row receives, so it is byte-identical to
//! a monolithic [`TopologyArena::build`] + [`TopologyArena::write_to`]
//! of the same topology for every partition and thread count.

use crate::csr::transpose_into;
use crate::digraph::NodeId;
use crate::par;
use crate::store::{
    self, bad_format, f64_section_mut, u32_section, u32_section_mut, TopologyArena, FLAG_EDGE_POS,
    FLAG_NODE_POS, FLAG_SORTED,
};
use std::io;
use std::ops::Range;

/// The image under construction: a heap allocation, or (with the `mmap`
/// feature) a write-through mapping of the destination file itself — in
/// which case sealing the writer *is* the freeze, no copy.
enum WriterBuf {
    Owned(Box<[u64]>),
    #[cfg(all(feature = "mmap", unix, target_pointer_width = "64"))]
    Mapped(store::mapping::Mapping),
}

impl std::ops::Deref for WriterBuf {
    type Target = [u64];
    fn deref(&self) -> &[u64] {
        match self {
            WriterBuf::Owned(b) => b,
            #[cfg(all(feature = "mmap", unix, target_pointer_width = "64"))]
            WriterBuf::Mapped(m) => m.words(),
        }
    }
}

impl std::ops::DerefMut for WriterBuf {
    fn deref_mut(&mut self) -> &mut [u64] {
        match self {
            WriterBuf::Owned(b) => b,
            #[cfg(all(feature = "mmap", unix, target_pointer_width = "64"))]
            WriterBuf::Mapped(m) => m.words_mut(),
        }
    }
}

/// An arena image under construction: header and offsets are fixed up
/// front from per-peer degrees; edge rows and lanes are filled in place
/// (concurrently, per disjoint peer range); [`ArenaWriter::finish`]
/// derives the in-edge CSR and sorted flag and seals the image into a
/// [`TopologyArena`].
pub struct ArenaWriter {
    n: usize,
    m: usize,
    flags: u64,
    layout: store::Layout,
    buf: WriterBuf,
}

/// One shard's mutable window into the arena image being written: the
/// peer range it owns, its slice of the `edges` section (rebased to
/// `edge_base`), and matching lane slices.
pub struct ShardSlots<'a> {
    /// The peer ids this shard owns.
    pub range: Range<usize>,
    /// Global edge index of `edges[0]` (`offsets[range.start]`).
    pub edge_base: usize,
    /// The full global offset table (`n + 1` entries, read-only).
    pub offsets: &'a [u32],
    /// The shard's rows of the edge section, contiguous.
    pub edges: &'a mut [NodeId],
    /// The shard's slice of the per-edge `f64` lane, if present.
    pub edge_pos: Option<&'a mut [f64]>,
    /// The shard's slice of the per-node `f64` lane, if present.
    pub node_pos: Option<&'a mut [f64]>,
}

impl ShardSlots<'_> {
    /// Peer `u`'s row as indices into this shard's local `edges` /
    /// `edge_pos` slices.
    #[inline]
    pub fn row_bounds(&self, u: usize) -> Range<usize> {
        debug_assert!(self.range.contains(&u), "peer outside the shard");
        self.offsets[u] as usize - self.edge_base..self.offsets[u + 1] as usize - self.edge_base
    }
}

impl ArenaWriter {
    /// Preallocates the full arena image for a topology whose peer `u`
    /// has out-degree `degrees[u]`, with the offset table prefix-summed
    /// and the header written. Lane flags must be declared here (they
    /// shape the layout); `FLAG_SORTED` is derived later by
    /// [`ArenaWriter::finish`].
    ///
    /// Errors if the total edge count leaves the `u32` id space.
    pub fn from_degrees(
        degrees: &[u32],
        with_edge_pos: bool,
        with_node_pos: bool,
    ) -> io::Result<ArenaWriter> {
        let (n, m, flags, layout) = Self::plan(degrees, with_edge_pos, with_node_pos)?;
        let buf = WriterBuf::Owned(vec![0u64; layout.total_words].into_boxed_slice());
        Ok(Self::init(buf, n, m, flags, layout, degrees))
    }

    /// [`from_degrees`], but the image is a write-through mapping of a
    /// freshly created `path`: every fill lands in the destination
    /// file's pages directly, so [`ArenaWriter::finish`] seals an arena
    /// that is *already frozen on disk* — the build pays the page
    /// provisioning once instead of build-then-copy paying it twice.
    ///
    /// [`from_degrees`]: ArenaWriter::from_degrees
    #[cfg(all(feature = "mmap", unix, target_pointer_width = "64"))]
    pub fn create_at(
        path: impl AsRef<std::path::Path>,
        degrees: &[u32],
        with_edge_pos: bool,
        with_node_pos: bool,
    ) -> io::Result<ArenaWriter> {
        let (n, m, flags, layout) = Self::plan(degrees, with_edge_pos, with_node_pos)?;
        let file = std::fs::OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(true)
            .open(path)?;
        // A truncate-extended file reads as zeros — the same blank
        // canvas `from_degrees` allocates. Preallocating the blocks up
        // front keeps the fill's page faults off the filesystem's
        // block-allocation path (an order of magnitude on ext4).
        file.set_len((layout.total_words * 8) as u64)?;
        store::mapping::preallocate(&file, layout.total_words * 8);
        let map = store::mapping::Mapping::map_rw(&file, layout.total_words * 8)?;
        Ok(Self::init(
            WriterBuf::Mapped(map),
            n,
            m,
            flags,
            layout,
            degrees,
        ))
    }

    /// Validates the degree table and computes the image geometry.
    fn plan(
        degrees: &[u32],
        with_edge_pos: bool,
        with_node_pos: bool,
    ) -> io::Result<(usize, usize, u64, store::Layout)> {
        let n = degrees.len();
        if n > u32::MAX as usize {
            return Err(bad_format("peer count exceeds the u32 id space"));
        }
        let total: u64 = degrees.iter().map(|&d| d as u64).sum();
        if total > u32::MAX as u64 {
            return Err(bad_format("edge count exceeds the u32 id space"));
        }
        let mut flags = 0u64;
        if with_edge_pos {
            flags |= FLAG_EDGE_POS;
        }
        if with_node_pos {
            flags |= FLAG_NODE_POS;
        }
        let m = total as usize;
        Ok((n, m, flags, store::layout(n, m, flags)))
    }

    /// Writes the header and prefix-summed offset table into a blank
    /// (all-zero) image buffer.
    fn init(
        mut buf: WriterBuf,
        n: usize,
        m: usize,
        flags: u64,
        layout: store::Layout,
        degrees: &[u32],
    ) -> ArenaWriter {
        buf[0] = store::MAGIC;
        buf[1] = n as u64;
        buf[2] = m as u64;
        buf[3] = flags;
        let offs = u32_section_mut(&mut buf, layout.offsets, n + 1);
        let mut acc = 0u32;
        for (i, &d) in degrees.iter().enumerate() {
            acc += d;
            offs[i + 1] = acc;
        }
        ArenaWriter {
            n,
            m,
            flags,
            layout,
            buf,
        }
    }

    /// Number of peers.
    pub fn len(&self) -> usize {
        self.n
    }

    /// True if the writer covers no peers.
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// Total number of directed edges the image will hold.
    pub fn edge_count(&self) -> usize {
        self.m
    }

    /// The global offset table (`n + 1` entries).
    pub fn offsets(&self) -> &[u32] {
        u32_section(&self.buf, self.layout.offsets, self.n + 1)
    }

    /// Runs `fill(shard_index, slots)` for every shard, concurrently
    /// across `threads` workers (`0` = auto). `ranges[i]` is shard `i`'s
    /// peer range; ranges must be pairwise disjoint (any order, gaps
    /// allowed — unfilled rows keep their zero initialization).
    ///
    /// Each shard receives mutable slices covering exactly its own rows,
    /// so fills cannot race by construction; the output is a pure
    /// function of what each shard writes, independent of thread count
    /// or completion order.
    ///
    /// # Panics
    ///
    /// Panics if ranges overlap or exceed the peer count.
    pub fn fill_shards<F>(&mut self, ranges: &[Range<usize>], threads: usize, fill: F)
    where
        F: Fn(usize, ShardSlots<'_>) + Sync,
    {
        let (n, m, l) = (self.n, self.m, self.layout);
        let mut order: Vec<usize> = (0..ranges.len()).collect();
        order.sort_by_key(|&i| ranges[i].start);
        // Carve the mutable sections out of the one backing buffer.
        let (pre, rest) = self.buf.split_at_mut(l.edges);
        let (edges_w, rest) = rest.split_at_mut(l.in_offsets - l.edges);
        let (_in_csr, rest) = rest.split_at_mut(l.edge_pos - l.in_offsets);
        let (epos_w, npos_w) = rest.split_at_mut(l.node_pos - l.edge_pos);
        let offsets: &[u32] = u32_section(pre, l.offsets, n + 1);
        let mut edges_rest: &mut [NodeId] = u32_section_mut(edges_w, 0, m);
        let mut epos_rest: &mut [f64] = if self.flags & FLAG_EDGE_POS != 0 {
            f64_section_mut(epos_w, 0, m)
        } else {
            &mut []
        };
        let mut npos_rest: &mut [f64] = if self.flags & FLAG_NODE_POS != 0 {
            f64_section_mut(npos_w, 0, n)
        } else {
            &mut []
        };
        // Split each section at the (sorted) shard boundaries; the slots
        // land back in input order so `fill` sees the caller's indexing.
        let mut slots: Vec<Option<ShardSlots<'_>>> = (0..ranges.len()).map(|_| None).collect();
        let (mut node_cursor, mut edge_cursor) = (0usize, 0usize);
        for &i in &order {
            let r = ranges[i].clone();
            assert!(
                r.start >= node_cursor && r.end <= n && r.start <= r.end,
                "shard ranges must be disjoint and within 0..n"
            );
            let (lo_e, hi_e) = (offsets[r.start] as usize, offsets[r.end] as usize);
            let (_gap, taken) = std::mem::take(&mut edges_rest).split_at_mut(lo_e - edge_cursor);
            let (mine_e, tail) = taken.split_at_mut(hi_e - lo_e);
            edges_rest = tail;
            let edge_pos = (self.flags & FLAG_EDGE_POS != 0).then(|| {
                let (_gap, taken) = std::mem::take(&mut epos_rest).split_at_mut(lo_e - edge_cursor);
                let (mine, tail) = taken.split_at_mut(hi_e - lo_e);
                epos_rest = tail;
                mine
            });
            let node_pos = (self.flags & FLAG_NODE_POS != 0).then(|| {
                let (_gap, taken) =
                    std::mem::take(&mut npos_rest).split_at_mut(r.start - node_cursor);
                let (mine, tail) = taken.split_at_mut(r.len());
                npos_rest = tail;
                mine
            });
            slots[i] = Some(ShardSlots {
                range: r.clone(),
                edge_base: lo_e,
                offsets,
                edges: mine_e,
                edge_pos,
                node_pos,
            });
            node_cursor = r.end;
            edge_cursor = hi_e;
        }
        let workers = par::effective_threads(ranges.len(), threads, 1);
        if workers <= 1 {
            for (i, s) in slots.into_iter().enumerate() {
                fill(i, s.expect("every shard got slots"));
            }
            return;
        }
        // Hand each worker a contiguous batch of shards.
        let chunk = ranges.len().div_ceil(workers);
        let mut batches: Vec<Vec<(usize, ShardSlots<'_>)>> = Vec::with_capacity(workers);
        let mut it = slots.into_iter().enumerate();
        loop {
            let batch: Vec<_> = it
                .by_ref()
                .take(chunk)
                .map(|(i, s)| (i, s.expect("every shard got slots")))
                .collect();
            if batch.is_empty() {
                break;
            }
            batches.push(batch);
        }
        std::thread::scope(|scope| {
            for batch in batches {
                let fill = &fill;
                scope.spawn(move || {
                    for (i, s) in batch {
                        fill(i, s);
                    }
                });
            }
        });
    }

    /// Seals the image: derives `in_offsets`/`in_edges` with the shared
    /// parallel transpose, scans rows for the `FLAG_SORTED` bit, and
    /// wraps the buffer as a [`TopologyArena`] — byte-identical to
    /// freezing the same topology through [`TopologyArena::build`].
    pub fn finish(mut self, threads: usize) -> io::Result<TopologyArena> {
        let (n, m, l) = (self.n, self.m, self.layout);
        let sorted = {
            let (pre, rest) = self.buf.split_at_mut(l.in_offsets);
            let (in_w, _lanes) = rest.split_at_mut(l.edge_pos - l.in_offsets);
            let offsets: &[u32] = u32_section(pre, l.offsets, n + 1);
            let edges: &[NodeId] = u32_section(pre, l.edges, m);
            let (inoff_w, inedge_w) = in_w.split_at_mut(l.in_edges - l.in_offsets);
            let in_offsets = u32_section_mut(inoff_w, 0, n + 1);
            let in_edges = u32_section_mut(inedge_w, 0, m);
            transpose_into(n, offsets, edges, in_offsets, in_edges, threads);
            par::par_chunks(n, threads, |r| {
                (r.start..r.end).all(|u| {
                    edges[offsets[u] as usize..offsets[u + 1] as usize]
                        .windows(2)
                        .all(|w| w[0] <= w[1])
                })
            })
            .into_iter()
            .all(|ok| ok)
        };
        if sorted {
            self.buf[3] |= FLAG_SORTED;
            self.flags |= FLAG_SORTED;
        }
        match self.buf {
            WriterBuf::Owned(buf) => TopologyArena::from_image(buf),
            #[cfg(all(feature = "mmap", unix, target_pointer_width = "64"))]
            WriterBuf::Mapped(map) => TopologyArena::from_image_map(map),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::csr::{LinkTable, Topology};

    /// A deterministic pseudo-random topology over `n` peers.
    fn scrambled_topology(n: usize, avg_deg: usize) -> Topology {
        let mut lt = LinkTable::new(n);
        let mut state = 0x9e37_79b9_7f4a_7c15u64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        for u in 0..n as NodeId {
            let deg = (next() as usize) % (2 * avg_deg + 1);
            for _ in 0..deg {
                lt.add(u, (next() % n as u64) as NodeId);
            }
        }
        lt.build()
    }

    fn arena_of(topo: &Topology, lanes: bool) -> TopologyArena {
        let edge_pos: Vec<f64> = topo.edges().iter().map(|&v| v as f64 / 100.0).collect();
        let node_pos: Vec<f64> = (0..topo.len()).map(|i| i as f64 / 10.0).collect();
        if lanes {
            TopologyArena::build(topo, Some(&edge_pos), Some(&node_pos))
        } else {
            TopologyArena::build(topo, None, None)
        }
    }

    fn write_via_writer(
        topo: &Topology,
        lanes: bool,
        shards: usize,
        threads: usize,
    ) -> TopologyArena {
        let n = topo.len();
        let degrees: Vec<u32> = (0..n as NodeId)
            .map(|u| topo.out_degree(u) as u32)
            .collect();
        let mut writer = ArenaWriter::from_degrees(&degrees, lanes, lanes).unwrap();
        let chunk = n.div_ceil(shards.max(1)).max(1);
        let ranges: Vec<std::ops::Range<usize>> = (0..shards)
            .map(|s| (s * chunk).min(n)..((s + 1) * chunk).min(n))
            .collect();
        writer.fill_shards(&ranges, threads, |_, mut slots| {
            for u in slots.range.clone() {
                let row = slots.row_bounds(u);
                slots.edges[row.clone()].copy_from_slice(topo.neighbors(u as NodeId));
                if let Some(lane) = slots.edge_pos.as_deref_mut() {
                    for (k, &v) in row.clone().zip(topo.neighbors(u as NodeId)) {
                        lane[k] = v as f64 / 100.0;
                    }
                }
                if let Some(lane) = slots.node_pos.as_deref_mut() {
                    lane[u - slots.range.start] = u as f64 / 10.0;
                }
            }
        });
        writer.finish(threads).unwrap()
    }

    #[test]
    fn writer_image_matches_build() {
        let topo = scrambled_topology(500, 6);
        for lanes in [false, true] {
            let reference = arena_of(&topo, lanes);
            for shards in [1, 2, 3, 7] {
                for threads in [1, 4] {
                    let built = write_via_writer(&topo, lanes, shards, threads);
                    assert_eq!(
                        built.as_bytes(),
                        reference.as_bytes(),
                        "lanes={lanes} shards={shards} threads={threads}"
                    );
                }
            }
        }
    }

    /// The write-through variant must produce the same image as the
    /// heap-buffered writer, and the file it leaves behind must be a
    /// valid frozen arena with no explicit freeze step.
    #[cfg(all(feature = "mmap", unix, target_pointer_width = "64"))]
    #[test]
    fn create_at_is_already_frozen() {
        let topo = scrambled_topology(400, 5);
        let n = topo.len();
        let degrees: Vec<u32> = (0..n as NodeId)
            .map(|u| topo.out_degree(u) as u32)
            .collect();
        let path = std::env::temp_dir().join("sw-writer-create-at.arena");
        for lanes in [false, true] {
            let reference = arena_of(&topo, lanes);
            let mut writer = ArenaWriter::create_at(&path, &degrees, lanes, lanes).unwrap();
            writer.fill_shards(&[0..n / 2, n / 2..n], 1, |_, mut slots| {
                for u in slots.range.clone() {
                    let row = slots.row_bounds(u);
                    slots.edges[row.clone()].copy_from_slice(topo.neighbors(u as NodeId));
                    if let Some(lane) = slots.edge_pos.as_deref_mut() {
                        for (k, &v) in row.clone().zip(topo.neighbors(u as NodeId)) {
                            lane[k] = v as f64 / 100.0;
                        }
                    }
                    if let Some(lane) = slots.node_pos.as_deref_mut() {
                        lane[u - slots.range.start] = u as f64 / 10.0;
                    }
                }
            });
            let sealed = writer.finish(1).unwrap();
            assert_eq!(sealed.as_bytes(), reference.as_bytes(), "lanes={lanes}");
            drop(sealed);
            let reopened = TopologyArena::open(&path).unwrap();
            assert_eq!(reopened.as_bytes(), reference.as_bytes(), "lanes={lanes}");
        }
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn writer_handles_empty_and_tiny() {
        let topo = Topology::empty(3);
        let reference = TopologyArena::build(&topo, None, None);
        let built = write_via_writer(&topo, false, 2, 1);
        assert_eq!(built.as_bytes(), reference.as_bytes());
    }

    #[test]
    fn writer_rejects_edge_overflow() {
        // Degrees summing past u32::MAX must error, not wrap.
        let degrees = vec![u32::MAX; 3];
        assert!(ArenaWriter::from_degrees(&degrees, false, false).is_err());
    }
}
