//! Count-then-fill construction: [`ArenaWriter`] fills the final
//! [`Topology`] image in place (no intermediate per-row `Vec`s, no
//! second copy) — in a heap buffer, or inside a write-through mapping of
//! the destination file so that sealing the writer is the freeze. It is
//! the only producer of images: every [`Topology`] constructor counts
//! degrees and fills through it.
//!
//! ## Why write into the image directly
//!
//! The classic freeze pipeline materializes per-peer `Vec` rows, packs
//! them into a heap CSR, and then copies everything into the file
//! image — every edge is touched three times and every byte of the
//! final image is *re*-touched once more at copy time. At 10⁷+ peers the
//! copies (and the page faults backing the transient allocations)
//! dominate construction. The writer inverts this: a cheap counting pass
//! fixes each peer's row extent, the image is allocated once, and link
//! sampling writes targets straight into their final offsets. The
//! `FLAG_SORTED` scan runs over the finished rows in
//! [`ArenaWriter::finish`], fanned out with [`crate::par`].
//!
//! ## Rows that come up short
//!
//! A row whose length is only known once it is filled — a link draw
//! that can end short of its budget — is reserved at its widest, and
//! the fill leaves the slots it does not use [`VACANT`]. The seal's scan
//! counts them; if there are any, it closes every row up against the
//! one before (rows keep their order, and a row's links theirs) and cuts
//! the buffer, or the file, to the exact image. With no vacant slot the
//! seal moves nothing, so a reserved image of full rows is the image a
//! counted one writes.
//!
//! ## Filling in parallel
//!
//! Disjoint peer ranges own disjoint byte ranges of the `edges` /
//! `edge_pos` / `node_pos` sections (rows are contiguous in peer order),
//! so [`ArenaWriter::fill`] tiles `0..n` into one contiguous chunk per
//! worker, hands every chunk its own mutable slices and fills them
//! concurrently. The image is a pure function of what each peer's row
//! receives, so it is byte-identical at every partition and thread
//! count — the tests hold it against a straight row-by-row packing
//! model of the format.

use crate::csr::{NodeId, Topology};
use crate::par;
use crate::store::{
    self, bad_format, section, section_mut, ImageBuf, FLAG_EDGE_POS, FLAG_NODE_POS, FLAG_SORTED,
};
use std::fs::File;
use std::io;
use std::mem::take;
use std::ops::Range;

/// What a fill writes into a slot its row leaves unused. Never a peer
/// id: ids stay below `u32::MAX`.
pub const VACANT: NodeId = NodeId::MAX;

/// An image under construction: header and offsets are fixed up front
/// from per-peer degrees (or reserved widths); edge rows and lanes are
/// filled in place (concurrently, per disjoint peer range);
/// [`ArenaWriter::finish`] closes up [`VACANT`] slots, derives the
/// sorted flag and header checksum and seals the image into a
/// [`Topology`].
pub struct ArenaWriter {
    n: usize,
    m: usize,
    flags: u64,
    layout: store::Layout,
    buf: ImageBuf,
    /// The destination file a mapped image lives in, cut to size if
    /// the seal closes up vacant slots.
    file: Option<File>,
}

/// One fill chunk's mutable window into the image being written:
/// the peer range it owns, its slice of the `edges` section (rebased to
/// `edge_base`), and matching lane slices.
pub struct ShardSlots<'a> {
    /// The peer ids this chunk owns.
    pub range: Range<usize>,
    /// Global edge index of `edges[0]` (`offsets[range.start]`).
    pub edge_base: usize,
    /// The full global offset table (`n + 1` entries, read-only).
    pub offsets: &'a [u32],
    /// The chunk's rows of the edge section, contiguous.
    pub edges: &'a mut [NodeId],
    /// The chunk's slice of the per-edge `f64` lane, if present.
    pub edge_pos: Option<&'a mut [f64]>,
    /// The chunk's slice of the per-node `f64` lane, if present.
    pub node_pos: Option<&'a mut [f64]>,
}

impl ShardSlots<'_> {
    /// Peer `u`'s row as indices into this chunk's local `edges` /
    /// `edge_pos` slices.
    #[inline]
    pub fn row_bounds(&self, u: usize) -> Range<usize> {
        debug_assert!(self.range.contains(&u), "peer outside the chunk");
        self.offsets[u] as usize - self.edge_base..self.offsets[u + 1] as usize - self.edge_base
    }
}

impl ArenaWriter {
    /// Preallocates the full image for a topology whose peer `u`
    /// has out-degree `degrees[u]`, with the offset table prefix-summed
    /// and the header written. Lane flags must be declared here (they
    /// shape the layout); `FLAG_SORTED` and the checksum word are
    /// written later by [`ArenaWriter::finish`].
    ///
    /// Errors if the total edge count leaves the `u32` id space.
    pub fn from_degrees(
        degrees: &[u32],
        with_edge_pos: bool,
        with_node_pos: bool,
    ) -> io::Result<ArenaWriter> {
        let (n, m, flags, layout) = Self::plan(degrees, with_edge_pos, with_node_pos)?;
        let buf = ImageBuf::Owned(vec![0u64; layout.total_words].into_boxed_slice());
        Ok(Self::init(buf, n, m, flags, layout, degrees))
    }

    /// [`from_degrees`], but the image is a write-through mapping of a
    /// freshly created `path`: every fill lands in the destination
    /// file's pages directly, so [`ArenaWriter::finish`] seals an image
    /// that is *already frozen on disk* — the build pays the page
    /// provisioning once instead of build-then-copy paying it twice.
    ///
    /// [`from_degrees`]: ArenaWriter::from_degrees
    #[cfg(all(unix, target_pointer_width = "64"))]
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
        let mut writer = Self::init(ImageBuf::Mapped(map), n, m, flags, layout, degrees);
        writer.file = Some(file);
        Ok(writer)
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
        mut buf: ImageBuf,
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
        let offs = section_mut::<u32>(&mut buf, layout.offsets, n + 1);
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
            file: None,
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
        section(&self.buf, self.layout.offsets, self.n + 1)
    }

    /// Runs `fill(slots)` over a contiguous in-order tiling of `0..n`,
    /// one chunk per worker (`threads`; `0` = auto) as one [`crate::par`]
    /// region, chunk 0 on the calling thread.
    ///
    /// Each chunk receives mutable slices covering exactly its own rows,
    /// so fills cannot race by construction; the output is a pure
    /// function of what each peer's row receives, independent of thread
    /// count or completion order.
    pub fn fill<F>(&mut self, threads: usize, fill: F)
    where
        F: Fn(ShardSlots<'_>) + Sync,
    {
        let (n, m, l) = (self.n, self.m, self.layout);
        let (with_edge_pos, with_node_pos) = (
            self.flags & FLAG_EDGE_POS != 0,
            self.flags & FLAG_NODE_POS != 0,
        );
        // Carve the mutable sections out of the one backing buffer.
        let (pre, rest) = self.buf.split_at_mut(l.edges);
        let (edges_w, rest) = rest.split_at_mut(l.edge_pos - l.edges);
        let (epos_w, npos_w) = rest.split_at_mut(l.node_pos - l.edge_pos);
        let offsets: &[u32] = section(pre, l.offsets, n + 1);
        let mut edges_rest: &mut [NodeId] = section_mut(edges_w, 0, m);
        let mut epos_rest: &mut [f64] = if with_edge_pos {
            section_mut(epos_w, 0, m)
        } else {
            &mut []
        };
        let mut npos_rest: &mut [f64] = if with_node_pos {
            section_mut(npos_w, 0, n)
        } else {
            &mut []
        };
        // Split each section at the chunk boundaries, front to back.
        let chunk = par::chunk_size(n, threads, 1);
        let fill = &fill;
        par::join_all((0..n).step_by(chunk).map(|lo| {
            let range = lo..(lo + chunk).min(n);
            let edge_base = offsets[range.start] as usize;
            let row_words = offsets[range.end] as usize - edge_base;
            let (edges, tail) = take(&mut edges_rest).split_at_mut(row_words);
            edges_rest = tail;
            let edge_pos = with_edge_pos.then(|| {
                let (mine, tail) = take(&mut epos_rest).split_at_mut(row_words);
                epos_rest = tail;
                mine
            });
            let node_pos = with_node_pos.then(|| {
                let (mine, tail) = take(&mut npos_rest).split_at_mut(range.len());
                npos_rest = tail;
                mine
            });
            let slots = ShardSlots {
                range,
                edge_base,
                offsets,
                edges,
                edge_pos,
                node_pos,
            };
            move || fill(slots)
        }));
    }

    /// Seals the image: one scan over the filled rows counts the
    /// [`VACANT`] slots, sets the `FLAG_SORTED` bit (vacant slots
    /// skipped) and checks every other target is a peer id; any vacant
    /// slots are then closed up, the header checksum is written and the
    /// buffer wrapped as a [`Topology`].
    ///
    /// Errors if a filled edge target is not a peer id, or if an image
    /// with an edge or node lane has vacant slots.
    pub fn finish(mut self, threads: usize) -> io::Result<Topology> {
        let (n, m, l) = (self.n, self.m, self.layout);
        let (sorted, in_range, vacant) = {
            let offsets: &[u32] = section(&self.buf, l.offsets, n + 1);
            let edges: &[NodeId] = section(&self.buf, l.edges, m);
            par::par_chunks(n, threads, |r| {
                let (mut sorted, mut in_range, mut vacant) = (true, true, 0);
                for u in r {
                    let mut last = 0;
                    for &v in &edges[offsets[u] as usize..offsets[u + 1] as usize] {
                        if v == VACANT {
                            vacant += 1;
                        } else {
                            sorted &= last <= v;
                            in_range &= (v as usize) < n;
                            last = v;
                        }
                    }
                }
                (sorted, in_range, vacant)
            })
            .into_iter()
            .fold((true, true, 0), |a, b| (a.0 && b.0, a.1 && b.1, a.2 + b.2))
        };
        if !in_range {
            return Err(bad_format("edge target out of range"));
        }
        if vacant > 0 {
            self.close_up()?;
        }
        if sorted {
            self.buf[3] |= FLAG_SORTED;
        }
        self.buf[4] = store::header_checksum(&self.buf);
        Topology::from_image(self.buf, cfg!(debug_assertions))
    }

    /// Drops every [`VACANT`] slot, moving each row's links down against
    /// the row before, and cuts the image to the edges it keeps: the
    /// header, the offsets, the buffer and the file behind a mapping.
    fn close_up(&mut self) -> io::Result<()> {
        if self.flags & (FLAG_EDGE_POS | FLAG_NODE_POS) != 0 {
            return Err(bad_format("vacant slots in an image with lanes"));
        }
        let (n, m, l) = (self.n, self.m, self.layout);
        let (pre, rest) = self.buf.split_at_mut(l.edges);
        let offsets: &mut [u32] = section_mut(pre, l.offsets, n + 1);
        let edges: &mut [NodeId] = section_mut(rest, 0, m);
        let (mut to, mut lo) = (0, 0);
        for u in 0..n {
            let hi = offsets[u + 1] as usize;
            for i in lo..hi {
                if edges[i] != VACANT {
                    edges[to] = edges[i];
                    to += 1;
                }
            }
            offsets[u + 1] = to as u32;
            lo = hi;
        }
        // The word padding after an odd edge count reads zero.
        edges[to..].fill(0);
        self.m = to;
        self.layout = store::layout(n, to, self.flags);
        self.buf[2] = to as u64;
        if let Some(file) = &self.file {
            file.set_len((self.layout.total_words * 8) as u64)?;
        }
        self.buf.truncate(self.layout.total_words);
        Ok(())
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::csr::LinkTable;
    use crate::store::{layout, MAGIC};

    /// The straight rows → image packing the writer is held against: the
    /// format written out field by field, with its own sorted scan and
    /// header checksum — nothing shared with the writer but [`layout`].
    pub(crate) fn model_image(
        rows: &[Vec<NodeId>],
        edge_pos: Option<&[f64]>,
        node_pos: Option<&[f64]>,
    ) -> Vec<u8> {
        let n = rows.len();
        let mut offsets = vec![0u32];
        for row in rows {
            offsets.push(offsets[offsets.len() - 1] + row.len() as u32);
        }
        let edges = rows.concat();
        let m = edges.len();
        let mut flags = 0;
        if edge_pos.is_some() {
            flags |= FLAG_EDGE_POS;
        }
        if node_pos.is_some() {
            flags |= FLAG_NODE_POS;
        }
        if rows.iter().all(|r| r.windows(2).all(|w| w[0] <= w[1])) {
            flags |= FLAG_SORTED;
        }
        let l = layout(n, m, flags);
        let mut buf = vec![0u64; l.total_words];
        buf[..4].copy_from_slice(&[MAGIC, n as u64, m as u64, flags]);
        buf[4] = buf[..4]
            .iter()
            .flat_map(|w| w.to_ne_bytes())
            .fold(0xcbf2_9ce4_8422_2325, |h, b| {
                (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3)
            });
        section_mut(&mut buf, l.offsets, n + 1).copy_from_slice(&offsets);
        section_mut(&mut buf, l.edges, m).copy_from_slice(&edges);
        if let Some(p) = edge_pos {
            section_mut(&mut buf, l.edge_pos, m).copy_from_slice(p);
        }
        if let Some(p) = node_pos {
            section_mut(&mut buf, l.node_pos, n).copy_from_slice(p);
        }
        buf.iter().flat_map(|w| w.to_ne_bytes()).collect()
    }

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

    /// The lanes `copy_rows` writes, as the model packs them.
    fn model_of(topo: &Topology, lanes: bool) -> Vec<u8> {
        let edge_pos: Vec<f64> = topo.edges().iter().map(|&v| v as f64 / 100.0).collect();
        let node_pos: Vec<f64> = (0..topo.len()).map(|i| i as f64 / 10.0).collect();
        let rows = topo.to_rows();
        if lanes {
            model_image(&rows, Some(&edge_pos), Some(&node_pos))
        } else {
            model_image(&rows, None, None)
        }
    }

    /// Copies `topo`'s rows (and the lanes `model_of` packs, where the
    /// image carries them) into one fill chunk.
    fn copy_rows(topo: &Topology, mut slots: ShardSlots<'_>) {
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
    }

    fn write_via_writer(
        topo: &Topology,
        lanes: bool,
        fill_threads: usize,
        threads: usize,
    ) -> Topology {
        let degrees: Vec<u32> = (0..topo.len() as NodeId)
            .map(|u| topo.out_degree(u) as u32)
            .collect();
        let mut writer = ArenaWriter::from_degrees(&degrees, lanes, lanes).unwrap();
        writer.fill(fill_threads, |slots| copy_rows(topo, slots));
        writer.finish(threads).unwrap()
    }

    #[test]
    fn writer_image_matches_build() {
        let topo = scrambled_topology(500, 6);
        for lanes in [false, true] {
            let reference = model_of(&topo, lanes);
            for fill_threads in [1, 2, 3, 7] {
                for threads in [1, 4] {
                    let built = write_via_writer(&topo, lanes, fill_threads, threads);
                    assert_eq!(
                        built.as_bytes(),
                        reference,
                        "lanes={lanes} fill_threads={fill_threads} threads={threads}"
                    );
                }
            }
        }
        // Peer counts the fill workers do not divide, down to fewer
        // peers than workers: every row is still filled exactly once.
        for (n, fill_threads) in [(1, 2), (4, 3), (10, 7), (7, 7), (300, 40)] {
            let topo = scrambled_topology(n, 3);
            let built = write_via_writer(&topo, true, fill_threads, 1);
            assert_eq!(
                built.as_bytes(),
                model_of(&topo, true),
                "n={n} fill_threads={fill_threads}"
            );
        }
        // Unsorted rows with duplicates, as `from_rows` keeps them.
        let rows = vec![vec![3, 1, 1], vec![], vec![0, 3, 2], vec![2]];
        assert_eq!(
            Topology::from_rows(&rows).as_bytes(),
            model_image(&rows, None, None)
        );
    }

    /// The write-through variant must produce the same image as the
    /// heap-buffered writer, and the file it leaves behind must be a
    /// valid frozen image with no explicit freeze step.
    #[cfg(all(unix, target_pointer_width = "64"))]
    #[test]
    fn create_at_is_already_frozen() {
        let topo = scrambled_topology(400, 5);
        let n = topo.len();
        let degrees: Vec<u32> = (0..n as NodeId)
            .map(|u| topo.out_degree(u) as u32)
            .collect();
        let path = std::env::temp_dir().join("sw-writer-create-at.arena");
        for lanes in [false, true] {
            let reference = model_of(&topo, lanes);
            let mut writer = ArenaWriter::create_at(&path, &degrees, lanes, lanes).unwrap();
            writer.fill(2, |slots| copy_rows(&topo, slots));
            let sealed = writer.finish(1).unwrap();
            assert_eq!(sealed.as_bytes(), reference, "lanes={lanes}");
            drop(sealed);
            let reopened = Topology::open(&path).unwrap();
            assert_eq!(reopened.as_bytes(), reference, "lanes={lanes}");
        }
        let _ = std::fs::remove_file(&path);
    }

    /// Rows reserved wider than they end up seal to the image of the
    /// rows without their vacant slots, wherever the gaps sit, on the
    /// heap and (cut to size) on disk; an image with lanes refuses gaps.
    #[test]
    fn vacant_slots_close_up_at_the_seal() {
        const V: NodeId = VACANT;
        let unsorted: Vec<Vec<NodeId>> = vec![
            vec![1, 3, V, V],
            vec![V, V, V],
            vec![0, V, 4],
            vec![4, 2, 0, V],
            vec![1],
        ];
        let mut sorted = unsorted.clone();
        sorted[3] = vec![0, V, 2, 4];
        let fill = |reserved: &[Vec<NodeId>], slots: ShardSlots<'_>| {
            for u in slots.range.clone() {
                let r = slots.row_bounds(u);
                slots.edges[r].copy_from_slice(&reserved[u]);
            }
        };
        let degrees: Vec<u32> = unsorted.iter().map(|r| r.len() as u32).collect();
        for reserved in [&unsorted, &sorted] {
            let kept: Vec<Vec<NodeId>> = reserved
                .iter()
                .map(|r| r.iter().copied().filter(|&v| v != V).collect())
                .collect();
            let model = model_image(&kept, None, None);
            for fill_threads in [1, 2, 3] {
                let mut writer = ArenaWriter::from_degrees(&degrees, false, false).unwrap();
                writer.fill(fill_threads, |slots| fill(reserved, slots));
                let sealed = writer.finish(1).unwrap();
                assert_eq!(sealed.as_bytes(), model, "fill_threads={fill_threads}");
            }
            #[cfg(all(unix, target_pointer_width = "64"))]
            {
                let path = std::env::temp_dir()
                    .join(format!("sw-writer-vacant-{}.arena", std::process::id()));
                let mut writer = ArenaWriter::create_at(&path, &degrees, false, false).unwrap();
                writer.fill(2, |slots| fill(reserved, slots));
                assert_eq!(writer.finish(1).unwrap().as_bytes(), model, "mapped");
                assert_eq!(std::fs::read(&path).unwrap(), model, "on disk");
                let _ = std::fs::remove_file(&path);
            }
        }
        let mut writer = ArenaWriter::from_degrees(&degrees, true, false).unwrap();
        writer.fill(1, |slots| fill(&unsorted, slots));
        assert!(writer.finish(1).is_err());
    }

    #[test]
    fn writer_handles_empty_and_tiny() {
        let topo = Topology::empty(3);
        let built = write_via_writer(&topo, false, 2, 1);
        assert_eq!(built.as_bytes(), model_image(&vec![vec![]; 3], None, None));
        assert_eq!(Topology::empty(0).as_bytes(), model_image(&[], None, None));
    }

    #[test]
    fn writer_rejects_edge_overflow() {
        // Degrees summing past u32::MAX must error, not wrap.
        let degrees = vec![u32::MAX; 3];
        assert!(ArenaWriter::from_degrees(&degrees, false, false).is_err());
        // A filled target past the last peer is an error at the seal.
        let mut writer = ArenaWriter::from_degrees(&[1, 0], false, false).unwrap();
        writer.fill(1, |slots| slots.edges[0] = 2);
        assert!(writer.finish(1).is_err());
    }
}
