//! Pluggable topology storage: the heap CSR plus a flat file-arena
//! format for >10⁷-peer overlays.
//!
//! A [`TopologyArena`] is the frozen, `#[repr(C)]`-style image of a CSR
//! [`Topology`]: one 8-byte-aligned bump allocation holding a fixed
//! header followed by the `offsets` / `edges` / `in_offsets` /
//! `in_edges` sections, an optional per-**edge** `f64` lane (the
//! key-aligned ring positions the SoA routing kernels scan), and an
//! optional per-**node** `f64` lane (peer keys, so a frozen overlay can
//! be reopened without its construction inputs). Because the in-memory
//! image *is* the file image, [`TopologyArena::write_to`] is a single
//! `write` and [`TopologyArena::open`] is a single read into one
//! allocation — reopening a 10⁷-peer overlay costs O(1) allocations, no
//! per-peer work. With the `mmap` feature (unix only) the file can be
//! mapped instead of read, so the kernel pages edge rows in lazily.
//!
//! [`TopologyStore`] abstracts over the two backends so routing-table
//! consumers (`sw-overlay`'s SoA `RouteTable`, the simulator's frozen
//! snapshots) read the same flat slices whether the topology was just
//! built on the heap or reopened from disk.
//!
//! The format is native-endian by design (the arena is a memory image);
//! a file written on a foreign-endian machine fails the magic check
//! instead of decoding garbage.
//!
//! Frozen does not mean static: [`crate::delta::DeltaStore`] layers
//! per-peer edge mutations over an immutable `TopologyStore` base,
//! LSM-style — untouched rows read straight out of the base (arena or
//! heap), touched rows live in a small side table. That lifecycle —
//! `build_frozen` image → `open` → wrap in a `DeltaStore` → churn
//! mutates the delta — is how the simulator runs dynamic scenarios over
//! 10⁶–10⁷-peer overlays without ever materializing per-peer link
//! `Vec`s for the whole network.
//!
//! An arena is produced one of two ways, byte-identical for the same
//! topology: [`TopologyArena::build`] packs a finished heap CSR (the
//! reference), and [`crate::writer`]'s `ArenaWriter` fills a single
//! image in place (count-then-fill, no intermediate heap CSR), in a heap
//! buffer or directly inside a mapping of the destination file. Either
//! way there is one file format and one reader: every `open*` below
//! validates the image it is handed before any accessor can index it.

use crate::csr::Topology;
use crate::digraph::NodeId;
use crate::par;
use std::io;
use std::path::Path;

/// Magic-plus-version word. Incompatible layout changes bump the last
/// byte. Read back swapped on a foreign-endian machine, so it doubles as
/// an endianness check.
pub(crate) const MAGIC: u64 = 0x5357_544F_504F_0001; // "SWTOPO" + version 1

/// Header words before the first section.
pub(crate) const HEADER_WORDS: usize = 4;

/// Flag bit: the per-edge `f64` position lane is present.
pub(crate) const FLAG_EDGE_POS: u64 = 1;
/// Flag bit: the per-node `f64` position lane is present.
pub(crate) const FLAG_NODE_POS: u64 = 1 << 1;
/// Flag bit: every edge row is sorted ascending (binary-search safe).
pub(crate) const FLAG_SORTED: u64 = 1 << 2;

/// Word offsets of each section for a given `(n, m, flags)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Layout {
    pub(crate) offsets: usize,
    pub(crate) edges: usize,
    pub(crate) in_offsets: usize,
    pub(crate) in_edges: usize,
    pub(crate) edge_pos: usize,
    pub(crate) node_pos: usize,
    pub(crate) total_words: usize,
}

/// `u32` elements per section, padded up to whole `u64` words so every
/// section starts 8-byte aligned.
pub(crate) fn u32_words(len: usize) -> usize {
    len.div_ceil(2)
}

pub(crate) fn layout(n: usize, m: usize, flags: u64) -> Layout {
    let offsets = HEADER_WORDS;
    let edges = offsets + u32_words(n + 1);
    let in_offsets = edges + u32_words(m);
    let in_edges = in_offsets + u32_words(n + 1);
    let edge_pos = in_edges + u32_words(m);
    let node_pos = edge_pos + if flags & FLAG_EDGE_POS != 0 { m } else { 0 };
    let total_words = node_pos + if flags & FLAG_NODE_POS != 0 { n } else { 0 };
    Layout {
        offsets,
        edges,
        in_offsets,
        in_edges,
        edge_pos,
        node_pos,
        total_words,
    }
}

/// The arena's backing memory: an owned bump allocation, or (with the
/// `mmap` feature) a file mapping — read-only when opened, write-through
/// when the image was built in place by an `ArenaWriter`.
pub(crate) enum ArenaBuf {
    Owned(Box<[u64]>),
    #[cfg(all(feature = "mmap", unix, target_pointer_width = "64"))]
    Mapped(mapping::Mapping),
}

impl std::ops::Deref for ArenaBuf {
    type Target = [u64];
    fn deref(&self) -> &[u64] {
        match self {
            ArenaBuf::Owned(b) => b,
            #[cfg(all(feature = "mmap", unix, target_pointer_width = "64"))]
            ArenaBuf::Mapped(m) => m.words(),
        }
    }
}

/// A frozen CSR topology in one flat allocation (see module docs).
pub struct TopologyArena {
    n: usize,
    m: usize,
    flags: u64,
    layout: Layout,
    buf: ArenaBuf,
}

impl std::fmt::Debug for TopologyArena {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TopologyArena")
            .field("n", &self.n)
            .field("m", &self.m)
            .field("flags", &self.flags)
            .field("bytes", &self.byte_len())
            .finish()
    }
}

/// Casts a word range of the arena to a `u32` section.
///
/// Safety: `u64` is 8-byte aligned, so any word start is valid for
/// `u32`; callers pass ranges produced by [`layout`], which stay in
/// bounds (asserted here again).
pub(crate) fn u32_section(buf: &[u64], word: usize, len: usize) -> &[u32] {
    assert!(word + u32_words(len) <= buf.len(), "section out of bounds");
    unsafe { std::slice::from_raw_parts(buf[word..].as_ptr() as *const u32, len) }
}

/// Casts a word range of the arena to an `f64` section (same alignment
/// argument as [`u32_section`]; `f64` words map 1:1 onto `u64` words).
pub(crate) fn f64_section(buf: &[u64], word: usize, len: usize) -> &[f64] {
    assert!(word + len <= buf.len(), "section out of bounds");
    unsafe { std::slice::from_raw_parts(buf[word..].as_ptr() as *const f64, len) }
}

pub(crate) fn u32_section_mut(buf: &mut [u64], word: usize, len: usize) -> &mut [u32] {
    assert!(word + u32_words(len) <= buf.len(), "section out of bounds");
    unsafe { std::slice::from_raw_parts_mut(buf[word..].as_mut_ptr() as *mut u32, len) }
}

pub(crate) fn f64_section_mut(buf: &mut [u64], word: usize, len: usize) -> &mut [f64] {
    assert!(word + len <= buf.len(), "section out of bounds");
    unsafe { std::slice::from_raw_parts_mut(buf[word..].as_mut_ptr() as *mut f64, len) }
}

impl TopologyArena {
    /// Freezes a heap [`Topology`] (plus optional per-edge and per-node
    /// `f64` lanes) into one flat arena allocation.
    ///
    /// # Panics
    ///
    /// Panics if a lane's length does not match the edge/node count.
    pub fn build(topo: &Topology, edge_pos: Option<&[f64]>, node_pos: Option<&[f64]>) -> Self {
        let n = topo.len();
        let m = topo.edge_count();
        let mut flags = 0u64;
        if let Some(p) = edge_pos {
            assert_eq!(p.len(), m, "edge_pos must have one lane per edge");
            flags |= FLAG_EDGE_POS;
        }
        if let Some(p) = node_pos {
            assert_eq!(p.len(), n, "node_pos must have one lane per node");
            flags |= FLAG_NODE_POS;
        }
        if topo.rows_sorted() {
            flags |= FLAG_SORTED;
        }
        let layout = layout(n, m, flags);
        let mut buf = vec![0u64; layout.total_words].into_boxed_slice();
        buf[0] = MAGIC;
        buf[1] = n as u64;
        buf[2] = m as u64;
        buf[3] = flags;
        u32_section_mut(&mut buf, layout.offsets, n + 1).copy_from_slice(topo.offsets());
        u32_section_mut(&mut buf, layout.edges, m).copy_from_slice(topo.edges());
        u32_section_mut(&mut buf, layout.in_offsets, n + 1).copy_from_slice(topo.in_offsets());
        u32_section_mut(&mut buf, layout.in_edges, m).copy_from_slice(topo.in_edges());
        if let Some(p) = edge_pos {
            f64_section_mut(&mut buf, layout.edge_pos, m).copy_from_slice(p);
        }
        if let Some(p) = node_pos {
            f64_section_mut(&mut buf, layout.node_pos, n).copy_from_slice(p);
        }
        TopologyArena {
            n,
            m,
            flags,
            layout,
            buf: ArenaBuf::Owned(buf),
        }
    }

    /// Writes the arena image to `path` (a single `write` — the memory
    /// image *is* the file format).
    pub fn write_to(&self, path: impl AsRef<Path>) -> io::Result<()> {
        std::fs::write(path, self.as_bytes())
    }

    /// Reopens a frozen arena: the whole file lands in **one** bump
    /// allocation and every section is a zero-copy view into it. The
    /// image is validated (header, length, offset monotonicity,
    /// edge-target range) before it is returned.
    pub fn open(path: impl AsRef<Path>) -> io::Result<Self> {
        use std::io::Read as _;
        let mut file = std::fs::File::open(path)?;
        let len = file.metadata()?.len() as usize;
        if !len.is_multiple_of(8) || len < HEADER_WORDS * 8 {
            return Err(bad_format("file length is not a whole arena"));
        }
        let mut buf = vec![0u64; len / 8].into_boxed_slice();
        // Safety: &mut [u64] is valid as a byte buffer of the same size.
        let bytes = unsafe {
            std::slice::from_raw_parts_mut(
                buf.as_mut_ptr() as *mut u8,
                std::mem::size_of_val(&*buf),
            )
        };
        file.read_exact(bytes)?;
        Self::from_buf_opts(ArenaBuf::Owned(buf), true)
    }

    /// Memory-maps a frozen arena read-only instead of reading it
    /// (`mmap` feature, unix only): no copy of the file is made and the
    /// pages stay backed by the file. Validated exactly as
    /// [`TopologyArena::open`] validates.
    #[cfg(all(feature = "mmap", unix, target_pointer_width = "64"))]
    pub fn open_mmap(path: impl AsRef<Path>) -> io::Result<Self> {
        let file = std::fs::File::open(path)?;
        let len = file.metadata()?.len() as usize;
        if !len.is_multiple_of(8) || len < HEADER_WORDS * 8 {
            return Err(bad_format("file length is not a whole arena"));
        }
        let map = mapping::Mapping::map(&file, len)?;
        Self::from_buf_opts(ArenaBuf::Mapped(map), true)
    }

    /// Assembles an arena around an image built in place by
    /// [`ArenaWriter`](crate::store::ArenaWriter): header and length are
    /// always checked; the `O(m)` structural scans run in debug builds
    /// only (the writer establishes the invariants by construction).
    pub(crate) fn from_image(buf: Box<[u64]>) -> io::Result<Self> {
        Self::from_buf_opts(ArenaBuf::Owned(buf), cfg!(debug_assertions))
    }

    /// [`from_image`](Self::from_image) over a write-through file mapping
    /// an `ArenaWriter` filled in place — the backing file already *is*
    /// the frozen arena, no separate write step.
    #[cfg(all(feature = "mmap", unix, target_pointer_width = "64"))]
    pub(crate) fn from_image_map(map: mapping::Mapping) -> io::Result<Self> {
        Self::from_buf_opts(ArenaBuf::Mapped(map), cfg!(debug_assertions))
    }

    /// Validates a loaded buffer and assembles the arena around it.
    fn from_buf_opts(buf: ArenaBuf, validate: bool) -> io::Result<Self> {
        if buf.len() < HEADER_WORDS {
            return Err(bad_format("truncated header"));
        }
        if buf[0] != MAGIC {
            return Err(bad_format(
                "bad magic (not a topology arena, or foreign endianness)",
            ));
        }
        let (n, m, flags) = (buf[1] as usize, buf[2] as usize, buf[3]);
        // The header is untrusted: recompute the layout in wide
        // arithmetic first, so absurd n/m reject cleanly instead of
        // wrapping layout() into a bounds panic. Node ids are u32 and
        // edge counts fit u32 by construction, so the real bound is far
        // below what the wide check admits.
        if n > u32::MAX as usize || m > u32::MAX as usize {
            return Err(bad_format("peer/edge count exceeds the u32 id space"));
        }
        let wide_words = {
            let u32s = |len: u128| len.div_ceil(2);
            let mut w = HEADER_WORDS as u128 + 2 * u32s(n as u128 + 1) + 2 * u32s(m as u128);
            if flags & FLAG_EDGE_POS != 0 {
                w += m as u128;
            }
            if flags & FLAG_NODE_POS != 0 {
                w += n as u128;
            }
            w
        };
        if buf.len() as u128 != wide_words {
            return Err(bad_format("file length does not match header"));
        }
        let layout = layout(n, m, flags);
        let arena = TopologyArena {
            n,
            m,
            flags,
            layout,
            buf,
        };
        // Structural validation: offsets must be monotone and end at m,
        // edge targets in range. One pass each — still O(1) allocations,
        // fanned out over the machine's cores (the scans dominated the
        // 18–23 s reopen cost at 10⁷ peers when run sequentially).
        if validate {
            for (name, offs) in [
                ("offsets", arena.offsets()),
                ("in_offsets", arena.in_offsets()),
            ] {
                if offs.first() != Some(&0) || offs.last() != Some(&(m as u32)) {
                    return Err(bad_format(name));
                }
                let monotone = par::par_chunks(offs.len() - 1, 0, |r| {
                    offs[r.start..r.end + 1].windows(2).all(|w| w[0] <= w[1])
                });
                if monotone.into_iter().any(|ok| !ok) {
                    return Err(bad_format(name));
                }
            }
            for edges in [arena.edges(), arena.in_edges()] {
                let in_range = par::par_chunks(edges.len(), 0, |r| {
                    edges[r].iter().all(|&v| (v as usize) < n)
                });
                if in_range.into_iter().any(|ok| !ok) {
                    return Err(bad_format("edge target out of range"));
                }
            }
        }
        Ok(arena)
    }

    /// Number of peers.
    #[inline]
    pub fn len(&self) -> usize {
        self.n
    }

    /// True if the arena holds no peers.
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// Total number of directed edges.
    #[inline]
    pub fn edge_count(&self) -> usize {
        self.m
    }

    /// Size of the whole arena image in bytes.
    pub fn byte_len(&self) -> usize {
        self.buf.len() * 8
    }

    /// The raw arena image — exactly the bytes [`TopologyArena::write_to`]
    /// puts on disk, so two arenas are interchangeable iff their
    /// `as_bytes` agree (the construction byte-identity tests compare this).
    pub fn as_bytes(&self) -> &[u8] {
        let words: &[u64] = &self.buf;
        // Safety: any initialized &[u64] is valid as bytes.
        unsafe {
            std::slice::from_raw_parts(words.as_ptr() as *const u8, std::mem::size_of_val(words))
        }
    }

    /// True if every edge row is sorted ascending.
    pub fn rows_sorted(&self) -> bool {
        self.flags & FLAG_SORTED != 0
    }

    /// Out-edge offsets (`n + 1` entries).
    #[inline]
    pub fn offsets(&self) -> &[u32] {
        u32_section(&self.buf, self.layout.offsets, self.n + 1)
    }

    /// All out-edges, grouped by source peer.
    #[inline]
    pub fn edges(&self) -> &[NodeId] {
        u32_section(&self.buf, self.layout.edges, self.m)
    }

    /// In-edge offsets (`n + 1` entries).
    #[inline]
    pub fn in_offsets(&self) -> &[u32] {
        u32_section(&self.buf, self.layout.in_offsets, self.n + 1)
    }

    /// All in-edges, grouped by destination peer.
    #[inline]
    pub fn in_edges(&self) -> &[NodeId] {
        u32_section(&self.buf, self.layout.in_edges, self.m)
    }

    /// The per-edge `f64` lane (ring positions of edge targets), if
    /// frozen with one.
    #[inline]
    pub fn edge_pos(&self) -> Option<&[f64]> {
        (self.flags & FLAG_EDGE_POS != 0)
            .then(|| f64_section(&self.buf, self.layout.edge_pos, self.m))
    }

    /// The per-node `f64` lane (peer keys), if frozen with one.
    #[inline]
    pub fn node_pos(&self) -> Option<&[f64]> {
        (self.flags & FLAG_NODE_POS != 0)
            .then(|| f64_section(&self.buf, self.layout.node_pos, self.n))
    }

    /// Outgoing neighbours of `u` — a slice into the arena.
    #[inline]
    pub fn neighbors(&self, u: NodeId) -> &[NodeId] {
        let offs = self.offsets();
        let (a, b) = (offs[u as usize] as usize, offs[u as usize + 1] as usize);
        &self.edges()[a..b]
    }

    /// Materializes a heap [`Topology`] from the arena (bit-identical to
    /// the topology the arena was frozen from).
    pub fn to_topology(&self) -> Topology {
        Topology::from_parts(
            self.offsets().to_vec(),
            self.edges().to_vec(),
            self.in_offsets().to_vec(),
            self.in_edges().to_vec(),
        )
    }
}

pub(crate) fn bad_format(what: &str) -> io::Error {
    io::Error::new(
        io::ErrorKind::InvalidData,
        format!("invalid topology arena: {what}"),
    )
}

/// Raw `mmap(2)` bindings over the system libc — the workspace builds
/// offline, so the `libc` crate is not available; `mmap`/`munmap` are
/// always present in the C runtime every unix Rust binary links.
#[cfg(all(feature = "mmap", unix, target_pointer_width = "64"))]
pub(crate) mod mapping {
    use std::ffi::c_void;
    use std::io;
    use std::os::unix::io::AsRawFd;

    const PROT_READ: i32 = 1;
    const PROT_WRITE: i32 = 2;
    const MAP_SHARED: i32 = 1;
    const MAP_PRIVATE: i32 = 2;

    extern "C" {
        fn mmap(
            addr: *mut c_void,
            len: usize,
            prot: i32,
            flags: i32,
            fd: i32,
            offset: i64,
        ) -> *mut c_void;
        fn munmap(addr: *mut c_void, len: usize) -> i32;
        fn posix_fallocate(fd: i32, offset: i64, len: i64) -> i32;
    }

    /// Preallocates the file's blocks so that first-touch faults through
    /// a write-through mapping skip per-page block accounting — on ext4
    /// this is the difference between ~10⁸ and ~10⁹·5 bytes/s of fill
    /// bandwidth. Best-effort: a filesystem without fast preallocation
    /// still works, just faults slower.
    pub(crate) fn preallocate(file: &std::fs::File, len_bytes: usize) {
        use std::os::fd::AsRawFd;
        if len_bytes > 0 {
            unsafe { posix_fallocate(file.as_raw_fd(), 0, len_bytes as i64) };
        }
    }

    /// A whole-file mapping, unmapped on drop: read-only/private when
    /// opening a frozen arena, write-through/shared when an
    /// `ArenaWriter` builds the image directly in the destination file.
    pub struct Mapping {
        ptr: *mut u64,
        len_bytes: usize,
        writable: bool,
    }

    // Safety: mutable access goes through `words_mut(&mut self)` only,
    // so aliasing is governed by the usual borrow rules.
    unsafe impl Send for Mapping {}
    unsafe impl Sync for Mapping {}

    impl Mapping {
        /// Read-only private mapping of an existing file.
        pub fn map(file: &std::fs::File, len_bytes: usize) -> io::Result<Mapping> {
            Self::map_opts(file, len_bytes, false)
        }

        /// Write-through shared mapping: stores land in the page cache
        /// and reach the file without a separate write pass.
        pub fn map_rw(file: &std::fs::File, len_bytes: usize) -> io::Result<Mapping> {
            Self::map_opts(file, len_bytes, true)
        }

        fn map_opts(file: &std::fs::File, len_bytes: usize, writable: bool) -> io::Result<Mapping> {
            if len_bytes == 0 {
                return Err(io::Error::new(io::ErrorKind::InvalidData, "empty file"));
            }
            let (prot, flags) = if writable {
                (PROT_READ | PROT_WRITE, MAP_SHARED)
            } else {
                (PROT_READ, MAP_PRIVATE)
            };
            let ptr = unsafe {
                mmap(
                    std::ptr::null_mut(),
                    len_bytes,
                    prot,
                    flags,
                    file.as_raw_fd(),
                    0,
                )
            };
            if ptr as isize == -1 {
                return Err(io::Error::last_os_error());
            }
            // Page alignment (>= 8) guarantees the u64 view is aligned.
            Ok(Mapping {
                ptr: ptr as *mut u64,
                len_bytes,
                writable,
            })
        }

        pub fn words(&self) -> &[u64] {
            // Safety: mapped for self's lifetime, 8-aligned.
            unsafe { std::slice::from_raw_parts(self.ptr, self.len_bytes / 8) }
        }

        pub fn words_mut(&mut self) -> &mut [u64] {
            assert!(self.writable, "read-only mapping");
            // Safety: PROT_WRITE mapping, exclusive via &mut self.
            unsafe { std::slice::from_raw_parts_mut(self.ptr, self.len_bytes / 8) }
        }
    }

    impl Drop for Mapping {
        fn drop(&mut self) {
            unsafe {
                munmap(self.ptr as *mut c_void, self.len_bytes);
            }
        }
    }
}

/// A topology behind one of the two storage backends: the mutable heap
/// CSR, or a frozen arena (possibly file-backed). Consumers that only
/// *read* rows — the routing kernels, snapshots, metrics — go through
/// this so a 10⁷-peer overlay reopened from disk routes through exactly
/// the code that routes a freshly built one.
#[derive(Debug)]
pub enum TopologyStore {
    /// The in-memory CSR, with an optional per-edge `f64` lane aligned
    /// to its edge array (the SoA routing positions).
    Heap {
        /// The CSR adjacency.
        topo: Topology,
        /// Per-edge positions, aligned index-for-index with
        /// `topo.edges()`; `None` when the store carries adjacency only.
        edge_pos: Option<Box<[f64]>>,
    },
    /// A frozen arena (built in memory or reopened from disk).
    Arena(TopologyArena),
}

impl TopologyStore {
    /// Wraps a heap topology with no position lane.
    pub fn heap(topo: Topology) -> Self {
        TopologyStore::Heap {
            topo,
            edge_pos: None,
        }
    }

    /// Wraps a heap topology plus its per-edge position lane.
    ///
    /// # Panics
    ///
    /// Panics if the lane length differs from the edge count.
    pub fn heap_with_pos(topo: Topology, edge_pos: Box<[f64]>) -> Self {
        assert_eq!(edge_pos.len(), topo.edge_count(), "one lane per edge");
        TopologyStore::Heap {
            topo,
            edge_pos: Some(edge_pos),
        }
    }

    /// Reopens a store frozen with [`TopologyStore::freeze_to`].
    ///
    /// With the `mmap` feature (64-bit unix) the file is memory-mapped
    /// instead of read (no copy; the validation scans fault each page in
    /// once); otherwise it is one read into one allocation. Either way
    /// the image is validated. Every product reopen path
    /// (`RouteTable::open_from`, `SmallWorldNetwork::open_from`) goes
    /// through here, so enabling the feature switches them all.
    pub fn open(path: impl AsRef<Path>) -> io::Result<Self> {
        #[cfg(all(feature = "mmap", unix, target_pointer_width = "64"))]
        {
            Ok(TopologyStore::Arena(TopologyArena::open_mmap(path)?))
        }
        #[cfg(not(all(feature = "mmap", unix, target_pointer_width = "64")))]
        {
            Ok(TopologyStore::Arena(TopologyArena::open(path)?))
        }
    }

    /// Number of peers.
    #[inline]
    pub fn len(&self) -> usize {
        match self {
            TopologyStore::Heap { topo, .. } => topo.len(),
            TopologyStore::Arena(a) => a.len(),
        }
    }

    /// True if the store has no peers.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Total number of directed edges.
    #[inline]
    pub fn edge_count(&self) -> usize {
        match self {
            TopologyStore::Heap { topo, .. } => topo.edge_count(),
            TopologyStore::Arena(a) => a.edge_count(),
        }
    }

    /// Out-edge offsets (`n + 1` entries).
    #[inline]
    pub fn offsets(&self) -> &[u32] {
        match self {
            TopologyStore::Heap { topo, .. } => topo.offsets(),
            TopologyStore::Arena(a) => a.offsets(),
        }
    }

    /// All out-edges, grouped by source peer.
    #[inline]
    pub fn edges(&self) -> &[NodeId] {
        match self {
            TopologyStore::Heap { topo, .. } => topo.edges(),
            TopologyStore::Arena(a) => a.edges(),
        }
    }

    /// The per-edge position lane, if the store carries one.
    #[inline]
    pub fn edge_pos(&self) -> Option<&[f64]> {
        match self {
            TopologyStore::Heap { edge_pos, .. } => edge_pos.as_deref(),
            TopologyStore::Arena(a) => a.edge_pos(),
        }
    }

    /// The per-node position lane (arena backend only; a heap store's
    /// node keys live in the `Placement`).
    #[inline]
    pub fn node_pos(&self) -> Option<&[f64]> {
        match self {
            TopologyStore::Heap { .. } => None,
            TopologyStore::Arena(a) => a.node_pos(),
        }
    }

    /// Outgoing neighbours of `u`.
    #[inline]
    pub fn neighbors(&self, u: NodeId) -> &[NodeId] {
        match self {
            TopologyStore::Heap { topo, .. } => topo.neighbors(u),
            TopologyStore::Arena(a) => a.neighbors(u),
        }
    }

    /// The edge-index bounds of peer `u`'s row (indexes both `edges()`
    /// and `edge_pos()`).
    #[inline]
    pub fn row_bounds(&self, u: NodeId) -> (usize, usize) {
        let offs = self.offsets();
        (offs[u as usize] as usize, offs[u as usize + 1] as usize)
    }

    /// Materializes the heap [`Topology`] (clones for the heap backend,
    /// unpacks bit-identically for the arena backend).
    pub fn to_topology(&self) -> Topology {
        match self {
            TopologyStore::Heap { topo, .. } => topo.clone(),
            TopologyStore::Arena(a) => a.to_topology(),
        }
    }

    /// Freezes the store (with an optional per-node lane) to `path`.
    pub fn freeze_to(&self, path: impl AsRef<Path>, node_pos: Option<&[f64]>) -> io::Result<()> {
        match self {
            TopologyStore::Heap { topo, edge_pos } => {
                TopologyArena::build(topo, edge_pos.as_deref(), node_pos).write_to(path)
            }
            // An arena already *is* the file image: re-freezing writes it
            // straight back out (no heap materialization, no second
            // arena) unless the caller supplies a different node lane.
            TopologyStore::Arena(a) => match node_pos {
                None => a.write_to(path),
                Some(p) if a.node_pos() == Some(p) => a.write_to(path),
                Some(p) => {
                    TopologyArena::build(&a.to_topology(), a.edge_pos(), Some(p)).write_to(path)
                }
            },
        }
    }

    /// Resident bytes of the adjacency + lanes (excluding allocator
    /// overhead) — the `bytes/peer` number the scale experiment reports.
    pub fn resident_bytes(&self) -> usize {
        match self {
            TopologyStore::Heap { topo, edge_pos } => {
                (topo.len() + 1) * 8 // offsets + in_offsets (u32 each)
                    + topo.edge_count() * 8 // edges + in_edges
                    + edge_pos.as_ref().map_or(0, |p| p.len() * 8)
            }
            TopologyStore::Arena(a) => a.byte_len(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::csr::LinkTable;

    fn sample_topology() -> Topology {
        let mut lt = LinkTable::new(5);
        lt.add_all(0, [3, 1, 4]);
        lt.add_all(1, [2]);
        lt.add_all(3, [0, 2]);
        lt.add_all(4, [1, 0, 2, 3]);
        lt.build()
    }

    #[test]
    fn arena_round_trips_topology() {
        let topo = sample_topology();
        let arena = TopologyArena::build(&topo, None, None);
        assert_eq!(arena.len(), topo.len());
        assert_eq!(arena.edge_count(), topo.edge_count());
        assert_eq!(arena.offsets(), topo.offsets());
        assert_eq!(arena.edges(), topo.edges());
        assert_eq!(arena.in_offsets(), topo.in_offsets());
        assert_eq!(arena.in_edges(), topo.in_edges());
        assert_eq!(arena.to_topology(), topo);
        assert!(arena.rows_sorted());
        for u in 0..topo.len() as NodeId {
            assert_eq!(arena.neighbors(u), topo.neighbors(u));
        }
    }

    #[test]
    fn arena_carries_lanes() {
        let topo = sample_topology();
        let edge_pos: Vec<f64> = topo.edges().iter().map(|&v| v as f64 / 10.0).collect();
        let node_pos: Vec<f64> = (0..topo.len()).map(|i| i as f64 / 5.0).collect();
        let arena = TopologyArena::build(&topo, Some(&edge_pos), Some(&node_pos));
        assert_eq!(arena.edge_pos().unwrap(), edge_pos.as_slice());
        assert_eq!(arena.node_pos().unwrap(), node_pos.as_slice());
    }

    #[test]
    fn file_round_trip_is_bit_identical() {
        let topo = sample_topology();
        let edge_pos: Vec<f64> = topo.edges().iter().map(|&v| v as f64 / 7.0).collect();
        let arena = TopologyArena::build(&topo, Some(&edge_pos), None);
        let dir = std::env::temp_dir().join("sw-graph-store-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("arena.swt");
        arena.write_to(&path).unwrap();
        let opened = TopologyArena::open(&path).unwrap();
        assert_eq!(opened.offsets(), arena.offsets());
        assert_eq!(opened.edges(), arena.edges());
        assert_eq!(opened.in_offsets(), arena.in_offsets());
        assert_eq!(opened.in_edges(), arena.in_edges());
        // Bit-identity of the float lane, not approximate equality.
        let a: Vec<u64> = arena
            .edge_pos()
            .unwrap()
            .iter()
            .map(|f| f.to_bits())
            .collect();
        let b: Vec<u64> = opened
            .edge_pos()
            .unwrap()
            .iter()
            .map(|f| f.to_bits())
            .collect();
        assert_eq!(a, b);
        assert_eq!(opened.to_topology(), topo);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn open_rejects_garbage() {
        let dir = std::env::temp_dir().join("sw-graph-store-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("garbage.swt");
        std::fs::write(&path, vec![0u8; 64]).unwrap();
        assert!(TopologyArena::open(&path).is_err());
        std::fs::write(&path, b"short").unwrap();
        assert!(TopologyArena::open(&path).is_err());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn open_rejects_overflowing_header_counts() {
        // Valid magic, absurd n/m chosen so naive usize layout math
        // would wrap to a tiny total; the wide-arithmetic check must
        // return Err instead of panicking on a section cast.
        let dir = std::env::temp_dir().join("sw-graph-store-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("overflow.swt");
        for (n, m) in [
            (u64::MAX / 2, u64::MAX / 2 + 1),
            (u64::MAX, 0),
            (u32::MAX as u64, u32::MAX as u64),
        ] {
            let words = [super::MAGIC, n, m, 0u64];
            let bytes: Vec<u8> = words.iter().flat_map(|w| w.to_ne_bytes()).collect();
            std::fs::write(&path, &bytes).unwrap();
            assert!(TopologyArena::open(&path).is_err(), "n={n} m={m}");
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn open_rejects_truncated_sections() {
        let topo = sample_topology();
        let arena = TopologyArena::build(&topo, None, None);
        let dir = std::env::temp_dir().join("sw-graph-store-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("truncated.swt");
        arena.write_to(&path).unwrap();
        let bytes = std::fs::read(&path).unwrap();
        std::fs::write(&path, &bytes[..bytes.len() - 8]).unwrap();
        assert!(TopologyArena::open(&path).is_err());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn store_backends_agree() {
        let topo = sample_topology();
        let edge_pos: Vec<f64> = topo.edges().iter().map(|&v| v as f64 / 3.0).collect();
        let heap = TopologyStore::heap_with_pos(topo.clone(), edge_pos.clone().into_boxed_slice());
        let arena = TopologyStore::Arena(TopologyArena::build(&topo, Some(&edge_pos), None));
        assert_eq!(heap.len(), arena.len());
        assert_eq!(heap.edge_count(), arena.edge_count());
        assert_eq!(heap.offsets(), arena.offsets());
        assert_eq!(heap.edges(), arena.edges());
        assert_eq!(heap.edge_pos(), arena.edge_pos());
        for u in 0..topo.len() as NodeId {
            assert_eq!(heap.neighbors(u), arena.neighbors(u));
            assert_eq!(heap.row_bounds(u), arena.row_bounds(u));
        }
        assert_eq!(heap.to_topology(), arena.to_topology());
        assert!(arena.resident_bytes() > 0 && heap.resident_bytes() > 0);
    }

    #[test]
    fn store_freeze_reopen() {
        let topo = sample_topology();
        let edge_pos: Vec<f64> = topo.edges().iter().map(|&v| v as f64 / 9.0).collect();
        let store = TopologyStore::heap_with_pos(topo.clone(), edge_pos.into_boxed_slice());
        let dir = std::env::temp_dir().join("sw-graph-store-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("store.swt");
        let node_pos: Vec<f64> = (0..topo.len()).map(|i| i as f64).collect();
        store.freeze_to(&path, Some(&node_pos)).unwrap();
        let reopened = TopologyStore::open(&path).unwrap();
        assert_eq!(reopened.to_topology(), topo);
        assert_eq!(reopened.edge_pos(), store.edge_pos());
        assert_eq!(reopened.node_pos().unwrap(), node_pos.as_slice());
        std::fs::remove_file(&path).ok();
    }

    #[cfg(all(feature = "mmap", unix, target_pointer_width = "64"))]
    #[test]
    fn mmap_open_matches_read_open() {
        let topo = sample_topology();
        let edge_pos: Vec<f64> = topo.edges().iter().map(|&v| v as f64 / 11.0).collect();
        let arena = TopologyArena::build(&topo, Some(&edge_pos), None);
        let dir = std::env::temp_dir().join("sw-graph-store-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("mmap.swt");
        arena.write_to(&path).unwrap();
        let mapped = TopologyArena::open_mmap(&path).unwrap();
        assert_eq!(mapped.offsets(), arena.offsets());
        assert_eq!(mapped.edges(), arena.edges());
        assert_eq!(mapped.edge_pos(), arena.edge_pos());
        assert_eq!(mapped.to_topology(), topo);
        std::fs::remove_file(&path).ok();
    }
}
