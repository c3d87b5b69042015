//! The `SWTOPO` image format every [`Topology`] is stored in.
//!
//! A topology *is* its frozen image: one 8-byte-aligned buffer holding a
//! fixed, checksummed header followed by the `offsets` / `edges`
//! sections, an optional per-**edge** `f64` lane (the
//! key-aligned ring positions the SoA routing kernels scan), and an
//! optional per-**node** `f64` lane (peer keys, so a frozen overlay can
//! be reopened without its construction inputs). The buffer is owned,
//! or — on 64-bit unix — a file mapping, so the kernel pages rows in
//! lazily. Because the memory image *is* the file
//! image, [`Topology::freeze_to`] is a single `write` and
//! [`Topology::open`] a single map (or read) — reopening a 10⁷-peer
//! overlay costs O(1) allocations, no per-peer work, and no unpacking.
//!
//! One producer, one reader. [`crate::writer::ArenaWriter`] fills every
//! image (count-then-fill, in a heap buffer or a write-through mapping
//! of the destination file); every constructor in [`crate::csr`] counts
//! degrees and goes through it. [`Topology::open`] reads every image
//! back and validates it before any accessor can index it. This module
//! holds what both share: the header words, the section `Layout`, the
//! checks, and the buffer.
//!
//! The format is native-endian by design (the image is a memory image);
//! a file written on a foreign-endian machine fails the magic check
//! instead of decoding garbage.
//!
//! Frozen does not mean static: [`crate::delta::DeltaStore`] layers
//! per-peer edge mutations over an immutable base topology, LSM-style —
//! untouched rows read straight out of the image, and a touched row is
//! copied whole into a side table. That lifecycle — `build_frozen` image
//! → `open` → wrap in a `DeltaStore` → churn mutates the delta — is how
//! the simulator loads a 10⁶–10⁷-peer overlay with no per-peer link
//! `Vec`; the side table grows with every row churn, joins and
//! refreshes touch (a refresh touches every row once per interval).

use crate::csr::Topology;
use crate::par;
use std::io;

/// The name the frozen `benchmark/` package still spells; there is one
/// topology type.
pub type TopologyStore = Topology;

/// Magic-plus-version word. Incompatible layout changes bump the last
/// byte. Read back swapped on a foreign-endian machine, so it doubles as
/// an endianness check.
pub(crate) const MAGIC: u64 = 0x5357_544F_504F_0002; // "SWTOPO" + version 2

/// Header words before the first section: magic, `n`, `m`, flags, and
/// the [`header_checksum`] of those four.
pub(crate) const HEADER_WORDS: usize = 5;

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
    pub(crate) edge_pos: usize,
    pub(crate) node_pos: usize,
    pub(crate) total_words: usize,
}

/// Words `len` elements of `T` occupy, padded up to whole `u64` words so
/// every section starts 8-byte aligned.
pub(crate) fn words_of<T>(len: usize) -> usize {
    (len * std::mem::size_of::<T>()).div_ceil(8)
}

pub(crate) fn layout(n: usize, m: usize, flags: u64) -> Layout {
    let offsets = HEADER_WORDS;
    let edges = offsets + words_of::<u32>(n + 1);
    let edge_pos = edges + words_of::<u32>(m);
    let node_pos = edge_pos + if flags & FLAG_EDGE_POS != 0 { m } else { 0 };
    let total_words = node_pos + if flags & FLAG_NODE_POS != 0 { n } else { 0 };
    Layout {
        offsets,
        edges,
        edge_pos,
        node_pos,
        total_words,
    }
}

/// Element types a run of image words may be viewed as.
///
/// # Safety
///
/// Every bit pattern must be a valid value of the type, and its size
/// (hence its alignment) must divide 8, so a section that starts on a
/// `u64` word holds whole, aligned elements.
pub(crate) unsafe trait Plain: Copy {}
// SAFETY: `u8`, `u32` and `f64` accept every bit pattern, and their
// sizes (1, 4, 8) divide 8.
unsafe impl Plain for u8 {}
// SAFETY: as above.
unsafe impl Plain for u32 {}
// SAFETY: as above.
unsafe impl Plain for f64 {}

/// Views `len` elements of `T` starting at word `word` of `buf`.
///
/// # Panics
///
/// Panics if the section does not fit inside `buf`.
pub(crate) fn section<T: Plain>(buf: &[u64], word: usize, len: usize) -> &[T] {
    let words = &buf[word..];
    assert!(
        len <= words.len() * (8 / std::mem::size_of::<T>()),
        "section out of bounds"
    );
    // SAFETY: the slice and the assert keep all `len` elements inside
    // `buf` (the bound cannot overflow: `words.len() * 8` bytes exist);
    // the section starts on a `u64` word, and `T: Plain` guarantees
    // that alignment suffices and every bit pattern is valid; the view
    // borrows `buf`, so the memory outlives it.
    unsafe { std::slice::from_raw_parts(words.as_ptr() as *const T, len) }
}

/// The mutable twin of [`section`] (same bounds check, same panics).
pub(crate) fn section_mut<T: Plain>(buf: &mut [u64], word: usize, len: usize) -> &mut [T] {
    let words = &mut buf[word..];
    assert!(
        len <= words.len() * (8 / std::mem::size_of::<T>()),
        "section out of bounds"
    );
    // SAFETY: as in `section`; the `&mut` borrow of `buf` makes the view
    // the only access to those words while it lives.
    unsafe { std::slice::from_raw_parts_mut(words.as_mut_ptr() as *mut T, len) }
}

/// FNV-1a over the native-endian bytes of header words 0–3 — the value
/// header word 4 must hold.
pub(crate) fn header_checksum(buf: &[u64]) -> u64 {
    buf[..4]
        .iter()
        .flat_map(|w| w.to_ne_bytes())
        .fold(0xcbf2_9ce4_8422_2325, |h, b| {
            (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3)
        })
}

/// The header of an untrusted image, checked: magic, checksum, `u32` id
/// space and total length. Returns `(n, m, flags)` and the section
/// layout, which then lies inside `buf` by construction.
pub(crate) fn check_header(buf: &[u64]) -> io::Result<(usize, usize, u64, Layout)> {
    if buf.len() < HEADER_WORDS {
        return Err(bad_format("truncated header"));
    }
    if buf[0] != MAGIC {
        return Err(bad_format(
            "bad magic (not a v2 topology image, or foreign endianness)",
        ));
    }
    if buf[4] != header_checksum(buf) {
        return Err(bad_format("header checksum mismatch"));
    }
    let (n, m, flags) = (buf[1], buf[2], buf[3]);
    // The header is untrusted: bound the counts and recompute the length
    // in wide arithmetic first, so absurd n/m reject cleanly instead of
    // wrapping layout() into a bounds panic. Node ids and edge offsets
    // are u32, so nothing larger is valid.
    if n > u32::MAX as u64 || m > u32::MAX as u64 {
        return Err(bad_format("peer/edge count exceeds the u32 id space"));
    }
    let wide_words = {
        let u32s = |len: u128| len.div_ceil(2);
        let (n, m) = (n as u128, m as u128);
        let edge_lane = if flags & FLAG_EDGE_POS != 0 { m } else { 0 };
        let node_lane = if flags & FLAG_NODE_POS != 0 { n } else { 0 };
        HEADER_WORDS as u128 + u32s(n + 1) + u32s(m) + edge_lane + node_lane
    };
    if buf.len() as u128 != wide_words {
        return Err(bad_format("file length does not match header"));
    }
    let (n, m) = (n as usize, m as usize);
    Ok((n, m, flags, layout(n, m, flags)))
}

/// Structural checks of an image whose header passed [`check_header`]:
/// the offset table starts at 0, ends at `m` and never decreases, and
/// every edge target is a peer id. One pass each, fanned out over the
/// machine's cores (the scans dominated the 18–23 s reopen cost at 10⁷
/// peers when run sequentially).
pub(crate) fn check_sections(topo: &Topology) -> io::Result<()> {
    let (n, m) = (topo.len(), topo.edge_count());
    let offs = topo.offsets();
    if offs.first() != Some(&0) || offs.last() != Some(&(m as u32)) {
        return Err(bad_format("offsets"));
    }
    let monotone = par::par_chunks(n, 0, |r| {
        offs[r.start..r.end + 1].windows(2).all(|w| w[0] <= w[1])
    });
    if monotone.into_iter().any(|ok| !ok) {
        return Err(bad_format("offsets"));
    }
    let edges = topo.edges();
    let in_range = par::par_chunks(m, 0, |r| edges[r].iter().all(|&v| (v as usize) < n));
    if in_range.into_iter().any(|ok| !ok) {
        return Err(bad_format("edge target out of range"));
    }
    Ok(())
}

pub(crate) fn bad_format(what: &str) -> io::Error {
    io::Error::new(
        io::ErrorKind::InvalidData,
        format!("invalid topology image: {what}"),
    )
}

/// An image's backing memory: an owned allocation, or (on 64-bit unix)
/// a file mapping — read-only when opened, write-through when an
/// `ArenaWriter` builds the image in place.
pub(crate) enum ImageBuf {
    Owned(Box<[u64]>),
    #[cfg(all(unix, target_pointer_width = "64"))]
    Mapped(mapping::Mapping),
}

impl std::ops::Deref for ImageBuf {
    type Target = [u64];
    fn deref(&self) -> &[u64] {
        match self {
            ImageBuf::Owned(b) => b,
            #[cfg(all(unix, target_pointer_width = "64"))]
            ImageBuf::Mapped(m) => m.words(),
        }
    }
}

impl ImageBuf {
    /// Cuts the buffer to its first `words` words: an owned buffer is
    /// reallocated at the smaller size, a mapping's views shrink (its
    /// file is cut by the writer that holds it).
    pub(crate) fn truncate(&mut self, words: usize) {
        match self {
            ImageBuf::Owned(b) => {
                let mut v = std::mem::take(b).into_vec();
                v.truncate(words);
                *b = v.into_boxed_slice();
            }
            #[cfg(all(unix, target_pointer_width = "64"))]
            ImageBuf::Mapped(m) => m.truncate(words * 8),
        }
    }
}

impl std::ops::DerefMut for ImageBuf {
    /// # Panics
    ///
    /// Panics on a read-only mapping (only writers mutate images).
    fn deref_mut(&mut self) -> &mut [u64] {
        match self {
            ImageBuf::Owned(b) => b,
            #[cfg(all(unix, target_pointer_width = "64"))]
            ImageBuf::Mapped(m) => m.words_mut(),
        }
    }
}

/// Raw `mmap(2)` bindings over the system libc — the workspace builds
/// offline, so the `libc` crate is not available; `mmap`/`munmap` are
/// always present in the C runtime every unix Rust binary links.
#[cfg(all(unix, target_pointer_width = "64"))]
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
        if len_bytes > 0 {
            // SAFETY: a plain syscall on a descriptor `file` keeps open
            // for the call; it touches no memory of this process, and
            // its error return is deliberately ignored (best-effort).
            unsafe { posix_fallocate(file.as_raw_fd(), 0, len_bytes as i64) };
        }
    }

    /// A whole-file mapping, unmapped on drop: read-only/private when
    /// opening a frozen image, write-through/shared when an
    /// `ArenaWriter` builds the image directly in the destination file.
    pub struct Mapping {
        ptr: *mut u64,
        len_bytes: usize,
        /// Bytes the views cover: `len_bytes` until [`Mapping::truncate`].
        view_bytes: usize,
        writable: bool,
    }

    // SAFETY: `ptr` is a process-wide mapping this value alone owns and
    // unmaps (no thread affinity); the lengths and `writable` are plain
    // values. Moving them to another thread is sound.
    unsafe impl Send for Mapping {}
    // SAFETY: shared access only reads (`words(&self)`); writes need
    // `words_mut(&mut self)`, so the borrow rules forbid a data race.
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
            // SAFETY: a null hint lets the kernel pick fresh address
            // space, so no existing Rust memory is replaced; the result
            // is checked against MAP_FAILED below before any use.
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
                view_bytes: len_bytes,
                writable,
            })
        }

        pub fn words(&self) -> &[u64] {
            // SAFETY: `ptr` maps `len_bytes ≥ view_bytes` (a multiple of
            // 8: callers map and keep whole images) page-aligned bytes
            // until `drop`, and the view borrows `self`, so the mapping
            // outlives it.
            unsafe { std::slice::from_raw_parts(self.ptr, self.view_bytes / 8) }
        }

        pub fn words_mut(&mut self) -> &mut [u64] {
            assert!(self.writable, "read-only mapping");
            // SAFETY: as in `words`; the assert proves PROT_WRITE, and
            // `&mut self` makes this the only view while it lives.
            unsafe { std::slice::from_raw_parts_mut(self.ptr, self.view_bytes / 8) }
        }

        /// Shrinks the views to the first `view_bytes` bytes, for a file
        /// cut to that length: pages past the new end stay mapped until
        /// `drop`, but no view reaches them.
        pub fn truncate(&mut self, view_bytes: usize) {
            self.view_bytes = self.view_bytes.min(view_bytes);
        }
    }

    impl Drop for Mapping {
        fn drop(&mut self) {
            // SAFETY: `ptr`/`len_bytes` are exactly what `mmap` returned,
            // unmapped once, and no view survives `self` (every view
            // borrows it).
            unsafe {
                munmap(self.ptr as *mut c_void, self.len_bytes);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::{header_checksum, MAGIC};
    use crate::csr::{LinkTable, NodeId, Topology};
    use crate::writer::ArenaWriter;
    use std::path::PathBuf;

    fn sample_topology() -> Topology {
        let mut lt = LinkTable::new(5);
        lt.add_all(0, [3, 1, 4]);
        lt.add_all(1, [2]);
        lt.add_all(3, [0, 2]);
        lt.add_all(4, [1, 0, 2, 3]);
        lt.build()
    }

    /// `topo`'s rows with the given lanes, filled through the writer.
    fn with_lanes(topo: &Topology, edge_pos: Option<&[f64]>, node_pos: Option<&[f64]>) -> Topology {
        let degrees: Vec<u32> = (0..topo.len() as NodeId)
            .map(|u| topo.out_degree(u) as u32)
            .collect();
        let mut writer =
            ArenaWriter::from_degrees(&degrees, edge_pos.is_some(), node_pos.is_some()).unwrap();
        writer.fill(1, |slots| {
            let rows = slots.edge_base..slots.edge_base + slots.edges.len();
            slots.edges.copy_from_slice(&topo.edges()[rows.clone()]);
            if let (Some(dst), Some(src)) = (slots.edge_pos, edge_pos) {
                dst.copy_from_slice(&src[rows]);
            }
            if let (Some(dst), Some(src)) = (slots.node_pos, node_pos) {
                dst.copy_from_slice(&src[slots.range]);
            }
        });
        writer.finish(1).unwrap()
    }

    fn scratch(file: &str) -> PathBuf {
        let dir = std::env::temp_dir().join("sw-graph-store-test");
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(file)
    }

    fn bits(lane: Option<&[f64]>) -> Vec<u64> {
        lane.unwrap().iter().map(|f| f.to_bits()).collect()
    }

    fn words_to_bytes(words: &[u64]) -> Vec<u8> {
        words.iter().flat_map(|w| w.to_ne_bytes()).collect()
    }

    #[test]
    fn arena_round_trips_topology() {
        let topo = sample_topology();
        let path = scratch("round-trip.swt");
        topo.freeze_to(&path, None).unwrap();
        let opened = Topology::open(&path).unwrap();
        assert_eq!(opened.as_bytes(), topo.as_bytes());
        assert_eq!(opened, topo);
        assert_eq!(opened.len(), topo.len());
        assert_eq!(opened.edge_count(), topo.edge_count());
        assert!(opened.rows_sorted());
        assert!(opened.edge_pos().is_none() && opened.node_pos().is_none());
        for u in 0..topo.len() as NodeId {
            assert_eq!(opened.neighbors(u), topo.neighbors(u));
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn arena_carries_lanes() {
        let topo = sample_topology();
        let edge_pos: Vec<f64> = topo.edges().iter().map(|&v| v as f64 / 10.0).collect();
        let node_pos: Vec<f64> = (0..topo.len()).map(|i| i as f64 / 5.0).collect();
        let laned = with_lanes(&topo, Some(&edge_pos), Some(&node_pos));
        assert_eq!(laned.edge_pos().unwrap(), edge_pos.as_slice());
        assert_eq!(laned.node_pos().unwrap(), node_pos.as_slice());
        // Lanes are payload: the graph is the same, the image is not.
        assert_eq!(laned, topo);
        assert!(laned.resident_bytes() > topo.resident_bytes());
    }

    #[test]
    fn file_round_trip_is_bit_identical() {
        let topo = sample_topology();
        let edge_pos: Vec<f64> = topo.edges().iter().map(|&v| v as f64 / 7.0).collect();
        let laned = with_lanes(&topo, Some(&edge_pos), None);
        let path = scratch("arena.swt");
        laned.freeze_to(&path, None).unwrap();
        let opened = Topology::open(&path).unwrap();
        assert_eq!(opened.offsets(), laned.offsets());
        assert_eq!(opened.edges(), laned.edges());
        // Bit-identity of the float lane, not approximate equality.
        assert_eq!(bits(opened.edge_pos()), bits(Some(&edge_pos)));
        assert_eq!(opened.as_bytes(), laned.as_bytes());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn open_rejects_garbage() {
        let path = scratch("garbage.swt");
        std::fs::write(&path, vec![0u8; 64]).unwrap();
        assert!(Topology::open(&path).is_err());
        std::fs::write(&path, b"short").unwrap();
        assert!(Topology::open(&path).is_err());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn open_rejects_overflowing_header_counts() {
        // Valid magic and checksum, absurd n/m chosen so naive usize
        // layout math would wrap to a tiny total; the wide-arithmetic
        // check must return Err instead of panicking on a section cast.
        let path = scratch("overflow.swt");
        for (n, m) in [
            (u64::MAX / 2, u64::MAX / 2 + 1),
            (u64::MAX, 0),
            (u32::MAX as u64, u32::MAX as u64),
        ] {
            let mut words = [MAGIC, n, m, 0, 0];
            words[4] = header_checksum(&words);
            std::fs::write(&path, words_to_bytes(&words)).unwrap();
            assert!(Topology::open(&path).is_err(), "n={n} m={m}");
        }
        std::fs::remove_file(&path).ok();
    }

    /// A v1 image — the format with the in-edge sections — is an `Err`
    /// at its magic word, even with a header checksum that matches.
    #[test]
    fn open_rejects_v1_images() {
        let mut words: Vec<u64> = sample_topology()
            .as_bytes()
            .chunks_exact(8)
            .map(|w| u64::from_ne_bytes(w.try_into().unwrap()))
            .collect();
        words[0] = 0x5357_544F_504F_0001;
        words[4] = header_checksum(&words);
        let path = scratch("v1.swt");
        std::fs::write(&path, words_to_bytes(&words)).unwrap();
        assert!(Topology::open(&path).is_err());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn open_rejects_truncated_sections() {
        let topo = sample_topology();
        let path = scratch("truncated.swt");
        let bytes = topo.as_bytes();
        std::fs::write(&path, &bytes[..bytes.len() - 8]).unwrap();
        assert!(Topology::open(&path).is_err());
        std::fs::remove_file(&path).ok();
    }

    /// `freeze_to` with a node lane the image lacks re-fills the rows
    /// with it; with the lane the image already carries it writes the
    /// image as it is.
    #[test]
    fn store_freeze_reopen() {
        let topo = sample_topology();
        let edge_pos: Vec<f64> = topo.edges().iter().map(|&v| v as f64 / 9.0).collect();
        let laned = with_lanes(&topo, Some(&edge_pos), None);
        let path = scratch("store.swt");
        let node_pos: Vec<f64> = (0..topo.len()).map(|i| i as f64).collect();
        laned.freeze_to(&path, Some(&node_pos)).unwrap();
        let reopened = Topology::open(&path).unwrap();
        assert_eq!(reopened, topo);
        assert_eq!(reopened.edge_pos(), laned.edge_pos());
        assert_eq!(reopened.node_pos().unwrap(), node_pos.as_slice());
        assert_eq!(
            reopened.as_bytes(),
            with_lanes(&topo, Some(&edge_pos), Some(&node_pos)).as_bytes()
        );
        let again = scratch("store-again.swt");
        reopened.freeze_to(&again, Some(&node_pos)).unwrap();
        assert_eq!(std::fs::read(&again).unwrap(), reopened.as_bytes());
        std::fs::remove_file(&path).ok();
        std::fs::remove_file(&again).ok();
    }

    /// On 64-bit unix `open` maps the file: the mapped image is the
    /// file's bytes, and routes like the original.
    #[cfg(all(unix, target_pointer_width = "64"))]
    #[test]
    fn open_maps_the_files_bytes() {
        let topo = sample_topology();
        let edge_pos: Vec<f64> = topo.edges().iter().map(|&v| v as f64 / 11.0).collect();
        let laned = with_lanes(&topo, Some(&edge_pos), None);
        let path = scratch("mmap.swt");
        laned.freeze_to(&path, None).unwrap();
        let mapped = Topology::open(&path).unwrap();
        assert_eq!(mapped.as_bytes(), std::fs::read(&path).unwrap().as_slice());
        assert_eq!(mapped.edge_pos(), laned.edge_pos());
        assert_eq!(mapped, topo);
        // A clone of a mapped image is an owned copy of the same bytes.
        assert_eq!(mapped.clone().as_bytes(), mapped.as_bytes());
        std::fs::remove_file(&path).ok();
    }
}
