//! Software-prefetch hints — the one shared home for the helper every
//! latency-hiding kernel calls.
//!
//! Every batched kernel in the workspace that chases dependent pointers
//! through multi-GB arrays (the harmonic link sampler, the contact-key
//! gather, the interleaved AMAC routing kernel in `sw-overlay`) hides
//! DRAM latency the same way: issue the *next* item's loads as
//! prefetches while computing on the current one, so several cache
//! misses are in flight at once instead of serializing. These helpers
//! are purely performance hints — they never dereference, never fault,
//! and compile to nothing on architectures without a stable prefetch
//! intrinsic (everything off x86-64), so callers sprinkle them freely
//! without `cfg` noise and without affecting results.

/// Hints the CPU to pull the cache line holding `p` toward L1.
///
/// Safe for *any* pointer — dangling, unaligned, one-past-the-end:
/// prefetch reads nothing architecturally and never faults. No-op off
/// x86-64.
#[inline(always)]
pub fn prefetch_read<T>(p: *const T) {
    #[cfg(target_arch = "x86_64")]
    // SAFETY: `prefetch` is a hint: it never faults and reads nothing
    // architecturally, so any address — even a dangling one — is fine.
    unsafe {
        core::arch::x86_64::_mm_prefetch(p as *const i8, core::arch::x86_64::_MM_HINT_T0);
    }
    #[cfg(not(target_arch = "x86_64"))]
    let _ = p;
}

/// Cache-line size the span helper steps by. 64 bytes is correct for
/// every x86-64 part this workspace targets; on other architectures the
/// prefetches are no-ops anyway.
const LINE: usize = 64;

/// Prefetches every cache line a slice touches — the row form used for
/// CSR edge rows and their aligned SoA lanes, whose logarithmic degree
/// spans one to a handful of lines.
#[inline(always)]
pub fn prefetch_span<T>(s: &[T]) {
    let bytes = std::mem::size_of_val(s);
    let base = s.as_ptr() as *const u8;
    let mut off = 0usize;
    // Plain wrapping arithmetic: the hint takes any address, so no
    // `unsafe` in-bounds pointer offset is needed.
    while off < bytes {
        prefetch_read(base.wrapping_add(off));
        off += LINE;
    }
    // The loop covers the line of the first byte and every LINE step,
    // which reaches the last byte's line because offsets advance in
    // exact line strides from the base pointer.
    if bytes > 0 {
        prefetch_read(base.wrapping_add(bytes - 1));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn prefetch_accepts_any_pointer() {
        // Valid, dangling and null pointers must all be safe no-ops.
        let v = [1u64, 2, 3];
        prefetch_read(v.as_ptr());
        prefetch_read(v.as_ptr().wrapping_add(1 << 20));
        prefetch_read(std::ptr::null::<u64>());
    }

    #[test]
    fn span_handles_empty_and_large() {
        let empty: [u8; 0] = [];
        prefetch_span(&empty);
        let v = vec![0u8; 1000];
        prefetch_span(&v);
        let w = vec![0.0f64; 7];
        prefetch_span(&w);
    }
}
