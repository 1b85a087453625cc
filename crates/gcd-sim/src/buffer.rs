//! Device buffers.
//!
//! Kernels see device memory as typed arrays of `u32` / `u64`; storage is
//! atomic so kernel bodies can mutate it through a shared reference, the
//! way real workgroups race on global memory (and the waves of a
//! `Device::launch_split` race on it for real). Each buffer
//! carries a base "device address" from a bump allocator so the memory
//! hierarchy model can reason about cache lines across buffers.

use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};

/// A device buffer of `u32` values (status arrays, frontier queues,
/// adjacency lists, counters).
pub struct BufU32 {
    base: u64,
    data: Vec<AtomicU32>,
}

/// A device buffer of `u64` values (CSR row offsets, prefix sums).
pub struct BufU64 {
    base: u64,
    data: Vec<AtomicU64>,
}

macro_rules! impl_buf {
    ($name:ident, $atom:ty, $prim:ty, $width:expr) => {
        impl $name {
            /// `len` zeroed elements at device address `base`: a device
            /// line-aligns its own, a test of the trace may make them straddle.
            pub fn new(base: u64, len: usize) -> Self {
                let data = (0..len).map(|_| <$atom>::new(0)).collect();
                Self { base, data }
            }

            pub(crate) fn from_slice(base: u64, src: &[$prim]) -> Self {
                let data = src.iter().map(|&v| <$atom>::new(v)).collect();
                Self { base, data }
            }

            /// Zero-length placeholder at address 0 — for moving a real
            /// buffer out of a struct field (e.g. into the device pool)
            /// without leaving the field uninhabited.
            pub fn placeholder() -> Self {
                Self::new(0, 0)
            }

            /// Number of elements.
            #[inline]
            pub fn len(&self) -> usize {
                self.data.len()
            }

            /// True if the buffer holds no elements.
            #[inline]
            pub fn is_empty(&self) -> bool {
                self.data.is_empty()
            }

            /// Device byte address of element `idx`.
            #[inline]
            pub fn addr(&self, idx: usize) -> u64 {
                debug_assert!(
                    idx < self.data.len(),
                    "device OOB: {idx} >= {}",
                    self.data.len()
                );
                self.base + ($width as u64) * idx as u64
            }

            /// Raw load — used by the wave context after tracing; host code
            /// may call it directly (host reads are not traced, mirroring a
            /// mapped read outside kernel time).
            #[inline]
            pub fn load(&self, idx: usize) -> $prim {
                self.data[idx].load(Ordering::Relaxed)
            }

            /// Raw store (see [`Self::load`]).
            #[inline]
            pub fn store(&self, idx: usize, val: $prim) {
                self.data[idx].store(val, Ordering::Relaxed);
            }

            /// Append elements `start..start + count` to `out`.
            #[inline]
            pub(crate) fn load_range(&self, start: usize, count: usize, out: &mut Vec<$prim>) {
                let src = &self.data[start..start + count];
                out.extend(src.iter().map(|a| a.load(Ordering::Relaxed)));
            }

            /// Store `vals` at elements `start..start + vals.len()`.
            #[inline]
            pub(crate) fn store_range(&self, start: usize, vals: &[$prim]) {
                let dst = &self.data[start..start + vals.len()];
                dst.iter()
                    .zip(vals)
                    .for_each(|(a, &v)| a.store(v, Ordering::Relaxed));
            }

            /// Raw compare-exchange; returns the previous value on success.
            #[inline]
            pub fn cas(&self, idx: usize, current: $prim, new: $prim) -> Result<$prim, $prim> {
                self.data[idx].compare_exchange(current, new, Ordering::Relaxed, Ordering::Relaxed)
            }

            /// Raw fetch-add.
            #[inline]
            pub fn fetch_add(&self, idx: usize, val: $prim) -> $prim {
                self.data[idx].fetch_add(val, Ordering::Relaxed)
            }

            /// Raw atomic minimum.
            #[inline]
            pub fn fetch_min(&self, idx: usize, val: $prim) -> $prim {
                self.data[idx].fetch_min(val, Ordering::Relaxed)
            }

            /// Raw atomic bitwise OR.
            #[inline]
            pub fn fetch_or(&self, idx: usize, val: $prim) -> $prim {
                self.data[idx].fetch_or(val, Ordering::Relaxed)
            }

            /// The contents, element by element (untraced).
            pub fn iter(&self) -> impl Iterator<Item = $prim> + '_ {
                self.data.iter().map(|a| a.load(Ordering::Relaxed))
            }

            /// The contents, read through `&mut` without atomics (untraced).
            pub fn host_values(&mut self) -> impl Iterator<Item = $prim> + '_ {
                self.data.iter_mut().map(|a| *a.get_mut())
            }

            /// Copy device contents back to a host vector (untraced).
            pub fn to_host(&self) -> Vec<$prim> {
                self.iter().collect()
            }

            /// Fill with a value from the host (untraced; use the device
            /// `fill` kernel when the cost should be charged).
            pub fn host_fill(&self, val: $prim) {
                for a in &self.data {
                    a.store(val, Ordering::Relaxed);
                }
            }

            /// Overwrite contents from a host slice (untraced).
            pub fn host_write(&self, src: &[$prim]) {
                assert_eq!(src.len(), self.data.len(), "host_write length mismatch");
                self.store_range(0, src);
            }
        }

        impl crate::device::ParkedBuf for $name {
            fn elem_count(&self) -> usize {
                self.len()
            }
            fn byte_len(&self) -> u64 {
                $width * self.len() as u64
            }
            fn base_addr(&self) -> u64 {
                self.base
            }
            fn content_digest(&self) -> u64 {
                crate::pool::fnv1a(self.iter().map(u64::from))
            }
        }
    };
}

impl_buf!(BufU32, AtomicU32, u32, 4);
impl_buf!(BufU64, AtomicU64, u64, 8);

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn addresses_are_elementwise() {
        let b = BufU32::new(0x1000, 8);
        assert_eq!(b.addr(0), 0x1000);
        assert_eq!(b.addr(3), 0x100C);
        let b64 = BufU64::new(0x2000, 4);
        assert_eq!(b64.addr(2), 0x2010);
    }

    #[test]
    fn load_store_cas() {
        let b = BufU32::new(0, 4);
        b.store(1, 42);
        assert_eq!(b.load(1), 42);
        assert_eq!(b.cas(1, 42, 7), Ok(42));
        assert_eq!(b.cas(1, 42, 9), Err(7));
        assert_eq!(b.fetch_add(1, 3), 7);
        assert_eq!(b.load(1), 10);
        b.fetch_min(1, 2);
        assert_eq!(b.load(1), 2);
    }

    #[test]
    fn host_round_trip() {
        let b = BufU64::from_slice(0, &[5, 6, 7]);
        assert_eq!(b.to_host(), vec![5, 6, 7]);
        b.host_fill(1);
        assert_eq!(b.to_host(), vec![1, 1, 1]);
        b.host_write(&[9, 8, 7]);
        assert_eq!(b.to_host(), vec![9, 8, 7]);
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn host_write_checks_len() {
        BufU32::new(0, 2).host_write(&[1]);
    }
}
