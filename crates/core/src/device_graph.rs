//! Graph residing in (simulated) device memory.
//!
//! Mirrors the XBFS device layout: 8-byte row offsets (`beg_pos`), 4-byte
//! adjacency (`csr`), plus a precomputed 4-byte degree array that XBFS keeps
//! to avoid loading two offsets per vertex in expansion kernels.

use crate::integrity::IntegrityError;
use gcd_sim::{fnv1a, BufU32, BufU64, Device};
use xbfs_graph::Csr;

/// A CSR graph uploaded to the device.
pub struct DeviceGraph {
    /// Row offsets, `|V| + 1` entries of 8 bytes.
    pub offsets: BufU64,
    /// Adjacency, `|M|` entries of 4 bytes.
    pub adjacency: BufU32,
    /// Out-degrees, `|V|` entries of 4 bytes.
    pub degrees: BufU32,
    /// The same out-degrees on the host, for the engines' host-side
    /// frontier sums and traversed-edge counts.
    pub host_degrees: Vec<u32>,
    num_vertices: usize,
    num_edges: usize,
    /// FNV-1a digest of the topology at upload time; [`DeviceGraph::verify`]
    /// re-derives it from device memory to detect in-place corruption.
    checksum: u64,
}

/// Digest the full topology (shape first, then every word). The per-word
/// FNV-1a mix is bijective, so any single-word corruption in offsets,
/// adjacency, or degrees always changes the digest.
fn csr_digest(
    num_vertices: usize,
    num_edges: usize,
    offsets: impl Iterator<Item = u64>,
    adjacency: impl Iterator<Item = u32>,
    degrees: impl Iterator<Item = u32>,
) -> u64 {
    fnv1a(
        [num_vertices as u64, num_edges as u64]
            .into_iter()
            .chain(offsets)
            .chain(adjacency.map(u64::from))
            .chain(degrees.map(u64::from)),
    )
}

impl DeviceGraph {
    /// Upload `g` (untimed — the paper's measured window starts after the
    /// graph is resident, matching its n-to-n protocol). Buffers come from
    /// the device pool: re-uploading an identically shaped graph after a
    /// [`DeviceGraph::release_to_pool`] reuses the same device addresses,
    /// which keeps modeled timings bit-identical across engine rebuilds.
    pub fn upload(device: &Device, g: &Csr) -> Self {
        let degrees: Vec<u32> = (0..g.num_vertices() as u32).map(|v| g.degree(v)).collect();
        let offsets = device.pool_acquire_u64(g.offsets().len());
        offsets.host_write(g.offsets());
        let adjacency = device.pool_acquire_u32(g.adjacency().len());
        adjacency.host_write(g.adjacency());
        let degree_buf = device.pool_acquire_u32(degrees.len());
        degree_buf.host_write(&degrees);
        let checksum = csr_digest(
            g.num_vertices(),
            g.num_edges(),
            g.offsets().iter().copied(),
            g.adjacency().iter().copied(),
            degrees.iter().copied(),
        );
        Self {
            offsets,
            adjacency,
            degrees: degree_buf,
            host_degrees: degrees,
            num_vertices: g.num_vertices(),
            num_edges: g.num_edges(),
            checksum,
        }
    }

    /// The topology digest recorded at upload.
    #[inline]
    pub fn checksum(&self) -> u64 {
        self.checksum
    }

    /// Copy the offsets and adjacency to the host and re-derive the
    /// topology digest from the copies (and the device's degrees) — an
    /// O(|V| + |E|) sweep that detects any single-word corruption of the
    /// resident CSR. Returns the copies it checked, so a certificate reads
    /// exactly the bytes that matched the upload-time record.
    pub fn verify(&self) -> Result<(Vec<u64>, Vec<u32>), IntegrityError> {
        let (offsets, adjacency) = (self.offsets.to_host(), self.adjacency.to_host());
        let actual = csr_digest(
            self.num_vertices,
            self.num_edges,
            offsets.iter().copied(),
            adjacency.iter().copied(),
            self.degrees.iter(),
        );
        if actual == self.checksum {
            Ok((offsets, adjacency))
        } else {
            Err(IntegrityError::GraphChecksum {
                expected: self.checksum,
                actual,
            })
        }
    }

    /// Park the graph's buffers in the device pool, in reverse upload
    /// order so the pool's LIFO free lists hand each one back to the same
    /// role on the next upload. Call after releasing any state acquired
    /// later than the upload (see `BfsState::release_to_pool`).
    pub fn release_to_pool(&mut self, device: &Device) {
        device.pool_release_u32(std::mem::replace(&mut self.degrees, BufU32::placeholder()));
        device.pool_release_u32(std::mem::replace(
            &mut self.adjacency,
            BufU32::placeholder(),
        ));
        device.pool_release_u64(std::mem::replace(&mut self.offsets, BufU64::placeholder()));
    }

    /// Number of vertices.
    #[inline]
    pub fn num_vertices(&self) -> usize {
        self.num_vertices
    }

    /// Number of directed edges.
    #[inline]
    pub fn num_edges(&self) -> usize {
        self.num_edges
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use xbfs_graph::generators::erdos_renyi;

    #[test]
    fn upload_preserves_structure() {
        let g = erdos_renyi(128, 400, 3);
        let dev = Device::mi250x();
        let dg = DeviceGraph::upload(&dev, &g);
        assert_eq!(dg.num_vertices(), 128);
        assert_eq!(dg.num_edges(), g.num_edges());
        assert_eq!(dg.offsets.to_host(), g.offsets());
        assert_eq!(dg.adjacency.to_host(), g.adjacency());
        let deg = dg.degrees.to_host();
        for v in 0..128u32 {
            assert_eq!(deg[v as usize], g.degree(v));
        }
    }

    #[test]
    fn verify_detects_any_single_bit_flip() {
        let g = erdos_renyi(64, 200, 7);
        let dev = Device::mi250x();
        let dg = DeviceGraph::upload(&dev, &g);
        assert!(dg.verify().is_ok());
        // Flip one bit in each region; every flip must change the digest.
        dg.adjacency.store(5, dg.adjacency.load(5) ^ (1 << 13));
        assert!(dg.verify().is_err());
        dg.adjacency.store(5, dg.adjacency.load(5) ^ (1 << 13));
        dg.offsets.store(10, dg.offsets.load(10) ^ (1 << 40));
        assert!(dg.verify().is_err());
        dg.offsets.store(10, dg.offsets.load(10) ^ (1 << 40));
        dg.degrees.store(0, dg.degrees.load(0) ^ 1);
        assert!(dg.verify().is_err());
        dg.degrees.store(0, dg.degrees.load(0) ^ 1);
        assert!(dg.verify().is_ok(), "restored graph verifies again");
    }
}
