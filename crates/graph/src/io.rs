//! Graph IO: plain-text edge lists (SNAP style) and a compact binary CSR
//! format for caching generated datasets between benchmark runs.

use crate::builder::{BuildOptions, CsrBuilder};
use crate::csr::{Csr, VertexId};
use std::fs::File;
use std::io::{self, BufRead, BufReader, BufWriter, Read, Write};
use std::path::Path;

/// Every refusal of a malformed file is this one typed error.
fn invalid(msg: impl Into<Box<dyn std::error::Error + Send + Sync>>) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg)
}

/// `n` vertices from `bytes` bytes of text, or `InvalidData`. A text
/// loader sizes the graph from ids in the file, as untrusted as a binary
/// header, so as there memory stays bounded by the bytes present: at most
/// 8 vertices per byte.
fn check_vertex_count(n: usize, bytes: u64) -> io::Result<()> {
    match n as u64 <= bytes.saturating_mul(8) {
        true => Ok(()),
        false => Err(invalid(format!(
            "{n} vertices from {bytes} bytes (8 per byte at most)"
        ))),
    }
}

/// Parse a SNAP-style edge list: one `u v` pair per line, `#` comments
/// allowed. Ids are used as-is: the largest id defines |V|, at most 8 per
/// byte of the file.
pub fn read_edge_list<R: BufRead>(reader: R, opts: BuildOptions) -> io::Result<Csr> {
    let mut edges: Vec<(u64, u64)> = Vec::new();
    let mut max_id = 0u64;
    let mut bytes = 0u64;
    for line in reader.lines() {
        let line = line?;
        bytes += line.len() as u64 + 1;
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') || line.starts_with('%') {
            continue;
        }
        let mut it = line.split_whitespace();
        let (u, v) = match (it.next(), it.next()) {
            (Some(u), Some(v)) => (u, v),
            _ => return Err(invalid(format!("malformed edge line: {line:?}"))),
        };
        let u: u64 = u
            .parse()
            .map_err(|e| invalid(format!("bad vertex id {u:?}: {e}")))?;
        let v: u64 = v
            .parse()
            .map_err(|e| invalid(format!("bad vertex id {v:?}: {e}")))?;
        max_id = max_id.max(u).max(v);
        edges.push((u, v));
    }
    let n = if edges.is_empty() {
        0
    } else {
        max_id as usize + 1
    };
    if n > u32::MAX as usize {
        return Err(invalid("vertex id exceeds u32 range"));
    }
    check_vertex_count(n, bytes)?;
    let edges = edges
        .into_iter()
        .map(|(u, v)| (u as VertexId, v as VertexId));
    Ok(CsrBuilder::from_edges(n.max(1), edges.collect()).build(opts))
}

/// Read an edge-list file from disk.
pub fn read_edge_list_file(path: &Path, opts: BuildOptions) -> io::Result<Csr> {
    read_edge_list(BufReader::new(File::open(path)?), opts)
}

/// Write a graph as a directed edge list (every stored arc).
pub fn write_edge_list<W: Write>(g: &Csr, mut w: W) -> io::Result<()> {
    for (u, nbrs) in g.iter_rows() {
        for &v in nbrs {
            writeln!(w, "{u} {v}")?;
        }
    }
    Ok(())
}

/// Parse a Matrix Market coordinate file (`%%MatrixMarket matrix
/// coordinate ...`) as a graph — the distribution format of many of the
/// paper's datasets (SuiteSparse mirrors of SNAP). Ids are 1-based in the
/// format and converted to 0-based; any value entries are ignored; the
/// `symmetric` qualifier adds reverse edges regardless of `opts`. The size
/// line may claim at most 8 vertices per byte of the file.
pub fn read_matrix_market<R: BufRead>(reader: R, opts: BuildOptions) -> io::Result<Csr> {
    let mut bytes = 0u64;
    let count =
        |line: &io::Result<String>| bytes += line.as_ref().map_or(0, |l| l.len() as u64 + 1);
    let mut lines = reader.lines().inspect(count);
    let header = loop {
        match lines.next() {
            Some(line) => {
                let line = line?;
                if line.starts_with("%%MatrixMarket") {
                    break line;
                }
                if !line.trim().is_empty() {
                    return Err(invalid("missing %%MatrixMarket header"));
                }
            }
            None => return Err(invalid("empty file")),
        }
    };
    let header_lc = header.to_lowercase();
    if !header_lc.contains("coordinate") {
        return Err(invalid(
            "only coordinate (sparse) Matrix Market files are supported",
        ));
    }
    let symmetric = header_lc.contains("symmetric");

    // Size line: first non-comment line.
    let mut size_line = String::new();
    for line in lines.by_ref() {
        let line = line?;
        let t = line.trim();
        if t.is_empty() || t.starts_with('%') {
            continue;
        }
        size_line = t.to_string();
        break;
    }
    let mut it = size_line.split_whitespace();
    let parse = |s: Option<&str>| -> io::Result<usize> {
        s.and_then(|x| x.parse().ok())
            .ok_or_else(|| invalid("malformed size line"))
    };
    let rows = parse(it.next())?;
    let cols = parse(it.next())?;
    let nnz = parse(it.next())?;
    let n = rows.max(cols);
    if n > u32::MAX as usize {
        return Err(invalid("dimension exceeds u32 range"));
    }

    // `nnz` is the file's claim: checked against the entries read, never
    // used to size anything.
    let mut b = CsrBuilder::new(n.max(1));
    let mut seen = 0usize;
    for line in lines {
        let line = line?;
        let t = line.trim();
        if t.is_empty() || t.starts_with('%') {
            continue;
        }
        let mut it = t.split_whitespace();
        let u: u64 = it
            .next()
            .and_then(|x| x.parse().ok())
            .ok_or_else(|| invalid("bad entry row"))?;
        let v: u64 = it
            .next()
            .and_then(|x| x.parse().ok())
            .ok_or_else(|| invalid("bad entry col"))?;
        if u == 0 || v == 0 || u as usize > n || v as usize > n {
            return Err(invalid(format!("entry ({u}, {v}) outside 1..={n}")));
        }
        let (u, v) = ((u - 1) as VertexId, (v - 1) as VertexId);
        b.add_edge(u, v);
        if symmetric && u != v {
            b.add_edge(v, u);
        }
        seen += 1;
    }
    if seen != nnz {
        return Err(invalid(format!("expected {nnz} entries, found {seen}")));
    }
    check_vertex_count(n, bytes)?;
    Ok(b.build(opts))
}

const BIN_MAGIC: u32 = 0x5842_4653; // "XBFS"
const BIN_VERSION: u32 = 1;

/// Serialize a CSR in the compact binary cache format.
pub fn write_binary<W: Write>(g: &Csr, mut w: W) -> io::Result<()> {
    w.write_all(&BIN_MAGIC.to_le_bytes())?;
    w.write_all(&BIN_VERSION.to_le_bytes())?;
    w.write_all(&(g.num_vertices() as u64).to_le_bytes())?;
    w.write_all(&(g.num_edges() as u64).to_le_bytes())?;
    let mut buf = Vec::with_capacity(8 * g.offsets().len());
    for o in g.offsets() {
        buf.extend_from_slice(&o.to_le_bytes());
    }
    w.write_all(&buf)?;
    buf.clear();
    buf.reserve(4 * g.num_edges());
    for v in g.adjacency() {
        buf.extend_from_slice(&v.to_le_bytes());
    }
    w.write_all(&buf)
}

/// Exactly `len` bytes from `r`, or `InvalidData`. The buffer grows with
/// the bytes that actually arrive, never with what a header claimed.
fn read_exactly<R: Read>(r: &mut R, len: u64) -> io::Result<Vec<u8>> {
    let mut raw = Vec::new();
    r.take(len).read_to_end(&mut raw)?;
    if raw.len() as u64 != len {
        return Err(invalid("file is shorter than its header claims"));
    }
    Ok(raw)
}

/// Deserialize a CSR from the binary cache format, validating all
/// structural invariants. The header's counts are untrusted: sizes are
/// computed with checked arithmetic, memory is bounded by the bytes
/// present, and a short or over-long file is `InvalidData`.
pub fn read_binary<R: Read>(mut r: R) -> io::Result<Csr> {
    let mut header = [0u8; 24];
    r.read_exact(&mut header)?;
    let u32_at = |at: usize| u32::from_le_bytes(header[at..at + 4].try_into().expect("4 bytes"));
    let u64_at = |at: usize| u64::from_le_bytes(header[at..at + 8].try_into().expect("8 bytes"));
    if u32_at(0) != BIN_MAGIC {
        return Err(invalid("bad magic"));
    }
    if u32_at(4) != BIN_VERSION {
        return Err(invalid("bad version"));
    }
    let offsets_len = u64_at(8).checked_add(1).and_then(|n| n.checked_mul(8));
    let adjacency_len = u64_at(16).checked_mul(4);
    let (Some(offsets_len), Some(adjacency_len)) = (offsets_len, adjacency_len) else {
        return Err(invalid("header counts overflow"));
    };
    let offsets: Vec<u64> = read_exactly(&mut r, offsets_len)?
        .chunks_exact(8)
        .map(|c| u64::from_le_bytes(c.try_into().expect("8 bytes")))
        .collect();
    let adjacency: Vec<VertexId> = read_exactly(&mut r, adjacency_len)?
        .chunks_exact(4)
        .map(|c| u32::from_le_bytes(c.try_into().expect("4 bytes")))
        .collect();
    if r.read(&mut [0u8; 1])? != 0 {
        return Err(invalid("file is longer than its header claims"));
    }
    Csr::from_parts(offsets, adjacency).ok_or_else(|| invalid("corrupt CSR"))
}

/// Write the binary format to a file.
pub fn write_binary_file(g: &Csr, path: &Path) -> io::Result<()> {
    write_binary(g, BufWriter::new(File::create(path)?))
}

/// Read the binary format from a file.
pub fn read_binary_file(path: &Path) -> io::Result<Csr> {
    read_binary(BufReader::new(File::open(path)?))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators::erdos_renyi;
    use std::io::Cursor;

    #[test]
    fn edge_list_round_trip() {
        let g = erdos_renyi(64, 200, 1);
        let mut buf = Vec::new();
        write_edge_list(&g, &mut buf).unwrap();
        // Already symmetric & deduped, so raw rebuild matches.
        let g2 = read_edge_list(Cursor::new(buf), BuildOptions::raw()).unwrap();
        assert_eq!(g, g2);
    }

    #[test]
    fn edge_list_parses_comments_and_blanks() {
        let text = "# snap header\n\n0 1\n1 2\n% matrix market comment\n2 0\n";
        let g = read_edge_list(Cursor::new(text), BuildOptions::default()).unwrap();
        assert_eq!(g.num_vertices(), 3);
        assert_eq!(g.num_edges(), 6);
    }

    #[test]
    fn edge_list_rejects_garbage() {
        let text = "0 x\n";
        assert!(read_edge_list(Cursor::new(text), BuildOptions::default()).is_err());
        let text = "0\n";
        assert!(read_edge_list(Cursor::new(text), BuildOptions::default()).is_err());
    }

    #[test]
    fn binary_round_trip() {
        let g = erdos_renyi(100, 400, 2);
        let mut buf = Vec::new();
        write_binary(&g, &mut buf).unwrap();
        let g2 = read_binary(Cursor::new(buf)).unwrap();
        assert_eq!(g, g2);
    }

    #[test]
    fn binary_rejects_corruption() {
        let g = erdos_renyi(50, 100, 3);
        let mut buf = Vec::new();
        write_binary(&g, &mut buf).unwrap();
        buf[0] ^= 0xFF; // break magic
        assert!(read_binary(Cursor::new(&buf)).is_err());

        let mut buf2 = Vec::new();
        write_binary(&g, &mut buf2).unwrap();
        let last = buf2.len() - 1;
        buf2.truncate(last); // truncate payload
        assert!(read_binary(Cursor::new(&buf2)).is_err());
    }

    #[test]
    fn matrix_market_general_and_symmetric() {
        let general = "%%MatrixMarket matrix coordinate real general\n\
                       % comment\n\
                       3 3 3\n\
                       1 2 1.5\n\
                       2 3 2.0\n\
                       3 1 0.5\n";
        let g = read_matrix_market(Cursor::new(general), BuildOptions::raw()).unwrap();
        assert_eq!(g.num_vertices(), 3);
        assert_eq!(g.num_edges(), 3);
        assert_eq!(g.neighbors(0), &[1]);

        let symmetric = "%%MatrixMarket matrix coordinate pattern symmetric\n\
                         3 3 2\n\
                         2 1\n\
                         3 2\n";
        let g = read_matrix_market(Cursor::new(symmetric), BuildOptions::raw()).unwrap();
        assert_eq!(g.num_edges(), 4); // both directions materialized
        assert!(g.is_symmetric());
    }

    #[test]
    fn matrix_market_rejects_malformed() {
        let missing_header = "3 3 1\n1 2\n";
        assert!(read_matrix_market(Cursor::new(missing_header), BuildOptions::raw()).is_err());
        for claimed in ["5", "1099511627776", "18446744073709551615"] {
            let wrong_count =
                format!("%%MatrixMarket matrix coordinate pattern symmetric\n2 2 {claimed}\n1 2\n");
            assert!(read_matrix_market(Cursor::new(wrong_count), BuildOptions::raw()).is_err());
        }
        let oob = "%%MatrixMarket matrix coordinate pattern general\n2 2 1\n1 9\n";
        assert!(read_matrix_market(Cursor::new(oob), BuildOptions::raw()).is_err());
        let dense = "%%MatrixMarket matrix array real general\n2 2\n1.0\n";
        assert!(read_matrix_market(Cursor::new(dense), BuildOptions::raw()).is_err());
    }

    /// A text file cannot talk a loader into more than 8 vertices per byte
    /// it holds: one short line naming a large id is refused, typed, before
    /// the builder sizes anything from it.
    #[test]
    fn text_loaders_bound_vertices_by_bytes_read() {
        let mtx = "%%MatrixMarket matrix coordinate pattern general\n2000000 2000000 1\n1 2\n";
        for refused in [
            read_edge_list(Cursor::new("0 2000000\n"), BuildOptions::raw()),
            read_matrix_market(Cursor::new(mtx), BuildOptions::raw()),
            read_edge_list(Cursor::new("0 40\n"), BuildOptions::raw()),
        ] {
            assert_eq!(refused.unwrap_err().kind(), io::ErrorKind::InvalidData);
        }
        // At the bound itself a file still loads: 5 bytes hold 40 vertices.
        let g = read_edge_list(Cursor::new("0 39\n"), BuildOptions::raw()).unwrap();
        assert_eq!(g.num_vertices(), 40);
    }

    #[test]
    fn empty_graph_round_trips() {
        let g = Csr::from_parts(vec![0], vec![]).unwrap();
        let mut buf = Vec::new();
        write_binary(&g, &mut buf).unwrap();
        assert_eq!(read_binary(Cursor::new(buf)).unwrap(), g);
    }
}
