//! Edge-list IO: text (SNAP/KONECT style) and a compact binary format.
//!
//! The paper's datasets ship as edge lists (SNAP, KONECT, WebGraph exports);
//! this module lets users load their own graphs into the framework and lets
//! the generators persist graphs for reuse across benchmark runs.
//!
//! Text format: one `src dst [weight]` triple per line, whitespace-separated,
//! `#`/`%`-prefixed comment lines ignored (SNAP uses `#`, KONECT uses `%`).
//!
//! Binary format (`.beg`): little-endian
//! `magic:u64 "ASCETIC1" | flags:u64 (bit0 = weighted) | num_vertices:u64 |
//! num_edges:u64 | offsets:[u64; V+1] | targets:[u32; E] | weights:[u32; E]?`

use std::io::{self, BufRead, BufReader, BufWriter, Read, Write};
use std::path::Path;

use crate::builder::GraphBuilder;
use crate::csr::Csr;
use crate::types::{VertexId, Weight};

const MAGIC: u64 = u64::from_le_bytes(*b"ASCETIC1");

/// Errors raised by graph IO.
#[derive(Debug)]
pub enum IoError {
    /// Underlying IO failure.
    Io(io::Error),
    /// Structural problem in the input data.
    Parse(String),
}

impl From<io::Error> for IoError {
    fn from(e: io::Error) -> Self {
        IoError::Io(e)
    }
}

impl std::fmt::Display for IoError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            IoError::Io(e) => write!(f, "io error: {e}"),
            IoError::Parse(m) => write!(f, "parse error: {m}"),
        }
    }
}

impl std::error::Error for IoError {}

/// Parse a text edge list from `r`. `num_vertices` of `None` means
/// "max id + 1". Returns the builder so callers can choose symmetrization
/// etc. before building.
pub fn read_text_edges<R: Read>(
    r: R,
    num_vertices: Option<usize>,
) -> Result<GraphBuilder, IoError> {
    let reader = BufReader::new(r);
    let mut edges: Vec<(VertexId, VertexId, Option<Weight>)> = Vec::new();
    let mut max_id: u64 = 0;
    for (lineno, line) in reader.lines().enumerate() {
        let line = line?;
        let t = line.trim();
        if t.is_empty() || t.starts_with('#') || t.starts_with('%') {
            continue;
        }
        let mut it = t.split_whitespace();
        let s: u64 = it
            .next()
            .unwrap()
            .parse()
            .map_err(|_| IoError::Parse(format!("line {}: bad src", lineno + 1)))?;
        let d: u64 = it
            .next()
            .ok_or_else(|| IoError::Parse(format!("line {}: missing dst", lineno + 1)))?
            .parse()
            .map_err(|_| IoError::Parse(format!("line {}: bad dst", lineno + 1)))?;
        let w: Option<Weight> = match it.next() {
            None => None,
            Some(ws) => Some(
                ws.parse()
                    .map_err(|_| IoError::Parse(format!("line {}: bad weight", lineno + 1)))?,
            ),
        };
        max_id = max_id.max(s).max(d);
        if s > u32::MAX as u64 || d > u32::MAX as u64 {
            return Err(IoError::Parse(format!(
                "line {}: vertex id exceeds u32",
                lineno + 1
            )));
        }
        edges.push((s as VertexId, d as VertexId, w));
    }
    let n = match num_vertices {
        Some(n) => n,
        None => {
            if edges.is_empty() {
                0
            } else {
                max_id as usize + 1
            }
        }
    };
    if (max_id as usize) >= n && !edges.is_empty() {
        return Err(IoError::Parse(format!(
            "vertex id {max_id} out of declared range {n}"
        )));
    }
    let weighted = edges.iter().any(|e| e.2.is_some());
    if weighted && edges.iter().any(|e| e.2.is_none()) {
        return Err(IoError::Parse("mixed weighted and unweighted lines".into()));
    }
    let mut b = GraphBuilder::with_capacity(n, edges.len());
    for (s, d, w) in edges {
        match w {
            Some(w) => b.add_weighted_edge(s, d, w),
            None => b.add_edge(s, d),
        }
    }
    Ok(b)
}

/// Load a text edge list file; see [`read_text_edges`].
pub fn load_text<P: AsRef<Path>>(
    path: P,
    num_vertices: Option<usize>,
) -> Result<GraphBuilder, IoError> {
    read_text_edges(std::fs::File::open(path)?, num_vertices)
}

/// Write `g` as a text edge list. The text names no vertex count (a reader
/// takes one past the highest endpoint), so a graph whose top vertices have
/// no edges is an error, raised before anything is written.
pub fn write_text<W: Write>(g: &Csr, w: W) -> Result<(), IoError> {
    let n = g.num_vertices();
    let top_source = (0..n as VertexId).rev().find(|&v| g.degree(v) > 0);
    let top = g.targets().iter().copied().chain(top_source).max();
    let held = top.map_or(0, |v| v as usize + 1);
    if held != n {
        let why = format!("a text edge list holds {held} of {n} vertices; write .beg instead");
        return Err(io::Error::new(io::ErrorKind::InvalidInput, why).into());
    }
    let mut out = BufWriter::new(w);
    for v in 0..n as VertexId {
        for e in g.edge_range(v).map(|e| e as usize) {
            match g.weights() {
                Some(ws) => writeln!(out, "{v} {} {}", g.targets()[e], ws[e])?,
                None => writeln!(out, "{v} {}", g.targets()[e])?,
            }
        }
    }
    out.flush()?;
    Ok(())
}

fn write_u64<W: Write>(w: &mut W, v: u64) -> io::Result<()> {
    w.write_all(&v.to_le_bytes())
}

fn read_u64<R: Read>(r: &mut R) -> io::Result<u64> {
    let mut b = [0u8; 8];
    r.read_exact(&mut b)?;
    Ok(u64::from_le_bytes(b))
}

/// Serialize a CSR in the compact binary format.
pub fn write_binary<W: Write>(g: &Csr, w: W) -> Result<(), IoError> {
    let mut out = BufWriter::new(w);
    write_u64(&mut out, MAGIC)?;
    write_u64(&mut out, if g.is_weighted() { 1 } else { 0 })?;
    write_u64(&mut out, g.num_vertices() as u64)?;
    write_u64(&mut out, g.num_edges())?;
    for &o in g.offsets() {
        write_u64(&mut out, o)?;
    }
    for &t in g.targets() {
        out.write_all(&t.to_le_bytes())?;
    }
    if let Some(ws) = g.weights() {
        for &wt in ws {
            out.write_all(&wt.to_le_bytes())?;
        }
    }
    out.flush()?;
    Ok(())
}

/// Deserialize a CSR from the compact binary format.
pub fn read_binary<R: Read>(r: R) -> Result<Csr, IoError> {
    let mut inp = BufReader::new(r);
    if read_u64(&mut inp)? != MAGIC {
        return Err(IoError::Parse("bad magic".into()));
    }
    let flags = read_u64(&mut inp)?;
    let weighted = flags & 1 == 1;
    let n = read_u64(&mut inp)? as usize;
    let m = read_u64(&mut inp)? as usize;
    let mut offsets = Vec::with_capacity(n + 1);
    for _ in 0..=n {
        offsets.push(read_u64(&mut inp)?);
    }
    let mut targets = vec![0 as VertexId; m];
    let mut buf = vec![0u8; m * 4];
    inp.read_exact(&mut buf)?;
    for (i, c) in buf.chunks_exact(4).enumerate() {
        targets[i] = u32::from_le_bytes(c.try_into().unwrap());
    }
    let weights = if weighted {
        let mut ws = vec![0 as Weight; m];
        inp.read_exact(&mut buf)?;
        for (i, c) in buf.chunks_exact(4).enumerate() {
            ws[i] = u32::from_le_bytes(c.try_into().unwrap());
        }
        Some(ws)
    } else {
        None
    };
    Csr::try_from_parts(offsets, targets, weights)
        .map_err(|e| IoError::Parse(format!("corrupt CSR structure: {e}")))
}

/// Save a CSR to `path` in the binary format.
pub fn save_binary<P: AsRef<Path>>(g: &Csr, path: P) -> Result<(), IoError> {
    write_binary(g, std::fs::File::create(path)?)
}

/// Load a CSR from `path` in the binary format.
pub fn load_binary<P: AsRef<Path>>(path: P) -> Result<Csr, IoError> {
    read_binary(std::fs::File::open(path)?)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Csr {
        let mut b = GraphBuilder::new(4).sort_neighbors(true);
        b.add_edge(0, 1);
        b.add_edge(0, 3);
        b.add_edge(2, 1);
        b.add_edge(3, 0);
        b.build()
    }

    #[test]
    fn text_roundtrip_unweighted() {
        let g = sample();
        let mut buf = Vec::new();
        write_text(&g, &mut buf).unwrap();
        let g2 = read_text_edges(&buf[..], None)
            .unwrap()
            .sort_neighbors(true)
            .build();
        assert_eq!(g, g2);
    }

    #[test]
    fn text_roundtrip_weighted() {
        let g = sample().with_weights_from(|_, e| e as Weight + 1);
        let mut buf = Vec::new();
        write_text(&g, &mut buf).unwrap();
        let g2 = read_text_edges(&buf[..], None)
            .unwrap()
            .sort_neighbors(true)
            .build();
        assert_eq!(g, g2);
    }

    #[test]
    fn text_refuses_a_graph_whose_top_vertices_have_no_edges() {
        // vertex 4 is isolated: the text would read back as 4 vertices
        let mut b = GraphBuilder::new(5);
        b.add_edge(0, 3);
        let mut buf = Vec::new();
        let err = write_text(&b.build(), &mut buf).unwrap_err();
        assert!(err.to_string().contains("holds 4 of 5 vertices"), "{err}");
        assert!(buf.is_empty(), "nothing is written");
        // no edges at all: only the empty graph fits
        assert!(write_text(&Csr::empty(2), &mut buf).is_err());
        write_text(&Csr::empty(0), &mut buf).unwrap();
        assert!(buf.is_empty());
    }

    #[test]
    fn text_skips_comments_and_blank_lines() {
        let text = "# SNAP comment\n% KONECT comment\n\n0 1\n1 2\n";
        let g = read_text_edges(text.as_bytes(), None).unwrap().build();
        assert_eq!(g.num_vertices(), 3);
        assert_eq!(g.num_edges(), 2);
    }

    #[test]
    fn text_infers_vertex_count() {
        let g = read_text_edges("0 9\n".as_bytes(), None).unwrap().build();
        assert_eq!(g.num_vertices(), 10);
    }

    #[test]
    fn text_rejects_garbage() {
        assert!(matches!(
            read_text_edges("a b\n".as_bytes(), None),
            Err(IoError::Parse(_))
        ));
        assert!(matches!(
            read_text_edges("1\n".as_bytes(), None),
            Err(IoError::Parse(_))
        ));
        assert!(matches!(
            read_text_edges("0 1 x\n".as_bytes(), None),
            Err(IoError::Parse(_))
        ));
    }

    #[test]
    fn text_rejects_mixed_weights() {
        let r = read_text_edges("0 1 5\n1 2\n".as_bytes(), None);
        assert!(matches!(r, Err(IoError::Parse(_))));
    }

    #[test]
    fn text_rejects_out_of_range() {
        let r = read_text_edges("0 7\n".as_bytes(), Some(3));
        assert!(matches!(r, Err(IoError::Parse(_))));
    }

    #[test]
    fn binary_roundtrip_unweighted() {
        let g = sample();
        let mut buf = Vec::new();
        write_binary(&g, &mut buf).unwrap();
        let g2 = read_binary(&buf[..]).unwrap();
        assert_eq!(g, g2);
    }

    #[test]
    fn binary_roundtrip_weighted() {
        let g = sample().with_weights_from(|v, _| v + 100);
        let mut buf = Vec::new();
        write_binary(&g, &mut buf).unwrap();
        let g2 = read_binary(&buf[..]).unwrap();
        assert_eq!(g, g2);
    }

    #[test]
    fn binary_rejects_bad_magic() {
        let buf = [0u8; 64];
        assert!(matches!(read_binary(&buf[..]), Err(IoError::Parse(_))));
    }

    #[test]
    fn binary_rejects_truncation() {
        let g = sample();
        let mut buf = Vec::new();
        write_binary(&g, &mut buf).unwrap();
        buf.truncate(buf.len() - 3);
        assert!(matches!(read_binary(&buf[..]), Err(IoError::Io(_))));
    }

    #[test]
    fn empty_graph_roundtrips() {
        let g = Csr::empty(0);
        let mut buf = Vec::new();
        write_binary(&g, &mut buf).unwrap();
        let g2 = read_binary(&buf[..]).unwrap();
        assert_eq!(g, g2);
    }
}
