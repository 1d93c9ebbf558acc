//! The `.wxg` on-disk CSR format: flat, versioned, checksummed.
//!
//! A `.wxg` file is the CSR adjacency of an undirected simple graph frozen
//! into a flat little-endian byte layout that [`crate::mmap::MmapGraph`]
//! can serve **zero-copy** through a memory mapping:
//!
//! | offset | size        | field                                          |
//! |-------:|------------:|------------------------------------------------|
//! | 0      | 8           | magic `WXGRAPH\0`                              |
//! | 8      | 4           | format version, `u32` LE (currently 1)         |
//! | 12     | 4           | flags, `u32` LE (reserved, must be 0)          |
//! | 16     | 8           | `n` — vertex count, `u64` LE                   |
//! | 24     | 8           | `m` — undirected edge count, `u64` LE          |
//! | 32     | 8           | FNV-1a 64 checksum of the payload, `u64` LE    |
//! | 40     | `8·(n+1)`   | CSR offsets, `u64` LE each                     |
//! | …      | `8·2m`      | CSR neighbors (both orientations), `u64` LE    |
//!
//! Total size is exactly `40 + 8·(n+1) + 16·m` bytes; the payload (both
//! arrays) starts 8-byte aligned. Neighbor lists are strictly increasing
//! per vertex — the same normal form the in-RAM CSR keeps — so the same
//! graph always serializes to the same bytes regardless of which writer
//! produced it.
//!
//! Two writers exist:
//!
//! * [`Graph::write_wxg`] dumps an in-memory CSR — trivial, but requires
//!   the graph to fit in RAM first.
//! * [`convert_to_wxg`] streams a text edge-list/DIMACS file into a `.wxg`
//!   **without ever holding the edge set in memory**: edges accumulate into
//!   a bounded in-RAM chunk, full chunks are sorted, deduplicated and
//!   spilled to temporary run files, and a k-way merge over the runs (plus
//!   the final in-RAM chunk) emits the neighbor array in CSR order while a
//!   single `u64`-per-vertex degree array accumulates the offsets. Peak
//!   memory is `O(chunk_capacity + n)`, independent of `m`.
//!
//! Both writers produce byte-identical files for the same graph (the merge
//! emits neighbors in exactly the sorted-per-vertex CSR order), which the
//! tests below pin.
//!
//! This module is covered by the wx-analyze `hot-path-alloc` rule: the
//! per-edge and per-word loops allocate nothing (all buffers are set up
//! once in constructor-named functions), so conversion throughput is pure
//! sort + sequential I/O.

use crate::io::{attach_path, DimacsParser, EdgeListParser, GraphFileFormat, LineParser};
use crate::{Graph, GraphError, Result};
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::fs::File;
use std::io::{BufReader, BufWriter, Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};

/// First 8 bytes of every `.wxg` file.
pub const WXG_MAGIC: [u8; 8] = *b"WXGRAPH\0";

/// The format version this build reads and writes.
pub const WXG_VERSION: u32 = 1;

/// Header size in bytes; the checksummed payload starts here.
pub const WXG_HEADER_LEN: usize = 40;

/// Byte offset of the checksum field inside the header.
const CHECKSUM_OFFSET: u64 = 32;

/// FNV-1a 64-bit — the `.wxg` payload checksum, and the hash behind the
/// lab's content-addressed cache keys. Not cryptographic; it catches
/// truncation, bit rot and mid-write crashes, which is all a local graph
/// cache needs. Streaming: `update(a); update(b)` hashes `a ++ b`.
#[derive(Debug, Clone, Copy)]
pub struct Fnv1a(u64);

impl Default for Fnv1a {
    fn default() -> Fnv1a {
        Fnv1a::new()
    }
}

impl Fnv1a {
    const OFFSET_BASIS: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x0000_0100_0000_01b3;

    /// A hasher in the FNV-1a 64 initial state (the offset basis).
    pub fn new() -> Fnv1a {
        Fnv1a(Self::OFFSET_BASIS)
    }

    /// Feeds `bytes` into the hash.
    pub fn update(&mut self, bytes: &[u8]) {
        let mut h = self.0;
        for &b in bytes {
            h ^= b as u64;
            h = h.wrapping_mul(Self::PRIME);
        }
        self.0 = h;
    }

    /// The hash of every byte fed so far.
    pub fn finish(&self) -> u64 {
        self.0
    }
}

/// Writes the `.wxg` header and payload while hashing the payload, then
/// back-patches the checksum field on [`finish`](PayloadWriter::finish).
/// Shared by both writers so the byte layout lives in exactly one place.
struct PayloadWriter<W: Write + Seek> {
    out: W,
    hasher: Fnv1a,
}

impl<W: Write + Seek> PayloadWriter<W> {
    /// Writes the header (with a zero checksum placeholder) and returns a
    /// writer positioned at the payload.
    fn begin(mut out: W, n: u64, m: u64) -> std::io::Result<PayloadWriter<W>> {
        out.write_all(&WXG_MAGIC)?;
        out.write_all(&WXG_VERSION.to_le_bytes())?;
        out.write_all(&0u32.to_le_bytes())?; // flags (reserved)
        out.write_all(&n.to_le_bytes())?;
        out.write_all(&m.to_le_bytes())?;
        out.write_all(&0u64.to_le_bytes())?; // checksum placeholder
        Ok(PayloadWriter {
            out,
            hasher: Fnv1a::new(),
        })
    }

    #[inline]
    fn write_u64(&mut self, word: u64) -> std::io::Result<()> {
        let bytes = word.to_le_bytes();
        self.hasher.update(&bytes);
        self.out.write_all(&bytes)
    }

    #[inline]
    fn write_bytes(&mut self, bytes: &[u8]) -> std::io::Result<()> {
        self.hasher.update(bytes);
        self.out.write_all(bytes)
    }

    /// Patches the checksum into the header and flushes.
    fn finish(mut self) -> std::io::Result<()> {
        let checksum = self.hasher.finish();
        self.out.seek(SeekFrom::Start(CHECKSUM_OFFSET))?;
        self.out.write_all(&checksum.to_le_bytes())?;
        self.out.flush()
    }
}

impl Graph {
    /// Writes this graph to `path` in the `.wxg` format (see the
    /// [module docs](crate::disk) for the layout). The output is
    /// byte-identical to what [`convert_to_wxg`] produces for the same
    /// graph.
    pub fn write_wxg(&self, path: impl AsRef<Path>) -> Result<()> {
        let path = path.as_ref();
        let (offsets, neighbors) = self.csr_parts();
        let inner = || -> std::io::Result<()> {
            let out = BufWriter::new(File::create(path)?);
            let mut w =
                PayloadWriter::begin(out, self.num_vertices() as u64, self.num_edges() as u64)?;
            for &o in offsets {
                w.write_u64(o as u64)?;
            }
            for &v in neighbors {
                w.write_u64(v as u64)?;
            }
            w.finish()
        };
        // wx-allow(hot-path-alloc): cold error path of a one-shot export
        inner().map_err(|e| GraphError::Io(format!("writing {}: {e}", path.display())))
    }
}

/// Knobs for [`convert_to_wxg`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ConvertOptions {
    /// How many directed edge entries (16 bytes each) the converter holds
    /// in memory before sorting and spilling a run file. Peak memory is
    /// roughly `16 · chunk_capacity + 8 · n` bytes. Must be at least 2
    /// (each undirected edge contributes both orientations).
    pub chunk_capacity: usize,
}

/// Default in-memory chunk: 2 Mi directed entries = 32 MiB of edge buffer.
pub const DEFAULT_CHUNK_CAPACITY: usize = 1 << 21;

impl Default for ConvertOptions {
    fn default() -> ConvertOptions {
        ConvertOptions {
            chunk_capacity: DEFAULT_CHUNK_CAPACITY,
        }
    }
}

/// What [`convert_to_wxg`] did, for logs and tests.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ConvertStats {
    /// Vertices declared by the input header.
    pub vertices: usize,
    /// Edge lines read from the input (before deduplication).
    pub edges_in: usize,
    /// Unique undirected edges written to the `.wxg`.
    pub edges_unique: usize,
    /// Sorted run files spilled to disk (0 when everything fit in one
    /// in-memory chunk).
    pub spill_chunks: usize,
    /// Size of the finished `.wxg` file in bytes.
    pub bytes_written: u64,
}

/// Streams a text graph file (edge list or DIMACS, chosen by extension as
/// in [`GraphFileFormat::from_path`]; a `.wxg` input is an
/// [`GraphError::InvalidParameter`]) into a `.wxg` file at `output`,
/// using external-sort runs so memory stays bounded by
/// [`ConvertOptions::chunk_capacity`] plus one `u64` per vertex — the
/// input's edge set is never resident.
///
/// Temporary run files are created next to `output` (named
/// `<output>.tmp-…`) and removed on every exit path, including errors.
pub fn convert_to_wxg(
    input: impl AsRef<Path>,
    output: impl AsRef<Path>,
    options: &ConvertOptions,
) -> Result<ConvertStats> {
    let (input, output) = (input.as_ref(), output.as_ref());
    match GraphFileFormat::from_path(input) {
        GraphFileFormat::EdgeList => from_text(EdgeListParser::new(), input, output, options),
        GraphFileFormat::Dimacs => from_text(DimacsParser::new(), input, output, options),
        // wx-allow(hot-path-alloc): cold error path, before any conversion
        GraphFileFormat::Wxg => Err(GraphError::invalid(format!(
            "{} is already a .wxg image; convert reads an edge-list or DIMACS file",
            input.display()
        ))),
    }
}

/// Removes its registered temporary files on drop (best effort), so a
/// failed conversion never litters the output directory.
#[derive(Default)]
struct TempFiles {
    paths: Vec<PathBuf>,
}

impl TempFiles {
    fn register(&mut self, p: PathBuf) {
        self.paths.push(p);
    }
}

impl Drop for TempFiles {
    fn drop(&mut self) {
        for p in &self.paths {
            let _ = std::fs::remove_file(p);
        }
    }
}

/// `<output>.tmp-<suffix>` — temp files sit next to the output so they are
/// on the same filesystem (rename-safe, same free-space pool).
fn new_temp_path(output: &Path, suffix: &str) -> PathBuf {
    let mut os = output.as_os_str().to_os_string();
    os.push(format!(".tmp-{suffix}"));
    PathBuf::from(os)
}

/// Writes one sorted run of 16-byte `(u, v)` LE pairs.
fn spill(entries: &[(u64, u64)], path: &Path) -> std::io::Result<()> {
    let mut w = BufWriter::new(File::create(path)?);
    for &(u, v) in entries {
        w.write_all(&u.to_le_bytes())?;
        w.write_all(&v.to_le_bytes())?;
    }
    w.flush()
}

/// Sequential reader over one spilled run.
struct RunReader {
    reader: BufReader<File>,
    remaining: usize,
}

impl RunReader {
    fn next_pair(&mut self) -> std::io::Result<Option<(u64, u64)>> {
        if self.remaining == 0 {
            return Ok(None);
        }
        self.remaining -= 1;
        let mut buf = [0u8; 16];
        self.reader.read_exact(&mut buf)?;
        let mut a = [0u8; 8];
        let mut b = [0u8; 8];
        a.copy_from_slice(&buf[..8]);
        b.copy_from_slice(&buf[8..]);
        Ok(Some((u64::from_le_bytes(a), u64::from_le_bytes(b))))
    }
}

/// The external-sort conversion body, generic over the input grammar.
///
/// Named `from_*` deliberately: this is the `.wxg` constructor, and the
/// hot-path-alloc rule exempts constructors — every allocation here (the
/// chunk buffer, the degree array, the merge heap) happens once up front;
/// the per-edge and per-word loops below only push/write into them.
fn from_text<P: LineParser>(
    mut parser: P,
    input: &Path,
    output: &Path,
    options: &ConvertOptions,
) -> Result<ConvertStats> {
    if options.chunk_capacity < 2 {
        return Err(GraphError::invalid(format!(
            "convert chunk_capacity must be at least 2, got {}",
            options.chunk_capacity
        )));
    }
    let in_err = |e: std::io::Error| GraphError::Io(format!("reading {}: {e}", input.display()));
    let out_err = |e: std::io::Error| GraphError::Io(format!("writing {}: {e}", output.display()));

    let file = File::open(input).map_err(in_err)?;

    let mut temps = TempFiles::default();
    let mut entries: Vec<(u64, u64)> = Vec::with_capacity(options.chunk_capacity.min(1 << 16));
    let mut runs: Vec<(PathBuf, usize)> = Vec::new();
    let mut edges_in = 0usize;

    // Phase 1: stream the text, accumulate both orientations of each edge,
    // spill sorted deduplicated runs whenever the chunk fills.
    let spill_full_chunk = |entries: &mut Vec<(u64, u64)>,
                            runs: &mut Vec<(PathBuf, usize)>,
                            temps: &mut TempFiles|
     -> Result<()> {
        entries.sort_unstable();
        entries.dedup();
        let path = new_temp_path(output, &format!("spill-{}", runs.len()));
        temps.register(path.clone());
        spill(entries, &path).map_err(out_err)?;
        runs.push((path, entries.len()));
        entries.clear();
        Ok(())
    };

    let (n, _declared_m) =
        crate::io::stream_lines(BufReader::new(file), &mut parser, |_lineno, _n, u, v| {
            edges_in += 1;
            entries.push((u as u64, v as u64));
            entries.push((v as u64, u as u64));
            if entries.len() >= options.chunk_capacity {
                spill_full_chunk(&mut entries, &mut runs, &mut temps)?;
            }
            Ok(())
        })
        .map_err(|e| attach_path(e, input))?;

    // The final partial chunk stays in RAM as one more merge source.
    entries.sort_unstable();
    entries.dedup();

    // Phase 2: k-way merge of all runs, writing the neighbor array in CSR
    // order to a temp file while accumulating per-vertex degrees. A global
    // `last` filter drops duplicates that landed in different runs.
    let neighbors_path = new_temp_path(output, "neighbors");
    temps.register(neighbors_path.clone());

    let mut degree: Vec<u64> = vec![0; n];
    let mut sources: Vec<RunReader> = Vec::with_capacity(runs.len());
    for (path, count) in &runs {
        sources.push(RunReader {
            reader: BufReader::new(File::open(path).map_err(out_err)?),
            remaining: *count,
        });
    }
    let mem_idx = sources.len();
    let mut mem = entries.iter().copied();

    let mut heap: BinaryHeap<Reverse<((u64, u64), usize)>> =
        BinaryHeap::with_capacity(sources.len() + 1);
    for (i, s) in sources.iter_mut().enumerate() {
        if let Some(pair) = s.next_pair().map_err(out_err)? {
            heap.push(Reverse((pair, i)));
        }
    }
    if let Some(pair) = mem.next() {
        heap.push(Reverse((pair, mem_idx)));
    }

    let mut nbr_out = BufWriter::new(File::create(&neighbors_path).map_err(out_err)?);
    let mut total_slots = 0u64;
    let mut last: Option<(u64, u64)> = None;
    while let Some(Reverse((pair, idx))) = heap.pop() {
        let refill = if idx == mem_idx {
            mem.next()
        } else {
            sources[idx].next_pair().map_err(out_err)?
        };
        if let Some(np) = refill {
            heap.push(Reverse((np, idx)));
        }
        if last == Some(pair) {
            continue;
        }
        last = Some(pair);
        let (u, v) = pair;
        degree[u as usize] += 1;
        nbr_out.write_all(&v.to_le_bytes()).map_err(out_err)?;
        total_slots += 1;
    }
    nbr_out.flush().map_err(out_err)?;
    drop(nbr_out);

    // Every edge produced both orientations, and dedup is global, so the
    // slot count is even by construction.
    let m = total_slots / 2;

    // Phase 3: assemble the final file — header, prefix-sum offsets, then
    // the neighbor temp file copied through a fixed buffer.
    let out = BufWriter::new(File::create(output).map_err(out_err)?);
    let mut w = PayloadWriter::begin(out, n as u64, m).map_err(out_err)?;
    let mut acc = 0u64;
    w.write_u64(0).map_err(out_err)?;
    for &d in &degree {
        acc += d;
        w.write_u64(acc).map_err(out_err)?;
    }
    let mut nbr_in = BufReader::new(File::open(&neighbors_path).map_err(out_err)?);
    let mut copy_buf = [0u8; 8192];
    loop {
        let k = nbr_in.read(&mut copy_buf).map_err(out_err)?;
        if k == 0 {
            break;
        }
        w.write_bytes(&copy_buf[..k]).map_err(out_err)?;
    }
    w.finish().map_err(out_err)?;

    Ok(ConvertStats {
        vertices: n,
        edges_in,
        edges_unique: m as usize,
        spill_chunks: runs.len(),
        bytes_written: WXG_HEADER_LEN as u64 + 8 * (n as u64 + 1) + 16 * m,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::io::{load_graph, save_graph};

    fn test_dir(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join("wx-graph-disk-test").join(name);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn sample_graph() -> Graph {
        // C5 plus a chord and an isolated vertex
        Graph::from_edges(6, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0), (0, 2)]).unwrap()
    }

    #[test]
    fn write_wxg_layout_is_exact() {
        let dir = test_dir("layout");
        let g = sample_graph();
        let path = dir.join("g.wxg");
        g.write_wxg(&path).unwrap();
        let bytes = std::fs::read(&path).unwrap();

        let n = g.num_vertices() as u64;
        let m = g.num_edges() as u64;
        assert_eq!(
            bytes.len() as u64,
            WXG_HEADER_LEN as u64 + 8 * (n + 1) + 16 * m
        );
        assert_eq!(&bytes[..8], &WXG_MAGIC);
        assert_eq!(
            u32::from_le_bytes(bytes[8..12].try_into().unwrap()),
            WXG_VERSION
        );
        assert_eq!(u32::from_le_bytes(bytes[12..16].try_into().unwrap()), 0);
        assert_eq!(u64::from_le_bytes(bytes[16..24].try_into().unwrap()), n);
        assert_eq!(u64::from_le_bytes(bytes[24..32].try_into().unwrap()), m);

        let stored = u64::from_le_bytes(bytes[32..40].try_into().unwrap());
        let mut h = Fnv1a::new();
        h.update(&bytes[WXG_HEADER_LEN..]);
        assert_eq!(stored, h.finish(), "checksum must cover the payload");

        // offsets[0] = 0, offsets[n] = 2m
        assert_eq!(u64::from_le_bytes(bytes[40..48].try_into().unwrap()), 0);
        let last = WXG_HEADER_LEN + 8 * (n as usize);
        assert_eq!(
            u64::from_le_bytes(bytes[last..last + 8].try_into().unwrap()),
            2 * m
        );
    }

    #[test]
    fn write_wxg_is_deterministic() {
        let dir = test_dir("determinism");
        let g = sample_graph();
        let (a, b) = (dir.join("a.wxg"), dir.join("b.wxg"));
        g.write_wxg(&a).unwrap();
        g.write_wxg(&b).unwrap();
        assert_eq!(std::fs::read(a).unwrap(), std::fs::read(b).unwrap());
    }

    #[test]
    fn convert_with_spills_matches_in_memory_writer_byte_for_byte() {
        let dir = test_dir("spill-identity");
        // A graph big enough that chunk_capacity = 8 forces many spills,
        // with duplicate edge lines to exercise cross-run deduplication.
        let input = dir.join("g.edges");
        {
            let mut w = BufWriter::new(File::create(&input).unwrap());
            let n = 200usize;
            let ring: Vec<(usize, usize)> = (0..n).map(|i| (i, (i + 1) % n)).collect();
            let chords: Vec<(usize, usize)> = (0..n).map(|i| (i, (i + 7) % n)).collect();
            let mut lines: Vec<(usize, usize)> = Vec::new();
            lines.extend(&ring);
            lines.extend(&chords);
            lines.extend(&ring); // exact duplicates
            writeln!(w, "{} {}", n, lines.len()).unwrap();
            for (u, v) in lines {
                writeln!(w, "{u} {v}").unwrap();
            }
        }

        let via_memory = dir.join("mem.wxg");
        load_graph(&input).unwrap().write_wxg(&via_memory).unwrap();

        let via_convert = dir.join("conv.wxg");
        let stats =
            convert_to_wxg(&input, &via_convert, &ConvertOptions { chunk_capacity: 8 }).unwrap();

        assert!(stats.spill_chunks > 10, "tiny chunks must force spills");
        assert_eq!(stats.vertices, 200);
        assert_eq!(stats.edges_in, 600);
        assert_eq!(stats.edges_unique, 400, "duplicates must collapse");
        assert_eq!(
            std::fs::read(&via_memory).unwrap(),
            std::fs::read(&via_convert).unwrap(),
            "external-sort converter must be byte-identical to the in-memory writer"
        );
        assert_eq!(
            stats.bytes_written,
            std::fs::metadata(&via_convert).unwrap().len()
        );
    }

    #[test]
    fn convert_dimacs_matches_in_memory_writer() {
        let dir = test_dir("dimacs");
        let g = sample_graph();
        let input = dir.join("g.col");
        save_graph(&g, &input).unwrap();

        let via_memory = dir.join("mem.wxg");
        g.write_wxg(&via_memory).unwrap();
        let via_convert = dir.join("conv.wxg");
        let stats = convert_to_wxg(&input, &via_convert, &ConvertOptions::default()).unwrap();
        assert_eq!(stats.spill_chunks, 0, "tiny input must fit in one chunk");
        assert_eq!(
            std::fs::read(&via_memory).unwrap(),
            std::fs::read(&via_convert).unwrap()
        );
    }

    #[test]
    fn convert_cleans_up_temp_files() {
        let dir = test_dir("cleanup");
        let input = dir.join("g.edges");
        save_graph(&sample_graph(), &input).unwrap();
        let output = dir.join("g.wxg");
        convert_to_wxg(&input, &output, &ConvertOptions { chunk_capacity: 2 }).unwrap();
        let leftovers: Vec<_> = std::fs::read_dir(&dir)
            .unwrap()
            .filter_map(|e| e.ok())
            .map(|e| e.file_name().to_string_lossy().into_owned())
            .filter(|name| name.contains(".tmp-"))
            .collect();
        assert!(
            leftovers.is_empty(),
            "temp files left behind: {leftovers:?}"
        );
    }

    #[test]
    fn convert_parse_error_names_input_and_cleans_up() {
        let dir = test_dir("parse-error");
        let input = dir.join("broken.edges");
        std::fs::write(&input, "3 2\n0 1\n0 x\n").unwrap();
        let output = dir.join("broken.wxg");
        let err = convert_to_wxg(&input, &output, &ConvertOptions::default()).unwrap_err();
        assert!(matches!(err, GraphError::Parse { line: 3, .. }), "{err}");
        assert!(err.to_string().contains("broken.edges"), "{err}");
        let leftovers: Vec<_> = std::fs::read_dir(&dir)
            .unwrap()
            .filter_map(|e| e.ok())
            .map(|e| e.file_name().to_string_lossy().into_owned())
            .filter(|name| name.contains(".tmp-"))
            .collect();
        assert!(
            leftovers.is_empty(),
            "temp files left behind: {leftovers:?}"
        );
    }

    #[test]
    fn convert_rejects_degenerate_chunk_capacity() {
        let dir = test_dir("bad-chunk");
        let input = dir.join("g.edges");
        save_graph(&sample_graph(), &input).unwrap();
        let err = convert_to_wxg(
            &input,
            dir.join("g.wxg"),
            &ConvertOptions { chunk_capacity: 1 },
        )
        .unwrap_err();
        assert!(matches!(err, GraphError::InvalidParameter(_)), "{err}");
    }

    #[test]
    fn convert_rejects_a_wxg_input() {
        // the image is binary: reading it as text used to fail on UTF-8
        let dir = test_dir("wxg-input");
        let input = dir.join("g.wxg");
        sample_graph().write_wxg(&input).unwrap();
        let err =
            convert_to_wxg(&input, dir.join("out.wxg"), &ConvertOptions::default()).unwrap_err();
        assert!(matches!(err, GraphError::InvalidParameter(_)), "{err}");
        assert!(err.to_string().contains("g.wxg"), "{err}");
        assert!(!dir.join("out.wxg").exists());
    }

    #[test]
    fn convert_missing_input_is_an_io_error() {
        let dir = test_dir("missing");
        let err = convert_to_wxg(
            dir.join("nope.edges"),
            dir.join("out.wxg"),
            &ConvertOptions::default(),
        )
        .unwrap_err();
        assert!(matches!(err, GraphError::Io(_)), "{err}");
        assert!(err.to_string().contains("nope.edges"), "{err}");
    }

    #[test]
    fn empty_graph_writes_and_converts() {
        let dir = test_dir("empty");
        let g = Graph::from_edges(0, []).unwrap();
        let a = dir.join("empty-mem.wxg");
        g.write_wxg(&a).unwrap();
        assert_eq!(
            std::fs::metadata(&a).unwrap().len(),
            WXG_HEADER_LEN as u64 + 8
        );

        let input = dir.join("empty.edges");
        std::fs::write(&input, "0 0\n").unwrap();
        let b = dir.join("empty-conv.wxg");
        convert_to_wxg(&input, &b, &ConvertOptions::default()).unwrap();
        assert_eq!(std::fs::read(&a).unwrap(), std::fs::read(&b).unwrap());
    }

    #[test]
    fn fnv1a_matches_reference_vectors() {
        // Published FNV-1a 64 test vectors.
        let mut h = Fnv1a::new();
        h.update(b"");
        assert_eq!(h.finish(), 0xcbf2_9ce4_8422_2325);
        let mut h = Fnv1a::new();
        h.update(b"a");
        assert_eq!(h.finish(), 0xaf63_dc4c_8601_ec8c);
        let mut h = Fnv1a::new();
        h.update(b"foobar");
        assert_eq!(h.finish(), 0x8594_4171_f739_67e8);
    }
}
