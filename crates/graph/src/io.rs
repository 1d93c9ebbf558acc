//! Graph file I/O: plain edge lists, DIMACS and the `.wxg` image.
//!
//! A file's extension picks its format ([`GraphFileFormat::from_path`]).
//! [`load_graph`] / [`save_graph`] round-trip both text formats exactly
//! (write → read reproduces the original CSR graph, including isolated
//! vertices):
//!
//! * **Edge list** (any extension not named below): `#`/`%` comment
//!   lines, a mandatory `<n> <m>` header line, then one `u v` pair per line
//!   with 0-based vertex ids. Exactly `m` edge lines must follow the header.
//! * **DIMACS** (`.col`, `.dimacs`, `.clq`): the classic `c` (comment) /
//!   `p edge <n> <m>` (problem) / `e <u> <v>` (edge, 1-based) format used by
//!   graph-coloring and clique benchmarks.
//! * **`.wxg`**: the binary CSR image of [`crate::disk`], written by
//!   [`Graph::write_wxg`] and served zero-copy by
//!   [`MmapGraph`](crate::MmapGraph).
//!
//! Both text grammars are implemented as push-based line state machines
//! (`EdgeListParser` / `DimacsParser`): feed raw lines in order, get fully
//! validated 0-based edges out. One grammar implementation therefore serves
//! both consumers — the streaming [`load_graph`] (which reads through a
//! [`BufRead`] line by line into one reused buffer and never slurps the
//! file) and the bounded-memory `.wxg` converter in [`crate::disk`] — and
//! they reject exactly the same inputs with exactly the same errors.
//!
//! Malformed input never panics: every defect maps to a precise
//! [`GraphError`] variant — [`GraphError::Parse`] with the 1-based line
//! number for syntax problems, [`GraphError::VertexOutOfRange`] /
//! [`GraphError::SelfLoop`] (wrapped with the line number) for semantic
//! ones, and [`GraphError::Io`] for filesystem failures.
//!
//! Duplicate edges are collapsed (the underlying [`GraphBuilder`] dedupes at
//! build time) but the declared edge count must match the number of edge
//! *lines*, so truncated files are detected.

use crate::{Graph, GraphBuilder, GraphError, Result, Vertex};
use std::fmt::Write as _;
use std::io::BufRead;
use std::path::Path;

/// The on-disk graph formats, one per file extension.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum GraphFileFormat {
    /// `#` comments, `n m` header, `u v` edges (0-based).
    EdgeList,
    /// DIMACS `c` / `p edge` / `e` lines (1-based).
    Dimacs,
    /// The binary `.wxg` CSR image, served through
    /// [`MmapGraph`](crate::MmapGraph).
    Wxg,
}

impl GraphFileFormat {
    /// Picks a format from a file extension, ignoring case: `.col`,
    /// `.dimacs` and `.clq` mean DIMACS, `.wxg` is the CSR image, anything
    /// else (`.edges`, `.txt`, no extension, …) is an edge list. Every
    /// reader and writer of graph files decides through this one function.
    pub fn from_path(path: &Path) -> GraphFileFormat {
        match path
            .extension()
            .and_then(|e| e.to_str())
            .map(|e| e.to_ascii_lowercase())
            .as_deref()
        {
            Some("col") | Some("dimacs") | Some("clq") => GraphFileFormat::Dimacs,
            Some("wxg") => GraphFileFormat::Wxg,
            _ => GraphFileFormat::EdgeList,
        }
    }
}

fn parse_err(line: usize, msg: impl std::fmt::Display) -> GraphError {
    GraphError::Parse {
        line,
        msg: msg.to_string(),
    }
}

/// Splits a line into whitespace-separated tokens.
fn tokens(line: &str) -> Vec<&str> {
    line.split_whitespace().collect()
}

fn parse_usize(tok: &str, line: usize, what: &str) -> Result<usize> {
    tok.parse::<usize>().map_err(|_| {
        parse_err(
            line,
            format!("{what}: expected a non-negative integer, got `{tok}`"),
        )
    })
}

/// Replicates [`GraphBuilder::add_edge`]'s validation — same check order,
/// same error values — so streaming consumers that bypass the builder (the
/// `.wxg` converter) reject exactly what the builder path rejects, wrapped
/// with the offending line number.
fn check_edge(lineno: usize, u: Vertex, v: Vertex, n: usize) -> Result<()> {
    let semantic = if u >= n {
        Some(GraphError::VertexOutOfRange { vertex: u, n })
    } else if v >= n {
        Some(GraphError::VertexOutOfRange { vertex: v, n })
    } else if u == v {
        Some(GraphError::SelfLoop(u))
    } else {
        None
    };
    match semantic {
        Some(e) => Err(parse_err(lineno, e)),
        None => Ok(()),
    }
}

/// A push-based, line-oriented graph parser: feed raw lines in order via
/// [`line`](LineParser::line), then [`finish`](LineParser::finish) checks
/// the end-of-input invariants. Implementations hold O(1) state, so any
/// number of edges can stream through without materializing anything.
pub(crate) trait LineParser {
    /// Consumes the 1-based input line `lineno`. Returns
    /// `Some((n, u, v))` — the declared vertex count plus one fully
    /// validated 0-based edge — when the line declares an edge; comment,
    /// blank and header lines return `None`.
    fn line(&mut self, lineno: usize, raw: &str) -> Result<Option<(usize, Vertex, Vertex)>>;

    /// End-of-input checks (header present, edge count matches); the
    /// declared `(n, m)`.
    fn finish(&self) -> Result<(usize, usize)>;
}

/// Line state machine for the edge-list grammar (see the module docs).
#[derive(Debug, Default)]
pub(crate) struct EdgeListParser {
    header: Option<(usize, usize)>,
    edge_lines: usize,
}

impl EdgeListParser {
    pub(crate) fn new() -> EdgeListParser {
        EdgeListParser::default()
    }
}

impl LineParser for EdgeListParser {
    fn line(&mut self, lineno: usize, raw: &str) -> Result<Option<(usize, Vertex, Vertex)>> {
        let line = raw.trim();
        if line.is_empty() || line.starts_with('#') || line.starts_with('%') {
            return Ok(None);
        }
        let toks = tokens(line);
        if toks.len() != 2 {
            return Err(parse_err(
                lineno,
                format!("expected two integers, got {} token(s)", toks.len()),
            ));
        }
        match self.header {
            None => {
                let n = parse_usize(toks[0], lineno, "vertex count")?;
                let m = parse_usize(toks[1], lineno, "edge count")?;
                self.header = Some((n, m));
                Ok(None)
            }
            Some((n, m)) => {
                if self.edge_lines == m {
                    return Err(parse_err(
                        lineno,
                        format!("more than the declared {m} edge line(s)"),
                    ));
                }
                let u = parse_usize(toks[0], lineno, "edge endpoint")?;
                let v = parse_usize(toks[1], lineno, "edge endpoint")?;
                check_edge(lineno, u, v, n)?;
                self.edge_lines += 1;
                Ok(Some((n, u, v)))
            }
        }
    }

    fn finish(&self) -> Result<(usize, usize)> {
        let (n, m) = self
            .header
            .ok_or_else(|| parse_err(0, "missing `<n> <m>` header line"))?;
        if self.edge_lines != m {
            return Err(parse_err(
                0,
                format!(
                    "header declares {m} edge(s) but the file has {}",
                    self.edge_lines
                ),
            ));
        }
        Ok((n, m))
    }
}

/// Line state machine for the DIMACS grammar (see the module docs).
#[derive(Debug, Default)]
pub(crate) struct DimacsParser {
    header: Option<(usize, usize)>,
    edge_lines: usize,
}

impl DimacsParser {
    pub(crate) fn new() -> DimacsParser {
        DimacsParser::default()
    }
}

impl LineParser for DimacsParser {
    fn line(&mut self, lineno: usize, raw: &str) -> Result<Option<(usize, Vertex, Vertex)>> {
        let line = raw.trim();
        if line.is_empty() {
            return Ok(None);
        }
        let toks = tokens(line);
        match toks[0] {
            "c" => Ok(None),
            "p" => {
                if self.header.is_some() {
                    return Err(parse_err(lineno, "duplicate `p` line"));
                }
                if toks.len() != 4 || toks[1] != "edge" {
                    return Err(parse_err(lineno, "expected `p edge <n> <m>`"));
                }
                let n = parse_usize(toks[2], lineno, "vertex count")?;
                let m = parse_usize(toks[3], lineno, "edge count")?;
                self.header = Some((n, m));
                Ok(None)
            }
            "e" => {
                let (n, m) = self
                    .header
                    .ok_or_else(|| parse_err(lineno, "`e` line before the `p edge` line"))?;
                if self.edge_lines == m {
                    return Err(parse_err(
                        lineno,
                        format!("more than the declared {m} edge line(s)"),
                    ));
                }
                if toks.len() != 3 {
                    return Err(parse_err(lineno, "expected `e <u> <v>`"));
                }
                let u = parse_usize(toks[1], lineno, "edge endpoint")?;
                let v = parse_usize(toks[2], lineno, "edge endpoint")?;
                if u == 0 || v == 0 {
                    return Err(parse_err(lineno, "DIMACS vertices are 1-based, got 0"));
                }
                if u > n || v > n {
                    return Err(parse_err(
                        lineno,
                        format!("vertex {} out of range 1..={n}", u.max(v)),
                    ));
                }
                if u == v {
                    return Err(parse_err(lineno, GraphError::SelfLoop(u - 1)));
                }
                self.edge_lines += 1;
                Ok(Some((n, u - 1, v - 1)))
            }
            other => Err(parse_err(
                lineno,
                format!("unknown DIMACS line type `{other}` (expected c/p/e)"),
            )),
        }
    }

    fn finish(&self) -> Result<(usize, usize)> {
        let (n, m) = self
            .header
            .ok_or_else(|| parse_err(0, "missing `p edge <n> <m>` line"))?;
        if self.edge_lines != m {
            return Err(parse_err(
                0,
                format!(
                    "`p` line declares {m} edge(s) but the file has {}",
                    self.edge_lines
                ),
            ));
        }
        Ok((n, m))
    }
}

/// Drives a [`LineParser`] over any [`BufRead`], reading line by line into
/// one reused buffer (peak memory: one line, not the file), and pushes each
/// validated edge into `sink` as `(lineno, n, u, v)`. Returns the declared
/// `(n, m)` after the parser's end-of-input checks.
pub(crate) fn stream_lines<R: BufRead, P: LineParser>(
    mut reader: R,
    parser: &mut P,
    mut sink: impl FnMut(usize, usize, Vertex, Vertex) -> Result<()>,
) -> Result<(usize, usize)> {
    let mut buf = String::new();
    let mut lineno = 0usize;
    loop {
        buf.clear();
        if reader.read_line(&mut buf)? == 0 {
            break;
        }
        lineno += 1;
        if let Some((n, u, v)) = parser.line(lineno, &buf)? {
            sink(lineno, n, u, v)?;
        }
    }
    parser.finish()
}

/// Streams a parser's edges into a [`GraphBuilder`] and finalizes the CSR
/// graph.
fn build_graph<R: BufRead, P: LineParser>(reader: R, mut parser: P) -> Result<Graph> {
    let mut builder: Option<GraphBuilder> = None;
    let (n, _m) = stream_lines(reader, &mut parser, |lineno, n, u, v| {
        builder
            .get_or_insert_with(|| GraphBuilder::new(n))
            .add_edge(u, v)
            .map_err(|e| parse_err(lineno, e))
    })?;
    Ok(builder.unwrap_or_else(|| GraphBuilder::new(n)).build())
}

/// Names `path` in parse and read errors, so multi-file scenarios point at
/// the broken input.
pub(crate) fn attach_path(e: GraphError, path: &Path) -> GraphError {
    match e {
        GraphError::Parse { line, msg } => GraphError::Parse {
            line,
            msg: format!("{}: {msg}", path.display()),
        },
        GraphError::Io(msg) => GraphError::Io(format!("reading {}: {msg}", path.display())),
        other => other,
    }
}

/// Loads a text graph from `path`, picking the format from the extension
/// ([`GraphFileFormat::from_path`]). A `.wxg` path is an
/// [`GraphError::InvalidParameter`]:
/// [`MmapGraph::open`](crate::MmapGraph::open) reads images.
///
/// The file is read **line by line** through a [`std::io::BufReader`] into
/// one reused buffer — peak memory is the graph under construction plus a
/// single line, never the whole file, so multi-gigabyte inputs stream.
pub fn load_graph(path: impl AsRef<Path>) -> Result<Graph> {
    let path = path.as_ref();
    let format = GraphFileFormat::from_path(path);
    if format == GraphFileFormat::Wxg {
        return Err(GraphError::invalid("MmapGraph::open reads .wxg images"));
    }
    let file = std::fs::File::open(path)
        .map_err(|e| GraphError::Io(format!("reading {}: {e}", path.display())))?;
    let reader = std::io::BufReader::new(file);
    let result = if format == GraphFileFormat::Dimacs {
        build_graph(reader, DimacsParser::new())
    } else {
        build_graph(reader, EdgeListParser::new())
    };
    result.map_err(|e| attach_path(e, path))
}

/// Saves a graph as text to `path`, picking the format from the extension;
/// the output round-trips through [`load_graph`]. A `.wxg` path is an
/// [`GraphError::InvalidParameter`]: [`Graph::write_wxg`] writes images.
pub fn save_graph(g: &Graph, path: impl AsRef<Path>) -> Result<()> {
    let path = path.as_ref();
    let (n, m) = (g.num_vertices(), g.num_edges());
    let (mut text, edge_tag, base) = match GraphFileFormat::from_path(path) {
        GraphFileFormat::EdgeList => (format!("{n} {m}\n"), "", 0),
        GraphFileFormat::Dimacs => (format!("p edge {n} {m}\n"), "e ", 1),
        GraphFileFormat::Wxg => {
            return Err(GraphError::invalid("Graph::write_wxg writes .wxg images"))
        }
    };
    for (u, v) in g.edges() {
        let _ = writeln!(text, "{edge_tag}{} {}", u + base, v + base);
    }
    std::fs::write(path, text)
        .map_err(|e| GraphError::Io(format!("writing {}: {e}", path.display())))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::GraphView;
    use std::io::Write as _;

    fn petersen_outer() -> Graph {
        // C5 plus an isolated vertex to exercise isolated-vertex round-trips.
        Graph::from_edges(6, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)]).unwrap()
    }

    fn parse_edge_list(text: &str) -> Result<Graph> {
        build_graph(text.as_bytes(), EdgeListParser::new())
    }

    fn parse_dimacs(text: &str) -> Result<Graph> {
        build_graph(text.as_bytes(), DimacsParser::new())
    }

    /// `save_graph` → `load_graph` through a file named `name`.
    fn round_trip(g: &Graph, name: &str) -> Graph {
        let dir = std::env::temp_dir().join("wx-graph-io-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(name);
        save_graph(g, &path).unwrap();
        load_graph(&path).unwrap()
    }

    #[test]
    fn edge_list_round_trip() {
        let g = petersen_outer();
        assert_eq!(round_trip(&g, "petersen.edges"), g);
    }

    #[test]
    fn dimacs_round_trip() {
        let g = petersen_outer();
        assert_eq!(round_trip(&g, "petersen.col"), g);
    }

    #[test]
    fn edge_list_accepts_comments_and_blank_lines() {
        let g = parse_edge_list("# hello\n% also a comment\n\n3 2\n0 1\n\n1 2\n").unwrap();
        assert_eq!(g.num_vertices(), 3);
        assert_eq!(g.num_edges(), 2);
    }

    #[test]
    fn edge_list_duplicate_edges_collapse() {
        let g = parse_edge_list("2 3\n0 1\n1 0\n0 1\n").unwrap();
        assert_eq!(g.num_edges(), 1);
    }

    #[test]
    fn edge_list_missing_header() {
        let err = parse_edge_list("# only comments\n").unwrap_err();
        assert!(matches!(err, GraphError::Parse { .. }), "{err}");
        assert!(err.to_string().contains("header"));
    }

    #[test]
    fn edge_list_bad_token_reports_line() {
        let err = parse_edge_list("3 1\n0 x\n").unwrap_err();
        match err {
            GraphError::Parse { line, ref msg } => {
                assert_eq!(line, 2);
                assert!(msg.contains('x'), "{msg}");
            }
            other => panic!("expected Parse, got {other:?}"),
        }
    }

    #[test]
    fn edge_list_self_loop_is_rejected_with_line() {
        let err = parse_edge_list("3 1\n1 1\n").unwrap_err();
        match err {
            GraphError::Parse { line, ref msg } => {
                assert_eq!(line, 2);
                assert!(msg.contains("self-loop"), "{msg}");
            }
            other => panic!("expected Parse, got {other:?}"),
        }
    }

    #[test]
    fn edge_list_out_of_range_vertex() {
        let err = parse_edge_list("3 1\n0 7\n").unwrap_err();
        assert!(err.to_string().contains("out of range"), "{err}");
    }

    #[test]
    fn edge_list_truncated_file_detected() {
        let err = parse_edge_list("4 3\n0 1\n").unwrap_err();
        assert!(err.to_string().contains("declares 3"), "{err}");
    }

    #[test]
    fn edge_list_excess_edges_detected() {
        let err = parse_edge_list("4 1\n0 1\n1 2\n").unwrap_err();
        assert!(err.to_string().contains("more than"), "{err}");
    }

    #[test]
    fn dimacs_requires_problem_line_first() {
        let err = parse_dimacs("e 1 2\n").unwrap_err();
        assert!(err.to_string().contains("before the `p edge`"), "{err}");
    }

    #[test]
    fn dimacs_rejects_zero_based_vertices() {
        let err = parse_dimacs("p edge 3 1\ne 0 1\n").unwrap_err();
        assert!(err.to_string().contains("1-based"), "{err}");
    }

    #[test]
    fn dimacs_rejects_self_loops_with_zero_based_id() {
        // the builder path reported self-loops on the 0-based id; the
        // streaming parser must agree byte for byte
        let err = parse_dimacs("p edge 3 1\ne 2 2\n").unwrap_err();
        match err {
            GraphError::Parse { line, ref msg } => {
                assert_eq!(line, 2);
                assert_eq!(msg, &GraphError::SelfLoop(1).to_string());
            }
            other => panic!("expected Parse, got {other:?}"),
        }
    }

    #[test]
    fn dimacs_rejects_unknown_line_type() {
        let err = parse_dimacs("p edge 2 0\nq 1 2\n").unwrap_err();
        assert!(
            err.to_string().contains("unknown DIMACS line type"),
            "{err}"
        );
    }

    #[test]
    fn dimacs_rejects_duplicate_problem_line() {
        let err = parse_dimacs("p edge 2 0\np edge 2 0\n").unwrap_err();
        assert!(err.to_string().contains("duplicate"), "{err}");
    }

    #[test]
    fn format_from_path_dispatch() {
        assert_eq!(
            GraphFileFormat::from_path(Path::new("g.col")),
            GraphFileFormat::Dimacs
        );
        assert_eq!(
            GraphFileFormat::from_path(Path::new("g.DIMACS")),
            GraphFileFormat::Dimacs
        );
        assert_eq!(
            GraphFileFormat::from_path(Path::new("g.edges")),
            GraphFileFormat::EdgeList
        );
        assert_eq!(
            GraphFileFormat::from_path(Path::new("noext")),
            GraphFileFormat::EdgeList
        );
        assert_eq!(
            GraphFileFormat::from_path(Path::new("g.WXG")),
            GraphFileFormat::Wxg
        );
    }

    #[test]
    fn load_and_save_round_trip_via_files() {
        // text round-trips above; `.wxg` images are not text
        let g = petersen_outer();
        let dir = std::env::temp_dir().join("wx-graph-io-test");
        let wxg = dir.join("roundtrip.wxg");
        assert!(matches!(
            save_graph(&g, &wxg),
            Err(GraphError::InvalidParameter(_))
        ));
        assert!(matches!(
            load_graph(&wxg),
            Err(GraphError::InvalidParameter(_))
        ));
        let err = load_graph(dir.join("does-not-exist.edges")).unwrap_err();
        assert!(matches!(err, GraphError::Io(_)), "{err}");
    }

    #[test]
    fn load_graph_parse_errors_name_the_file() {
        let dir = std::env::temp_dir().join("wx-graph-io-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("broken.edges");
        std::fs::write(&path, "3 1\n0 x\n").unwrap();
        let err = load_graph(&path).unwrap_err();
        assert!(matches!(err, GraphError::Parse { line: 2, .. }), "{err}");
        assert!(err.to_string().contains("broken.edges"), "{err}");
    }

    #[test]
    fn load_graph_streams_multi_megabyte_files() {
        // Regression for the slurping loader: a multi-MB path graph must
        // load correctly line by line (and in bounded memory — the loader
        // never calls read_to_string).
        let dir = std::env::temp_dir().join("wx-graph-io-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("big.edges");
        let n = 300_000usize;
        {
            let mut w = std::io::BufWriter::new(std::fs::File::create(&path).unwrap());
            writeln!(w, "{} {}", n, n - 1).unwrap();
            for i in 0..n - 1 {
                writeln!(w, "{} {}", i, i + 1).unwrap();
            }
        }
        assert!(
            std::fs::metadata(&path).unwrap().len() > 2 * 1024 * 1024,
            "fixture must be multi-megabyte to exercise streaming"
        );
        let g = load_graph(&path).unwrap();
        assert_eq!(g.num_vertices(), n);
        assert_eq!(g.num_edges(), n - 1);
        assert_eq!(g.max_degree(), 2);
        assert_eq!(g.min_degree(), 1);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn parse_error_deep_in_a_large_file_reports_the_line() {
        let dir = std::env::temp_dir().join("wx-graph-io-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("big-broken.edges");
        let n = 100_000usize;
        {
            let mut w = std::io::BufWriter::new(std::fs::File::create(&path).unwrap());
            writeln!(w, "{} {}", n, n - 1).unwrap();
            for i in 0..n - 1 {
                if i == 60_000 {
                    writeln!(w, "{} oops", i).unwrap();
                } else {
                    writeln!(w, "{} {}", i, i + 1).unwrap();
                }
            }
        }
        let err = load_graph(&path).unwrap_err();
        // header is line 1, edge i sits on line i + 2
        assert!(
            matches!(err, GraphError::Parse { line: 60_002, .. }),
            "{err}"
        );
        assert!(err.to_string().contains("oops"), "{err}");
        std::fs::remove_file(&path).ok();
    }
}
