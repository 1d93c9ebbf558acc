//! Error types for the graph substrate.

/// Errors produced by graph construction and graph queries.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum GraphError {
    /// A vertex index was outside the range `0..n`.
    VertexOutOfRange {
        /// The offending vertex index.
        vertex: usize,
        /// The number of vertices in the graph.
        n: usize,
    },

    /// A self-loop was supplied where the construction forbids it.
    SelfLoop(usize),

    /// A parameter combination was invalid (message explains the constraint).
    InvalidParameter(String),

    /// A randomized construction failed to converge within its retry budget.
    DidNotConverge(String),

    /// A graph file could not be parsed. `line` is the 1-based line number
    /// of the offending input line (0 for whole-file defects such as a
    /// missing header or a truncated edge section).
    Parse {
        /// 1-based line number (0 when no single line is at fault).
        line: usize,
        /// What went wrong on that line.
        msg: String,
    },

    /// A binary `.wxg` graph file was rejected by the on-open validation.
    /// `defect` classifies the corruption so callers (and tests) can match
    /// on the failure mode without parsing the message.
    Format {
        /// Which validation step rejected the file.
        defect: WxgDefect,
        /// Details: expected vs observed values, offending offsets, etc.
        msg: String,
    },

    /// An underlying filesystem operation failed (message includes the
    /// path and the OS error).
    Io(String),
}

/// The classes of defect the `.wxg` on-open validation distinguishes
/// (see [`crate::mmap::MmapGraph::open`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WxgDefect {
    /// The file is shorter than its header (or than the payload the header
    /// declares).
    Truncated,
    /// The first 8 bytes are not the `.wxg` magic.
    BadMagic,
    /// The header's format version is not one this build understands.
    UnsupportedVersion,
    /// The payload checksum does not match the header's.
    ChecksumMismatch,
    /// The arrays decode but violate a CSR structural invariant
    /// (non-monotone offsets, out-of-range or unsorted neighbors, …).
    Structure,
}

impl std::fmt::Display for WxgDefect {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            WxgDefect::Truncated => "truncated",
            WxgDefect::BadMagic => "bad magic",
            WxgDefect::UnsupportedVersion => "unsupported version",
            WxgDefect::ChecksumMismatch => "checksum mismatch",
            WxgDefect::Structure => "structure",
        })
    }
}

impl std::fmt::Display for GraphError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            GraphError::VertexOutOfRange { vertex, n } => {
                write!(
                    f,
                    "vertex {vertex} out of range for graph with {n} vertices"
                )
            }
            GraphError::SelfLoop(v) => write!(f, "self-loop on vertex {v} is not allowed here"),
            GraphError::InvalidParameter(msg) => write!(f, "invalid parameter: {msg}"),
            GraphError::DidNotConverge(msg) => {
                write!(f, "randomized construction did not converge: {msg}")
            }
            GraphError::Parse { line, msg } => write!(f, "parse error at line {line}: {msg}"),
            GraphError::Format { defect, msg } => write!(f, "invalid .wxg file ({defect}): {msg}"),
            GraphError::Io(msg) => write!(f, "I/O error: {msg}"),
        }
    }
}

impl std::error::Error for GraphError {}

impl From<std::io::Error> for GraphError {
    fn from(e: std::io::Error) -> Self {
        GraphError::Io(e.to_string())
    }
}

impl GraphError {
    /// Helper for building [`GraphError::InvalidParameter`] from anything
    /// displayable.
    pub fn invalid(msg: impl std::fmt::Display) -> Self {
        GraphError::InvalidParameter(msg.to_string())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages_are_informative() {
        // These messages reach CLI stderr and serve error envelopes, so each
        // variant's text is pinned exactly.
        let io: GraphError = std::io::Error::new(std::io::ErrorKind::NotFound, "nope").into();
        assert!(matches!(io, GraphError::Io(_)));
        let cases = [
            (
                GraphError::VertexOutOfRange { vertex: 7, n: 3 },
                "vertex 7 out of range for graph with 3 vertices",
            ),
            (
                GraphError::SelfLoop(2),
                "self-loop on vertex 2 is not allowed here",
            ),
            (
                GraphError::invalid("beta must be positive"),
                "invalid parameter: beta must be positive",
            ),
            (
                GraphError::DidNotConverge("100 attempts".to_string()),
                "randomized construction did not converge: 100 attempts",
            ),
            (
                GraphError::Parse {
                    line: 12,
                    msg: "expected two integers".to_string(),
                },
                "parse error at line 12: expected two integers",
            ),
            (
                GraphError::Format {
                    defect: WxgDefect::ChecksumMismatch,
                    msg: "expected 1 got 2".to_string(),
                },
                "invalid .wxg file (checksum mismatch): expected 1 got 2",
            ),
            (io, "I/O error: nope"),
        ];
        for (error, message) in cases {
            assert_eq!(error.to_string(), message);
        }
    }

    #[test]
    fn wxg_defects_display_distinctly() {
        let all = [
            WxgDefect::Truncated,
            WxgDefect::BadMagic,
            WxgDefect::UnsupportedVersion,
            WxgDefect::ChecksumMismatch,
            WxgDefect::Structure,
        ];
        let mut names: Vec<String> = all.iter().map(|d| d.to_string()).collect();
        names.sort();
        names.dedup();
        assert_eq!(names.len(), all.len());
    }

    #[test]
    fn errors_are_comparable() {
        assert_eq!(GraphError::SelfLoop(1), GraphError::SelfLoop(1));
        assert_ne!(GraphError::SelfLoop(1), GraphError::SelfLoop(2));
    }
}
