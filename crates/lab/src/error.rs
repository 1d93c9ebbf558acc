//! Error type for the scenario lab.

use wx_core::graph::GraphError;

/// Everything that can go wrong between a scenario file and its report.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LabError {
    /// Building or loading a graph failed.
    Graph(GraphError),

    /// The scenario itself is inconsistent (e.g. a set size larger than the
    /// graph, zero trials, an unknown built-in name).
    InvalidSpec(String),

    /// A JSON document failed to parse or deserialize.
    Json {
        /// What was being parsed (a file path or "inline spec").
        context: String,
        /// The underlying parse/deserialize message.
        message: String,
    },

    /// A filesystem operation failed.
    Io(String),

    /// A paper experiment found one of the statement's structural
    /// assertions violated (e.g. a Lemma 4.4 size or degree bound).
    Experiment(String),
}

impl std::fmt::Display for LabError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            LabError::Graph(e) => write!(f, "graph error: {e}"),
            LabError::InvalidSpec(msg) => write!(f, "invalid scenario: {msg}"),
            LabError::Json { context, message } => write!(f, "JSON error in {context}: {message}"),
            LabError::Io(msg) => write!(f, "I/O error: {msg}"),
            LabError::Experiment(msg) => write!(f, "experiment check failed: {msg}"),
        }
    }
}

impl std::error::Error for LabError {}

impl From<GraphError> for LabError {
    fn from(e: GraphError) -> Self {
        LabError::Graph(e)
    }
}

impl From<std::io::Error> for LabError {
    fn from(e: std::io::Error) -> Self {
        LabError::Io(e.to_string())
    }
}

impl LabError {
    /// Builds [`LabError::InvalidSpec`] from anything displayable.
    pub fn invalid(msg: impl std::fmt::Display) -> Self {
        LabError::InvalidSpec(msg.to_string())
    }

    /// Builds [`LabError::Json`] with a context label.
    pub fn json(context: impl Into<String>, message: impl std::fmt::Display) -> Self {
        LabError::Json {
            context: context.into(),
            message: message.to_string(),
        }
    }
}

/// Convenience result alias used throughout the crate.
pub type Result<T> = std::result::Result<T, LabError>;

/// Runs `f`, turning a panic into `Err` carrying the panic message. The one
/// panic-payload decoder: the sweep's entry runner and `wx serve`'s job
/// capture both go through it.
pub fn catch_panic<T>(f: impl FnOnce() -> T) -> std::result::Result<T, String> {
    std::panic::catch_unwind(std::panic::AssertUnwindSafe(f)).map_err(|payload| {
        payload
            .downcast_ref::<&str>()
            .map(|s| (*s).to_string())
            .or_else(|| payload.downcast_ref::<String>().cloned())
            .unwrap_or_else(|| "non-string panic payload".to_string())
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn messages_are_informative() {
        // These messages reach CLI stderr and serve error envelopes, so each
        // variant's text is pinned exactly.
        let cases = [
            (
                GraphError::SelfLoop(3).into(),
                "graph error: self-loop on vertex 3 is not allowed here",
            ),
            (
                LabError::invalid("trials must be positive"),
                "invalid scenario: trials must be positive",
            ),
            (
                LabError::json("scenario.json", "expected map"),
                "JSON error in scenario.json: expected map",
            ),
            (
                std::io::Error::new(std::io::ErrorKind::NotFound, "gone").into(),
                "I/O error: gone",
            ),
            (
                LabError::Experiment("Lemma 4.4 (2) fails".to_string()),
                "experiment check failed: Lemma 4.4 (2) fails",
            ),
        ];
        for (error, message) in cases {
            assert_eq!(error.to_string(), message);
        }
    }
}
