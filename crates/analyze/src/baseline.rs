//! The `analyze-baseline.json` ratchet.
//!
//! Pre-existing violations are recorded as per-`(rule, file)` counts in a
//! committed baseline. `wx-analyze --check` fails when a count **grows**
//! (a new violation shipped) and also when a count **shrinks** or a file
//! disappears (the baseline is stale: the fix must be locked in with
//! `--bless` so the violation cannot come back). The ratchet therefore only
//! ever moves down.

use crate::config::{classify, Config};
use crate::diagnostics::Diagnostic;
use serde::{Deserialize, Serialize};
use std::collections::btree_map::{BTreeMap, Entry};

/// Per-(rule, file) violation counts, deterministically ordered.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Baseline {
    /// `(rule, file) → count`, sorted by key for byte-stable serialization.
    pub entries: BTreeMap<(String, String), u64>,
}

/// One ratchet comparison failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RatchetError {
    /// More violations than the baseline records: new ones shipped.
    New {
        /// Rule id.
        rule: String,
        /// Offending file.
        file: String,
        /// Current count.
        current: u64,
        /// Baselined count.
        baselined: u64,
    },
    /// Fewer violations than the baseline records: bless the fix.
    Stale {
        /// Rule id.
        rule: String,
        /// File whose entry no longer (fully) fires.
        file: String,
        /// Current count.
        current: u64,
        /// Baselined count.
        baselined: u64,
    },
    /// A `panic-freedom` entry for a file in one of the configured
    /// panic-free crates: such violations are fixed, never baselined.
    Refused {
        /// Rule id.
        rule: String,
        /// The file in a panic-free crate.
        file: String,
        /// Recorded count.
        count: u64,
    },
}

impl RatchetError {
    /// One-line human rendering.
    pub fn render(&self) -> String {
        match self {
            RatchetError::New {
                rule,
                file,
                current,
                baselined,
            } => format!(
                "NEW: {file}: [{rule}] {current} violation(s), baseline allows {baselined} — \
                 fix them or wx-allow with a reason"
            ),
            RatchetError::Stale {
                rule,
                file,
                current,
                baselined,
            } => format!(
                "STALE: {file}: [{rule}] baseline records {baselined} but only {current} \
                 fire — run `wx-analyze --bless` to ratchet the baseline down"
            ),
            RatchetError::Refused { rule, file, count } => format!(
                "REFUSED: {file}: [{rule}] {count} violation(s) in a panic-free crate — \
                 fix them; they cannot be baselined"
            ),
        }
    }
}

impl Baseline {
    /// Builds a baseline from a diagnostic list (meta rules excluded: a
    /// malformed `wx-allow` must never be baselined away).
    pub fn from_diagnostics(diags: &[Diagnostic]) -> Baseline {
        let mut entries: BTreeMap<(String, String), u64> = BTreeMap::new();
        for d in diags {
            if d.rule == crate::rules::BAD_ALLOW || d.rule == crate::rules::UNUSED_ALLOW {
                continue;
            }
            *entries
                .entry((d.rule.to_string(), d.file.clone()))
                .or_insert(0) += 1;
        }
        Baseline { entries }
    }

    /// The diagnostics in `diags` that are *not* covered by this baseline
    /// (meta-rule diagnostics always count), plus the ratchet errors.
    pub fn compare(&self, diags: &[Diagnostic]) -> Vec<RatchetError> {
        let current = Baseline::from_diagnostics(diags);
        let mut errors = Vec::new();
        for (key, &cur) in &current.entries {
            let base = self.entries.get(key).copied().unwrap_or(0);
            if cur > base {
                errors.push(RatchetError::New {
                    rule: key.0.clone(),
                    file: key.1.clone(),
                    current: cur,
                    baselined: base,
                });
            } else if cur < base {
                errors.push(RatchetError::Stale {
                    rule: key.0.clone(),
                    file: key.1.clone(),
                    current: cur,
                    baselined: base,
                });
            }
        }
        for (key, &base) in &self.entries {
            if !current.entries.contains_key(key) {
                errors.push(RatchetError::Stale {
                    rule: key.0.clone(),
                    file: key.1.clone(),
                    current: 0,
                    baselined: base,
                });
            }
        }
        errors
    }

    /// The entries this baseline may not hold: `panic-freedom` counts for
    /// files in `cfg.panic_free_crates`.
    pub fn refused(&self, cfg: &Config) -> Vec<RatchetError> {
        self.entries
            .iter()
            .filter(|((rule, file), _)| {
                rule == crate::rules::PANIC_FREEDOM
                    && classify(file).is_some_and(|c| cfg.panic_free_crates.contains(&c.crate_name))
            })
            .map(|((rule, file), &count)| RatchetError::Refused {
                rule: rule.clone(),
                file: file.clone(),
                count,
            })
            .collect()
    }

    /// Serializes to the committed JSON format (byte-deterministic).
    pub fn to_json(&self) -> String {
        let file = BaselineFile {
            version: 1,
            entries: self
                .entries
                .iter()
                .map(|((rule, file), &count)| Record {
                    rule: rule.clone(),
                    file: file.clone(),
                    count,
                })
                .collect(),
        };
        let mut text = serde_json::to_string_pretty(&file).unwrap_or_default();
        text.push('\n');
        text
    }

    /// Parses the committed JSON format.
    pub fn parse(text: &str) -> Result<Baseline, String> {
        let file: BaselineFile = serde_json::from_str(text).map_err(|e| e.to_string())?;
        if file.version != 1 {
            return Err(format!("unsupported baseline version {}", file.version));
        }
        let mut entries = BTreeMap::new();
        for Record { rule, file, count } in file.entries {
            if count == 0 {
                return Err(format!("zero-count baseline entry for {file} [{rule}]"));
            }
            match entries.entry((rule, file)) {
                Entry::Vacant(slot) => {
                    slot.insert(count);
                }
                Entry::Occupied(slot) => {
                    let (rule, file) = slot.key();
                    return Err(format!("duplicate baseline entry for {file} [{rule}]"));
                }
            }
        }
        Ok(Baseline { entries })
    }
}

/// The committed file: a format version and one entry per `(rule, file)`.
#[derive(Serialize, Deserialize)]
struct BaselineFile {
    version: u64,
    entries: Vec<Record>,
}

#[derive(Serialize, Deserialize)]
struct Record {
    rule: String,
    file: String,
    count: u64,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn diag(rule: &'static str, file: &str) -> Diagnostic {
        Diagnostic {
            rule,
            file: file.to_string(),
            line: 1,
            col: 1,
            message: String::new(),
        }
    }

    #[test]
    fn round_trips_json() {
        let b = Baseline::from_diagnostics(&[
            diag("panic-freedom", "crates/a/src/lib.rs"),
            diag("panic-freedom", "crates/a/src/lib.rs"),
            diag("hygiene", "crates/b/src/lib.rs"),
        ]);
        let text = b.to_json();
        assert_eq!(Baseline::parse(&text).expect("parses"), b);
    }

    #[test]
    fn new_violation_fails_ratchet() {
        let base = Baseline::from_diagnostics(&[diag("hygiene", "crates/b/src/lib.rs")]);
        let now = [
            diag("hygiene", "crates/b/src/lib.rs"),
            diag("hygiene", "crates/b/src/lib.rs"),
        ];
        let errs = base.compare(&now);
        assert_eq!(errs.len(), 1);
        assert!(matches!(
            errs[0],
            RatchetError::New {
                current: 2,
                baselined: 1,
                ..
            }
        ));
    }

    #[test]
    fn fixed_violation_forces_ratchet_down() {
        let base = Baseline::from_diagnostics(&[
            diag("hygiene", "crates/b/src/lib.rs"),
            diag("panic-freedom", "crates/a/src/lib.rs"),
        ]);
        let errs = base.compare(&[diag("hygiene", "crates/b/src/lib.rs")]);
        assert_eq!(errs.len(), 1);
        assert!(matches!(
            errs[0],
            RatchetError::Stale {
                current: 0,
                baselined: 1,
                ..
            }
        ));
    }

    #[test]
    fn equal_counts_pass() {
        let base = Baseline::from_diagnostics(&[diag("hygiene", "crates/b/src/lib.rs")]);
        assert!(base
            .compare(&[diag("hygiene", "crates/b/src/lib.rs")])
            .is_empty());
    }

    #[test]
    fn meta_rules_are_never_baselined() {
        let b = Baseline::from_diagnostics(&[diag("bad-allow", "crates/a/src/lib.rs")]);
        assert!(b.entries.is_empty());
        // …so a bad-allow always surfaces as a NEW ratchet error? No — it is
        // excluded from counts entirely; the driver treats meta diagnostics
        // as hard errors regardless of the baseline.
    }
}
