//! Canonical JSON serialization and content-address hashing.
//!
//! The artifact cache keys built graphs by *(GraphSource, build seed)* and
//! spokesman solutions by *(graph key, task shape, solver)*. Two requests
//! that mean the same thing must map to the same key even when their JSON
//! spellings differ, so keys are computed over a **canonical form**, not
//! over raw request bytes.
//!
//! # Canonical form
//!
//! The canonical serialization of a [`Value`] tree is defined as:
//!
//! * maps have their entries sorted by key (lexicographic byte order,
//!   recursively), discarding the insertion order of the source text;
//! * no whitespace: `","` between items, `":"` between key and value;
//! * strings escape `"` and `\`, the two-character forms `\n` `\r` `\t`,
//!   and all other control characters as `\u00XX`;
//! * numbers print as unsigned/signed decimal integers, and
//!   floating-point values via Rust's shortest round-trip `Display`.
//!
//! Because canonicalization happens on the parsed value tree, the result
//! is independent of field order and whitespace in the request text by
//! construction; any *semantic* change (a different seed, size, solver,
//! family…) changes the canonical text and therefore the hash. Hashes are
//! FNV-1a 64 ([`wx_core::graph::Fnv1a`], the `.wxg` container's payload
//! checksum), which is ample for cache addressing (keys identify cache
//! slots; artifacts are still validated on rehydration).

use serde_json::Value;

use crate::error::{LabError, Result};
use crate::source::GraphSource;
use crate::spec::ScenarioSpec;
use wx_core::graph::Fnv1a;
use wx_core::spokesman::SolverKind;

/// Domain-separation tags so the different key spaces (specs, graph
/// instances, solutions) cannot collide even on identical payloads.
const TAG_SPEC: &[u8] = b"wx:spec:v1";
const TAG_GRAPH: &[u8] = b"wx:graph:v1";
const TAG_SOLUTION: &[u8] = b"wx:solution:v1";

/// FNV-1a 64 over the concatenation of `parts`.
fn fnv1a(parts: &[&[u8]]) -> u64 {
    let mut h = Fnv1a::new();
    for part in parts {
        h.update(part);
    }
    h.finish()
}

/// Renders a value tree in the canonical form documented at module level.
#[must_use]
pub fn canonical_json(value: &Value) -> String {
    let mut out = String::new();
    write_canonical(value, &mut out);
    out
}

fn write_canonical(value: &Value, out: &mut String) {
    match value {
        Value::Null => out.push_str("null"),
        Value::Bool(true) => out.push_str("true"),
        Value::Bool(false) => out.push_str("false"),
        Value::Num(n) => {
            use serde::Number;
            match n {
                Number::U64(u) => out.push_str(&u.to_string()),
                Number::I64(i) => out.push_str(&i.to_string()),
                Number::F64(f) => out.push_str(&f.to_string()),
            }
        }
        Value::Str(s) => write_escaped(s, out),
        Value::Seq(items) => {
            out.push('[');
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                write_canonical(item, out);
            }
            out.push(']');
        }
        Value::Map(entries) => {
            let mut order: Vec<usize> = (0..entries.len()).collect();
            order.sort_by(|&a, &b| entries[a].0.cmp(&entries[b].0));
            out.push('{');
            for (i, &idx) in order.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                let (key, val) = &entries[idx];
                write_escaped(key, out);
                out.push(':');
                write_canonical(val, out);
            }
            out.push('}');
        }
    }
}

fn write_escaped(s: &str, out: &mut String) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

fn canonical_value_of<T: serde::Serialize>(what: &'static str, value: &T) -> Result<Value> {
    serde::to_value(value).map_err(|e| LabError::json(what, e))
}

/// The coalescing key of a whole request: every field of the spec
/// participates (two requests coalesce only when their reports would be
/// byte-identical, which includes `name` and `description`).
pub fn spec_key(spec: &ScenarioSpec) -> Result<u64> {
    let value = canonical_value_of("canonical spec", spec)?;
    Ok(fnv1a(&[TAG_SPEC, canonical_json(&value).as_bytes()]))
}

/// The source half of a graph-instance key: a hash of the canonical
/// serialization of the [`GraphSource`] alone. Combine with the build
/// seed via [`graph_instance_key`].
pub fn source_fingerprint(source: &GraphSource) -> Result<u64> {
    let value = canonical_value_of("canonical source", source)?;
    Ok(fnv1a(&[TAG_GRAPH, canonical_json(&value).as_bytes()]))
}

/// The content address of one built graph instance: *(GraphSource, build
/// seed)*. Deterministic sources build with seed 0; randomized sources
/// build one instance per trial from the trial's derived seed, so equal
/// specs at equal trial indices share instances.
#[must_use]
pub fn graph_instance_key(source_fingerprint: u64, build_seed: u64) -> u64 {
    fnv1a(&[&source_fingerprint.to_le_bytes(), &build_seed.to_le_bytes()])
}

/// The content address of one spokesman solution: *(graph key, subset
/// size, task seed, solver)*. The task seed determines both the drawn
/// left set and every per-solver seed, so it pins the exact instance the
/// solver saw.
#[must_use]
pub fn solution_key(graph_key: u64, set_size: usize, task_seed: u64, solver: SolverKind) -> u64 {
    fnv1a(&[
        TAG_SOLUTION,
        &graph_key.to_le_bytes(),
        &(set_size as u64).to_le_bytes(),
        &task_seed.to_le_bytes(),
        solver.to_string().as_bytes(),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(text: &str) -> Value {
        serde_json::from_str(text).expect("test JSON parses")
    }

    #[test]
    fn canonical_form_ignores_field_order_and_whitespace() {
        let a = parse(r#"{"b": [1, 2.5, {"y": null, "x": "s"}], "a": true}"#);
        let b = parse("{\n  \"a\": true,\n  \"b\": [1,\t2.5, {\"x\": \"s\", \"y\": null}]\n}");
        assert_eq!(canonical_json(&a), canonical_json(&b));
        assert_eq!(
            canonical_json(&a),
            r#"{"a":true,"b":[1,2.5,{"x":"s","y":null}]}"#
        );
    }

    #[test]
    fn canonical_form_escapes_strings() {
        let v = parse(r#"{"k": "a\"b\\c\nd"}"#);
        assert_eq!(canonical_json(&v), "{\"k\":\"a\\\"b\\\\c\\nd\"}");
    }

    fn spec_from(text: &str) -> ScenarioSpec {
        ScenarioSpec::from_json(text, "canon test").expect("spec parses")
    }

    #[test]
    fn equal_specs_hash_equal_across_spellings() {
        let a = spec_from(
            r#"{"name":"t","source":{"RandomRegular":{"n":64,"d":4}},
                "task":{"Spokesman":{"set_size":8}},"trials":2,"seed":7}"#,
        );
        let b = spec_from(
            r#"{ "seed": 7, "trials": 2,
                 "task": {"Spokesman": {"set_size": 8}},
                 "source": {"RandomRegular": {"d": 4, "n": 64}},
                 "name": "t" }"#,
        );
        assert_eq!(spec_key(&a).unwrap(), spec_key(&b).unwrap());
        assert_eq!(
            source_fingerprint(&a.source).unwrap(),
            source_fingerprint(&b.source).unwrap()
        );
    }

    #[test]
    fn semantic_changes_change_the_hash() {
        let base = r#"{"name":"t","source":{"RandomRegular":{"n":64,"d":4}},
                       "task":{"Spokesman":{"set_size":8}},"trials":2,"seed":7}"#;
        let variants = [
            base.replace("\"seed\":7", "\"seed\":8"),
            base.replace("\"trials\":2", "\"trials\":3"),
            base.replace("\"n\":64", "\"n\":65"),
            base.replace("\"set_size\":8", "\"set_size\":9"),
            base.replace("\"name\":\"t\"", "\"name\":\"u\""),
            base.replace(
                "{\"RandomRegular\":{\"n\":64,\"d\":4}}",
                "{\"Hypercube\":{\"dim\":6}}",
            ),
        ];
        let base_key = spec_key(&spec_from(base)).unwrap();
        for variant in &variants {
            let key = spec_key(&spec_from(variant)).unwrap();
            assert_ne!(base_key, key, "variant should change the key: {variant}");
        }
    }

    #[test]
    fn instance_and_solution_keys_separate_their_inputs() {
        let spec = spec_from(
            r#"{"name":"t","source":{"RandomRegular":{"n":64,"d":4}},
                "task":{"Spokesman":{"set_size":8}},"trials":1,"seed":7}"#,
        );
        let fp = source_fingerprint(&spec.source).unwrap();
        assert_ne!(graph_instance_key(fp, 0), graph_instance_key(fp, 1));

        let g = graph_instance_key(fp, 0);
        let k = solution_key(g, 8, 11, SolverKind::Partition);
        assert_ne!(k, solution_key(g, 9, 11, SolverKind::Partition));
        assert_ne!(k, solution_key(g, 8, 12, SolverKind::Partition));
        assert_ne!(k, solution_key(g, 8, 11, SolverKind::GreedyMinDegree));
        assert_ne!(
            k,
            solution_key(graph_instance_key(fp, 1), 8, 11, SolverKind::Partition)
        );
    }
}
