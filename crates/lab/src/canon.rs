//! Content-address hashing of specs, graph sources and solutions.
//!
//! The artifact cache keys built graphs by *(GraphSource, build seed)* and
//! spokesman solutions by *(graph key, task shape, solver)*. Two requests
//! that mean the same thing must map to the same key even when their JSON
//! spellings differ, so keys hash the parsed value, not the request bytes.
//!
//! # What is hashed
//!
//! A spec or source key hashes the compact JSON that `serde_json::to_string`
//! writes for the typed value. Derived `Serialize` emits fields in
//! declaration order, and a spec holds no hash maps (every map in it is a
//! typed struct or enum), so two spellings of one spec (field order,
//! whitespace, number formatting) parse to one value and serialize to one
//! text. Any *semantic* change (a different seed, size, solver, family…)
//! changes that text and therefore the hash. Hashes are FNV-1a 64
//! ([`wx_core::graph::Fnv1a`], the `.wxg` container's payload checksum),
//! which is ample for cache addressing (keys identify cache slots;
//! artifacts are still validated on rehydration).
//!
//! The spec and graph tags are at `v2` because `v1` keys hashed another
//! serialization of the same values: a `--persist` directory written with
//! `v1` keys is not read.

use crate::error::{LabError, Result};
use crate::source::GraphSource;
use crate::spec::ScenarioSpec;
use wx_core::graph::Fnv1a;
use wx_core::spokesman::SolverKind;

/// Domain-separation tags so the different key spaces (specs, graph
/// instances, solutions) cannot collide even on identical payloads.
const TAG_SPEC: &[u8] = b"wx:spec:v2";
const TAG_GRAPH: &[u8] = b"wx:graph:v2";
const TAG_SOLUTION: &[u8] = b"wx:solution:v1";

/// FNV-1a 64 over the concatenation of `parts`.
fn fnv1a(parts: &[&[u8]]) -> u64 {
    let mut h = Fnv1a::new();
    for part in parts {
        h.update(part);
    }
    h.finish()
}

/// The coalescing key of a whole request: every field of the spec
/// participates (two requests coalesce only when their reports would be
/// byte-identical, which includes `name` and `description`).
pub fn spec_key(spec: &ScenarioSpec) -> Result<u64> {
    let json = serde_json::to_string(spec).map_err(|e| LabError::json("spec key", e))?;
    Ok(fnv1a(&[TAG_SPEC, json.as_bytes()]))
}

/// The source half of a graph-instance key: a hash of the compact
/// serialization of the [`GraphSource`] alone. Combine with the build
/// seed via [`graph_instance_key`].
pub fn source_fingerprint(source: &GraphSource) -> Result<u64> {
    let json = serde_json::to_string(source).map_err(|e| LabError::json("source key", e))?;
    Ok(fnv1a(&[TAG_GRAPH, json.as_bytes()]))
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
