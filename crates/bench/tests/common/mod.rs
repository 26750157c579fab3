//! Shared by the integration tests that compare two runs' documents.

use peakperf_sim::Json;

/// Blank every member whose value depends on the host clock or the build
/// (`wall_ms`, `*_wall_ms`, `*_us`, `generated_by`), wherever it sits in
/// the tree, so two runs of the same deterministic work compare equal.
pub fn mask_volatile(mut doc: Json) -> Json {
    fn mask(value: &mut Json) {
        match value {
            Json::Obj(members) => {
                for (key, value) in members {
                    let exact = ["wall_ms", "generated_by"];
                    let suffixed = ["_wall_ms", "_us"];
                    if exact.contains(&key.as_str()) || suffixed.iter().any(|s| key.ends_with(s)) {
                        *value = Json::Null;
                    } else {
                        mask(value);
                    }
                }
            }
            Json::Arr(items) => items.iter_mut().for_each(mask),
            _ => {}
        }
    }
    mask(&mut doc);
    doc
}
