//! What the golden-file tests share: the FNV-64 digest and the
//! compare-or-re-bless step.
//!
//! Each test uses part of this module.
#![allow(dead_code)]

/// The FNV-64 offset basis: the seed of a fresh digest.
pub const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// Continue the FNV-1a digest `seed` over `bytes`.
pub fn fnv64(seed: u64, bytes: &[u8]) -> u64 {
    bytes.iter().fold(seed, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// Hold `lines` against `tests/<file>` line by line, then on the line
/// count. With `UPDATE_GOLDEN` set in the environment the file is first
/// rewritten from `lines`: only for an intended change.
pub fn assert_matches_golden(lines: &str, file: &str) {
    let golden_path = format!("{}/tests/{file}", env!("CARGO_MANIFEST_DIR"));
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        std::fs::write(&golden_path, lines).unwrap();
    }
    let golden = std::fs::read_to_string(&golden_path)
        .expect("golden file missing; regenerate with UPDATE_GOLDEN=1");
    for (got, want) in lines.lines().zip(golden.lines()) {
        assert_eq!(
            got, want,
            "drifted from tests/{file}; \
             if intentional, regenerate with UPDATE_GOLDEN=1 cargo test"
        );
    }
    assert_eq!(lines.lines().count(), golden.lines().count());
}
