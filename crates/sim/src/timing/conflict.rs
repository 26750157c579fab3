//! Shared-memory bank-conflict and global-memory coalescing analysis.

use peakperf_arch::Generation;
use peakperf_sass::MemWidth;

/// Size of a global-memory transaction segment in bytes (Fermi/Kepler L2
/// line granularity for coalesced accesses).
pub const SEGMENT_BYTES: u32 = 128;

/// Compute the shared-memory bank-conflict serialization factor of a warp
/// access (1 = conflict-free; the LD/ST pipe occupancy scales linearly
/// with it).
///
/// `addrs` are the per-lane base byte addresses (active lanes only); the
/// access moves `width.words()` consecutive 32-bit words per lane.
///
/// Modeled as the hardware does: the warp is processed in *phases*, each
/// servicing up to one full bank-row of data — 128 bytes on Fermi (32
/// banks × 4 bytes) and 256 bytes on Kepler (32 banks × 8 bytes). Wide
/// accesses split the warp into lane subsets (e.g. half-warps for `LDS.64`
/// on Fermi), which is why consecutive `LDS.64` addresses are conflict-free
/// even though lane 0 and lane 16 share a bank: they are serviced in
/// different phases. Within a phase, distinct words mapping to one bank
/// serialize; lanes reading the same word broadcast.
///
/// The returned factor is the per-phase serialization averaged over phases
/// (rounded up), so a conflict-free access of any width yields 1.
pub fn shared_conflict_factor(generation: Generation, width: MemWidth, addrs: &[u32]) -> u32 {
    if addrs.is_empty() {
        return 1;
    }
    let (bank_bytes, row_bytes) = match generation {
        Generation::Gt200 | Generation::Fermi => (4u32, 128u32),
        Generation::Kepler => (8, 256),
    };
    // Lanes per phase so that one phase moves at most one bank row.
    let lanes_per_phase = (row_bytes / width.bytes()).max(1) as usize;
    let mut total_ser = 0u32;
    let mut phases = 0u32;
    for subset in addrs.chunks(lanes_per_phase) {
        // The first word seen in each bank, then the distinct further
        // words that serialize behind it — fewer than one row's worth of
        // 32-bit words, `row_bytes / 4`. A conflict-free or broadcast
        // phase never searches `extra`.
        let mut first = [None; 32];
        let mut extra = [0u32; 64];
        let mut n = 0;
        let mut extra_per_bank = [0u32; 32];
        for &a in subset {
            for w in 0..width.words() {
                let word = (a + w * 4) / bank_bytes;
                let bank = (word % 32) as usize;
                match first[bank] {
                    None => first[bank] = Some(word),
                    Some(f) if f == word || extra[..n].contains(&word) => {}
                    Some(_) => {
                        extra[n] = word;
                        n += 1;
                        extra_per_bank[bank] += 1;
                    }
                }
            }
        }
        total_ser += 1 + extra_per_bank.into_iter().max().unwrap_or(0);
        phases += 1;
    }
    total_ser.div_ceil(phases.max(1)).max(1)
}

/// Number of `SEGMENT_BYTES`-byte global-memory transactions needed to
/// service a warp access: the count of distinct 128-byte segments touched.
///
/// # Panics
///
/// Panics if `addrs` holds more than a warp's 32 lanes.
pub fn global_transactions(width: MemWidth, addrs: &[u32]) -> u32 {
    // A lane's access is at most 16 bytes, so it touches at most two.
    let mut segments = [0u32; 64];
    let mut n = 0;
    for &a in addrs {
        for segment in a / SEGMENT_BYTES..=(a + width.bytes() - 1) / SEGMENT_BYTES {
            if !segments[..n].contains(&segment) {
                segments[n] = segment;
                n += 1;
            }
        }
    }
    n as u32
}

#[cfg(test)]
mod tests {
    use super::*;

    fn seq_addrs(n: u32, stride: u32) -> Vec<u32> {
        (0..n).map(|i| i * stride).collect()
    }

    #[test]
    fn fermi_sequential_32bit_is_conflict_free() {
        let addrs = seq_addrs(32, 4);
        assert_eq!(
            shared_conflict_factor(Generation::Fermi, MemWidth::B32, &addrs),
            1
        );
    }

    #[test]
    fn fermi_stride_two_words_is_two_way() {
        // Stride 8 bytes: lanes 0 and 16 hit bank 0 with different words in
        // the same phase.
        let addrs = seq_addrs(32, 8);
        assert_eq!(
            shared_conflict_factor(Generation::Fermi, MemWidth::B32, &addrs),
            2
        );
    }

    #[test]
    fn fermi_stride_32_words_is_32_way() {
        let addrs = seq_addrs(32, 128);
        assert_eq!(
            shared_conflict_factor(Generation::Fermi, MemWidth::B32, &addrs),
            32
        );
    }

    #[test]
    fn broadcast_is_free() {
        let addrs = vec![64; 32];
        assert_eq!(
            shared_conflict_factor(Generation::Fermi, MemWidth::B32, &addrs),
            1
        );
        assert_eq!(
            shared_conflict_factor(Generation::Kepler, MemWidth::B64, &addrs),
            1
        );
    }

    #[test]
    fn fermi_sequential_lds64_is_conflict_free() {
        // Consecutive 64-bit accesses are serviced as two half-warp phases,
        // each covering words 0..31 exactly once — no conflict. This is why
        // "using LDS.64 does not increase the data throughput" (4.1): same
        // 128 B/phase, conflict-free.
        let addrs = seq_addrs(32, 8);
        assert_eq!(
            shared_conflict_factor(Generation::Fermi, MemWidth::B64, &addrs),
            1
        );
    }

    #[test]
    fn fermi_sequential_lds128_is_conflict_free_factor() {
        // Quarter-warp phases cover words 0..31 once each; the intrinsic
        // LDS.128 2x penalty is applied by the pipe model, not here.
        let addrs = seq_addrs(32, 16);
        assert_eq!(
            shared_conflict_factor(Generation::Fermi, MemWidth::B128, &addrs),
            1
        );
    }

    #[test]
    fn kepler_sequential_lds64_is_conflict_free() {
        let addrs = seq_addrs(32, 8);
        assert_eq!(
            shared_conflict_factor(Generation::Kepler, MemWidth::B64, &addrs),
            1
        );
    }

    #[test]
    fn kepler_sequential_lds128_is_conflict_free() {
        // Half-warp phases on 64-bit banks: "properly used LDS.128
        // instruction does not introduce penalty" (4.1).
        let addrs = seq_addrs(32, 16);
        assert_eq!(
            shared_conflict_factor(Generation::Kepler, MemWidth::B128, &addrs),
            1
        );
    }

    #[test]
    fn kepler_same_bank_stride_conflicts() {
        // Stride 256 bytes: every lane hits bank 0 with a distinct word.
        let addrs = seq_addrs(32, 256);
        assert_eq!(
            shared_conflict_factor(Generation::Kepler, MemWidth::B64, &addrs),
            32
        );
    }

    #[test]
    fn coalesced_transaction_counts() {
        // 32 consecutive floats = 128 bytes = 1 transaction.
        assert_eq!(global_transactions(MemWidth::B32, &seq_addrs(32, 4)), 1);
        // Stride-128 floats: one transaction per lane.
        assert_eq!(global_transactions(MemWidth::B32, &seq_addrs(32, 128)), 32);
        // 32 consecutive 128-bit accesses = 512 bytes = 4 transactions.
        assert_eq!(global_transactions(MemWidth::B128, &seq_addrs(32, 16)), 4);
        // Access straddling a segment boundary counts both.
        assert_eq!(global_transactions(MemWidth::B128, &[120]), 2);
        assert_eq!(global_transactions(MemWidth::B32, &[]), 0);
    }
}
