//! CPU reference GEMM (the correctness oracle).

use peakperf_sim::exec::ffma_lanes;

/// Transpose selector for one GEMM operand (`op(X) = X` or `op(X) = Xᵀ`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Trans {
    /// Use the matrix as stored.
    N,
    /// Use the transpose.
    T,
}

/// The four GEMM variants (`op(A)`, `op(B)`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Variant {
    /// `C = alpha * A * B + beta * C`.
    NN,
    /// `C = alpha * A * Bᵀ + beta * C`.
    NT,
    /// `C = alpha * Aᵀ * B + beta * C`.
    TN,
    /// `C = alpha * Aᵀ * Bᵀ + beta * C`.
    TT,
}

impl Variant {
    /// All four variants.
    pub const ALL: [Variant; 4] = [Variant::NN, Variant::NT, Variant::TN, Variant::TT];

    /// The `(op(A), op(B))` pair.
    pub fn ops(self) -> (Trans, Trans) {
        match self {
            Variant::NN => (Trans::N, Trans::N),
            Variant::NT => (Trans::N, Trans::T),
            Variant::TN => (Trans::T, Trans::N),
            Variant::TT => (Trans::T, Trans::T),
        }
    }

    /// Name as used in the paper's figures (`NN`, `NT`, ...).
    pub fn name(self) -> &'static str {
        match self {
            Variant::NN => "NN",
            Variant::NT => "NT",
            Variant::TN => "TN",
            Variant::TT => "TT",
        }
    }
}

/// Reference single-precision GEMM on column-major data:
/// `C := alpha * op(A) * op(B) + beta * C`.
///
/// `a` is `M×K` when `op(A) = N` (stored with leading dimension `lda`),
/// `K×M` when transposed; similarly for `b`. `c` is always `M×N` with
/// leading dimension `ldc`.
///
/// Each element is `fma(acc, alpha, beta·c)`, where `acc` starts at `0.0`
/// and takes one fused multiply-add `fma(op(A)[i,k], op(B)[k,j], acc)` per
/// `k`, ascending: the FFMA sequence of the simulated kernels, which
/// therefore compute the same bits. The fused multiply-adds are
/// [`ffma_lanes`], the simulator's own, run on 32-row strips of one
/// column of `C` at a time with `k` inner, down a copy of `op(A)` in
/// 32-lane rows of `f32` bits (`M×K` floats, `M` padded to a multiple of
/// 32).
///
/// # Panics
///
/// Panics if a slice is too small for its dimensions.
#[allow(clippy::too_many_arguments)]
pub fn sgemm(
    variant: Variant,
    m: usize,
    n: usize,
    k: usize,
    alpha: f32,
    a: &[f32],
    lda: usize,
    b: &[f32],
    ldb: usize,
    beta: f32,
    c: &mut [f32],
    ldc: usize,
) {
    let (ta, tb) = variant.ops();
    let strips = m.div_ceil(32);
    // Row `strip * k + kk`: `op(A)[strip·32 + l, kk]` in lane `l`.
    let op_a: Vec<[u32; 32]> = (0..strips * k)
        .map(|i| {
            let (strip, kk) = (i / k, i % k);
            std::array::from_fn(|l| {
                let row = strip * 32 + l;
                let x = match ta {
                    _ if row >= m => 0.0,
                    Trans::N => a[row + kk * lda],
                    Trans::T => a[kk + row * lda],
                };
                x.to_bits()
            })
        })
        .collect();
    let b_at = |kk: usize, col: usize| -> f32 {
        match tb {
            Trans::N => b[kk + col * ldb],
            Trans::T => b[col + kk * ldb],
        }
    };
    for col in 0..n {
        let c_col = &mut c[col * ldc..][..m];
        for strip in 0..strips {
            let mut acc = [0; 32];
            for (kk, row) in op_a[strip * k..][..k].iter().enumerate() {
                acc = ffma_lanes(row, &[b_at(kk, col).to_bits(); 32], &acc);
            }
            let c_strip = &mut c_col[strip * 32..m.min(strip * 32 + 32)];
            let mut scaled = [0; 32];
            for (scaled, &old) in scaled.iter_mut().zip(&*c_strip) {
                *scaled = (beta * old).to_bits();
            }
            let out = ffma_lanes(&acc, &[alpha.to_bits(); 32], &scaled);
            for (dst, bits) in c_strip.iter_mut().zip(out) {
                *dst = f32::from_bits(bits);
            }
        }
    }
}

/// Useful floating-point operations of a GEMM: `2·M·N·K`.
pub fn gemm_flops(m: u64, n: u64, k: u64) -> u64 {
    2 * m * n * k
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn identity_times_matrix() {
        // A = I (2x2), B arbitrary.
        let a = vec![1.0, 0.0, 0.0, 1.0];
        let b = vec![1.0, 2.0, 3.0, 4.0]; // cols: [1,2], [3,4]
        let mut c = vec![0.0; 4];
        sgemm(Variant::NN, 2, 2, 2, 1.0, &a, 2, &b, 2, 0.0, &mut c, 2);
        assert_eq!(c, b);
    }

    #[test]
    fn alpha_beta_combine() {
        let a = vec![1.0, 0.0, 0.0, 1.0];
        let b = vec![1.0, 1.0, 1.0, 1.0];
        let mut c = vec![10.0, 20.0, 30.0, 40.0];
        sgemm(Variant::NN, 2, 2, 2, 2.0, &a, 2, &b, 2, 0.5, &mut c, 2);
        assert_eq!(c, vec![2.0 + 5.0, 2.0 + 10.0, 2.0 + 15.0, 2.0 + 20.0]);
    }

    #[test]
    fn transpose_variants_agree_on_symmetric_data() {
        // With A symmetric, NN == TN; with B symmetric, NN == NT.
        let a = vec![1.0, 2.0, 2.0, 3.0];
        let b = vec![4.0, 5.0, 5.0, 6.0];
        let mut c1 = vec![0.0; 4];
        let mut c2 = vec![0.0; 4];
        let mut c3 = vec![0.0; 4];
        sgemm(Variant::NN, 2, 2, 2, 1.0, &a, 2, &b, 2, 0.0, &mut c1, 2);
        sgemm(Variant::TN, 2, 2, 2, 1.0, &a, 2, &b, 2, 0.0, &mut c2, 2);
        sgemm(Variant::NT, 2, 2, 2, 1.0, &a, 2, &b, 2, 0.0, &mut c3, 2);
        assert_eq!(c1, c2);
        assert_eq!(c1, c3);
    }

    #[test]
    fn rectangular_shapes() {
        // A: 2x3, B: 3x1 -> C: 2x1.
        let a = vec![1.0, 4.0, 2.0, 5.0, 3.0, 6.0]; // cols (1,4),(2,5),(3,6)
        let b = vec![1.0, 1.0, 1.0];
        let mut c = vec![0.0; 2];
        sgemm(Variant::NN, 2, 1, 3, 1.0, &a, 2, &b, 3, 0.0, &mut c, 2);
        assert_eq!(c, vec![6.0, 15.0]);
    }

    #[test]
    fn tt_matches_manual() {
        // A (KxM stored) = [[1,2],[3,4]] col-major, B (NxK stored).
        let a = vec![1.0, 3.0, 2.0, 4.0]; // 2x2: a(0,0)=1 a(1,0)=3 a(0,1)=2 a(1,1)=4
        let b = vec![5.0, 7.0, 6.0, 8.0];
        let mut c = vec![0.0; 4];
        sgemm(Variant::TT, 2, 2, 2, 1.0, &a, 2, &b, 2, 0.0, &mut c, 2);
        // op(A) = A^T = [[1,3],[2,4]], op(B) = B^T = [[5,7],[6,8]]
        // C = A^T B^T: C(0,0)=1*5+3*6=23, C(1,0)=2*5+4*6=34,
        //              C(0,1)=1*7+3*8=31, C(1,1)=2*7+4*8=46
        assert_eq!(c, vec![23.0, 34.0, 31.0, 46.0]);
    }

    /// The k-inner triple loop `sgemm` used to be: one `mul_add` chain per
    /// element.
    #[allow(clippy::too_many_arguments)]
    fn k_inner_sgemm(
        variant: Variant,
        m: usize,
        n: usize,
        k: usize,
        alpha: f32,
        a: &[f32],
        lda: usize,
        b: &[f32],
        ldb: usize,
        beta: f32,
        c: &mut [f32],
        ldc: usize,
    ) {
        let (ta, tb) = variant.ops();
        for col in 0..n {
            for row in 0..m {
                let mut acc = 0.0f32;
                for kk in 0..k {
                    let a = match ta {
                        Trans::N => a[row + kk * lda],
                        Trans::T => a[kk + row * lda],
                    };
                    let b = match tb {
                        Trans::N => b[kk + col * ldb],
                        Trans::T => b[col + kk * ldb],
                    };
                    acc = a.mul_add(b, acc);
                }
                let idx = row + col * ldc;
                c[idx] = acc.mul_add(alpha, beta * c[idx]);
            }
        }
    }

    #[test]
    fn column_form_matches_the_k_inner_loop_bit_for_bit() {
        let (m, n, k) = (37, 5, 19);
        let mut rng = crate::rng::Rng::seed_from_u64(0xC01);
        let mut random =
            |len: usize| -> Vec<f32> { (0..len).map(|_| rng.gen_range_f32(-3.0, 3.0)).collect() };
        for variant in Variant::ALL {
            let (ta, tb) = variant.ops();
            // Leading dimensions past the minimum, so padding must be skipped.
            let (lda, a_cols) = if ta == Trans::N {
                (m + 3, k)
            } else {
                (k + 2, m)
            };
            let (ldb, b_cols) = if tb == Trans::N {
                (k + 4, n)
            } else {
                (n + 1, k)
            };
            let ldc = m + 5;
            let (a, b, c0) = (random(lda * a_cols), random(ldb * b_cols), random(ldc * n));
            let (mut got, mut want) = (c0.clone(), c0);
            sgemm(
                variant, m, n, k, 1.5, &a, lda, &b, ldb, -0.75, &mut got, ldc,
            );
            k_inner_sgemm(
                variant, m, n, k, 1.5, &a, lda, &b, ldb, -0.75, &mut want, ldc,
            );
            let bits = |c: &[f32]| c.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&got), bits(&want), "{}", variant.name());
        }
    }

    #[test]
    fn flop_count() {
        assert_eq!(gemm_flops(1024, 1024, 1024), 2 * 1024 * 1024 * 1024);
    }
}
