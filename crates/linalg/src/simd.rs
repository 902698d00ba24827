//! Runtime-dispatched vector width for the dense kernels.
//!
//! The portable build targets baseline x86-64, whose vector unit is the
//! 2-wide SSE2.  [`wide`] runs a kernel body inside an instance compiled
//! with AVX2 enabled, so LLVM vectorizes its element-wise loops 4-wide, when
//! the CPU reports AVX2, and inline otherwise.  Nothing else selects the
//! instance: no option, environment variable or build flag.
//!
//! Both instances compute the same bits.  The AVX2 instance does not enable
//! FMA (Rust never contracts `a * b + c` on its own), and LLVM vectorizes
//! only loops whose element order it may keep: independent updates such as
//! `y[j] += a * x[j]`, never a reduction into one accumulator.  Each
//! dispatched kernel keeps its body as an `#[inline(always)]` function, and
//! its tests compare the dispatched entry point with a direct call of that
//! body, which is the baseline instance.

/// Runs `body` in an AVX2 instance when the CPU supports AVX2, and inline
/// otherwise.
///
/// `body` should be an `#[inline(always)]` closure around an
/// `#[inline(always)]` kernel body: only a body inlined into the AVX2
/// instance is compiled for AVX2, and LLVM leaves a large closure out of
/// line, compiled for the baseline, unless the closure is marked.
#[inline(always)]
#[allow(unsafe_code)]
pub fn wide<R>(body: impl FnOnce() -> R) -> R {
    #[cfg(target_arch = "x86_64")]
    if std::arch::is_x86_feature_detected!("avx2") {
        // SAFETY: `avx2` requires nothing but the AVX2 target feature, and
        // the CPU has just reported it.
        return unsafe { avx2(body) };
    }
    body()
}

/// The AVX2 instance of [`wide`].
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
fn avx2<R>(body: impl FnOnce() -> R) -> R {
    body()
}

#[cfg(test)]
mod tests {
    //! Every dispatched kernel against a direct call of its body, the
    //! baseline instance.  On a CPU without AVX2 both sides run the baseline
    //! instance.  The orders cover the remainders of 4-wide and 4-way loops,
    //! the matmul block edge (32) and both sides of the blocked Hessenberg
    //! threshold (128).

    use crate::decomp::{hessenberg, ldlt, schur};
    use crate::matrix::{matmul_body, transpose_matmul_body};
    use crate::workspace::ReflectorScratch;
    use crate::Matrix;

    const ORDERS: [usize; 15] = [1, 2, 3, 4, 5, 6, 7, 8, 9, 63, 64, 127, 128, 129, 200];

    /// Uniform entries in `[-0.5, 0.5)` from a xorshift stream.
    fn random(rows: usize, cols: usize, seed: u64) -> Matrix {
        let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
        Matrix::from_fn(rows, cols, |_, _| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state >> 11) as f64 / (1u64 << 53) as f64 - 0.5
        })
    }

    /// `random` with about half its entries exact zeros of either sign, so
    /// the kernels' zero skips run.
    fn with_zeros(rows: usize, cols: usize, seed: u64) -> Matrix {
        let mask = random(rows, cols, seed ^ 0x5A5A);
        let mut m = random(rows, cols, seed);
        for (x, &r) in m.as_mut_slice().iter_mut().zip(mask.as_slice()) {
            if r < -0.25 {
                *x = 0.0;
            } else if r < 0.0 {
                *x = -0.0;
            }
        }
        m
    }

    /// `random` with an infinity and a NaN.
    fn non_finite(rows: usize, cols: usize, seed: u64) -> Matrix {
        let mut m = random(rows, cols, seed);
        let len = m.as_slice().len();
        m.as_mut_slice()[len / 2] = f64::INFINITY;
        m.as_mut_slice()[len - 1] = f64::NAN;
        m
    }

    fn symmetric(m: &Matrix) -> Matrix {
        Matrix::from_fn(m.rows(), m.cols(), |i, j| {
            if i >= j {
                m[(i, j)]
            } else {
                m[(j, i)]
            }
        })
    }

    /// A symmetric matrix with a zero diagonal: every pivot column's
    /// diagonal entry loses to the column below it, so Bunch–Kaufman takes
    /// 2×2 pivots.
    fn zero_diagonal(n: usize, seed: u64) -> Matrix {
        let mut m = symmetric(&random(n, n, seed));
        for i in 0..n {
            m[(i, i)] = 0.0;
        }
        m
    }

    /// The matrices each kernel runs on at order `n`.
    fn inputs(n: usize) -> Vec<Matrix> {
        let seed = n as u64;
        vec![
            random(n, n, seed),
            with_zeros(n, n, seed + 1),
            non_finite(n, n, seed + 2),
        ]
    }

    /// Bit equality, except that any two NaNs match: LLVM may commute an
    /// addition's operands, which decides whose payload a NaN sum carries.
    fn assert_same_bits(label: &str, dispatched: &[f64], baseline: &[f64]) {
        assert_eq!(dispatched.len(), baseline.len(), "{label}: lengths");
        for (k, (x, y)) in dispatched.iter().zip(baseline).enumerate() {
            assert!(
                x.to_bits() == y.to_bits() || (x.is_nan() && y.is_nan()),
                "{label}: entry {k} is {x:e} dispatched, {y:e} baseline"
            );
        }
    }

    #[test]
    fn matmul_kernels_match_their_bodies() {
        for n in ORDERS {
            for (t, a) in inputs(n).iter().enumerate() {
                // A rectangular right operand runs other remainder widths.
                for b in [random(n, n + 3, 7), with_zeros(n, n, 8)] {
                    let label = format!("n={n} input {t} b {}x{}", b.rows(), b.cols());
                    let (mut fast, mut base) = (Matrix::zeros(0, 0), Matrix::zeros(0, 0));
                    a.matmul_into(&b, &mut fast).unwrap();
                    base.resize_uninit(n, b.cols());
                    matmul_body(a, &b, &mut base);
                    assert_same_bits(&label, fast.as_slice(), base.as_slice());
                    a.transpose_matmul_into(&b, &mut fast).unwrap();
                    transpose_matmul_body(a, &b, &mut base);
                    assert_same_bits(&label, fast.as_slice(), base.as_slice());
                }
            }
        }
    }

    #[test]
    fn ldlt_kernels_match_their_bodies() {
        let mut two_by_two = false;
        for n in ORDERS {
            let mut matrices: Vec<Matrix> = inputs(n).iter().map(symmetric).collect();
            matrices.push(zero_diagonal(n, n as u64 + 3));
            for (t, a) in matrices.iter().enumerate() {
                let label = format!("n={n} input {t}");
                let (mut fast, mut base) = (ldlt::Ldlt::empty(), ldlt::Ldlt::empty());
                ldlt::factor_into(a, &mut fast).unwrap();
                ldlt::factor_body(a, &mut base);
                assert_same_bits(&label, fast.l.as_slice(), base.l.as_slice());
                assert_same_bits(&label, &fast.d, &base.d);
                assert_same_bits(&label, &fast.e, &base.e);
                assert_eq!(fast.perm, base.perm, "{label}");
                assert_eq!(fast.singular, base.singular, "{label}");
                two_by_two |= fast.e.iter().any(|&e| e != 0.0);
                if fast.singular {
                    continue;
                }
                // The blocked J-conjugated kernel, and the unblocked reference.
                for production in [true, false] {
                    if production && n % 2 == 1 {
                        continue;
                    }
                    let (mut x, mut scratch) = (Matrix::zeros(0, 0), Matrix::zeros(0, 0));
                    if production {
                        fast.conjugated_inverse_into(&mut x, &mut scratch).unwrap();
                    } else {
                        fast.inverse_unblocked_into(&mut x, &mut scratch).unwrap();
                    }
                    let (mut y, mut scratch) = (Matrix::zeros(0, 0), Matrix::zeros(0, 0));
                    let blocked = production && n >= ldlt::BLOCKED_INVERSE_MIN_DIM;
                    base.inverse_body(&mut y, &mut scratch, blocked, production);
                    assert_same_bits(&label, x.as_slice(), y.as_slice());
                }
            }
        }
        assert!(two_by_two, "no input took a 2×2 pivot");
    }

    #[test]
    fn hessenberg_kernel_matches_its_body() {
        let mut scratch = ReflectorScratch::new();
        for n in ORDERS {
            for (t, a) in inputs(n).iter().enumerate() {
                for with_q in [true, false] {
                    let label = format!("n={n} input {t} q {with_q}");
                    let blocked = n >= hessenberg::BLOCKED_MIN_DIM;
                    let (mut h_fast, mut h_base) = (a.clone(), a.clone());
                    let (mut q_fast, mut q_base) = (Matrix::zeros(0, 0), Matrix::zeros(0, 0));
                    hessenberg::reduce_in(&mut h_fast, with_q.then_some(&mut q_fast), &mut scratch)
                        .unwrap();
                    hessenberg::reduce_body(
                        &mut h_base,
                        with_q.then_some(&mut q_base),
                        &mut scratch,
                        blocked,
                    );
                    assert_same_bits(&label, h_fast.as_slice(), h_base.as_slice());
                    assert_same_bits(&label, q_fast.as_slice(), q_base.as_slice());
                }
            }
        }
    }

    #[test]
    fn schur_kernel_matches_its_body() {
        let mut scratch = ReflectorScratch::new();
        for n in ORDERS {
            for (t, a) in inputs(n).iter().enumerate() {
                for with_q in [true, false] {
                    let label = format!("n={n} input {t} q {with_q}");
                    let (mut t_fast, mut t_base) = (a.clone(), a.clone());
                    let (mut q_fast, mut q_base) = (Matrix::zeros(0, 0), Matrix::zeros(0, 0));
                    let fast = schur::real_schur_in(
                        &mut t_fast,
                        with_q.then_some(&mut q_fast),
                        &mut scratch,
                    );
                    let base = schur::real_schur_body(
                        &mut t_base,
                        with_q.then_some(&mut q_base),
                        &mut scratch,
                        true,
                    );
                    assert_eq!(fast.is_ok(), base.is_ok(), "{label}");
                    assert_same_bits(&label, t_fast.as_slice(), t_base.as_slice());
                    assert_same_bits(&label, q_fast.as_slice(), q_base.as_slice());
                }
            }
        }
    }
}
