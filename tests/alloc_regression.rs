//! Allocation-count regression tests for the workspace-reuse kernel layer.
//!
//! A counting global allocator wraps the system allocator; the `_in` eigen
//! kernels (Hessenberg / Francis QR, LU, Bunch–Kaufman `LDLᵀ`, the general and
//! the structured sign iteration, matmul-into), below and above the order
//! where the blocked inverse and the deflation windows engage, are run
//! once to warm a [`WorkspacePool`] and then again in steady state, where the
//! second pass must perform **zero** heap allocations.  A second test pins the
//! harness-level effect: the second identical passivity task on a thread must
//! allocate strictly less than the first (the per-thread pools are warm).

use ds_circuits::generators;
use ds_linalg::decomp::{hessenberg, ldlt, lu, schur};
use ds_linalg::sign::{self, SignOptions};
use ds_linalg::workspace::{ReflectorScratch, WorkspacePool};
use ds_linalg::{eigen, Complex, Matrix};
use ds_passivity::fast::{check_passivity, FastTestOptions};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::Mutex;

thread_local! {
    /// Allocations made by this thread.  The kernels under test run on the
    /// test's own thread, while libtest's threads allocate whenever another
    /// test reports, so a process-wide count saw stray allocations.
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

/// The tests still take turns, so timing-sensitive pool state is not shared
/// between two measured windows.
static SERIALIZE: Mutex<()> = Mutex::new(());

struct CountingAllocator;

fn count() {
    // A const-initialized `Cell` has no destructor, so the access neither
    // allocates nor fails during thread teardown.
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
}

// SAFETY: delegates directly to the system allocator; the counter is a
// thread-local cell with no other side effects.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOC: CountingAllocator = CountingAllocator;

fn allocations() -> u64 {
    ALLOCATIONS.with(Cell::get)
}

/// A stable, well-conditioned test matrix (sign iteration converges, Schur
/// iteration converges, LU is nonsingular).
fn stable_matrix(n: usize) -> Matrix {
    Matrix::from_fn(n, n, |i, j| {
        let v = ((i * 31 + j * 17 + 3) % 23) as f64 / 23.0 - 0.5;
        0.2 * v + if i == j { -2.0 - 0.05 * i as f64 } else { 0.0 }
    })
}

#[test]
fn eigen_kernels_are_allocation_free_in_steady_state() {
    let _guard = SERIALIZE
        .lock()
        .unwrap_or_else(|poisoned| poisoned.into_inner());
    let n = 48;
    let a = stable_matrix(n);
    let mut pool = WorkspacePool::new();
    let mut evals: Vec<Complex> = Vec::with_capacity(n);
    let mut h = Matrix::zeros(n, n);
    let mut q = Matrix::zeros(n, n);
    let mut refl = ReflectorScratch::new();
    let mut factor = lu::Lu::empty();
    let mut inverse = Matrix::zeros(n, n);
    let mut solution = Matrix::zeros(n, n);
    let mut sign_out = Matrix::zeros(n, n);
    let mut product = Matrix::zeros(n, n);
    // A Hamiltonian [[A, −I], [−I, −Aᵀ]] for the structured kernels, and its
    // symmetric J·H for the LDLᵀ.
    let half = n / 2;
    let a_half = stable_matrix(half);
    let identity = Matrix::identity(half).scale(-1.0);
    let hamiltonian = Matrix::from_blocks_2x2(
        &a_half,
        &identity,
        &identity,
        &a_half.transpose().scale(-1.0),
    );
    let symmetric = Matrix::from_blocks_2x2(
        &identity,
        &a_half.transpose().scale(-1.0),
        &a_half.scale(-1.0),
        &identity,
    );
    let mut factor_ldlt = ldlt::Ldlt::empty();
    let mut ldlt_scratch = Matrix::zeros(n, n);
    let mut hamiltonian_sign_out = Matrix::zeros(n, n);

    let mut run_all = |pool: &mut WorkspacePool| {
        eigen::eigenvalues_into(&a, pool.get(n), &mut evals).unwrap();
        h.copy_from(&a);
        hessenberg::reduce_in(&mut h, Some(&mut q), &mut refl).unwrap();
        h.copy_from(&a);
        // The compact-WY panel path must also reach zero steady-state
        // allocations once its panel buffers are warm.
        hessenberg::reduce_blocked_in(&mut h, Some(&mut q), &mut refl).unwrap();
        h.copy_from(&a);
        schur::real_schur_in(&mut h, None, &mut refl).unwrap();
        lu::factor_into(&a, &mut factor).unwrap();
        factor.inverse_into(&mut inverse).unwrap();
        factor.solve_into(&inverse, &mut solution).unwrap();
        sign::matrix_sign_into(&a, &SignOptions::default(), pool.get(n), &mut sign_out).unwrap();
        ldlt::factor_into(&symmetric, &mut factor_ldlt).unwrap();
        factor_ldlt
            .conjugated_inverse_into(&mut inverse, &mut ldlt_scratch)
            .unwrap();
        sign::hamiltonian_sign_into(
            &hamiltonian,
            &SignOptions::default(),
            pool.get(n),
            &mut hamiltonian_sign_out,
        )
        .unwrap();
        a.matmul_into(&inverse, &mut product).unwrap();
        a.transpose_matmul_into(&inverse, &mut product).unwrap();
    };

    // Warm-up: populates the pool and sizes every explicit buffer.
    run_all(&mut pool);
    let before = allocations();
    run_all(&mut pool);
    let after = allocations();
    assert_eq!(
        after - before,
        0,
        "steady-state eigen kernels performed {} heap allocations",
        after - before
    );
    // Sanity: the warm pass still computed real results.
    assert_eq!(evals.len(), n);
    assert!(sign_out
        .as_slice()
        .iter()
        .all(|&x| x.is_finite() && x < 0.5));
    assert!((&hamiltonian_sign_out * &hamiltonian_sign_out).approx_eq(&Matrix::identity(n), 1e-8));
}

#[test]
fn blocked_and_windowed_kernels_are_allocation_free_in_steady_state() {
    // From order 128 the `LDLᵀ` inverse runs register-blocked and the
    // Francis iteration opens deflation windows, all in workspace buffers.
    let _guard = SERIALIZE
        .lock()
        .unwrap_or_else(|poisoned| poisoned.into_inner());
    let n = 160;
    let half = n / 2;
    let a = stable_matrix(n);
    let a_half = stable_matrix(half);
    let identity = Matrix::identity(half).scale(-1.0);
    let hamiltonian = Matrix::from_blocks_2x2(
        &a_half,
        &identity,
        &identity,
        &a_half.transpose().scale(-1.0),
    );
    let symmetric = Matrix::from_blocks_2x2(
        &identity,
        &a_half.transpose().scale(-1.0),
        &a_half.scale(-1.0),
        &identity,
    );
    let mut pool = WorkspacePool::new();
    let mut evals: Vec<Complex> = Vec::with_capacity(n);
    let (mut h, mut q) = (Matrix::zeros(n, n), Matrix::zeros(n, n));
    let mut refl = ReflectorScratch::new();
    let mut factor = ldlt::Ldlt::empty();
    let (mut inverse, mut scratch) = (Matrix::zeros(n, n), Matrix::zeros(n, n));
    let mut sign_out = Matrix::zeros(n, n);
    let mut run_all = |pool: &mut WorkspacePool| {
        eigen::eigenvalues_into(&a, pool.get(n), &mut evals).unwrap();
        h.copy_from(&a);
        schur::real_schur_in(&mut h, Some(&mut q), &mut refl).unwrap();
        ldlt::factor_into(&symmetric, &mut factor).unwrap();
        factor
            .conjugated_inverse_into(&mut inverse, &mut scratch)
            .unwrap();
        sign::hamiltonian_sign_into(
            &hamiltonian,
            &SignOptions::default(),
            pool.get(n),
            &mut sign_out,
        )
        .unwrap();
    };
    run_all(&mut pool);
    let before = allocations();
    run_all(&mut pool);
    let after = allocations();
    assert_eq!(
        after - before,
        0,
        "steady-state blocked kernels performed {} heap allocations",
        after - before
    );
    assert_eq!(evals.len(), n);
    assert!((&sign_out * &sign_out).approx_eq(&Matrix::identity(n), 1e-8));
}

#[test]
fn sparse_spmv_kernels_are_allocation_free() {
    // The sparse mat-vec kernels feed the Krylov reduction's inner loop at
    // order 10⁴, where even one allocation per call would dominate; unlike
    // the eigen kernels they need no warm-up, so the very first call must
    // already be clean.
    let _guard = SERIALIZE
        .lock()
        .unwrap_or_else(|poisoned| poisoned.into_inner());
    let n = 500;
    let mut coo = ds_linalg::sparse::Coo::new(n, n);
    for i in 0..n {
        coo.push(i, i, 2.0 + i as f64 * 1e-3);
        if i + 1 < n {
            coo.push(i, i + 1, -1.0);
            coo.push(i + 1, i, -1.0);
        }
    }
    let csr = coo.to_csr();
    let x: Vec<f64> = (0..n).map(|i| (i as f64).sin()).collect();
    let mut y = vec![0.0; n];
    let mut z = vec![0.0; n];

    let before = allocations();
    for _ in 0..8 {
        csr.spmv_into(&x, &mut y);
        csr.spmv_transpose_into(&y, &mut z);
    }
    let after = allocations();
    assert_eq!(
        after - before,
        0,
        "sparse spmv kernels performed {} heap allocations",
        after - before
    );
    assert!(z.iter().all(|v| v.is_finite()));
}

#[test]
fn second_harness_task_of_same_order_allocates_less() {
    // One full passivity task on a fresh thread state, then the identical task
    // again: the second run hits the warm per-thread workspace pools (and the
    // warm buffers inside them), so its allocation count must drop.  The exact
    // counts vary with the flow's data-dependent branches, so only the
    // direction is pinned, not a constant.
    let _guard = SERIALIZE
        .lock()
        .unwrap_or_else(|poisoned| poisoned.into_inner());
    let model = generators::rlc_ladder_with_impulsive(20).unwrap();
    let options = FastTestOptions::default();

    let start = allocations();
    let first_report = check_passivity(&model.system, &options).unwrap();
    let first = allocations() - start;

    let start = allocations();
    let second_report = check_passivity(&model.system, &options).unwrap();
    let second = allocations() - start;

    assert_eq!(first_report.verdict, second_report.verdict);
    assert!(
        second < first,
        "steady-state task allocated no less than the cold task ({second} vs {first})"
    );
}
