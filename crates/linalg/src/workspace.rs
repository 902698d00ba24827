//! Reusable scratch buffers for the eigenvalue / sign-function hot path.
//!
//! The passivity sweep solves long streams of same-order problems; allocating
//! fresh matrices for every Hessenberg reduction, Francis sweep, LU solve and
//! Newton sign iterate dominated the allocator profile.  An [`EigenWorkspace`]
//! owns every scratch buffer those kernels need; a [`WorkspacePool`] keys
//! workspaces by matrix dimension so a worker thread solving mixed orders
//! reaches steady state with **zero heap allocation inside the kernels**
//! (pinned by `tests/alloc_regression.rs`).
//!
//! Two usage styles:
//!
//! * explicit — construct a pool, pass `pool.get(n)` to the `_in` kernels
//!   ([`crate::eigen::eigenvalues_into`], [`crate::sign::matrix_sign_into`],
//!   …);
//! * implicit — the classic public entry points ([`crate::eigen::eigenvalues`],
//!   [`crate::sign::matrix_sign`], [`crate::decomp::schur::real_schur`]) route
//!   their scratch through a per-thread pool automatically, so every sweep
//!   worker thread owns one pool and reuses it across tasks without any caller
//!   changes.

use crate::decomp::ldlt::Ldlt;
use crate::decomp::lu::Lu;
use crate::matrix::Matrix;
use std::cell::RefCell;
use std::collections::HashMap;

/// Scratch buffers for the Householder reflector kernels
/// ([`crate::decomp::hessenberg::reduce_in`],
/// [`crate::decomp::schur::real_schur_in`]).
///
/// Holds the per-reflector vectors of the unblocked paths plus the compact-WY
/// panel storage (`V`, `T`, `U = A·V` and a general panel temporary) of the
/// blocked paths.  All buffers are lazily resized by the kernels, so a warm
/// scratch makes repeated same-order reductions allocation-free.
#[derive(Debug, Default)]
pub struct ReflectorScratch {
    /// Householder-vector scratch.
    pub(crate) hv: Vec<f64>,
    /// Per-column dot-product scratch for the two-pass reflector updates.
    pub(crate) dots: Vec<f64>,
    /// Compact-WY reflector panel `V` (row-major, leading dimension `nb`).
    pub(crate) panel_v: Vec<f64>,
    /// Compact-WY triangular factor `T` (`nb x nb`, row-major).
    pub(crate) panel_t: Vec<f64>,
    /// Panel product `U = A·V` (row-major, leading dimension `nb`).
    pub(crate) panel_u: Vec<f64>,
    /// General panel temporary (`W = U·T`, `Z = Vᵀ·A`, `Q·V`).
    pub(crate) panel_w: Vec<f64>,
    /// Full-column temporary for the on-demand panel column updates.
    pub(crate) col: Vec<f64>,
    /// The Francis iteration's deflation window, its orthogonal factor and
    /// a row temporary for applying that factor.
    pub(crate) window: Matrix,
    pub(crate) window_q: Matrix,
    pub(crate) window_row: Vec<f64>,
}

impl ReflectorScratch {
    /// A fresh scratch with empty buffers (they grow on first use).
    pub fn new() -> Self {
        ReflectorScratch::default()
    }

    /// Approximate resident size of the buffers, in bytes.
    pub fn resident_bytes(&self) -> usize {
        (self.hv.len()
            + self.dots.len()
            + self.panel_v.len()
            + self.panel_t.len()
            + self.panel_u.len()
            + self.panel_w.len()
            + self.col.len()
            + self.window.as_slice().len()
            + self.window_q.as_slice().len()
            + self.window_row.len())
            * std::mem::size_of::<f64>()
    }
}

/// Per-dimension scratch buffers for the eigen kernels.
///
/// The buffers are lazily resized by the kernels; after the first problem of a
/// given dimension they are warm and subsequent calls allocate nothing.
#[derive(Debug)]
pub struct EigenWorkspace {
    /// Working matrix for the Schur / Hessenberg form (and the sign iterate).
    pub(crate) t: Matrix,
    /// General square temporary (sign iteration: the inverse iterate).
    pub(crate) w1: Matrix,
    /// Second general square temporary (sign iteration: the next iterate).
    pub(crate) w2: Matrix,
    /// Reusable LU factorization storage (matrix + pivot vector).
    pub(crate) lu: Lu,
    /// Reusable `LDLᵀ` factorization storage (the structured sign iteration).
    pub(crate) ldlt: Ldlt,
    /// Householder reflector scratch (unblocked vectors + compact-WY panels).
    pub(crate) refl: ReflectorScratch,
}

impl EigenWorkspace {
    /// A fresh workspace with empty buffers (they grow on first use).
    pub fn new() -> Self {
        EigenWorkspace {
            t: Matrix::zeros(0, 0),
            w1: Matrix::zeros(0, 0),
            w2: Matrix::zeros(0, 0),
            lu: Lu::empty(),
            ldlt: Ldlt::empty(),
            refl: ReflectorScratch::new(),
        }
    }

    /// Approximate resident size of the buffers, in bytes.
    pub fn resident_bytes(&self) -> usize {
        let mat = |m: &Matrix| std::mem::size_of_val(m.as_slice());
        mat(&self.t)
            + mat(&self.w1)
            + mat(&self.w2)
            + mat(&self.lu.lu)
            + self.lu.perm.len() * std::mem::size_of::<usize>()
            + mat(&self.ldlt.l)
            + (self.ldlt.d.len() + self.ldlt.e.len()) * std::mem::size_of::<f64>()
            + self.ldlt.perm.len() * std::mem::size_of::<usize>()
            + self.refl.resident_bytes()
    }
}

impl Default for EigenWorkspace {
    fn default() -> Self {
        EigenWorkspace::new()
    }
}

/// Usage counters of a [`WorkspacePool`] (also aggregated across sweep
/// workers by `ds-harness`).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PoolStats {
    /// `get` calls that found a warm workspace for the requested dimension.
    pub hits: u64,
    /// `get` calls that had to create a fresh workspace.
    pub misses: u64,
    /// Number of distinct dimensions currently resident.
    pub resident: u64,
    /// Approximate resident buffer bytes across all workspaces.
    pub resident_bytes: u64,
}

impl PoolStats {
    /// Element-wise sum, for aggregating per-thread stats.
    #[must_use]
    pub fn merged(self, other: PoolStats) -> PoolStats {
        PoolStats {
            hits: self.hits + other.hits,
            misses: self.misses + other.misses,
            resident: self.resident + other.resident,
            resident_bytes: self.resident_bytes + other.resident_bytes,
        }
    }
}

/// Upper bound on distinct dimensions resident in one pool; a single
/// passivity task touches well under a dozen.
const MAX_RESIDENT_SLOTS: usize = 32;

/// Soft byte budget per pool.  A dimension-800 workspace is ~20 MiB, so the
/// budget keeps a handful of large dimensions warm while preventing a
/// long-lived worker sweeping mixed orders from accumulating scratch without
/// bound.
const RESIDENT_BYTE_BUDGET: usize = 128 * 1024 * 1024;

#[derive(Debug)]
struct Slot {
    ws: EigenWorkspace,
    last_used: u64,
}

/// A pool of [`EigenWorkspace`]s keyed by matrix dimension.
///
/// Residency is bounded: at most `MAX_RESIDENT_SLOTS` dimensions and (softly)
/// `RESIDENT_BYTE_BUDGET` bytes stay warm, with least-recently-used
/// workspaces evicted first — so a long-lived worker sweeping arbitrary order
/// mixes cannot grow its scratch without bound.
#[derive(Debug, Default)]
pub struct WorkspacePool {
    slots: HashMap<usize, Slot>,
    clock: u64,
    hits: u64,
    misses: u64,
    evictions: u64,
}

impl WorkspacePool {
    /// An empty pool.
    pub fn new() -> Self {
        WorkspacePool::default()
    }

    /// The workspace for dimension `n`, created on first request.
    pub fn get(&mut self, n: usize) -> &mut EigenWorkspace {
        self.clock += 1;
        let clock = self.clock;
        if !self.slots.contains_key(&n) {
            self.misses += 1;
            self.evict_for(n);
            self.slots.insert(
                n,
                Slot {
                    ws: EigenWorkspace::new(),
                    last_used: clock,
                },
            );
        } else {
            self.hits += 1;
        }
        let slot = self.slots.get_mut(&n).expect("slot just ensured");
        slot.last_used = clock;
        &mut slot.ws
    }

    /// Evicts least-recently-used slots until both residency budgets have room
    /// for one more entry (`keep` is never evicted).
    fn evict_for(&mut self, keep: usize) {
        loop {
            let bytes: usize = self.slots.values().map(|s| s.ws.resident_bytes()).sum();
            if self.slots.len() < MAX_RESIDENT_SLOTS && bytes <= RESIDENT_BYTE_BUDGET {
                return;
            }
            let victim = self
                .slots
                .iter()
                .filter(|(&dim, _)| dim != keep)
                .min_by_key(|(_, slot)| slot.last_used)
                .map(|(&dim, _)| dim);
            match victim {
                Some(dim) => {
                    self.slots.remove(&dim);
                    self.evictions += 1;
                }
                None => return,
            }
        }
    }

    /// Usage counters and resident-size estimate.
    pub fn stats(&self) -> PoolStats {
        PoolStats {
            hits: self.hits,
            misses: self.misses,
            resident: self.slots.len() as u64,
            resident_bytes: self
                .slots
                .values()
                .map(|slot| slot.ws.resident_bytes() as u64)
                .sum(),
        }
    }

    /// Number of workspaces evicted by the residency budgets so far.
    pub fn evictions(&self) -> u64 {
        self.evictions
    }

    /// Drops all resident workspaces (counters are kept).
    pub fn clear(&mut self) {
        self.slots.clear();
    }
}

thread_local! {
    static THREAD_POOL: RefCell<WorkspacePool> = RefCell::new(WorkspacePool::new());
}

/// Runs `f` with this thread's workspace pool.
///
/// Every thread owns exactly one pool, so the sweep harness's worker threads
/// reuse warm buffers across tasks with no coordination.  If the pool is
/// already borrowed further up the stack (a kernel re-entering a pooled
/// wrapper), `f` runs against a fresh temporary pool instead — correct, just
/// without reuse.
pub fn with_thread_pool<R>(f: impl FnOnce(&mut WorkspacePool) -> R) -> R {
    THREAD_POOL.with(|cell| match cell.try_borrow_mut() {
        Ok(mut pool) => f(&mut pool),
        Err(_) => f(&mut WorkspacePool::new()),
    })
}

/// Usage counters of this thread's pool (zeros while the pool is borrowed).
pub fn thread_pool_stats() -> PoolStats {
    THREAD_POOL.with(|cell| {
        cell.try_borrow()
            .map(|pool| pool.stats())
            .unwrap_or_default()
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pool_counts_hits_and_misses() {
        let mut pool = WorkspacePool::new();
        pool.get(4);
        pool.get(4);
        pool.get(8);
        let stats = pool.stats();
        assert_eq!(stats.misses, 2);
        assert_eq!(stats.hits, 1);
        assert_eq!(stats.resident, 2);
        pool.clear();
        assert_eq!(pool.stats().resident, 0);
    }

    #[test]
    fn thread_pool_is_reentrancy_safe() {
        let outer = with_thread_pool(|pool| {
            pool.get(3);
            // Re-entering while borrowed must not panic; it falls back to a
            // temporary pool.
            with_thread_pool(|inner| inner.get(3).resident_bytes())
        });
        let _ = outer;
        assert!(thread_pool_stats().misses >= 1);
    }

    #[test]
    fn residency_is_bounded_with_lru_eviction() {
        let mut pool = WorkspacePool::new();
        for n in 1..=(MAX_RESIDENT_SLOTS + 8) {
            pool.get(n);
        }
        let stats = pool.stats();
        assert!(stats.resident <= MAX_RESIDENT_SLOTS as u64);
        assert!(pool.evictions() >= 8);
        // The most recent dimensions survive; the oldest were evicted.
        let newest = MAX_RESIDENT_SLOTS + 8;
        let before = pool.stats().misses;
        pool.get(newest);
        assert_eq!(pool.stats().misses, before, "newest dimension stayed warm");
    }

    #[test]
    fn stats_merge_elementwise() {
        let a = PoolStats {
            hits: 1,
            misses: 2,
            resident: 3,
            resident_bytes: 4,
        };
        let b = PoolStats {
            hits: 10,
            misses: 20,
            resident: 30,
            resident_bytes: 40,
        };
        let m = a.merged(b);
        assert_eq!(m.hits, 11);
        assert_eq!(m.misses, 22);
        assert_eq!(m.resident, 33);
        assert_eq!(m.resident_bytes, 44);
    }
}
