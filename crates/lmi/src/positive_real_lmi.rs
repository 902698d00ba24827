//! The extended positive-real LMI for descriptor systems (paper eq. (4)) and a
//! first-order feasibility solver.
//!
//! The LMI asks for an `X ∈ R^{n×n}` with
//!
//! ```text
//! F(X) = [ AᵀX + XᵀA    XᵀB − Cᵀ ]
//!        [ BᵀX − C     −(D + Dᵀ) ]   ⪯ 0,        EᵀX = XᵀE ⪰ 0.
//! ```
//!
//! Feasibility is sufficient for positive realness of the descriptor system
//! (and necessary under the minimality/feedthrough conditions stated in the
//! paper).  The solver below minimizes the squared distance of `F(X)` to the
//! negative-semidefinite cone plus the violation of the `EᵀX` conditions by
//! projected gradient descent; it is intentionally a *generic, unstructured*
//! method — this is the expensive baseline the paper's structured O(n³) test is
//! compared against.

use crate::error::LmiError;
use ds_descriptor::DescriptorSystem;
use ds_linalg::decomp::symmetric;
use ds_linalg::Matrix;

/// Options for the LMI feasibility solver.
#[derive(Debug, Clone)]
pub struct LmiOptions {
    /// Maximum number of gradient iterations.
    pub max_iterations: usize,
    /// Feasibility is declared when the total cone-violation objective drops
    /// below `tolerance * scale²`.
    pub tolerance: f64,
    /// Step-size safety factor (relative to the inverse Lipschitz estimate).
    pub step_scale: f64,
}

impl Default for LmiOptions {
    fn default() -> Self {
        LmiOptions {
            max_iterations: 10_000,
            tolerance: 1e-8,
            step_scale: 0.9,
        }
    }
}

/// Outcome of the LMI feasibility solve.
#[derive(Debug, Clone)]
pub enum LmiOutcome {
    /// A feasible `X` was found: the LMI certifies positive realness.
    Feasible {
        /// The feasible point.
        x: Matrix,
        /// Iterations used.
        iterations: usize,
        /// Final objective value (cone-violation measure).
        objective: f64,
    },
    /// The solver exhausted its iteration budget with a non-negligible
    /// violation: the LMI is (numerically) infeasible, i.e. the test cannot
    /// certify passivity.  For the workloads in this repository that is
    /// interpreted as "not passive".
    Infeasible {
        /// Final objective value (cone-violation measure).
        objective: f64,
        /// Iterations used.
        iterations: usize,
    },
}

/// The positive-real LMI attached to a specific descriptor system.
#[derive(Debug, Clone)]
pub struct DsPositiveRealLmi {
    e: Matrix,
    a: Matrix,
    b: Matrix,
    c: Matrix,
    r: Matrix,
    scale: f64,
}

impl DsPositiveRealLmi {
    /// Builds the LMI data for a square descriptor system.
    ///
    /// # Errors
    ///
    /// Returns [`LmiError::NotSquareSystem`] for non-square systems.
    pub fn new(sys: &DescriptorSystem) -> Result<Self, LmiError> {
        if !sys.is_square_system() {
            return Err(LmiError::NotSquareSystem {
                inputs: sys.num_inputs(),
                outputs: sys.num_outputs(),
            });
        }
        let r = sys.d() + &sys.d().transpose();
        Ok(DsPositiveRealLmi {
            e: sys.e().clone(),
            a: sys.a().clone(),
            b: sys.b().clone(),
            c: sys.c().clone(),
            r,
            scale: sys.scale(),
        })
    }

    /// State dimension `n`.
    pub fn order(&self) -> usize {
        self.a.rows()
    }

    /// Evaluates the LMI block matrix `F(X)`.
    pub fn f_of_x(&self, x: &Matrix) -> Matrix {
        let xta = x.transpose_matmul(&self.a).expect("shape");
        let f11 = &xta.transpose() + &xta;
        let f12 = &x.transpose_matmul(&self.b).expect("shape") - &self.c.transpose();
        let f21 = f12.transpose();
        let f22 = self.r.scale(-1.0);
        Matrix::from_blocks_2x2(&f11, &f12, &f21, &f22)
    }

    /// The cone-violation objective
    /// `½‖Π₊(F(X))‖² + ½‖Π₋(sym(EᵀX))‖² + ½‖EᵀX − XᵀE‖²` together with its
    /// gradient with respect to `X`.
    ///
    /// # Errors
    ///
    /// Propagates eigensolver failures from the cone projections.
    pub fn objective_and_gradient(&self, x: &Matrix) -> Result<(f64, Matrix), LmiError> {
        // Positive part of F(X): the violation of F ⪯ 0.
        let f = self.f_of_x(x).symmetric_part();
        let f_plus = symmetric::project_psd(&f)?;
        // EᵀX conditions.
        let etx = self.e.transpose_matmul(x)?;
        let asym = &etx - &etx.transpose();
        let sym = etx.symmetric_part();
        // Negative part of sym(EᵀX): violation of EᵀX ⪰ 0.
        let sym_minus = symmetric::project_psd(&sym.scale(-1.0))?;

        let objective = 0.5
            * (f_plus.norm_fro().powi(2) + sym_minus.norm_fro().powi(2) + asym.norm_fro().powi(2));

        // Gradient contributions (see the adjoint computations in the module
        // documentation of the repository's DESIGN notes):
        //   d/dX ½‖Π₊(F)‖²      = 2 (A S₁₁ + B S₂₁)  with S = Π₊(F)
        //   d/dX ½‖Π₋(sym)‖²    = −E T               with T = Π₋(sym(EᵀX)) = −sym_minus
        //   d/dX ½‖EᵀX − XᵀE‖²  = 2 E (EᵀX − XᵀE)
        let n = self.order();
        let s11 = f_plus.block(0, n, 0, n);
        let s21 = f_plus.block(n, f_plus.rows(), 0, n);
        let grad_f = (&self.a.matmul(&s11)? + &self.b.matmul(&s21)?).scale(2.0);
        let grad_sym = self.e.matmul(&sym_minus)?.scale(-1.0);
        let grad_asym = self.e.matmul(&asym)?.scale(2.0);
        let gradient = &(&grad_f + &grad_sym) + &grad_asym;
        Ok((objective, gradient))
    }

    /// Runs accelerated (Nesterov/FISTA-style) gradient feasibility.
    ///
    /// The cone-violation objective is convex with a Lipschitz gradient, so the
    /// accelerated scheme converges at the O(1/k²) rate; feasibility is
    /// declared when the violation drops below the (scaled) tolerance or has
    /// decreased by ten orders of magnitude from its initial value.
    ///
    /// # Errors
    ///
    /// Propagates numerical failures; infeasibility is reported through
    /// [`LmiOutcome::Infeasible`], not as an error.
    pub fn solve(&self, options: &LmiOptions) -> Result<LmiOutcome, LmiError> {
        let n = self.order();
        // Initial guess: X = Eᵀ makes EᵀX = EᵀE ⪰ 0 and symmetric.
        let mut x = self.e.transpose();
        if x.norm_fro() == 0.0 {
            x = Matrix::identity(n).scale(0.1);
        }
        // Lipschitz-style estimate for the gradient of the quadratic pieces.
        let lip = (self.a.norm_fro() + self.b.norm_fro()).powi(2) + 3.0 * self.e.norm_fro().powi(2);
        let step = options.step_scale / lip.max(1e-12);
        let tol = options.tolerance * self.scale.powi(2);

        let mut x_prev = x.clone();
        let mut momentum = 1.0_f64;
        let mut objective = f64::INFINITY;
        let mut initial_objective = None;
        for iter in 0..options.max_iterations {
            // Extrapolated point.
            let momentum_next = 0.5 * (1.0 + (1.0 + 4.0 * momentum * momentum).sqrt());
            let beta = (momentum - 1.0) / momentum_next;
            let y = &x + &(&x - &x_prev).scale(beta);
            let (obj_y, grad_y) = self.objective_and_gradient(&y)?;
            let candidate = &y - &grad_y.scale(step);
            let (obj_x, _) = self.objective_and_gradient(&candidate)?;
            x_prev = x;
            x = candidate;
            momentum = momentum_next;
            objective = obj_x.min(obj_y);
            let initial = *initial_objective.get_or_insert(obj_y.max(f64::MIN_POSITIVE));
            if objective <= tol || objective <= 1e-10 * initial {
                return Ok(LmiOutcome::Feasible {
                    x,
                    iterations: iter,
                    objective,
                });
            }
        }
        Ok(LmiOutcome::Infeasible {
            objective,
            iterations: options.max_iterations,
        })
    }
}

/// Convenience wrapper: builds the LMI for `sys` and solves it.
///
/// # Errors
///
/// See [`DsPositiveRealLmi::new`] and [`DsPositiveRealLmi::solve`].
pub fn lmi_feasibility(
    sys: &DescriptorSystem,
    options: &LmiOptions,
) -> Result<LmiOutcome, LmiError> {
    DsPositiveRealLmi::new(sys)?.solve(options)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ds_linalg::Matrix;

    fn passive_rc() -> DescriptorSystem {
        // Impedance of R ∥ C in series with r: strictly passive, E singular.
        let e = Matrix::diag(&[1.0, 0.0]);
        let a = Matrix::from_rows(&[&[-1.0, 0.0], &[0.0, -1.0]]);
        let b = Matrix::from_rows(&[&[1.0], &[1.0]]);
        let c = Matrix::from_rows(&[&[1.0, 0.0]]);
        let d = Matrix::filled(1, 1, 0.5);
        DescriptorSystem::new(e, a, b, c, d).unwrap()
    }

    fn nonpassive() -> DescriptorSystem {
        // Negative resistor at DC: G(0) < 0.
        let e = Matrix::diag(&[1.0, 0.0]);
        let a = Matrix::from_rows(&[&[-1.0, 0.0], &[0.0, -1.0]]);
        let b = Matrix::from_rows(&[&[1.0], &[1.0]]);
        let c = Matrix::from_rows(&[&[1.0, 0.0]]);
        let d = Matrix::filled(1, 1, -2.0);
        DescriptorSystem::new(e, a, b, c, d).unwrap()
    }

    #[test]
    fn lmi_structure_blocks() {
        let lmi = DsPositiveRealLmi::new(&passive_rc()).unwrap();
        let x = Matrix::identity(2);
        let f = lmi.f_of_x(&x);
        assert_eq!(f.shape(), (3, 3));
        // F22 = −(D + Dᵀ) = −1.
        assert!((f[(2, 2)] + 1.0).abs() < 1e-14);
        assert!(f.is_symmetric(1e-12));
    }

    #[test]
    fn gradient_matches_finite_differences() {
        let lmi = DsPositiveRealLmi::new(&nonpassive()).unwrap();
        let x0 = Matrix::from_rows(&[&[0.4, 0.1], &[-0.2, 0.3]]);
        let (f0, grad) = lmi.objective_and_gradient(&x0).unwrap();
        let h = 1e-6;
        for i in 0..2 {
            for j in 0..2 {
                let mut xp = x0.clone();
                xp[(i, j)] += h;
                let (fp, _) = lmi.objective_and_gradient(&xp).unwrap();
                let fd = (fp - f0) / h;
                assert!(
                    (fd - grad[(i, j)]).abs() < 1e-4 * (1.0 + fd.abs()),
                    "gradient mismatch at ({i},{j}): fd {fd} vs {g}",
                    g = grad[(i, j)]
                );
            }
        }
    }

    #[test]
    fn passive_system_is_feasible() {
        let outcome = lmi_feasibility(&passive_rc(), &LmiOptions::default()).unwrap();
        assert!(
            matches!(outcome, LmiOutcome::Feasible { .. }),
            "expected feasibility, got {outcome:?}"
        );
        if let LmiOutcome::Feasible { x, .. } = outcome {
            let lmi = DsPositiveRealLmi::new(&passive_rc()).unwrap();
            let (obj, _) = lmi.objective_and_gradient(&x).unwrap();
            assert!(obj < 1e-6);
        }
    }

    #[test]
    fn nonpassive_system_is_infeasible() {
        // D + Dᵀ < 0 makes F(X) ⪯ 0 impossible for any X.
        let outcome = lmi_feasibility(
            &nonpassive(),
            &LmiOptions {
                max_iterations: 300,
                ..LmiOptions::default()
            },
        )
        .unwrap();
        assert!(!matches!(outcome, LmiOutcome::Feasible { .. }));
    }

    #[test]
    fn non_square_rejected() {
        let sys = DescriptorSystem::new(
            Matrix::identity(1),
            Matrix::filled(1, 1, -1.0),
            Matrix::from_rows(&[&[1.0, 0.0]]),
            Matrix::filled(1, 1, 1.0),
            Matrix::from_rows(&[&[0.0, 0.0]]),
        )
        .unwrap();
        assert!(matches!(
            DsPositiveRealLmi::new(&sys),
            Err(LmiError::NotSquareSystem { .. })
        ));
    }

    #[test]
    fn options_default_values() {
        let o = LmiOptions::default();
        assert!(o.max_iterations > 100);
        assert!(o.tolerance > 0.0 && o.tolerance < 1e-3);
    }
}
