//! Exact re-derivation of a simplex basis found in floating point.
//!
//! The hybrid pipeline runs the simplex in `f64` and keeps only its
//! *final basis* — a combinatorial object (which columns are basic in
//! which surviving rows) that is immune to rounding noise whenever the
//! float run pivoted correctly. This module re-derives the primal/dual
//! pair for that basis from scratch in the caller's scalar field:
//!
//! * primal: solve `B·x_B = b` — one Gaussian solve, no simplex
//!   pivoting;
//! * dual:   solve `Bᵀ·ŷ = c_B` and map back through the row-sign
//!   normalization, matching the convention of
//!   [`Model::solve_with_duals`](crate::Model::solve_with_duals).
//!
//! Neither solve is dense in the basis dimension `k`. A simplex basis
//! is dominated by slack/surplus columns, each a single `±1` in its
//! owner row; eliminating those first (exactly, by substitution)
//! shrinks both systems to the same `t×t` core over the *structural*
//! basic columns and the rows that own no basic slack — and `t`, the
//! number of positive variables at the vertex, is far below `k` on
//! nested active-time LPs. The slack elimination also pins the duals of
//! slack-owning rows to exactly zero (complementary slackness in
//! action: a row with positive surplus cannot carry a multiplier).
//! Exact Gaussian elimination on the `t×t` core costs `O(t³)` instead
//! of the dense `O(k³)` — the difference between the hybrid fast path
//! beating the exact simplex and losing to it outright on monolithic
//! instances.
//!
//! Every failure mode is a typed [`VerifyError`]; callers treat any of
//! them as "the float basis cannot be trusted" and fall back to the
//! exact simplex. Nothing here panics on a bad basis — a singular or
//! artificial-contaminated basis is an expected input, not a bug.

use crate::model::{Cmp, LpStatus, Model, Solution};
use crate::scalar::Scalar;
use crate::simplex::{effective_cmp, FinalBasis};
use std::fmt;

/// Why a floating-point basis could not be certified exactly.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum VerifyError {
    /// The final basis still contains an artificial column — the float
    /// run never found a genuine feasible basis.
    ArtificialInBasis,
    /// The basis matrix is singular in exact arithmetic (the float
    /// pivots divided by values that are exactly zero).
    SingularBasis,
    /// The re-derived point violates a constraint or a non-negativity
    /// bound (e.g. phase 1 dropped a row that is not exactly redundant).
    PrimalInfeasible,
    /// The re-derived pair is feasible but fails the optimality or
    /// uniqueness certificate; the message names the first violation.
    NotCertified(String),
}

impl fmt::Display for VerifyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            VerifyError::ArtificialInBasis => write!(f, "artificial column in final basis"),
            VerifyError::SingularBasis => write!(f, "basis singular in exact arithmetic"),
            VerifyError::PrimalInfeasible => write!(f, "re-derived point is infeasible"),
            VerifyError::NotCertified(msg) => write!(f, "certificate rejected: {msg}"),
        }
    }
}

impl std::error::Error for VerifyError {}

/// Exactly re-derived primal/dual pair for a basis.
pub(crate) struct Rederived<S> {
    pub solution: Solution<S>,
    pub duals: Vec<S>,
}

/// Re-derive the vertex selected by `fb` on `model`, in `model`'s own
/// scalar field, and check primal feasibility. Optimality is *not*
/// checked here — see [`Model::check_duality`] for the certificate.
pub(crate) fn rederive<S: Scalar>(
    model: &Model<S>,
    fb: &FinalBasis,
) -> Result<Rederived<S>, VerifyError> {
    let n = model.num_vars();
    let m = model.num_constraints();
    if fb.n != n || fb.basis.iter().any(|&c| c >= fb.n + fb.num_slack) {
        return Err(VerifyError::ArtificialInBasis);
    }
    if fb.row_ids.iter().any(|&id| id >= m) || fb.row_ids.len() != fb.basis.len() {
        return Err(VerifyError::SingularBasis);
    }

    // Row-sign normalization and slack-column ownership, derived from
    // *this* model (exactly), mirroring the tableau layout of
    // `solve_core_inner`. If the float model normalized differently
    // (possible only when a RHS sign is decided by sub-tolerance noise),
    // the mismatch surfaces as a singular/infeasible system below —
    // never as a wrong answer.
    let flips: Vec<bool> = model.constraints.iter().map(|c| c.rhs.is_negative()).collect();
    let senses: Vec<Cmp> = model.constraints.iter().map(effective_cmp).collect();
    let mut owner_of_slack: Vec<usize> = Vec::new();
    for (i, s) in senses.iter().enumerate() {
        if matches!(s, Cmp::Le | Cmp::Ge) {
            owner_of_slack.push(i);
        }
    }
    if owner_of_slack.len() != fb.num_slack {
        return Err(VerifyError::SingularBasis);
    }

    // Normalized structural coefficient at (original row, var col < n).
    let struct_entry = |row_id: usize, col: usize| -> S {
        let c = &model.constraints[row_id];
        let v = c
            .terms
            .iter()
            .find(|(idx, _)| *idx == col)
            .map_or_else(S::zero, |(_, coef)| coef.clone());
        if flips[row_id] {
            v.neg()
        } else {
            v
        }
    };

    let k = fb.basis.len();
    let mut pos_of_row = vec![usize::MAX; m];
    for (p, &id) in fb.row_ids.iter().enumerate() {
        if pos_of_row[id] != usize::MAX {
            return Err(VerifyError::SingularBasis);
        }
        pos_of_row[id] = p;
    }

    // Eliminate basic slack columns by substitution before touching a
    // Gaussian solve. Each one is a single `±1` in its owner row, so it
    // pins that row (primal) and zeroes that row's multiplier (dual);
    // what is left is the t×t structural core. A basic slack whose
    // owner row was dropped in phase 1 is an all-zero column, and two
    // basic slacks can never share an owner — both are singular bases.
    let mut struct_cols: Vec<usize> = Vec::new();
    let mut owner_taken = vec![false; k];
    for &col in &fb.basis {
        if col < n {
            struct_cols.push(col);
            continue;
        }
        let row_id = owner_of_slack[col - n];
        let p = pos_of_row[row_id];
        if p == usize::MAX || owner_taken[p] {
            return Err(VerifyError::SingularBasis);
        }
        owner_taken[p] = true;
    }
    let core_rows: Vec<usize> = (0..k).filter(|&p| !owner_taken[p]).collect();
    debug_assert_eq!(core_rows.len(), struct_cols.len());

    // Primal core: M·x_struct = b̃ over the slack-free rows. Slack
    // values need no back-substitution — a slack is non-negative iff
    // its owner row holds at the vertex, and the full `is_feasible`
    // sweep below checks exactly that (plus the rows phase 1 dropped
    // as "redundant" based on float arithmetic).
    let mmat: Vec<Vec<S>> = core_rows
        .iter()
        .map(|&p| {
            let id = fb.row_ids[p];
            struct_cols.iter().map(|&col| struct_entry(id, col)).collect()
        })
        .collect();
    let crhs: Vec<S> = core_rows
        .iter()
        .map(|&p| {
            let id = fb.row_ids[p];
            let r = &model.constraints[id].rhs;
            if flips[id] {
                r.neg()
            } else {
                r.clone()
            }
        })
        .collect();
    let xs = solve_square(mmat.clone(), crhs).ok_or(VerifyError::SingularBasis)?;
    if xs.iter().any(|v| v.is_negative()) {
        return Err(VerifyError::PrimalInfeasible);
    }
    let mut values = vec![S::zero(); n];
    for (j, &col) in struct_cols.iter().enumerate() {
        values[col] = xs[j].clone();
    }
    if !model.is_feasible(&values) {
        return Err(VerifyError::PrimalInfeasible);
    }

    // Dual core: Mᵀ·ŷ = c_struct, then undo the row-sign
    // normalization. Matches the marker-column extraction in
    // `solve_core_inner` (there, y_i = ŷ_i for every sense, negated for
    // flipped rows). Slack-owning and dropped rows keep multiplier 0.
    let t = struct_cols.len();
    let mtmat: Vec<Vec<S>> = (0..t).map(|j| (0..t).map(|r| mmat[r][j].clone()).collect()).collect();
    let cs: Vec<S> = struct_cols.iter().map(|&col| model.objective[col].clone()).collect();
    let ys = solve_square(mtmat, cs).ok_or(VerifyError::SingularBasis)?;
    let mut duals = vec![S::zero(); m];
    for (a, &p) in core_rows.iter().enumerate() {
        let id = fb.row_ids[p];
        duals[id] = if flips[id] { ys[a].neg() } else { ys[a].clone() };
    }

    let objective = model.objective_at(&values);
    Ok(Rederived { solution: Solution { status: LpStatus::Optimal, objective, values }, duals })
}

/// Dense Gaussian solve of `mat·x = rhs` with first-nonzero pivoting
/// (exact fields need no magnitude-based pivot choice). `None` iff the
/// matrix is singular.
fn solve_square<S: Scalar>(mut mat: Vec<Vec<S>>, mut rhs: Vec<S>) -> Option<Vec<S>> {
    let k = rhs.len();
    for col in 0..k {
        let p = (col..k).find(|&r| !mat[r][col].is_zero())?;
        mat.swap(col, p);
        rhs.swap(col, p);
        let (head, tail) = mat.split_at_mut(col + 1);
        let prow = &head[col];
        let pval = prow[col].clone();
        let prhs = rhs[col].clone();
        for (off, row) in tail.iter_mut().enumerate() {
            if row[col].is_zero() {
                continue;
            }
            let f = row[col].div(&pval);
            for cc in col..k {
                row[cc].sub_mul_in_place(&f, &prow[cc]);
            }
            let r = col + 1 + off;
            rhs[r] = rhs[r].sub(&f.mul(&prhs));
        }
    }
    let mut x = vec![S::zero(); k];
    for col in (0..k).rev() {
        let mut acc = rhs[col].clone();
        for cc in col + 1..k {
            acc = acc.sub(&mat[col][cc].mul(&x[cc]));
        }
        x[col] = acc.div(&mat[col][col]);
    }
    Some(x)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::simplex::solve_core;
    use atsched_num::Ratio;

    fn ri(v: i64) -> Ratio {
        Ratio::from_i64(v)
    }

    /// Solve a model in f64, re-derive the basis exactly, and check the
    /// pair against the exact solve and the duality certificate.
    fn roundtrip(mr: &Model<Ratio>, mf: &Model<f64>) {
        let core = solve_core(mf, false).unwrap();
        assert_eq!(core.solution.status, LpStatus::Optimal);
        let fb = core.basis.expect("optimal solve returns a basis");
        let red = rederive(mr, &fb).expect("basis re-derives exactly");
        mr.check_duality(&red.solution, &red.duals).expect("re-derived pair certifies");
        let exact = mr.solve_with_duals().unwrap().0;
        assert_eq!(red.solution.objective, exact.objective);
    }

    #[test]
    fn rederives_mixed_sense_model() {
        let mut mr: Model<Ratio> = Model::new();
        let mut mf: Model<f64> = Model::new();
        let xr = mr.add_var("x", ri(2));
        let yr = mr.add_var("y", ri(3));
        let xf = mf.add_var("x", 2.0);
        let yf = mf.add_var("y", 3.0);
        mr.add_constraint(vec![(xr, ri(1)), (yr, ri(1))], Cmp::Ge, ri(1));
        mf.add_constraint(vec![(xf, 1.0), (yf, 1.0)], Cmp::Ge, 1.0);
        mr.add_constraint(vec![(xr, ri(3)), (yr, ri(-3))], Cmp::Eq, ri(1));
        mf.add_constraint(vec![(xf, 3.0), (yf, -3.0)], Cmp::Eq, 1.0);
        roundtrip(&mr, &mf);
    }

    #[test]
    fn rederives_flipped_and_le_rows() {
        let mut mr: Model<Ratio> = Model::new();
        let mut mf: Model<f64> = Model::new();
        let xr = mr.add_var("x", ri(-1));
        let yr = mr.add_var("y", ri(-1));
        let xf = mf.add_var("x", -1.0);
        let yf = mf.add_var("y", -1.0);
        mr.add_constraint(vec![(xr, ri(1)), (yr, ri(2))], Cmp::Le, ri(4));
        mf.add_constraint(vec![(xf, 1.0), (yf, 2.0)], Cmp::Le, 4.0);
        mr.add_constraint(vec![(xr, ri(-1))], Cmp::Ge, ri(-2)); // x ≤ 2, flipped
        mf.add_constraint(vec![(xf, -1.0)], Cmp::Ge, -2.0);
        roundtrip(&mr, &mf);
    }

    #[test]
    fn rejects_garbage_bases_with_typed_errors() {
        let mut m: Model<Ratio> = Model::new();
        let x = m.add_var("x", ri(1));
        let y = m.add_var("y", ri(1));
        m.add_constraint(vec![(x, ri(1)), (y, ri(2))], Cmp::Ge, ri(3));
        m.add_constraint(vec![(x, ri(3)), (y, ri(1))], Cmp::Ge, ri(4));
        // Artificial column (index ≥ n + num_slack = 4) in the basis.
        let fb = FinalBasis { basis: vec![0, 4], row_ids: vec![0, 1], n: 2, num_slack: 2 };
        assert_eq!(rederive(&m, &fb).err(), Some(VerifyError::ArtificialInBasis));
        // Repeated column → singular basis matrix.
        let fb = FinalBasis { basis: vec![0, 0], row_ids: vec![0, 1], n: 2, num_slack: 2 };
        assert_eq!(rederive(&m, &fb).err(), Some(VerifyError::SingularBasis));
        // A basis whose vertex is infeasible for the model: x from row 0
        // only, slack basic in row 1 → x = 3, but then row 1 surplus is
        // 3·3 − 4 = 5 ≥ 0 fine; force infeasibility via both slacks.
        let fb = FinalBasis { basis: vec![2, 3], row_ids: vec![0, 1], n: 2, num_slack: 2 };
        // x = y = 0, surpluses would need to be negative.
        assert_eq!(rederive(&m, &fb).err(), Some(VerifyError::PrimalInfeasible));
    }

    #[test]
    fn error_display_is_stable() {
        assert_eq!(VerifyError::SingularBasis.to_string(), "basis singular in exact arithmetic");
        assert!(VerifyError::NotCertified("gap".into()).to_string().contains("gap"));
    }
}
