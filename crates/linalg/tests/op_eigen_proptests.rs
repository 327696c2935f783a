//! Property tests for the matrix-free eigensolver path: `lanczos_smallest`
//! driven through composed [`umsc_op`] operators must agree with the dense
//! eigensolvers on the equivalent materialized matrix. This is the
//! correctness contract the sparse solver's warm start stands on — the
//! operator layer may never change *what* is computed, only *how*.
//!
//! Eigen**values** and residuals `‖A v − λ v‖` are compared, never single
//! eigenvectors: degenerate or clustered eigenvalues make the eigenvector
//! basis non-unique, and a vector comparison would flake exactly on the
//! (legitimate) inputs where two solvers pick different bases. Vectors are
//! compared as a subspace instead: on operators whose wanted eigenvalues
//! form a tight cluster, the span of the `k` Lanczos vectors must match the
//! dense solver's through the principal angles between the two spans.

use umsc_linalg::testkit::spd_matrix;
use umsc_linalg::{jacobi_eigen, lanczos_smallest, qr, LanczosConfig, Matrix, Svd, SymEigen};
use umsc_op::{CsrOp, DenseOp, DiagShift, LinOp, LowRankAnchor, WeightedSum};
use umsc_rt::check::{check, Config};
use umsc_rt::{ensure, Rng};

fn cfg() -> Config {
    Config::cases(32).seed(0xB0B)
}

fn lanczos_cfg(n: usize) -> LanczosConfig {
    LanczosConfig { seed: 0x5eed, initial_subspace: n, ..Default::default() }
}

/// Smallest `k` eigenvalues of a dense symmetric matrix via Jacobi —
/// the independent reference implementation.
fn jacobi_smallest(a: &Matrix, k: usize) -> Vec<f64> {
    let (vals, _) = jacobi_eigen(a).unwrap();
    vals[..k].to_vec()
}

/// Residual check `‖A v_i − λ_i v_i‖ ≤ tol` for every returned pair,
/// with `A` given densely.
fn residuals_ok(a: &Matrix, vals: &[f64], vecs: &Matrix, tol: f64) -> Result<(), String> {
    let n = a.rows();
    for (i, &lambda) in vals.iter().enumerate() {
        let v: Vec<f64> = (0..n).map(|r| vecs.get(r, i)).collect();
        let mut av = vec![0.0; n];
        a.apply_into(&v, &mut av);
        let res: f64 = av
            .iter()
            .zip(v.iter())
            .map(|(&avr, &vr)| (avr - lambda * vr).powi(2))
            .sum::<f64>()
            .sqrt();
        ensure!(res < tol, "pair {i}: residual {res} > {tol}");
    }
    Ok(())
}

#[test]
fn lanczos_over_weighted_sum_matches_jacobi() {
    let (n, k) = (12, 3);
    check(
        &cfg(),
        |rng| {
            let mats: Vec<Matrix> = (0..3).map(|_| spd_matrix(rng, n)).collect();
            let weights: Vec<f64> = (0..3).map(|_| rng.gen_range_f64(0.1, 1.0)).collect();
            (mats, weights)
        },
        |(mats, weights)| {
            let ops: Vec<DenseOp<'_>> =
                mats.iter().map(|m| DenseOp::new(n, m.as_slice())).collect();
            let fused = WeightedSum::with_weights(ops, weights);
            let (vals, vecs) = lanczos_smallest(&fused, k, &lanczos_cfg(n)).unwrap();

            let mut dense = Matrix::zeros(n, n);
            for (m, &w) in mats.iter().zip(weights.iter()) {
                dense.axpy(w, m);
            }
            let scale = 1.0 + dense.max_abs();
            for (got, want) in vals.iter().zip(jacobi_smallest(&dense, k)) {
                ensure!((got - want).abs() < 1e-7 * scale, "{got} vs {want}");
            }
            residuals_ok(&dense, &vals, &vecs, 1e-6 * scale)
        },
    );
}

#[test]
fn lanczos_over_diag_shift_matches_jacobi() {
    let (n, k) = (10, 2);
    check(
        &cfg(),
        |rng| (spd_matrix(rng, n), rng.gen_range_f64(1.0, 5.0)),
        |(a, sigma)| {
            let op = DiagShift::new(*sigma, DenseOp::new(n, a.as_slice()));
            let (vals, vecs) = lanczos_smallest(&op, k, &lanczos_cfg(n)).unwrap();

            let mut dense = a.scale(-1.0);
            for i in 0..n {
                dense.set(i, i, sigma - a.get(i, i));
            }
            let scale = 1.0 + dense.max_abs();
            for (got, want) in vals.iter().zip(jacobi_smallest(&dense, k)) {
                ensure!((got - want).abs() < 1e-7 * scale, "{got} vs {want}");
            }
            residuals_ok(&dense, &vals, &vecs, 1e-6 * scale)
        },
    );
}

#[test]
fn lanczos_over_shifted_low_rank_matches_jacobi() {
    // The anchor pipeline's operator shape: σI − Σ_v w_v B_v B_vᵀ with
    // tall-thin factors, never materialized.
    let (n, m, k) = (14, 4, 3);
    check(
        &cfg(),
        |rng| {
            let factors: Vec<Matrix> =
                (0..2).map(|_| umsc_linalg::testkit::matrix(rng, n, m)).collect();
            let weights: Vec<f64> = (0..2).map(|_| rng.gen_range_f64(0.2, 1.0)).collect();
            (factors, weights)
        },
        |(factors, weights)| {
            let ops: Vec<LowRankAnchor<'_>> = factors
                .iter()
                .map(|b| LowRankAnchor::new(n, m, b.as_slice()))
                .collect();
            let shift = 2.0 * weights.iter().sum::<f64>();
            let op = DiagShift::new(shift, WeightedSum::with_weights(ops, weights));
            let (vals, vecs) = lanczos_smallest(&op, k, &lanczos_cfg(n)).unwrap();

            let mut dense = Matrix::zeros(n, n);
            for (b, &w) in factors.iter().zip(weights.iter()) {
                let bbt = b.matmul(&b.transpose());
                dense.axpy(-w, &bbt);
            }
            for i in 0..n {
                dense.set(i, i, dense.get(i, i) + shift);
            }
            let scale = 1.0 + dense.max_abs();
            for (got, want) in vals.iter().zip(jacobi_smallest(&dense, k)) {
                ensure!((got - want).abs() < 1e-7 * scale, "{got} vs {want}");
            }
            residuals_ok(&dense, &vals, &vecs, 1e-6 * scale)
        },
    );
}

/// The sweep engine's Lanczos settings for `k` eigenpairs: first
/// convergence check at `2k + 20`, well below `n` in these tests.
fn engine_lanczos_cfg(k: usize) -> LanczosConfig {
    LanczosConfig { initial_subspace: 2 * k + 20, ..Default::default() }
}

/// Checks that the `k` smallest eigenvectors Lanczos finds on `op` span the
/// dense solver's eigenspace of `dense` (the same operator, materialised):
/// every cosine of a principal angle, i.e. every singular value of `VᵀU`,
/// is at least `1 − 1e-6`.
fn subspace_matches_symeigen(op: &dyn LinOp, dense: &Matrix, k: usize) -> Result<(), String> {
    let (_, v) = lanczos_smallest(op, k, &engine_lanczos_cfg(k)).map_err(|e| e.to_string())?;
    let u = SymEigen::compute(dense).map_err(|e| e.to_string())?.smallest(k);
    let cosines = Svd::compute(&v.matmul_transpose_a(&u)).map_err(|e| e.to_string())?.s;
    let worst = cosines.iter().copied().fold(f64::INFINITY, f64::min);
    ensure!(worst >= 1.0 - 1e-6, "smallest principal-angle cosine {worst} (all: {cosines:?})");
    Ok(())
}

/// `groups` blocks of `size` nodes: each block a weighted ring with random
/// chords, and consecutive blocks joined by one edge of weight in
/// `[1e-3, 1e-2)`. Its Laplacian `D − W` has `groups` eigenvalues packed
/// below about `0.02`, then a gap: the spectrum of a k-NN graph of
/// well-separated clusters. Returned dense; symmetric by construction.
fn weakly_linked_laplacian(rng: &mut Rng, groups: usize, size: usize) -> Matrix {
    let n = groups * size;
    let mut w = Matrix::zeros(n, n);
    fn link(w: &mut Matrix, i: usize, j: usize, x: f64) {
        w[(i, j)] = x;
        w[(j, i)] = x;
    }
    for g in 0..groups {
        let base = g * size;
        for i in 0..size {
            link(&mut w, base + i, base + (i + 1) % size, rng.gen_range_f64(0.5, 1.0));
            let j = rng.gen_range(0..size);
            if j != i {
                link(&mut w, base + i, base + j, rng.gen_range_f64(0.5, 1.0));
            }
        }
        if g + 1 < groups {
            link(&mut w, base, base + size, rng.gen_range_f64(1e-3, 1e-2));
        }
    }
    let mut l = w.scale(-1.0);
    for i in 0..n {
        l[(i, i)] = w.row(i).iter().sum();
    }
    l
}

/// A CSR copy of a dense matrix, as the `(row_ptr, col_idx, values)`
/// arrays a [`CsrOp`] borrows.
fn csr_arrays(a: &Matrix) -> (Vec<usize>, Vec<usize>, Vec<f64>) {
    let (mut row_ptr, mut col_idx, mut values) = (vec![0], Vec::new(), Vec::new());
    for i in 0..a.rows() {
        for (j, &x) in a.row(i).iter().enumerate() {
            if x != 0.0 {
                col_idx.push(j);
                values.push(x);
            }
        }
        row_ptr.push(col_idx.len());
    }
    (row_ptr, col_idx, values)
}

#[test]
fn lanczos_subspace_matches_symeigen_on_clustered_matrix() {
    // `Q·diag(λ)·Qᵀ` with the k wanted eigenvalues in [0, 0.01), a second
    // tight cluster just above the gap, and the rest spread over [1, 2).
    let (n, k) = (80, 5);
    check(
        &Config::cases(16).seed(0xC1A5),
        |rng| rng.next_u64(),
        |&seed| {
            let mut rng = Rng::from_seed(seed);
            let q = qr(&umsc_linalg::testkit::matrix(&mut rng, n, n)).q;
            let spectrum: Vec<f64> = (0..n)
                .map(|i| match i {
                    i if i < k => rng.gen_range_f64(0.0, 0.01),
                    i if i < 2 * k => rng.gen_range_f64(0.5, 0.51),
                    _ => rng.gen_range_f64(1.0, 2.0),
                })
                .collect();
            let mut a = Matrix::from_fn(n, n, |i, j| q[(i, j)] * spectrum[j]).matmul_transpose_b(&q);
            a.symmetrize_mut();
            subspace_matches_symeigen(&a, &a, k)
        },
    );
}

#[test]
fn lanczos_subspace_matches_symeigen_on_clustered_weighted_csr() {
    // The sparse path's operator: Σ_v w_v L_v over two CSR views of the
    // same cluster structure.
    let (groups, size) = (5, 16);
    let n = groups * size;
    check(
        &Config::cases(16).seed(0xC5A),
        |rng| rng.next_u64(),
        |&seed| {
            let mut rng = Rng::from_seed(seed);
            let views: Vec<Matrix> = (0..2).map(|_| weakly_linked_laplacian(&mut rng, groups, size)).collect();
            let weights = [rng.gen_range_f64(0.2, 1.0), rng.gen_range_f64(0.2, 1.0)];
            let arrays: Vec<_> = views.iter().map(csr_arrays).collect();
            let ops: Vec<CsrOp<'_>> = arrays.iter().map(|(r, c, v)| CsrOp::new(n, r, c, v)).collect();
            let fused = WeightedSum::with_weights(ops, &weights);
            let mut dense = Matrix::zeros(n, n);
            for (l, &w) in views.iter().zip(weights.iter()) {
                dense.axpy(w, l);
            }
            subspace_matches_symeigen(&fused, &dense, groups)
        },
    );
}

#[test]
fn lanczos_subspace_matches_symeigen_on_clustered_shifted_anchor() {
    // The anchor path's operator: σI − Σ_v w_v B_v B_vᵀ, with every point
    // tied strongly to its own group's anchors and weakly to the others,
    // so the wanted eigenvalues are the near-equal group masses.
    let (groups, size, per_group) = (4, 20, 3);
    let (n, m) = (groups * size, groups * per_group);
    check(
        &Config::cases(16).seed(0xA7C),
        |rng| rng.next_u64(),
        |&seed| {
            let mut rng = Rng::from_seed(seed);
            let factors: Vec<Matrix> = (0..2)
                .map(|_| {
                    Matrix::from_fn(n, m, |i, j| {
                        if i / size == j / per_group {
                            rng.gen_range_f64(0.5, 1.0)
                        } else {
                            rng.gen_range_f64(0.0, 0.02)
                        }
                    })
                })
                .collect();
            let weights = [rng.gen_range_f64(0.2, 1.0), rng.gen_range_f64(0.2, 1.0)];
            let sigma: f64 = factors
                .iter()
                .zip(weights.iter())
                .map(|(b, &w)| w * b.frobenius_norm().powi(2))
                .sum();
            let ops: Vec<LowRankAnchor<'_>> =
                factors.iter().map(|b| LowRankAnchor::new(n, m, b.as_slice())).collect();
            let op = DiagShift::new(sigma, WeightedSum::with_weights(ops, &weights));
            let mut dense = Matrix::identity(n).scale(sigma);
            for (b, &w) in factors.iter().zip(weights.iter()) {
                dense.axpy(-w, &b.matmul_transpose_b(b));
            }
            dense.symmetrize_mut();
            subspace_matches_symeigen(&op, &dense, groups)
        },
    );
}
