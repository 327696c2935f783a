//! Anchor (bipartite) graphs for large-scale spectral clustering.
//!
//! A full affinity is O(n²) to build and O(n³) to eigendecompose. The
//! anchor-graph construction (Liu et al., *Large Graph Construction for
//! Scalable Semi-Supervised Learning*, ICML 2010) replaces it with a
//! bipartite graph between the `n` points and `m ≪ n` representative
//! **anchors**:
//!
//! * anchors are picked by k-means++-style D² sampling (no Lloyd pass
//!   needed — coverage is what matters, not optimal centroids);
//! * each point connects to its `k` nearest anchors with CAN-style
//!   closed-form simplex weights, giving `Z ∈ R^{n×m}` with rows summing
//!   to 1;
//! * the induced point-point affinity `W = Z·Λ⁻¹·Zᵀ` (`Λ = diag(Zᵀ1)`) has
//!   **unit row sums**, so its normalized Laplacian is `I − W`, and the
//!   spectral embedding reduces to the top left singular vectors of the
//!   small factor `B = Z·Λ^{-1/2}` — an O(n·m²) computation.
//!
//! This is the substrate of the large-scale one-stage solver in
//! `umsc-core::anchor`.

use umsc_linalg::Matrix;

/// Selects `m` anchor rows from `x` by D² (k-means++) sampling.
///
/// Deterministic in `seed`. Returns an `m × d` matrix of anchor positions.
///
/// # Panics
/// Panics if `m == 0` or `m > x.rows()`.
pub fn select_anchors(x: &Matrix, m: usize, seed: u64) -> Matrix {
    let n = x.rows();
    assert!(m >= 1, "select_anchors: m must be >= 1");
    assert!(m <= n, "select_anchors: m = {m} exceeds n = {n}");
    let d = x.cols();
    let mut rng = SplitMix64::new(seed);
    let mut anchors = Matrix::zeros(m, d);

    let first = (rng.next_u64() % n as u64) as usize;
    anchors.row_mut(0).copy_from_slice(x.row(first));
    let mut min_dist: Vec<f64> =
        (0..n).map(|i| umsc_linalg::ops::sq_dist(x.row(i), anchors.row(0))).collect();

    for j in 1..m {
        let total: f64 = min_dist.iter().sum();
        let pick = if total <= 0.0 {
            (rng.next_u64() % n as u64) as usize
        } else {
            let mut target = rng.next_f64() * total;
            let mut pick = n - 1;
            for (i, &w) in min_dist.iter().enumerate() {
                target -= w;
                if target <= 0.0 {
                    pick = i;
                    break;
                }
            }
            pick
        };
        anchors.row_mut(j).copy_from_slice(x.row(pick));
        for (i, md) in min_dist.iter_mut().enumerate() {
            let dist = umsc_linalg::ops::sq_dist(x.row(i), anchors.row(j));
            if dist < *md {
                *md = dist;
            }
        }
    }
    anchors
}

/// Builds the point→anchor weight matrix `Z` (`n × m`, rows sum to 1):
/// each point gets CAN-style closed-form weights over its `k` nearest
/// anchors.
///
/// # Panics
/// Panics if `k` is not in `1..=m`.
pub fn anchor_weights(x: &Matrix, anchors: &Matrix, k: usize) -> Matrix {
    let n = x.rows();
    let m = anchors.rows();
    assert!(k >= 1 && k <= m, "anchor_weights: need 1 <= k <= m, got k={k}, m={m}");
    assert_eq!(x.cols(), anchors.cols(), "anchor_weights: feature dimension mismatch");

    let mut z = Matrix::zeros(n, m);
    let mut dist = vec![0.0f64; m];
    for i in 0..n {
        for (j, d) in dist.iter_mut().enumerate() {
            *d = umsc_linalg::ops::sq_dist(x.row(i), anchors.row(j));
        }
        let mut order: Vec<usize> = (0..m).collect();
        order.sort_by(|&a, &b| dist[a].partial_cmp(&dist[b]).unwrap_or(std::cmp::Ordering::Equal));
        // CAN closed form over the k nearest anchors; d_{k+1} plays γ.
        let dk1 = if k < m { dist[order[k]] } else { dist[order[k - 1]] };
        let top_sum: f64 = order.iter().take(k).map(|&j| dist[j]).sum();
        let denom = k as f64 * dk1 - top_sum;
        if denom > 1e-12 {
            for &j in order.iter().take(k) {
                z[(i, j)] = (dk1 - dist[j]) / denom;
            }
        } else {
            for &j in order.iter().take(k) {
                z[(i, j)] = 1.0 / k as f64;
            }
        }
    }
    z
}

/// The normalized factor `B = Z·Λ^{-1/2}` with `Λ = diag(Zᵀ·1)`. The
/// anchor-graph affinity is `W = B·Bᵀ`; its normalized Laplacian is
/// `I − W` (unit row sums), so the spectral embedding is the top left
/// singular subspace of `B`.
///
/// Also returns the column scales `Λ^{-1/2}`, which out-of-sample rows
/// must reuse. Columns whose anchor attracted no weight are zero
/// (harmless), and so is their scale.
pub fn normalized_factor(z: &Matrix) -> (Matrix, Vec<f64>) {
    let (n, m) = z.shape();
    let mut col_sums = vec![0.0f64; m];
    for i in 0..n {
        for (j, &v) in z.row(i).iter().enumerate() {
            col_sums[j] += v;
        }
    }
    let inv_sqrt: Vec<f64> =
        col_sums.iter().map(|&s| if s > 0.0 { 1.0 / s.sqrt() } else { 0.0 }).collect();
    let mut b = z.clone();
    for i in 0..n {
        for (j, v) in b.row_mut(i).iter_mut().enumerate() {
            *v *= inv_sqrt[j];
        }
    }
    (b, inv_sqrt)
}

/// Convenience: distances → anchors → weights → normalized factor for one
/// feature view. Returns `(B, anchors, Λ^{-1/2})`.
pub fn anchor_view_factor(x: &Matrix, m: usize, k: usize, seed: u64) -> (Matrix, Matrix, Vec<f64>) {
    let m = m.min(x.rows()).max(1);
    let k = k.min(m).max(1);
    let anchors = select_anchors(x, m, seed);
    let z = anchor_weights(x, &anchors, k);
    let (b, inv_sqrt) = normalized_factor(&z);
    (b, anchors, inv_sqrt)
}

/// Tiny deterministic RNG (kept dependency-free like the Lanczos one).
struct SplitMix64(u64);

impl SplitMix64 {
    fn new(seed: u64) -> Self {
        SplitMix64(seed.wrapping_add(0x9E3779B97F4A7C15))
    }
    fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E3779B97F4A7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
        z ^ (z >> 31)
    }
    fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn blobs(n_per: usize) -> (Matrix, Vec<usize>) {
        let mut rows = Vec::new();
        let mut labels = Vec::new();
        for (c, center) in [(0.0, 0.0), (10.0, 0.0), (0.0, 10.0)].iter().enumerate() {
            for i in 0..n_per {
                let a = i as f64 * 2.4;
                rows.push(vec![center.0 + 0.4 * a.cos(), center.1 + 0.4 * a.sin()]);
                labels.push(c);
            }
        }
        (Matrix::from_rows(&rows), labels)
    }

    #[test]
    fn anchors_cover_all_blobs() {
        let (x, labels) = blobs(30);
        let anchors = select_anchors(&x, 9, 1);
        // Every blob contains at least one anchor (D² sampling spreads).
        let mut covered = [false; 3];
        for j in 0..9 {
            let mut best = (f64::INFINITY, 0usize);
            for i in 0..x.rows() {
                let d = umsc_linalg::ops::sq_dist(anchors.row(j), x.row(i));
                if d < best.0 {
                    best = (d, i);
                }
            }
            covered[labels[best.1]] = true;
        }
        assert!(covered.iter().all(|&c| c), "{covered:?}");
    }

    #[test]
    fn z_rows_are_distributions() {
        let (x, _) = blobs(20);
        let anchors = select_anchors(&x, 8, 0);
        let z = anchor_weights(&x, &anchors, 3);
        for i in 0..x.rows() {
            let s: f64 = z.row(i).iter().sum();
            assert!((s - 1.0).abs() < 1e-9, "row {i} sums to {s}");
            assert!(z.row(i).iter().all(|&v| v >= 0.0));
            let nnz = z.row(i).iter().filter(|&&v| v > 0.0).count();
            assert!(nnz <= 3);
        }
    }

    #[test]
    fn anchor_affinity_has_unit_row_sums() {
        let (x, _) = blobs(15);
        let (b, _, _) = anchor_view_factor(&x, 9, 3, 0);
        // W = BBᵀ rows sum to 1.
        let w = b.matmul_transpose_b(&b);
        for i in 0..x.rows() {
            let s: f64 = w.row(i).iter().sum();
            assert!((s - 1.0).abs() < 1e-9, "row {i} sums to {s}");
        }
        // Top singular value of B is 1 (the constant direction).
        let svd = umsc_linalg::Svd::compute(&b).unwrap();
        assert!((svd.s[0] - 1.0).abs() < 1e-8, "σ₁ = {}", svd.s[0]);
    }

    #[test]
    fn anchor_embedding_separates_blobs() {
        let (x, labels) = blobs(25);
        let (b, _, _) = anchor_view_factor(&x, 12, 4, 0);
        // Embedding = top-3 left singular vectors of B.
        let svd = umsc_linalg::Svd::compute(&b).unwrap();
        let f = svd.u.columns(0, 3);
        // Within-blob embedding distance much smaller than across.
        let mut within = (0.0, 0usize);
        let mut across = (0.0, 0usize);
        for i in 0..x.rows() {
            for j in (i + 1)..x.rows() {
                let d = umsc_linalg::ops::sq_dist(f.row(i), f.row(j));
                if labels[i] == labels[j] {
                    within = (within.0 + d, within.1 + 1);
                } else {
                    across = (across.0 + d, across.1 + 1);
                }
            }
        }
        assert!(across.0 / across.1 as f64 > 10.0 * within.0 / within.1 as f64);
    }

    #[test]
    fn deterministic() {
        let (x, _) = blobs(10);
        let a1 = select_anchors(&x, 5, 7);
        let a2 = select_anchors(&x, 5, 7);
        assert!(a1.approx_eq(&a2, 0.0));
    }

    #[test]
    fn degenerate_duplicates() {
        let x = Matrix::from_rows(&vec![vec![1.0, 1.0]; 10]);
        let (b, _, _) = anchor_view_factor(&x, 4, 2, 0);
        assert!(b.as_slice().iter().all(|v| v.is_finite()));
    }

    #[test]
    #[should_panic(expected = "exceeds n")]
    fn too_many_anchors_panics() {
        let x = Matrix::from_rows(&[vec![0.0]]);
        let _ = select_anchors(&x, 2, 0);
    }
}
