//! The fused multi-view operators the sweep engine runs on.
//!
//! Every path of the solver minimizes the same objective over a fused
//! Laplacian `Σ_v w_v L_v`; the paths differ only in how that operator is
//! stored. [`FusedOperator`] is the small interface the engine needs from
//! it, and two representations implement it:
//!
//! * [`SparseFused`] — `Σ_v w_v L_v` over borrowed CSR views, never
//!   materialised: O(nnz) per apply. Every [`crate::Umsc`] fit runs on it,
//!   dense Laplacians included (converted to CSR first). Normalized
//!   Laplacians satisfy `L ⪯ 2I`, so `η = 2Σ_v w_v` bounds its spectrum.
//! * [`AnchorFused`] — `sI − Σ_v w_v B_v B_vᵀ` with `s = Σ_v w_v`, the
//!   fused Laplacian of anchor graphs (`L_v = I − B_v B_vᵀ`) over thin
//!   factors: O(n·m) per apply. Its spectrum lies in `[0, s]`, and
//!   `η = 2s` makes the GPI iterate `s·F + Σ_v w_v B_v B_vᵀ F + λ·Y·Rᵀ`.
//!
//! Every constructor starts at uniform weights — the unweighted mean the
//! warm start begins from.

use umsc_graph::CsrMatrix;
use umsc_linalg::{LinOp, Matrix};
use umsc_op::{CsrOp, DiagShift, LowRankAnchor, WeightedSum};

/// A fused operator `Σ_v w_v L_v` with swappable view weights.
pub trait FusedOperator {
    /// Path label carried by the trace records.
    const PATH: &'static str;

    /// Number of views `V`.
    fn num_views(&self) -> usize;

    /// Replaces the view weights in place.
    fn set_weights(&mut self, weights: &[f64]);

    /// `tr(Fᵀ L_v F)` for every view, into `traces`. `lf` (`n × c`) and
    /// `cc` (`c × c`) are scratch.
    fn view_traces(&self, f: &Matrix, lf: &mut Matrix, cc: &mut Matrix, traces: &mut Vec<f64>);

    /// A bound `η ≥ λ_max` of the current fused operator: the GPI shift.
    fn eta(&self) -> f64;

    /// The current fused operator.
    fn op(&self) -> &dyn LinOp;
}

/// The sparse path's fused Laplacian over borrowed CSR views.
pub type SparseFused<'a> = WeightedSum<CsrOp<'a>>;

/// The anchor path's fused Laplacian `sI − Σ_v w_v B_v B_vᵀ`.
pub type AnchorFused<'a> = DiagShift<WeightedSum<LowRankAnchor<'a>>>;

/// [`SparseFused`] over equal-sized square CSR Laplacians.
///
/// # Panics
/// Panics if `laplacians` is empty, a view is not square, or sizes differ.
pub fn sparse_fused_operator(laplacians: &[CsrMatrix]) -> SparseFused<'_> {
    let ops: Vec<CsrOp<'_>> = laplacians.iter().map(CsrMatrix::as_op).collect();
    WeightedSum::with_weights(ops, &uniform(laplacians.len()))
}

/// [`AnchorFused`] over normalized anchor factors `B_v` (`n × m_v`).
///
/// # Panics
/// Panics if `factors` is empty or the row counts differ.
pub fn anchor_fused_operator(factors: &[Matrix]) -> AnchorFused<'_> {
    let ops: Vec<LowRankAnchor<'_>> =
        factors.iter().map(|b| LowRankAnchor::new(b.rows(), b.cols(), b.as_slice())).collect();
    let weights = uniform(factors.len());
    DiagShift::new(weights.iter().sum(), WeightedSum::with_weights(ops, &weights))
}

fn uniform(v: usize) -> Vec<f64> {
    vec![1.0 / v as f64; v]
}

impl FusedOperator for SparseFused<'_> {
    const PATH: &'static str = "sparse";

    fn num_views(&self) -> usize {
        self.ops().len()
    }

    fn set_weights(&mut self, weights: &[f64]) {
        WeightedSum::set_weights(self, weights);
    }

    fn view_traces(&self, f: &Matrix, lf: &mut Matrix, cc: &mut Matrix, traces: &mut Vec<f64>) {
        traces.clear();
        for l in self.ops() {
            l.apply_block_into(f.as_slice(), f.cols(), lf.as_mut_slice());
            f.matmul_transpose_a_into(lf, cc);
            traces.push(cc.trace());
        }
    }

    fn eta(&self) -> f64 {
        2.0 * self.weights().iter().sum::<f64>() + 1e-9
    }

    fn op(&self) -> &dyn LinOp {
        self
    }
}

impl FusedOperator for AnchorFused<'_> {
    const PATH: &'static str = "anchor";

    fn num_views(&self) -> usize {
        self.inner().ops().len()
    }

    fn set_weights(&mut self, weights: &[f64]) {
        self.set_sigma(weights.iter().sum());
        self.inner_mut().set_weights(weights);
    }

    /// `tr(Fᵀ(I − B_v B_vᵀ)F) = c − ‖B_vᵀF‖²`, clamped at zero.
    fn view_traces(&self, f: &Matrix, _lf: &mut Matrix, _cc: &mut Matrix, traces: &mut Vec<f64>) {
        let c = f.cols();
        traces.clear();
        traces.extend(self.inner().ops().iter().map(|b| (c as f64 - b.quad_trace(f.as_slice(), c)).max(0.0)));
    }

    fn eta(&self) -> f64 {
        2.0 * self.sigma()
    }

    fn op(&self) -> &dyn LinOp {
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use umsc_graph::{knn_affinity, normalized_laplacian_sparse, pairwise_sq_distances, Bandwidth};

    fn csr_views(seed: u64) -> Vec<CsrMatrix> {
        let data = umsc_data::synth::MultiViewGmm::new(
            "fused",
            3,
            15,
            vec![umsc_data::ViewSpec::clean(6), umsc_data::ViewSpec::clean(8)],
        )
        .generate(seed);
        let bandwidth = Bandwidth::SelfTuning { k: 7 };
        data.views
            .iter()
            .map(|x| normalized_laplacian_sparse(&knn_affinity(&pairwise_sq_distances(x), 6, &bandwidth)))
            .collect()
    }

    /// The CSR operator agrees with a dense reference sum `Σ_v w_v L_v` on
    /// traces and applies, and its shift bounds the spectrum.
    #[test]
    fn representations_agree() {
        let csr = csr_views(7);
        let n = csr[0].rows();
        let f = umsc_linalg::qr(&Matrix::from_fn(n, 3, |i, j| ((i * 7 + j * 3 + 1) as f64).sin())).q;
        let weights = [0.3, 0.9];
        let mut reference = Matrix::zeros(n, n);
        for (l, &w) in csr.iter().zip(weights.iter()) {
            reference.axpy(w, &l.to_dense());
        }

        let mut sparse = sparse_fused_operator(&csr);
        sparse.set_weights(&weights);
        let (mut lf, mut cc) = (Matrix::zeros(n, 3), Matrix::zeros(3, 3));
        let mut traces = Vec::new();
        sparse.view_traces(&f, &mut lf, &mut cc, &mut traces);
        for (t, l) in traces.iter().zip(csr.iter()) {
            let expect = f.matmul_transpose_a(&l.to_dense().matmul(&f)).trace();
            assert!((t - expect).abs() < 1e-12, "CSR trace {t} vs dense {expect}");
        }

        let mut ys = Matrix::zeros(n, 3);
        sparse.op().apply_block_into(f.as_slice(), 3, ys.as_mut_slice());
        assert!(ys.approx_eq(&reference.matmul(&f), 1e-12));
        let top = umsc_linalg::SymEigen::compute(&reference).unwrap().eigenvalues[n - 1];
        assert!(sparse.eta() >= top, "η {} below λ_max = {top}", sparse.eta());
    }

    #[test]
    fn anchor_traces_use_the_factor_identity() {
        let n = 30;
        let b = Matrix::from_fn(n, 4, |i, j| if (i + j) % 4 == 0 { 0.5 } else { 0.0 });
        let factors = vec![b.clone(), b.scale(0.5)];
        let mut op = anchor_fused_operator(&factors);
        op.set_weights(&[0.25, 0.5]);
        assert_eq!(op.eta(), 1.5);
        let f = umsc_linalg::qr(&Matrix::from_fn(n, 2, |i, j| ((i * 5 + j) as f64).cos())).q;
        let (mut lf, mut cc) = (Matrix::zeros(n, 2), Matrix::zeros(2, 2));
        let mut traces = Vec::new();
        op.view_traces(&f, &mut lf, &mut cc, &mut traces);
        for (t, bv) in traces.iter().zip(factors.iter()) {
            let expect = 2.0 - bv.matmul_transpose_a(&f).frobenius_norm().powi(2);
            assert!((t - expect).abs() < 1e-12, "{t} vs {expect}");
        }
    }
}
