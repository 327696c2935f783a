//! Shared pipeline stages: dataset → per-view graphs → Laplacians →
//! spectral embedding.
//!
//! Both the unified solver and every baseline consume these, so method
//! comparisons differ only in the algorithm, never in graph construction.

use crate::config::GraphKind;
use crate::error::UmscError;
use crate::Result;
use umsc_data::MultiViewDataset;
use umsc_graph::{
    adaptive_neighbor_affinity, cosine_distance_matrix, gaussian_affinity, knn_affinity,
    normalized_laplacian, pairwise_sq_distances,
};
use umsc_linalg::{lanczos_smallest, LanczosConfig, Matrix, SymEigen};

/// Distance metric for graph construction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Metric {
    /// Squared Euclidean distances (dense numeric views).
    Euclidean,
    /// Cosine distances (sparse text-like views; squared for the kernel).
    Cosine,
}

/// Graph construction configuration: metric + graph kind.
#[derive(Debug, Clone)]
pub struct GraphConfig {
    /// Which graph to build.
    pub kind: GraphKind,
    /// Which distances feed it.
    pub metric: Metric,
}

impl Default for GraphConfig {
    fn default() -> Self {
        GraphConfig {
            kind: GraphKind::Knn { k: 10, bandwidth: umsc_graph::Bandwidth::SelfTuning { k: 7 } },
            metric: Metric::Euclidean,
        }
    }
}

/// Distance matrix for one view under the configured metric.
///
/// Cosine distances are squared entrywise so the Gaussian kernel treats
/// both metrics on the same `exp(−d²/σ²)` footing.
pub fn view_distances(x: &Matrix, metric: Metric) -> Matrix {
    match metric {
        Metric::Euclidean => pairwise_sq_distances(x),
        Metric::Cosine => {
            let mut d = cosine_distance_matrix(x);
            d.map_mut(|v| v * v);
            d
        }
    }
}

/// Affinity matrix for one view.
pub fn view_affinity(x: &Matrix, cfg: &GraphConfig) -> Matrix {
    let d = view_distances(x, cfg.metric);
    match &cfg.kind {
        GraphKind::Dense(bw) => gaussian_affinity(&d, bw),
        GraphKind::Knn { k, bandwidth } => {
            let k = (*k).min(d.rows().saturating_sub(1)).max(1);
            knn_affinity(&d, k, bandwidth).to_dense()
        }
        GraphKind::Adaptive { k } => {
            let k = (*k).min(d.rows().saturating_sub(1)).max(1);
            adaptive_neighbor_affinity(&d, k)
        }
        GraphKind::Epsilon { epsilon, bandwidth } => {
            umsc_graph::epsilon_affinity(&d, *epsilon, bandwidth).to_dense()
        }
    }
}

/// Builds the dense symmetric-normalized Laplacian of every view — the
/// baselines' input; [`crate::Umsc::fit`] uses the CSR builder
/// [`build_view_laplacians_sparse`], whose k-NN and ε-ball Laplacians are
/// bitwise equal to these.
///
/// Validates the dataset first. Views are independent, so on multi-core
/// machines they are built on scoped threads (one per view, capped by the
/// available parallelism); the output order — and therefore every
/// downstream number — is identical to the sequential path.
pub fn build_view_laplacians(data: &MultiViewDataset, cfg: &GraphConfig) -> Result<Vec<Matrix>> {
    data.validate().map_err(UmscError::InvalidInput)?;
    if data.n() < 2 {
        return Err(UmscError::InvalidInput(format!("need at least 2 points, got {}", data.n())));
    }
    let _span = umsc_obs::span!("graph.build");
    Ok(build_laplacians_threaded(&data.views, cfg))
}

/// Builds **sparse** (CSR) symmetric-normalized Laplacians per view — the
/// input of every [`crate::Umsc::fit`]. k-NN and ε-ball graphs stay
/// sparse end to end; dense/CAN graphs are built densely and converted
/// (entries below `1e-12` dropped), which preserves semantics but not the
/// memory advantage — prefer the sparse graph kinds at scale.
pub fn build_view_laplacians_sparse(
    data: &MultiViewDataset,
    cfg: &GraphConfig,
) -> Result<Vec<umsc_graph::CsrMatrix>> {
    data.validate().map_err(UmscError::InvalidInput)?;
    if data.n() < 2 {
        return Err(UmscError::InvalidInput(format!("need at least 2 points, got {}", data.n())));
    }
    let _span = umsc_obs::span!("graph.build");
    Ok(umsc_rt::par::parallel_map(&data.views, |_, x| {
        let d = view_distances(x, cfg.metric);
        let w = match &cfg.kind {
            GraphKind::Knn { k, bandwidth } => {
                let k = (*k).min(d.rows().saturating_sub(1)).max(1);
                knn_affinity(&d, k, bandwidth)
            }
            GraphKind::Epsilon { epsilon, bandwidth } => {
                umsc_graph::epsilon_affinity(&d, *epsilon, bandwidth)
            }
            GraphKind::Dense(bw) => {
                umsc_graph::CsrMatrix::from_dense(&gaussian_affinity(&d, bw), 1e-12)
            }
            GraphKind::Adaptive { k } => {
                let k = (*k).min(d.rows().saturating_sub(1)).max(1);
                umsc_graph::CsrMatrix::from_dense(&adaptive_neighbor_affinity(&d, k), 1e-12)
            }
        };
        umsc_graph::normalized_laplacian_sparse(&w)
    }))
}

/// Per-view Laplacian construction on up to `umsc_rt::par::max_threads()`
/// threads (views are independent; output order — and therefore every
/// downstream number — is identical to a sequential loop).
pub fn build_laplacians_threaded(views: &[Matrix], cfg: &GraphConfig) -> Vec<Matrix> {
    umsc_rt::par::parallel_map(views, |_, x| normalized_laplacian(&view_affinity(x, cfg)))
}

/// [`build_laplacians_threaded`] with an explicit thread count — used by
/// the determinism test (forcing parallelism on single-core machines) and
/// the speedup bench.
pub fn build_laplacians_threaded_with(threads: usize, views: &[Matrix], cfg: &GraphConfig) -> Vec<Matrix> {
    umsc_rt::par::parallel_map_with(threads, views, |_, x| normalized_laplacian(&view_affinity(x, cfg)))
}

/// Dimension threshold above which the spectral embedding switches from
/// the dense eigensolver to Lanczos.
const LANCZOS_THRESHOLD: usize = 600;

/// `k` smallest eigenvectors of a symmetric (Laplacian-like) matrix,
/// choosing the dense or iterative solver by problem size.
pub fn spectral_embedding(l: &Matrix, k: usize, seed: u64) -> Result<Matrix> {
    spectral_embedding_with_values(l, k, seed).map(|(_, vecs)| vecs)
}

/// Like [`spectral_embedding`] but also returns the `k` smallest
/// eigenvalues (ascending) — used e.g. for eigengap-based view selection.
pub fn spectral_embedding_with_values(l: &Matrix, k: usize, seed: u64) -> Result<(Vec<f64>, Matrix)> {
    let _span = umsc_obs::span!("spectral.embedding");
    let n = l.rows();
    if k > n {
        return Err(UmscError::InvalidInput(format!("requested {k} eigenvectors of an {n}-dim Laplacian")));
    }
    if n <= LANCZOS_THRESHOLD {
        let eig = SymEigen::compute_unchecked(l)?;
        Ok((eig.eigenvalues[..k].to_vec(), eig.smallest(k)))
    } else {
        let cfg = LanczosConfig { seed, initial_subspace: (2 * k + 20).min(n), ..Default::default() };
        let (vals, vecs) = lanczos_smallest(l, k, &cfg)?;
        Ok((vals, vecs))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use umsc_data::shapes::two_moons_multiview;
    use umsc_data::synth::{MultiViewGmm, ViewSpec};
    use umsc_graph::CsrMatrix;

    #[test]
    fn laplacians_one_per_view() {
        let data = two_moons_multiview(40, 0.05, 0);
        let ls = build_view_laplacians(&data, &GraphConfig::default()).unwrap();
        assert_eq!(ls.len(), 3);
        for l in &ls {
            assert_eq!(l.shape(), (40, 40));
            assert!(l.is_symmetric(1e-12));
        }
    }

    #[test]
    fn invalid_dataset_rejected() {
        let mut data = two_moons_multiview(10, 0.05, 0);
        data.labels.pop();
        match build_view_laplacians(&data, &GraphConfig::default()) {
            Err(UmscError::InvalidInput(msg)) => assert!(msg.contains("rows"), "{msg}"),
            other => panic!("expected InvalidInput, got {other:?}"),
        }
    }

    #[test]
    fn single_point_rejected() {
        let data = MultiViewDataset {
            name: "one".into(),
            views: vec![Matrix::from_rows(&[vec![1.0]])],
            labels: vec![0],
            num_clusters: 1,
        };
        assert!(build_view_laplacians(&data, &GraphConfig::default()).is_err());
    }

    #[test]
    fn graph_kinds_all_work() {
        let data = MultiViewGmm::new("g", 2, 15, vec![ViewSpec::clean(3)]).generate(1);
        for kind in [
            GraphKind::Dense(umsc_graph::Bandwidth::MeanDistance),
            GraphKind::Knn { k: 5, bandwidth: umsc_graph::Bandwidth::SelfTuning { k: 5 } },
            GraphKind::Adaptive { k: 5 },
            GraphKind::Epsilon { epsilon: 1e6, bandwidth: umsc_graph::Bandwidth::MeanDistance },
        ] {
            let cfg = GraphConfig { kind, metric: Metric::Euclidean };
            let ls = build_view_laplacians(&data, &cfg).unwrap();
            assert_eq!(ls.len(), 1);
            let eig = SymEigen::compute(&ls[0]).unwrap();
            assert!(eig.eigenvalues[0] > -1e-9, "Laplacian not PSD");
        }
    }

    #[test]
    fn cosine_metric_for_text() {
        let data = MultiViewGmm::new(
            "t",
            2,
            12,
            vec![ViewSpec { kind: umsc_data::ViewKind::Text, ..ViewSpec::clean(40) }],
        )
        .generate(2);
        let cfg = GraphConfig { kind: GraphKind::Dense(umsc_graph::Bandwidth::MeanDistance), metric: Metric::Cosine };
        let ls = build_view_laplacians(&data, &cfg).unwrap();
        assert!(ls[0].as_slice().iter().all(|v| v.is_finite()));
    }

    #[test]
    fn embedding_solvers_agree_across_threshold() {
        // Same Laplacian, dense vs Lanczos path must span the same subspace.
        let data = two_moons_multiview(60, 0.06, 3);
        let ls = build_view_laplacians(&data, &GraphConfig::default()).unwrap();
        let dense = spectral_embedding(&ls[0], 2, 0).unwrap();
        let cfg = LanczosConfig::default();
        let (_, iter) = lanczos_smallest(&ls[0], 2, &cfg).unwrap();
        // Subspace agreement: projector difference small.
        let p1 = dense.matmul_transpose_b(&dense);
        let p2 = iter.matmul_transpose_b(&iter);
        assert!((&p1 - &p2).frobenius_norm() < 1e-5, "{}", (&p1 - &p2).frobenius_norm());
    }

    #[test]
    fn embedding_too_many_vectors_rejected() {
        let l = Matrix::identity(3);
        assert!(spectral_embedding(&l, 4, 0).is_err());
    }

    #[test]
    fn sparse_laplacians_match_dense_for_sparse_kinds() {
        let data = two_moons_multiview(40, 0.05, 9);
        let bandwidth = umsc_graph::Bandwidth::SelfTuning { k: 7 };
        let knn = GraphKind::Knn { k: 10, bandwidth: bandwidth.clone() };
        for kind in [knn, GraphKind::Epsilon { epsilon: 0.5, bandwidth }] {
            let cfg = GraphConfig { kind, metric: Metric::Euclidean };
            let dense = build_view_laplacians(&data, &cfg).unwrap();
            let sparse = build_view_laplacians_sparse(&data, &cfg).unwrap();
            for (a, b) in dense.iter().zip(sparse.iter()) {
                assert!(b.nnz() > 2 * b.rows(), "{:?}: too few edges to compare", cfg.kind);
                // Bitwise: `fit_laplacians` on the dense form must run the
                // same operator as the CSR build.
                assert_eq!(b.to_dense().as_slice(), a.as_slice(), "{:?}", cfg.kind);
                assert_eq!(&CsrMatrix::from_dense(a, 0.0), b, "{:?}", cfg.kind);
            }
        }
        // Dense kind converts without error.
        let cfg = GraphConfig { kind: GraphKind::Dense(umsc_graph::Bandwidth::MeanDistance), metric: Metric::Euclidean };
        let sparse = build_view_laplacians_sparse(&data, &cfg).unwrap();
        assert_eq!(sparse.len(), 3);
    }

    #[test]
    fn threaded_laplacians_match_sequential_exactly() {
        let data = two_moons_multiview(50, 0.05, 4);
        let cfg = GraphConfig::default();
        let sequential: Vec<Matrix> = data
            .views
            .iter()
            .map(|x| umsc_graph::normalized_laplacian(&view_affinity(x, &cfg)))
            .collect();
        // Force real parallelism (more threads than this machine may have),
        // plus the implicit path.
        for threaded in [
            build_laplacians_threaded_with(4, &data.views, &cfg),
            build_laplacians_threaded(&data.views, &cfg),
        ] {
            assert_eq!(sequential.len(), threaded.len());
            for (a, b) in sequential.iter().zip(threaded.iter()) {
                assert!(a.approx_eq(b, 0.0), "threaded graph differs bit-for-bit");
            }
        }
    }
}
