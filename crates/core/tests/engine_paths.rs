//! One graph, three doors: the CSR and anchor operators share one sweep
//! engine, so fitting the same anchor graph through each must give the
//! same partition and the same objective history.
//!
//! The graph is an anchor graph with factors `B_v`, fitted as
//! * dense Laplacians `I − B_v B_vᵀ` ([`Umsc::fit_laplacians`]),
//! * the same Laplacians in CSR form ([`Umsc::fit_laplacians_sparse`]),
//! * the factors themselves ([`AnchorUmsc::fit_factors`]),
//!
//! with the Laplacian fits' GPI cap set to the anchor path's. The first
//! two doors run the same CSR operator, so they must agree bitwise. The
//! anchor operator differs in its GPI shift η (`2Σw` against
//! `2Σw + 1e-9`) and in the rounding of its applies, so it agrees to a
//! stated relative tolerance.
//!
//! The doors also share one eigensolver. Single-vector Lanczos sees one
//! direction of a repeated eigenvalue per Krylov sequence, so it restarts
//! from a fresh direction after every converged probe until the wanted
//! values stop changing. On a graph with several exactly disconnected
//! components every door must return a valid partition with finite
//! objectives, and the CSR doors must recover the components exactly.

use umsc_core::anchor::ANCHOR_GPI_MAX_ITER;
use umsc_core::{build_view_laplacians_sparse, AnchorUmsc, AnchorUmscConfig, Umsc, UmscConfig, UmscResult};
use umsc_data::synth::{MultiViewGmm, ViewSpec};
use umsc_graph::CsrMatrix;
use umsc_linalg::Matrix;

/// Relative tolerance on every history entry's objective.
const HISTORY_RTOL: f64 = 1e-6;

/// Labels equal, and every sweep's objective within [`HISTORY_RTOL`].
fn assert_same_fit(name: &str, got: &UmscResult, reference: &UmscResult) {
    assert_eq!(got.labels, reference.labels, "{name}: labels differ from the anchor path");
    assert_eq!(got.history.len(), reference.history.len(), "{name}: sweep counts differ");
    for (i, (g, r)) in got.history.iter().zip(reference.history.iter()).enumerate() {
        let rel = (g.objective - r.objective).abs() / r.objective.abs().max(1e-12);
        assert!(rel < HISTORY_RTOL, "{name}: sweep {i} objective {} vs {} (rel {rel:e})", g.objective, r.objective);
    }
}

#[test]
fn dense_sparse_and_anchor_fits_of_one_graph_agree() {
    let mut gen = MultiViewGmm::new("paths", 3, 40, vec![ViewSpec::clean(6), ViewSpec::clean(8)]);
    gen.separation = 6.0;
    let data = gen.generate(3);
    let n = data.n();
    let factors: Vec<Matrix> = data
        .views
        .iter()
        .enumerate()
        .map(|(v, x)| umsc_graph::anchor_view_factor(x, 30, 5, (v as u64) << 32).0)
        .collect();
    let dense: Vec<Matrix> = factors
        .iter()
        .map(|b| {
            let mut l = b.matmul_transpose_b(b).scale(-1.0);
            for i in 0..n {
                l[(i, i)] += 1.0;
            }
            l.symmetrize_mut();
            l
        })
        .collect();
    let sparse: Vec<CsrMatrix> = dense.iter().map(|l| CsrMatrix::from_dense(l, 0.0)).collect();

    let anchor = AnchorUmsc::new(AnchorUmscConfig::new(3)).fit_factors(&factors).unwrap();
    let cfg = UmscConfig { gpi_max_iter: ANCHOR_GPI_MAX_ITER, ..UmscConfig::new(3) };
    let via_dense = Umsc::new(cfg.clone()).fit_laplacians(&dense).unwrap();
    let via_sparse = Umsc::new(cfg).fit_laplacians_sparse(&sparse).unwrap();

    assert!(anchor.converged && anchor.history.len() >= 2);
    assert_same_fit("sparse", &via_sparse, &anchor);
    assert_eq!(via_dense.labels, via_sparse.labels, "dense-input labels differ from the CSR fit");
    let bits = |r: &UmscResult| r.history.iter().map(|h| h.objective.to_bits()).collect::<Vec<_>>();
    assert_eq!(bits(&via_dense), bits(&via_sparse), "dense-input history differs from the CSR fit");
}

fn assert_valid_partition(name: &str, res: &UmscResult, n: usize, c: usize) {
    assert_eq!(res.labels.len(), n, "{name}: label count");
    assert!(res.labels.iter().all(|&l| l < c), "{name}: label outside 0..{c}");
    assert!(!res.history.is_empty(), "{name}: no sweeps");
    for (i, h) in res.history.iter().enumerate() {
        assert!(
            h.objective.is_finite() && h.embedding_term.is_finite() && h.rotation_term.is_finite(),
            "{name}: sweep {i} objective is not finite: {h:?}"
        );
    }
    assert!(res.embedding.as_slice().iter().all(|x| x.is_finite()), "{name}: non-finite embedding");
    assert!(res.view_weights.iter().all(|w| w.is_finite()), "{name}: non-finite weights");
}

#[test]
fn disconnected_single_view_graph_gives_a_valid_partition_on_every_path() {
    // Eight far-apart blobs of 15 points with k = 10 neighbours: the k-NN
    // graph falls apart into exactly one component per blob, so the fused
    // Laplacian has an 8-fold zero eigenvalue.
    let c = 8;
    let mut gen = MultiViewGmm::new("components", c, 15, vec![ViewSpec::clean(4)]);
    gen.separation = 40.0;
    let data = gen.generate(11);
    let n = data.n();
    let model = Umsc::new(UmscConfig::new(c));
    let sparse = build_view_laplacians_sparse(&data, &model.config().graph_config()).unwrap();
    let adjacency = sparse[0].to_dense().scale(-1.0);
    assert_eq!(umsc_graph::num_components(&adjacency, 0.0), c, "the k-NN graph must split into one piece per blob");
    let dense: Vec<Matrix> = sparse.iter().map(CsrMatrix::to_dense).collect();

    let fits = [
        ("dense", model.fit_laplacians(&dense).unwrap()),
        ("sparse", model.fit_laplacians_sparse(&sparse).unwrap()),
        ("anchor", AnchorUmsc::new(AnchorUmscConfig::new(c).with_anchors(8 * c)).fit(&data).unwrap()),
    ];
    for (name, res) in &fits {
        assert_valid_partition(name, res, n, c);
        let acc = umsc_metrics::clustering_accuracy(&res.labels, &data.labels);
        println!("{name}: ACC {acc:.3} on {c} disconnected components");
        if *name != "anchor" {
            assert_eq!(acc, 1.0, "{name}: the {c} components are not recovered");
        }
    }
}
