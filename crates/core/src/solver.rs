//! The unified one-stage solver: one sweep engine over any
//! [`FusedOperator`].
//!
//! See the crate docs for the objective. One outer iteration performs:
//!
//! 1. **w-step** — closed-form view re-weighting (scheme-dependent);
//! 2. **F-step** — GPI on `min tr(Fᵀ L̄ F) − 2λ tr(Fᵀ Y_eff Rᵀ)` over the
//!    Stiefel manifold, where `L̄ = Σ_v w_v L⁽ᵛ⁾`;
//! 3. **R-step** — orthogonal Procrustes `R = UVᵀ` of `Fᵀ Y_eff`;
//! 4. **Y-step** — exact row-wise argmax of `F·R` with empty-cluster repair.
//!
//! The graph (CSR) and anchor paths differ only in the operator that
//! stores `L̄` (see [`crate::fused`]); validation, the `c = 1` shortcut,
//! the warm start, the eigensolve, the sweep and the convergence loop are
//! shared.
//!
//! With [`Weighting::Auto`] the reported objective is the parameter-free
//! functional `Σ_v √tr(Fᵀ L⁽ᵛ⁾ F) + λ‖FR − Y_eff‖²` (the auto-weights are
//! its MM surrogate); with `Uniform`/`Fixed` it is the plainly weighted sum.
//! In the paper's configuration ([`Discretization::Rotation`]) the
//! objective is monotonically non-increasing — asserted in tests and
//! plotted by bench figure F1.

use crate::config::{Discretization, UmscConfig, Weighting};
use crate::error::UmscError;
use crate::fused::{sparse_fused_operator, FusedOperator};
use crate::gpi::gpi_stiefel_op_ws;
use crate::indicator::{
    discretize_rows, discretize_rows_into, discretize_scaled_inplace, labels_to_indicator,
    labels_to_indicator_into, scaled_indicator_into,
};
use crate::pipeline::build_view_laplacians_sparse;
use crate::workspace::SolverWorkspace;
use crate::Result;
use umsc_data::MultiViewDataset;
use umsc_graph::CsrMatrix;
use umsc_kmeans::{kmeans, KMeansConfig};
use umsc_linalg::{lanczos_smallest, procrustes, procrustes_into, LanczosConfig, Matrix};

/// Snapshot of one outer iteration (for convergence plots).
#[derive(Debug, Clone)]
pub struct IterationStats {
    /// Total objective (embedding term + rotation term).
    pub objective: f64,
    /// Graph-fusion term: `Σ_v √tr_v` (Auto) or `Σ_v w_v·tr_v` (other
    /// weighting schemes).
    pub embedding_term: f64,
    /// Discretization alignment term `λ‖FR − Y_eff‖²`.
    pub rotation_term: f64,
    /// View weights used this iteration, normalized to sum 1 for
    /// comparability across iterations.
    pub weights: Vec<f64>,
}

/// Fitted model output.
#[derive(Debug, Clone)]
pub struct UmscResult {
    /// Cluster label per point — read directly off the learned `Y`.
    pub labels: Vec<usize>,
    /// Continuous spectral embedding `F` (`n × c`, orthonormal columns).
    pub embedding: Matrix,
    /// Learned spectral rotation `R` (`c × c`, orthogonal).
    pub rotation: Matrix,
    /// Learned discrete indicator `Y` (`n × c`, 0/1).
    pub indicator: Matrix,
    /// Final view weights (normalized to sum 1).
    pub view_weights: Vec<f64>,
    /// Per-iteration objective trace.
    pub history: Vec<IterationStats>,
    /// Whether the outer loop hit the tolerance before `max_iter`.
    pub converged: bool,
}

/// Mutable block-coordinate state advanced by [`Umsc::one_step_solve`]:
/// the embedding `F`, rotation `R`, indicator `Y` (with its label vector),
/// and the current view weights. Create with [`Umsc::init_solver_state`].
#[derive(Debug, Clone)]
pub struct SolverState {
    /// Spectral embedding `F` (`n × c`, orthonormal columns).
    pub f: Matrix,
    /// Spectral rotation `R` (`c × c`, orthogonal).
    pub r: Matrix,
    /// Discrete indicator `Y` (`n × c`, 0/1).
    pub y: Matrix,
    /// Labels matching `y` (row-wise argmax).
    pub labels: Vec<usize>,
    /// Unnormalized view weights `w_v`.
    pub weights: Vec<f64>,
}

/// Scalar outputs of one BCD sweep (see [`IterationStats`] for the
/// history-entry form, which additionally snapshots the weights).
#[derive(Debug, Clone, Copy)]
pub struct StepStats {
    /// Total objective (embedding term + rotation term).
    pub objective: f64,
    /// Graph-fusion term of the objective.
    pub embedding_term: f64,
    /// Discretization alignment term `λ‖FR − Y_eff‖²`.
    pub rotation_term: f64,
}

/// The unified multi-view spectral clustering model.
#[derive(Debug, Clone)]
pub struct Umsc {
    config: UmscConfig,
}

impl Umsc {
    /// Creates a model with the given configuration.
    pub fn new(config: UmscConfig) -> Self {
        Umsc { config }
    }

    /// Read access to the configuration.
    pub fn config(&self) -> &UmscConfig {
        &self.config
    }

    /// Fits the model on a multi-view dataset: builds every view's
    /// normalized Laplacian in CSR form from the configured metric and
    /// graph kind, then calls [`Umsc::fit_laplacians_sparse`].
    pub fn fit(&self, data: &MultiViewDataset) -> Result<UmscResult> {
        let laplacians = build_view_laplacians_sparse(data, &self.config.graph_config())?;
        self.fit_laplacians_sparse(&laplacians)
    }

    /// Alias of [`Umsc::fit`], from when the two picked different operator
    /// representations; every graph now runs the CSR engine.
    pub fn fit_auto(&self, data: &MultiViewDataset) -> Result<UmscResult> {
        self.fit(data)
    }

    /// Fits the model on precomputed per-view **affinity** matrices
    /// (symmetric, non-negative, zero diagonal) — for users who build
    /// their own graphs. Each affinity is turned into its
    /// symmetric-normalized Laplacian and passed to
    /// [`Umsc::fit_laplacians`].
    pub fn fit_affinities(&self, affinities: &[Matrix]) -> Result<UmscResult> {
        for (v, w) in affinities.iter().enumerate() {
            if !w.is_square() {
                return Err(UmscError::InvalidInput(format!("affinity {v} is not square")));
            }
            if !w.is_symmetric(1e-8 * w.max_abs().max(1.0)) {
                return Err(UmscError::InvalidInput(format!("affinity {v} is not symmetric")));
            }
            if w.as_slice().iter().any(|&x| x < 0.0 || !x.is_finite()) {
                return Err(UmscError::InvalidInput(format!("affinity {v} has negative or non-finite entries")));
            }
        }
        let laplacians: Vec<Matrix> =
            affinities.iter().map(umsc_graph::normalized_laplacian).collect();
        self.fit_laplacians(&laplacians)
    }

    /// Fits the model on precomputed per-view normalized Laplacians (any
    /// symmetric `L` with `0 ⪯ L ⪯ 2I`) — the entry point when graphs come
    /// from elsewhere. Each view is converted to CSR with its exact zeros
    /// dropped, so a Laplacian and its CSR form give bitwise the same fit
    /// through [`Umsc::fit_laplacians_sparse`].
    pub fn fit_laplacians(&self, laplacians: &[Matrix]) -> Result<UmscResult> {
        let csr: Vec<CsrMatrix> = laplacians.iter().map(|l| CsrMatrix::from_dense(l, 0.0)).collect();
        self.fit_laplacians_sparse(&csr)
    }

    /// Fits the model on precomputed **sparse** per-view normalized
    /// Laplacians without ever forming an `n × n` dense matrix: the
    /// engine runs on [`crate::SparseFused`], so workspace memory stays
    /// O(nnz + n·c).
    pub fn fit_laplacians_sparse(&self, laplacians: &[CsrMatrix]) -> Result<UmscResult> {
        validate(laplacians.iter().map(|l| (l.rows(), l.cols())), true, &self.config)?;
        self.fit_operator(&mut sparse_fused_operator(laplacians))
    }

    /// The sweep engine. `op` must hold validated views at its
    /// constructor's uniform weights; every entry point lands here.
    pub(crate) fn fit_operator<O: FusedOperator>(&self, op: &mut O) -> Result<UmscResult> {
        let cfg = &self.config;
        if cfg.num_clusters == 1 {
            let n = op.op().dim();
            let embedding = self.embedding_solve(op)?;
            let view_weights = match &cfg.weighting {
                Weighting::Fixed(w) => normalized(w),
                _ => normalized(&vec![1.0; op.num_views()]),
            };
            return Ok(UmscResult {
                labels: vec![0; n],
                embedding,
                rotation: Matrix::identity(1),
                indicator: Matrix::filled(n, 1, 1.0),
                view_weights,
                history: Vec::new(),
                converged: true,
            });
        }
        if let Discretization::KMeans { restarts } = cfg.discretization {
            return self.fit_two_stage(op, restarts);
        }

        let obs = umsc_obs::enabled();
        let fit_start = obs.then(std::time::Instant::now);
        let mut ws = SolverWorkspace::new();
        let mut st = self.init_solver_state(op, &mut ws)?;
        let mut history: Vec<IterationStats> = Vec::with_capacity(cfg.max_iter);
        let mut converged = false;
        for _iter in 0..cfg.max_iter {
            let sweep_start = obs.then(std::time::Instant::now);
            let stats = self.one_step_solve(op, &mut st, &mut ws)?;
            let prev = history.last().map(|s: &IterationStats| s.objective);
            history.push(IterationStats {
                objective: stats.objective,
                embedding_term: stats.embedding_term,
                rotation_term: stats.rotation_term,
                weights: normalized(&st.weights),
            });
            if obs {
                let entry = history.last().expect("just pushed");
                crate::telemetry::sweep(
                    O::PATH,
                    history.len() - 1,
                    &stats,
                    prev,
                    &entry.weights,
                    crate::telemetry::elapsed_ns(sweep_start),
                );
            }
            if prev.is_some_and(|p| self.settled(p, stats.objective)) {
                converged = true;
                break;
            }
        }
        crate::telemetry::fit_done(O::PATH, history.len(), converged, crate::telemetry::elapsed_ns(fit_start));

        let SolverState { f, r, y, labels, weights } = st;
        Ok(UmscResult {
            labels,
            embedding: f,
            rotation: r,
            indicator: y,
            view_weights: normalized(&weights),
            history,
            converged,
        })
    }

    /// Initializes the BCD state for [`Umsc::one_step_solve`].
    ///
    /// Warm-starts `F` at the relaxed problem (λ→0): the spectral
    /// embedding of the mean Laplacian, re-weighted once. Starting the joint
    /// loop from the unweighted mean Laplacian instead lets noisy views
    /// pollute the first indicator, and the alignment feedback then locks
    /// the bad start in. The rotation is initialized by the Yu–Shi scheme
    /// (raw argmax on F degenerates because the first Laplacian eigenvector
    /// is near-constant).
    ///
    /// `op` must hold validated views (`c ≤ n`) at its constructor's
    /// uniform weights; the fit entry points check this before calling.
    pub fn init_solver_state<O: FusedOperator>(
        &self,
        op: &mut O,
        ws: &mut SolverWorkspace,
    ) -> Result<SolverState> {
        let c = self.config.num_clusters;
        let (f, _, _) = self.warm_start(op, ws, 1)?;
        let r = init_rotation(&f)?;
        let labels = discretize_rows(&f.matmul(&r));
        let y = labels_to_indicator(&labels, c);
        let weights = normalized(&vec![1.0; op.num_views()]);
        Ok(SolverState { f, r, y, labels, weights })
    }

    /// Performs one full BCD sweep (w-, F-, R-, Y-step) in place.
    ///
    /// All intermediates live in `ws` (and in `op`); after the first call
    /// sizes the buffers the sweep performs **zero heap allocations** —
    /// asserted for every operator by `tests/alloc_free.rs`. The fit
    /// entry points drive exactly this method; stepping it manually yields
    /// the same iterates.
    pub fn one_step_solve<O: FusedOperator>(
        &self,
        op: &mut O,
        st: &mut SolverState,
        ws: &mut SolverWorkspace,
    ) -> Result<StepStats> {
        let cfg = &self.config;
        let (n, c) = st.f.shape();
        let scaled = cfg.discretization == Discretization::ScaledRotation;
        // The alignment term ‖FR − Y‖² grows with n while the Rayleigh term
        // tr(FᵀLF) is O(c), so λ is normalized by c/(10n): dimensionless
        // across dataset sizes, with λ = 1 sitting inside the stable
        // plateau of the sensitivity curve (figure F2) rather than at its
        // edge — the alignment term refines the warm-started embedding
        // instead of overruling the graphs.
        let lambda_eff = cfg.lambda * c as f64 / (10.0 * n as f64);
        ws.ensure(n, c);

        {
            let _span = umsc_obs::span!("solve.w_step");
            op.view_traces(&st.f, &mut ws.lf, &mut ws.cc, &mut ws.traces);
            self.weights_from_traces_into(&ws.traces, &mut st.weights);
        }

        {
            let _span = umsc_obs::span!("solve.f_step");
            op.set_weights(&st.weights);
            effective_indicator(&st.y, scaled, &mut ws.sizes, &mut ws.y_eff);
            ws.y_eff.matmul_transpose_b_into(&st.r, &mut ws.b);
            ws.b.scale_mut(lambda_eff);
            gpi_stiefel_op_ws(op.op(), op.eta(), &ws.b, &mut st.f, cfg.gpi_max_iter, 1e-10, &mut ws.gpi)?;
        }

        // R-step: Procrustes on the row-normalized embedding F̃ (Yu–Shi):
        // each point votes equally in the alignment, so low-norm boundary
        // rows cannot skew the rotation.
        {
            let _span = umsc_obs::span!("solve.r_step");
            effective_indicator(&st.y, scaled, &mut ws.sizes, &mut ws.y_eff);
            ws.f_tilde.copy_from(&st.f);
            for i in 0..n {
                umsc_linalg::ops::normalize(ws.f_tilde.row_mut(i));
            }
            ws.f_tilde.matmul_transpose_a_into(&ws.y_eff, &mut ws.cc);
            procrustes_into(&ws.cc, &mut ws.svd_r, &mut st.r)?;
            umsc_obs::counter!("procrustes.updates", 1);
        }

        // Y-step: for the plain indicator, row-wise argmax is the exact
        // minimizer. For the scaled indicator the column scales couple
        // the rows, so the exact block minimizer is the size-aware
        // coordinate descent (crucial on unbalanced data).
        {
            let _span = umsc_obs::span!("solve.y_step");
            st.f.matmul_into(&st.r, &mut ws.fr);
            discretize_rows_into(&ws.fr, &mut st.labels, &mut ws.counts);
            if scaled {
                discretize_scaled_inplace(&ws.fr, &mut st.labels, 30, &mut ws.dsc_sizes, &mut ws.dsc_sums);
            }
            labels_to_indicator_into(&st.labels, &mut st.y);
            umsc_obs::counter!("indicator.updates", 1);
        }

        op.view_traces(&st.f, &mut ws.lf, &mut ws.cc, &mut ws.traces);
        let emb = self.embedding_objective(&ws.traces);
        effective_indicator(&st.y, scaled, &mut ws.sizes, &mut ws.y_eff);
        let rot = lambda_eff * frobenius_distance(&ws.fr, &ws.y_eff).powi(2);
        Ok(StepStats { objective: emb + rot, embedding_term: emb, rotation_term: rot })
    }

    /// Two-stage ablation: the warm start's auto-weighted embedding, then
    /// K-means on its rows.
    fn fit_two_stage<O: FusedOperator>(&self, op: &mut O, restarts: usize) -> Result<UmscResult> {
        let c = self.config.num_clusters;
        let rounds = if self.config.weighting == Weighting::Auto { self.config.max_iter } else { 1 };
        let (f, history, converged) = self.warm_start(op, &mut SolverWorkspace::new(), rounds)?;
        let mut rows = f.clone();
        for i in 0..rows.rows() {
            umsc_linalg::ops::normalize(rows.row_mut(i));
        }
        let km = kmeans(&rows, &KMeansConfig::new(c).with_seed(self.config.seed).with_restarts(restarts.max(1)));
        let indicator = labels_to_indicator(&km.labels, c);
        Ok(UmscResult {
            labels: km.labels,
            embedding: f,
            rotation: Matrix::identity(c),
            indicator,
            view_weights: history.last().map(|h| h.weights.clone()).unwrap_or_default(),
            history,
            converged,
        })
    }

    /// Solves the relaxed (λ→0) problem: the spectral embedding of the
    /// operator at its current (uniform) weights, then up to `rounds`
    /// re-weighted solves, stopping early once the embedding term settles
    /// (with non-adaptive weights one round is exact). Leaves `op` at the
    /// last round's weights. Returns the embedding, one history entry per
    /// round (the embedding term alone) and whether the rounds settled.
    ///
    /// The one-stage fit asks for a single round: the BCD sweeps that
    /// follow re-weight anyway, and the published quick-profile tables
    /// are measured from that start.
    fn warm_start<O: FusedOperator>(
        &self,
        op: &mut O,
        ws: &mut SolverWorkspace,
        rounds: usize,
    ) -> Result<(Matrix, Vec<IterationStats>, bool)> {
        let _span = umsc_obs::span!("solve.warm_start");
        let cfg = &self.config;
        let (n, c) = (op.op().dim(), cfg.num_clusters);
        ws.ensure(n, c);
        let mut f = self.embedding_solve(op)?;
        let rounds = rounds.max(1);
        let mut history: Vec<IterationStats> = Vec::with_capacity(rounds);
        let mut weights = Vec::new();
        for _ in 0..rounds {
            op.view_traces(&f, &mut ws.lf, &mut ws.cc, &mut ws.traces);
            self.weights_from_traces_into(&ws.traces, &mut weights);
            op.set_weights(&weights);
            f = self.embedding_solve(op)?;
            op.view_traces(&f, &mut ws.lf, &mut ws.cc, &mut ws.traces);
            let obj = self.embedding_objective(&ws.traces);
            let prev = history.last().map(|h| h.objective);
            history.push(IterationStats {
                objective: obj,
                embedding_term: obj,
                rotation_term: 0.0,
                weights: normalized(&weights),
            });
            if prev.is_some_and(|p| self.settled(p, obj)) {
                return Ok((f, history, true));
            }
        }
        Ok((f, history, cfg.weighting != Weighting::Auto))
    }

    /// The one eigensolver entry point: the `c` smallest eigenvectors of
    /// the current fused operator, by scalar Lanczos on every path. The
    /// embedding only seeds the sweeps, so no subspace is carried from one
    /// re-weighting to the next.
    fn embedding_solve<O: FusedOperator>(&self, op: &O) -> Result<Matrix> {
        let op = op.op();
        let c = self.config.num_clusters;
        let initial_subspace = (2 * c + 20).min(op.dim());
        let lcfg = LanczosConfig { seed: self.config.seed, initial_subspace, ..Default::default() };
        Ok(lanczos_smallest(op, c, &lcfg)?.1)
    }

    /// Whether an objective moved from `prev` to `obj` within tolerance.
    fn settled(&self, prev: f64, obj: f64) -> bool {
        (prev - obj).abs() <= self.config.tol * (1.0 + prev.abs())
    }

    /// Closed-form weights from the per-view embedding traces, reusing the
    /// output vector's capacity.
    fn weights_from_traces_into(&self, traces: &[f64], weights: &mut Vec<f64>) {
        weights.clear();
        match &self.config.weighting {
            Weighting::Auto => weights.extend(traces.iter().map(|&t| 1.0 / (2.0 * t.max(1e-10).sqrt()))),
            Weighting::Uniform => weights.resize(traces.len(), 1.0 / traces.len() as f64),
            Weighting::Fixed(w) => {
                let s: f64 = w.iter().sum();
                weights.extend(w.iter().map(|&x| x / s));
            }
        }
    }

    /// The embedding term of the reported objective (scheme-dependent; see
    /// module docs).
    fn embedding_objective(&self, traces: &[f64]) -> f64 {
        match &self.config.weighting {
            Weighting::Auto => traces.iter().map(|&t| t.max(0.0).sqrt()).sum(),
            Weighting::Uniform => traces.iter().sum::<f64>() / traces.len() as f64,
            Weighting::Fixed(w) => {
                let s: f64 = w.iter().sum();
                w.iter().zip(traces.iter()).map(|(&wi, &t)| wi / s * t).sum()
            }
        }
    }
}

/// The one input check of every fit entry point: at least one view,
/// every view `n` rows (and `n × n` when `square`), `1 ≤ c ≤ n`, and
/// fixed weights that are one per view, finite, non-negative and not all
/// zero.
pub(crate) fn validate(
    shapes: impl Iterator<Item = (usize, usize)>,
    square: bool,
    cfg: &UmscConfig,
) -> Result<()> {
    let bad = |msg: String| Err(UmscError::InvalidInput(msg));
    let mut n = None;
    let mut views = 0;
    for (v, (rows, cols)) in shapes.enumerate() {
        let n = *n.get_or_insert(rows);
        if rows != n || (square && cols != n) {
            let want = if square { format!("{n}x{n}") } else { format!("{n} rows") };
            return bad(format!("view {v} has shape {rows}x{cols}, expected {want}"));
        }
        views += 1;
    }
    let Some(n) = n else { return bad("no views given".into()) };
    let c = cfg.num_clusters;
    if c == 0 || c > n {
        return bad(format!("num_clusters {c} must lie in 1..={n}"));
    }
    if let Weighting::Fixed(w) = &cfg.weighting {
        if w.len() != views {
            return bad(format!("{} fixed weights for {views} views", w.len()));
        }
        if w.iter().any(|&x| !x.is_finite() || x < 0.0) {
            return bad("fixed weights must be finite and non-negative".into());
        }
        if w.iter().sum::<f64>() <= 0.0 {
            return bad("fixed weights must not all be zero".into());
        }
    }
    Ok(())
}

/// Writes the effective indicator — `Y` itself, or the scaled
/// `Y(YᵀY)^{-1/2}` for the scaled-rotation objective — into `out`.
fn effective_indicator(y: &Matrix, scaled: bool, sizes: &mut Vec<f64>, out: &mut Matrix) {
    if scaled {
        scaled_indicator_into(y, sizes, out);
    } else {
        out.copy_from(y);
    }
}

/// `‖A − B‖_F` without materializing the difference. Accumulates the
/// squared residual in the same row-major order (and with the same
/// `a + (-1.0)·b` update) as `(&a - &b).frobenius_norm()`, so the result
/// is bitwise identical.
fn frobenius_distance(a: &Matrix, b: &Matrix) -> f64 {
    debug_assert_eq!(a.shape(), b.shape());
    a.as_slice()
        .iter()
        .zip(b.as_slice())
        .map(|(&x, &y)| {
            // Keep the Sub impl's `x + (-1.0)·y` update verbatim.
            #[allow(clippy::neg_multiply)]
            let d = x + (-1.0) * y;
            d * d
        })
        .sum::<f64>()
        .sqrt()
}

/// `w` scaled to sum 1 (uniform when it sums to zero).
fn normalized(w: &[f64]) -> Vec<f64> {
    let s: f64 = w.iter().sum();
    if s > 0.0 {
        w.iter().map(|&x| x / s).collect()
    } else {
        vec![1.0 / w.len().max(1) as f64; w.len()]
    }
}

/// Yu–Shi initialization of the spectral rotation (Yu & Shi, *Multiclass
/// Spectral Clustering*, ICCV 2003): normalize the embedding rows onto the
/// unit sphere, greedily pick `c` rows that are maximally mutually
/// orthogonal (they sit near the `c` latent indicator directions), stack
/// them as columns, and project to the nearest orthogonal matrix.
///
/// Public because every rotation-based discretizer (here and in the AWP
/// baseline) needs it: raw argmax on a spectral embedding degenerates, as
/// the first Laplacian eigenvector is near-constant.
pub fn init_rotation(f: &Matrix) -> Result<Matrix> {
    let (n, c) = f.shape();
    debug_assert!(n >= c);
    // Unit-normalized rows (zero rows stay zero and are never picked first
    // unless everything is zero, in which case identity is returned).
    let mut rows = f.clone();
    let norms: Vec<f64> = (0..n).map(|i| umsc_linalg::ops::normalize(rows.row_mut(i))).collect();
    let first = norms
        .iter()
        .enumerate()
        .max_by(|a, b| a.1.partial_cmp(b.1).unwrap_or(std::cmp::Ordering::Equal))
        .map(|(i, _)| i)
        .unwrap_or(0);

    let mut r = Matrix::zeros(c, c);
    r.set_col(0, rows.row(first));
    let mut score = vec![0.0f64; n];
    for k in 1..c {
        let prev = r.col(k - 1);
        for (i, sc) in score.iter_mut().enumerate() {
            *sc += umsc_linalg::ops::dot(rows.row(i), &prev).abs();
        }
        let pick = umsc_linalg::ops::argmin(&score).unwrap_or(0);
        r.set_col(k, rows.row(pick));
    }
    if r.frobenius_norm() == 0.0 {
        return Ok(Matrix::identity(c));
    }
    Ok(procrustes(&r)?)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::GraphKind;
    use umsc_data::shapes::{rings_multiview, two_moons_multiview};
    use umsc_data::synth::{MultiViewGmm, ViewSpec};
    use umsc_linalg::LinOp;
    use umsc_metrics::clustering_accuracy;

    fn easy_gmm(seed: u64) -> MultiViewDataset {
        MultiViewGmm::new(
            "easy",
            3,
            25,
            vec![ViewSpec::clean(5), ViewSpec::clean(8), ViewSpec { signal: 0.9, ..ViewSpec::clean(6) }],
        )
        .generate(seed)
    }

    #[test]
    fn recovers_planted_clusters() {
        let data = easy_gmm(1);
        let res = Umsc::new(UmscConfig::new(3)).fit(&data).unwrap();
        let acc = clustering_accuracy(&res.labels, &data.labels);
        assert!(acc > 0.95, "ACC {acc}");
    }

    #[test]
    fn output_shapes_and_orthogonality() {
        let data = easy_gmm(2);
        let res = Umsc::new(UmscConfig::new(3)).fit(&data).unwrap();
        assert_eq!(res.labels.len(), 75);
        assert_eq!(res.embedding.shape(), (75, 3));
        assert_eq!(res.rotation.shape(), (3, 3));
        assert_eq!(res.indicator.shape(), (75, 3));
        // F and R orthonormal.
        assert!(res.embedding.matmul_transpose_a(&res.embedding).approx_eq(&Matrix::identity(3), 1e-8));
        assert!(res.rotation.matmul_transpose_a(&res.rotation).approx_eq(&Matrix::identity(3), 1e-8));
        // Y is a valid indicator matching labels.
        for (i, &l) in res.labels.iter().enumerate() {
            let row = res.indicator.row(i);
            assert_eq!(row[l], 1.0);
            assert_eq!(row.iter().sum::<f64>(), 1.0);
        }
        // Weights normalized.
        let ws: f64 = res.view_weights.iter().sum();
        assert!((ws - 1.0).abs() < 1e-12);
    }

    #[test]
    fn objective_monotone_nonincreasing() {
        let data = easy_gmm(3);
        let res = Umsc::new(UmscConfig::new(3).with_max_iter(30)).fit(&data).unwrap();
        assert!(res.history.len() >= 2);
        for w in res.history.windows(2) {
            assert!(
                w[1].objective <= w[0].objective + 1e-6 * (1.0 + w[0].objective.abs()),
                "objective increased: {} -> {}",
                w[0].objective,
                w[1].objective
            );
        }
    }

    #[test]
    fn converges_quickly_on_easy_data() {
        let data = easy_gmm(4);
        let res = Umsc::new(UmscConfig::new(3).with_max_iter(50)).fit(&data).unwrap();
        assert!(res.converged, "did not converge in 50 iterations");
        assert!(res.history.len() <= 25, "took {} iterations", res.history.len());
    }

    #[test]
    fn nonlinear_shapes_need_the_graph() {
        // Two moons: K-means on raw coordinates fails; the unified spectral
        // method must succeed through the kernel graph.
        let data = two_moons_multiview(140, 0.06, 5);
        let res = Umsc::new(UmscConfig::new(2)).fit(&data).unwrap();
        let acc = clustering_accuracy(&res.labels, &data.labels);
        assert!(acc > 0.9, "ACC {acc}");
    }

    #[test]
    fn rings_with_adaptive_graph() {
        let data = rings_multiview(3, 50, 0.03, 6);
        let cfg = UmscConfig::new(3).with_graph(GraphKind::Adaptive { k: 8 });
        let res = Umsc::new(cfg).fit(&data).unwrap();
        let acc = clustering_accuracy(&res.labels, &data.labels);
        assert!(acc > 0.9, "ACC {acc}");
    }

    #[test]
    fn noisy_view_gets_downweighted() {
        let mut data = easy_gmm(7);
        data.corrupt_view(2, 1.0, 99);
        let res = Umsc::new(UmscConfig::new(3)).fit(&data).unwrap();
        let w = &res.view_weights;
        assert!(w[2] < w[0], "noise view weight {} not below clean {}", w[2], w[0]);
        assert!(w[2] < w[1]);
        // And clustering still works off the clean views.
        let acc = clustering_accuracy(&res.labels, &data.labels);
        assert!(acc > 0.9, "ACC {acc}");
    }

    #[test]
    fn uniform_and_fixed_weighting() {
        let data = easy_gmm(8);
        let res_u = Umsc::new(UmscConfig::new(3).with_weighting(Weighting::Uniform)).fit(&data).unwrap();
        assert!(res_u.view_weights.iter().all(|&w| (w - 1.0 / 3.0).abs() < 1e-12));
        let res_f = Umsc::new(UmscConfig::new(3).with_weighting(Weighting::Fixed(vec![2.0, 1.0, 1.0])))
            .fit(&data)
            .unwrap();
        assert!((res_f.view_weights[0] - 0.5).abs() < 1e-12);
    }

    #[test]
    fn fixed_weights_validated() {
        let data = easy_gmm(9);
        let bad = Umsc::new(UmscConfig::new(3).with_weighting(Weighting::Fixed(vec![1.0])));
        assert!(matches!(bad.fit(&data), Err(UmscError::InvalidInput(_))));
        let neg = Umsc::new(UmscConfig::new(3).with_weighting(Weighting::Fixed(vec![1.0, -1.0, 0.5])));
        assert!(neg.fit(&data).is_err());
    }

    #[test]
    fn two_stage_ablation_runs_and_is_reasonable() {
        let data = easy_gmm(10);
        let cfg = UmscConfig::new(3).with_discretization(Discretization::KMeans { restarts: 5 });
        let res = Umsc::new(cfg).fit(&data).unwrap();
        let acc = clustering_accuracy(&res.labels, &data.labels);
        assert!(acc > 0.9, "two-stage ACC {acc}");
        assert!(res.history.iter().all(|s| s.rotation_term == 0.0));
    }

    #[test]
    fn scaled_rotation_variant_runs() {
        let data = easy_gmm(11);
        let cfg = UmscConfig::new(3).with_discretization(Discretization::ScaledRotation);
        let res = Umsc::new(cfg).fit(&data).unwrap();
        let acc = clustering_accuracy(&res.labels, &data.labels);
        assert!(acc > 0.9, "scaled rotation ACC {acc}");
    }

    #[test]
    fn single_cluster_trivial() {
        let data = easy_gmm(12);
        let res = Umsc::new(UmscConfig::new(1)).fit(&data).unwrap();
        assert!(res.labels.iter().all(|&l| l == 0));
        assert!(res.converged);
    }

    #[test]
    fn more_clusters_than_points_rejected() {
        let data = MultiViewGmm::new("tiny", 2, 2, vec![ViewSpec::clean(2)]).generate(0);
        let res = Umsc::new(UmscConfig::new(5)).fit(&data);
        assert!(matches!(res, Err(UmscError::InvalidInput(_))));
    }

    #[test]
    fn fit_affinities_matches_fit() {
        let data = easy_gmm(15);
        let model = Umsc::new(UmscConfig::new(3));
        let direct = model.fit(&data).unwrap();
        // Build the same affinities by hand and go through the other door.
        let affinities: Vec<Matrix> = data
            .views
            .iter()
            .map(|x| crate::pipeline::view_affinity(x, &model.config().graph_config()))
            .collect();
        let via_aff = model.fit_affinities(&affinities).unwrap();
        assert_eq!(direct.labels, via_aff.labels);
    }

    #[test]
    fn fit_affinities_validates() {
        let model = Umsc::new(UmscConfig::new(2));
        // Asymmetric.
        let bad = Matrix::from_vec(2, 2, vec![0.0, 1.0, 0.0, 0.0]);
        assert!(model.fit_affinities(&[bad]).is_err());
        // Negative entry.
        let neg = Matrix::from_vec(2, 2, vec![0.0, -1.0, -1.0, 0.0]);
        assert!(model.fit_affinities(&[neg]).is_err());
    }

    #[test]
    fn mismatched_laplacians_rejected() {
        let model = Umsc::new(UmscConfig::new(2));
        let ls = vec![Matrix::identity(4), Matrix::identity(5)];
        assert!(model.fit_laplacians(&ls).is_err());
        assert!(model.fit_laplacians(&[]).is_err());
    }

    #[test]
    fn deterministic_given_seed() {
        let data = easy_gmm(13);
        let a = Umsc::new(UmscConfig::new(3).with_seed(5)).fit(&data).unwrap();
        let b = Umsc::new(UmscConfig::new(3).with_seed(5)).fit(&data).unwrap();
        assert_eq!(a.labels, b.labels);
        assert_eq!(a.history.len(), b.history.len());
    }

    #[test]
    fn lambda_extremes_still_valid() {
        let data = easy_gmm(14);
        for lambda in [1e-4, 1e4] {
            let res = Umsc::new(UmscConfig::new(3).with_lambda(lambda)).fit(&data).unwrap();
            assert_eq!(res.labels.len(), data.n());
            // All clusters used (repair guarantees non-empty).
            for j in 0..3 {
                assert!(res.labels.contains(&j), "λ={lambda}: cluster {j} empty");
            }
        }
    }

    fn sparse_laplacians(data: &MultiViewDataset, k: usize) -> Vec<CsrMatrix> {
        use umsc_graph::{knn_affinity, normalized_laplacian_sparse, pairwise_sq_distances, Bandwidth};
        let bandwidth = Bandwidth::SelfTuning { k: 7 };
        data.views
            .iter()
            .map(|x| normalized_laplacian_sparse(&knn_affinity(&pairwise_sq_distances(x), k, &bandwidth)))
            .collect()
    }

    fn two_view_gmm(per: usize, seed: u64) -> MultiViewDataset {
        let mut gen = MultiViewGmm::new("sp", 3, per, vec![ViewSpec::clean(6), ViewSpec::clean(8)]);
        gen.separation = 6.0;
        gen.generate(seed)
    }

    #[test]
    fn sparse_path_matches_dense_path() {
        // Same k-NN Laplacians through both doors.
        let data = two_view_gmm(25, 1);
        let model = Umsc::new(UmscConfig::new(3));
        let sparse_ls = sparse_laplacians(&data, 10);
        let dense_ls: Vec<Matrix> = sparse_ls.iter().map(|l| l.to_dense()).collect();
        let dense = model.fit_laplacians(&dense_ls).unwrap();
        let sparse = model.fit_laplacians_sparse(&sparse_ls).unwrap();
        // Both doors run the same CSR operator.
        assert_eq!(dense.labels, sparse.labels, "partitions diverge");
        let acc = clustering_accuracy(&sparse.labels, &data.labels);
        assert!(acc > 0.95, "sparse path ACC {acc}");
    }

    #[test]
    fn sparse_objective_monotone_and_structures_valid() {
        let data = two_view_gmm(30, 2);
        let res = Umsc::new(UmscConfig::new(3)).fit_laplacians_sparse(&sparse_laplacians(&data, 10)).unwrap();
        for w in res.history.windows(2) {
            assert!(w[1].objective <= w[0].objective + 1e-5 * (1.0 + w[0].objective.abs()));
        }
        assert!(res.embedding.matmul_transpose_a(&res.embedding).approx_eq(&Matrix::identity(3), 1e-6));
        assert!((res.view_weights.iter().sum::<f64>() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn noisy_view_downweighted_sparse() {
        let mut data = two_view_gmm(30, 3);
        data.corrupt_view(1, 1.0, 9);
        let res = Umsc::new(UmscConfig::new(3)).fit_laplacians_sparse(&sparse_laplacians(&data, 10)).unwrap();
        assert!(res.view_weights[1] < res.view_weights[0], "{:?}", res.view_weights);
    }

    #[test]
    fn sparse_fixed_and_uniform_weighting() {
        let data = two_view_gmm(20, 4);
        let ls = sparse_laplacians(&data, 8);
        let res = Umsc::new(UmscConfig::new(3).with_weighting(Weighting::Uniform))
            .fit_laplacians_sparse(&ls)
            .unwrap();
        assert!(res.view_weights.iter().all(|&w| (w - 0.5).abs() < 1e-12));
        let res = Umsc::new(UmscConfig::new(3).with_weighting(Weighting::Fixed(vec![3.0, 1.0])))
            .fit_laplacians_sparse(&ls)
            .unwrap();
        assert!((res.view_weights[0] - 0.75).abs() < 1e-12);
    }

    #[test]
    fn sparse_validates_input() {
        let model = Umsc::new(UmscConfig::new(2));
        assert!(model.fit_laplacians_sparse(&[]).is_err());
        let bad = vec![CsrMatrix::identity(3), CsrMatrix::identity(4)];
        assert!(model.fit_laplacians_sparse(&bad).is_err());
        let one = vec![CsrMatrix::identity(3)];
        assert!(Umsc::new(UmscConfig::new(9)).fit_laplacians_sparse(&one).is_err());
    }

    #[test]
    fn bad_fixed_weights_rejected_on_every_path() {
        let data = two_view_gmm(10, 5);
        let ls = sparse_laplacians(&data, 6);
        let dense: Vec<Matrix> = ls.iter().map(CsrMatrix::to_dense).collect();
        for w in [vec![1.0, -1.0], vec![0.0, 0.0], vec![f64::NAN, 1.0]] {
            let model = Umsc::new(UmscConfig::new(3).with_weighting(Weighting::Fixed(w.clone())));
            for res in [model.fit(&data), model.fit_laplacians(&dense), model.fit_laplacians_sparse(&ls)] {
                assert!(matches!(res, Err(UmscError::InvalidInput(_))), "{w:?}: {res:?}");
            }
        }
    }

    #[test]
    fn single_cluster_is_one_shortcut_for_every_path() {
        let data = two_view_gmm(12, 6);
        let sparse_ls = sparse_laplacians(&data, 6);
        let dense_ls: Vec<Matrix> = sparse_ls.iter().map(|l| l.to_dense()).collect();
        let model = Umsc::new(UmscConfig::new(1).with_weighting(Weighting::Fixed(vec![3.0, 1.0])));
        let dense = model.fit_laplacians(&dense_ls).unwrap();
        let sparse = model.fit_laplacians_sparse(&sparse_ls).unwrap();
        for res in [&dense, &sparse] {
            assert_eq!(res.labels, vec![0; data.n()]);
            assert!(res.converged);
            assert_eq!(res.view_weights, vec![0.75, 0.25]);
        }
        // Both embeddings are the bottom eigenvector of the mean
        // Laplacian (D^{1/2}·1 normalized, not the constant vector).
        let align = dense.embedding.matmul_transpose_a(&sparse.embedding).trace().abs();
        assert!((align - 1.0).abs() < 1e-8, "c = 1 embeddings differ: |<f_dense, f_sparse>| = {align}");
    }

    #[test]
    fn fused_operator_weights_swap_in_place() {
        let data = two_view_gmm(15, 7);
        let ls = sparse_laplacians(&data, 6);
        let mut fused = crate::sparse_fused_operator(&ls);
        let n = fused.dim();
        let x: Vec<f64> = (0..n).map(|i| ((i * 13 + 5) as f64).sin()).collect();
        let mut y = vec![0.0; n];
        FusedOperator::set_weights(&mut fused, &[0.6, 0.4]);
        fused.apply_into(&x, &mut y);
        // Reference: per-view spmv accumulated in view order.
        let mut expect = vec![0.0; n];
        let mut tmp = vec![0.0; n];
        for (l, w) in ls.iter().zip([0.6, 0.4]) {
            l.spmv(&x, &mut tmp);
            for (e, &t) in expect.iter_mut().zip(tmp.iter()) {
                *e += w * t;
            }
        }
        assert_eq!(y, expect, "fused operator diverges from per-view reference");
    }
}
