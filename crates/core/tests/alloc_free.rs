//! Counting-allocator proofs about the solver's memory behavior, on the
//! shared [`umsc_rt::alloc_track`] instrumentation:
//!
//! 1. warm `one_step_solve` sweeps are **allocation-free** on both fused
//!    operators: CSR (both rotation discretizations) and anchor — the
//!    operators' internal scratch included;
//! 2. no fit reaches one `n × n` dense matrix of **peak live bytes** on a
//!    k-NN graph: not the CSR fit, not the fit of the same Laplacians
//!    handed over in dense form, not the anchor fit — the memory claim of
//!    the matrix-free design.
//!
//! Threads are pinned to one (`UMSC_THREADS=1`) because the counters are
//! thread-local (see the module docs of `alloc_track` for why) and worker
//! threads would both allocate stacks and hide their traffic.

use umsc_core::{
    anchor_fused_operator, build_view_laplacians_sparse, sparse_fused_operator, AnchorUmsc,
    AnchorUmscConfig, Discretization, FusedOperator, SolverWorkspace, Umsc, UmscConfig,
};
use umsc_data::synth::{MultiViewGmm, ViewSpec};
use umsc_linalg::Matrix;
use umsc_rt::alloc_track::{measure, CountingAlloc};

#[global_allocator]
static ALLOCATOR: CountingAlloc = CountingAlloc;

fn gmm(per: usize, seed: u64) -> umsc_data::MultiViewDataset {
    MultiViewGmm::new("alloc", 3, per, vec![ViewSpec::clean(5), ViewSpec::clean(6)]).generate(seed)
}

/// Warm-starts, runs two sizing sweeps, then counts the heap traffic of
/// three more.
fn warm_sweep_allocations<O: FusedOperator>(model: &Umsc, op: &mut O) -> u64 {
    let mut ws = SolverWorkspace::new();
    let mut st = model.init_solver_state(op, &mut ws).unwrap();
    // Warm-up: the first sweeps size every buffer (including the two SVD
    // scratches, which see their final shapes mid-iteration).
    for _ in 0..2 {
        model.one_step_solve(op, &mut st, &mut ws).unwrap();
    }
    measure(|| {
        for _ in 0..3 {
            model.one_step_solve(op, &mut st, &mut ws).unwrap();
        }
    })
    .allocations
}

#[test]
fn one_step_solve_is_allocation_free_once_warm() {
    // Single-threaded kernels: thread spawns allocate stacks, and the flop
    // gates would engage threads on larger inputs.
    std::env::set_var("UMSC_THREADS", "1");

    let data = gmm(20, 7);
    for discretization in [Discretization::Rotation, Discretization::ScaledRotation] {
        let cfg = UmscConfig::new(3).with_discretization(discretization.clone());
        let model = Umsc::new(cfg);
        let laplacians = build_view_laplacians_sparse(&data, &model.config().graph_config()).unwrap();
        let allocations = warm_sweep_allocations(&model, &mut sparse_fused_operator(&laplacians));
        assert_eq!(allocations, 0, "{discretization:?}: warm sweeps touched the heap {allocations} times");
    }
}

#[test]
fn sparse_sweeps_are_allocation_free_once_warm() {
    std::env::set_var("UMSC_THREADS", "1");

    let data = gmm(20, 8);
    let model = Umsc::new(UmscConfig::new(3));
    let laplacians = build_view_laplacians_sparse(&data, &model.config().graph_config()).unwrap();
    let allocations = warm_sweep_allocations(&model, &mut sparse_fused_operator(&laplacians));
    assert_eq!(allocations, 0, "warm sparse sweeps touched the heap {allocations} times");
}

#[test]
fn anchor_sweeps_are_allocation_free_once_warm() {
    std::env::set_var("UMSC_THREADS", "1");

    let data = gmm(20, 11);
    let factors: Vec<Matrix> =
        data.views.iter().map(|x| umsc_graph::anchor_view_factor(x, 15, 4, 3).0).collect();
    let model = Umsc::new(UmscConfig::new(3));
    let allocations = warm_sweep_allocations(&model, &mut anchor_fused_operator(&factors));
    assert_eq!(allocations, 0, "warm anchor sweeps touched the heap {allocations} times");
}

#[test]
fn laplacian_fits_peak_below_one_dense_matrix() {
    std::env::set_var("UMSC_THREADS", "1");

    // Big enough that one n × n matrix dwarfs every n × c intermediate.
    let data = gmm(80, 9);
    let n = data.n();
    let model = Umsc::new(UmscConfig::new(3));
    let sparse_ls = build_view_laplacians_sparse(&data, &model.config().graph_config()).unwrap();
    let dense_ls: Vec<Matrix> = sparse_ls.iter().map(|l| l.to_dense()).collect();

    let mut dense_res = None;
    let dense_peak = measure(|| dense_res = Some(model.fit_laplacians(&dense_ls))).peak_bytes;
    let mut sparse_res = None;
    let sparse_peak =
        measure(|| sparse_res = Some(model.fit_laplacians_sparse(&sparse_ls))).peak_bytes;
    dense_res.unwrap().unwrap();
    sparse_res.unwrap().unwrap();

    // Dense input is converted to CSR up front, so neither door may
    // materialize an n × n dense matrix.
    let dense_matrix_bytes = (n * n * std::mem::size_of::<f64>()) as u64;
    for (door, peak) in [("fit_laplacians", dense_peak), ("fit_laplacians_sparse", sparse_peak)] {
        assert!(
            peak < dense_matrix_bytes,
            "{door} peaked at {peak} B ≥ one {n}x{n} matrix ({dense_matrix_bytes} B)"
        );
    }
}

#[test]
fn anchor_fit_peak_memory_stays_below_one_dense_matrix() {
    std::env::set_var("UMSC_THREADS", "1");

    let data = gmm(80, 12);
    let n = data.n();
    let factors: Vec<Matrix> =
        data.views.iter().map(|x| umsc_graph::anchor_view_factor(x, 30, 5, 1).0).collect();
    let model = AnchorUmsc::new(AnchorUmscConfig::new(3).with_anchors(30));
    let mut res = None;
    let peak = measure(|| res = Some(model.fit_factors(&factors))).peak_bytes;
    res.unwrap().unwrap();
    let dense_matrix_bytes = (n * n * std::mem::size_of::<f64>()) as u64;
    assert!(
        peak < dense_matrix_bytes,
        "anchor fit peaked at {peak} B ≥ one {n}x{n} matrix ({dense_matrix_bytes} B)"
    );
}
