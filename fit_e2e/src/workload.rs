//! The three workloads: how each generates its views, fits through a
//! public entry point, and re-runs the same fit split at its layer
//! boundaries for the traced pass.

use std::time::Instant;

use umsc_core::{
    build_view_laplacians, build_view_laplacians_sparse, AnchorUmsc, AnchorUmscConfig, Umsc,
    UmscConfig, UmscError, UmscResult,
};
use umsc_data::{benchmark, BenchmarkId, MultiViewDataset};
use umsc_linalg::Matrix;

use crate::alloc;

/// Inner GPI iterations per F-step on the anchor path. The solver
/// hard-codes this cap; the dense and sparse paths take theirs from
/// `UmscConfig::gpi_max_iter`.
const ANCHOR_GPI_CAP: usize = 20;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// Handwritten through `Umsc::fit_auto` (k-NN graph, CSR path).
    HwSparse,
    /// Handwritten through `AnchorUmsc::fit_model` (m = 100 anchors).
    HwAnchor,
    /// ORL through `Umsc::fit` (dense path, c = 40).
    OrlDense,
}

/// One fit split at its layer boundaries, timed from outside.
pub struct Attributed {
    pub result: UmscResult,
    /// Wall time of the whole split fit.
    pub wall_s: f64,
    /// Time in the graph layer's public calls.
    pub graph_s: f64,
    /// Peak live bytes during the graph calls, above their start.
    pub graph_peak_bytes: u64,
    /// Stored (non-zero) graph entries summed over the views.
    pub graph_nnz: u64,
}

impl Workload {
    pub const ALL: [Workload; 3] = [Workload::HwSparse, Workload::HwAnchor, Workload::OrlDense];

    pub fn name(self) -> &'static str {
        match self {
            Workload::HwSparse => "hw-sparse",
            Workload::HwAnchor => "hw-anchor",
            Workload::OrlDense => "orl-dense",
        }
    }

    pub fn parse(s: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }

    /// Number of inputs one run fits. Each is a separate generator draw,
    /// so a run's figures average over draws rather than ride on one:
    /// ORL fits take four or five sweeps depending on the draw, and
    /// accuracy varies from draw to draw on every workload.
    pub fn inputs(self) -> usize {
        match self {
            Workload::HwSparse | Workload::OrlDense => 3,
            Workload::HwAnchor => 6,
        }
    }

    /// Generator and model seed of input `j` of the run seeded `seed`;
    /// input 0 uses the run seed itself.
    pub fn input_seed(seed: u64, j: usize) -> u64 {
        seed ^ ((j as u64) << 40)
    }

    /// The benchmark generator's views for `seed`, with `validate` run,
    /// as the timed set-up step.
    pub fn generate(self, seed: u64) -> MultiViewDataset {
        let id = match self {
            Workload::HwSparse | Workload::HwAnchor => BenchmarkId::Handwritten,
            Workload::OrlDense => BenchmarkId::Orl,
        };
        let data = benchmark(id, seed);
        data.validate().expect("generated benchmark data validates");
        data
    }

    /// Lowest accepted accuracy of one fit against the generator's
    /// labels. Accuracy varies from draw to draw: over 170 Handwritten
    /// draws per path the lowest seen was 0.92 (sparse) and 0.94
    /// (anchor), over 70 ORL draws 0.97. The floors leave room below
    /// that tail, so that only a broken fit trips them.
    pub fn acc_floor(self) -> f64 {
        match self {
            Workload::HwSparse | Workload::HwAnchor => 0.85,
            Workload::OrlDense => 0.90,
        }
    }

    /// GPI iteration cap of one F-step on this workload's path.
    pub fn gpi_cap(self, c: usize) -> usize {
        match self {
            Workload::HwAnchor => ANCHOR_GPI_CAP,
            Workload::HwSparse | Workload::OrlDense => UmscConfig::new(c).gpi_max_iter,
        }
    }

    fn umsc(c: usize, seed: u64) -> Umsc {
        Umsc::new(UmscConfig::new(c).with_seed(seed))
    }

    fn anchor(c: usize, seed: u64) -> AnchorUmsc {
        AnchorUmsc::new(AnchorUmscConfig::new(c).with_seed(seed))
    }

    /// One fit from views to labels through the workload's public entry
    /// point.
    pub fn fit(self, data: &MultiViewDataset, seed: u64) -> Result<UmscResult, UmscError> {
        let c = data.num_clusters;
        match self {
            Workload::HwSparse => Self::umsc(c, seed).fit_auto(data),
            Workload::HwAnchor => Self::anchor(c, seed).fit_model(data).map(|m| m.result),
            Workload::OrlDense => Self::umsc(c, seed).fit(data),
        }
    }

    /// The same fit as [`Workload::fit`], made of the calls that entry
    /// point is built from, with the graph calls timed from outside. On
    /// the anchor path the per-view factors come from
    /// `umsc_graph::anchor_view_factor`, seeded as `fit_model` seeds them,
    /// and `fit_model`'s out-of-sample extension is left out.
    pub fn attributed(self, data: &MultiViewDataset, seed: u64) -> Result<Attributed, UmscError> {
        let c = data.num_clusters;
        let start = Instant::now();
        let baseline = alloc::rearm();
        match self {
            Workload::HwSparse => {
                let model = Self::umsc(c, seed);
                let laps = build_view_laplacians_sparse(data, &model.config().graph_config())?;
                let graph_s = start.elapsed().as_secs_f64();
                let graph_peak_bytes = alloc::peak_above(baseline);
                let graph_nnz = laps.iter().map(|l| l.nnz() as u64).sum();
                let result = model.fit_laplacians_sparse(&laps)?;
                let wall_s = start.elapsed().as_secs_f64();
                Ok(Attributed {
                    result,
                    wall_s,
                    graph_s,
                    graph_peak_bytes,
                    graph_nnz,
                })
            }
            Workload::OrlDense => {
                let model = Self::umsc(c, seed);
                let laps = build_view_laplacians(data, &model.config().graph_config())?;
                let graph_s = start.elapsed().as_secs_f64();
                let graph_peak_bytes = alloc::peak_above(baseline);
                let graph_nnz = laps.iter().map(nonzeros).sum();
                let result = model.fit_laplacians(&laps)?;
                let wall_s = start.elapsed().as_secs_f64();
                Ok(Attributed {
                    result,
                    wall_s,
                    graph_s,
                    graph_peak_bytes,
                    graph_nnz,
                })
            }
            Workload::HwAnchor => {
                let cfg = AnchorUmscConfig::new(c).with_seed(seed);
                let factors: Vec<Matrix> = data
                    .views
                    .iter()
                    .enumerate()
                    .map(|(v, x)| {
                        let view_seed = seed ^ ((v as u64) << 32);
                        umsc_graph::anchor_view_factor(
                            x,
                            cfg.anchors,
                            cfg.anchor_neighbors,
                            view_seed,
                        )
                        .0
                    })
                    .collect();
                let graph_s = start.elapsed().as_secs_f64();
                let graph_peak_bytes = alloc::peak_above(baseline);
                let graph_nnz = factors.iter().map(nonzeros).sum();
                let result = AnchorUmsc::new(cfg).fit_factors(&factors)?;
                let wall_s = start.elapsed().as_secs_f64();
                Ok(Attributed {
                    result,
                    wall_s,
                    graph_s,
                    graph_peak_bytes,
                    graph_nnz,
                })
            }
        }
    }
}

fn nonzeros(m: &Matrix) -> u64 {
    m.as_slice().iter().filter(|&&v| v != 0.0).count() as u64
}
