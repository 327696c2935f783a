//! Property tests for the anchor-graph substrate: Z rows are sparse
//! probability distributions, the induced affinity is row-stochastic, and
//! the construction is deterministic.

use umsc_graph::{anchor_view_factor, anchor_weights, normalized_factor, select_anchors};
use umsc_linalg::Matrix;
use umsc_rt::check::{check, Config};
use umsc_rt::{ensure, Rng};

fn cfg() -> Config {
    Config::cases(24)
}

fn points(rng: &mut Rng, n: usize, d: usize) -> Matrix {
    Matrix::from_fn(n, d, |_, _| rng.gen_range_f64(-10.0, 10.0))
}

#[test]
fn z_rows_are_sparse_distributions() {
    check(
        &cfg(),
        |rng| (points(rng, 25, 3), rng.gen_range(3..10), rng.gen_range(1..4)),
        |(x, m, k)| {
            let k = (*k).min(*m);
            let anchors = select_anchors(x, *m, 1);
            let z = anchor_weights(x, &anchors, k);
            for i in 0..25 {
                let row = z.row(i);
                let s: f64 = row.iter().sum();
                ensure!((s - 1.0).abs() < 1e-9, "row {i} sums to {s}");
                ensure!(row.iter().all(|&v| v >= 0.0 && v.is_finite()));
                ensure!(row.iter().filter(|&&v| v > 0.0).count() <= k);
            }
            Ok(())
        },
    );
}

#[test]
fn induced_affinity_row_stochastic() {
    check(&cfg(), |rng| (points(rng, 20, 2), rng.gen_range(4..9)), |(x, m)| {
        let (b, _, _) = anchor_view_factor(x, *m, 3.min(*m), 0);
        let w = b.matmul_transpose_b(&b);
        for i in 0..20 {
            let s: f64 = w.row(i).iter().sum();
            ensure!((s - 1.0).abs() < 1e-8, "row {i} sums to {s}");
            ensure!(w.row(i).iter().all(|&v| v >= -1e-12));
        }
        // Symmetric by construction.
        ensure!(w.is_symmetric(1e-10));
        Ok(())
    });
}

#[test]
fn deterministic_in_seed() {
    check(
        &cfg(),
        |rng| (points(rng, 15, 2), rng.gen_range(0..100) as u64),
        |(x, seed)| {
            let a1 = select_anchors(x, 5, *seed);
            let a2 = select_anchors(x, 5, *seed);
            ensure!(a1.approx_eq(&a2, 0.0));
            let (z1, _) = normalized_factor(&anchor_weights(x, &a1, 2));
            let (z2, _) = normalized_factor(&anchor_weights(x, &a2, 2));
            ensure!(z1.approx_eq(&z2, 0.0));
            Ok(())
        },
    );
}

#[test]
fn anchors_are_actual_points() {
    check(&cfg(), |rng| (points(rng, 12, 2), rng.gen_range(1..6)), |(x, m)| {
        let anchors = select_anchors(x, *m, 3);
        for j in 0..*m {
            let found = (0..12).any(|i| umsc_linalg::ops::sq_dist(anchors.row(j), x.row(i)) < 1e-18);
            ensure!(found, "anchor {j} is not a data point");
        }
        Ok(())
    });
}
