//! Low-rank operator node: `Z Λ Zᵀ` for anchor/bipartite graphs.

use crate::{gate_threads, new_scratch, LinOp, Scratch};

/// `Z Λ Zᵀ` over a borrowed row-major `n × m` factor `Z` and optional
/// diagonal `Λ` (`None` means identity), with `m ≪ n` — the implicit
/// form of an anchor-graph similarity `B Bᵀ`.
///
/// Applies cost `O(n·m)` instead of `O(n²)`: `t = Zᵀx` (each `t[j]`
/// summed over ascending rows while each worker streams `Z` over its own
/// block of output indices, so the result is thread-count invariant), an
/// order-free diagonal scale, then `y = Z t` with the dense row kernel.
/// The intermediate `t` (length `m`, or `m × k` for blocks) lives in an
/// internal grow-only scratch panel — allocation-free once warm.
#[derive(Debug)]
pub struct LowRankAnchor<'a> {
    n: usize,
    m: usize,
    z: &'a [f64],
    lambda: Option<&'a [f64]>,
    scratch: Scratch,
}

impl<'a> LowRankAnchor<'a> {
    /// `Z Zᵀ` over a row-major `n × m` factor.
    ///
    /// # Panics
    /// Panics if `z.len() != n * m`.
    pub fn new(n: usize, m: usize, z: &'a [f64]) -> Self {
        assert_eq!(z.len(), n * m, "LowRankAnchor::new: factor is not n x m");
        LowRankAnchor { n, m, z, lambda: None, scratch: new_scratch() }
    }

    /// Adds a diagonal middle factor: the operator becomes `Z Λ Zᵀ`.
    ///
    /// # Panics
    /// Panics if `lambda.len() != m`.
    pub fn with_scale(mut self, lambda: &'a [f64]) -> Self {
        assert_eq!(lambda.len(), self.m, "LowRankAnchor::with_scale: lambda length mismatch");
        self.lambda = Some(lambda);
        self
    }

    /// Rank bound `m` (number of anchors).
    pub fn rank(&self) -> usize {
        self.m
    }

    /// `tr(Xᵀ Z Λ Zᵀ X)` for a row-major `n × ncols` block `X`, i.e.
    /// `‖Λ^{1/2} Zᵀ X‖²_F`: the first half of an apply, so half its cost.
    /// The anchor solver's per-view trace `c − ‖B_vᵀF‖²` is built on it.
    ///
    /// # Panics
    /// Panics if `x.len() != n * ncols`.
    pub fn quad_trace(&self, x: &[f64], ncols: usize) -> f64 {
        let (n, m) = (self.n, self.m);
        assert_eq!(x.len(), n * ncols, "LowRankAnchor::quad_trace: x length mismatch");
        if n == 0 || m == 0 || ncols == 0 {
            return 0.0;
        }
        let mut scratch = self.scratch.borrow_mut();
        let t = scratch.ensure(m * ncols);
        self.transpose_apply(gate_threads(2 * n * m * ncols), x, ncols, t);
        t.chunks_exact(ncols)
            .enumerate()
            .map(|(j, row)| self.lambda.map_or(1.0, |l| l[j]) * row.iter().map(|v| v * v).sum::<f64>())
            .sum()
    }

    /// `T = Zᵀ X` (`m × ncols`) into `t`. Each worker owns a contiguous
    /// block of T rows and streams `Z` row by row (`i` outermost, as in
    /// `Matrix::matmul_transpose_a`), so every T element is still summed
    /// over ascending `i` with the zero-skip: the value is independent of
    /// the partition.
    fn transpose_apply(&self, threads: usize, x: &[f64], ncols: usize, t: &mut [f64]) {
        let (n, m) = (self.n, self.m);
        let rows_per = m.div_ceil(threads.max(1));
        umsc_rt::par::parallel_chunks_mut_with(threads, t, rows_per * ncols, |ci, block| {
            block.fill(0.0);
            let jlo = ci * rows_per;
            let rows_here = block.len() / ncols;
            for i in 0..n {
                let zrow = &self.z[i * m + jlo..i * m + jlo + rows_here];
                let xrow = &x[i * ncols..(i + 1) * ncols];
                for (local, &a) in zrow.iter().enumerate() {
                    if a == 0.0 {
                        continue;
                    }
                    let trow = &mut block[local * ncols..(local + 1) * ncols];
                    for (o, &b) in trow.iter_mut().zip(xrow.iter()) {
                        *o += a * b;
                    }
                }
            }
        });
    }

    /// [`LinOp::apply_block_into`] with an explicit thread count
    /// (`threads <= 1` runs inline; no work-size gate). The vector apply
    /// is the `ncols == 1` case. Exposed for the bitwise-identity tests.
    pub fn apply_block_into_with(&self, threads: usize, x: &[f64], ncols: usize, y: &mut [f64]) {
        let (n, m) = (self.n, self.m);
        assert_eq!(x.len(), n * ncols, "LowRankAnchor::apply_block_into: x length mismatch");
        assert_eq!(y.len(), n * ncols, "LowRankAnchor::apply_block_into: y length mismatch");
        if ncols == 0 {
            return;
        }
        if n == 0 || m == 0 {
            y.fill(0.0);
            return;
        }
        let mut scratch = self.scratch.borrow_mut();
        let t = scratch.ensure(m * ncols);
        self.transpose_apply(threads, x, ncols, t);

        // T ← Λ T: order-free per element.
        if let Some(lambda) = self.lambda {
            for (j, trow) in t.chunks_exact_mut(ncols).enumerate() {
                let l = lambda[j];
                for v in trow {
                    *v *= l;
                }
            }
        }

        // Y = Z T: the dense row kernel (one output row per work unit,
        // ascending-index accumulation from an exact 0.0, zero-skip).
        let t: &[f64] = t;
        umsc_rt::par::parallel_chunks_mut_with(threads, y, ncols, |i, yrow| {
            yrow.fill(0.0);
            let zrow = &self.z[i * m..(i + 1) * m];
            for (p, &a) in zrow.iter().enumerate() {
                if a == 0.0 {
                    continue;
                }
                let trow = &t[p * ncols..(p + 1) * ncols];
                for (o, &b) in yrow.iter_mut().zip(trow.iter()) {
                    *o += a * b;
                }
            }
        });
    }
}

impl LinOp for LowRankAnchor<'_> {
    fn dim(&self) -> usize {
        self.n
    }

    fn apply_into(&self, x: &[f64], y: &mut [f64]) {
        let flops = 4 * self.n * self.m;
        self.apply_block_into_with(gate_threads(flops), x, 1, y);
    }

    fn apply_block_into(&self, x: &[f64], ncols: usize, y: &mut [f64]) {
        let flops = 4 * self.n * self.m * ncols;
        self.apply_block_into_with(gate_threads(flops), x, ncols, y);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use umsc_rt::Rng;

    fn random(len: usize, seed: u64) -> Vec<f64> {
        let mut rng = Rng::from_seed(seed);
        (0..len).map(|_| rng.gen_range_f64(-1.0, 1.0)).collect()
    }

    /// Dense reference `Z Λ Zᵀ X` computed by naive triple loops.
    fn naive(n: usize, m: usize, z: &[f64], lambda: Option<&[f64]>, x: &[f64], k: usize) -> Vec<f64> {
        let mut t = vec![0.0; m * k];
        for j in 0..m {
            for c in 0..k {
                let mut acc = 0.0;
                for i in 0..n {
                    acc += z[i * m + j] * x[i * k + c];
                }
                t[j * k + c] = acc * lambda.map_or(1.0, |l| l[j]);
            }
        }
        let mut y = vec![0.0; n * k];
        for i in 0..n {
            for c in 0..k {
                let mut acc = 0.0;
                for p in 0..m {
                    acc += z[i * m + p] * t[p * k + c];
                }
                y[i * k + c] = acc;
            }
        }
        y
    }

    #[test]
    fn matches_dense_reference_and_is_thread_invariant() {
        for (n, m, k) in [(12, 3, 1), (40, 8, 4), (65, 16, 3)] {
            let z = random(n * m, 1000 + n as u64);
            let lambda = random(m, 2000 + n as u64);
            let x = random(n * k, 3000 + n as u64);

            for with_lambda in [false, true] {
                let op = LowRankAnchor::new(n, m, &z);
                let op = if with_lambda { op.with_scale(&lambda) } else { op };
                let lref = with_lambda.then_some(lambda.as_slice());

                let mut reference = vec![f64::NAN; n * k];
                op.apply_block_into_with(1, &x, k, &mut reference);
                let expect = naive(n, m, &z, lref, &x, k);
                for (r, e) in reference.iter().zip(expect.iter()) {
                    assert!((r - e).abs() < 1e-13, "n={n} m={m} k={k}");
                }

                for threads in [2, 3, 7] {
                    let mut y = vec![f64::NAN; n * k];
                    op.apply_block_into_with(threads, &x, k, &mut y);
                    assert_eq!(y, reference, "n={n} m={m} k={k} threads={threads}");
                }
            }
        }
    }

    #[test]
    fn quad_trace_matches_apply() {
        let (n, m, k) = (37, 6, 3);
        let z = random(n * m, 5);
        let lambda = random(m, 6);
        let x = random(n * k, 7);
        let op = LowRankAnchor::new(n, m, &z).with_scale(&lambda);
        let mut y = vec![0.0; n * k];
        op.apply_block_into(&x, k, &mut y);
        let expect: f64 = x.iter().zip(y.iter()).map(|(a, b)| a * b).sum();
        let got = op.quad_trace(&x, k);
        assert!((got - expect).abs() < 1e-12 * (1.0 + expect.abs()), "{got} vs {expect}");
    }

    #[test]
    fn vector_apply_is_block_with_one_column() {
        let (n, m) = (30, 5);
        let z = random(n * m, 1);
        let x = random(n, 2);
        let op = LowRankAnchor::new(n, m, &z);
        assert_eq!(op.rank(), m);
        let mut y = vec![f64::NAN; n];
        op.apply_into(&x, &mut y);
        let mut yb = vec![f64::NAN; n];
        op.apply_block_into(&x, 1, &mut yb);
        assert_eq!(y, yb);
    }
}
