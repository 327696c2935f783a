//! Allocation-regression gate driven by `scripts/verify.sh`.
//!
//! Runs one graph (CSR) fit and one anchor fit with telemetry on and
//! prints the `workspace.realloc` counter — the number of times a solver workspace
//! buffer had to be re-shaped (and therefore reallocated). Each fit sizes
//! its buffers once; every warm sweep after that must reuse them, so the
//! count is a small structural constant. The gate compares it against the
//! committed baseline in `scripts/alloc_baseline.txt`: a higher number
//! means someone re-introduced per-sweep reallocation into the hot loop.
//!
//! Output (stable, machine-readable): one `workspace.realloc.<path>=<n>`
//! line per fit, then the gated total `workspace.realloc=<n>`.

use umsc_core::{AnchorUmsc, AnchorUmscConfig, Umsc, UmscConfig, UmscResult};
use umsc_data::synth::{MultiViewGmm, ViewSpec};

fn main() {
    umsc_obs::set_enabled(true);
    umsc_obs::reset();

    let mut gen = MultiViewGmm::new(
        "alloc-gate",
        3,
        40,
        vec![ViewSpec::clean(6), ViewSpec::clean(8), ViewSpec::clean(5)],
    );
    gen.separation = 6.0;
    let data = gen.generate(7);

    let model = Umsc::new(UmscConfig::new(3).with_max_iter(30));
    let anchor = AnchorUmsc::new(AnchorUmscConfig::new(3).with_anchors(30));
    let fits: [(&str, &dyn Fn() -> umsc_core::Result<UmscResult>); 2] = [
        ("sparse", &|| model.fit(&data)),
        ("anchor", &|| anchor.fit(&data)),
    ];
    let mut total = 0;
    for (path, fit) in fits {
        let res = fit().unwrap_or_else(|e| panic!("{path} fit failed: {e}"));
        assert_eq!(res.labels.len(), data.n());
        let realloc = realloc_count() - total;
        total += realloc;
        println!("workspace.realloc.{path}={realloc}");
    }
    println!("workspace.realloc={total}");
}

fn realloc_count() -> u64 {
    umsc_obs::counters_snapshot()
        .iter()
        .find(|(name, _)| name == "workspace.realloc")
        .map(|&(_, v)| v)
        .unwrap_or(0)
}
