//! `fit_e2e`: one complete umsc fit, from generated views to labels,
//! timed end to end and attributed to its layers.
//!
//! ```text
//! cargo run --release --offline --quiet --manifest-path fit_e2e/Cargo.toml -- \
//!     --workload <hw-sparse|hw-anchor|orl-dense> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! A run is a closed loop in one process. It generates the workload's
//! inputs from `--seed` (timed as set-up; see [`Workload::inputs`]), then
//! fits them in turn, one fit at a time with tracing off, until
//! `--seconds` have passed and every input has been fitted
//! [`MIN_FITS_PER_INPUT`] times. Each input's seed is both its generator
//! seed and its model seed; the fit sees the views, never the generator's
//! labels. One traced pass on input 0 follows: the same fit split at its
//! layer boundaries (graph calls timed from outside, solver layers read
//! from the `umsc-obs` spans and counters). With `--trace 1` a child
//! process also repeats input 0's fit with `UMSC_THREADS=1` as the
//! single-thread reference. `fit_e2e/README.md` defines every metric.
//!
//! Every fit passes through the correctness gate ([`Gate`]); a fit that
//! fails any check counts as failed. The human-readable report goes to
//! stdout first; the last stdout line is one JSON object with the keys
//! `correct`, `attempted`, `failed` and `metrics` (the end-to-end metrics
//! with `--trace 0`, the per-layer metrics with `--trace 1`).

mod alloc;
mod workload;

use std::fmt::Write as _;
use std::process::{Command, ExitCode};
use std::time::Instant;

use umsc_core::UmscResult;
use umsc_data::MultiViewDataset;
use umsc_metrics::MetricSuite;
use umsc_obs::PhaseAgg;

use workload::{Attributed, Workload};

#[global_allocator]
static ALLOC: alloc::Tracking = alloc::Tracking;

/// Fewest generator calls timed for `setup_s` (inputs are regenerated
/// in turn when a workload has fewer).
const SETUP_REPEATS: usize = 5;
/// Fewest timed fits of every input, however short `--seconds` is.
const MIN_FITS_PER_INPUT: usize = 2;
/// Largest relative rise allowed between consecutive objective values.
const OBJ_TOL: f64 = 1e-5;
const BYTES_PER_MB: f64 = 1e6;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    /// Internal: fit once and print the outcome (the single-thread child).
    single_fit: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = 10.0;
    let mut trace = false;
    let mut single_fit = false;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        if flag == "--single-fit" {
            single_fit = true;
            continue;
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::parse(&value).ok_or_else(|| {
                    let names: Vec<_> = Workload::ALL.iter().map(|w| w.name()).collect();
                    format!("unknown workload {value:?}; expected one of {names:?}")
                })?);
            }
            "--seed" => {
                seed = Some(
                    value
                        .parse()
                        .map_err(|e| format!("--seed {value:?}: {e}"))?,
                )
            }
            "--seconds" => {
                seconds = value
                    .parse()
                    .map_err(|e| format!("--seconds {value:?}: {e}"))?;
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, got {value:?}")),
                };
            }
            _ => return Err(format!("unknown flag {flag:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds,
        trace,
        single_fit,
    })
}

/// Splits generated data into what the program may see — the views,
/// with a round-robin placeholder where the labels were (so the dataset
/// still validates) — and the ground truth kept for scoring.
fn blind(data: MultiViewDataset) -> (MultiViewDataset, Vec<usize>) {
    let c = data.num_clusters;
    let placeholder = (0..data.n()).map(|i| i % c).collect();
    let input = MultiViewDataset {
        name: data.name,
        views: data.views,
        labels: placeholder,
        num_clusters: c,
    };
    (input, data.labels)
}

/// What the correctness gate reads from one fit.
struct Outcome {
    labels: Vec<usize>,
    converged: bool,
    objectives: Vec<f64>,
}

impl From<&UmscResult> for Outcome {
    fn from(r: &UmscResult) -> Self {
        Outcome {
            labels: r.labels.clone(),
            converged: r.converged,
            objectives: r.history.iter().map(|s| s.objective).collect(),
        }
    }
}

/// The correctness gate: every fit of a run must return `Ok`, give `n`
/// labels in `0..c`, report convergence, never raise its objective by
/// more than [`OBJ_TOL`] (relative), give the same labels as the first
/// fit of the same input (tracing on or off, any thread count) and reach
/// the workload's accuracy floor.
struct Gate<'a> {
    truths: &'a [Vec<usize>],
    c: usize,
    acc_floor: f64,
    /// Labels of each input's first passing fit.
    references: Vec<Option<Vec<usize>>>,
    attempted: u64,
    failed: u64,
    problems: Vec<String>,
}

impl<'a> Gate<'a> {
    fn new(truths: &'a [Vec<usize>], c: usize, acc_floor: f64) -> Self {
        Gate {
            truths,
            c,
            acc_floor,
            references: vec![None; truths.len()],
            attempted: 0,
            failed: 0,
            problems: Vec::new(),
        }
    }

    /// Records one attempted fit of input `j`; returns whether it passed.
    fn check(&mut self, what: &str, j: usize, fit: Result<Outcome, String>) -> bool {
        self.attempted += 1;
        let problem = match fit {
            Ok(outcome) => self.problem(j, &outcome),
            Err(e) => Some(e),
        };
        match problem {
            None => true,
            Some(p) => {
                self.failed += 1;
                self.problems.push(format!("{what}, input {j}: {p}"));
                false
            }
        }
    }

    fn problem(&mut self, j: usize, o: &Outcome) -> Option<String> {
        let truth = &self.truths[j];
        if o.labels.len() != truth.len() {
            return Some(format!(
                "{} labels for {} points",
                o.labels.len(),
                truth.len()
            ));
        }
        if let Some(l) = o.labels.iter().find(|&&l| l >= self.c) {
            return Some(format!("label {l} outside 0..{}", self.c));
        }
        if !o.converged {
            return Some("did not converge".into());
        }
        if let Some(w) = o
            .objectives
            .windows(2)
            .find(|w| w[1] > w[0] + OBJ_TOL * (1.0 + w[0].abs()))
        {
            return Some(format!("objective rose from {} to {}", w[0], w[1]));
        }
        match &self.references[j] {
            Some(r) if *r != o.labels => {
                return Some("labels differ from the input's first fit".into())
            }
            Some(_) => {}
            None => {
                let acc = MetricSuite::evaluate(&o.labels, truth).acc;
                if acc < self.acc_floor {
                    return Some(format!("accuracy {acc} below the floor {}", self.acc_floor));
                }
                self.references[j] = Some(o.labels.clone());
            }
        }
        None
    }
}

fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.is_empty() {
        0.0
    } else if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Metrics in print order, each as `(name, value, unit)`.
type Metrics = Vec<(&'static str, f64, &'static str)>;

/// Fits once in a child process with `UMSC_THREADS=1`; returns its fit
/// time and outcome.
fn single_thread_fit(w: Workload, seed: u64) -> Result<(f64, Outcome), String> {
    let exe = std::env::current_exe().map_err(|e| format!("locating the benchmark binary: {e}"))?;
    let out = Command::new(exe)
        .args([
            "--workload",
            w.name(),
            "--seed",
            &seed.to_string(),
            "--single-fit",
        ])
        .env("UMSC_THREADS", "1")
        .env_remove("UMSC_TRACE_JSON")
        .env_remove("UMSC_OBS")
        .output()
        .map_err(|e| format!("starting the single-thread child: {e}"))?;
    if !out.status.success() {
        return Err(format!(
            "single-thread child failed: {}",
            String::from_utf8_lossy(&out.stderr).trim()
        ));
    }
    let stdout = String::from_utf8_lossy(&out.stdout);
    let field = |key: &str| {
        stdout
            .lines()
            .find_map(|l| l.strip_prefix(key).and_then(|rest| rest.strip_prefix(' ')))
            .ok_or_else(|| format!("single-thread child printed no {key} line"))
    };
    fn list<T: std::str::FromStr>(s: &str) -> Result<Vec<T>, String> {
        s.split(',')
            .filter(|t| !t.is_empty())
            .map(|t| t.parse().map_err(|_| format!("bad value {t:?}")))
            .collect()
    }
    let fit_s = field("fit_s")?.parse::<f64>().map_err(|e| e.to_string())?;
    let outcome = Outcome {
        labels: list(field("labels")?)?,
        converged: field("converged")? == "true",
        objectives: list(field("objectives")?)?,
    };
    Ok((fit_s, outcome))
}

fn join<T: std::fmt::Display>(values: &[T]) -> String {
    values
        .iter()
        .map(ToString::to_string)
        .collect::<Vec<_>>()
        .join(",")
}

/// The child side of [`single_thread_fit`].
fn single_fit(args: &Args) -> ExitCode {
    umsc_obs::set_enabled(false);
    let (input, _) = blind(args.workload.generate(args.seed));
    let start = Instant::now();
    let fit = args.workload.fit(&input, args.seed);
    let fit_s = start.elapsed().as_secs_f64();
    match fit {
        Ok(r) => {
            let objectives: Vec<f64> = r.history.iter().map(|s| s.objective).collect();
            println!("fit_s {fit_s}");
            println!("converged {}", r.converged);
            println!("objectives {}", join(&objectives));
            println!("labels {}", join(&r.labels));
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("fit failed: {e}");
            ExitCode::FAILURE
        }
    }
}

fn mean(values: &[f64]) -> f64 {
    ratio(values.iter().sum(), values.len() as f64)
}

/// Each input's median, averaged over the inputs with samples.
fn mean_of_medians(samples: &[Vec<f64>]) -> f64 {
    mean(
        &samples
            .iter()
            .filter(|t| !t.is_empty())
            .map(|t| median(t))
            .collect::<Vec<_>>(),
    )
}

/// What the traced pass measured on input 0.
struct Traced {
    split: Attributed,
    spans: Vec<(String, PhaseAgg)>,
    counters: Vec<(String, u64)>,
    /// Traced wall time of the workload's public entry point.
    entry_s: f64,
}

impl Traced {
    fn span_s(&self, name: &str) -> f64 {
        self.spans
            .iter()
            .find(|(n, _)| n == name)
            .map_or(0.0, |(_, a)| a.total_ns as f64 * 1e-9)
    }

    fn count(&self, name: &str) -> f64 {
        self.counters
            .iter()
            .find(|(n, _)| n == name)
            .map_or(0.0, |&(_, v)| v as f64)
    }

    fn ry_step_s(&self) -> f64 {
        self.span_s("solve.r_step") + self.span_s("solve.y_step")
    }

    /// Time of the layers that follow one another within the split fit:
    /// graph, warm start and the w/F/R/Y steps.
    fn attributed_s(&self) -> f64 {
        self.split.graph_s
            + self.span_s("solve.warm_start")
            + self.span_s("solve.w_step")
            + self.span_s("solve.f_step")
            + self.ry_step_s()
    }
}

/// Fits input 0 with tracing on and checks that its layer times nest
/// within its wall time. The anchor workload's split fit leaves out
/// `fit_model`'s out-of-sample extension, so there the public entry point
/// is traced on its own for the tracing overhead.
fn traced_pass(
    w: Workload,
    input: &MultiViewDataset,
    seed: u64,
    gate: &mut Gate,
) -> Option<Traced> {
    umsc_obs::reset();
    umsc_obs::set_enabled(true);
    let mut entry_s = None;
    if w == Workload::HwAnchor {
        let start = Instant::now();
        let fit = w.fit(input, seed);
        entry_s = Some(start.elapsed().as_secs_f64());
        gate.check(
            "traced fit",
            0,
            fit.as_ref().map(Outcome::from).map_err(|e| e.to_string()),
        );
        umsc_obs::reset();
    }
    let split = w.attributed(input, seed);
    let spans = umsc_obs::spans_snapshot();
    let counters = umsc_obs::counters_snapshot();
    umsc_obs::set_enabled(false);

    let mut traced = None;
    let outcome = split.map_err(|e| e.to_string()).and_then(|split| {
        let entry_s = entry_s.unwrap_or(split.wall_s);
        let t = Traced {
            split,
            spans,
            counters,
            entry_s,
        };
        let attributed = t.attributed_s();
        if attributed > t.split.wall_s {
            return Err(format!(
                "layer times sum to {attributed} s, more than the fit's {} s",
                t.split.wall_s
            ));
        }
        let outcome = Outcome::from(&t.split.result);
        traced = Some(t);
        Ok(outcome)
    });
    gate.check("traced split fit", 0, outcome);
    traced
}

/// The per-layer metrics of the traced pass. `input0_s` is input 0's
/// median untraced fit time and `single_s` the single-thread child's.
fn layer_metrics(
    w: Workload,
    c: usize,
    t: &Traced,
    input0_s: f64,
    single_s: Option<f64>,
) -> Metrics {
    let s = &t.split;
    let sweeps = s.result.history.len() as f64;
    let gpi_iters = t.count("gpi.iters");
    // `spectral.embedding` wraps any Lanczos solve it makes, so it is the
    // outermost cold eigensolve span when the path calls it.
    let eig_cold_s = match t.span_s("spectral.embedding") {
        x if x > 0.0 => x,
        _ => t.span_s("lanczos.solve"),
    };
    let mut m = vec![
        ("graph.build_s", s.graph_s, "s"),
        ("graph.share", ratio(s.graph_s, s.wall_s), "ratio"),
        (
            "graph.peak_mb",
            s.graph_peak_bytes as f64 / BYTES_PER_MB,
            "MB",
        ),
        ("graph.nnz", s.graph_nnz as f64, "count"),
        ("core.warm_start_s", t.span_s("solve.warm_start"), "s"),
        ("linalg.eig_cold_s", eig_cold_s, "s"),
        ("linalg.eig_warm_s", t.span_s("eig.warm"), "s"),
        ("linalg.lanczos_iters", t.count("lanczos.iters"), "count"),
        ("linalg.blanczos_iters", t.count("blanczos.iters"), "count"),
        (
            "linalg.blanczos_restarts",
            t.count("blanczos.restarts"),
            "count",
        ),
        ("core.sweeps", sweeps, "count"),
        ("core.f_step_s", t.span_s("solve.f_step"), "s"),
        ("core.w_step_s", t.span_s("solve.w_step"), "s"),
        ("core.ry_step_s", t.ry_step_s(), "s"),
        ("core.gpi_iters", gpi_iters, "count"),
        (
            "core.gpi_cap_ratio",
            ratio(gpi_iters, sweeps * w.gpi_cap(c) as f64),
            "ratio",
        ),
        ("core.unattributed_s", s.wall_s - t.attributed_s(), "s"),
        ("op.spmv_row_chunks", t.count("spmv.row_chunks"), "count"),
        ("linalg.gemm_blocked", t.count("gemm.blocked"), "count"),
        ("linalg.gemm_rowwise", t.count("gemm.rowwise"), "count"),
        (
            "rt.workspace_realloc",
            t.count("workspace.realloc"),
            "count",
        ),
        (
            "bench.trace_overhead",
            ratio(t.entry_s, input0_s) - 1.0,
            "ratio",
        ),
    ];
    if let Some(t1) = single_s {
        m.push(("rt.speedup_1t", ratio(t1, input0_s), "ratio"));
    }
    m
}

/// Prints the result line: the last line of stdout.
fn print_result(gate: &Gate, metrics: &Metrics) {
    let mut json = format!(
        r#"{{"correct": {}, "attempted": {}, "failed": {}, "metrics": {{"#,
        gate.failed == 0,
        gate.attempted,
        gate.failed
    );
    for (i, (name, value, unit)) in metrics.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            json,
            r#"{sep}"{name}": {{"value": {value}, "unit": "{unit}"}}"#
        );
    }
    json.push_str("}}");
    println!("{json}");
}

fn run(args: &Args) -> ExitCode {
    let w = args.workload;
    let k = w.inputs();
    let seeds: Vec<u64> = (0..k).map(|j| Workload::input_seed(args.seed, j)).collect();
    umsc_obs::set_enabled(false);

    // Set-up: generate and validate every input's views, timing each call.
    let mut setup_s = Vec::new();
    let mut generated: Vec<Option<MultiViewDataset>> = vec![None; k];
    for i in 0..k.max(SETUP_REPEATS) {
        let j = i % k;
        let start = Instant::now();
        let data = w.generate(seeds[j]);
        setup_s.push(start.elapsed().as_secs_f64());
        generated[j] = Some(data);
    }
    let (inputs, truths): (Vec<_>, Vec<_>) = generated
        .into_iter()
        .map(|d| blind(d.expect("every input generated")))
        .unzip();
    let c = inputs[0].num_clusters;
    let mut gate = Gate::new(&truths, c, w.acc_floor());

    // Timed fits, tracing off, one at a time: the inputs in turn until
    // `--seconds` have passed.
    let mut fit_s: Vec<Vec<f64>> = vec![Vec::new(); k];
    let mut peak_mb: Vec<Vec<f64>> = vec![Vec::new(); k];
    let mut sweeps = vec![0; k];
    let loop_start = Instant::now();
    let mut fits = 0;
    while fits < MIN_FITS_PER_INPUT * k || loop_start.elapsed().as_secs_f64() < args.seconds {
        let j = fits % k;
        let baseline = alloc::rearm();
        let start = Instant::now();
        let fit = w.fit(&inputs[j], seeds[j]);
        let secs = start.elapsed().as_secs_f64();
        let peak = alloc::peak_above(baseline);
        if let Ok(r) = &fit {
            sweeps[j] = r.history.len();
        }
        if gate.check(
            "timed fit",
            j,
            fit.as_ref().map(Outcome::from).map_err(|e| e.to_string()),
        ) {
            fit_s[j].push(secs);
            peak_mb[j].push(peak as f64 / BYTES_PER_MB);
        }
        fits += 1;
    }
    let input0_s = median(&fit_s[0]);

    let traced = traced_pass(w, &inputs[0], seeds[0], &mut gate);
    let single_s = if args.trace {
        let fit = single_thread_fit(w, seeds[0]);
        let secs = fit.as_ref().map(|(s, _)| *s).ok();
        gate.check("single-thread fit", 0, fit.map(|(_, o)| o));
        secs
    } else {
        None
    };

    let mut report = String::new();
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let _ = writeln!(
        report,
        "fit_e2e workload={} seed={} inputs={k} timed_fits={fits} cores={cores} threads={} trace={}",
        w.name(),
        args.seed,
        umsc_rt::par::max_threads(),
        u8::from(args.trace)
    );
    for (j, t) in fit_s.iter().enumerate() {
        let _ = writeln!(
            report,
            "fit_s samples, input {j} (seed {}, {} sweeps): {}",
            seeds[j],
            sweeps[j],
            join(t)
        );
    }
    for (j, p) in peak_mb.iter().enumerate() {
        let _ = writeln!(report, "peak_mb samples, input {j}: {}", join(p));
    }
    let _ = writeln!(report, "setup_s samples: {}", join(&setup_s));
    for p in &gate.problems {
        let _ = writeln!(report, "FAILED {p}");
    }
    let scores: Vec<MetricSuite> = gate
        .references
        .iter()
        .zip(&truths)
        .filter_map(|(labels, truth)| labels.as_ref().map(|l| MetricSuite::evaluate(l, truth)))
        .collect();
    let acc: Vec<f64> = scores.iter().map(|s| s.acc).collect();
    let nmi: Vec<f64> = scores.iter().map(|s| s.nmi).collect();
    let _ = writeln!(report, "acc per input: {}", join(&acc));
    let _ = writeln!(report, "nmi per input: {}", join(&nmi));
    let fail_rate = ratio(gate.failed as f64, gate.attempted as f64);
    let _ = writeln!(
        report,
        "{:<26} {fail_rate:>14.6} ratio ({} of {} fits failed)",
        "fail_rate", gate.failed, gate.attempted
    );

    let end_to_end: Metrics = vec![
        ("fit_s", mean_of_medians(&fit_s), "s"),
        ("setup_s", median(&setup_s), "s"),
        ("peak_mb", mean_of_medians(&peak_mb), "MB"),
        ("acc", mean(&acc), "ratio"),
        ("nmi", mean(&nmi), "ratio"),
        ("ok_rate", 1.0 - fail_rate, "ratio"),
    ];
    let per_layer = match &traced {
        Some(t) => {
            let unattributed = ratio(t.split.wall_s - t.attributed_s(), t.split.wall_s);
            let _ = writeln!(report, "traced fit unattributed share: {unattributed}");
            layer_metrics(w, c, t, input0_s, single_s)
        }
        None => Vec::new(),
    };
    for (name, value, unit) in end_to_end.iter().chain(&per_layer) {
        let _ = writeln!(report, "{name:<26} {value:>14.6} {unit}");
    }
    print!("{report}");

    if scores.is_empty() || (args.trace && traced.is_none()) {
        // Nothing to measure: every fit of some kind failed.
        print_result(&gate, &Vec::new());
        return ExitCode::FAILURE;
    }
    print_result(&gate, if args.trace { &per_layer } else { &end_to_end });
    ExitCode::SUCCESS
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("fit_e2e: {e}");
            return ExitCode::from(2);
        }
    };
    if args.single_fit {
        single_fit(&args)
    } else {
        run(&args)
    }
}
