//! One benchmark for the RPR workspace: real-byte repair, planning and
//! simulation, fleet drains, and foreground load under repair.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload exec-repair --seed 1 --seconds 20 --trace 0
//! ```
//!
//! With `--trace 0` the last stdout line carries the end-to-end metrics;
//! with `--trace 1` it carries the per-layer metrics of a traced run, and
//! the spans are written to `.perfbench_out/`. Every workload prints
//! every metric of its mode; each workload's own figures go to a details
//! file in the same directory. See `README.md` beside this package for
//! the workloads, metrics and their rationale.

mod exec_repair;
mod fleet_drain;
mod foreground_load;
mod host;
mod lanes;
mod sim_plan;
mod stats;
mod trace;

use std::fmt::Write as _;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

use trace::Tracer;

/// Directory (relative to the working directory) for span dumps and
/// scratch files such as the fleet journal.
pub const OUT_DIR: &str = ".perfbench_out";

/// The workload names, as `--workload` takes them.
const WORKLOADS: [&str; 4] = ["exec-repair", "sim-plan", "fleet-drain", "foreground-load"];

/// Times every workload repeats its set-up; `setup_s` is the median.
pub const SETUP_REPS: usize = 7;

/// Seed of the warm-up ops that draw their inputs from a seed, so that
/// every workload seed sets up the same work.
pub const WARMUP_SEED: u64 = 0;

/// The end-to-end metrics, with their units: every timed run prints
/// each of them. What one op is depends on the workload (see
/// `README.md`).
const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("peak_rss_mib", "MiB"),
    ("ops_per_s", "1/s"),
];

/// The per-layer metrics, with their units: every traced run prints
/// each of them, from the lanes in [`lanes`] and the `obs.*` costs.
const PER_LAYER: &[(&str, &str)] = &[
    ("gf.mul_acc_gbps", "GB/s"),
    ("gf.xor_gbps", "GB/s"),
    ("faults.checksum_gbps", "GB/s"),
    ("proof.hash_gbps", "GB/s"),
    ("codec.encode_s", "s"),
    ("codec.equations_us", "us"),
    ("core.plan_ms", "ms"),
    ("core.plan_ops", "count"),
    ("core.cross_waves", "count"),
    ("core.lower_ms", "ms"),
    ("core.simulate_ms", "ms"),
    ("core.model_makespan_s", "s"),
    ("netsim.run_ms", "ms"),
    ("netsim.jobs", "count"),
    ("netsim.jobs_per_s", "1/s"),
    ("obs.recorder_overhead_pct", "%"),
    ("obs.events_per_op", "count"),
    ("obs.span_overhead_pct", "%"),
];

/// Parsed command line.
struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = 1u64;
    let mut seconds = 10.0f64;
    let mut trace = false;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = value.parse().map_err(|_| format!("bad --seed {value}"))?,
            "--seconds" => {
                seconds = value
                    .parse()
                    .map_err(|_| format!("bad --seconds {value}"))?;
                if !(seconds > 0.0 && seconds <= 600.0) {
                    return Err(format!("--seconds {value} out of range (0, 600]"));
                }
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload}; one of {WORKLOADS:?}"));
    }
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
    })
}

/// Output checks. Every recorded check is one attempted op; a failed
/// check fails the run.
#[derive(Default)]
pub struct Checks {
    attempted: u64,
    failed: u64,
}

impl Checks {
    /// Record one checked op; `what` describes a failure for stderr.
    pub fn record(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            eprintln!("check failed: {}", what());
        }
    }
}

/// One metric: name, value and unit.
type Metric = (String, f64, &'static str);

/// Metrics in output order: the declared ones, printed on the result
/// line, and a workload's own details, written to `.perfbench_out/`.
#[derive(Default)]
pub struct Metrics {
    declared: Vec<Metric>,
    details: Vec<Metric>,
}

impl Metrics {
    /// Add one metric of the `BENCHMARK.json` tables.
    pub fn put(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.declared.push((name.into(), value, unit));
    }

    /// Add one workload-specific detail (not on the result line).
    pub fn detail(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.details.push((name.into(), value, unit));
    }
}

/// Everything a workload needs from the harness.
pub struct Run {
    /// Workload seed; inputs derive from it alone.
    pub seed: u64,
    /// Measurement budget in seconds.
    pub seconds: f64,
    /// Spans for the traced run (disabled in the timed run).
    pub tracer: Tracer,
    /// Output checks.
    pub checks: Checks,
    /// Metrics to print.
    pub metrics: Metrics,
}

impl Run {
    /// The timed run's metrics: `setup_s` and `ops_per_s` (`peak_rss_mib`
    /// comes last), and the process CPU of the measured passes per op as
    /// a detail.
    pub fn put_timed(&mut self, setup_s: f64, ops_per_s: f64, work: &Work, ops_per_pass: usize) {
        let m = &mut self.metrics;
        m.put("setup_s", setup_s, "s");
        m.put("ops_per_s", ops_per_s, "1/s");
        m.detail(
            "cpu_s_per_op",
            work.cpu_s / (work.passes * ops_per_pass) as f64,
            "s",
        );
    }

    /// The timed budget of one phase: all of it in the timed run, half
    /// in each phase of the traced run (untraced, then traced).
    pub fn phase_seconds(&self) -> f64 {
        if self.tracer.on() {
            self.seconds / 2.0
        } else {
            self.seconds
        }
    }
}

/// Run `setup` [`SETUP_REPS`] times, dropping each result before the
/// next, and return the median wall time with the last result.
pub fn timed_setup<S>(tracer: &Tracer, mut setup: impl FnMut() -> S) -> (f64, S) {
    let mut times = Vec::with_capacity(SETUP_REPS);
    let mut last = None;
    for _ in 0..SETUP_REPS {
        drop(last.take());
        let t = Instant::now();
        last = Some(tracer.root("setup", &mut setup));
        times.push(t.elapsed().as_secs_f64());
    }
    (stats::median(&times), last.expect("at least one set-up"))
}

/// What [`passes`] measured.
pub struct Work {
    /// Whole passes run.
    pub passes: usize,
    /// Process CPU seconds (all threads) the passes used.
    pub cpu_s: f64,
}

/// Run whole passes of a workload's op list until `seconds` have elapsed
/// (at least one pass), so every run measures the same mix of ops.
pub fn passes(seconds: f64, mut pass: impl FnMut()) -> Work {
    let cpu0 = host::cpu_seconds();
    let t = Instant::now();
    let mut n = 0;
    loop {
        pass();
        n += 1;
        if t.elapsed().as_secs_f64() >= seconds {
            return Work {
                passes: n,
                cpu_s: host::cpu_seconds() - cpu0,
            };
        }
    }
}

/// Harness tracing overhead in percent: mean traced op time over mean
/// untraced op time.
pub fn overhead_pct(traced: &[f64], untraced: &[f64]) -> f64 {
    (stats::mean(traced) / stats::mean(untraced) - 1.0) * 100.0
}

fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

/// `"name": {"value": v, "unit": "u"}` pairs, comma-separated.
fn metrics_json(ms: &[Metric]) -> String {
    let mut out = String::new();
    for (i, (name, value, unit)) in ms.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            out,
            "{sep}\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
            json_number(*value)
        );
    }
    out
}

/// Names by which `printed` differs from `table`: a table entry printed
/// other than once, or a printed metric (or unit) the table lacks.
fn table_mismatch(printed: &[Metric], table: &[(&str, &str)]) -> Vec<String> {
    let mut bad: Vec<String> = table
        .iter()
        .filter(|(name, unit)| {
            printed
                .iter()
                .filter(|(n, _, u)| n == name && u == unit)
                .count()
                != 1
        })
        .map(|(name, _)| (*name).to_string())
        .collect();
    bad.extend(
        printed
            .iter()
            .filter(|(n, _, u)| !table.contains(&(n.as_str(), *u)))
            .map(|(n, _, _)| n.clone()),
    );
    bad
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let mut run = Run {
        seed: args.seed,
        seconds: args.seconds,
        tracer: Tracer::new(args.trace),
        checks: Checks::default(),
        metrics: Metrics::default(),
    };
    match args.workload.as_str() {
        "exec-repair" => exec_repair::run(&mut run),
        "sim-plan" => sim_plan::run(&mut run),
        "fleet-drain" => fleet_drain::run(&mut run),
        "foreground-load" => foreground_load::run(&mut run),
        _ => unreachable!("workload names are checked while parsing"),
    }
    if !args.trace {
        run.metrics.put("peak_rss_mib", host::peak_rss_mib(), "MiB");
    }
    let host = host::fingerprint_json();
    let dir = PathBuf::from(OUT_DIR);
    let stem = format!(
        "{}-seed{}-trace{}",
        args.workload,
        args.seed,
        u8::from(args.trace)
    );
    let details = format!(
        "{{\"workload\": \"{}\", \"seed\": {}, \"trace\": {}, \"host\": {host}, \"details\": {{{}}}}}\n",
        args.workload,
        args.seed,
        u8::from(args.trace),
        metrics_json(&run.metrics.details)
    );
    let mut files = vec![(dir.join(format!("details-{stem}.json")), details)];
    if args.trace {
        let header = format!(
            "{{\"workload\":\"{}\",\"seed\":{},\"host\":{host}}}\n",
            args.workload, args.seed
        );
        let spans = header + &trace::to_json_lines(&run.tracer.spans());
        files.push((dir.join(format!("spans-{stem}.jsonl")), spans));
    }
    for (path, text) in files {
        let written = std::fs::create_dir_all(&dir).and_then(|()| std::fs::write(&path, text));
        run.checks.record(written.is_ok(), || {
            format!("writing {}: {written:?}", path.display())
        });
    }
    let all_finite = run
        .metrics
        .declared
        .iter()
        .chain(&run.metrics.details)
        .all(|(_, v, _)| v.is_finite());
    run.checks
        .record(all_finite, || "a metric is not a finite number".into());
    let table = if args.trace { PER_LAYER } else { END_TO_END };
    let mismatch = table_mismatch(&run.metrics.declared, table);
    run.checks.record(mismatch.is_empty(), || {
        format!("the printed metrics differ from the declared table: {mismatch:?}")
    });

    let correct = run.checks.failed == 0;
    let metrics = metrics_json(&run.metrics.declared);
    println!(
        "{{\"workload\": \"{}\", \"seed\": {}, \"trace\": {}, \"host\": {host}}}",
        args.workload,
        args.seed,
        u8::from(args.trace)
    );
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{metrics}}}}}",
        run.checks.attempted, run.checks.failed
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The declared metric tables and `BENCHMARK.json` agree on every
    /// name and unit.
    #[test]
    fn metric_tables_match_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let json = std::fs::read_to_string(path).expect("BENCHMARK.json beside the package");
        let entries = json.matches("\"name\": ").count();
        for (name, unit) in END_TO_END.iter().chain(PER_LAYER) {
            let entry = format!("\"name\": \"{name}\", \"unit\": \"{unit}\"");
            assert!(json.contains(&entry), "{entry} not in BENCHMARK.json");
        }
        for w in WORKLOADS {
            assert!(
                json.contains(&format!("\"name\": \"{w}\"")),
                "{w} not in BENCHMARK.json"
            );
        }
        assert_eq!(
            entries,
            END_TO_END.len() + PER_LAYER.len() + WORKLOADS.len()
        );
    }

    #[test]
    fn table_mismatch_names_missing_repeated_and_extra_metrics() {
        let table = [("a", "s"), ("b", "ms")];
        let m = |n: &str, u| (n.to_string(), 1.0, u);
        assert!(table_mismatch(&[m("b", "ms"), m("a", "s")], &table).is_empty());
        assert_eq!(table_mismatch(&[m("a", "s")], &table), ["b"]);
        assert_eq!(
            table_mismatch(&[m("a", "s"), m("a", "s"), m("b", "s")], &table),
            ["a", "b", "b"]
        );
    }

    #[test]
    fn overhead_compares_mean_op_times() {
        assert!((overhead_pct(&[1.1, 1.1], &[1.0, 1.0]) - 10.0).abs() < 1e-9);
    }
}
