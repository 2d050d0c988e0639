//! Request-level benchmark of `certa::Pipeline`: four seeded workloads
//! driven through the public API in a closed loop (one client, no think
//! time), every answer checked against an independent oracle, every
//! end-to-end metric printed by name with its unit and sample count.
//!
//! ```text
//! benchmark [--seed N] [--seconds S] [--trace 0|1] [--out PATH] [--smoke]
//! benchmark --workload NAME [--seed N] [--seconds S] [--trace 0|1] [--out PATH] [--smoke]
//! benchmark --compare BASE.json[,BASE2.json…] NEW.json[,NEW2.json…]
//! ```
//!
//! Without `--workload` every workload runs in a child process of its own
//! (so peak RSS and the global metrics registry are per workload), with a
//! calibration run before and after; `--out` writes the combined record.
//! With `--workload` one workload runs in this process and the last line
//! of standard output is
//! `{"correct": …, "attempted": …, "failed": …, "metrics": {…}}` with the
//! end-to-end metrics (`--trace 0`) or the per-layer ones (`--trace 1`).
//! See README.md for the workloads, metrics and bounds.

mod approx_scan;
mod check;
mod cold_exact;
mod compare;
mod durable_ingest;
mod harness;
mod json;
mod trace;
mod updates;
mod warm_maintain;

use check::Expected;
use harness::{median, peak_rss_mb, Recorder, Scale, END_TO_END, PER_LAYER};
use std::collections::{BTreeMap, HashMap};
use std::ops::Range;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};
use std::time::{Duration, Instant};
use trace::Tracer;

/// A workload's life cycle, driven the same way for all four.
pub trait Workload: Sized {
    /// Generate the inputs and the frozen op sequence from the seed and
    /// build the serving state.
    fn setup(seed: u64, scale: Scale) -> Self;

    /// The expected answer for every answer key the frozen sequence uses,
    /// computed through paths independent of `Pipeline`.
    fn verify(&self) -> Result<HashMap<u64, Expected>, String>;

    /// What an answer key stands for, for failure messages.
    fn describe(&self, key: u64) -> String;

    /// Fingerprint of the generated inputs and the frozen op sequence:
    /// equal for equal seeds, and the way two runs show they did the same
    /// work.
    fn inputs(&self) -> u64;

    /// Ops in one pass over the frozen sequence.
    fn pass_len(&self) -> usize;

    /// The tenth of the pass that warms up a fresh state and that the
    /// traced pass replays: the pass's last ops, so that a warm-up leaves
    /// the plan cache exactly as a whole pass does and every measured pass
    /// does the same work.
    fn slice(&self) -> Range<usize> {
        let len = self.pass_len();
        len - (len / 10).max(1).min(len)..len
    }

    /// Run ops `range` of the frozen sequence, keeping every response in
    /// `rec` for the check; with a tracer, also replay each op's phases.
    fn run(&mut self, range: Range<usize>, rec: &mut Recorder, tracer: Option<&mut Tracer>);

    /// End-to-end values that are not per-op latencies, read after the
    /// passes.
    fn extra_metrics(&self) -> BTreeMap<&'static str, f64> {
        BTreeMap::new()
    }

    /// Untraced probes that end the traced pass.
    fn probes(&mut self, _tracer: &mut Tracer, _scale: Scale) {}
}

/// The workloads, in the order a full run visits them.
pub const WORKLOADS: [&str; 4] = [
    "cold_exact",
    "warm_maintain",
    "durable_ingest",
    "approx_scan",
];

/// Set-ups per run, `setup_s` being their median: at least the first
/// number, and more while they have taken less than a second, up to the
/// second number.
const SETUP_REPEATS: (usize, usize) = (5, 25);

/// One metric's value and the samples it is the median of.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub value: f64,
    pub samples: Vec<f64>,
}

/// Everything one workload run produced.
#[derive(Debug, Clone, Default)]
pub struct Record {
    pub workload: String,
    pub seed: u64,
    pub traced: bool,
    pub inputs: u64,
    pub ops_per_pass: usize,
    pub attempted: usize,
    pub failed: usize,
    pub failures: Vec<String>,
    pub metrics: BTreeMap<String, Metric>,
    pub per_layer: BTreeMap<String, f64>,
    pub counters: BTreeMap<String, u64>,
}

impl Record {
    pub fn correct(&self) -> bool {
        self.failed == 0
    }

    fn to_json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, m)| {
                let samples: Vec<String> = m.samples.iter().map(|v| json::num(*v)).collect();
                format!(
                    "{}: {{\"value\": {}, \"unit\": {}, \"samples\": [{}]}}",
                    json::quote(name),
                    json::num(m.value),
                    json::quote(unit_of(name)),
                    samples.join(", ")
                )
            })
            .collect();
        let per_layer: Vec<String> = self
            .per_layer
            .iter()
            .map(|(k, v)| format!("{}: {}", json::quote(k), json::num(*v)))
            .collect();
        let counters: Vec<String> = self
            .counters
            .iter()
            .map(|(k, v)| format!("{}: {v}", json::quote(k)))
            .collect();
        let failures: Vec<String> = self.failures.iter().map(|f| json::quote(f)).collect();
        format!(
            "{{\"workload\": {}, \"seed\": {}, \"traced\": {}, \"threads_available\": {}, \
             \"inputs\": \"{:016x}\", \"ops_per_pass\": {}, \"correct\": {}, \"attempted\": {}, \
             \"failed\": {}, \"failures\": [{}], \"metrics\": {{{}}}, \"per_layer\": {{{}}}, \
             \"counters\": {{{}}}}}",
            json::quote(&self.workload),
            self.seed,
            self.traced,
            threads_available(),
            self.inputs,
            self.ops_per_pass,
            self.correct(),
            self.attempted,
            self.failed,
            failures.join(", "),
            metrics.join(", "),
            per_layer.join(", "),
            counters.join(", ")
        )
    }

    fn from_json(j: &json::Json) -> Result<Record, String> {
        let field = |k: &str| j.get(k).ok_or_else(|| format!("record lacks `{k}`"));
        let count = |k: &str| -> Result<usize, String> {
            field(k)?
                .as_f64()
                .map(|v| v as usize)
                .ok_or_else(|| format!("`{k}` is not a number"))
        };
        let mut metrics = BTreeMap::new();
        for (name, m) in field("metrics")?.entries() {
            let value = m
                .get("value")
                .and_then(json::Json::as_f64)
                .ok_or_else(|| format!("metric `{name}` has no value"))?;
            let samples = m
                .get("samples")
                .map(|s| s.as_array().iter().filter_map(json::Json::as_f64).collect())
                .unwrap_or_default();
            metrics.insert(name.clone(), Metric { value, samples });
        }
        Ok(Record {
            workload: field("workload")?.as_str().unwrap_or_default().to_string(),
            seed: count("seed")? as u64,
            traced: matches!(field("traced")?, json::Json::Bool(true)),
            inputs: field("inputs")?
                .as_str()
                .and_then(|h| u64::from_str_radix(h, 16).ok())
                .ok_or("`inputs` is not a hex fingerprint")?,
            ops_per_pass: count("ops_per_pass")?,
            attempted: count("attempted")?,
            failed: count("failed")?,
            failures: field("failures")?
                .as_array()
                .iter()
                .filter_map(|f| f.as_str().map(String::from))
                .collect(),
            metrics,
            per_layer: field("per_layer")?
                .entries()
                .filter_map(|(k, v)| Some((k.clone(), v.as_f64()?)))
                .collect(),
            counters: field("counters")?
                .entries()
                .filter_map(|(k, v)| Some((k.clone(), v.as_f64()? as u64)))
                .collect(),
        })
    }

    /// The last output line: the end-to-end metrics, or with `--trace 1`
    /// the per-layer ones, each present and in `BENCHMARK.json`'s order.
    fn contract_line(&self) -> String {
        let metrics: Vec<String> = if self.traced {
            PER_LAYER
                .iter()
                .map(|d| {
                    let v = self.per_layer.get(d.name).copied().unwrap_or(0.0);
                    format!(
                        "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                        d.name,
                        json::num(v),
                        d.unit
                    )
                })
                .collect()
        } else {
            END_TO_END
                .iter()
                .map(|d| {
                    let v = self.metrics.get(d.name).map_or(0.0, |m| m.value);
                    format!(
                        "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                        d.name,
                        json::num(v),
                        d.unit
                    )
                })
                .collect()
        };
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted.max(1),
            self.failed,
            metrics.join(", ")
        )
    }
}

fn unit_of(name: &str) -> &'static str {
    harness::all_end_to_end()
        .chain(PER_LAYER.iter())
        .find(|d| d.name == name)
        .map_or("", |d| d.unit)
}

fn threads_available() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

/// Set up (several times, for `setup_s`), then either measure whole
/// passes until `seconds` have elapsed or run the traced pass, then run
/// the oracle and check every response the ops gave.
pub fn run_workload<W: Workload>(
    name: &str,
    seed: u64,
    seconds: u64,
    scale: Scale,
    traced: bool,
    chrome: Option<&Path>,
) -> Record {
    // The traced pass needs two identical states: one runs the slice
    // untraced, the other traced, for the tracing overhead.
    let keep = if traced { 2 } else { 1 };
    let (least, most) = match scale {
        Scale::Full => SETUP_REPEATS,
        Scale::Smoke => (keep, keep),
    };
    let mut states: Vec<W> = Vec::new();
    let mut setup_s: Vec<f64> = Vec::new();
    while setup_s.len() < least.max(keep)
        || (setup_s.iter().sum::<f64>() < 1.0 && setup_s.len() < most)
    {
        if states.len() == keep {
            states.remove(0);
        }
        let start = Instant::now();
        let mut w = W::setup(seed, scale);
        // The warm-up fills the plan cache and lazy state before anything
        // is measured; its cost is part of set-up.
        w.run(w.slice(), &mut Recorder::default(), None);
        setup_s.push(start.elapsed().as_secs_f64());
        states.push(w);
    }
    let mut record = Record {
        workload: name.to_string(),
        seed,
        traced,
        inputs: states[0].inputs(),
        ops_per_pass: states[0].pass_len(),
        ..Record::default()
    };
    let mut metrics: BTreeMap<&str, Vec<f64>> = BTreeMap::new();
    metrics.insert("setup_s", setup_s);

    let mut store = Recorder::default();
    let mut passes = Vec::new();
    if traced {
        let slice = states[0].slice();
        let mut plain = Recorder::default();
        states[0].run(slice.clone(), &mut plain, None);
        let mut tracer = Tracer::default();
        let trace = certa::obs::Trace::new();
        let mut traced_rec = Recorder::default();
        {
            let _installed = certa::obs::install(Some(trace.clone()));
            states[1].run(slice, &mut traced_rec, Some(&mut tracer));
        }
        tracer.set(
            "obs.trace_overhead_pct",
            100.0 * (traced_rec.busy_ms() - plain.busy_ms()) / plain.busy_ms(),
        );
        states[1].probes(&mut tracer, scale);
        if let Some(path) = chrome {
            let trace_path = PathBuf::from(format!("{}.trace.json", path.display()));
            if let Err(e) = std::fs::write(&trace_path, trace.to_chrome_json()) {
                eprintln!("benchmark: writing {}: {e}", trace_path.display());
            }
        }
        record.per_layer = tracer
            .metrics()
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect();
        record.counters = tracer
            .counters()
            .iter()
            .map(|(k, v)| (k.to_string(), *v))
            .collect();
        for mut rec in [plain, traced_rec] {
            store.absorb(&mut rec);
            record.attempted += rec.ops();
        }
    } else {
        let w = &mut states[0];
        let deadline = Instant::now() + Duration::from_secs(seconds);
        loop {
            let mut rec = Recorder::default();
            w.run(0..w.pass_len(), &mut rec, None);
            store.absorb(&mut rec);
            record.attempted += rec.ops();
            passes.push(rec);
            if scale == Scale::Smoke || Instant::now() >= deadline {
                break;
            }
        }
        for (k, v) in w.extra_metrics() {
            metrics.insert(k, vec![v]);
        }
    }
    if let Some(rss) = peak_rss_mb() {
        metrics.insert("peak_rss_mb", vec![rss]);
    }

    let start = Instant::now();
    match states[0].verify() {
        Ok(expected) => store.check(&expected, |key| states[0].describe(key)),
        Err(e) => store.fail(format!("computing the expected answers failed: {e}")),
    }
    metrics.insert("verify_s", vec![start.elapsed().as_secs_f64()]);
    record.failed = store.failed();
    record.failures = store.failures().to_vec();

    // A metric's samples are its per-pass values; its value comes from
    // all passes together (see `Recorder::combined`).
    for rec in &passes {
        for (k, v) in rec.summary() {
            metrics.entry(k).or_default().push(v);
        }
    }
    let mut values = Recorder::combined(&passes);
    for (k, v) in store.ratios(record.attempted) {
        values.insert(k, v);
        metrics.insert(k, vec![v]);
    }
    record.metrics = metrics
        .into_iter()
        .map(|(k, samples)| {
            let value = values.get(k).copied().unwrap_or_else(|| median(&samples));
            (k.to_string(), Metric { value, samples })
        })
        .collect();
    record
}

/// Run one workload by name.
fn run_named(
    name: &str,
    seed: u64,
    seconds: u64,
    scale: Scale,
    traced: bool,
    chrome: Option<&Path>,
) -> Option<Record> {
    Some(match name {
        "cold_exact" => {
            run_workload::<cold_exact::ColdExact>(name, seed, seconds, scale, traced, chrome)
        }
        "warm_maintain" => {
            run_workload::<warm_maintain::WarmMaintain>(name, seed, seconds, scale, traced, chrome)
        }
        "durable_ingest" => run_workload::<durable_ingest::DurableIngest>(
            name, seed, seconds, scale, traced, chrome,
        ),
        "approx_scan" => {
            run_workload::<approx_scan::ApproxScan>(name, seed, seconds, scale, traced, chrome)
        }
        _ => return None,
    })
}

/// `host.calib_ms`: the median of five runs of the seed's clone-per-node
/// interpreter (unchanged since the first commit) on the a05 three-way
/// join, sized to about 50 ms. Dividing by it cancels a host that got
/// faster or slower between two benchmark runs.
pub fn calibrate() -> f64 {
    use certa::algebra::{reference::eval_set_reference, Condition, RaExpr};
    use certa::workload::{TpchConfig, TpchGenerator};
    let db = TpchGenerator::new(TpchConfig::scaled_to(700, 0.05, 11)).generate();
    let three_way = RaExpr::rel("Customer")
        .join_on(RaExpr::rel("Orders"), &[(0, 1)], 3)
        .join_on(RaExpr::rel("Lineitem"), &[(3, 0)], 6)
        .select(Condition::neq_const(5, 0))
        .project(vec![1, 3, 7]);
    let samples: Vec<f64> = (0..5)
        .map(|_| {
            let start = Instant::now();
            std::hint::black_box(eval_set_reference(&three_way, &db).expect("a05 join evaluates"));
            start.elapsed().as_secs_f64() * 1e3
        })
        .collect();
    median(&samples)
}

#[derive(Debug, Clone, PartialEq)]
struct Opts {
    workload: Option<String>,
    seed: u64,
    seconds: u64,
    traced: bool,
    out: Option<PathBuf>,
    smoke: bool,
    compare: Option<(Vec<PathBuf>, Vec<PathBuf>)>,
}

const USAGE: &str = "usage: benchmark [--workload NAME] [--seed N] [--seconds S] \
                     [--trace 0|1] [--out PATH] [--smoke]\n       \
                     benchmark --compare BASE.json[,…] NEW.json[,…]";

fn parse_args(args: &[String]) -> Result<Opts, String> {
    let mut opts = Opts {
        workload: None,
        seed: 1,
        seconds: 10,
        traced: false,
        out: None,
        smoke: false,
        compare: None,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{flag} needs a value\n{USAGE}"))
        };
        let number = |v: String| {
            v.trim()
                .parse::<u64>()
                .map_err(|_| format!("{flag}: `{v}` is not a whole number\n{USAGE}"))
        };
        match flag.as_str() {
            "--workload" => {
                let w = value()?;
                if !WORKLOADS.contains(&w.as_str()) {
                    return Err(format!("unknown workload `{w}` (one of {WORKLOADS:?})"));
                }
                opts.workload = Some(w);
            }
            "--seed" => opts.seed = number(value()?)?,
            "--seconds" => opts.seconds = number(value()?)?,
            "--trace" => {
                opts.traced = match value()?.trim() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not `{other}`\n{USAGE}")),
                }
            }
            "--out" => opts.out = Some(PathBuf::from(value()?)),
            "--smoke" => opts.smoke = true,
            "--compare" => {
                let runs = |v: String| v.split(',').map(PathBuf::from).collect::<Vec<_>>();
                let base = runs(value()?);
                opts.compare = Some((base, runs(value()?)));
            }
            other => return Err(format!("unknown flag `{other}`\n{USAGE}")),
        }
    }
    Ok(opts)
}

/// Marks the line of a child's standard output that carries its record.
const RECORD_PREFIX: &str = "RECORD ";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let opts = match parse_args(&args) {
        Ok(opts) => opts,
        Err(msg) => {
            eprintln!("benchmark: {msg}");
            return ExitCode::from(2);
        }
    };
    if let Some((base, new)) = &opts.compare {
        return compare::run(base, new);
    }
    let scale = if opts.smoke {
        Scale::Smoke
    } else {
        Scale::Full
    };
    match &opts.workload {
        Some(name) => run_one(name, &opts, scale),
        None => run_all(&opts),
    }
}

fn run_one(name: &str, opts: &Opts, scale: Scale) -> ExitCode {
    let Some(record) = run_named(
        name,
        opts.seed,
        opts.seconds,
        scale,
        opts.traced,
        opts.out.as_deref(),
    ) else {
        eprintln!("benchmark: unknown workload `{name}`");
        return ExitCode::from(2);
    };
    print_table(std::slice::from_ref(&record));
    let line = record.to_json();
    if let Some(out) = &opts.out {
        if let Err(e) = std::fs::write(out, format!("{line}\n")) {
            eprintln!("benchmark: writing {}: {e}", out.display());
            return ExitCode::FAILURE;
        }
    }
    println!("{RECORD_PREFIX}{line}");
    println!("{}", record.contract_line());
    if record.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn run_all(opts: &Opts) -> ExitCode {
    let exe = match std::env::current_exe() {
        Ok(exe) => exe,
        Err(e) => {
            eprintln!("benchmark: cannot find this executable: {e}");
            return ExitCode::FAILURE;
        }
    };
    let calib_before = calibrate();
    let mut records = Vec::new();
    for name in WORKLOADS {
        let mut cmd = Command::new(&exe);
        cmd.args(["--workload", name])
            .args(["--seed", &opts.seed.to_string()])
            .args(["--seconds", &opts.seconds.to_string()])
            .args(["--trace", if opts.traced { "1" } else { "0" }])
            .stderr(Stdio::inherit());
        if opts.smoke {
            cmd.arg("--smoke");
        }
        if let (Some(out), true) = (&opts.out, opts.traced) {
            cmd.arg("--out")
                .arg(format!("{}.{name}.json", out.display()));
        }
        let output = match cmd.output() {
            Ok(output) => output,
            Err(e) => {
                eprintln!("benchmark: running {name}: {e}");
                return ExitCode::FAILURE;
            }
        };
        let stdout = String::from_utf8_lossy(&output.stdout);
        let record = stdout
            .lines()
            .find_map(|l| l.strip_prefix(RECORD_PREFIX))
            .ok_or_else(|| format!("{name} printed no record ({})", output.status))
            .and_then(json::parse)
            .and_then(|j| Record::from_json(&j));
        match record {
            Ok(record) => records.push(record),
            Err(e) => {
                eprintln!("benchmark: {e}");
                return ExitCode::FAILURE;
            }
        }
    }
    let calib_after = calibrate();
    print_table(&records);
    let calib_ms = (calib_before + calib_after) / 2.0;
    println!("host.calib_ms {calib_ms:.3} (before {calib_before:.3}, after {calib_after:.3})");
    let workloads: Vec<String> = records
        .iter()
        .map(|r| format!("{}: {}", json::quote(&r.workload), r.to_json()))
        .collect();
    let doc = format!(
        "{{\"benchmark\": \"certa-pipeline-requests\", \"seed\": {}, \"seconds\": {}, \
         \"smoke\": {}, \"traced\": {}, \"threads_available\": {}, \
         \"host\": {{\"calib_ms\": {}, \"calib_ms_before\": {}, \"calib_ms_after\": {}}}, \
         \"workloads\": {{{}}}}}\n",
        opts.seed,
        opts.seconds,
        opts.smoke,
        opts.traced,
        threads_available(),
        json::num(calib_ms),
        json::num(calib_before),
        json::num(calib_after),
        workloads.join(", ")
    );
    if let Some(out) = &opts.out {
        if let Err(e) = std::fs::write(out, &doc) {
            eprintln!("benchmark: writing {}: {e}", out.display());
            return ExitCode::FAILURE;
        }
        println!("wrote {}", out.display());
    }
    if records.iter().all(Record::correct) {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// One row per metric: workload, name, value, unit, and the samples the
/// value is the median of.
fn print_table(records: &[Record]) {
    for r in records {
        println!(
            "{:<15} correct {} attempted {} failed {} ({} ops per pass, {} thread(s) available)",
            r.workload,
            r.correct(),
            r.attempted,
            r.failed,
            r.ops_per_pass,
            threads_available()
        );
        for f in &r.failures {
            println!("{:<15}   failure: {f}", r.workload);
        }
        for (name, m) in &r.metrics {
            println!(
                "{:<15}   {:<26} {:>14.4} {:<6} over {} sample(s)",
                r.workload,
                name,
                m.value,
                unit_of(name),
                m.samples.len()
            );
        }
        for (name, v) in &r.per_layer {
            println!(
                "{:<15}   {:<34} {:>14.4} {}",
                r.workload,
                name,
                v,
                unit_of(name)
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::check::{Expected, Summary};
    use crate::compare::{verdict, Verdict};
    use crate::harness::{Better, Bound, MetricDef};
    use certa::data::{Tuple, Value};
    use certa::{Label, LabeledAnswers};
    use std::sync::{Mutex, MutexGuard};

    /// The metrics registry is process-global: tests that read its deltas
    /// must not overlap with other tests that drive the pipeline.
    fn serial() -> MutexGuard<'static, ()> {
        static LOCK: Mutex<()> = Mutex::new(());
        LOCK.lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    fn benchmark_json() -> json::Json {
        json::parse(include_str!("../../../../../BENCHMARK.json")).expect("BENCHMARK.json parses")
    }

    fn names(doc: &json::Json, key: &str) -> Vec<String> {
        doc.get(key)
            .expect("BENCHMARK.json lists the key")
            .as_array()
            .iter()
            .map(|m| {
                m.get("name")
                    .and_then(json::Json::as_str)
                    .unwrap_or("")
                    .to_string()
            })
            .collect()
    }

    /// The metric names of a contract line, in order.
    fn line_names(line: &str) -> Vec<String> {
        let doc = json::parse(line).expect("the last line is JSON");
        let keys: Vec<&str> = doc.entries().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["attempted", "correct", "failed", "metrics"]);
        let metrics = doc.get("metrics").expect("metrics");
        // Object keys come back sorted; compare as sets.
        let mut out: Vec<String> = metrics.entries().map(|(k, _)| k.clone()).collect();
        out.sort();
        out
    }

    fn sorted(mut v: Vec<String>) -> Vec<String> {
        v.sort();
        v
    }

    #[test]
    fn every_workload_completes_at_smoke_scale_with_the_listed_metrics() {
        let _serial = serial();
        let doc = benchmark_json();
        let listed: Vec<String> = doc
            .get("workloads")
            .expect("workloads")
            .as_array()
            .iter()
            .filter_map(|w| w.get("name").and_then(json::Json::as_str).map(String::from))
            .collect();
        assert_eq!(listed, WORKLOADS);
        let mut untraced = Duration::ZERO;
        for name in WORKLOADS {
            for traced in [false, true] {
                let start = Instant::now();
                let record = run_named(name, 1, 0, Scale::Smoke, traced, None).expect("known");
                if !traced {
                    untraced += start.elapsed();
                }
                assert!(record.correct(), "{name}: {:?}", record.failures);
                assert!(record.attempted > 0, "{name} ran no op");
                let expected = if traced {
                    names(&doc, "per_layer")
                } else {
                    assert_eq!(record.metrics["error_ratio"].value, 0.0, "{name}");
                    names(&doc, "end_to_end")
                };
                assert_eq!(
                    line_names(&record.contract_line()),
                    sorted(expected),
                    "{name} (traced: {traced})"
                );
            }
        }
        assert!(
            untraced < Duration::from_secs(10),
            "the four smoke runs took {untraced:?}"
        );
    }

    #[test]
    fn metric_tables_match_benchmark_json() {
        let doc = benchmark_json();
        for (key, defs) in [
            ("end_to_end", &END_TO_END[..]),
            ("per_layer", &PER_LAYER[..]),
        ] {
            let listed = doc.get(key).expect("key").as_array();
            assert_eq!(listed.len(), defs.len(), "{key}");
            for (entry, def) in listed.iter().zip(defs) {
                let field = |k: &str| entry.get(k).and_then(json::Json::as_str).unwrap_or("");
                assert_eq!(field("name"), def.name);
                assert_eq!(field("unit"), def.unit, "{}", def.name);
                let better = match def.better {
                    Better::Lower => "lower",
                    Better::Higher => "higher",
                };
                assert_eq!(field("better"), better, "{}", def.name);
                if let Some(Bound::Relative(b)) = def.bound {
                    assert_eq!(entry.get("bound").and_then(json::Json::as_f64), Some(b));
                }
            }
        }
    }

    #[test]
    fn a_flipped_label_fails_the_check() {
        let rows = vec![
            (Tuple::new([Value::int(1)]), Label::Certain),
            (Tuple::new([Value::int(2)]), Label::Possible),
        ];
        let want = Expected::from_rows(&rows);
        let mut got = LabeledAnswers {
            columns: vec!["a".to_string()],
            rows: rows.clone(),
            verdict: certa::Verdict::Exact,
        };
        assert_eq!(want.check(&Summary::of(&got)), Ok(()));
        got.rows[1].1 = Label::CertainlyFalse;
        assert!(want.check(&Summary::of(&got)).is_err());

        // Through the recorder, the failure counts once per op.
        let mut rec = Recorder::default();
        rec.answer(7, &got);
        rec.answer(7, &got);
        rec.check(&HashMap::from([(7, want.clone())]), |k| format!("key {k}"));
        assert_eq!(rec.failed(), 2);

        // A degraded answer may drop certain rows but not add one.
        got.verdict = certa::Verdict::Degraded("test".to_string());
        got.rows = vec![(Tuple::new([Value::int(2)]), Label::Certain)];
        assert!(want.check(&Summary::of(&got)).is_err());
        got.rows.clear();
        assert_eq!(want.check(&Summary::of(&got)), Ok(()));
    }

    #[test]
    fn seeds_fix_the_op_sequence_and_registry_counts() {
        let _serial = serial();
        // Counts that depend only on the work done, not on timing.
        let stable = |r: &Record| -> BTreeMap<String, u64> {
            r.counters
                .iter()
                .filter(|(k, _)| {
                    k.starts_with("cache.")
                        || k.starts_with("dispatch.")
                        || k.starts_with("wal.")
                        || k.starts_with("snapshot.")
                        || k.starts_with("recovery.")
                })
                .map(|(k, v)| (k.clone(), *v))
                .collect()
        };
        for name in WORKLOADS {
            let a = run_named(name, 1, 0, Scale::Smoke, true, None).expect("known");
            let b = run_named(name, 1, 0, Scale::Smoke, true, None).expect("known");
            let c = run_named(name, 2, 0, Scale::Smoke, true, None).expect("known");
            assert_eq!(a.inputs, b.inputs, "{name}");
            assert_ne!(a.inputs, c.inputs, "{name}");
            assert!(!stable(&a).is_empty(), "{name} counted nothing");
            assert_eq!(stable(&a), stable(&b), "{name}");
        }
    }

    fn metric(value: f64, samples: &[f64]) -> Metric {
        Metric {
            value,
            samples: samples.to_vec(),
        }
    }

    #[test]
    fn compare_verdicts() {
        let latency = MetricDef {
            name: "op_p50_ms",
            unit: "ms",
            better: Better::Lower,
            bound: Some(Bound::Relative(0.10)),
        };
        let base = metric(1.0, &[0.99, 1.0, 1.01]);
        let v = |value: f64, samples: &[f64]| verdict(&latency, &base, &metric(value, samples));
        assert_eq!(v(1.05, &[1.04, 1.05, 1.06]), Verdict::Within);
        assert_eq!(v(1.20, &[1.19, 1.20, 1.21]), Verdict::Worse);
        assert_eq!(v(0.80, &[0.79, 0.80, 0.81]), Verdict::Better);
        // A wide spread leaves a change unresolved...
        assert_eq!(v(1.20, &[0.90, 1.20, 1.50]), Verdict::Unresolved);
        // ...unless every new sample beats every base sample.
        assert_eq!(v(0.70, &[0.50, 0.70, 0.95]), Verdict::Better);

        let throughput = MetricDef {
            name: "throughput_ops",
            unit: "1/s",
            better: Better::Higher,
            bound: Some(Bound::Relative(0.10)),
        };
        let base = metric(100.0, &[99.0, 100.0, 101.0]);
        assert_eq!(
            verdict(&throughput, &base, &metric(85.0, &[84.0, 85.0, 86.0])),
            Verdict::Worse
        );
        assert_eq!(
            verdict(&throughput, &base, &metric(125.0, &[124.0, 125.0, 126.0])),
            Verdict::Better
        );

        let errors = MetricDef {
            name: "error_ratio",
            unit: "ratio",
            better: Better::Lower,
            bound: Some(Bound::Absolute(0.0)),
        };
        let zero = metric(0.0, &[0.0]);
        assert_eq!(verdict(&errors, &zero, &zero), Verdict::Within);
        assert_eq!(
            verdict(&errors, &zero, &metric(0.001, &[0.001])),
            Verdict::Worse
        );
    }

    #[test]
    fn flags_parse_and_bad_ones_are_usage_errors() {
        let argv = |a: &[&str]| a.iter().map(ToString::to_string).collect::<Vec<_>>();
        let opts = parse_args(&argv(&[
            "--workload",
            "cold_exact",
            "--seed",
            "7",
            "--seconds",
            "3",
            "--trace",
            "1",
        ]))
        .unwrap();
        assert_eq!(opts.workload.as_deref(), Some("cold_exact"));
        assert_eq!((opts.seed, opts.seconds, opts.traced), (7, 3, true));
        for bad in [
            &["--workload", "nope"][..],
            &["--trace", "2"],
            &["--seed", "x"],
            &["--seconds"],
            &["--frobnicate"],
        ] {
            assert!(parse_args(&argv(bad)).is_err(), "{bad:?}");
        }
    }
}
