//! `--compare BASE.json NEW.json`: one row per (workload, end-to-end
//! metric) with a verdict against the metric's bound. Either side may be a
//! comma-separated list of runs of the same code.

use crate::harness::{all_end_to_end, median, Better, Bound, MetricDef};
use crate::json::{self, Json};
use crate::{Metric, Record};
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::ExitCode;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Better,
    Worse,
    Within,
    Unresolved,
}

impl Verdict {
    fn name(self) -> &'static str {
        match self {
            Verdict::Better => "better",
            Verdict::Worse => "worse",
            Verdict::Within => "within",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// How much worse `new` is than `base` in the metric's own terms: a share
/// of the base for relative bounds, a difference for absolute ones;
/// negative when `new` is better.
fn worsening(def: &MetricDef, base: f64, new: f64) -> f64 {
    let diff = match def.better {
        Better::Lower => new - base,
        Better::Higher => base - new,
    };
    match def.bound {
        Some(Bound::Absolute(_)) | None => diff,
        Some(Bound::Relative(_)) => {
            if base == 0.0 {
                if diff == 0.0 {
                    0.0
                } else {
                    diff.signum() * f64::INFINITY
                }
            } else {
                diff / base.abs()
            }
        }
    }
}

/// How far one side's samples spread, in the same terms as its bound:
/// the distance between their first and third quartiles (as Python's
/// `statistics.quantiles(samples, n=4)` computes them), relative to the
/// value for relative bounds.
fn spread(def: &MetricDef, m: &Metric) -> f64 {
    let mut x = m.samples.clone();
    x.sort_by(f64::total_cmp);
    let n = x.len();
    if n < 2 {
        return 0.0;
    }
    let quartile = |p: f64| {
        let h = (n + 1) as f64 * p;
        let lo = (h.floor() as usize).clamp(1, n);
        let hi = (lo + 1).min(n);
        x[lo - 1] + (h - h.floor()) * (x[hi - 1] - x[lo - 1])
    };
    let iqr = quartile(0.75) - quartile(0.25);
    match def.bound {
        Some(Bound::Relative(_)) if m.value != 0.0 => iqr / m.value.abs(),
        _ => iqr,
    }
}

/// The verdict for one metric. It is unresolved when either side's
/// samples spread wider than the bound, unless every new sample beats
/// every base sample.
pub fn verdict(def: &MetricDef, base: &Metric, new: &Metric) -> Verdict {
    let bound = match def.bound {
        Some(Bound::Relative(b) | Bound::Absolute(b)) => b,
        None => return Verdict::Within,
    };
    let beats = |n: f64, b: f64| match def.better {
        Better::Lower => n < b,
        Better::Higher => n > b,
    };
    let all_beat = !base.samples.is_empty()
        && !new.samples.is_empty()
        && new
            .samples
            .iter()
            .all(|n| base.samples.iter().all(|b| beats(*n, *b)));
    let worse = worsening(def, base.value, new.value);
    if (spread(def, base) > bound || spread(def, new) > bound) && !all_beat {
        Verdict::Unresolved
    } else if worse > bound {
        Verdict::Worse
    } else if worse < -bound {
        Verdict::Better
    } else {
        Verdict::Within
    }
}

/// A value as if measured on the base run's host.
fn normalized(def: &MetricDef, value: f64, ratio: f64) -> f64 {
    match def.unit {
        "ms" | "s" => value / ratio,
        "1/s" => value * ratio,
        _ => value,
    }
}

/// One side of a comparison: one benchmark record or several runs of
/// the same code.
struct Side {
    calib_ms: Option<f64>,
    /// Per workload and metric. With one run a metric's samples are its
    /// per-pass values; with several, each run's value is one sample and
    /// the side's value is their median.
    metrics: BTreeMap<String, BTreeMap<String, Metric>>,
}

impl Side {
    fn from_runs(docs: &[Json]) -> Result<Side, String> {
        let mut runs: Vec<Vec<Record>> = Vec::new();
        let mut calib = Vec::new();
        for doc in docs {
            let records = doc
                .get("workloads")
                .ok_or("not a benchmark record (no `workloads`)")?
                .entries()
                .map(|(_, r)| Record::from_json(r))
                .collect::<Result<Vec<_>, _>>()?;
            runs.push(records);
            calib.extend(doc.get("host").and_then(|h| h.get("calib_ms")?.as_f64()));
        }
        let mut metrics: BTreeMap<String, BTreeMap<String, Metric>> = BTreeMap::new();
        if let [single] = runs.as_slice() {
            for r in single {
                metrics.insert(r.workload.clone(), r.metrics.clone());
            }
        } else {
            let mut values: BTreeMap<(String, String), Vec<f64>> = BTreeMap::new();
            for r in runs.iter().flatten() {
                for (name, m) in &r.metrics {
                    values
                        .entry((r.workload.clone(), name.clone()))
                        .or_default()
                        .push(m.value);
                }
            }
            for ((workload, name), samples) in values {
                metrics.entry(workload).or_default().insert(
                    name,
                    Metric {
                        value: median(&samples),
                        samples,
                    },
                );
            }
        }
        Ok(Side {
            calib_ms: (!calib.is_empty()).then(|| median(&calib)),
            metrics,
        })
    }
}

/// Rows of the comparison table and whether any verdict is `worse`.
pub fn compare(base: &[Json], new: &[Json]) -> Result<(Vec<String>, bool), String> {
    let base = Side::from_runs(base)?;
    let new = Side::from_runs(new)?;
    // Host speed of the new runs relative to the base runs: above 1 when
    // the new runs' host was slower.
    let drifted = base
        .calib_ms
        .zip(new.calib_ms)
        .map(|(b, n)| n / b)
        .filter(|r| (r - 1.0).abs() > 0.05);
    let mut rows = Vec::new();
    if let Some(r) = drifted {
        rows.push(format!(
            "warning: host calibration differs by {:+.1}% between the runs; \
             the last column divides it out",
            (r - 1.0) * 100.0
        ));
    }
    rows.push(format!(
        "{:<15} {:<24} {:>14} {:>14} {:>9} {:>7}  {:<10}{}",
        "workload",
        "metric",
        "base",
        "new",
        "delta",
        "bound",
        "verdict",
        if drifted.is_some() {
            "  normalized"
        } else {
            ""
        }
    ));
    let mut any_worse = false;
    for (workload, new_metrics) in &new.metrics {
        let Some(base_metrics) = base.metrics.get(workload) else {
            continue;
        };
        for def in all_end_to_end().filter(|d| d.bound.is_some()) {
            let (Some(b), Some(n)) = (base_metrics.get(def.name), new_metrics.get(def.name)) else {
                continue;
            };
            let v = verdict(def, b, n);
            any_worse |= v == Verdict::Worse;
            let delta = |n: f64| {
                if b.value == 0.0 {
                    format!("{:+.3}", n - b.value)
                } else {
                    format!("{:+.2}%", (n - b.value) / b.value.abs() * 100.0)
                }
            };
            let bound = match def.bound {
                Some(Bound::Relative(x)) => format!("{:.0}%", x * 100.0),
                Some(Bound::Absolute(x)) => format!("{x}"),
                None => String::new(),
            };
            rows.push(format!(
                "{:<15} {:<24} {:>14.4} {:>14.4} {:>9} {:>7}  {:<10}{}",
                workload,
                def.name,
                b.value,
                n.value,
                delta(n.value),
                bound,
                v.name(),
                drifted.map_or(String::new(), |r| format!(
                    "  {}",
                    delta(normalized(def, n.value, r))
                ))
            ));
        }
    }
    Ok((rows, any_worse))
}

/// `--compare`: print the table; exit 1 on any `worse`.
pub fn run(base: &[PathBuf], new: &[PathBuf]) -> ExitCode {
    let load = |paths: &[PathBuf]| -> Result<Vec<Json>, String> {
        paths
            .iter()
            .map(|p| {
                std::fs::read_to_string(p)
                    .map_err(|e| e.to_string())
                    .and_then(|text| json::parse(&text))
                    .map_err(|e| format!("{}: {e}", p.display()))
            })
            .collect()
    };
    match load(base).and_then(|b| compare(&b, &load(new)?)) {
        Ok((rows, any_worse)) => {
            for row in rows {
                println!("{row}");
            }
            if any_worse {
                ExitCode::FAILURE
            } else {
                ExitCode::SUCCESS
            }
        }
        Err(e) => {
            eprintln!("benchmark: {e}");
            ExitCode::from(2)
        }
    }
}
