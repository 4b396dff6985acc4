//! Result rows: what a run prints, how repeated runs are summarised, and
//! how two sets of rows are compared against the bounds in
//! `BENCHMARK.json`.

use crate::json::{nums, obj, Value};
use crate::stats::{median, quartiles, spread};
use crate::workloads::{Config, Outcome};

/// Where and on what the numbers were measured; rows from different
/// machines or kernels must never be compared.
#[derive(Clone, Debug)]
pub struct Env {
    pub nproc: usize,
    /// `git rev-parse HEAD` read by `run.sh` at run time; `unknown` outside
    /// a git checkout.
    pub rev: String,
    pub dirty: bool,
}

pub type Metric = (&'static str, f64, &'static str);

fn metrics_value(metrics: &[Metric]) -> Value {
    obj(metrics.iter().map(|(name, value, unit)| {
        (
            *name,
            obj([("value", Value::Num(*value)), ("unit", (*unit).into())]),
        )
    }))
}

/// The machine-readable detail row of one run: every metric, the raw
/// per-window and per-repetition values behind it, the checks, and the
/// provenance.
fn detail_row(
    cfg: &Config,
    env: &Env,
    o: &Outcome,
    metrics: &[Metric],
    unbounded: &[Metric],
) -> Value {
    let windows = |f: fn(&crate::load::Window) -> f64| {
        nums(&o.reads.windows.iter().map(f).collect::<Vec<_>>())
    };
    obj([
        ("workload", Value::from(cfg.workload.name())),
        ("why", cfg.workload.why().into()),
        ("seed", Value::Num(cfg.seed as f64)),
        ("seconds", cfg.seconds.into()),
        ("scale", cfg.scale.name.into()),
        ("traced", Value::Bool(cfg.traced)),
        ("correct", Value::Bool(o.correct())),
        ("ops", Value::Num(o.attempted as f64)),
        ("failed_ops", Value::Num(o.failed as f64)),
        ("metrics", metrics_value(metrics)),
        ("unbounded", metrics_value(unbounded)),
        (
            "raw",
            obj([
                ("setup_s", nums(&o.setup_s)),
                ("embed_s", nums(&o.embed_s)),
                ("index_s", nums(&o.index_s)),
                ("pipeline_s", nums(&o.pipeline_s)),
                ("build_cpu_s", nums(&o.build_cpu_s)),
                ("boot_ms", nums(&o.boot_ms)),
                ("restart_s", nums(&o.restart_s)),
                ("window_rps", windows(|w| w.rps)),
                ("window_p50_ms", windows(|w| w.p50_ms)),
                ("window_tail_ms", windows(|w| w.tail_ms)),
                ("window_cpu_us_per_req", windows(|w| w.cpu_us_per_req)),
                ("window_steal_frac", windows(|w| w.steal_frac)),
                ("read_samples", Value::Num(o.reads.samples as f64)),
                ("tail_percentile", o.reads.tail_pct.into()),
                ("fold_lag_p50_ms", median(&o.ingest.fold_lag_ms).into()),
                ("reconnects", Value::Num(o.reads.reconnects as f64)),
                ("late_sends", Value::Num(o.reads.late as f64)),
                ("ingest_acks", Value::Num(o.ingest.ack_ms.len() as f64)),
                (
                    "ingest_edges_acked",
                    Value::Num(o.ingest.edges_acked as f64),
                ),
                (
                    "fold_lag_samples",
                    Value::Num(o.ingest.fold_lag_ms.len() as f64),
                ),
            ]),
        ),
        (
            "checks",
            Value::Arr(
                o.checks
                    .iter()
                    .map(|c| {
                        obj([
                            ("name", Value::from(c.name)),
                            ("ok", Value::Bool(c.ok)),
                            ("detail", c.detail.as_str().into()),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "env",
            obj([
                ("nproc", Value::Num(env.nproc as f64)),
                ("git_rev", env.rev.as_str().into()),
                ("git_dirty", Value::Bool(env.dirty)),
                ("kernel_backend", o.backend.as_str().into()),
                ("steal_frac", o.steal_frac.into()),
            ]),
        ),
    ])
}

/// The last line of a run: exactly the keys the benchmark contract names.
fn contract_row(o: &Outcome, metrics: &[Metric]) -> Value {
    obj([
        ("correct", Value::Bool(o.correct())),
        ("attempted", Value::Num(o.attempted as f64)),
        ("failed", Value::Num(o.failed as f64)),
        ("metrics", metrics_value(metrics)),
    ])
}

/// Prints one run: checks, `name value unit` lines, the detail row and, as
/// the last line, the contract's result object. `metrics` are the ones
/// `BENCHMARK.json` declares for this kind of run; `unbounded` are end-to-end
/// numbers it declares no bound for. Returns the detail row.
pub fn print_run(
    cfg: &Config,
    env: &Env,
    o: &Outcome,
    metrics: &[Metric],
    unbounded: &[Metric],
) -> Value {
    println!(
        "# {} (seed {}, {} s, {} scale): {}",
        cfg.workload.name(),
        cfg.seed,
        cfg.seconds,
        cfg.scale.name,
        cfg.workload.why()
    );
    for c in &o.checks {
        println!(
            "check {} {}: {}",
            if c.ok { "ok  " } else { "FAIL" },
            c.name,
            c.detail
        );
    }
    for (name, value, unit) in metrics {
        println!("{name} {value} {unit}");
    }
    for (name, value, unit) in unbounded {
        println!("{name} {value} {unit} (no bound)");
    }
    println!(
        "# p99_ms is p{} of each window, {} samples in all",
        o.reads.tail_pct, o.reads.samples
    );
    let row = detail_row(cfg, env, o, metrics, unbounded);
    println!("{row}");
    println!("{}", contract_row(o, metrics));
    row
}

/// One end-to-end metric as `BENCHMARK.json` declares it.
#[derive(Clone, Debug, PartialEq)]
pub struct Declared {
    pub name: String,
    pub lower_is_better: bool,
    pub bound: f64,
}

pub fn declared_metrics(benchmark_json: &str) -> Result<Vec<Declared>, String> {
    let doc = Value::parse(benchmark_json)?;
    let list = doc
        .get("end_to_end")
        .and_then(Value::arr)
        .ok_or("BENCHMARK.json has no end_to_end list")?;
    list.iter()
        .map(|m| {
            Ok(Declared {
                name: m
                    .get("name")
                    .and_then(Value::str)
                    .ok_or("metric without a name")?
                    .to_string(),
                lower_is_better: m.get("better").and_then(Value::str) == Some("lower"),
                bound: m.num_at("bound")?,
            })
        })
        .collect()
}

/// The metrics `BENCHMARK.json` declares under `list`, in its order, taken
/// from what the run measured; an error when one was not measured or has
/// another unit, so the file and the driver cannot drift apart unnoticed.
pub fn select_declared(
    benchmark_json: &str,
    list: &str,
    measured: &[Metric],
) -> Result<Vec<Metric>, String> {
    let doc = Value::parse(benchmark_json)?;
    doc.get(list)
        .and_then(Value::arr)
        .ok_or(format!("BENCHMARK.json has no {list} list"))?
        .iter()
        .map(|m| {
            let name = m.get("name").and_then(Value::str).unwrap_or_default();
            let unit = m.get("unit").and_then(Value::str).unwrap_or_default();
            measured
                .iter()
                .find(|(n, _, u)| *n == name && *u == unit)
                .copied()
                .ok_or(format!(
                    "BENCHMARK.json declares {list} metric {name:?} in {unit:?}, which the run did not measure"
                ))
        })
        .collect()
}

/// Detail rows of one file, one JSON object per line; other lines (the
/// human-readable ones) are skipped.
pub fn parse_rows(text: &str) -> Vec<Value> {
    text.lines()
        .filter(|l| l.starts_with('{'))
        .filter_map(|l| Value::parse(l).ok())
        .filter(|v| v.get("workload").is_some() && v.get("env").is_some())
        .collect()
}

/// The values of `metric` in the `section` ("metrics" or "unbounded") of
/// the workload's rows.
fn values_in(rows: &[Value], workload: &str, section: &str, metric: &str) -> Vec<f64> {
    rows_of(rows, workload)
        .into_iter()
        .filter_map(|r| r.get(section)?.get(metric)?.get("value")?.num())
        .collect()
}

fn metric_values(rows: &[Value], workload: &str, metric: &str) -> Vec<f64> {
    values_in(rows, workload, "metrics", metric)
}

fn workloads_of(rows: &[Value]) -> Vec<String> {
    let mut names: Vec<String> = Vec::new();
    for name in rows
        .iter()
        .filter_map(|r| r.get("workload").and_then(Value::str))
    {
        if !names.iter().any(|n| n == name) {
            names.push(name.to_string());
        }
    }
    names
}

/// What must be the same on both sides of a comparison: the machine and
/// kernel the rows were measured on, and the settings of the runs.
#[derive(Clone, Debug, PartialEq)]
struct Conditions {
    nproc: f64,
    kernel_backend: String,
    scale: String,
    seconds: f64,
    traced: bool,
}

/// The conditions of a set of rows; an error when the rows disagree among
/// themselves.
fn conditions_of(rows: &[Value]) -> Result<Conditions, String> {
    let mut seen: Option<Conditions> = None;
    for row in rows {
        let env = row.get("env").ok_or("row without env")?;
        let text = |v: &Value, key: &str| {
            v.get(key)
                .and_then(Value::str)
                .map(str::to_string)
                .ok_or(format!("row without {key}"))
        };
        let this = Conditions {
            nproc: env.num_at("nproc")?,
            kernel_backend: text(env, "kernel_backend")?,
            scale: text(row, "scale")?,
            seconds: row.num_at("seconds")?,
            traced: row.get("traced") == Some(&Value::Bool(true)),
        };
        match &seen {
            Some(first) if *first != this => {
                return Err(format!("rows mix conditions: {first:?} and {this:?}"));
            }
            _ => seen = Some(this),
        }
    }
    seen.ok_or_else(|| "no rows".to_string())
}

fn rows_of<'a>(rows: &'a [Value], workload: &str) -> Vec<&'a Value> {
    rows.iter()
        .filter(|r| r.get("workload").and_then(Value::str) == Some(workload))
        .collect()
}

/// Runs whose checks failed, and failed operations as a share of all.
fn failures(rows: &[&Value]) -> Result<(usize, f64), String> {
    let incorrect = rows
        .iter()
        .filter(|r| r.get("correct") != Some(&Value::Bool(true)))
        .count();
    let (mut ops, mut failed) = (0.0, 0.0);
    for row in rows {
        ops += row.num_at("ops")?;
        failed += row.num_at("failed_ops")?;
    }
    Ok((incorrect, if ops > 0.0 { failed / ops } else { 0.0 }))
}

/// Spread of repeated runs per workload and metric, against the bound;
/// the unbounded end-to-end numbers follow each workload's metrics.
pub fn aa_table(rows: &[Value], declared: &[Declared]) -> String {
    let mut out = format!(
        "{:<14} {:<18} {:>4} {:>12} {:>12} {:>12} {:>8} {:>6}  verdict\n",
        "workload", "metric", "n", "median", "q1", "q3", "spread", "bound"
    );
    let mut line = |workload: &str, name: &str, values: &[f64], bound: Option<f64>| {
        if values.len() < 2 || median(values) == 0.0 {
            return;
        }
        let [q1, q2, q3] = quartiles(values);
        let s = spread(values);
        // The benchmark is steady enough when the spread is under a
        // third of the bound; above the bound it cannot resolve it.
        let (bound, verdict) = match bound {
            None => ("-".to_string(), "no bound"),
            Some(b) if s > b => (format!("{b:.2}"), "TOO NOISY"),
            Some(b) if s > b / 3.0 => (format!("{b:.2}"), "loose"),
            Some(b) => (format!("{b:.2}"), "steady"),
        };
        out.push_str(&format!(
            "{:<14} {:<18} {:>4} {:>12.4} {:>12.4} {:>12.4} {:>8.4} {:>6}  {}\n",
            workload,
            name,
            values.len(),
            q2,
            q1,
            q3,
            s,
            bound,
            verdict
        ));
    };
    for workload in workloads_of(rows) {
        for d in declared {
            line(
                &workload,
                &d.name,
                &metric_values(rows, &workload, &d.name),
                Some(d.bound),
            );
        }
        let unbounded = rows_of(rows, &workload)[0]
            .get("unbounded")
            .map_or(&[][..], Value::fields);
        for (name, _) in unbounded {
            line(
                &workload,
                name,
                &values_in(rows, &workload, "unbounded", name),
                None,
            );
        }
    }
    out
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    /// The candidate's median is worse than the base's by more than the bound.
    Worse,
    /// Within the bound, but worse by more than the runs' own noise: the
    /// bound is one number per metric, sized for its noisiest workload in
    /// a noisy hour, and this workload and hour resolve less.
    BeyondNoise,
    /// Within the bound, and the same-code spread is small enough to say so.
    WithinBound,
    /// Same-code spread exceeds the bound: the benchmark cannot tell.
    Unresolved,
}

/// Runs a side needs before its spread counts as a measure of noise.
const RUNS_FOR_NOISE: usize = 5;

/// By how much `candidate` is worse than `base`, as a share of `base`
/// (negative when it is better).
pub fn worsening(d: &Declared, base: f64, candidate: f64) -> f64 {
    if d.lower_is_better {
        (candidate - base) / base
    } else {
        (base - candidate) / base
    }
}

pub fn judge(d: &Declared, base: &[f64], candidate: &[f64]) -> Verdict {
    let noisy = |v: &[f64]| v.len() >= 2 && spread(v) > d.bound;
    let worse_by = worsening(d, median(base), median(candidate));
    // What these rows can resolve, by the rule the bounds would follow on
    // a quiet machine: twice the same-code spread, and never under 5 %.
    let resolved = (base.len().min(candidate.len()) >= RUNS_FOR_NOISE)
        .then(|| (2.0 * spread(base).max(spread(candidate))).max(0.05));
    if noisy(base) || noisy(candidate) {
        Verdict::Unresolved
    } else if worse_by > d.bound {
        Verdict::Worse
    } else if resolved.is_some_and(|r| worse_by > r) {
        Verdict::BeyondNoise
    } else {
        Verdict::WithinBound
    }
}

/// Compares two sets of rows workload by workload and metric by metric.
/// `Err` when they must not be compared at all: different machine, kernel
/// or run settings, or a base that failed its own checks or lacks a
/// declared metric. The bool says whether anything came out worse, which
/// includes a candidate that fails checks, fails more operations than the
/// base, or lacks a workload or metric the base has.
pub fn compare(
    base: &[Value],
    candidate: &[Value],
    declared: &[Declared],
) -> Result<(String, bool), String> {
    let (a, b) = (conditions_of(base)?, conditions_of(candidate)?);
    if a != b {
        return Err(format!(
            "refusing to compare: base ran under {a:?}, candidate under {b:?}"
        ));
    }
    let mut out = format!(
        "{:<14} {:<18} {:>12} {:>12} {:>9} {:>6}  verdict\n",
        "workload", "metric", "base", "candidate", "worse by", "bound"
    );
    let mut any_worse = false;
    // What the table cannot show as two medians gets a line of its own.
    let worse =
        |workload: &str, what: &str, why: &str| format!("{workload:<14} {what:<18} WORSE: {why}\n");
    for workload in workloads_of(base) {
        let (base_rows, candidate_rows) = (rows_of(base, &workload), rows_of(candidate, &workload));
        let (base_incorrect, base_failed) = failures(&base_rows)?;
        if base_incorrect > 0 {
            return Err(format!(
                "refusing to compare: {base_incorrect} base run(s) of {workload} failed their checks"
            ));
        }
        if candidate_rows.is_empty() {
            any_worse = true;
            out.push_str(&worse(
                &workload,
                "(workload)",
                "the candidate has no run of it",
            ));
            continue;
        }
        let (incorrect, failed) = failures(&candidate_rows)?;
        if incorrect > 0 {
            any_worse = true;
            out.push_str(&worse(
                &workload,
                "(checks)",
                &format!(
                    "{incorrect} of {} candidate runs failed their checks",
                    candidate_rows.len()
                ),
            ));
        }
        if failed > base_failed {
            any_worse = true;
            out.push_str(&worse(
                &workload,
                "(failed_ops)",
                &format!("failed share of operations {failed:e}, base {base_failed:e}"),
            ));
        }
        for d in declared {
            let (x, y) = (
                metric_values(base, &workload, &d.name),
                metric_values(candidate, &workload, &d.name),
            );
            if x.is_empty() {
                return Err(format!(
                    "refusing to compare: the base rows of {workload} have no {}",
                    d.name
                ));
            }
            if y.is_empty() {
                any_worse = true;
                out.push_str(&worse(
                    &workload,
                    &d.name,
                    "the candidate does not report it",
                ));
                continue;
            }
            let verdict = judge(d, &x, &y);
            any_worse |= verdict == Verdict::Worse;
            out.push_str(&format!(
                "{:<14} {:<18} {:>12.4} {:>12.4} {:>8.1}% {:>6.2}  {}\n",
                workload,
                d.name,
                median(&x),
                median(&y),
                100.0 * worsening(d, median(&x), median(&y)),
                d.bound,
                match verdict {
                    Verdict::Worse => "WORSE",
                    Verdict::BeyondNoise =>
                        "within bound, but worse by more than twice the same-code spread",
                    Verdict::WithinBound => "within bound",
                    Verdict::Unresolved => "unresolved (same-code spread exceeds the bound)",
                }
            ));
        }
        let names = base_rows[0].get("unbounded").map_or(&[][..], Value::fields);
        for (name, _) in names {
            let (x, y) = (
                values_in(base, &workload, "unbounded", name),
                values_in(candidate, &workload, "unbounded", name),
            );
            if !y.is_empty() && median(&x) > 0.0 {
                out.push_str(&format!(
                    "{:<14} {:<18} {:>12.4} {:>12.4} {:>8.1}% {:>6}  no bound, for the record\n",
                    workload,
                    name,
                    median(&x),
                    median(&y),
                    100.0 * (median(&y) - median(&x)) / median(&x),
                    "-"
                ));
            }
        }
    }
    Ok((out, any_worse))
}

/// Median, quartiles and spread per workload and metric, as
/// `BASELINE.json`: the bounded metrics under `metrics`, the other
/// end-to-end numbers of the rows under `unbounded`.
pub fn baseline(rows: &[Value]) -> Value {
    let first = rows.first();
    let summary = |workload: &str, section: &str| {
        let names = rows_of(rows, workload)
            .first()
            .and_then(|r| r.get(section))
            .map_or(&[][..], Value::fields);
        obj(names.iter().filter_map(|(name, _)| {
            let values = values_in(rows, workload, section, name);
            (values.len() >= 2).then(|| {
                let [q1, q2, q3] = quartiles(&values);
                (
                    name.as_str(),
                    obj([
                        ("median", Value::Num(q2)),
                        ("q1", q1.into()),
                        ("q3", q3.into()),
                        ("spread", spread(&values).into()),
                        ("runs", Value::Num(values.len() as f64)),
                    ]),
                )
            })
        }))
    };
    let of_first = |key: &str| {
        first
            .and_then(|r| r.get(key))
            .cloned()
            .unwrap_or(Value::Null)
    };
    obj([
        ("env", of_first("env")),
        ("scale", of_first("scale")),
        ("seconds", of_first("seconds")),
        (
            "workloads",
            obj(workloads_of(rows).into_iter().map(|w| {
                let sections = obj([
                    ("metrics", summary(&w, "metrics")),
                    ("unbounded", summary(&w, "unbounded")),
                ]);
                (w, sections)
            })),
        ),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    fn row(workload: &str, nproc: f64, backend: &str, p50: f64) -> Value {
        obj([
            ("workload", Value::from(workload)),
            ("seconds", Value::Num(10.0)),
            ("scale", "full".into()),
            ("traced", Value::Bool(false)),
            ("correct", Value::Bool(true)),
            ("ops", Value::Num(1000.0)),
            ("failed_ops", Value::Num(0.0)),
            (
                "metrics",
                obj([(
                    "p50_ms",
                    obj([("value", Value::Num(p50)), ("unit", "ms".into())]),
                )]),
            ),
            (
                "env",
                obj([
                    ("nproc", Value::Num(nproc)),
                    ("kernel_backend", backend.into()),
                ]),
            ),
        ])
    }

    /// `row` with one top-level field replaced.
    fn with(row: Value, key: &str, value: Value) -> Value {
        let Value::Obj(fields) = row else {
            panic!("rows are objects")
        };
        Value::Obj(
            fields
                .into_iter()
                .map(|(k, v)| if k == key { (k, value.clone()) } else { (k, v) })
                .collect(),
        )
    }

    fn p50() -> Vec<Declared> {
        vec![Declared {
            name: "p50_ms".into(),
            lower_is_better: true,
            bound: 0.10,
        }]
    }

    fn rows(nproc: f64, backend: &str, values: &[f64]) -> Vec<Value> {
        values
            .iter()
            .map(|v| row("serve_read", nproc, backend, *v))
            .collect()
    }

    #[test]
    fn refuses_rows_from_another_machine_or_kernel() {
        let base = rows(2.0, "avx2fma", &[1.0, 1.0]);
        assert!(compare(&base, &rows(4.0, "avx2fma", &[1.0, 1.0]), &p50()).is_err());
        assert!(compare(&base, &rows(2.0, "scalar", &[1.0, 1.0]), &p50()).is_err());
        let mixed = [rows(2.0, "avx2fma", &[1.0]), rows(2.0, "scalar", &[1.0])].concat();
        assert!(compare(&base, &mixed, &p50()).is_err());
        assert_eq!(
            compare(&base, &rows(2.0, "avx2fma", &[1.0, 1.0]), &p50()).map(|r| r.1),
            Ok(false)
        );
    }

    #[test]
    fn refuses_rows_from_runs_with_other_settings() {
        let base = rows(2.0, "avx2fma", &[1.0, 1.0]);
        for (key, value) in [
            ("scale", Value::from("quick")),
            ("seconds", Value::Num(1.0)),
            ("traced", Value::Bool(true)),
        ] {
            let other: Vec<Value> = base
                .iter()
                .map(|r| with(r.clone(), key, value.clone()))
                .collect();
            let refused = compare(&base, &other, &p50());
            assert!(refused.is_err(), "{key}: {refused:?}");
            // Also inside one file.
            let mixed = [base.clone(), other].concat();
            assert!(compare(&base, &mixed, &p50()).is_err(), "{key}");
        }
    }

    #[test]
    fn a_candidate_that_failed_checks_or_operations_is_worse() {
        let base = rows(2.0, "avx2fma", &[1.0, 1.0]);
        let good = row("serve_read", 2.0, "avx2fma", 0.5);
        let incorrect = with(good.clone(), "correct", Value::Bool(false));
        let (table, any_worse) =
            compare(&base, &[good.clone(), incorrect.clone()], &p50()).unwrap();
        assert!(
            any_worse && table.contains("1 of 2 candidate runs failed"),
            "{table}"
        );
        let failing = with(good.clone(), "failed_ops", Value::Num(1.0));
        let (table, any_worse) = compare(&base, &[good.clone(), failing.clone()], &p50()).unwrap();
        assert!(any_worse && table.contains("(failed_ops)"), "{table}");
        // The same failed share on both sides is not a worsening.
        assert_eq!(
            compare(&[good.clone(), failing.clone()], &[good, failing], &p50()).map(|r| r.1),
            Ok(false)
        );
        // A base that failed its checks is no base.
        assert!(compare(&[incorrect], &base, &p50()).is_err());
    }

    #[test]
    fn a_candidate_that_lacks_a_workload_or_a_metric_is_worse() {
        let base = [
            row("serve_read", 2.0, "avx2fma", 1.0),
            row("pipeline", 2.0, "avx2fma", 1.0),
        ];
        let (table, any_worse) = compare(&base, &base[..1], &p50()).unwrap();
        assert!(any_worse && table.contains("no run of it"), "{table}");
        let without_metric = with(base[1].clone(), "metrics", obj::<&str>([]));
        let (table, any_worse) =
            compare(&base, &[base[0].clone(), without_metric.clone()], &p50()).unwrap();
        assert!(any_worse && table.contains("does not report it"), "{table}");
        // Missing from the base, there is nothing to hold the candidate to.
        assert!(compare(&[without_metric], &base[1..], &p50()).is_err());
    }

    #[test]
    fn unbounded_numbers_are_shown_but_never_judged() {
        let embed = |s: f64| {
            let mut fields = match row("pipeline", 2.0, "avx2fma", 1.0) {
                Value::Obj(fields) => fields,
                _ => unreachable!(),
            };
            let value = obj([("value", Value::Num(s)), ("unit", "s".into())]);
            fields.push(("unbounded".into(), obj([("embed_s", value)])));
            Value::Obj(fields)
        };
        let (table, any_worse) = compare(&[embed(3.0)], &[embed(6.0)], &p50()).unwrap();
        assert!(!any_worse, "{table}");
        let line = table.lines().find(|l| l.contains("embed_s")).unwrap();
        assert!(
            line.contains("100.0%") && line.contains("no bound"),
            "{line}"
        );
    }

    #[test]
    fn noisy_rows_are_unresolved_not_unchanged() {
        let d = &p50()[0];
        let steady = [1.00, 1.01, 0.99, 1.00, 1.02];
        assert_eq!(
            judge(d, &steady, &[1.04, 1.03, 1.05, 1.04, 1.04]),
            Verdict::WithinBound
        );
        assert_eq!(
            judge(d, &steady, &[1.20, 1.21, 1.19, 1.20, 1.20]),
            Verdict::Worse
        );
        assert_eq!(
            judge(d, &steady, &[0.50, 0.51, 0.50, 0.49, 0.50]),
            Verdict::WithinBound
        );
        // Worse by 8 %: inside the 10 % bound, but these runs differ among
        // themselves by 1-2 %, so it is no accident.
        assert_eq!(
            judge(d, &steady, &[1.08, 1.07, 1.09, 1.08, 1.08]),
            Verdict::BeyondNoise
        );
        // The same 8 % from too few runs to know their noise.
        assert_eq!(judge(d, &steady, &[1.08, 1.08]), Verdict::WithinBound);
        // Same medians as the steady case, but the base's own runs differ
        // by more than the bound: no verdict either way.
        assert_eq!(
            judge(d, &[0.8, 1.0, 1.2, 0.7, 1.3], &steady),
            Verdict::Unresolved
        );
        assert_eq!(
            judge(d, &steady, &[0.8, 1.2, 1.6, 0.9, 1.5]),
            Verdict::Unresolved
        );
    }

    #[test]
    fn higher_is_better_flips_the_direction() {
        let rps = Declared {
            name: "rps".into(),
            lower_is_better: false,
            bound: 0.05,
        };
        assert!((worsening(&rps, 100.0, 90.0) - 0.10).abs() < 1e-12);
        assert_eq!(judge(&rps, &[100.0], &[90.0]), Verdict::Worse);
        assert_eq!(judge(&rps, &[100.0], &[120.0]), Verdict::WithinBound);
    }

    #[test]
    fn a_run_reports_what_benchmark_json_declares() {
        let text = r#"{"end_to_end": [{"name": "rps", "unit": "req/s"}], "per_layer": [{"name": "p99_ms", "unit": "ms"}, {"name": "obs.span_ns", "unit": "ns"}]}"#;
        let measured = [("p99_ms", 2.0, "ms"), ("rps", 1.0, "req/s")];
        assert_eq!(
            select_declared(text, "end_to_end", &measured),
            Ok(vec![("rps", 1.0, "req/s")])
        );
        // Declared but not measured, or measured in another unit.
        assert!(select_declared(text, "per_layer", &measured).is_err());
        assert!(select_declared(text, "end_to_end", &[("rps", 1.0, "1/s")]).is_err());
        assert!(select_declared(text, "no_such_list", &measured).is_err());
    }

    #[test]
    fn reads_bounds_from_benchmark_json_and_rows_from_mixed_output() {
        let text = r#"{"end_to_end": [{"name": "rps", "unit": "req/s", "better": "higher", "bound": 0.08}]}"#;
        assert_eq!(
            declared_metrics(text),
            Ok(vec![Declared {
                name: "rps".into(),
                lower_is_better: false,
                bound: 0.08
            }])
        );
        let output = format!(
            "# serve_read\nrps 1 req/s\n{}\n{{\"correct\": true}}\n",
            row("serve_read", 2.0, "x", 1.0)
        );
        assert_eq!(parse_rows(&output).len(), 1);
        let table = aa_table(&rows(2.0, "x", &[1.0, 1.01, 0.99, 1.0]), &p50());
        assert!(table.contains("steady"), "{table}");
    }

    #[test]
    fn the_baseline_summarises_bounded_and_unbounded_numbers() {
        let with_tail = |p50: f64, p99: f64| {
            let mut fields = match row("serve_read", 2.0, "avx2fma", p50) {
                Value::Obj(fields) => fields,
                _ => unreachable!(),
            };
            let value = obj([("value", Value::Num(p99)), ("unit", "ms".into())]);
            fields.push(("unbounded".into(), obj([("p99_ms", value)])));
            Value::Obj(fields)
        };
        let rows = [
            with_tail(1.0, 4.0),
            with_tail(2.0, 8.0),
            with_tail(3.0, 6.0),
        ];
        let summary = baseline(&rows);
        assert_eq!(summary.get("scale").and_then(Value::str), Some("full"));
        let of = |section: &str, name: &str, key: &str| {
            let workload = summary.get("workloads")?.get("serve_read")?;
            workload.get(section)?.get(name)?.get(key)?.num()
        };
        assert_eq!(of("metrics", "p50_ms", "median"), Some(2.0));
        assert_eq!(of("unbounded", "p99_ms", "median"), Some(6.0));
        assert_eq!(of("unbounded", "p99_ms", "runs"), Some(3.0));
        let table = aa_table(&rows, &p50());
        let tail = table.lines().find(|l| l.contains("p99_ms")).unwrap();
        assert!(tail.contains("no bound"), "{table}");
    }
}
