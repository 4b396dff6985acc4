//! `v2v-benchmark`: the repo's benchmark driver. `run.sh` builds the `v2v`
//! binary and this one, then hands over; see `README.md` for the workloads
//! and metrics.

mod checks;
mod datasets;
mod http;
mod ingest;
mod json;
mod layers;
mod load;
mod proc;
mod report;
mod rng;
mod stats;
mod trace;
mod workloads;

use report::Env;
use std::collections::HashMap;
use std::path::PathBuf;
use std::process::ExitCode;
use workloads::{Config, Workload};

const USAGE: &str = "usage: v2v-benchmark <run|aa|summary|compare> [options]
  run      --v2v <exe> --tmp <dir> [--workload <name>] [--seed <u64>] [--seconds <n>]
           [--trace 0|1] [--quick] [--sabotage] [--rev <git rev>] [--dirty 0|1]
           one run per workload (all four without --workload); the last line
           of each is the result object the benchmark contract names
  aa       run's options plus --runs <n> [--rows <file>] [--baseline <file>]
           [--benchmark-json <file>]: n runs per workload on seeds 1..n,
           then median / quartiles / spread per metric against its bound
  summary  <run output> [--rows <file>] [--baseline <file>] [--benchmark-json <file>]
           the table aa ends with, for runs made some other way
  compare  <base rows> <candidate rows> [--benchmark-json <file>]
           metric by metric; refuses rows from different machines or settings";

struct Args {
    positional: Vec<String>,
    values: HashMap<String, String>,
    flags: Vec<String>,
}

impl Args {
    fn parse(args: impl Iterator<Item = String>) -> Args {
        let mut out = Args {
            positional: Vec::new(),
            values: HashMap::new(),
            flags: Vec::new(),
        };
        let mut args = args.peekable();
        while let Some(arg) = args.next() {
            match arg.strip_prefix("--") {
                Some(key) if args.peek().is_some_and(|v| !v.starts_with("--")) => {
                    out.values
                        .insert(key.to_string(), args.next().expect("peeked"));
                }
                Some(key) => out.flags.push(key.to_string()),
                None => out.positional.push(arg),
            }
        }
        out
    }

    fn get<T: std::str::FromStr>(&self, key: &str, default: T) -> Result<T, String> {
        match self.values.get(key) {
            None => Ok(default),
            Some(v) => v
                .parse()
                .map_err(|_| format!("invalid value {v:?} for --{key}")),
        }
    }

    fn require(&self, key: &str) -> Result<&str, String> {
        self.values
            .get(key)
            .map(String::as_str)
            .ok_or(format!("missing --{key}"))
    }

    fn flag(&self, key: &str) -> bool {
        self.flags.iter().any(|f| f == key)
    }
}

fn selected_workloads(args: &Args) -> Result<Vec<Workload>, String> {
    match args.values.get("workload") {
        None => Ok(workloads::ALL.to_vec()),
        Some(name) => Workload::parse(name)
            .map(|w| vec![w])
            .ok_or(format!("unknown workload {name:?}")),
    }
}

fn config(args: &Args, workload: Workload, seed: u64) -> Result<Config, String> {
    let quick = args.flag("quick");
    let seconds: f64 = args.get("seconds", if quick { 1.0 } else { 10.0 })?;
    if !seconds.is_finite() || seconds < 1.0 {
        return Err("--seconds must be at least 1".into());
    }
    Ok(Config {
        v2v: proc::V2v {
            exe: PathBuf::from(args.require("v2v")?),
        },
        tmp: PathBuf::from(args.require("tmp")?).join(workload.name()),
        workload,
        seed,
        seconds,
        scale: if quick {
            datasets::QUICK
        } else {
            datasets::FULL
        },
        traced: args.get("trace", 0u8)? == 1,
        sabotage: args.flag("sabotage"),
    })
}

fn env(args: &Args) -> Result<Env, String> {
    Ok(Env {
        nproc: proc::nproc(),
        rev: args.get("rev", "unknown".to_string())?,
        dirty: args.get("dirty", 0u8)? == 1,
    })
}

/// One run of one workload, printed; returns its detail row and whether
/// every check passed.
fn run_one(cfg: &Config, env: &Env, benchmark_json: &str) -> Result<(json::Value, bool), String> {
    let mut outcome = workloads::run(cfg)?;
    let measured = workloads::measured(&outcome);
    let bounded = report::select_declared(benchmark_json, "end_to_end", &measured)?;
    let unbounded: Vec<report::Metric> = measured
        .iter()
        .filter(|m| bounded.iter().all(|b| b.0 != m.0))
        .copied()
        .collect();
    let metrics = if cfg.traced {
        let mut probed = layers::per_layer(cfg, &mut outcome)?;
        let probes = probed.len();
        probed.extend(&unbounded);
        let declared = report::select_declared(benchmark_json, "per_layer", &probed)?;
        let undeclared = |m: &&report::Metric| declared.iter().all(|d| d.0 != m.0);
        if let Some((name, ..)) = probed[..probes].iter().find(undeclared) {
            return Err(format!(
                "the probes measure {name}, which BENCHMARK.json does not declare"
            ));
        }
        declared
    } else {
        bounded
    };
    let row = report::print_run(cfg, env, &outcome, &metrics, &unbounded);
    // The run's files are inputs and logs, not results; trace.json (written
    // beside the directory by the traced run) is the artefact that stays.
    let _ = std::fs::remove_dir_all(&cfg.tmp);
    Ok((row, outcome.correct()))
}

fn run(args: &Args) -> Result<bool, String> {
    let (env, benchmark_json) = (env(args)?, benchmark_json(args)?);
    let mut all_correct = true;
    for workload in selected_workloads(args)? {
        let cfg = config(args, workload, args.get("seed", 1u64)?)?;
        all_correct &= run_one(&cfg, &env, &benchmark_json)?.1;
    }
    Ok(all_correct)
}

fn benchmark_json(args: &Args) -> Result<String, String> {
    let path = args.get("benchmark-json", "BENCHMARK.json".to_string())?;
    std::fs::read_to_string(&path).map_err(|e| format!("cannot read {path}: {e}"))
}

/// Prints the same-code spread of `rows` against the bounds and writes
/// the files `--rows` and `--baseline` name.
fn summarise(args: &Args, rows: &[json::Value]) -> Result<(), String> {
    let declared = report::declared_metrics(&benchmark_json(args)?)?;
    println!("\n{}", report::aa_table(rows, &declared));
    let text: String = rows.iter().map(|r| format!("{r}\n")).collect();
    for (key, content) in [
        ("rows", text),
        ("baseline", format!("{}\n", report::baseline(rows))),
    ] {
        if let Some(path) = args.values.get(key) {
            std::fs::write(path, content).map_err(|e| format!("cannot write {path}: {e}"))?;
        }
    }
    Ok(())
}

fn aa(args: &Args) -> Result<bool, String> {
    let (env, benchmark_json) = (env(args)?, benchmark_json(args)?);
    let runs: u64 = args.get("runs", 5)?;
    let mut rows = Vec::new();
    let mut all_correct = true;
    // Workloads interleaved, so slow drift of the machine spreads over all
    // of them instead of landing on one.
    for seed in 1..=runs {
        for workload in selected_workloads(args)? {
            let (row, correct) = run_one(&config(args, workload, seed)?, &env, &benchmark_json)?;
            rows.push(row);
            all_correct &= correct;
        }
    }
    summarise(args, &rows)?;
    Ok(all_correct)
}

fn read_rows(path: &str) -> Result<Vec<json::Value>, String> {
    std::fs::read_to_string(path)
        .map(|t| report::parse_rows(&t))
        .map_err(|e| format!("cannot read {path}: {e}"))
}

/// The table `aa` ends with, for rows collected some other way (the output
/// of any number of `run`s, concatenated).
fn summary(args: &Args) -> Result<bool, String> {
    let [_, path] = args.positional.as_slice() else {
        return Err("summary takes one file of run output".into());
    };
    let rows = read_rows(path)?;
    summarise(args, &rows)?;
    Ok(rows
        .iter()
        .all(|r| r.get("correct") == Some(&json::Value::Bool(true))))
}

fn compare(args: &Args) -> Result<bool, String> {
    let [_, base, candidate] = args.positional.as_slice() else {
        return Err("compare takes two row files".into());
    };
    let declared = report::declared_metrics(&benchmark_json(args)?)?;
    let (table, any_worse) = report::compare(&read_rows(base)?, &read_rows(candidate)?, &declared)?;
    println!("{table}");
    Ok(!any_worse)
}

fn main() -> ExitCode {
    let args = Args::parse(std::env::args().skip(1));
    let result = match args.positional.first().map(String::as_str) {
        Some("run") => run(&args),
        Some("aa") => aa(&args),
        Some("summary") => summary(&args),
        Some("compare") => compare(&args),
        _ => Err(USAGE.to_string()),
    };
    match result {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("v2v-benchmark: {e}");
            ExitCode::from(2)
        }
    }
}
