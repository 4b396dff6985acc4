//! `v2v` — command-line interface to the V2V graph-embedding pipeline.
//!
//! Every subcommand, flag, default and environment variable is declared
//! once in [`opts`]; `v2v help` prints that table and README walks through
//! the workflows. Every subcommand also accepts `--metrics <path>`: after
//! the command finishes, the run's telemetry (span tree, metrics,
//! provenance) is written there and a summary goes to stderr.

mod commands;
mod opts;

use opts::{Env, Opts};
use v2v_obs::{obs_error, obs_info};

/// Logs `message` and, unless logging is off, the `usage` that corrects it.
fn fail(message: &str, usage: &str, code: i32) -> ! {
    obs_error!("{message}");
    if v2v_obs::log_enabled(v2v_obs::Level::Error) {
        eprint!("{usage}");
    }
    std::process::exit(code)
}

fn main() {
    let env = Env::resolve(|name| std::env::var(name).ok()).unwrap_or_else(|e| fail(&e, "", 2));
    let opts = Opts::parse(std::env::args().skip(1), env)
        .unwrap_or_else(|e| fail(&e.message, &e.usage, 2));
    if let Err(e) = (opts.command.run)(&opts).and_then(|()| export_metrics(&opts)) {
        fail(&e, "", 1);
    }
}

/// Writes the run's telemetry to `--metrics <path>` (JSON, or CSV when the
/// path ends in `.csv`) and prints a summary to stderr.
fn export_metrics(opts: &Opts) -> Result<(), String> {
    let Some(path) = opts.get_str("metrics") else {
        return Ok(());
    };
    let telemetry = v2v_obs::Telemetry::capture_global()
        .with("tool", "v2v-cli")
        .with("command", opts.command.name)
        .with("args", std::env::args().skip(1).collect::<Vec<_>>().join(" "));
    let result = if path.ends_with(".csv") {
        telemetry.write_csv(path)
    } else {
        telemetry.write_json(path)
    };
    result.map_err(|e| format!("cannot write metrics to {path}: {e}"))?;
    obs_info!("{}", telemetry.summary().trim_end());
    obs_info!("wrote telemetry to {path}");
    Ok(())
}
