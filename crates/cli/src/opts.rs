//! The one option table. Every subcommand's flags — name, whether it
//! takes a value, default, help line — and every environment variable the
//! CLI honours are declared exactly once, below. The parser (which refuses
//! anything undeclared), the typed lookups `commands.rs` uses, and all of
//! `v2v help` are derived from these tables.

use crate::commands;
use std::collections::HashMap;
use std::str::FromStr;

/// One `--flag` of one subcommand.
pub struct Flag {
    pub name: &'static str,
    /// The value's placeholder (`n`) in `v2v help`, or the choices the
    /// parser admits (`table|json`); empty for a bare switch.
    pub value: &'static str,
    /// What a lookup yields when the flag is absent (`None` = unset).
    pub default: Option<&'static str>,
    pub help: &'static str,
}

const fn flag(
    name: &'static str,
    value: &'static str,
    default: Option<&'static str>,
    help: &'static str,
) -> Flag {
    Flag { name, value, default, help }
}

/// One subcommand: its help paragraph, its flag groups (a group several
/// subcommands share is declared once and listed by reference; [`COMMON`]
/// is implied everywhere), and its implementation.
pub struct Command {
    pub name: &'static str,
    pub about: &'static str,
    pub flags: &'static [&'static [Flag]],
    pub run: fn(&Opts) -> Result<(), String>,
}

impl Command {
    /// Every flag the parser accepts for this subcommand.
    pub fn all_flags(&self) -> impl Iterator<Item = &'static Flag> {
        self.flags.iter().copied().chain([COMMON]).flatten()
    }

    fn find(&self, name: &str) -> Option<&'static Flag> {
        self.all_flags().find(|f| f.name == name)
    }
}

/// Accepted by every subcommand.
pub const COMMON: &[Flag] = &[flag(
    "metrics", "path", None,
    "after the run, write telemetry (span tree, metrics, provenance) to <path> as JSON (a .csv \
     extension switches to CSV) and print a summary to stderr",
)];

/// Reading an edge list.
const GRAPH: &[Flag] = &[
    flag("input", "path", None, "edge list, one `src dst [weight] [timestamp]` per line"),
    flag("format", "plain|weighted|temporal|weighted-temporal", Some("plain"),
         "which columns the edge list carries"),
    flag("directed", "", None, "treat edges as directed"),
];

/// Generating random walks.
const WALK: &[Flag] = &[
    flag("walks", "n", Some("10"), "walks started per vertex"),
    flag("length", "n", Some("80"), "steps per walk"),
    flag("strategy", "uniform|edge-weighted|vertex-weighted|temporal|node2vec", Some("uniform"),
         "how a walk picks its next vertex"),
    flag("time-window", "t", None, "temporal strategy: largest timestamp gap a step may cross"),
    flag("p", "x", Some("1.0"), "node2vec return parameter"),
    flag("q", "x", Some("1.0"), "node2vec in-out parameter"),
    flag("seed", "n", Some("24301"), "RNG seed; with --threads 1 a run is bit-reproducible"),
];

/// The quality statistics `serve`'s sentinel and `drift` share.
const QUALITY: &[Flag] = &[
    flag("quality-churn-threshold", "x", Some("0.35"),
         "neighbor churn above which quality.retrain_advised trips"),
    flag("quality-canaries", "n", Some("64"), "canary vertices sampled for quality probes"),
];

const PORT: Flag = flag("port", "n", Some("7878"), "TCP port on 127.0.0.1 (0 = ephemeral)");
const EF_SEARCH: Flag = flag("ef-search", "n", Some("64"), "HNSW beam width per query");
const EMBEDDING: Flag =
    flag("embedding", "path", None, "embedding to load: text or a `.v2s` store");

/// The table. Order is the order of `v2v help`.
#[rustfmt::skip]
pub const COMMANDS: &[Command] = &[
    Command {
        name: "embed",
        about: "edge list (or a sharded walk corpus) -> embedding file, written atomically",
        flags: &[GRAPH, WALK, &[
            flag("output", "path", None,
                 "where the embedding goes: a `.v2s` path writes the mmap-able binary store, any \
                  other path word2vec text"),
            flag("corpus", "dir", None,
                 "train out of core from a corpus written by `v2v walks` instead of --input (walk \
                  options are then baked into the corpus)"),
            flag("dims", "n", Some("50"), "embedding dimensions"),
            flag("window", "n", Some("5"), "context half-window"),
            flag("epochs", "n", Some("2"), "training epochs"),
            flag("threads", "n", Some("0"), "Hogwild worker threads (0 = one per core)"),
            flag("checkpoint-dir", "dir", None,
                 "snapshot training state atomically at epoch boundaries"),
            flag("checkpoint-every-epochs", "n", Some("1"), "checkpoint cadence in epochs"),
            flag("checkpoint-every-secs", "t", None, "also checkpoint every <t> seconds"),
            flag("resume", "", None, "continue from the snapshot in --checkpoint-dir after a crash"),
            flag("profile", "path", None,
                 "self-sample the run with a SIGPROF timer and write a flat phase profile as JSON; \
                  render it with `v2v profile`"),
        ]],
        run: commands::embed,
    },
    Command {
        name: "walks",
        about: "stream the walk corpus to checksummed on-disk shards of bounded size; `v2v embed \
                --corpus` then trains from them, bit-identical to in-RAM training at --threads 1",
        flags: &[GRAPH, WALK, &[
            flag("output", "dir", None, "corpus directory to create"),
            flag("shard-mb", "n", Some("8"), "target shard size in MiB"),
        ]],
        run: commands::walks,
    },
    Command {
        name: "index",
        about: "build the HNSW graph once and persist its snapshot into the store, fingerprinted \
                against the payload; `v2v serve` then loads it instead of rebuilding",
        flags: &[&[
            flag("store", "path", None, "the `.v2s` store to index in place"),
            flag("m", "n", Some("16"), "HNSW links per vertex"),
            flag("ef-construction", "n", Some("200"), "HNSW build beam width"),
        ]],
        run: commands::index,
    },
    Command {
        name: "communities",
        about: "k-means over the embedding -> one `vertex community` line each",
        flags: &[&[
            EMBEDDING,
            flag("k", "n", None, "number of communities (required)"),
            flag("restarts", "n", Some("100"), "k-means restarts"),
            flag("seed", "n", Some("793173"), "k-means seed"),
            flag("output", "path", None, "write here instead of stdout"),
        ]],
        run: commands::communities,
    },
    Command {
        name: "predict",
        about: "k-NN label prediction for the `?`-marked vertices of a label file",
        flags: &[&[
            EMBEDDING,
            flag("labels", "path", None, "lines of `vertex label`, or `vertex ?` to predict"),
            flag("k", "n", Some("3"), "neighbors that vote"),
            flag("ann", "", None, "rank neighbors with an HNSW index instead of a full scan"),
            EF_SEARCH,
            flag("output", "path", None, "write here instead of stdout"),
        ]],
        run: commands::predict,
    },
    Command {
        name: "serve",
        about: "HTTP JSON server: /neighbors?v=&k= /similarity?a=&b= /predict?v=&k= POST /batch (up \
                to 64 queries, each slot byte-identical to its single endpoint; more is a 400 \
                counted in serve.batch.rejected) /healthz /metricz (?format=prometheus for \
                scrapers) /tracez (recent request events) /qualityz POST /reload. Connections are \
                HTTP/1.1 keep-alive with pipelining; overload sheds 503 + Retry-After. \
                SIGINT/SIGTERM drain and exit, SIGHUP hot-reloads the embedding and labels, \
                SIGUSR1 dumps the flight recorder.",
        flags: &[&[
            EMBEDDING,
            flag("labels", "path", None, "labels for /predict"),
            PORT,
            EF_SEARCH,
            flag("threads", "n", Some("0"), "worker threads (0 = one per core, min 2)"),
            flag("request-deadline-secs", "t", Some("10"),
                 "total budget for reading one request; slower clients get 408"),
            flag("max-queue", "n", Some("1024"),
                 "connections waiting for a worker before the server sheds"),
            flag("max-body", "bytes", Some("1048576"), "largest request body; more is 413"),
            flag("keep-alive", "n", Some("1024"),
                 "requests served per connection before a forced close (0 = one request per \
                  connection; watch serve.conn.reused / serve.conn.opened)"),
            flag("rebuild-index", "", None,
                 "ignore a `.v2s` store's persisted HNSW snapshot and rebuild (cold start is the \
                  serve.cold_start_ms gauge)"),
            flag("wal-dir", "dir", None,
                 "durable streaming ingest: POST /ingest appends edges to a write-ahead log (the \
                  200 ACK follows the fsync), a background worker folds them into the serving \
                  state, and a restart replays the log before serving (ingest.wal_replayed / \
                  ingest.lag_edges / ingest.last_applied_seq in /healthz; ingest.batch_churn per \
                  refresh)"),
            flag("ingest-queue", "n", Some("8192"),
                 "committed-but-unapplied edges before /ingest sheds 503"),
            flag("quality-probe-ms", "ms", Some("2000"),
                 "sentinel probe interval: a SCHED_IDLE thread replays a seeded canary set against \
                  every installed index (quality.recall_at_10, quality.neighbor_churn, \
                  quality.centroid_shift on /metricz and /qualityz)"),
            flag("quality-off", "", None, "disable the quality sentinel and /qualityz"),
        ], QUALITY],
        run: commands::serve,
    },
    Command {
        name: "ingest",
        about: "stream edges from a file or stdin to a running `v2v serve --wal-dir` via POST \
                /ingest; a batch is acknowledged once durable server-side and 503 sheds are \
                retried after the server's Retry-After hint",
        flags: &[&[
            flag("input", "path", None, "edge file (default: stdin)"),
            flag("addr", "host:port", None, "server address (overrides --port)"),
            PORT,
            flag("batch", "n", Some("512"), "edges per POST"),
        ]],
        run: commands::ingest,
    },
    Command {
        name: "project",
        about: "PCA projection of the embedding to CSV, optionally an SVG scatter",
        flags: &[&[
            EMBEDDING,
            flag("output", "path", None, "CSV of projected points"),
            flag("dims", "n", Some("2"), "principal components to keep"),
            flag("seed", "n", Some("0"), "power-iteration seed"),
            flag("svg", "path", None, "also draw the first two components"),
            flag("labels", "path", None, "colour the SVG by these labels"),
        ]],
        run: commands::project,
    },
    Command {
        name: "stats",
        about: "descriptive statistics of an edge list",
        flags: &[GRAPH],
        run: commands::stats,
    },
    Command {
        name: "quality",
        about: "corpus + embedding diagnostics for a graph/embedding pair, under the walk settings \
                `embed` would use",
        flags: &[GRAPH, WALK, &[EMBEDDING]],
        run: commands::quality,
    },
    Command {
        name: "drift",
        about: "offline diff of two embeddings or stores: canary neighbor churn, centroid shift, \
                norm drift - the statistics the serve-side sentinel tracks live (exit stays 0; \
                gate on retrain_advised in the JSON)",
        flags: &[&[
            flag("a", "path", None, "the older embedding"),
            flag("b", "path", None, "the newer embedding"),
            flag("k", "n", Some("10"), "neighbors compared per canary"),
            flag("seed", "n", Some("3399114477"), "canary sampling seed"),
            flag("format", "table|json|both", Some("both"), "what to print"),
            flag("output", "path", None, "also write the JSON report here"),
        ], QUALITY],
        run: commands::drift,
    },
    Command {
        name: "profile",
        about: "render a flat profile written by `v2v embed --profile`",
        flags: &[&[
            flag("input", "path", None, "the profile JSON"),
            flag("format", "table|json", Some("table"), "aligned table or normalized JSON"),
        ]],
        run: commands::profile,
    },
    Command { name: "help", about: "print this text", flags: &[], run: commands::help },
];

/// One environment variable the program honours.
pub struct EnvVar {
    pub name: &'static str,
    pub default: Option<&'static str>,
    pub help: &'static str,
}

impl EnvVar {
    /// The variable's value under `var`, else its declared default.
    fn get(&self, var: &impl Fn(&str) -> Option<String>) -> Option<String> {
        var(self.name).or(self.default.map(String::from))
    }

    fn parsed<T: FromStr>(&self, var: &impl Fn(&str) -> Option<String>) -> Result<T, String> {
        let raw = self.get(var).expect("a parsed variable declares a default");
        raw.trim().parse().map_err(|_| format!("invalid value {raw:?} for {}", self.name))
    }
}

const fn env(name: &'static str, default: Option<&'static str>, help: &'static str) -> EnvVar {
    EnvVar { name, default, help }
}

const PROFILE_HZ: EnvVar = env(
    "V2V_PROFILE_HZ", Some("97"),
    "embed --profile: sampling frequency in Hz, clamped to 1..10000; a prime default avoids \
     phase-locking with periodic work",
);
const ACCESS_LOG: EnvVar = env(
    "V2V_ACCESS_LOG", None,
    "serve: write a JSON access-log line per request to this file path (or 'stderr'); each line \
     carries the request's X-Request-Id, method, path, status, bytes, latency_ms",
);
const SLOW_REQUEST_MS: EnvVar =
    env("V2V_SLOW_REQUEST_MS", Some("250"), "serve: requests slower than this log their span tree");
const FLIGHT_DUMP: EnvVar = env(
    "V2V_FLIGHT_DUMP", Some("v2v-flight-<pid>.json"),
    "serve: where SIGUSR1 (and panics) dump the flight recorder",
);
const GIT_REV: EnvVar =
    env("GIT_REV", Some("unknown"), "serve: revision named by the build_info gauge on /metricz");

/// The environment section of `v2v help`. The first five are read by
/// [`Env::resolve`] and nowhere else; the last two are process-wide
/// diagnostic switches the library crates read themselves.
pub const ENVIRONMENT: &[EnvVar] = &[
    PROFILE_HZ,
    ACCESS_LOG,
    SLOW_REQUEST_MS,
    FLIGHT_DUMP,
    GIT_REV,
    env("V2V_LOG", Some("info"), "stderr log level: off, error, info, debug, trace"),
    env(
        "V2V_NO_SIMD", None,
        "set to 1 to force the scalar f32 kernels in training and ANN search; single-threaded \
         scalar runs are bit-reproducible across machines",
    ),
];

/// The settings that have no flag, resolved once at startup and handed to
/// the code that uses them as plain values.
pub struct Env {
    pub profile_hz: u64,
    pub access_log: Option<String>,
    pub slow_request_ms: f64,
    pub flight_dump: String,
    pub git_rev: String,
}

impl Env {
    /// Resolves every variable through `var` (`main` passes the process
    /// environment, tests a closure). A set-but-unusable value is an
    /// error, not a silent fallback to the default.
    pub fn resolve(var: impl Fn(&str) -> Option<String>) -> Result<Env, String> {
        let slow_request_ms: f64 = SLOW_REQUEST_MS.parsed(&var)?;
        if !(slow_request_ms.is_finite() && slow_request_ms > 0.0) {
            return Err(format!("{} must be a positive number", SLOW_REQUEST_MS.name));
        }
        let pid = std::process::id().to_string();
        Ok(Env {
            profile_hz: PROFILE_HZ.parsed(&var)?,
            access_log: ACCESS_LOG.get(&var),
            slow_request_ms,
            flight_dump: var(FLIGHT_DUMP.name)
                .or(FLIGHT_DUMP.default.map(|d| d.replace("<pid>", &pid)))
                .expect("the flight dump path declares a default"),
            git_rev: GIT_REV.get(&var).expect("the revision declares a default"),
        })
    }
}

/// A command line the table does not allow: what was wrong, and the part
/// of the help that says what would have been right.
#[derive(Debug)]
pub struct UsageError {
    pub message: String,
    pub usage: String,
}

/// A parsed, validated command line plus the resolved environment.
pub struct Opts {
    pub command: &'static Command,
    pub env: Env,
    /// Flags given on the command line (switches map to "").
    given: HashMap<&'static str, String>,
}

impl Opts {
    /// Parses `v2v <command> [--flag [value]]...` (without the program
    /// name) against the table. No arguments means `help`.
    pub fn parse<I: IntoIterator<Item = String>>(args: I, env: Env) -> Result<Opts, UsageError> {
        let mut args = args.into_iter();
        let name = args.next().unwrap_or_else(|| "help".into());
        let command = COMMANDS.iter().find(|c| c.name == name).ok_or_else(|| UsageError {
            message: format!("unknown command {name:?}"),
            usage: usage_line(),
        })?;
        let fail = |message: String| {
            let mut usage = command_help(command);
            flag_entries(&mut usage, COMMON);
            UsageError { message, usage }
        };
        let mut given = HashMap::new();
        while let Some(arg) = args.next() {
            let Some(key) = arg.strip_prefix("--") else {
                return Err(fail(format!("unexpected positional argument {arg:?}")));
            };
            let flag = command
                .find(key)
                .ok_or_else(|| fail(format!("unknown option --{key} for `v2v {name}`")))?;
            let value = if flag.value.is_empty() {
                String::new()
            } else {
                args.next().ok_or_else(|| fail(format!("{} needs its value", synopsis(flag))))?
            };
            if flag.value.contains('|') && !flag.value.split('|').any(|choice| choice == value) {
                return Err(fail(format!("unknown value {value:?} for {}", synopsis(flag))));
            }
            given.insert(flag.name, value);
        }
        Ok(Opts { command, env, given })
    }

    /// The table entry for `key`; asking for a flag the subcommand does
    /// not declare is a bug in this program, not in the command line.
    fn declared(&self, key: &str) -> &'static Flag {
        self.command
            .find(key)
            .unwrap_or_else(|| panic!("--{key} is not in `v2v {}`'s option table", self.command.name))
    }

    /// Whether a bare `--flag` was given.
    pub fn flag(&self, key: &str) -> bool {
        self.given.contains_key(self.declared(key).name)
    }

    /// The value given for `--key`, else its declared default.
    pub fn get_str(&self, key: &str) -> Option<&str> {
        let flag = self.declared(key);
        self.given.get(flag.name).map(String::as_str).or(flag.default)
    }

    /// [`get_str`](Opts::get_str) for a flag the subcommand cannot run without.
    pub fn require(&self, key: &str) -> Result<&str, String> {
        self.get_str(key).ok_or(format!("missing required --{key}"))
    }

    /// A typed optional flag; an unparseable value is an error.
    pub fn get_opt<T: FromStr>(&self, key: &str) -> Result<Option<T>, String> {
        self.get_str(key)
            .map(|v| v.parse().map_err(|_| format!("invalid value {v:?} for --{key}")))
            .transpose()
    }

    /// A typed flag with a declared default (or one the subcommand requires).
    pub fn get<T: FromStr>(&self, key: &str) -> Result<T, String> {
        self.get_opt(key)?.ok_or(format!("missing required --{key}"))
    }
}

/// Appends `text` word-wrapped at `indent`, its first line led by `left`.
fn entry(out: &mut String, left: &str, indent: usize, text: &str) {
    const WIDTH: usize = 80;
    let mut line = left.to_string();
    if line.len() + 2 > indent {
        out.push_str(&line);
        out.push('\n');
        line.clear();
    }
    let mut fresh = true;
    for word in text.split_whitespace() {
        if !fresh && line.len() + 1 + word.len() > WIDTH {
            out.push_str(&line);
            out.push('\n');
            line.clear();
            fresh = true;
        }
        let pad = if fresh { indent.saturating_sub(line.len()) } else { 1 };
        line.push_str(&" ".repeat(pad));
        line.push_str(word);
        fresh = false;
    }
    out.push_str(&line);
    out.push('\n');
}

/// `--name`, `--name <placeholder>`, or `--name this|that` for a choice.
fn synopsis(flag: &Flag) -> String {
    match flag.value {
        "" => format!("--{}", flag.name),
        choice if choice.contains('|') => format!("--{} {choice}", flag.name),
        placeholder => format!("--{} <{placeholder}>", flag.name),
    }
}

fn with_default_note(help: &str, default: Option<&str>) -> String {
    default.map_or(help.to_string(), |d| format!("{help} (default {d})"))
}

fn flag_entries(out: &mut String, flags: &[Flag]) {
    for flag in flags {
        let left = format!("  {}", synopsis(flag));
        entry(out, &left, 26, &with_default_note(flag.help, flag.default));
    }
}

fn usage_line() -> String {
    let names: Vec<&str> = COMMANDS.iter().map(|c| c.name).collect();
    format!("usage: v2v <{}> [options]\n", names.join("|"))
}

/// One subcommand's section of `v2v help`.
fn command_help(command: &Command) -> String {
    let mut out = format!("v2v {}\n", command.name);
    entry(&mut out, "", 4, command.about);
    for group in command.flags {
        flag_entries(&mut out, group);
    }
    out
}

/// The whole of `v2v help`.
pub fn help() -> String {
    let mut out = usage_line();
    for command in COMMANDS {
        out.push('\n');
        out.push_str(&command_help(command));
    }
    out.push_str("\ncommon options (every subcommand):\n");
    flag_entries(&mut out, COMMON);
    out.push_str("\nenvironment:\n");
    for var in ENVIRONMENT {
        let left = format!("  {}", var.name);
        entry(&mut out, &left, 26, &with_default_note(var.help, var.default));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn env() -> Env {
        Env::resolve(|_| None).unwrap()
    }

    fn parse(args: &[&str]) -> Result<Opts, UsageError> {
        Opts::parse(args.iter().map(|s| s.to_string()), env())
    }

    #[test]
    fn subcommand_values_switches_and_defaults() {
        let o = parse(&["embed", "--input", "g.txt", "--dims", "64", "--directed"]).unwrap();
        assert_eq!(o.command.name, "embed");
        assert_eq!(o.require("input").unwrap(), "g.txt");
        assert_eq!(o.get::<usize>("dims").unwrap(), 64);
        assert_eq!(o.get::<usize>("walks").unwrap(), 10, "absent flag yields the table default");
        assert!(o.flag("directed") && !o.flag("resume"));
        assert!(o.require("output").is_err());
        assert_eq!(o.get_opt::<f64>("time-window").unwrap(), None);
        assert_eq!(parse(&[]).unwrap().command.name, "help");
        let o = parse(&["embed", "--dims", "many"]).unwrap();
        assert!(o.get::<usize>("dims").unwrap_err().contains("--dims"));
    }

    #[test]
    fn refuses_what_the_table_does_not_declare() {
        let err = parse(&["embed", "--thread", "1"]).err().expect("--thread is not a flag");
        assert!(err.message.contains("--thread"), "{}", err.message);
        assert!(err.usage.contains("--threads"), "usage must list embed's flags:\n{}", err.usage);
        assert!(parse(&["frobnicate"]).err().expect("no such command").usage.starts_with("usage: v2v"));
        assert!(parse(&["stats", "extra"]).is_err(), "second positional");
        assert!(parse(&["embed", "--dims"]).is_err(), "value flag at the end of the line");
        assert!(parse(&["stats", "--directed", "true"]).is_err(), "a switch takes no value");
        for bad in [
            ["embed", "--format", "csv"],
            ["walks", "--strategy", "quantum"],
            ["profile", "--format", "yaml"],
            ["drift", "--format", "yaml"],
        ] {
            let err = parse(&bad).err().expect("not one of the choices");
            assert!(err.message.contains(bad[2]) && err.message.contains('|'), "{}", err.message);
        }
    }

    /// The table's own shape: a name is declared once per subcommand, a
    /// default implies a value, and the common flags parse everywhere.
    #[test]
    fn table_is_well_formed() {
        for command in COMMANDS {
            let mut seen = std::collections::HashSet::new();
            for flag in command.all_flags() {
                assert!(seen.insert(flag.name), "v2v {}: --{} twice", command.name, flag.name);
                assert!(flag.default.is_none() || !flag.value.is_empty(), "--{}", flag.name);
                if let (true, Some(default)) = (flag.value.contains('|'), flag.default) {
                    assert!(flag.value.split('|').any(|c| c == default), "--{}", flag.name);
                }
                assert!(!flag.help.is_empty(), "--{} has no help", flag.name);
            }
            for flag in COMMON {
                let o = parse(&[command.name, &format!("--{}", flag.name), "x"]).unwrap();
                assert_eq!(o.get_str(flag.name), Some("x"), "v2v {}", command.name);
            }
        }
        let names: std::collections::HashSet<_> =
            COMMANDS.iter().flat_map(|c| c.all_flags()).map(|f| f.name).collect();
        assert_eq!(names.len(), 49, "distinct flag names across all subcommands");
    }

    /// `v2v help` and the usage errors are the table, rendered: every flag
    /// with its placeholder and default, every variable.
    #[test]
    fn help_lists_every_flag_with_its_default() {
        let help = help();
        for command in COMMANDS {
            let err = parse(&[command.name, "--no-such-flag", "x"]).err().expect("undeclared");
            assert!(err.message.contains("--no-such-flag"), "{}", err.message);
            for flag in command.all_flags() {
                let left = format!("  {}", synopsis(flag));
                // Some entry for this flag (one name can head several, in
                // different subcommands) carries this default; an entry
                // runs to the next flag, and its wrapping is undone.
                let documented = |text: &str| {
                    text.match_indices(&left).any(|(at, _)| {
                        let entry = text[at..].split("\n  --").next().unwrap();
                        let entry = entry.split_whitespace().collect::<Vec<_>>().join(" ");
                        flag.default.is_none_or(|d| entry.contains(&format!("(default {d})")))
                    })
                };
                assert!(documented(&help), "{left} not in v2v help");
                assert!(documented(&err.usage), "{left} not in:\n{}", err.usage);
            }
        }
        for var in ENVIRONMENT {
            assert!(help.contains(&format!("  {} ", var.name)), "{} missing", var.name);
        }
    }

    /// Defaults the table repeats from a library crate must not drift
    /// from it.
    #[test]
    fn table_defaults_match_the_libraries() {
        let o = parse(&["drift"]).unwrap();
        let q = v2v_obs::quality::QualityConfig::default();
        assert_eq!(o.get::<usize>("quality-canaries").unwrap(), q.canaries);
        assert_eq!(o.get::<f64>("quality-churn-threshold").unwrap(), q.churn_threshold);
        assert_eq!(o.get::<usize>("k").unwrap(), q.k);
        assert_eq!(o.get::<u64>("seed").unwrap(), q.seed);
        let o = parse(&["serve"]).unwrap();
        let s = v2v_serve::ServerConfig::default();
        assert_eq!(o.get::<usize>("max-queue").unwrap(), s.max_queue);
        assert_eq!(o.get::<usize>("max-body").unwrap(), s.max_body);
        assert_eq!(o.get::<usize>("keep-alive").unwrap(), s.keep_alive_requests);
        assert_eq!(o.get::<f64>("request-deadline-secs").unwrap(), s.request_deadline.as_secs_f64());
        assert_eq!(env().slow_request_ms, s.slow_request_ms);
        assert_eq!(env().profile_hz, v2v_obs::sampler::DEFAULT_HZ);
        let h = v2v_serve::HnswConfig::default();
        assert_eq!(o.get::<usize>("ef-search").unwrap(), h.ef_search);
        let o = parse(&["index"]).unwrap();
        assert_eq!(o.get::<usize>("m").unwrap(), h.m);
        assert_eq!(o.get::<usize>("ef-construction").unwrap(), h.ef_construction);
    }

    #[test]
    fn env_is_resolved_once_and_rejects_garbage() {
        let e = Env::resolve(|name| match name {
            "V2V_PROFILE_HZ" => Some("997".into()),
            "V2V_ACCESS_LOG" => Some("stderr".into()),
            "V2V_FLIGHT_DUMP" => Some("/tmp/f.json".into()),
            _ => None,
        })
        .unwrap();
        assert_eq!((e.profile_hz, e.slow_request_ms), (997, 250.0));
        assert_eq!(e.access_log.as_deref(), Some("stderr"));
        assert_eq!(e.flight_dump, "/tmp/f.json");
        assert!(env().flight_dump.starts_with("v2v-flight-"));
        assert!(Env::resolve(|n| (n == "V2V_SLOW_REQUEST_MS").then(|| "soon".into())).is_err());
        assert!(Env::resolve(|n| (n == "V2V_SLOW_REQUEST_MS").then(|| "-1".into())).is_err());
        assert!(Env::resolve(|n| (n == "V2V_PROFILE_HZ").then(|| "fast".into())).is_err());
    }
}
