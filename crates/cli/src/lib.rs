//! Command-line interface for the lukewarm simulator.
//!
//! ```text
//! lukewarm list                         # suite functions and workflows
//! lukewarm describe [PLATFORM]          # Table 1 parameters
//! lukewarm run FUNCTION [OPTIONS]       # one configuration, full metrics
//! lukewarm compare FUNCTION [OPTIONS]   # baseline vs jukebox vs perfect
//! lukewarm figure NAME [OPTIONS]        # regenerate a paper figure/table
//! lukewarm trace FUNCTION [OPTIONS]     # Chrome-trace invocation timeline
//! lukewarm trace --fleet [OPTIONS]      # fleet span waterfall / Chrome trace
//! lukewarm bench-compare OLD NEW        # diff two BENCH_*.json records
//!
//! OPTIONS:
//!   --scale S           workload scale (default 0.25; 1.0 = paper)
//!   --invocations N     measured invocations (default 4)
//!   --platform P        skylake | broadwell (run/compare/trace; default
//!                       skylake)
//!   --emit F            table | json | csv (default table)
//!   --prefetcher K      none | jukebox | next-line | pif | pif-ideal |
//!                       jukebox+pif-ideal | footprint-restore |
//!                       fetch-directed | perfect (run/trace; default jukebox)
//!   --state ST          lukewarm | reference (run/trace; default lukewarm)
//!   --out FILE          write the trace to FILE (trace only)
//! ```
//!
//! The parsing layer is exposed as a library so it can be unit-tested; the
//! `lukewarm` binary is a thin `main` around [`run_cli`].

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use luke_common::SimError;
use luke_fleet::{ChaosConfig, FleetConfig, RoutingPolicy};
use luke_obs::export::{fixed, plain, speedup, Column, Dataset, Export};
use lukewarm_sim::experiments::workflow_slo;
use lukewarm_sim::runner::{run, run_observed, RunSpec};
use lukewarm_sim::{Engine, ExperimentParams, PrefetcherKind, SystemConfig};
use workloads::workflow::Workflow;
use workloads::{paper_suite, FunctionProfile};

/// A parsed CLI invocation.
#[derive(Clone, Debug, PartialEq)]
pub enum Command {
    /// `lukewarm list`
    List,
    /// `lukewarm describe [platform]`
    Describe {
        /// Platform name.
        platform: Platform,
    },
    /// `lukewarm run FUNCTION ...` (`run resilience` parses to the same
    /// [`Command::Figure`] as `figure resilience`, and like it takes no
    /// `--platform`, `--prefetcher` or `--state`)
    Run {
        /// Function abbreviation.
        function: String,
        /// Common options.
        options: Options,
        /// Prefetcher to attach.
        prefetcher: PrefetcherKind,
        /// Cache-state protocol.
        state: RunSpec,
        /// `--state` as the user spelled it, for the summary line.
        state_name: String,
    },
    /// `lukewarm compare FUNCTION ...`
    Compare {
        /// Function abbreviation.
        function: String,
        /// Common options.
        options: Options,
    },
    /// `lukewarm figure NAME ...` or `lukewarm figure --all ...`
    Figure {
        /// Figure/table name (e.g. `fig10`); empty when `all` is set.
        name: String,
        /// Common options.
        options: Options,
        /// Worker threads for the experiment engine. Results-neutral:
        /// the output is bit-identical for any value (CI diffs 1 vs 4).
        threads: usize,
        /// Run every registered experiment through one shared engine.
        all: bool,
    },
    /// `lukewarm workflow NAME ...`
    Workflow {
        /// Workflow name (`hotel-reservation` or `online-boutique`).
        name: String,
        /// Common options.
        options: Options,
    },
    /// `lukewarm trace FUNCTION ...`
    Trace {
        /// Function abbreviation.
        function: String,
        /// Common options.
        options: Options,
        /// Prefetcher to attach.
        prefetcher: PrefetcherKind,
        /// Cache-state protocol.
        state: RunSpec,
        /// Output file for the Chrome trace (stdout if absent).
        out: Option<String>,
    },
    /// `lukewarm fleet [--hosts N] [--threads T] [--policy P] ...`
    Fleet {
        /// The fleet to run.
        fleet: FleetOptions,
        /// Output format.
        emit: Emit,
    },
    /// `lukewarm trace --fleet [--hosts N] [--chaos P] [--out FILE] ...`
    TraceFleet {
        /// The fleet to trace; its span sampling period defaults to 100
        /// here and must be >= 1.
        fleet: FleetOptions,
        /// Output file for the Chrome span trace; without it, a text
        /// waterfall with critical-path attribution prints to stdout.
        out: Option<String>,
    },
    /// `lukewarm bench-compare OLD.json NEW.json [--threshold T]`
    BenchCompare {
        /// Baseline `BENCH_*.json` path.
        old: String,
        /// Candidate `BENCH_*.json` path.
        new: String,
        /// Relative drop tolerated before a metric counts as a
        /// regression (default 0.25 = 25%).
        threshold: f64,
    },
    /// `lukewarm help` or empty invocation.
    Help,
}

/// Output format for experiment results.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum Emit {
    /// Human-readable text tables (the historic output, byte-identical).
    #[default]
    Table,
    /// Machine-readable JSON (`{"datasets":[...]}` or a registry snapshot).
    Json,
    /// CSV, one `# name`-headed section per dataset.
    Csv,
}

/// Platform selector.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Platform {
    /// Table 1 Skylake-like.
    Skylake,
    /// §4.1/§5.6 Broadwell-like.
    Broadwell,
}

impl Platform {
    fn config(self) -> SystemConfig {
        match self {
            Platform::Skylake => SystemConfig::skylake(),
            Platform::Broadwell => SystemConfig::broadwell(),
        }
    }
}

/// Common numeric options.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Options {
    /// Workload scale.
    pub scale: f64,
    /// Measured invocations.
    pub invocations: u64,
    /// Platform. Only the commands that simulate one function on one
    /// core (`run`, `compare`, `trace`) read `--platform`; experiments
    /// keep the default.
    pub platform: Platform,
    /// Output format.
    pub emit: Emit,
}

impl Default for Options {
    fn default() -> Self {
        Options {
            scale: 0.25,
            invocations: 4,
            platform: Platform::Skylake,
            emit: Emit::Table,
        }
    }
}

impl Options {
    /// Whether `key` is a common option; `--platform` is one only for
    /// the commands that read it.
    fn is_key(key: &str, platform: bool) -> bool {
        matches!(key, "--scale" | "--invocations" | "--emit") || (platform && key == "--platform")
    }

    /// Reads `key`, a common option by [`Options::is_key`]. Range checks
    /// happen at execute time via [`Options::try_params`] (exit code 3);
    /// reading only rejects values that do not parse.
    fn read(&mut self, key: &str, args: &mut Args<'_>) -> Result<(), CliError> {
        match key {
            "--scale" => self.scale = parsed(key, args)?,
            "--invocations" => self.invocations = parsed(key, args)?,
            "--platform" => self.platform = parse_platform(value(key, args)?)?,
            _ => self.emit = parse_emit(value(key, args)?)?,
        }
        Ok(())
    }

    /// Validated experiment parameters. Nonsense values (`--scale -1`,
    /// `--invocations 0`) surface as [`SimError::InvalidConfig`] with its
    /// exit code 3, like every other invalid-configuration error.
    fn try_params(&self) -> Result<ExperimentParams, CliError> {
        Ok(ExperimentParams::try_new(self.scale, self.invocations, 2)?)
    }
}

/// The options `fleet` and `trace --fleet` share. `trace --fleet` reads
/// neither `--threads` nor the bare flags, so they keep their defaults.
#[derive(Clone, Debug, PartialEq)]
pub struct FleetOptions {
    /// Fleet size.
    pub hosts: usize,
    /// Worker threads the host shards run on; a routing helper thread
    /// may run beside them when a core is spare. Results-neutral: the
    /// output is bit-identical for any value (CI diffs 1 vs 4).
    pub threads: usize,
    /// Routing policy.
    pub policy: RoutingPolicy,
    /// Total invocations (defaults to 1000 per host).
    pub invocations: Option<usize>,
    /// Chaos preset, `None` for `off`. A preset turns on the whole
    /// resilience stack (fault domains, failover, hedging, retry budgets,
    /// admission control, surge traffic).
    pub chaos: Option<ChaosConfig>,
    /// `--chaos` as the user spelled it, for `trace --fleet`'s headings.
    pub chaos_name: String,
    /// Span sampling period: every Nth dispatch grows a causal span tree
    /// (0 = tracing off, `fleet`'s default — output stays byte-identical
    /// to untraced builds).
    pub trace_sample: u64,
    /// Predictive pre-warming / adaptive keep-alive (`--prewarm`). Off by
    /// default — output stays byte-identical to prediction-free builds.
    pub prewarm: bool,
    /// Content-addressed page sharing (`--dedup`): co-resident
    /// same-language instances share runtime/library pages, REAP restores
    /// skip resident pages, and the memory bill charges deduped
    /// footprints. Off by default — output stays byte-identical to
    /// tenancy-free builds.
    pub dedup: bool,
    /// Multi-tenant memory contention (`--contention`): co-resident
    /// working-set pressure slows service and page-fault costs by a
    /// continuous curve. Off by default.
    pub contention: bool,
}

impl FleetOptions {
    /// The fleet configuration both fleet commands run.
    fn config(&self) -> Result<FleetConfig, CliError> {
        let invocations = match self.invocations {
            Some(invocations) => invocations,
            None => self.hosts.checked_mul(1000).ok_or_else(|| {
                SimError::invalid_config(
                    "fleet.hosts",
                    format!(
                        "{} hosts overflow the default of 1000 invocations per host",
                        self.hosts
                    ),
                )
            })?,
        };
        let mut config = FleetConfig {
            hosts: self.hosts,
            threads: self.threads,
            invocations,
            policy: self.policy,
            trace_sample: self.trace_sample,
            ..FleetConfig::default()
        };
        if self.prewarm {
            config.prewarm = luke_fleet::PrewarmConfig::default_enabled();
        }
        if self.dedup {
            // Shared-page dedup needs restore pricing to discount, so
            // cold starts switch to the REAP prefetch model.
            config.tenancy.dedup = true;
            config.cold_start_model = luke_fleet::ColdStartModel::ReapPrefetch;
        }
        if self.contention {
            config.tenancy.contention = luke_fleet::ContentionConfig::default_enabled();
        }
        if let Some(chaos) = self.chaos {
            config.enable_resilience(chaos);
        }
        Ok(config)
    }
}

/// A CLI error with a user-facing one-line message and the process exit
/// code the binary should return.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CliError {
    /// User-facing message.
    pub message: String,
    /// Process exit code: 2 for usage errors; [`SimError`] codes (3 =
    /// invalid configuration, 4 = corrupt metadata) pass through.
    pub code: i32,
}

impl CliError {
    /// A usage error (unknown command, malformed option): exit code 2.
    fn usage(message: impl Into<String>) -> Self {
        CliError {
            message: message.into(),
            code: 2,
        }
    }
}

impl From<SimError> for CliError {
    fn from(e: SimError) -> Self {
        CliError {
            message: e.to_string(),
            code: e.exit_code(),
        }
    }
}

impl std::fmt::Display for CliError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.message)
    }
}

impl std::error::Error for CliError {}

/// Parses an argument vector (without the program name).
///
/// # Errors
///
/// Returns a [`CliError`] with a user-facing message for unknown commands,
/// options or malformed values.
pub fn parse(args: &[String]) -> Result<Command, CliError> {
    let Some((command, rest)) = args.split_first() else {
        return Ok(Command::Help);
    };
    match command.as_str() {
        "help" | "--help" | "-h" => Ok(Command::Help),
        "list" => Ok(Command::List),
        "describe" => Ok(Command::Describe {
            platform: rest
                .first()
                .map_or(Ok(Platform::Skylake), |p| parse_platform(p))?,
        }),
        "run" => parse_run(rest, false),
        "compare" => {
            let (function, options) = read_named(rest, true, no_options)?;
            Ok(Command::Compare { function, options })
        }
        "figure" => parse_figure(rest),
        "workflow" => {
            let (name, options) = read_named(rest, false, no_options)?;
            Ok(Command::Workflow { name, options })
        }
        "trace" if rest.first().map(String::as_str) == Some("--fleet") => {
            parse_fleet(&rest[1..], true)
        }
        "trace" => parse_run(rest, true),
        "fleet" => parse_fleet(rest, false),
        "bench-compare" => parse_bench_compare(rest),
        other => Err(CliError::usage(format!(
            "unknown command {other:?}; try `lukewarm help`"
        ))),
    }
}

/// The words after an option's key, from which the option takes its value.
type Args<'a> = std::slice::Iter<'a, String>;

/// The own options of a command that has none.
fn no_options(_: &str, _: &mut Args<'_>) -> Result<bool, CliError> {
    Ok(false)
}

/// Reads options left to right: the CLI's one option loop. `accept` is
/// handed each key and returns whether it knows it, taking the key's
/// value from the words after it unless the key is a bare flag. A key it
/// does not know still takes a value before it is reported unknown.
fn read_options<'a>(
    args: &'a [String],
    mut accept: impl FnMut(&'a str, &mut Args<'a>) -> Result<bool, CliError>,
) -> Result<(), CliError> {
    let mut args = args.iter();
    while let Some(key) = args.next() {
        if !accept(key, &mut args)? {
            value(key, &mut args)?;
            return Err(CliError::usage(format!("unknown option {key}")));
        }
    }
    Ok(())
}

/// The value after `key`.
fn value<'a>(key: &str, args: &mut Args<'a>) -> Result<&'a str, CliError> {
    args.next()
        .map(String::as_str)
        .ok_or_else(|| CliError::usage(format!("option {key} needs a value")))
}

/// The value after `key`, parsed as a number.
fn parsed<T: std::str::FromStr>(key: &str, args: &mut Args<'_>) -> Result<T, CliError> {
    let text = value(key, args)?;
    text.parse()
        .map_err(|_| CliError::usage(format!("bad {key} {text:?}")))
}

/// Reads `NAME [OPTIONS]`: the name, then [`read_common`].
fn read_named<'a>(
    args: &'a [String],
    platform: bool,
    own: impl FnMut(&'a str, &mut Args<'a>) -> Result<bool, CliError>,
) -> Result<(String, Options), CliError> {
    let (name, rest) = args
        .split_first()
        .ok_or_else(|| CliError::usage("missing argument"))?;
    Ok((name.clone(), read_common(rest, platform, own)?))
}

/// Reads the common [`Options`], with `--platform` among them if
/// `platform`, and then the command's `own`. The common options are
/// read over the whole line first, so a bad common value is reported
/// ahead of any problem with the command's own options.
fn read_common<'a>(
    args: &'a [String],
    platform: bool,
    mut own: impl FnMut(&'a str, &mut Args<'a>) -> Result<bool, CliError>,
) -> Result<Options, CliError> {
    let mut options = Options::default();
    read_options(args, |key, args| {
        if Options::is_key(key, platform) {
            options.read(key, args)?;
        } else {
            value(key, args)?;
        }
        Ok(true)
    })?;
    read_options(args, |key, args| {
        if Options::is_key(key, platform) {
            return value(key, args).map(|_| true);
        }
        own(key, args)
    })?;
    Ok(options)
}

/// `run` and `trace`: a function on one core, with `--prefetcher`,
/// `--state` and, for `trace`, `--out`. `run resilience` is the
/// fault-injection study over the paper workflows rather than a single
/// function, and reads only what `figure resilience` reads.
fn parse_run(args: &[String], trace: bool) -> Result<Command, CliError> {
    if !trace && args.first().is_some_and(|name| name == "resilience") {
        let (name, options) = read_named(args, false, no_options)?;
        return Ok(Command::Figure {
            name,
            options,
            threads: 1,
            all: false,
        });
    }
    let (mut prefetcher, mut state, mut out) = ("jukebox", "lukewarm", None);
    let (function, options) = read_named(args, true, |key, args| {
        match key {
            "--prefetcher" => prefetcher = value(key, args)?,
            "--state" => state = value(key, args)?,
            "--out" if trace => out = Some(value(key, args)?.to_string()),
            _ => return Ok(false),
        }
        Ok(true)
    })?;
    let kind = parse_prefetcher(prefetcher, options.platform)?;
    let spec = parse_state(state)?;
    if trace {
        return Ok(Command::Trace {
            function,
            options,
            prefetcher: kind,
            state: spec,
            out,
        });
    }
    Ok(Command::Run {
        function,
        options,
        prefetcher: kind,
        state: spec,
        state_name: state.to_string(),
    })
}

/// `figure NAME` or `figure --all`, with `--threads`.
fn parse_figure(args: &[String]) -> Result<Command, CliError> {
    let mut threads = 1usize;
    let own = |key: &str, args: &mut Args<'_>| -> Result<bool, CliError> {
        if key != "--threads" {
            return Ok(false);
        }
        threads = parsed(key, args)?;
        Ok(true)
    };
    let (name, options, all) = match args.split_first() {
        Some((first, rest)) if first == "--all" => {
            (String::new(), read_common(rest, false, own)?, true)
        }
        _ => {
            let (name, options) = read_named(args, false, own)?;
            (name, options, false)
        }
    };
    Ok(Command::Figure {
        name,
        options,
        threads,
        all,
    })
}

/// `fleet`, or with `trace`, `trace --fleet`: that takes `--out`, but not
/// `--threads`, `--emit` or the bare flags, and samples every 100th
/// dispatch unless told otherwise.
fn parse_fleet(args: &[String], trace: bool) -> Result<Command, CliError> {
    let mut fleet = FleetOptions {
        hosts: 8,
        threads: 1,
        policy: RoutingPolicy::KeepAliveAware,
        invocations: None,
        chaos: None,
        chaos_name: String::new(),
        trace_sample: if trace { 100 } else { 0 },
        prewarm: false,
        dedup: false,
        contention: false,
    };
    // `--policy` and `--chaos` are resolved once the line is read, so a
    // malformed number anywhere on it is reported first.
    let (mut policy, mut chaos, mut emit, mut out) = ("keep-alive-aware", "off", Emit::Table, None);
    read_options(args, |key, args| {
        match key {
            "--hosts" => fleet.hosts = parsed(key, args)?,
            "--policy" => policy = value(key, args)?,
            "--invocations" => fleet.invocations = Some(parsed(key, args)?),
            "--chaos" => chaos = value(key, args)?,
            "--trace-sample" => fleet.trace_sample = parsed(key, args)?,
            "--out" if trace => out = Some(value(key, args)?.to_string()),
            "--threads" if !trace => fleet.threads = parsed(key, args)?,
            "--emit" if !trace => emit = parse_emit(value(key, args)?)?,
            "--prewarm" if !trace => fleet.prewarm = true,
            "--dedup" if !trace => fleet.dedup = true,
            "--contention" if !trace => fleet.contention = true,
            _ => return Ok(false),
        }
        Ok(true)
    })?;
    if trace && fleet.trace_sample == 0 {
        return Err(CliError::usage(
            "trace --fleet needs --trace-sample >= 1 (it exists to record spans)",
        ));
    }
    fleet.policy = RoutingPolicy::parse(policy)?;
    fleet.chaos = chaos_preset(chaos)?;
    fleet.chaos_name = chaos.to_string();
    Ok(if trace {
        Command::TraceFleet { fleet, out }
    } else {
        Command::Fleet { fleet, emit }
    })
}

/// `bench-compare OLD NEW [--threshold T]`: every word but the option is
/// a path.
fn parse_bench_compare(args: &[String]) -> Result<Command, CliError> {
    let (mut paths, mut threshold) = (Vec::new(), 0.25f64);
    read_options(args, |word, args| {
        if word != "--threshold" {
            paths.push(word.to_string());
            return Ok(true);
        }
        threshold = parsed(word, args)?;
        if !(0.0..1.0).contains(&threshold) {
            return Err(CliError::usage(format!(
                "--threshold {threshold} must be in [0, 1)"
            )));
        }
        Ok(true)
    })?;
    let [old, new] = <[String; 2]>::try_from(paths)
        .map_err(|_| CliError::usage("bench-compare needs exactly OLD.json and NEW.json"))?;
    Ok(Command::BenchCompare {
        old,
        new,
        threshold,
    })
}

fn parse_emit(s: &str) -> Result<Emit, CliError> {
    match s {
        "table" => Ok(Emit::Table),
        "json" => Ok(Emit::Json),
        "csv" => Ok(Emit::Csv),
        other => Err(CliError::usage(format!(
            "unknown emit format {other:?} (table | json | csv)"
        ))),
    }
}

fn parse_platform(s: &str) -> Result<Platform, CliError> {
    match s {
        "skylake" => Ok(Platform::Skylake),
        "broadwell" => Ok(Platform::Broadwell),
        other => Err(CliError::usage(format!(
            "unknown platform {other:?} (skylake | broadwell)"
        ))),
    }
}

fn parse_prefetcher(s: &str, platform: Platform) -> Result<PrefetcherKind, CliError> {
    let jukebox = platform.config().jukebox;
    match s {
        "none" | "baseline" => Ok(PrefetcherKind::None),
        "jukebox" => Ok(PrefetcherKind::Jukebox(jukebox)),
        "next-line" => Ok(PrefetcherKind::NextLine),
        "pif" => Ok(PrefetcherKind::Pif),
        "pif-ideal" => Ok(PrefetcherKind::PifIdeal),
        "jukebox+pif-ideal" => Ok(PrefetcherKind::JukeboxPlusPifIdeal(jukebox)),
        "footprint-restore" => Ok(PrefetcherKind::FootprintRestore),
        "fetch-directed" => Ok(PrefetcherKind::FetchDirected),
        "perfect" | "perfect-icache" => Ok(PrefetcherKind::PerfectICache),
        other => Err(CliError::usage(format!("unknown prefetcher {other:?}"))),
    }
}

fn parse_state(s: &str) -> Result<RunSpec, CliError> {
    match s {
        "lukewarm" | "interleaved" => Ok(RunSpec::lukewarm()),
        "reference" | "warm" => Ok(RunSpec::reference()),
        other => Err(CliError::usage(format!(
            "unknown state {other:?} (lukewarm | reference)"
        ))),
    }
}

/// Resolves a `--chaos` preset name (`off` means no preset).
fn chaos_preset(name: &str) -> Result<Option<ChaosConfig>, CliError> {
    match name {
        "off" => Ok(None),
        "light" => Ok(Some(ChaosConfig::light())),
        "heavy" => Ok(Some(ChaosConfig::heavy())),
        other => Err(CliError::usage(format!(
            "unknown --chaos preset {other:?}; try off, light or heavy"
        ))),
    }
}

fn lookup_function(name: &str) -> Result<FunctionProfile, CliError> {
    FunctionProfile::named(name).ok_or_else(|| {
        let names: Vec<String> = paper_suite().into_iter().map(|p| p.name).collect();
        CliError::usage(format!(
            "unknown function {name:?}; available: {}",
            names.join(", ")
        ))
    })
}

/// Renders an experiment result in the requested format: the historic
/// `Display` table, or the [`Export`] datasets as JSON/CSV.
fn render<T: std::fmt::Display + Export + ?Sized>(data: &T, emit: Emit) -> String {
    match emit {
        Emit::Table => data.to_string(),
        Emit::Json => luke_obs::export::to_json(&data.datasets()),
        Emit::Csv => luke_obs::export::to_csv(&data.datasets()),
    }
}

/// Renders already-built datasets (for results assembled in the CLI).
fn render_datasets(datasets: &[Dataset], emit: Emit, table: impl FnOnce() -> String) -> String {
    match emit {
        Emit::Table => table(),
        Emit::Json => luke_obs::export::to_json(datasets),
        Emit::Csv => luke_obs::export::to_csv(datasets),
    }
}

/// Table 1 as datasets: one `(platform, parameter, value)` row per
/// `describe()` line.
fn table1_datasets() -> Vec<Dataset> {
    let mut ds = Dataset::new("table1.platforms", &["platform", "parameter", "value"]);
    for config in [SystemConfig::skylake(), SystemConfig::broadwell()] {
        for line in config.describe().lines() {
            let (param, value) = line.split_once(": ").unwrap_or((line, ""));
            ds.push_row(vec![
                config.name.into(),
                param.trim_end_matches(':').trim().into(),
                value.trim().into(),
            ]);
        }
    }
    vec![ds]
}

/// Executes a parsed command, returning the text to print.
///
/// # Errors
///
/// Returns a [`CliError`] for unknown functions, figures or option values.
pub fn execute(command: &Command) -> Result<String, CliError> {
    match command {
        Command::Help => Ok(help_text()),
        Command::List => Ok(list_text()),
        Command::Describe { platform } => Ok(platform.config().describe()),
        Command::Run {
            function,
            options,
            prefetcher,
            state,
            state_name,
        } => execute_run(function, options, *prefetcher, *state, state_name),
        Command::Compare { function, options } => execute_compare(function, options),
        Command::Figure {
            name,
            options,
            threads,
            all,
        } => execute_figure(name, options, *threads, *all),
        Command::Workflow { name, options } => execute_workflow(name, options),
        Command::Trace {
            function,
            options,
            prefetcher,
            state,
            ..
        } => execute_trace(function, options, *prefetcher, *state),
        Command::Fleet { fleet, emit } => execute_fleet(fleet, *emit),
        Command::TraceFleet { fleet, out } => execute_trace_fleet(fleet, out.is_some()),
        Command::BenchCompare {
            old,
            new,
            threshold,
        } => execute_bench_compare(old, new, *threshold),
    }
}

fn list_text() -> String {
    let mut out = String::from("Functions (Table 2):\n");
    for p in paper_suite() {
        out.push_str(&format!(
            "  {:<8} {:<7} footprint {}, {} instructions/invocation\n",
            p.name, p.language, p.code_footprint, p.instructions
        ));
    }
    out.push_str("\nWorkflows:\n");
    for w in Workflow::paper_workflows() {
        let stages: Vec<&str> = w.stages.iter().map(|s| s.name.as_str()).collect();
        out.push_str(&format!("  {:<18} {}\n", w.name, stages.join(" -> ")));
    }
    out.push_str("\nExperiments (lukewarm figure NAME):\n");
    for e in lukewarm_sim::engine::registry() {
        out.push_str(&format!("  {:<14} {}\n", e.name(), e.description()));
    }
    out
}

/// What `run`, `compare` and `trace` simulate: validated parameters, the
/// scaled function and the validated platform.
fn setup(
    function: &str,
    options: &Options,
) -> Result<(ExperimentParams, FunctionProfile, SystemConfig), CliError> {
    let params = options.try_params()?;
    let profile = lookup_function(function)?.scaled(options.scale);
    let config = options.platform.config();
    config.validate()?;
    Ok((params, profile, config))
}

fn execute_run(
    function: &str,
    options: &Options,
    kind: PrefetcherKind,
    spec: RunSpec,
    state: &str,
) -> Result<String, CliError> {
    let (params, profile, config) = setup(function, options)?;
    // JSON/CSV export the full metrics-registry snapshot — a strict
    // superset of the text summary below.
    if options.emit != Emit::Table {
        let obs = run_observed(&config, &profile, kind, spec, &params, 0);
        return Ok(match options.emit {
            Emit::Json => obs.registry.to_json(),
            _ => obs.registry.to_csv(),
        });
    }
    let s = run(&config, &profile, kind, spec, &params);
    let td = s.cpi_stack();
    Ok(format!(
        "{} on {} ({} x{} invocations, {state})\n\
         CPI {:.3} ({} cycles / {} instructions)\n\
         top-down: retiring {:.2} | fetch-lat {:.2} | fetch-bw {:.2} | bad-spec {:.2} | backend {:.2}\n\
         L2 MPKI: instr {:.1}, data {:.1};  LLC MPKI: instr {:.1}, data {:.1}\n\
         prefetches issued {} (redundant {}), covered L2 misses {}\n\
         DRAM bytes: demand {}, prefetch {}, metadata {}",
        profile.name,
        config.name,
        kind.label(),
        s.invocations,
        s.cpi(),
        s.cycles,
        s.instructions,
        td.retiring,
        td.fetch_latency,
        td.fetch_bandwidth,
        td.bad_speculation,
        td.backend,
        s.l2_instr_mpki(),
        s.l2_data_mpki(),
        s.llc_instr_mpki(),
        s.llc_data_mpki(),
        s.prefetch.issued,
        s.prefetch.redundant,
        s.mem.l2.prefetch_first_hits,
        s.mem.traffic.demand(),
        s.mem.traffic.prefetch,
        s.mem.traffic.metadata_record + s.mem.traffic.metadata_replay,
    ))
}

fn execute_compare(function: &str, options: &Options) -> Result<String, CliError> {
    let (params, profile, config) = setup(function, options)?;
    let run_with = |kind, spec| run(&config, &profile, kind, spec, &params);
    let reference = run_with(PrefetcherKind::None, RunSpec::reference());
    let baseline = run_with(PrefetcherKind::None, RunSpec::lukewarm());
    let jukebox = run_with(PrefetcherKind::Jukebox(config.jukebox), RunSpec::lukewarm());
    let perfect = run_with(PrefetcherKind::PerfectICache, RunSpec::lukewarm());
    let configurations = [
        ("reference (warm)", &reference),
        ("lukewarm baseline", &baseline),
        ("lukewarm + jukebox", &jukebox),
        ("perfect I-cache", &perfect),
    ];
    let mut ds = Dataset::with_columns(
        "compare.configurations",
        vec![
            Column::hidden("function"),
            Column::new("configuration", plain),
            Column::new("CPI", fixed::<2>),
            Column::new("vs reference", speedup::<1>),
        ],
    );
    for (label, s) in configurations {
        ds.push_row(vec![
            profile.name.clone().into(),
            label.into(),
            s.cpi().into(),
            (s.cpi() / reference.cpi()).into(),
        ]);
    }
    let mut speedups = Dataset::new(
        "compare.speedups",
        &["function", "jukebox speedup", "perfect I-cache speedup"],
    );
    speedups.push_row(vec![
        profile.name.clone().into(),
        jukebox.speedup_over(&baseline).into(),
        perfect.speedup_over(&baseline).into(),
    ]);
    let datasets = [ds, speedups];
    Ok(render_datasets(&datasets, options.emit, || {
        format!(
            "{}\njukebox speedup over lukewarm: {:+.1}% (perfect-I$ opportunity {:+.1}%)",
            datasets[0].to_text(),
            (jukebox.speedup_over(&baseline) - 1.0) * 100.0,
            (perfect.speedup_over(&baseline) - 1.0) * 100.0,
        )
    }))
}

fn execute_figure(
    name: &str,
    options: &Options,
    threads: usize,
    all: bool,
) -> Result<String, CliError> {
    let params = options.try_params()?;
    let emit = options.emit;
    let engine = Engine::new(threads);
    if all {
        return execute_all(&engine, &params, emit);
    }
    if name == "table1" {
        // Table 1 is configuration description, not an experiment.
        return Ok(render_datasets(&table1_datasets(), emit, || {
            format!(
                "{}\n{}",
                SystemConfig::skylake().describe(),
                SystemConfig::broadwell().describe()
            )
        }));
    }
    let experiment = lukewarm_sim::engine::find(name).ok_or_else(|| {
        let names: Vec<&str> = lukewarm_sim::engine::registry()
            .iter()
            .map(|e| e.name())
            .collect();
        CliError::usage(format!(
            "unknown figure {name:?}; one of: table1 {}",
            names.join(" ")
        ))
    })?;
    Ok(render(engine.execute(experiment, &params)?.as_ref(), emit))
}

/// Every registered experiment through one shared engine: cells
/// duplicated across figures simulate exactly once.
fn execute_all(engine: &Engine, params: &ExperimentParams, emit: Emit) -> Result<String, CliError> {
    let mut sections = Vec::new();
    let mut datasets = Vec::new();
    for experiment in lukewarm_sim::engine::registry() {
        let data = engine.execute(*experiment, params)?;
        match emit {
            Emit::Table => sections.push(format!("=== {} ===\n{data}", experiment.name())),
            _ => datasets.extend(data.datasets()),
        }
    }
    Ok(match emit {
        Emit::Table => {
            sections.push(engine.summary_line());
            sections.join("\n")
        }
        _ => {
            datasets.push(engine.dataset());
            render_datasets(&datasets, emit, String::new)
        }
    })
}

fn execute_workflow(name: &str, options: &Options) -> Result<String, CliError> {
    let workflow = Workflow::paper_workflows()
        .into_iter()
        .find(|w| w.name == name)
        .ok_or_else(|| {
            let names: Vec<String> = Workflow::paper_workflows()
                .into_iter()
                .map(|w| w.name)
                .collect();
            CliError::usage(format!(
                "unknown workflow {name:?}; available: {}",
                names.join(", ")
            ))
        })?;
    let params = options.try_params()?;
    let result = workflow_slo::run_workflow(&Engine::single(), &workflow, &params);
    let data = workflow_slo::Data {
        workflows: vec![result],
    };
    Ok(render(&data, options.emit))
}

fn execute_trace(
    function: &str,
    options: &Options,
    kind: PrefetcherKind,
    spec: RunSpec,
) -> Result<String, CliError> {
    let (params, profile, config) = setup(function, options)?;
    let obs = run_observed(&config, &profile, kind, spec, &params, TRACE_CAPACITY);
    Ok(luke_obs::trace::chrome_trace_spans(
        &format!("{} on {} ({})", profile.name, config.name, kind.label()),
        "cycles",
        &obs.spans,
    ))
}

fn execute_fleet(fleet: &FleetOptions, emit: Emit) -> Result<String, CliError> {
    let config = fleet.config()?;
    // The CLI uses the closed-form service model; the calibrated
    // (cycle-accurate) variant runs via `figure fleet`.
    let model = luke_fleet::ServiceModel::analytic(&paper_suite())?;
    let pair = luke_fleet::run_fleet_pair(&config, &model)?;
    Ok(render(&pair, emit))
}

/// `trace --fleet`: a Chrome span trace when `chrome`, else the text
/// waterfall.
fn execute_trace_fleet(fleet: &FleetOptions, chrome: bool) -> Result<String, CliError> {
    let config = fleet.config()?;
    let model = luke_fleet::ServiceModel::analytic(&paper_suite())?;
    let run = luke_fleet::run_fleet(&config, &model, true)?;
    let chaos = &fleet.chaos_name;
    if chrome {
        let name = format!("fleet ({} hosts, chaos {chaos})", config.hosts);
        return Ok(luke_obs::trace::chrome_trace_spans(&name, "us", &run.spans));
    }
    Ok(fleet_waterfall(&run, chaos))
}

fn execute_bench_compare(old: &str, new: &str, threshold: f64) -> Result<String, CliError> {
    let load = |path: &str| -> Result<luke_bench::record::BenchRecord, CliError> {
        let text = std::fs::read_to_string(path)
            .map_err(|e| CliError::usage(format!("cannot read {path:?}: {e}")))?;
        luke_bench::record::BenchRecord::from_json(&text)
            .map_err(|e| CliError::usage(format!("{path}: {e}")))
    };
    let (old_rec, new_rec) = (load(old)?, load(new)?);
    let c = luke_bench::record::compare(&old_rec, &new_rec, threshold);
    let header = format!(
        "bench-compare {} (threshold {:.0}%)\n",
        old_rec.name,
        threshold * 100.0
    );
    if c.regressions.is_empty() {
        return Ok(format!("{header}{}no regressions", c.report));
    }
    // The regression verdict is the command's purpose: exit code 1 so CI
    // trips on it.
    Err(CliError {
        message: format!(
            "{header}{}{} metric(s) regressed beyond {:.0}%: {}",
            c.report,
            c.regressions.len(),
            threshold * 100.0,
            c.regressions.join(", ")
        ),
        code: 1,
    })
}

/// Renders a traced fleet run as a text waterfall: the slowest sampled
/// lanes span by span, then critical-path attribution by span kind.
fn fleet_waterfall(run: &luke_fleet::FleetRun, chaos: &str) -> String {
    use luke_obs::span::Span;
    use std::collections::BTreeMap;

    let mut lanes: BTreeMap<u64, Vec<&Span>> = BTreeMap::new();
    for s in &run.spans {
        lanes.entry(s.trace).or_default().push(s);
    }
    let mut out = format!(
        "fleet span waterfall ({} sampled lanes, {} spans, chaos {chaos})\n",
        lanes.len(),
        run.spans.len()
    );

    // Slowest lanes first; ties break on lane id so output is stable.
    let mut by_total: Vec<(&u64, &Vec<&Span>)> = lanes.iter().collect();
    by_total.sort_by_key(|(trace, spans)| {
        let root = spans.iter().find(|s| s.id == 0).map_or(0, |s| s.dur_us);
        (std::cmp::Reverse(root), **trace)
    });
    out.push_str("\nslowest lanes:\n");
    for (trace, spans) in by_total.iter().take(5) {
        push_lane(&mut out, **trace, spans);
    }
    push_critical_path(&mut out, &run.spans);
    out
}

/// One waterfall lane: its root line, then a bar per child span.
fn push_lane(out: &mut String, trace: u64, spans: &[&luke_obs::span::Span]) {
    use luke_obs::span::{dispatch_of, is_hedge_lane};
    const BAR: usize = 32;

    let Some(root) = spans.iter().find(|s| s.id == 0) else {
        return;
    };
    out.push_str(&format!(
        "  dispatch {}{} host {} arrival {:.3}ms total {:.3}ms\n",
        dispatch_of(trace),
        if is_hedge_lane(trace) {
            " (hedge copy)"
        } else {
            ""
        },
        root.a,
        root.b as f64 / 1000.0,
        root.dur_us as f64 / 1000.0,
    ));
    for s in spans.iter().filter(|s| s.id != 0) {
        let (from, len) = if root.dur_us == 0 {
            (0, 0)
        } else {
            (
                (s.start_us as usize * BAR) / root.dur_us as usize,
                ((s.dur_us as usize * BAR) / root.dur_us as usize).max(1),
            )
        };
        let mut bar = vec![b'.'; BAR];
        for slot in bar.iter_mut().skip(from).take(len.min(BAR - from.min(BAR))) {
            *slot = b'#';
        }
        let glyph = String::from_utf8(bar).expect("ascii");
        if s.dur_us > 0 {
            out.push_str(&format!(
                "    [{glyph}] {:<9} {:>9.3} - {:>9.3}ms\n",
                s.kind.label(),
                s.start_us as f64 / 1000.0,
                (s.start_us + s.dur_us) as f64 / 1000.0,
            ));
        } else {
            out.push_str(&format!(
                "    [{glyph}] {:<9} @ {:>7.3}ms\n",
                s.kind.label(),
                s.start_us as f64 / 1000.0,
            ));
        }
    }
}

/// Critical-path attribution by span kind. Children of a root exactly
/// partition its duration (the recorder's telescoping invariant), so the
/// per-kind percentages sum to 100.
fn push_critical_path(out: &mut String, spans: &[luke_obs::span::Span]) {
    use luke_obs::span::{SpanKind, SPAN_KINDS};

    let total_us: u64 = spans.iter().filter(|s| s.id == 0).map(|s| s.dur_us).sum();
    out.push_str(&format!(
        "\ncritical path by span kind ({:.3}ms sampled end-to-end):\n",
        total_us as f64 / 1000.0
    ));
    for kind in SPAN_KINDS {
        if kind == SpanKind::Invocation {
            continue;
        }
        let (mut us, mut count) = (0u64, 0usize);
        for s in spans.iter().filter(|s| s.id != 0 && s.kind == kind) {
            us += s.dur_us;
            count += 1;
        }
        if count == 0 {
            continue;
        }
        if us > 0 {
            out.push_str(&format!(
                "  {:<9} {:>5.1}%  {:>10.3}ms over {count} spans\n",
                kind.label(),
                if total_us == 0 {
                    0.0
                } else {
                    us as f64 * 100.0 / total_us as f64
                },
                us as f64 / 1000.0,
            ));
        } else {
            out.push_str(&format!("  {:<9} instant x{count}\n", kind.label()));
        }
    }
}

/// Span-ring capacity for `lukewarm trace`: large enough to hold every
/// fetch stall of the last measured invocation at default scales.
const TRACE_CAPACITY: usize = 65_536;

/// Parses and executes in one step (the binary's body). When the command
/// is `trace --out FILE`, the trace document is written to FILE and a
/// one-line confirmation is returned instead.
///
/// # Errors
///
/// Propagates parse and execution errors; file-write failures surface as
/// usage-coded errors naming the path.
pub fn run_cli(args: &[String]) -> Result<String, CliError> {
    let command = parse(args)?;
    let output = execute(&command)?;
    if let Command::Trace {
        out: Some(path), ..
    }
    | Command::TraceFleet {
        out: Some(path), ..
    } = &command
    {
        std::fs::write(path, &output).map_err(|e| CliError {
            message: format!("cannot write {path:?}: {e}"),
            code: 2,
        })?;
        return Ok(format!("wrote Chrome trace to {path}"));
    }
    Ok(output)
}

fn help_text() -> String {
    "lukewarm — the Jukebox instruction prefetcher and its serverless evaluation stack\n\
     (reproduction of Schall et al., 'Lukewarm Serverless Functions', ISCA 2022)\n\n\
     USAGE:\n\
     \x20 lukewarm list\n\
     \x20 lukewarm describe [skylake|broadwell]\n\
     \x20 lukewarm run FUNCTION [--scale S] [--invocations N] [--platform P]\n\
     \x20                       [--prefetcher K] [--state lukewarm|reference]\n\
     \x20 lukewarm run resilience [--scale S] [--invocations N]\n\
     \x20 lukewarm compare FUNCTION [--scale S] [--invocations N] [--platform P]\n\
     \x20 lukewarm figure NAME [--scale S] [--invocations N] [--threads T]\n\
     \x20 lukewarm figure --all [--scale S] [--invocations N] [--threads T]\n\
     \x20 lukewarm workflow NAME [--scale S] [--invocations N]\n\
     \x20 lukewarm trace FUNCTION [--prefetcher K] [--state ST] [--out FILE]\n\
     \x20 lukewarm trace --fleet [--hosts N] [--chaos P] [--trace-sample N] [--out FILE]\n\
     \x20 lukewarm fleet [--hosts N] [--threads T] [--policy rr|ll|kaa|pa]\n\
     \x20                [--invocations N] [--chaos off|light|heavy] [--trace-sample N]\n\
     \x20                [--prewarm] [--dedup] [--contention]\n\
     \x20 lukewarm bench-compare OLD.json NEW.json [--threshold 0.25]\n\n\
     \x20 fleet --threads T spreads the host shards over T workers (default 1);\n\
     \x20 the router may run on one more thread beside them when a core is spare.\n\
     \x20 --chaos light|heavy crashes and degrades hosts on a seeded timeline and\n\
     \x20 enables failover, hedging, retry budgets, admission control and a flash\n\
     \x20 crowd; output stays bit-identical across --threads (see docs/RESILIENCE.md).\n\
     \x20 --prewarm turns on predictive pre-warming and per-function adaptive\n\
     \x20 keep-alive (luke-predict), adding a fleet.prewarm dataset and predict.*\n\
     \x20 counters; off, the output is byte-identical (see docs/PREDICT.md).\n\
     \x20 --dedup shares pages content-addressed across co-resident same-language\n\
     \x20 instances (REAP restores skip resident pages, memory charges deduped\n\
     \x20 footprints); --contention slows crowded hosts by a continuous pressure\n\
     \x20 curve; --policy pa (placement-aware) routes by shared-page affinity.\n\
     \x20 Each adds a fleet.tenancy dataset and tenancy.* counters; off, the\n\
     \x20 output is byte-identical (see docs/TENANCY.md).\n\
     \x20 --trace-sample N records a causal span tree for every Nth dispatch; the\n\
     \x20 trees export as a fleet.spans dataset (fleet) or a Chrome trace / text\n\
     \x20 waterfall (trace --fleet). bench-compare diffs two BENCH_*.json perf\n\
     \x20 trajectory records and exits 1 on regression (see docs/OBSERVABILITY.md).\n\n\
     All run/compare/figure/workflow/trace/fleet commands accept --emit table|json|csv\n\
     (default table; trace always emits Chrome trace-event JSON).\n\
     See docs/OBSERVABILITY.md for the metric catalogue and export formats.\n\n\
     Run `figure --all --scale 1 --invocations 8` for the full paper reproduction.\n"
        .to_string()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(|w| w.to_string()).collect()
    }

    #[test]
    fn empty_and_help_parse_to_help() {
        assert_eq!(parse(&[]).unwrap(), Command::Help);
        assert_eq!(parse(&argv("help")).unwrap(), Command::Help);
        assert_eq!(parse(&argv("--help")).unwrap(), Command::Help);
    }

    #[test]
    fn list_and_describe_parse() {
        assert_eq!(parse(&argv("list")).unwrap(), Command::List);
        assert_eq!(
            parse(&argv("describe broadwell")).unwrap(),
            Command::Describe {
                platform: Platform::Broadwell
            }
        );
        assert!(parse(&argv("describe haswell")).is_err());
    }

    #[test]
    fn run_parses_options() {
        let cmd = parse(&argv(
            "run Auth-G --scale 0.5 --invocations 7 --platform broadwell --prefetcher pif --state reference",
        ))
        .unwrap();
        match cmd {
            Command::Run {
                function,
                options,
                prefetcher,
                state,
                state_name,
            } => {
                assert_eq!(function, "Auth-G");
                assert_eq!(options.scale, 0.5);
                assert_eq!(options.invocations, 7);
                assert_eq!(options.platform, Platform::Broadwell);
                assert_eq!(prefetcher, PrefetcherKind::Pif);
                assert_eq!(state, RunSpec::reference());
                assert_eq!(state_name, "reference");
            }
            other => panic!("parsed {other:?}"),
        }
        // The prefetcher takes the platform's Jukebox wherever --platform
        // stands on the line, and --state keeps the user's spelling.
        match parse(&argv("run Auth-G --state warm --platform broadwell")).unwrap() {
            Command::Run {
                prefetcher,
                state,
                state_name,
                ..
            } => {
                let jukebox = SystemConfig::broadwell().jukebox;
                assert_eq!(prefetcher, PrefetcherKind::Jukebox(jukebox));
                assert_eq!(state, RunSpec::reference());
                assert_eq!(state_name, "warm");
            }
            other => panic!("parsed {other:?}"),
        }
    }

    #[test]
    fn run_resilience_parses_to_figure_resilience() {
        let line = "--scale 0.02 --invocations 1 --emit json";
        assert_eq!(
            parse(&argv(&format!("run resilience {line}"))).unwrap(),
            parse(&argv(&format!("figure resilience {line}"))).unwrap()
        );
    }

    #[test]
    fn bad_values_are_rejected() {
        assert!(parse(&argv("run Auth-G --scale zero")).is_err());
        assert!(parse(&argv("run Auth-G --prefetcher warp-drive")).is_err());
        assert!(parse(&argv("run Auth-G --state tepid")).is_err());
        assert!(parse(&argv("run")).is_err());
        assert!(parse(&argv("frobnicate")).is_err());
        assert!(parse(&argv("compare Auth-G --bogus 1")).is_err());
        // Out-of-range (but numeric) values parse; they are rejected at
        // execute time as InvalidConfig (exit code 3).
        assert!(parse(&argv("run Auth-G --scale -1")).is_ok());
        assert!(parse(&argv("run Auth-G --invocations 0")).is_ok());
    }

    #[test]
    fn list_executes() {
        let out = execute(&Command::List).unwrap();
        assert!(out.contains("Auth-G"));
        assert!(out.contains("hotel-reservation"));
    }

    #[test]
    fn describe_executes() {
        let out = execute(&Command::Describe {
            platform: Platform::Skylake,
        })
        .unwrap();
        assert!(out.contains("1MB"));
    }

    #[test]
    fn unknown_function_reports_choices() {
        let err = run_cli(&argv("compare Bogus-X")).unwrap_err();
        assert!(err.message.contains("available"));
    }

    #[test]
    fn run_executes_at_tiny_scale() {
        let out = run_cli(&argv(
            "run Fib-G --scale 0.02 --invocations 1 --prefetcher jukebox",
        ))
        .unwrap();
        assert!(out.contains("CPI"));
        assert!(out.contains("top-down"));
    }

    #[test]
    fn compare_executes_at_tiny_scale() {
        let out = run_cli(&argv("compare Fib-G --scale 0.02 --invocations 1")).unwrap();
        assert!(out.contains("jukebox speedup over lukewarm"));
    }

    #[test]
    fn unknown_figure_lists_options() {
        let err = run_cli(&argv("figure fig99")).unwrap_err();
        assert!(err.message.contains("fig10"));
    }

    #[test]
    fn figure_parses_threads_and_all() {
        match parse(&argv("figure fig10 --threads 2")).unwrap() {
            Command::Figure {
                name, threads, all, ..
            } => {
                assert_eq!(name, "fig10");
                assert_eq!(threads, 2);
                assert!(!all);
            }
            other => panic!("parsed {other:?}"),
        }
        match parse(&argv("figure --all --threads 4 --scale 0.02 --emit json")).unwrap() {
            Command::Figure {
                options,
                threads,
                all,
                ..
            } => {
                assert_eq!(threads, 4);
                assert!(all);
                assert_eq!(options.scale, 0.02);
                assert_eq!(options.emit, Emit::Json);
            }
            other => panic!("parsed {other:?}"),
        }
        assert_eq!(
            parse(&argv("figure fig10 --threads x")).unwrap_err().code,
            2
        );
    }

    #[test]
    fn figure_all_shares_cells_across_experiments() {
        // One shared engine per invocation: at least one figure replans a
        // cell another already simulated (e.g. fig12 reuses fig11's grid).
        let out = run_cli(&argv("figure --all --scale 0.02 --invocations 1")).unwrap();
        let line = out
            .lines()
            .find(|l| l.starts_with("engine: "))
            .expect("table output ends with the engine summary");
        assert!(!line.contains(" 0 cache hits"), "{line}");
        for e in lukewarm_sim::engine::registry() {
            assert!(
                out.contains(&format!("=== {} ===", e.name())),
                "{}",
                e.name()
            );
        }
    }

    #[test]
    fn help_mentions_all_commands() {
        let h = help_text();
        for cmd in [
            "list", "describe", "run", "compare", "figure", "workflow", "fleet",
        ] {
            assert!(h.contains(cmd), "missing {cmd}");
        }
    }

    /// The fleet both fleet commands run when given no options.
    fn default_fleet(trace_sample: u64) -> FleetOptions {
        FleetOptions {
            hosts: 8,
            threads: 1,
            policy: RoutingPolicy::KeepAliveAware,
            invocations: None,
            chaos: None,
            chaos_name: "off".to_string(),
            trace_sample,
            prewarm: false,
            dedup: false,
            contention: false,
        }
    }

    #[test]
    fn fleet_parses_flags_and_rejects_bad_ones() {
        let cmd = parse(&argv(
            "fleet --hosts 4 --threads 2 --policy rr --chaos heavy --trace-sample 16 --prewarm --emit json",
        ))
        .unwrap();
        assert_eq!(
            cmd,
            Command::Fleet {
                fleet: FleetOptions {
                    hosts: 4,
                    threads: 2,
                    policy: RoutingPolicy::RoundRobin,
                    chaos: chaos_preset("heavy").unwrap(),
                    chaos_name: "heavy".to_string(),
                    trace_sample: 16,
                    prewarm: true,
                    ..default_fleet(0)
                },
                emit: Emit::Json,
            }
        );
        // The tenancy flags are bare and compose with the
        // placement-aware policy alias.
        assert_eq!(
            parse(&argv("fleet --policy pa --dedup --contention")).unwrap(),
            Command::Fleet {
                fleet: FleetOptions {
                    policy: RoutingPolicy::PlacementAware,
                    dedup: true,
                    contention: true,
                    ..default_fleet(0)
                },
                emit: Emit::Table,
            }
        );
        // Defaults: tracing, pre-warming and tenancy are off so output
        // stays byte-identical to builds that predate those subsystems.
        assert_eq!(
            parse(&argv("fleet")).unwrap(),
            Command::Fleet {
                fleet: default_fleet(0),
                emit: Emit::Table,
            }
        );
        // Unknown flag, policy and chaos preset are caught at parse time.
        assert_eq!(parse(&argv("fleet --bogus 3")).unwrap_err().code, 2);
        assert_eq!(parse(&argv("fleet --policy random")).unwrap_err().code, 3);
        assert_eq!(parse(&argv("fleet --hosts x")).unwrap_err().code, 2);
        assert_eq!(
            parse(&argv("fleet --chaos earthquake")).unwrap_err().code,
            2
        );
        assert_eq!(parse(&argv("fleet --trace-sample x")).unwrap_err().code, 2);
    }

    #[test]
    fn trace_fleet_parses_flags_and_rejects_bad_ones() {
        assert_eq!(
            parse(&argv(
                "trace --fleet --hosts 2 --chaos light --trace-sample 8 --out w.json",
            ))
            .unwrap(),
            Command::TraceFleet {
                fleet: FleetOptions {
                    hosts: 2,
                    chaos: chaos_preset("light").unwrap(),
                    chaos_name: "light".to_string(),
                    ..default_fleet(8)
                },
                out: Some("w.json".to_string()),
            }
        );
        assert_eq!(
            parse(&argv("trace --fleet")).unwrap(),
            Command::TraceFleet {
                fleet: default_fleet(100),
                out: None,
            }
        );
        assert_eq!(parse(&argv("trace --fleet --bogus 1")).unwrap_err().code, 2);
        assert_eq!(
            parse(&argv("trace --fleet --trace-sample 0"))
                .unwrap_err()
                .code,
            2
        );
    }

    #[test]
    fn trace_fleet_waterfall_attributes_the_critical_path() {
        let out = run_cli(&argv(
            "trace --fleet --hosts 2 --invocations 600 --chaos heavy --trace-sample 7",
        ))
        .unwrap();
        assert!(out.contains("fleet span waterfall"), "{out}");
        assert!(out.contains("slowest lanes:"), "{out}");
        assert!(out.contains("critical path by span kind"), "{out}");
        assert!(out.contains("execute"), "{out}");
    }

    #[test]
    fn trace_fleet_out_writes_a_chrome_span_trace() {
        let dir = std::env::temp_dir().join("lukewarm-cli-tracefleet");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("fleet.json");
        let out = run_cli(&argv(&format!(
            "trace --fleet --hosts 2 --invocations 400 --chaos light --trace-sample 5 --out {}",
            path.display()
        )))
        .unwrap();
        assert!(out.contains("wrote Chrome trace"));
        let doc = std::fs::read_to_string(&path).unwrap();
        let v = luke_obs::json::parse(&doc).unwrap();
        let events = v.get("traceEvents").unwrap().as_arr().unwrap();
        assert!(events.len() > 1, "only {} events", events.len());
        assert!(doc.contains("\"invocation\""));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn fleet_trace_sample_adds_span_and_timeline_free_of_default_output() {
        // Tracing off: the exact historic dataset count (asserted
        // elsewhere); tracing on: one extra fleet.spans per run. The
        // timeline rides the chaos preset, with or without sampling.
        let traced = run_cli(&argv(
            "fleet --hosts 2 --invocations 1000 --chaos heavy --trace-sample 11 --emit json",
        ))
        .unwrap();
        assert!(traced.contains("fleet.spans"), "{traced}");
        assert!(traced.contains("fleet.timeline"), "{traced}");
        let plain = run_cli(&argv(
            "fleet --hosts 2 --invocations 1000 --chaos heavy --emit json",
        ))
        .unwrap();
        assert!(!plain.contains("fleet.spans"));
        assert!(plain.contains("fleet.timeline"));
    }

    #[test]
    fn fleet_prewarm_adds_the_prewarm_dataset_free_of_default_output() {
        // Prediction on: the fleet.prewarm dataset appears for both the
        // base and jukebox runs. Off: the exact historic output.
        let warmed = run_cli(&argv(
            "fleet --hosts 2 --invocations 1000 --prewarm --emit json",
        ))
        .unwrap();
        assert!(warmed.contains("fleet.prewarm.base"), "{warmed}");
        assert!(warmed.contains("memory_instance_s"), "{warmed}");
        let plain = run_cli(&argv("fleet --hosts 2 --invocations 1000 --emit json")).unwrap();
        assert!(!plain.contains("fleet.prewarm"));
        assert!(!plain.contains("memory_instance_s"));
    }

    #[test]
    fn fleet_tenancy_flags_add_the_tenancy_dataset_free_of_default_output() {
        // Dedup on: the fleet.tenancy dataset appears for both the base
        // and jukebox runs, with live dedup counters. Off: the exact
        // historic output.
        let shared = run_cli(&argv(
            "fleet --hosts 2 --invocations 1000 --policy pa --dedup --contention --emit json",
        ))
        .unwrap();
        assert!(shared.contains("fleet.tenancy.base"), "{shared}");
        assert!(shared.contains("dedup_bytes_saved"), "{shared}");
        assert!(shared.contains("placement_routed"), "{shared}");
        let plain = run_cli(&argv("fleet --hosts 2 --invocations 1000 --emit json")).unwrap();
        assert!(!plain.contains("fleet.tenancy"));
        assert!(!plain.contains("dedup_bytes_saved"));
        assert!(!plain.contains("tenancy."));
    }

    #[test]
    fn bench_compare_parses_and_exits_one_on_regression() {
        assert_eq!(
            parse(&argv("bench-compare a.json b.json --threshold 0.1")).unwrap(),
            Command::BenchCompare {
                old: "a.json".to_string(),
                new: "b.json".to_string(),
                threshold: 0.1,
            }
        );
        assert_eq!(parse(&argv("bench-compare a.json")).unwrap_err().code, 2);
        assert_eq!(
            parse(&argv("bench-compare a b --threshold 2"))
                .unwrap_err()
                .code,
            2
        );

        let dir = std::env::temp_dir().join("lukewarm-cli-benchcmp");
        std::fs::create_dir_all(&dir).unwrap();
        let mut old = luke_bench::record::BenchRecord::new("demo");
        old.metric("invocations_per_s", 1000.0);
        let mut new = old.clone();
        std::fs::write(dir.join("old.json"), old.to_json()).unwrap();
        std::fs::write(dir.join("new.json"), new.to_json()).unwrap();
        let args = |n: &str| {
            argv(&format!(
                "bench-compare {} {}",
                dir.join("old.json").display(),
                dir.join(n).display()
            ))
        };
        // Identical records: success, no regression.
        let out = run_cli(&args("new.json")).unwrap();
        assert!(out.contains("no regressions"), "{out}");
        // A 60% drop beyond the 25% default threshold: exit code 1.
        new.metric("invocations_per_s", 400.0);
        std::fs::write(dir.join("slow.json"), new.to_json()).unwrap();
        let err = run_cli(&args("slow.json")).unwrap_err();
        assert_eq!(err.code, 1);
        assert!(err.message.contains("invocations_per_s"), "{}", err.message);
        // Unreadable and schema-invalid inputs are usage errors, not
        // regressions.
        assert_eq!(run_cli(&args("missing.json")).unwrap_err().code, 2);
        std::fs::write(dir.join("bad.json"), "{}").unwrap();
        assert_eq!(run_cli(&args("bad.json")).unwrap_err().code, 2);
    }

    #[test]
    fn fleet_output_is_identical_across_thread_counts() {
        let one = run_cli(&argv(
            "fleet --hosts 4 --threads 1 --invocations 2000 --emit json",
        ))
        .unwrap();
        let four = run_cli(&argv(
            "fleet --hosts 4 --threads 4 --invocations 2000 --emit json",
        ))
        .unwrap();
        assert_eq!(one, four);
        let v = luke_obs::json::parse(&one).unwrap();
        let datasets = v.get("datasets").unwrap().as_arr().unwrap();
        assert!(!datasets.is_empty());
        // base + jukebox summaries, per-host tables, and the speedup.
        assert_eq!(datasets.len(), 5);
    }

    #[test]
    fn fleet_chaos_output_is_identical_across_thread_counts() {
        let one = run_cli(&argv(
            "fleet --hosts 4 --threads 1 --invocations 4000 --chaos heavy --emit json",
        ))
        .unwrap();
        let four = run_cli(&argv(
            "fleet --hosts 4 --threads 4 --invocations 4000 --chaos heavy --emit json",
        ))
        .unwrap();
        assert_eq!(one, four);
        let v = luke_obs::json::parse(&one).unwrap();
        let datasets = v.get("datasets").unwrap().as_arr().unwrap();
        // The 5 baseline datasets plus one fleet.resilience and one
        // fleet.timeline per run (the chaos preset turns the windowed
        // series on).
        assert_eq!(datasets.len(), 9);
        assert!(one.contains("fleet.resilience"));
        assert!(one.contains("fleet.timeline"));
    }

    #[test]
    fn fleet_zero_hosts_is_a_config_error() {
        let err = run_cli(&argv("fleet --hosts 0")).unwrap_err();
        assert_eq!(err.code, 3);
        assert!(err.message.contains("fleet.hosts"));
    }

    /// Every usage error the option reader reports, by exact message and
    /// exit code. None of these lines runs a simulation.
    #[test]
    fn usage_errors_report_exact_messages() {
        const NEEDS: &str = "bench-compare needs exactly OLD.json and NEW.json";
        const RANGE: &str = "--threshold 1.5 must be in [0, 1)";
        const POLICY: &str = "invalid config: fleet.policy: unknown routing policy 'random' \
             (expected round-robin, least-loaded, keep-alive-aware, or placement-aware)";
        const CHAOS: &str = "unknown --chaos preset \"earthquake\"; try off, light or heavy";
        const SAMPLE: &str = "trace --fleet needs --trace-sample >= 1 (it exists to record spans)";
        let cases: &[(&str, i32, &str)] = &[
            // Unknown command.
            (
                "frobnicate",
                2,
                "unknown command \"frobnicate\"; try `lukewarm help`",
            ),
            // Missing NAME.
            ("run", 2, "missing argument"),
            ("compare", 2, "missing argument"),
            ("figure", 2, "missing argument"),
            ("workflow", 2, "missing argument"),
            ("trace", 2, "missing argument"),
            // Unknown option, per command.
            ("run Auth-G --bogus 1", 2, "unknown option --bogus"),
            ("run Auth-G --threads 2", 2, "unknown option --threads"),
            ("run resilience --threads 2", 2, "unknown option --threads"),
            ("compare Auth-G --bogus 1", 2, "unknown option --bogus"),
            (
                "compare Auth-G --prefetcher pif",
                2,
                "unknown option --prefetcher",
            ),
            ("figure fig10 --bogus 1", 2, "unknown option --bogus"),
            ("figure fig10 --all 1", 2, "unknown option --all"),
            ("figure --all --bogus 1", 2, "unknown option --bogus"),
            (
                "workflow hotel-reservation --bogus 1",
                2,
                "unknown option --bogus",
            ),
            ("trace Fib-G --bogus 1", 2, "unknown option --bogus"),
            ("trace --fleet --bogus 1", 2, "unknown option --bogus"),
            ("trace --fleet --scale 0.02", 2, "unknown option --scale"),
            // Only run, compare and trace read --platform, and `run
            // resilience` reads neither --prefetcher nor --state.
            (
                "figure fig10 --platform broadwell",
                2,
                "unknown option --platform",
            ),
            (
                "figure --all --platform broadwell",
                2,
                "unknown option --platform",
            ),
            (
                "workflow hotel-reservation --platform broadwell",
                2,
                "unknown option --platform",
            ),
            (
                "run resilience --platform broadwell",
                2,
                "unknown option --platform",
            ),
            (
                "run resilience --prefetcher pif",
                2,
                "unknown option --prefetcher",
            ),
            (
                "run resilience --state reference",
                2,
                "unknown option --state",
            ),
            ("fleet --bogus 3", 2, "unknown option --bogus"),
            ("fleet --scale 0.02", 2, "unknown option --scale"),
            // bench-compare reads every other word as a path.
            ("bench-compare a b --bogus", 2, NEEDS),
            // Missing value.
            ("run Auth-G --bogus", 2, "option --bogus needs a value"),
            ("run Auth-G --scale", 2, "option --scale needs a value"),
            ("run Auth-G --prewarm", 2, "option --prewarm needs a value"),
            ("run --scale 0.5", 2, "option 0.5 needs a value"),
            (
                "compare Auth-G --threads",
                2,
                "option --threads needs a value",
            ),
            (
                "figure fig10 --threads",
                2,
                "option --threads needs a value",
            ),
            ("figure fig10 --all", 2, "option --all needs a value"),
            ("figure --all --scale", 2, "option --scale needs a value"),
            (
                "workflow hotel-reservation --emit",
                2,
                "option --emit needs a value",
            ),
            ("trace Fib-G --out", 2, "option --out needs a value"),
            ("trace --fleet --hosts", 2, "option --hosts needs a value"),
            (
                "trace --fleet --prewarm",
                2,
                "option --prewarm needs a value",
            ),
            ("fleet --hosts", 2, "option --hosts needs a value"),
            ("fleet --bogus", 2, "option --bogus needs a value"),
            ("fleet --prewarm 1", 2, "option 1 needs a value"),
            (
                "bench-compare a b --threshold",
                2,
                "option --threshold needs a value",
            ),
            // Non-numeric value, for each numeric option.
            ("run Auth-G --scale zero", 2, "bad --scale \"zero\""),
            (
                "run Auth-G --invocations 1.5",
                2,
                "bad --invocations \"1.5\"",
            ),
            ("compare Auth-G --scale x", 2, "bad --scale \"x\""),
            ("figure fig10 --threads x", 2, "bad --threads \"x\""),
            ("figure --all --threads -1", 2, "bad --threads \"-1\""),
            ("figure fig10 --invocations x", 2, "bad --invocations \"x\""),
            (
                "workflow hotel-reservation --invocations x",
                2,
                "bad --invocations \"x\"",
            ),
            ("trace Fib-G --scale x", 2, "bad --scale \"x\""),
            ("trace --fleet --hosts x", 2, "bad --hosts \"x\""),
            (
                "trace --fleet --invocations x",
                2,
                "bad --invocations \"x\"",
            ),
            (
                "trace --fleet --trace-sample x",
                2,
                "bad --trace-sample \"x\"",
            ),
            ("fleet --hosts x", 2, "bad --hosts \"x\""),
            ("fleet --threads x", 2, "bad --threads \"x\""),
            ("fleet --invocations x", 2, "bad --invocations \"x\""),
            ("fleet --trace-sample x", 2, "bad --trace-sample \"x\""),
            (
                "bench-compare a b --threshold x",
                2,
                "bad --threshold \"x\"",
            ),
            // Named values.
            (
                "describe haswell",
                2,
                "unknown platform \"haswell\" (skylake | broadwell)",
            ),
            (
                "run Auth-G --platform haswell",
                2,
                "unknown platform \"haswell\" (skylake | broadwell)",
            ),
            (
                "run Auth-G --emit yaml",
                2,
                "unknown emit format \"yaml\" (table | json | csv)",
            ),
            (
                "fleet --emit yaml",
                2,
                "unknown emit format \"yaml\" (table | json | csv)",
            ),
            (
                "run Auth-G --prefetcher warp-drive",
                2,
                "unknown prefetcher \"warp-drive\"",
            ),
            (
                "run resilience --prefetcher bogus",
                2,
                "unknown option --prefetcher",
            ),
            (
                "run Auth-G --state tepid",
                2,
                "unknown state \"tepid\" (lukewarm | reference)",
            ),
            (
                "trace Fib-G --prefetcher nope",
                2,
                "unknown prefetcher \"nope\"",
            ),
            (
                "trace Fib-G --state nope",
                2,
                "unknown state \"nope\" (lukewarm | reference)",
            ),
            ("fleet --policy random", 3, POLICY),
            ("fleet --chaos earthquake", 2, CHAOS),
            ("trace --fleet --policy random", 3, POLICY),
            ("trace --fleet --chaos earthquake", 2, CHAOS),
            ("trace --fleet --trace-sample 0", 2, SAMPLE),
            // bench-compare's arguments.
            ("bench-compare", 2, NEEDS),
            ("bench-compare a.json", 2, NEEDS),
            ("bench-compare a b c", 2, NEEDS),
            ("bench-compare a b --threshold 1.5", 2, RANGE),
            ("bench-compare a --threshold 1.5", 2, RANGE),
            (
                "bench-compare a b --threshold -0.1",
                2,
                "--threshold -0.1 must be in [0, 1)",
            ),
            // Two errors on one line: a shared option's bad value comes
            // first, then the command's own options in line order, then
            // the named values in a fixed order.
            ("run Auth-G --bogus 1 --scale x", 2, "bad --scale \"x\""),
            (
                "run Auth-G --prefetcher x --scale y",
                2,
                "bad --scale \"y\"",
            ),
            (
                "run Auth-G --prefetcher x --bogus 1",
                2,
                "unknown option --bogus",
            ),
            (
                "run Auth-G --state x --prefetcher y",
                2,
                "unknown prefetcher \"y\"",
            ),
            ("figure fig10 --threads x --scale y", 2, "bad --scale \"y\""),
            ("fleet --chaos earthquake --hosts x", 2, "bad --hosts \"x\""),
            ("fleet --policy random --chaos earthquake", 3, POLICY),
            ("trace --fleet --trace-sample 0 --policy random", 2, SAMPLE),
        ];
        for &(line, code, message) in cases {
            let err = run_cli(&argv(line)).expect_err(line);
            assert_eq!((err.code, err.message.as_str()), (code, message), "{line}");
        }
    }

    #[test]
    fn fleet_hosts_beyond_any_table_are_a_config_error() {
        // Without --invocations the default of 1000 per host overflows;
        // with it, the host table cannot be allocated. Neither allocates.
        for line in [
            "fleet --hosts 18446744073709551615",
            "fleet --hosts 18446744073709551615 --invocations 5",
            "trace --fleet --hosts 18446744073709551615 --invocations 5",
        ] {
            let err = run_cli(&argv(line)).expect_err(line);
            assert_eq!(err.code, 3, "{line}");
            assert!(
                err.message.contains("fleet.hosts"),
                "{line}: {}",
                err.message
            );
        }
    }

    #[test]
    fn usage_errors_exit_with_code_two() {
        assert_eq!(run_cli(&argv("frobnicate")).unwrap_err().code, 2);
        assert_eq!(run_cli(&argv("run Auth-G --scale x2")).unwrap_err().code, 2);
    }

    #[test]
    fn out_of_range_params_are_config_errors() {
        let err = run_cli(&argv("run Auth-G --scale -1")).unwrap_err();
        assert_eq!(err.code, 3);
        assert!(err.message.contains("params.scale"));
        let err = run_cli(&argv("figure fig10 --invocations 0")).unwrap_err();
        assert_eq!(err.code, 3);
        assert!(err.message.contains("params.invocations"));
    }

    #[test]
    fn sim_errors_carry_their_exit_codes() {
        let invalid: CliError =
            luke_common::SimError::invalid_config("l2.cache.ways", "zero").into();
        assert_eq!(invalid.code, 3);
        assert!(invalid.message.contains("l2.cache.ways"));
        let corrupt: CliError = luke_common::SimError::corrupt_metadata("tag mismatch").into();
        assert_eq!(corrupt.code, 4);
        // One-line messages: nothing multi-line reaches stderr.
        assert!(!invalid.message.contains('\n'));
        assert!(!corrupt.message.contains('\n'));
    }

    #[test]
    fn emit_option_parses_and_rejects_bad_values() {
        let cmd = parse(&argv("figure fig10 --emit json")).unwrap();
        match cmd {
            Command::Figure { options, .. } => assert_eq!(options.emit, Emit::Json),
            other => panic!("parsed {other:?}"),
        }
        assert!(parse(&argv("figure fig10 --emit yaml")).is_err());
        // --emit is a recognized common option on every subcommand.
        assert!(parse(&argv("compare Auth-G --emit csv")).is_ok());
        assert!(parse(&argv("workflow hotel-reservation --emit csv")).is_ok());
        assert!(parse(&argv("run Auth-G --emit json")).is_ok());
    }

    #[test]
    fn run_emit_json_is_a_parseable_registry_snapshot() {
        let out = run_cli(&argv("run Fib-G --scale 0.02 --invocations 1 --emit json")).unwrap();
        let v = luke_obs::json::parse(&out).unwrap();
        let counters = v.get("counters").unwrap();
        assert!(counters.get("run.invocations").unwrap().as_f64() >= Some(1.0));
        assert!(counters.get("mem.l2.instr.misses").is_some());
        assert!(v.get("gauges").unwrap().get("run.cpi").is_some());
        assert!(v
            .get("histograms")
            .unwrap()
            .get("invocation.cycles")
            .is_some());
    }

    #[test]
    fn run_emit_csv_has_registry_header() {
        let out = run_cli(&argv("run Fib-G --scale 0.02 --invocations 1 --emit csv")).unwrap();
        assert!(out.starts_with("kind,name,field,value\n"));
        assert!(out.contains("counter,run.invocations,value,"));
    }

    #[test]
    fn compare_emit_json_covers_the_table_columns() {
        let out = run_cli(&argv(
            "compare Fib-G --scale 0.02 --invocations 1 --emit json",
        ))
        .unwrap();
        let v = luke_obs::json::parse(&out).unwrap();
        let datasets = v.get("datasets").unwrap().as_arr().unwrap();
        let cols = datasets[0].get("columns").unwrap().as_arr().unwrap();
        for needed in ["configuration", "CPI", "vs reference"] {
            assert!(
                cols.iter().any(|c| c.as_str() == Some(needed)),
                "missing column {needed}"
            );
        }
        assert_eq!(datasets[0].get("rows").unwrap().as_arr().unwrap().len(), 4);
    }

    #[test]
    fn figure_table1_emit_formats() {
        let json = run_cli(&argv("figure table1 --emit json")).unwrap();
        let v = luke_obs::json::parse(&json).unwrap();
        assert!(v.get("datasets").is_some());
        assert!(json.contains("skylake") && json.contains("broadwell"));
        let csv = run_cli(&argv("figure table1 --emit csv")).unwrap();
        assert!(csv.starts_with("# table1.platforms\n"));
    }

    #[test]
    fn trace_parses_with_out_file() {
        let cmd = parse(&argv("trace Fib-G --scale 0.05 --out timeline.json")).unwrap();
        match cmd {
            Command::Trace { function, out, .. } => {
                assert_eq!(function, "Fib-G");
                assert_eq!(out.as_deref(), Some("timeline.json"));
            }
            other => panic!("parsed {other:?}"),
        }
        assert!(parse(&argv("trace Fib-G --bogus 1")).is_err());
    }

    #[test]
    fn trace_emits_chrome_trace_json() {
        let out = run_cli(&argv("trace Fib-G --scale 0.02 --invocations 1")).unwrap();
        let v = luke_obs::json::parse(&out).unwrap();
        let events = v.get("traceEvents").unwrap().as_arr().unwrap();
        // Metadata event plus at least dispatch/retire of one invocation.
        assert!(events.len() >= 3, "only {} events", events.len());
        assert!(out.contains("\"dispatch\""));
        assert!(out.contains("\"retire\""));
    }

    #[test]
    fn run_resilience_executes_at_tiny_scale() {
        let out = run_cli(&argv("run resilience --scale 0.02 --invocations 1")).unwrap();
        assert!(out.contains("SLO"));
        assert!(out.contains("lukewarm+JB"));
    }

    #[test]
    fn figure_table1_executes_instantly() {
        let out = run_cli(&argv("figure table1")).unwrap();
        assert!(out.contains("skylake") && out.contains("broadwell"));
    }

    #[test]
    fn workflow_executes_at_tiny_scale() {
        let out = run_cli(&argv(
            "workflow hotel-reservation --scale 0.02 --invocations 1",
        ))
        .unwrap();
        assert!(out.contains("END-TO-END"));
        let err = run_cli(&argv("workflow nope")).unwrap_err();
        assert!(err.message.contains("online-boutique"));
    }
}
