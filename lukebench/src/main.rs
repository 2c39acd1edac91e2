//! `lukebench`: the repository benchmark. One command runs a workload
//! (or all four, each in its own process), prints every metric by name
//! with its unit, and checks every operation's simulated output.
//!
//! ```text
//! lukebench --workload <cycle-paper|figures|fleet-steady|fleet-cluster|all>
//!           [--seed N] [--seconds S] [--trace 0|1] [--size full|tiny]
//!           [--expect-golden] [--write-golden]
//! ```
//!
//! The last stdout line of a single-workload run is one JSON object:
//! `{"correct":..,"attempted":..,"failed":..,"metrics":{name:{value,unit}}}`
//! holding the end-to-end metrics (`--trace 0`) or the per-layer metrics
//! (`--trace 1`). See README.md for what each workload and metric is for.

mod check;
mod cycle;
mod figures;
mod fleet;
mod measure;

use std::collections::BTreeMap;
use std::process::{Command, ExitCode, Stdio};
use std::time::Instant;

use check::Checks;
use measure::Spans;

#[global_allocator]
static ALLOC: measure::CountingAlloc = measure::CountingAlloc;

/// Metric values by name.
pub type Metrics = BTreeMap<String, f64>;

/// What one workload run is asked to do.
pub struct Opts {
    /// Workload seed: inputs are a pure function of it.
    pub seed: u64,
    /// How long the timed batches repeat, seconds.
    pub seconds: f64,
    /// Per-layer (traced) run instead of the end-to-end one.
    pub trace: bool,
    /// Smoke-test size: every workload shrunk to run in about a second.
    pub tiny: bool,
    /// Busy threads the workload may use (`available_parallelism`).
    pub threads: usize,
}

const WORKLOADS: [&str; 4] = ["cycle-paper", "figures", "fleet-steady", "fleet-cluster"];

/// End-to-end metrics, every workload: `(name, unit)`.
const END_TO_END: [(&str, &str); 4] = [
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("batch_cal", "cal"),
    ("work_per_cal", "1/cal"),
];

/// Per-layer metrics of the traced run: `(name, unit)`, followed by one
/// `experiment.<name>_s` per registered experiment. A layer a workload
/// does not exercise reads 0.
const PER_LAYER: [(&str, &str); 50] = [
    ("trace_overhead_frac", "frac"),
    ("workloads.build_ms", "ms"),
    ("workloads.trace_ns_per_instr", "ns"),
    ("sim.new_ms", "ms"),
    ("sim.flush_us", "us"),
    ("cpu_mem.ns_per_instr.reference", "ns"),
    ("cpu_mem.ns_per_instr.lukewarm", "ns"),
    ("cpu_mem.ns_per_instr.jukebox", "ns"),
    ("cpu.cpi.reference", "cycles/instr"),
    ("cpu.cpi.lukewarm", "cycles/instr"),
    ("cpu.cpi.jukebox", "cycles/instr"),
    ("cpu.fetch_latency_frac", "frac"),
    ("mem.l2_instr_mpki", "1/kinstr"),
    ("mem.llc_instr_mpki", "1/kinstr"),
    ("mem.dram_bytes_per_instr", "B/instr"),
    ("jukebox.replay_us", "us"),
    ("jukebox.record_ns_per_fetch", "ns"),
    ("jukebox.seal_us", "us"),
    ("jukebox.accuracy", "frac"),
    ("jukebox.coverage", "frac"),
    ("jukebox.metadata_bytes_per_inv", "B"),
    ("prefetchers.on_fetch_ns.pif", "ns"),
    ("prefetchers.on_fetch_ns.fetch-directed", "ns"),
    ("engine.cells_simulated", "count"),
    ("engine.cache_hits", "count"),
    ("engine.hit_ratio", "frac"),
    ("engine.cell_ms_p50", "ms"),
    ("engine.cell_ms_p95", "ms"),
    ("engine.prefetch_s", "s"),
    ("engine.fold_s", "s"),
    ("fleet.generate_ns_per_inv", "ns"),
    ("fleet.route_ns_per_inv", "ns"),
    ("fleet.process_ns_per_inv", "ns"),
    ("fleet.construct_ms", "ms"),
    ("fleet.merge_ms", "ms"),
    ("obs.export_ms", "ms"),
    ("snapshot.process_ns_delta", "ns"),
    ("predict.process_ns_delta", "ns"),
    ("tenancy.process_ns_delta", "ns"),
    ("chaos.process_ns_delta", "ns"),
    ("predict.rss_mb_delta", "MB"),
    ("fleet.cold_frac", "frac"),
    ("fleet.lukewarm_frac", "frac"),
    ("fleet.retry_amplification", "x"),
    ("admission.shed_frac", "frac"),
    ("fleet.failovers", "count"),
    ("fleet.hedges", "count"),
    ("snapshot.degraded_restores", "count"),
    ("tenancy.dedup_hit_ratio", "frac"),
    ("predict.prewarm_hit_ratio", "frac"),
];

/// Per-layer metrics after the fixed list: pre-warm's base count and the
/// per-experiment times.
fn per_layer() -> Vec<(String, &'static str)> {
    let mut list: Vec<(String, &'static str)> =
        PER_LAYER.iter().map(|&(n, u)| (n.to_string(), u)).collect();
    list.push(("predict.prewarm_spawns".into(), "count"));
    for e in lukewarm_sim::engine::registry() {
        list.push((format!("experiment.{}_s", e.name()), "s"));
    }
    list
}

/// Parsed command line.
struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    tiny: bool,
    expect_golden: bool,
    write_golden: bool,
}

fn parse(args: &[String]) -> Result<Args, String> {
    let mut parsed = Args {
        workload: String::new(),
        seed: 0,
        seconds: 10.0,
        trace: false,
        tiny: false,
        expect_golden: false,
        write_golden: false,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => parsed.workload = value()?.clone(),
            "--seed" => parsed.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                parsed.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(parsed.seconds > 0.0 && parsed.seconds.is_finite()) {
                    return Err("--seconds must be positive".into());
                }
            }
            "--trace" => {
                parsed.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, got {other:?}")),
                }
            }
            "--size" => {
                parsed.tiny = match value()?.as_str() {
                    "full" => false,
                    "tiny" => true,
                    other => return Err(format!("--size takes full or tiny, got {other:?}")),
                }
            }
            "--expect-golden" => parsed.expect_golden = true,
            "--write-golden" => parsed.write_golden = true,
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    if parsed.workload != "all" && !WORKLOADS.contains(&parsed.workload.as_str()) {
        return Err(format!(
            "--workload must be one of {} or all, got {:?}",
            WORKLOADS.join(", "),
            parsed.workload
        ));
    }
    if parsed.write_golden && (parsed.seed != 0 || parsed.tiny || parsed.trace) {
        return Err("--write-golden records the default seed (0) at full size, untraced".into());
    }
    Ok(parsed)
}

/// Runs `cmd` and returns its first stdout line, or "unknown".
fn probe(cmd: &str, args: &[&str]) -> String {
    Command::new(cmd)
        .args(args)
        .current_dir(env!("CARGO_MANIFEST_DIR"))
        .stderr(Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .and_then(|s| s.lines().next().map(str::to_string))
        .unwrap_or_else(|| "unknown".to_string())
}

/// Where a result came from, so records from different machines or
/// builds are never compared unknowingly.
fn provenance(args: &Args, threads: usize) -> String {
    format!(
        "{{\"workload\":{:?},\"seed\":{},\"size\":{:?},\"available_parallelism\":{threads},\
         \"profile\":{:?},\"git_revision\":{:?},\"rustc\":{:?}}}",
        args.workload,
        args.seed,
        if args.tiny { "tiny" } else { "full" },
        if cfg!(debug_assertions) {
            "debug"
        } else {
            "release"
        },
        probe("git", &["rev-parse", "HEAD"]),
        probe("rustc", &["-V"]),
    )
}

fn result_line(checks: &Checks, metrics: &Metrics, declared: &[(String, &str)]) -> String {
    let mut correct = checks.failed == 0;
    let mut fields = Vec::new();
    for (name, unit) in declared {
        let value = match metrics.get(name) {
            Some(v) if v.is_finite() => *v,
            Some(_) => {
                correct = false;
                eprintln!("lukebench: metric {name} is not finite");
                0.0
            }
            None => 0.0,
        };
        fields.push(format!("{name:?}:{{\"value\":{value},\"unit\":{unit:?}}}"));
    }
    format!(
        "{{\"correct\":{correct},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
        checks.attempted.max(1),
        checks.failed,
        fields.join(",")
    )
}

fn run_one(args: &Args) -> Result<(), String> {
    let threads = std::thread::available_parallelism().map_or(1, |n| n.get());
    let opts = Opts {
        seed: args.seed,
        seconds: args.seconds,
        trace: args.trace,
        tiny: args.tiny,
        threads,
    };
    // Goldens are recorded at the default seed and full size. `figures`
    // takes the seed only as its run order, so its goldens hold on every
    // seed; `--expect-golden` compares any seed (a deliberately wrong
    // golden, to prove the gate counts mismatches).
    let compare = !args.tiny
        && !args.write_golden
        && (args.expect_golden || args.seed == 0 || args.workload == "figures");
    let mut checks = Checks::new(&args.workload, compare);
    let mut spans = Spans::new();
    let started = Instant::now();
    let mut metrics = match args.workload.as_str() {
        "cycle-paper" => cycle::run(&opts, &mut checks, &mut spans),
        "figures" => figures::run(&opts, &mut checks, &mut spans),
        "fleet-steady" => fleet::run(fleet::Shape::Steady, &opts, &mut checks, &mut spans),
        _ => fleet::run(fleet::Shape::Cluster, &opts, &mut checks, &mut spans),
    };
    let wall = measure::secs(started);
    let provenance = provenance(args, threads);
    println!("provenance {provenance}");
    eprintln!(
        "lukebench: {}: {} operations, {} failed (failed_frac {}), {wall:.1}s",
        args.workload,
        checks.attempted,
        checks.failed,
        measure::ratio(checks.failed as f64, checks.attempted as f64)
    );
    if args.write_golden {
        checks
            .write_golden()
            .map_err(|e| format!("cannot write {}: {e}", check::golden_path().display()))?;
    }

    let declared: Vec<(String, &str)> = if args.trace {
        let out = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
        let path = out.join(format!("trace-{}-seed{}.json", args.workload, args.seed));
        std::fs::create_dir_all(&out)
            .and_then(|()| std::fs::write(&path, spans.to_chrome_json(&provenance)))
            .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
        eprintln!("lukebench: spans written to {}", path.display());
        per_layer()
    } else {
        metrics.insert("peak_rss_mb".into(), measure::peak_rss_mb());
        let missing: Vec<&str> = END_TO_END
            .iter()
            .map(|&(n, _)| n)
            .filter(|n| !metrics.contains_key(*n))
            .collect();
        if !missing.is_empty() {
            checks.op(false, || format!("no value for {}", missing.join(", ")));
        }
        END_TO_END
            .iter()
            .map(|&(n, u)| (n.to_string(), u))
            .collect()
    };
    let line = result_line(&checks, &metrics, &declared);
    println!("{line}");
    Ok(())
}

/// Runs every workload in its own sequential process, so peak memory and
/// set-up time belong to the workload that caused them.
fn run_all(raw: &[String]) -> Result<bool, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut all_ok = true;
    for workload in WORKLOADS {
        let mut child_args: Vec<String> = Vec::new();
        let mut it = raw.iter();
        while let Some(a) = it.next() {
            if a == "--workload" {
                it.next();
            } else {
                child_args.push(a.clone());
            }
        }
        child_args.extend(["--workload".to_string(), workload.to_string()]);
        let out = Command::new(&exe)
            .args(&child_args)
            .stderr(Stdio::inherit())
            .output()
            .map_err(|e| format!("cannot run {workload}: {e}"))?;
        let stdout = String::from_utf8_lossy(&out.stdout);
        for line in stdout.lines() {
            println!("{workload}: {line}");
        }
        all_ok &= out.status.success();
    }
    Ok(all_ok)
}

fn main() -> ExitCode {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse(&raw) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("lukebench: {e}");
            return ExitCode::from(2);
        }
    };
    let outcome = if args.workload == "all" {
        run_all(&raw)
    } else {
        run_one(&args).map(|()| true)
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("lukebench: {e}");
            ExitCode::FAILURE
        }
    }
}
