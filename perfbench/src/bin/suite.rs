//! `suite`: the benchmark's command line.
//!
//! ```text
//! suite --workload <name> --seed <u64> --seconds <n> --trace <0|1>
//! suite --all [--repeat <n>] [--seed <u64>] [--seconds <n>] [--trace <0|1>]
//! ```
//!
//! One workload per process, so that `peak_rss_mb` is per workload; `--all`
//! re-executes this binary once per workload. The last line of standard
//! output is the result object; the lines before it are for people.

use estocada_perfbench::drive::{reference_signature, signature, Deployment, SetupTimes};
use estocada_perfbench::host::Ballast;
use estocada_perfbench::json::Json;
use estocada_perfbench::ops::Workload;
use estocada_perfbench::run::{check_cache_regime, hit_ratio, run_window, summarize};
use estocada_perfbench::stats::median;
use estocada_perfbench::trace::run_traced;
use estocada_perfbench::{end_to_end_metrics, per_layer_metrics, MetricDef, SETUPS};
use std::process::{Command, ExitCode};
use std::time::Duration;

#[derive(Debug, Clone)]
struct Args {
    workload: Option<Workload>,
    all: bool,
    repeat: usize,
    seed: u64,
    seconds: u64,
    trace: bool,
}

const USAGE: &str = "usage: suite (--workload <kv_lookup_hot|lookup_cold|analytics|readwrite> | \
                     --all [--repeat <n>]) [--seed <u64>] [--seconds <1..=60>] [--trace <0|1>]";

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        all: false,
        repeat: 1,
        seed: 1,
        seconds: 20,
        trace: false,
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .ok_or_else(|| format!("{flag} needs a value\n{USAGE}"))
        };
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                args.workload = Some(
                    Workload::parse(name)
                        .ok_or_else(|| format!("unknown workload {name}\n{USAGE}"))?,
                );
            }
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
            }
            "--repeat" => args.repeat = value()?.parse().map_err(|e| format!("--repeat: {e}"))?,
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, got {other}")),
                }
            }
            "--traced" => args.trace = true,
            "--all" => args.all = true,
            other => return Err(format!("unknown argument {other}\n{USAGE}")),
        }
    }
    if args.all == args.workload.is_some() {
        return Err(format!("give exactly one of --workload and --all\n{USAGE}"));
    }
    if !(1..=60).contains(&args.seconds) || args.repeat == 0 {
        return Err(format!(
            "--seconds is 1..=60 and --repeat at least 1\n{USAGE}"
        ));
    }
    Ok(args)
}

/// `VmHWM` of this process in MiB.
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}

/// The result line: exactly `correct`, `attempted`, `failed`, `metrics`.
fn result_line(
    defs: &[MetricDef],
    values: &[(String, f64)],
    attempted: usize,
    failed: usize,
) -> Json {
    let metrics = defs.iter().map(|def| {
        let value = values
            .iter()
            .find(|(name, _)| *name == def.name)
            .map(|(_, v)| *v)
            .unwrap_or_else(|| panic!("metric {} was not measured", def.name));
        (
            def.name.clone(),
            Json::obj([("value", Json::Num(value)), ("unit", Json::str(def.unit))]),
        )
    });
    Json::obj([
        ("correct", Json::Bool(failed == 0)),
        ("attempted", Json::Num(attempted as f64)),
        ("failed", Json::Num(failed as f64)),
        ("metrics", Json::obj(metrics)),
    ])
}

fn print_metrics(defs: &[MetricDef], values: &[(String, f64)]) {
    for def in defs {
        if let Some((_, v)) = values.iter().find(|(name, _)| *name == def.name) {
            println!("{:<44} {v:>16.6} {}", def.name, def.unit);
        }
    }
}

fn setup_json(t: &SetupTimes) -> Json {
    Json::obj([
        ("total_s", Json::Num(t.total_s())),
        ("generate_s", Json::Num(t.generate_s)),
        ("register_s", Json::Num(t.register_s)),
        (
            "add_fragment_s",
            Json::obj(
                t.add_fragment_s
                    .iter()
                    .map(|(id, s)| (id.clone(), Json::Num(*s))),
            ),
        ),
        ("analyze_s", Json::Num(t.analyze_s)),
        ("warm_s", Json::Num(t.warm_s)),
        (
            "first_write_s",
            t.first_write_s.map_or(Json::Null, Json::Num),
        ),
    ])
}

/// The suite deploys through the public DDL itself (to time each call);
/// this pins its deployment to the scenario helper's. Checked in the traced
/// run only: building the reference costs a second deployment.
fn check_deployment(d: &Deployment, seed: u64) -> Result<(), String> {
    let (ours, reference) = (signature(&d.est), reference_signature(seed));
    if ours == reference {
        Ok(())
    } else {
        Err(format!(
            "the suite's deployment {ours:?} differs from deploy_materialized_join's {reference:?}"
        ))
    }
}

fn run_untraced(workload: Workload, args: &Args) -> Result<Json, String> {
    // Set up several times and report the median; the window runs on the
    // last deployment, the only one cross-checked against the oracle.
    let mut setups: Vec<SetupTimes> = Vec::new();
    let mut deployment = None;
    for i in 0..SETUPS {
        drop(deployment.take());
        let d = Deployment::set_up(workload, args.seed, i + 1 == SETUPS);
        setups.push(d.times.clone());
        deployment = Some(d);
    }
    let mut d = deployment.expect("SETUPS is at least 1");
    let setup_s = median(&setups.iter().map(SetupTimes::total_s).collect::<Vec<_>>());

    let window = run_window(&mut d, workload, Duration::from_secs(args.seconds));
    let (before, after) = &window.plan_cache;
    check_cache_regime(workload, before, after)?;
    let s = summarize(&window)?;

    let values = vec![
        ("setup_s".to_string(), setup_s),
        ("throughput_ops_s".to_string(), s.corrected.throughput_ops_s),
        ("read_p50_ms".to_string(), s.corrected.read_p50_ms),
        ("read_p95_ms".to_string(), s.corrected.read_p95_ms),
        ("peak_rss_mb".to_string(), peak_rss_mb()),
    ];
    let defs = end_to_end_metrics();
    print_metrics(&defs, &values);
    if let Some(w) = s.write_mean_ms {
        println!("{:<44} {w:>16.6} ms", "write_mean_ms");
    }
    let detail = Json::obj([
        ("workload", Json::str(workload.name())),
        ("seed", Json::Num(args.seed as f64)),
        ("nproc", Json::Num(nproc() as f64)),
        ("sessions", Json::Num(1.0)),
        ("window_s", Json::Num(args.seconds as f64)),
        (
            "failed_ops_share",
            Json::Num(s.failed as f64 / s.attempted.max(1) as f64),
        ),
        (
            "write_mean_ms",
            s.write_mean_ms.map_or(Json::Null, Json::Num),
        ),
        (
            "read_p95_has_ten_samples_beyond",
            Json::Bool(s.corrected.read_p95_supported),
        ),
        ("host_factor", Json::Num(s.host_factor)),
        (
            "uncorrected",
            Json::obj([
                ("throughput_ops_s", Json::Num(s.raw.throughput_ops_s)),
                ("read_p50_ms", Json::Num(s.raw.read_p50_ms)),
                ("read_p95_ms", Json::Num(s.raw.read_p95_ms)),
            ]),
        ),
        ("plan_cache_hit_ratio", Json::Num(hit_ratio(before, after))),
        ("plan_cache_entries", Json::Num(after.entries as f64)),
        (
            "slice_throughput_ops_s",
            Json::nums(&s.corrected.slice_throughput_ops_s),
        ),
        (
            "slice_read_p50_ms",
            Json::nums(&s.corrected.slice_read_p50_ms),
        ),
        (
            "slice_read_p95_ms",
            Json::nums(&s.corrected.slice_read_p95_ms),
        ),
        (
            "classes",
            Json::obj(s.classes.iter().map(|c| {
                (
                    c.name,
                    Json::obj([
                        ("ops", Json::Num(c.count as f64)),
                        ("median_ms", Json::Num(c.median_ms)),
                    ]),
                )
            })),
        ),
        ("setups", Json::Arr(setups.iter().map(setup_json).collect())),
    ]);
    println!("DETAIL {detail}");
    Ok(result_line(&defs, &values, s.attempted, s.failed))
}

fn run_with_trace(workload: Workload, args: &Args) -> Result<Json, String> {
    let d = Deployment::set_up(workload, args.seed, true);
    check_deployment(&d, args.seed)?;
    let traced = run_traced(d, Duration::from_secs(args.seconds));
    let defs = per_layer_metrics();
    print_metrics(&defs, &traced.metrics);
    println!(
        "replayed layer spans cover {:.1} % of the real calls' wall time",
        traced.replay_coverage * 100.0
    );

    // <target dir>/bench-trace/<workload>.json, next to the build.
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let dir = exe
        .parent()
        .and_then(|profile| profile.parent())
        .ok_or("the executable has no target directory")?
        .join("bench-trace");
    std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let path = dir.join(format!("{}.json", workload.name()));
    let file = Json::obj([
        ("workload", Json::str(workload.name())),
        ("seed", Json::Num(args.seed as f64)),
        (
            "columns",
            Json::Arr(
                ["op", "span", "parent", "name", "start_ns", "end_ns"]
                    .map(Json::str)
                    .to_vec(),
            ),
        ),
        ("spans", traced.spans.to_json()),
    ]);
    std::fs::write(&path, file.to_string()).map_err(|e| format!("{}: {e}", path.display()))?;
    println!(
        "{} spans written to {}",
        traced.spans.spans().len(),
        path.display()
    );
    Ok(result_line(
        &defs,
        &traced.metrics,
        traced.attempted,
        traced.failed,
    ))
}

/// Run every workload in a process of its own, `repeat` times; with two or
/// more sets, fail when an end-to-end metric of a later set differs from
/// the first set's by more than its bound.
fn run_all(args: &Args) -> Result<(), String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut sets: Vec<Vec<(Workload, Json)>> = Vec::new();
    for set in 0..args.repeat {
        let mut results = Vec::new();
        for workload in Workload::ALL {
            println!("== set {} · {} ==", set + 1, workload.name());
            let out = Command::new(&exe)
                .args(["--workload", workload.name()])
                .args(["--seed", &args.seed.to_string()])
                .args(["--seconds", &args.seconds.to_string()])
                .args(["--trace", if args.trace { "1" } else { "0" }])
                .output()
                .map_err(|e| format!("cannot re-execute {}: {e}", exe.display()))?;
            let stdout = String::from_utf8_lossy(&out.stdout);
            print!("{stdout}");
            if !out.status.success() {
                return Err(format!(
                    "{} failed: {}",
                    workload.name(),
                    String::from_utf8_lossy(&out.stderr)
                ));
            }
            let last = stdout.lines().last().ok_or("no result line")?;
            let result = Json::parse(last)?;
            if result.get("correct") != Some(&Json::Bool(true)) {
                return Err(format!("{} reported failed operations", workload.name()));
            }
            results.push((workload, result));
        }
        sets.push(results);
    }
    if args.trace {
        return Ok(());
    }
    let value = |result: &Json, name: &str| {
        result
            .get("metrics")
            .and_then(|m| m.get(name))
            .and_then(|m| m.get("value"))
            .and_then(Json::as_f64)
            .ok_or_else(|| format!("no {name} in a result line"))
    };
    let mut offenders = Vec::new();
    for later in &sets[1..] {
        for ((workload, first), (_, again)) in sets[0].iter().zip(later) {
            for def in end_to_end_metrics() {
                let (a, b) = (value(first, &def.name)?, value(again, &def.name)?);
                let bound = def.bound.expect("end-to-end metrics have bounds");
                let diff = (b - a).abs() / a;
                if diff > bound {
                    offenders.push(format!(
                        "{}/{}: {a} vs {b} differ by {:.1} % (bound {:.0} %)",
                        workload.name(),
                        def.name,
                        diff * 100.0,
                        bound * 100.0
                    ));
                }
            }
        }
    }
    if offenders.is_empty() {
        if sets.len() > 1 {
            println!("all {} sets agree within the bounds", sets.len());
        }
        Ok(())
    } else {
        Err(format!("sets disagree:\n{}", offenders.join("\n")))
    }
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let outcome = parse_args(&argv).and_then(|args| match args.workload {
        None => run_all(&args),
        Some(workload) => {
            // One session thread; the other hardware threads spin.
            let _ballast = Ballast::start(nproc().saturating_sub(1));
            let result = if args.trace {
                run_with_trace(workload, &args)
            } else {
                run_untraced(workload, &args)
            }?;
            println!("{result}");
            Ok(())
        }
    });
    match outcome {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("suite: {e}");
            ExitCode::FAILURE
        }
    }
}
