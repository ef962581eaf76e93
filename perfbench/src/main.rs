//! `ctb-perfbench` — the repository's benchmark.
//!
//! ```text
//! ctb-perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ctb-perfbench --smoke          # every workload, briefly, both modes
//! ctb-perfbench --selftest       # stream determinism and name checks
//! ctb-perfbench --list-metrics   # the metric catalogue, one per line
//! ```
//!
//! A run prints every metric it measured as `name = value unit`, then,
//! as its last line, one JSON object with `correct`, `attempted`,
//! `failed` and `metrics`: the end-to-end metrics of an untraced run
//! (`--trace 0`) or the per-layer metrics of a traced one (`--trace 1`).
//! The traced run records spans around the benchmark's calls into each
//! layer and writes them at exit under `$CARGO_TARGET_DIR/perfbench-traces`.

mod cluster;
mod layers;
mod mixes;
mod report;
mod serve;
mod stats;
mod trace;

use report::{per_layer, result_line, valid_name, Outcome, END_TO_END};
use std::path::PathBuf;
use std::process::ExitCode;
use trace::Tracer;

const WORKLOADS: &[&str] = &[
    "serve_hot",
    "serve_churn",
    "cluster_scale",
    "cluster_chiplet",
];

fn run_workload(name: &str, seed: u64, seconds: f64, tracer: &Tracer) -> Outcome {
    match name {
        "serve_hot" => serve::run(serve::Kind::Hot, seed, seconds, tracer),
        "serve_churn" => serve::run(serve::Kind::Churn, seed, seconds, tracer),
        "cluster_scale" => cluster::run(cluster::Kind::Scale, seed, seconds, tracer),
        "cluster_chiplet" => cluster::run(cluster::Kind::Chiplet, seed, seconds, tracer),
        other => unreachable!("unknown workload {other}"),
    }
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn usage(msg: &str) -> ExitCode {
    eprintln!("error: {msg}");
    eprintln!(
        "usage: ctb-perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>\n\
         \x20      ctb-perfbench --smoke | --selftest | --list-metrics",
        WORKLOADS.join("|")
    );
    ExitCode::from(2)
}

fn parse(argv: &[String]) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 120.0) {
                    return Err("--seconds must be in (0, 120]".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                })
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload}"));
    }
    Ok(Args {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

fn trace_path(workload: &str, seed: u64) -> PathBuf {
    let dir =
        std::env::var_os("CARGO_TARGET_DIR").map_or(PathBuf::from(".bench_build"), PathBuf::from);
    dir.join("perfbench-traces")
        .join(format!("{workload}-seed{seed}.jsonl"))
}

fn measure(args: &Args) -> ExitCode {
    let tracer = Tracer::new(args.trace);
    println!(
        "workload {} seed {} seconds {} trace {} (available parallelism {})",
        args.workload,
        args.seed,
        args.seconds,
        args.trace as u8,
        std::thread::available_parallelism().map_or(1, |n| n.get())
    );
    let out = run_workload(&args.workload, args.seed, args.seconds, &tracer);
    out.metrics.print_all();
    println!("  attempted = {}, failed = {}", out.attempted, out.failed);
    if args.trace {
        let path = trace_path(&args.workload, args.seed);
        if let Err(e) = tracer.write_jsonl(&path) {
            eprintln!("error: writing {}: {e}", path.display());
            return ExitCode::from(1);
        }
        for (name, us) in tracer.self_time_us() {
            println!("  self time {name} = {us} us");
        }
        println!("  spans written to {}", path.display());
    }
    println!("{}", result_line(&out, args.trace));
    if out.failed == 0 {
        ExitCode::SUCCESS
    } else {
        eprintln!(
            "error: {} of {} requests failed or were wrong",
            out.failed, out.attempted
        );
        ExitCode::from(1)
    }
}

/// Every workload, briefly, untraced then traced.
fn smoke() -> ExitCode {
    stats::set_smoke(true);
    let mut ok = true;
    for w in WORKLOADS {
        for trace in [false, true] {
            let tracer = Tracer::new(trace);
            let t0 = std::time::Instant::now();
            let out = run_workload(w, 1, 1.0, &tracer);
            let line = result_line(&out, trace);
            println!(
                "smoke {w} trace {}: {:.1}s {line}",
                trace as u8,
                t0.elapsed().as_secs_f64()
            );
            ok &= out.failed == 0;
        }
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

fn selftest() -> ExitCode {
    let mut names: Vec<String> = per_layer().into_iter().map(|(n, _)| n).collect();
    names.extend(END_TO_END.iter().map(|(n, _)| n.to_string()));
    let bad: Vec<&String> = names.iter().filter(|n| !valid_name(n)).collect();
    let mut ok = bad.is_empty();
    println!("metric names match [A-Za-z0-9_.-]+: {}", bad.is_empty());
    for kind in [serve::Kind::Hot, serve::Kind::Churn] {
        let same = serve::stream_digest(kind, 7) == serve::stream_digest(kind, 7);
        let differs = serve::stream_digest(kind, 7) != serve::stream_digest(kind, 8);
        println!("{kind:?} stream: same seed identical {same}, other seed differs {differs}");
        ok &= same && differs;
    }
    for kind in [cluster::Kind::Scale, cluster::Kind::Chiplet] {
        let (same, differs) = cluster::determinism(kind);
        println!(
            "{kind:?} simulation: same seed bit-identical {same}, other seed differs {differs}"
        );
        ok &= same && differs;
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    match argv.first().map(String::as_str) {
        Some("--smoke") => smoke(),
        Some("--selftest") => selftest(),
        Some("--list-metrics") => {
            for (name, unit) in END_TO_END {
                println!("end_to_end {name} {unit}");
            }
            for (name, unit) in per_layer() {
                println!("per_layer {name} {unit}");
            }
            ExitCode::SUCCESS
        }
        _ => match parse(&argv) {
            Ok(args) => measure(&args),
            Err(msg) => usage(&msg),
        },
    }
}
