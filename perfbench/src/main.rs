//! End-to-end TPC-H benchmark of the quokka engine.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload tpch-batch --seed 1 --seconds 25 --trace 0
//! ```
//!
//! Runs one workload (`tpch-batch`, `tpch-serve` or `tpch-recover`, or `all`
//! in turn; `tpch-recover-tcp` reproduces a known engine defect) from a
//! seed, checks every result against the single-threaded oracle, prints a
//! readable report, and prints as its last line one JSON object with the
//! end-to-end metrics (`--trace 0`) or the per-layer metrics of the traced
//! run (`--trace 1`). Reports, span files and saved end-to-end
//! numbers go to `perfbench/out/`. See `perfbench/README.md` for the metric
//! definitions.

mod check;
mod host;
mod report;
mod stats;
mod trace;
mod workload;

use report::Metric;
use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Instant;
use trace::Tracer;
use workload::{Runner, Workload, WORKERS};

/// Environment overrides `EngineConfig::resolve_env` applies to every
/// query; either would silently swap the transport or watchdog under test.
const PINNED_ENV: [&str; 2] = ["QUOKKA_TRANSPORT", "QUOKKA_WATCHDOG_SECS"];

struct Args {
    workloads: Vec<Workload>,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workloads = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" if value == "all" => workloads = Some(workload::WORKLOADS.to_vec()),
            "--workload" => {
                workloads = Some(vec![Workload::by_name(&value).ok_or_else(|| {
                    let names: Vec<_> = workload::WORKLOADS
                        .iter()
                        .chain([&workload::TCP_RECOVER])
                        .map(|w| w.name)
                        .collect();
                    format!("unknown workload {value:?}; one of {} or all", names.join(", "))
                })?])
            }
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad --seed {value:?}"))?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|_| format!("bad --seconds {value:?}"))?;
                if !(s.is_finite() && s > 0.0) {
                    return Err(format!("--seconds must be positive, got {value:?}"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace must be 0 or 1, got {value:?}")),
                })
            }
            other => return Err(format!("unknown flag {other:?}")),
        }
    }
    Ok(Args {
        workloads: workloads.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(message) => {
            eprintln!("perfbench: {message}");
            eprintln!(
                "usage: perfbench --workload <name|all> --seed <n> --seconds <s> --trace <0|1>"
            );
            return ExitCode::from(2);
        }
    };
    if let Some(var) = PINNED_ENV.iter().find(|v| std::env::var_os(v).is_some()) {
        eprintln!("perfbench: refusing to run with {var} set; it would override the engine config under test");
        return ExitCode::from(2);
    }
    let out_dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
    if let Err(error) = std::fs::create_dir_all(&out_dir) {
        eprintln!("perfbench: cannot create {}: {error}", out_dir.display());
        return ExitCode::FAILURE;
    }
    let provenance = format!(
        "workers={WORKERS} nproc={} git={} sources={:016x}",
        std::thread::available_parallelism().map_or(0, |n| n.get()),
        git_revision(),
        source_digest(),
    );
    let mut code = ExitCode::SUCCESS;
    for w in &args.workloads {
        if !run(w, &args, &provenance, &out_dir) {
            code = ExitCode::FAILURE;
        }
    }
    code
}

/// Run one workload, print its report and, last, its JSON result line.
/// Returns whether it ran any operation.
fn run(w: &Workload, args: &Args, provenance: &str, out_dir: &Path) -> bool {
    let mut text = String::new();
    let _ = writeln!(
        text,
        "perfbench {} seed={} seconds={} trace={}\nprovenance: sf={} transport={} {provenance}",
        w.name,
        args.seed,
        args.seconds,
        args.trace as u8,
        w.sf,
        w.transport(),
    );

    let tracer = Tracer::new(args.trace);
    let runner = Runner::new(*w, args.seed, args.seconds, &tracer);
    let ticks = host::HostTicks::now();
    let cpu = host::process_cpu();
    let started = Instant::now();
    let data = runner.run();
    let wall = started.elapsed().as_secs_f64();
    let cpu = (host::process_cpu() - cpu).as_secs_f64();
    let now = host::HostTicks::now();
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get()) as f64;
    let _ = writeln!(
        text,
        "host: steal {:.1}% of host CPU ({:.1} s) over {wall:.1} s; process CPU {cpu:.1} s = {:.0}% of {nproc} CPUs{}",
        now.steal_share_since(&ticks) * 100.0,
        now.steal_seconds_since(&ticks),
        cpu / (wall * nproc) * 100.0,
        if data.peak_rss_reset_failed { "; peak-RSS reset unavailable, peak covers set-up" } else { "" },
    );

    let _ =
        writeln!(text, "rounds: set-up s, measured s, headline ops, steal in the measured phase");
    for (i, r) in data.rounds.iter().enumerate() {
        let ops = data.headline().filter(|op| op.round == i as u32).count();
        let _ = writeln!(
            text,
            "  {i}: {:.3} {:.3} {ops} {:.1}% {:.1}",
            r.setup.as_secs_f64(),
            r.wall.as_secs_f64(),
            r.steal * 100.0,
            r.peak_rss_mib
        );
    }
    let e2e = report::end_to_end(w, &data);
    let wrong = data.failures.iter().filter(|f| f.wrong_result).count();
    let _ = writeln!(
        text,
        "operations: {} attempted, {} failed ({wrong} wrong results)",
        data.attempted(),
        data.failures.len()
    );
    for failure in &data.failures {
        let _ = writeln!(text, "  {}", failure.log);
    }
    let _ = writeln!(text, "per statement: median latency ms (samples) / oracle median ms");
    for (query, engine, samples, reference) in report::per_query(&data) {
        let _ = writeln!(text, "  Q{query:<3} {engine:>10.2} ({samples:>3}) / {reference:>8.2}");
    }
    let _ = writeln!(text, "end-to-end{}:", if args.trace { " (traced run)" } else { "" });
    write_table(&mut text, &e2e);

    let stem = format!("{}-seed{}", w.name, args.seed);
    let reported = if args.trace {
        let layers = report::per_layer(w, &data);
        let _ = writeln!(text, "per-layer:");
        write_table(&mut text, &layers);
        let spans = tracer.spans();
        let _ = writeln!(text, "self time by span ({} spans):", spans.len());
        let _ =
            writeln!(text, "  {:<18} {:>7} {:>12} {:>12}", "span", "count", "total_ms", "self_ms");
        for (name, (count, total, own)) in trace::layer_table(&spans) {
            let _ = writeln!(
                text,
                "  {name:<18} {count:>7} {:>12.3} {:>12.3}",
                total.as_secs_f64() * 1e3,
                own.as_secs_f64() * 1e3
            );
        }
        let cost = trace::span_cost();
        let _ = writeln!(
            text,
            "span recording: {} ns each, {:.3} ms for the run's spans",
            cost.as_nanos(),
            (cost * spans.len() as u32).as_secs_f64() * 1e3
        );
        write_overhead(&mut text, &e2e, &out_dir.join(format!("{stem}.e2e")));
        let span_file = out_dir.join(format!("{stem}.trace.json"));
        match std::fs::write(&span_file, trace::chrome_trace(&spans)) {
            Ok(()) => {
                let _ = writeln!(text, "spans: {}", span_file.display());
            }
            Err(error) => eprintln!("perfbench: cannot write {}: {error}", span_file.display()),
        }
        layers
    } else {
        let saved: String = e2e.iter().map(|m| format!("{} {}\n", m.name, m.value)).collect();
        if let Err(error) = std::fs::write(out_dir.join(format!("{stem}.e2e")), saved) {
            eprintln!("perfbench: cannot save end-to-end metrics: {error}");
        }
        e2e
    };
    let report_file = out_dir.join(format!("{stem}-trace{}.txt", args.trace as u8));
    if let Err(error) = std::fs::write(&report_file, &text) {
        eprintln!("perfbench: cannot write {}: {error}", report_file.display());
    }
    print!("{text}");

    if data.attempted() == 0 {
        eprintln!("perfbench: no operation ran");
        return false;
    }
    let metrics: Vec<String> = reported
        .iter()
        .map(|m| {
            format!("\"{}\":{{\"value\":{},\"unit\":\"{}\"}}", m.name, json_number(m.value), m.unit)
        })
        .collect();
    println!(
        "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
        wrong == 0,
        data.attempted(),
        data.failures.len(),
        metrics.join(",")
    );
    true
}

fn write_table(text: &mut String, metrics: &[Metric]) {
    for m in metrics {
        let _ = writeln!(
            text,
            "  {:<28} {:>14.4} {:<6} ({} samples)",
            m.name, m.value, m.unit, m.samples
        );
    }
}

/// Compare the traced run's end-to-end numbers with the untraced run's,
/// when one was saved for the same workload and seed.
fn write_overhead(text: &mut String, traced: &[Metric], untraced: &Path) {
    let Ok(saved) = std::fs::read_to_string(untraced) else {
        let _ = writeln!(
            text,
            "tracing overhead: no untraced run saved at {}; run --trace 0 first",
            untraced.display()
        );
        return;
    };
    let _ = writeln!(text, "tracing overhead (traced / untraced):");
    for line in saved.lines() {
        let Some((name, value)) = line.split_once(' ') else { continue };
        let (Some(m), Ok(base)) = (traced.iter().find(|m| m.name == name), value.parse::<f64>())
        else {
            continue;
        };
        let _ = writeln!(text, "  {name:<28} {:>+8.1}%", (m.value / base - 1.0) * 100.0);
    }
}

/// JSON has no NaN or infinity; a metric without samples reads 0.
fn json_number(value: f64) -> String {
    if value.is_finite() {
        format!("{value}")
    } else {
        "0".to_string()
    }
}

/// The checkout's git revision, when it is a git repository.
fn git_revision() -> String {
    // Cargo gives the manifest directory as an absolute path.
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).parent().unwrap_or(Path::new("/"));
    std::process::Command::new("git")
        .args(["rev-parse", "--short=12", "HEAD"])
        .current_dir(root)
        // Look for a repository in the checkout only, not above it.
        .env("GIT_CEILING_DIRECTORIES", root.parent().unwrap_or(root))
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "none".to_string())
}

/// FNV-1a digest of the engine's sources and manifests, which identifies
/// the code under test even where there is no git repository.
fn source_digest() -> u64 {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("..");
    let mut files = vec![root.join("Cargo.toml"), root.join("Cargo.lock")];
    collect_sources(&root.join("crates"), &mut files);
    files.sort();
    let mut bytes = Vec::new();
    for file in files {
        bytes.extend_from_slice(
            file.strip_prefix(&root).unwrap_or(&file).to_string_lossy().as_bytes(),
        );
        bytes.extend(std::fs::read(&file).unwrap_or_default());
    }
    quokka::common::rng::fnv1a(&bytes)
}

fn collect_sources(dir: &Path, files: &mut Vec<PathBuf>) {
    let Ok(entries) = std::fs::read_dir(dir) else { return };
    for entry in entries.flatten() {
        let path = entry.path();
        if path.is_dir() {
            collect_sources(&path, files);
        } else if path.extension().is_some_and(|e| e == "rs" || e == "toml") {
            files.push(path);
        }
    }
}
