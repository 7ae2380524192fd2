//! Command line of the benchmark.
//!
//! ```text
//! bench --workload NAME --seed N --seconds S --trace 0|1   one run; last line of stdout is the result
//! bench run [--runs N] [--seed N] [--seconds S] [--workload NAME]... [--trace]
//! bench compare A.json B.json
//! ```
//!
//! The single run also takes `--nodes`, `--lookups` and `--horizon`,
//! which change the workload's size; no committed expectation applies
//! then.

use std::path::{Path, PathBuf};
use std::process::ExitCode;

use decent_benchmark::spec::{default_seed, spec};
use decent_benchmark::suite::{self, SuiteConfig};
use decent_benchmark::workloads::{self, RunConfig, Workload};
use decent_sim::json::Json;

/// Where traces and results go: `benchmark/out/`, git-ignored.
const OUT_DIR: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/out");

/// The smallest network every workload can build: `chain`'s relay graph
/// gives each node 8 peers.
const MIN_NODES: usize = 9;

const USAGE: &str = "usage:
  bench --workload NAME --seed N --seconds S --trace 0|1 [--nodes N] [--lookups N] [--horizon S]
  bench run [--runs N] [--seed N] [--seconds S] [--workload NAME]... [--trace]
  bench compare A.json B.json";

fn parse<T: std::str::FromStr>(flag: &str, value: Option<String>) -> Result<T, String> {
    let value = value.ok_or_else(|| format!("{flag} needs a value"))?;
    value
        .parse()
        .map_err(|_| format!("{flag}: cannot read '{value}'"))
}

fn workload(value: Option<String>) -> Result<Workload, String> {
    let name: String = parse("--workload", value)?;
    Workload::parse(&name).ok_or_else(|| {
        let names: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
        format!("--workload: '{name}' is not one of {}", names.join(", "))
    })
}

fn write_out(name: &str, doc: &Json) -> Result<PathBuf, String> {
    let path = Path::new(OUT_DIR).join(name);
    std::fs::create_dir_all(OUT_DIR)
        .and_then(|()| std::fs::write(&path, doc.to_string_pretty()))
        .map_err(|e| format!("{}: {e}", path.display()))?;
    Ok(path)
}

/// One run of one workload: every metric by name, then the result line.
fn single(mut args: impl Iterator<Item = String>) -> Result<bool, String> {
    let (mut w, mut seed, mut seconds, mut trace) = (None, None, None, false);
    let mut sizes = workloads::Sizes::default();
    while let Some(flag) = args.next() {
        match flag.as_str() {
            "--workload" => w = Some(workload(args.next())?),
            "--seed" => seed = Some(parse("--seed", args.next())?),
            "--seconds" => seconds = Some(parse::<f64>("--seconds", args.next())?),
            "--trace" => trace = parse::<u8>("--trace", args.next())? != 0,
            "--nodes" => sizes.nodes = Some(parse("--nodes", args.next())?),
            "--lookups" => sizes.lookups = Some(parse("--lookups", args.next())?),
            "--horizon" => sizes.horizon_s = Some(parse("--horizon", args.next())?),
            other => return Err(format!("unrecognized argument: {other}")),
        }
    }
    let w = w.ok_or("--workload is required")?;
    if sizes.nodes.is_some_and(|n| n < MIN_NODES) {
        return Err(format!("--nodes must be at least {MIN_NODES}"));
    }
    if sizes.lookups == Some(0) {
        return Err("--lookups must be at least 1".to_string());
    }
    if sizes.horizon_s.is_some_and(|h| !(h.is_finite() && h > 0.0)) {
        return Err("--horizon must be a positive number of seconds".to_string());
    }
    let spec = spec();
    let seconds = seconds.unwrap_or(spec.run_seconds);
    if !(0.0..=3600.0).contains(&seconds) {
        return Err(format!("--seconds: {seconds} is not between 0 and 3600"));
    }
    let mut cfg = RunConfig::new(
        w,
        seed.unwrap_or_else(|| default_seed(w.name())),
        seconds,
        trace,
    );
    if sizes != workloads::Sizes::default() {
        cfg.sizes = sizes;
        cfg.expected = Json::Null;
    }

    let (out, tracer) = decent_benchmark::run(&cfg);
    let list = if trace {
        &spec.per_layer
    } else {
        &spec.end_to_end
    };
    let doc = out.result_json(&spec, trace);
    println!("{} seed {} ({} s window)", w.name(), cfg.seed, cfg.seconds);
    for m in list {
        println!(
            "  {:<40} {:>18.6} {}",
            m.name,
            out.value_of(m, trace),
            m.unit
        );
    }
    println!("  ops attempted {}, failed {}", out.attempted, out.failed);
    for line in &out.failures {
        eprintln!("FAILED: {line}");
    }
    if trace {
        let path = write_out(
            &format!("trace-{}.json", w.name()),
            &tracer.to_json(w.name(), cfg.seed),
        )?;
        println!("  self time by span ({}):", path.display());
        for (name, s, spans) in tracer.self_s_by_name().iter().take(12) {
            println!("    {name:<38} {s:>12.6} s in {spans} spans");
        }
    }
    println!("{}", doc.to_string_compact());
    Ok(out.correct())
}

fn run(mut args: impl Iterator<Item = String>) -> Result<bool, String> {
    let mut cfg = SuiteConfig {
        workloads: Vec::new(),
        runs: 3,
        seed: None,
        seconds: spec().run_seconds,
        trace: false,
    };
    while let Some(flag) = args.next() {
        match flag.as_str() {
            "--runs" => cfg.runs = parse("--runs", args.next())?,
            "--seed" => cfg.seed = Some(parse("--seed", args.next())?),
            "--seconds" => cfg.seconds = parse("--seconds", args.next())?,
            "--workload" => cfg.workloads.push(workload(args.next())?),
            "--trace" => cfg.trace = true,
            other => return Err(format!("unrecognized argument: {other}")),
        }
    }
    if cfg.runs == 0 {
        return Err("--runs must be at least 1".to_string());
    }
    if cfg.workloads.is_empty() {
        cfg.workloads = Workload::ALL.to_vec();
    }
    let (doc, correct) = suite::run(&cfg)?;
    let path = write_out("results.json", &doc)?;
    println!("\nwrote {}", path.display());
    Ok(correct)
}

fn main() -> ExitCode {
    let mut args = std::env::args().skip(1).peekable();
    let result = match args.peek().map(String::as_str) {
        Some("run") => run(args.skip(1)),
        Some("compare") => match (args.nth(1), args.next(), args.next()) {
            (Some(a), Some(b), None) => suite::compare(Path::new(&a), Path::new(&b)),
            _ => Err("compare takes two results files".to_string()),
        },
        Some(_) => single(args),
        None => Err("no arguments".to_string()),
    };
    match result {
        Ok(true) => ExitCode::SUCCESS,
        // An incorrect run or a regression: reported above, exit 1.
        Ok(false) => ExitCode::FAILURE,
        Err(msg) => {
            eprintln!("bench: {msg}\n{USAGE}");
            ExitCode::from(2)
        }
    }
}
