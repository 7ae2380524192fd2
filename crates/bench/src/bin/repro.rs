//! Regenerates every experiment report (the paper's "tables and
//! figures") as markdown or as a machine-readable JSON run report.
//!
//! One of the two binaries of `decent-bench`, the package that drives
//! the workspace. The other, `perf-gate`, re-measures one small serial
//! configuration and holds its deterministic cost counters against
//! `baselines/perf_quick.json`. Timing lives in the standalone
//! `benchmark/` package, not here.
//!
//! ```text
//! repro [--quick] [--exp E7[,E9,...]] [--csv DIR] [--claims] [--list]
//!       [--json PATH] [--format md|json] [--summary PATH]
//!       [--jobs N] [--shards N] [--seed N]
//!       [--baseline PATH] [--write-baseline PATH]
//!       [--sweep EXP:param=lo..hi:steps]
//!       [--serve kad | --probe] [--port-base N] [--mesh-size N]
//!       [--serve-for SECS] [--probe-timeout SECS]
//! repro --help | -h
//! ```
//!
//! `--quick` runs CI-sized configurations (seconds); the default runs
//! paper-sized configurations (minutes). `--csv DIR` additionally
//! writes every result table as `DIR/<exp>_<n>.csv`. `--claims` prints
//! the claim catalog and exits; `--list` prints the scenario registry —
//! one line per experiment plus its sweepable parameters and seed
//! behaviour — and exits. Each takes no other flag.
//!
//! Experiments are independent simulations, so they fan out across a
//! thread pool (`--jobs`, default = available cores). Within one
//! experiment, `--shards N` lets each simulation use the engine's
//! windowed sharded executor (up to N worker threads, wherever its
//! conservative windows are full enough to repay their barrier; default
//! 1 = serial). Each experiment runs inside one execution policy
//! carrying that count, and every simulation it builds asks for it; the
//! experiments with no discrete-event loop (closed-form or Monte Carlo)
//! have nothing to shard. `--jobs × --shards` threads can run at once,
//! so each flag and their product take at most 256, and the default
//! `--jobs` is capped at `256 / --shards`. Parallelism never changes
//! results on either axis: each experiment seeds its own RNG streams,
//! the sharded executor commits events in the exact serial
//! `(time, seq)` order, and the canonical JSON excludes wall-clock, so
//! serial, `--jobs N`, and `--shards N` runs are byte-identical.
//!
//! The claim-regression gate: `--baseline PATH` diffs this run's claim
//! verdicts against a committed claims file and exits 1 on any verdict
//! flip or missing claim; `--write-baseline PATH` regenerates that file.
//! With `--exp`, only the baseline's claims of the selected experiments
//! are compared, and `--write-baseline` is refused (it would replace
//! the full baseline with a partial one).
//!
//! Sensitivity analysis: `--sweep E19:partition_frac=0.1..0.5:3` runs
//! the experiment at every grid point of the named parameter and emits
//! per-claim robustness curves (verdict + headline value per point, and
//! the crossover interval wherever a verdict flips). Grid point `i`
//! seeds from `(base seed, i)`, so sweeps are deterministic and serial
//! vs `--jobs N` output is byte-identical. A sweep reports flips, it
//! does not fail on them: claims *expected* to flip off-default are the
//! point of the exercise.
//!
//! Real sockets (the TCP backend, DESIGN.md §4h): `--serve kad`
//! hosts a small TCP-backed Kademlia mesh on localhost — `--mesh-size`
//! nodes on ports `--port-base..` — for `--serve-for` seconds, and
//! `--probe` dials that mesh from a separate process, runs one real
//! FIND_NODE lookup over the sockets, and checks the discovered
//! closest-contact set against the roster's true k-closest (both sides
//! derive identical node identities from `--seed`, so no handshake is
//! needed). This is the same protocol core the sim experiments run;
//! only the backend differs.
//!
//! Exit codes: 0 success, 1 claim failures, baseline regressions or an
//! output that cannot be written (stdout included), 2 bad arguments.

use std::io::{self, Write};
use std::net::SocketAddr;
use std::process::ExitCode;

use decent_overlay::id::Key;
use decent_overlay::kadnet;
use decent_sim::prelude::{SimDuration, SimTime};

use decent_core::report::{diff_verdicts, verdicts_from_json, ClaimVerdict, RunReport};
use decent_core::scenario::ExecPolicy;
use decent_core::sensitivity::{run_sweep, SweepSpec};
use decent_core::{claims, experiments, scenario};
use decent_sim::json::Json;

const USAGE: &str = "usage: repro [--quick] [--exp E1,E2,...] [--csv DIR] [--claims] [--list] \
[--json PATH] [--format md|json] [--summary PATH] [--jobs N] [--shards N] [--seed N] \
[--baseline PATH] [--write-baseline PATH] [--sweep EXP:param=lo..hi:steps] \
[--serve kad | --probe] [--port-base N] [--mesh-size N] [--serve-for SECS] [--probe-timeout SECS] \
[--help]";

/// The most operating-system threads a run starts at once: `--jobs`
/// experiments, each of which can be in a windowed advance that spawns
/// one thread per shard (empty shards included). It caps `--jobs`,
/// `--shards` and their product, so neither a typo like
/// `--shards 100000` nor `--jobs 256 --shards 256` asks the host for
/// tens of thousands of threads.
const MAX_THREADS: usize = 256;

/// Output format for stdout.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
enum Format {
    /// Human-readable markdown reports (the default).
    #[default]
    Markdown,
    /// The canonical JSON run report.
    Json,
}

/// Parsed command line.
#[derive(Debug, Default, PartialEq)]
struct Cli {
    quick: bool,
    /// `None` means "all experiments".
    selected: Option<Vec<String>>,
    csv_dir: Option<std::path::PathBuf>,
    claims: bool,
    list: bool,
    json_path: Option<std::path::PathBuf>,
    format: Format,
    summary_path: Option<std::path::PathBuf>,
    jobs: Option<usize>,
    shards: Option<usize>,
    seed: Option<u64>,
    baseline: Option<std::path::PathBuf>,
    write_baseline: Option<std::path::PathBuf>,
    sweep: Option<SweepSpec>,
    /// Real-socket demo: host a TCP-backed mesh for this protocol.
    serve: Option<String>,
    /// Real-socket demo: dial a served mesh and run one lookup.
    probe: bool,
    /// First localhost port of the mesh (nodes bind base, base+1, ...).
    port_base: Option<u16>,
    /// Number of mesh nodes.
    mesh_size: Option<usize>,
    /// Serve window in wall-clock seconds.
    serve_for: Option<f64>,
    /// Probe lookup deadline in wall-clock seconds.
    probe_timeout: Option<f64>,
    /// `--help` / `-h`: print the usage to stdout and exit 0.
    help: bool,
    /// Every flag given, in order: what the commands that read only a
    /// few flags check the rest against.
    given: Vec<String>,
}

/// Parses and validates arguments. Experiment ids are checked against the
/// experiment registry up front, so a typo like `--exp E99` fails before
/// any (potentially minutes-long) experiment runs rather than mid-report.
fn parse_args(args: impl IntoIterator<Item = String>) -> Result<Cli, String> {
    let mut cli = Cli::default();
    let mut args = args.into_iter();
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--help" | "-h" => {
                return Ok(Cli {
                    help: true,
                    ..Cli::default()
                })
            }
            "--quick" => cli.quick = true,
            "--claims" => cli.claims = true,
            "--list" => cli.list = true,
            "--csv" => {
                let dir = args.next().ok_or("--csv requires a directory argument")?;
                cli.csv_dir = Some(std::path::PathBuf::from(dir));
            }
            "--json" => {
                let path = args.next().ok_or("--json requires a file argument")?;
                cli.json_path = Some(std::path::PathBuf::from(path));
            }
            "--summary" => {
                let path = args.next().ok_or("--summary requires a file argument")?;
                cli.summary_path = Some(std::path::PathBuf::from(path));
            }
            "--baseline" => {
                let path = args.next().ok_or("--baseline requires a file argument")?;
                cli.baseline = Some(std::path::PathBuf::from(path));
            }
            "--write-baseline" => {
                let path = args
                    .next()
                    .ok_or("--write-baseline requires a file argument")?;
                cli.write_baseline = Some(std::path::PathBuf::from(path));
            }
            "--format" => {
                let fmt = args.next().ok_or("--format requires md or json")?;
                cli.format = match fmt.as_str() {
                    "md" | "markdown" => Format::Markdown,
                    "json" => Format::Json,
                    other => return Err(format!("unknown format: {other} (expected md or json)")),
                };
            }
            "--jobs" => {
                let n = args.next().ok_or("--jobs requires a number argument")?;
                let n: usize = n
                    .parse()
                    .map_err(|_| format!("--jobs expects a positive integer, got {n}"))?;
                if n == 0 {
                    return Err("--jobs must be at least 1".into());
                }
                if n > MAX_THREADS {
                    return Err(format!("--jobs must be at most {MAX_THREADS}, got {n}"));
                }
                cli.jobs = Some(n);
            }
            "--shards" => {
                let n = args.next().ok_or("--shards requires a number argument")?;
                let n: usize = n
                    .parse()
                    .map_err(|_| format!("--shards expects a positive integer, got {n}"))?;
                if n == 0 {
                    return Err("--shards must be at least 1".into());
                }
                if n > MAX_THREADS {
                    return Err(format!("--shards must be at most {MAX_THREADS}, got {n}"));
                }
                cli.shards = Some(n);
            }
            "--seed" => {
                let s = args.next().ok_or("--seed requires a number argument")?;
                let s: u64 = s
                    .parse()
                    .map_err(|_| format!("--seed expects an unsigned integer, got {s}"))?;
                cli.seed = Some(s);
            }
            "--sweep" => {
                let spec = args
                    .next()
                    .ok_or("--sweep requires an EXP:param=lo..hi:steps argument")?;
                cli.sweep = Some(SweepSpec::parse(&spec)?);
            }
            "--serve" => {
                let proto = args.next().ok_or("--serve requires a protocol (kad)")?;
                if proto != "kad" {
                    return Err(format!("unknown --serve protocol: {proto} (expected kad)"));
                }
                cli.serve = Some(proto);
            }
            "--probe" => cli.probe = true,
            "--port-base" => {
                let p = args.next().ok_or("--port-base requires a port argument")?;
                let p: u16 = p
                    .parse()
                    .map_err(|_| format!("--port-base expects a port number, got {p}"))?;
                if p == 0 {
                    return Err("--port-base must be nonzero".into());
                }
                cli.port_base = Some(p);
            }
            "--mesh-size" => {
                let n = args
                    .next()
                    .ok_or("--mesh-size requires a number argument")?;
                let n: usize = n
                    .parse()
                    .map_err(|_| format!("--mesh-size expects a positive integer, got {n}"))?;
                if n < 2 {
                    return Err("--mesh-size must be at least 2".into());
                }
                cli.mesh_size = Some(n);
            }
            "--serve-for" => {
                let s = args.next().ok_or("--serve-for requires seconds")?;
                let s: f64 = s
                    .parse()
                    .map_err(|_| format!("--serve-for expects seconds, got {s}"))?;
                if s.is_nan() || s <= 0.0 {
                    return Err("--serve-for must be positive".into());
                }
                cli.serve_for = Some(s);
            }
            "--probe-timeout" => {
                let s = args.next().ok_or("--probe-timeout requires seconds")?;
                let s: f64 = s
                    .parse()
                    .map_err(|_| format!("--probe-timeout expects seconds, got {s}"))?;
                if s.is_nan() || s <= 0.0 {
                    return Err("--probe-timeout must be positive".into());
                }
                cli.probe_timeout = Some(s);
            }
            "--exp" => {
                let list = args.next().ok_or("--exp requires an id list argument")?;
                let ids: Vec<String> = list
                    .split(',')
                    .map(|s| s.trim().to_ascii_uppercase())
                    .filter(|s| !s.is_empty())
                    .collect();
                if ids.is_empty() {
                    return Err("--exp requires at least one experiment id".into());
                }
                let known = scenario::ids();
                // A second `--exp` adds to the first.
                let selected = cli.selected.get_or_insert_with(Vec::new);
                for id in ids {
                    if !known.contains(&id.as_str()) {
                        return Err(format!(
                            "unknown experiment id: {id} (known: {})",
                            known.join(", ")
                        ));
                    }
                    if selected.contains(&id) {
                        return Err(format!("--exp names {id} more than once"));
                    }
                    selected.push(id);
                }
            }
            other => return Err(format!("unrecognized argument: {other}")),
        }
        cli.given.push(arg);
    }
    if cli.sweep.is_some() {
        for (set, flag) in [
            (cli.selected.is_some(), "--exp"),
            (cli.csv_dir.is_some(), "--csv"),
            (cli.baseline.is_some(), "--baseline"),
            (cli.write_baseline.is_some(), "--write-baseline"),
        ] {
            if set {
                return Err(format!("--sweep cannot be combined with {flag}"));
            }
        }
    }
    if let (Some(jobs), Some(shards)) = (cli.jobs, cli.shards) {
        if jobs * shards > MAX_THREADS {
            return Err(format!(
                "--jobs {jobs} x --shards {shards} is {} threads at once, more than {MAX_THREADS}",
                jobs * shards
            ));
        }
    }
    if cli.selected.is_some() && cli.write_baseline.is_some() {
        return Err(
            "--exp cannot be combined with --write-baseline: a baseline covers every experiment"
                .into(),
        );
    }
    // The run report stores the seed as a JSON number (an f64): above
    // 2^53 two seeds can print as the same number, and the report would
    // name a seed that does not reproduce it. Sweeps record seeds as
    // decimal strings and the socket demos write no report.
    const MAX_REPORT_SEED: u64 = 1 << 53;
    let point_run = cli.sweep.is_none() && cli.serve.is_none() && !cli.probe;
    if let Some(seed) = cli.seed.filter(|&s| point_run && s > MAX_REPORT_SEED) {
        return Err(format!(
            "--seed {seed} is above 2^53 ({MAX_REPORT_SEED}), the largest seed a run report records exactly"
        ));
    }
    if cli.serve.is_some() && cli.probe {
        return Err("--serve and --probe are different processes; pick one".into());
    }
    if cli.list && cli.claims {
        return Err("--list and --claims print different catalogs; pick one".into());
    }
    // `main` returns from these commands before it reads any flag but
    // the ones listed, so any other is refused rather than ignored.
    let command: Option<(&str, &[&str])> = if cli.serve.is_some() {
        Some((
            "--serve",
            &["--seed", "--port-base", "--mesh-size", "--serve-for"],
        ))
    } else if cli.probe {
        Some((
            "--probe",
            &["--seed", "--port-base", "--mesh-size", "--probe-timeout"],
        ))
    } else if cli.list {
        Some(("--list", &[]))
    } else if cli.claims {
        Some(("--claims", &[]))
    } else {
        None
    };
    // A point run or a sweep reads every flag but the socket demos'.
    const SOCKET_DEMO_FLAGS: [&str; 4] = [
        "--port-base",
        "--mesh-size",
        "--serve-for",
        "--probe-timeout",
    ];
    let (command, ignored) = match command {
        Some((command, reads)) => (
            command,
            cli.given.iter().find(|flag| {
                let flag = flag.as_str();
                flag != command && !reads.contains(&flag)
            }),
        ),
        None => (
            if cli.sweep.is_some() {
                "--sweep"
            } else {
                "a report run"
            },
            cli.given
                .iter()
                .find(|flag| SOCKET_DEMO_FLAGS.contains(&flag.as_str())),
        ),
    };
    if let Some(flag) = ignored {
        return Err(format!("{command} cannot be combined with {flag}"));
    }
    Ok(cli)
}

/// Demo target key: any fixed key works; the probe checks the
/// discovered set against the roster's true k-closest to this key.
const DEMO_TARGET: u64 = 0xDECE_2019;

fn mesh_addrs(port_base: u16, n: usize) -> Result<Vec<SocketAddr>, String> {
    if usize::from(port_base) + n > usize::from(u16::MAX) {
        return Err(format!(
            "--port-base {port_base} + mesh size {n} overflows the port range"
        ));
    }
    Ok((0..n)
        .map(|i| SocketAddr::from(([127, 0, 0, 1], port_base + i as u16)))
        .collect())
}

/// `--serve kad`: host a TCP-backed Kademlia mesh on localhost and
/// answer real-socket lookups until the serve window elapses.
fn run_serve(seed: u64, port_base: u16, n: usize, serve_for: f64) -> Result<(), String> {
    let cfg = kadnet::demo_config();
    let bind = mesh_addrs(port_base, n)?;
    let mut mesh = kadnet::serve_mesh(seed, n, &cfg, &bind)
        .map_err(|e| format!("cannot start mesh on 127.0.0.1:{port_base}..: {e}"))?;
    eprintln!(
        "serving kad mesh: {n} nodes on 127.0.0.1:{port_base}-{} (seed {seed}) for {serve_for}s",
        port_base + (n - 1) as u16
    );
    let horizon = SimDuration::from_secs(serve_for);
    while mesh.runtime.now().saturating_since(SimTime::ZERO) < horizon {
        mesh.runtime.poll(SimDuration::from_millis(200.0));
    }
    eprintln!("serve window elapsed; shutting down mesh");
    Ok(())
}

/// `--probe`: dial a served mesh, run one FIND_NODE lookup over real
/// sockets, and verify the result against the roster's true k-closest.
fn run_probe(seed: u64, port_base: u16, n: usize, timeout: f64) -> Result<(), String> {
    let cfg = kadnet::demo_config();
    let addrs = mesh_addrs(port_base, n)?;
    if !kadnet::wait_mesh_reachable(addrs[0], 100, SimDuration::from_millis(200.0)) {
        return Err(format!(
            "mesh not reachable at {} (is --serve kad running?)",
            addrs[0]
        ));
    }
    let target = Key::from_u64(DEMO_TARGET);
    let bind: SocketAddr = ([127, 0, 0, 1], 0).into();
    let result = kadnet::probe_lookup(
        seed,
        &cfg,
        &addrs,
        bind,
        target,
        SimDuration::from_secs(timeout),
    )
    .map_err(|e| format!("probe failed: {e}"))?;
    let Some(r) = result else {
        return Err(format!("lookup did not complete within {timeout}s"));
    };
    // Both processes derive the same roster from the seed, so the true
    // k-closest set is pure key arithmetic — no side channel needed.
    let mut expect = kadnet::demo_contacts(seed, n);
    expect.sort_by_key(|c| (c.key.xor_distance(&target), c.node));
    expect.truncate(cfg.k);
    let got: Vec<usize> = r.closest.iter().map(|c| c.node).collect();
    let want: Vec<usize> = expect.iter().map(|c| c.node).collect();
    if got != want {
        return Err(format!(
            "lookup converged to the wrong set: got {got:?}, want {want:?} \
             ({} rpcs, {} timeouts)",
            r.rpcs, r.timeouts
        ));
    }
    to_stdout(|out| {
        writeln!(
            out,
            "probe ok: real-socket lookup found the true {}-closest set in {} \
             ({} rpcs, {} timeouts)",
            want.len(),
            r.latency,
            r.rpcs,
            r.timeouts
        )
    })
}

/// Writes to stdout through `write`. A full disk or a closed pipe is an
/// error message, not a panic.
fn to_stdout(write: impl FnOnce(&mut dyn Write) -> io::Result<()>) -> Result<(), String> {
    let mut out = io::stdout().lock();
    write(&mut out)
        .and_then(|()| out.flush())
        .map_err(|e| format!("cannot write stdout: {e}"))
}

/// Writes the run's report in `format`: markdown (a header, then each
/// experiment with its wall-clock) or the canonical JSON.
fn write_report(
    out: &mut dyn Write,
    run: &RunReport,
    format: Format,
    jobs: usize,
) -> io::Result<()> {
    match format {
        Format::Markdown => {
            writeln!(
                out,
                "# decent — reproduction of ICDCS'19 \"Please, do not decentralize \
                 the Internet with (permissionless) blockchains!\"\n"
            )?;
            writeln!(
                out,
                "Mode: {} ({} experiments, {} jobs)\n",
                run.mode,
                run.runs.len(),
                jobs
            )?;
            for r in &run.runs {
                writeln!(out, "{}", r.report)?;
                writeln!(
                    out,
                    "_{} completed in {:.1} s wall-clock._\n",
                    r.report.id,
                    r.wall_ms / 1e3
                )?;
            }
            Ok(())
        }
        Format::Json => write!(out, "{}", run.to_json_text()),
    }
}

/// `--claims`: the claim registry as a markdown table.
fn write_claims(out: &mut dyn Write) -> io::Result<()> {
    writeln!(out, "| id | section | claim | experiment |")?;
    writeln!(out, "|---|---|---|---|")?;
    for c in claims::CLAIMS {
        writeln!(
            out,
            "| {} | {} | {} | {} |",
            c.id, c.section, c.statement, c.experiment
        )?;
    }
    Ok(())
}

/// `--list`: every scenario and its sweepable parameters. Everything
/// here derives from the scenario registry: the ids, the titles (shared
/// with the report headers), the parameter maps and which scenarios
/// actually consume a seed.
fn write_list(out: &mut dyn Write) -> io::Result<()> {
    for s in scenario::all(true) {
        let seed_note = if s.seed().is_none() {
            "  (closed-form: no RNG, --seed is a no-op)"
        } else {
            ""
        };
        writeln!(out, "{:<4} {}{}", s.id(), s.description(), seed_note)?;
        for p in s.params() {
            writeln!(out, "       --sweep {}:{}=..  {}", s.id(), p.name, p.help)?;
        }
    }
    Ok(())
}

/// Loads the claim verdicts of a baseline file.
fn load_baseline(path: &std::path::Path) -> Result<Vec<ClaimVerdict>, String> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| format!("cannot read baseline {}: {e}", path.display()))?;
    let doc = Json::parse(&text)
        .map_err(|e| format!("baseline {} is not valid JSON: {e}", path.display()))?;
    verdicts_from_json(&doc).map_err(|e| format!("baseline {}: {e}", path.display()))
}

/// Diffs the run's verdicts against a baseline and returns the
/// regression lines (empty = gate passes). A run of `selected`
/// experiments is held only to their claims (ids `"<EXP>.<slug>"`): the
/// rest of the baseline is not missing, it was not asked for.
fn baseline_regressions(
    run: &RunReport,
    mut baseline: Vec<ClaimVerdict>,
    selected: Option<&[String]>,
) -> Vec<String> {
    if let Some(ids) = selected {
        baseline.retain(|b| {
            b.id.split_once('.')
                .is_some_and(|(exp, _)| ids.iter().any(|id| id == exp))
        });
    }
    diff_verdicts(&run.verdicts(), &baseline)
}

fn main() -> ExitCode {
    let cli = match parse_args(std::env::args().skip(1)) {
        Ok(cli) => cli,
        Err(msg) => {
            eprintln!("repro: {msg}");
            eprintln!("{USAGE}");
            return ExitCode::from(2);
        }
    };
    if cli.help {
        println!("{USAGE}");
        return ExitCode::SUCCESS;
    }
    if cli.serve.is_some() || cli.probe {
        let seed = cli.seed.unwrap_or(42);
        let port_base = cli.port_base.unwrap_or(42810);
        let n = cli.mesh_size.unwrap_or(8);
        let outcome = if cli.serve.is_some() {
            run_serve(seed, port_base, n, cli.serve_for.unwrap_or(60.0))
        } else {
            run_probe(seed, port_base, n, cli.probe_timeout.unwrap_or(30.0))
        };
        return match outcome {
            Ok(()) => ExitCode::SUCCESS,
            Err(msg) => {
                eprintln!("repro: {msg}");
                ExitCode::FAILURE
            }
        };
    }
    if cli.claims || cli.list {
        let write = if cli.claims { write_claims } else { write_list };
        return match to_stdout(write) {
            Ok(()) => ExitCode::SUCCESS,
            Err(msg) => {
                eprintln!("repro: {msg}");
                ExitCode::FAILURE
            }
        };
    }
    let shards = cli.shards.unwrap_or(1);
    let jobs = cli.jobs.unwrap_or_else(|| {
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
            .min(MAX_THREADS / shards)
    });
    let exec = ExecPolicy::sharded(shards);
    if let Some(spec) = &cli.sweep {
        let sweep = match run_sweep(spec, cli.quick, cli.seed, jobs, exec) {
            Ok(s) => s,
            Err(msg) => {
                eprintln!("repro: {msg}");
                return ExitCode::from(2);
            }
        };
        let text = match cli.format {
            Format::Markdown => sweep.to_markdown(),
            Format::Json => sweep.to_json_text(),
        };
        if let Err(msg) = to_stdout(|out| out.write_all(text.as_bytes())) {
            eprintln!("repro: {msg}");
            return ExitCode::FAILURE;
        }
        if let Some(path) = &cli.json_path {
            if let Err(e) = std::fs::write(path, sweep.to_json_text()) {
                eprintln!("cannot write {}: {e}", path.display());
                return ExitCode::FAILURE;
            }
        }
        if let Some(path) = &cli.summary_path {
            if let Err(e) = std::fs::write(path, sweep.to_markdown()) {
                eprintln!("cannot write {}: {e}", path.display());
                return ExitCode::FAILURE;
            }
        }
        return ExitCode::SUCCESS;
    }
    let ids: Vec<String> = cli
        .selected
        .clone()
        .unwrap_or_else(|| scenario::ids().iter().map(|s| s.to_string()).collect());
    let id_refs: Vec<&str> = ids.iter().map(String::as_str).collect();

    let run = experiments::run_report_exec(&id_refs, cli.quick, cli.seed, jobs, exec);

    if let Err(msg) = to_stdout(|out| write_report(out, &run, cli.format, jobs)) {
        eprintln!("repro: {msg}");
        return ExitCode::FAILURE;
    }

    if let Some(dir) = &cli.csv_dir {
        if let Err(e) = std::fs::create_dir_all(dir) {
            eprintln!("cannot create {}: {e}", dir.display());
            return ExitCode::FAILURE;
        }
        for r in &run.runs {
            for (i, table) in r.report.tables.iter().enumerate() {
                let path = dir.join(format!("{}_{}.csv", r.report.id.to_lowercase(), i));
                if let Err(e) = std::fs::write(&path, table.to_csv()) {
                    eprintln!("cannot write {}: {e}", path.display());
                    return ExitCode::FAILURE;
                }
            }
        }
    }
    if let Some(path) = &cli.json_path {
        if let Err(e) = std::fs::write(path, run.to_json_text()) {
            eprintln!("cannot write {}: {e}", path.display());
            return ExitCode::FAILURE;
        }
    }
    if let Some(path) = &cli.summary_path {
        if let Err(e) = std::fs::write(path, run.claims_markdown()) {
            eprintln!("cannot write {}: {e}", path.display());
            return ExitCode::FAILURE;
        }
    }
    if let Some(path) = &cli.write_baseline {
        if let Err(e) = std::fs::write(path, run.baseline_json().to_string_pretty()) {
            eprintln!("cannot write {}: {e}", path.display());
            return ExitCode::FAILURE;
        }
        eprintln!(
            "wrote baseline ({} claims) to {}",
            run.total_claims(),
            path.display()
        );
    }

    let mut failed = false;
    if let Some(path) = &cli.baseline {
        let lines = load_baseline(path)
            .map(|baseline| baseline_regressions(&run, baseline, cli.selected.as_deref()));
        match lines {
            Ok(lines) if lines.is_empty() => {
                eprintln!(
                    "baseline {}: {} claims match",
                    path.display(),
                    run.total_claims()
                );
            }
            Ok(lines) => {
                eprintln!(
                    "baseline {}: {} regression(s) against committed verdicts:",
                    path.display(),
                    lines.len()
                );
                for line in &lines {
                    eprintln!("  - {line}");
                }
                eprintln!("(intentional change? regenerate with --write-baseline)");
                failed = true;
            }
            Err(msg) => {
                eprintln!("repro: {msg}");
                return ExitCode::from(2);
            }
        }
    }
    let failing: Vec<&str> = run
        .runs
        .iter()
        .filter(|r| !r.report.all_hold())
        .map(|r| r.report.id)
        .collect();
    if !failing.is_empty() {
        eprintln!(
            "{} experiment(s) had findings that do not hold: {}",
            failing.len(),
            failing.join(", ")
        );
        failed = true;
    }
    if failed {
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<Cli, String> {
        parse_args(args.iter().map(|s| s.to_string()))
    }

    #[test]
    fn no_args_selects_everything() {
        let cli = parse(&[]).unwrap();
        assert_eq!(cli, Cli::default());
    }

    #[test]
    fn flags_parse() {
        let cli = parse(&["--quick", "--csv", "out"]).unwrap();
        assert!(cli.quick);
        assert_eq!(cli.csv_dir.as_deref(), Some(std::path::Path::new("out")));
        assert!(parse(&["--claims"]).unwrap().claims);
        assert!(parse(&["--list"]).unwrap().list);
    }

    #[test]
    fn list_and_claims_take_no_other_flag() {
        let err = parse(&["--list", "--claims"]).unwrap_err();
        assert!(err.contains("pick one"), "{err}");
        // `main` prints the catalog and returns before it reads any of
        // these, so each is refused rather than silently ignored.
        for args in [
            &["--list", "--json", "l.json", "--shards", "2"][..],
            &["--claims", "--csv", "out", "--summary", "s.md"],
            &["--quick", "--list"],
            &["--claims", "--exp", "E7"],
            &["--list", "--format", "json"],
            &["--claims", "--seed", "3"],
            &["--list", "--port-base", "43000"],
        ] {
            let err = parse(args).unwrap_err();
            assert!(err.contains("cannot be combined"), "{args:?}: {err}");
        }
    }

    #[test]
    fn report_flags_parse() {
        let cli = parse(&[
            "--json",
            "out.json",
            "--format",
            "json",
            "--summary",
            "sum.md",
            "--jobs",
            "4",
            "--shards",
            "2",
            "--seed",
            "99",
            "--baseline",
            "base.json",
            "--write-baseline",
            "new.json",
        ])
        .unwrap();
        assert_eq!(
            cli.json_path.as_deref(),
            Some(std::path::Path::new("out.json"))
        );
        assert_eq!(cli.format, Format::Json);
        assert_eq!(
            cli.summary_path.as_deref(),
            Some(std::path::Path::new("sum.md"))
        );
        assert_eq!(cli.jobs, Some(4));
        assert_eq!(cli.shards, Some(2));
        assert_eq!(cli.seed, Some(99));
        assert_eq!(
            cli.baseline.as_deref(),
            Some(std::path::Path::new("base.json"))
        );
        assert_eq!(
            cli.write_baseline.as_deref(),
            Some(std::path::Path::new("new.json"))
        );
    }

    #[test]
    fn format_values_are_validated() {
        assert_eq!(parse(&["--format", "md"]).unwrap().format, Format::Markdown);
        assert_eq!(
            parse(&["--format", "markdown"]).unwrap().format,
            Format::Markdown
        );
        assert!(parse(&["--format", "xml"])
            .unwrap_err()
            .contains("unknown format"));
        assert!(parse(&["--format"]).unwrap_err().contains("requires"));
    }

    #[test]
    fn jobs_and_seed_are_validated() {
        assert!(parse(&["--jobs", "0"]).unwrap_err().contains("at least 1"));
        assert!(parse(&["--jobs", "two"])
            .unwrap_err()
            .contains("positive integer"));
        assert!(parse(&["--shards", "0"])
            .unwrap_err()
            .contains("at least 1"));
        assert!(parse(&["--shards", "four"])
            .unwrap_err()
            .contains("positive integer"));
        assert!(parse(&["--shards"]).unwrap_err().contains("requires"));
        // Both count threads started at once: capped, and the cap itself
        // is accepted.
        for flag in ["--jobs", "--shards"] {
            assert!(parse(&[flag, "256"]).is_ok());
            for n in ["257", "100000"] {
                assert!(parse(&[flag, n]).unwrap_err().contains("at most 256"));
            }
        }
        // Every job can be in a windowed advance on every shard at once,
        // so the product is capped too, and the cap itself is accepted.
        for (jobs, shards) in [("256", "256"), ("2", "129"), ("129", "2")] {
            let err = parse(&["--jobs", jobs, "--shards", shards]).unwrap_err();
            assert!(err.contains("more than 256"), "{jobs} x {shards}: {err}");
        }
        for (jobs, shards) in [("1", "256"), ("256", "1"), ("16", "16"), ("2", "128")] {
            assert!(parse(&["--jobs", jobs, "--shards", shards]).is_ok());
        }
        assert!(parse(&["--seed", "-3"])
            .unwrap_err()
            .contains("unsigned integer"));
        // A run report holds the seed as an f64: 2^53 is the last seed it
        // records exactly. Sweeps (decimal strings) and the socket demos
        // (no report) take the whole u64 range.
        assert_eq!(
            parse(&["--seed", "9007199254740992"]).unwrap().seed,
            Some(1 << 53)
        );
        for seed in ["9007199254740993", "18446744073709551615"] {
            assert!(parse(&["--quick", "--exp", "E16", "--seed", seed])
                .unwrap_err()
                .contains("above 2^53"));
            assert!(parse(&["--seed", seed, "--sweep", "E19:partition_frac=0.1..0.5:3"]).is_ok());
            assert!(parse(&["--probe", "--seed", seed]).is_ok());
        }
    }

    #[test]
    fn exp_list_parses_and_trims() {
        let cli = parse(&["--exp", "E7, E12 ,E1"]).unwrap();
        assert_eq!(
            cli.selected,
            Some(vec!["E7".to_string(), "E12".to_string(), "E1".to_string()])
        );
        // Ids are case-insensitive: `--exp e19` is the documented form too.
        let cli = parse(&["--exp", "e19,e7"]).unwrap();
        assert_eq!(
            cli.selected,
            Some(vec!["E19".to_string(), "E7".to_string()])
        );
        // A repeated id (in any case) would run and report it twice.
        let err = parse(&["--exp", "E10,E7,e10"]).unwrap_err();
        assert!(err.contains("E10 more than once"), "{err}");
    }

    #[test]
    fn a_second_exp_adds_to_the_first() {
        let cli = parse(&["--quick", "--exp", "E1", "--exp", "E3,E7"]).unwrap();
        assert_eq!(
            cli.selected,
            Some(vec!["E1".to_string(), "E3".to_string(), "E7".to_string()])
        );
    }

    #[test]
    fn an_id_repeated_across_exp_flags_is_an_error() {
        let err = parse(&["--exp", "E1", "--exp", "e1"]).unwrap_err();
        assert!(err.contains("--exp names E1 more than once"), "{err}");
    }

    #[test]
    fn exp_cannot_write_a_partial_baseline() {
        let err = parse(&["--exp", "E10", "--write-baseline", "b.json"]).unwrap_err();
        assert!(err.contains("--exp cannot be combined"), "{err}");
        assert!(parse(&["--write-baseline", "b.json"]).is_ok());
        assert!(parse(&["--exp", "E10", "--baseline", "b.json"]).is_ok());
    }

    #[test]
    fn subset_run_is_held_to_its_own_baseline_claims() {
        let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("../../baselines/claims_quick.json");
        let mut baseline = load_baseline(&path).unwrap();
        let run = experiments::run_report(&["E10"], true, None, 1);
        let selected = vec!["E10".to_string()];
        assert_eq!(
            baseline_regressions(&run, baseline.clone(), Some(&selected)),
            Vec::<String>::new()
        );
        // Unselected, the other experiments' claims do count as missing;
        // `E1` must not select `E10.*` by prefix.
        assert!(baseline_regressions(&run, baseline.clone(), None).len() > 50);
        let e1 = vec!["E1".to_string()];
        let lines = baseline_regressions(&run, baseline.clone(), Some(&e1));
        assert!(
            lines.iter().any(|l| l.contains("`E1.kad-fast`")),
            "{lines:?}"
        );
        assert!(
            lines.iter().all(|l| !l.contains("missing claim: `E10.")),
            "{lines:?}"
        );
        // A genuine flip inside the selection is still caught, alone.
        let flipped = baseline
            .iter_mut()
            .find(|b| b.id == "E10.austria-scale")
            .expect("committed baseline has the claim");
        flipped.holds = !flipped.holds;
        let lines = baseline_regressions(&run, baseline, Some(&selected));
        assert_eq!(lines.len(), 1, "{lines:?}");
        assert!(
            lines[0].contains("verdict flip: `E10.austria-scale`"),
            "{lines:?}"
        );
    }

    #[test]
    fn unknown_experiment_id_is_rejected_up_front() {
        let err = parse(&["--exp", "E99"]).unwrap_err();
        assert!(err.contains("unknown experiment id: E99"), "{err}");
        assert!(err.contains("E1"), "error should list known ids: {err}");
        // A bad id hidden behind valid ones is still caught (ids are
        // uppercased before validation).
        let err = parse(&["--exp", "E1,Exx,E7"]).unwrap_err();
        assert!(err.contains("unknown experiment id: EXX"), "{err}");
    }

    #[test]
    fn empty_exp_list_is_rejected() {
        assert!(parse(&["--exp", ""]).unwrap_err().contains("at least one"));
        assert!(parse(&["--exp"]).unwrap_err().contains("requires"));
    }

    #[test]
    fn missing_csv_dir_is_rejected() {
        assert!(parse(&["--csv"]).unwrap_err().contains("requires"));
    }

    #[test]
    fn help_asks_for_the_usage_and_nothing_else() {
        for flag in ["--help", "-h"] {
            let help = Cli {
                help: true,
                ..Cli::default()
            };
            assert_eq!(parse(&[flag]).unwrap(), help);
            assert_eq!(parse(&["--quick", flag, "--exp", "E99"]).unwrap(), help);
        }
        // A flag's value is never read as a flag.
        let cli = parse(&["--json", "-h"]).unwrap();
        assert!(!cli.help);
        assert_eq!(cli.json_path.as_deref(), Some(std::path::Path::new("-h")));
    }

    #[test]
    fn unrecognized_argument_is_rejected() {
        assert!(parse(&["--frobnicate"])
            .unwrap_err()
            .contains("unrecognized argument"));
    }

    #[test]
    fn sweep_spec_parses() {
        let cli = parse(&["--sweep", "E19:partition_frac=0.1..0.5:3", "--quick"]).unwrap();
        let spec = cli.sweep.unwrap();
        assert_eq!(spec.exp, "E19");
        assert_eq!(spec.param, "partition_frac");
        assert_eq!((spec.lo, spec.hi, spec.steps), (0.1, 0.5, 3));
    }

    #[test]
    fn malformed_sweep_is_rejected() {
        assert!(parse(&["--sweep"]).unwrap_err().contains("requires"));
        assert!(parse(&["--sweep", "E19"])
            .unwrap_err()
            .contains("EXP:param=lo..hi:steps"));
        assert!(parse(&["--sweep", "E19:x=2..1:3"])
            .unwrap_err()
            .contains("below"));
    }

    #[test]
    fn serve_and_probe_flags_parse() {
        let cli = parse(&[
            "--serve",
            "kad",
            "--port-base",
            "43000",
            "--mesh-size",
            "12",
            "--serve-for",
            "90",
        ])
        .unwrap();
        assert_eq!(cli.serve.as_deref(), Some("kad"));
        assert_eq!(cli.port_base, Some(43000));
        assert_eq!(cli.mesh_size, Some(12));
        assert_eq!(cli.serve_for, Some(90.0));
        let cli = parse(&["--probe", "--probe-timeout", "15"]).unwrap();
        assert!(cli.probe);
        assert_eq!(cli.probe_timeout, Some(15.0));
    }

    #[test]
    fn serve_probe_validation() {
        assert!(parse(&["--serve", "pbft"])
            .unwrap_err()
            .contains("unknown --serve protocol"));
        assert!(parse(&["--serve"]).unwrap_err().contains("requires"));
        assert!(parse(&["--serve", "kad", "--probe"])
            .unwrap_err()
            .contains("pick one"));
        // `main` returns before it reads any run or report flag, so each
        // one is refused rather than silently ignored.
        for flags in [
            &["--exp", "E7"][..],
            &["--shards", "2"],
            &["--jobs", "2"],
            &["--json", "r.json"],
            &["--csv", "out"],
            &["--summary", "s.md"],
            &["--quick"],
            &["--format", "json"],
            &["--format", "md"],
        ] {
            for mode in [&["--serve", "kad"][..], &["--probe"]] {
                let args: Vec<&str> = mode.iter().chain(flags).copied().collect();
                let err = parse(&args).unwrap_err();
                assert!(err.contains("cannot be combined"), "{args:?}: {err}");
            }
        }
        // Each reads its own timeout flag, not the other's.
        assert!(parse(&["--serve", "kad", "--probe-timeout", "5"]).is_err());
        assert!(parse(&["--probe", "--serve-for", "5"]).is_err());
        assert!(parse(&["--port-base", "0"])
            .unwrap_err()
            .contains("nonzero"));
        assert!(parse(&["--mesh-size", "1"])
            .unwrap_err()
            .contains("at least 2"));
        assert!(parse(&["--serve-for", "-1"])
            .unwrap_err()
            .contains("positive"));
        assert!(parse(&["--probe-timeout", "0"])
            .unwrap_err()
            .contains("positive"));
    }

    /// A writer whose every write fails, as stdout on a full disk does.
    struct Full;

    impl Write for Full {
        fn write(&mut self, _: &[u8]) -> io::Result<usize> {
            Err(io::Error::new(io::ErrorKind::StorageFull, "no space left"))
        }

        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn a_failing_writer_is_an_error_not_a_panic() {
        let run = RunReport {
            mode: "quick".to_string(),
            runs: Vec::new(),
        };
        for format in [Format::Markdown, Format::Json] {
            let err = write_report(&mut Full, &run, format, 1).unwrap_err();
            assert_eq!(err.kind(), io::ErrorKind::StorageFull, "{format:?}");
            let mut text = Vec::new();
            write_report(&mut text, &run, format, 1).unwrap();
            assert!(!text.is_empty(), "{format:?}");
        }
        assert!(write_claims(&mut Full).is_err());
        assert!(write_list(&mut Full).is_err());
    }

    #[test]
    fn point_runs_and_sweeps_refuse_the_socket_demo_flags() {
        // Only `--serve` and `--probe` read these; `main` never does on a
        // report run or a sweep, so each is refused, not ignored.
        for flag in [
            &["--port-base", "43000"][..],
            &["--mesh-size", "12"],
            &["--serve-for", "5"],
            &["--probe-timeout", "5"],
        ] {
            for mode in [
                &[][..],
                &["--quick", "--exp", "E16"],
                &["--sweep", "E4:session_mins=5..60:2"],
            ] {
                let args: Vec<&str> = mode.iter().chain(flag).copied().collect();
                let err = parse(&args).unwrap_err();
                assert!(err.contains("cannot be combined"), "{args:?}: {err}");
                assert!(err.contains(flag[0]), "{args:?}: {err}");
            }
        }
        assert!(parse(&["--quick", "--exp", "E16", "--seed", "3"]).is_ok());
    }

    #[test]
    fn sweep_conflicts_with_point_run_flags() {
        for flags in [
            vec!["--sweep", "E4:session_mins=5..60:2", "--exp", "E4"],
            vec!["--sweep", "E4:session_mins=5..60:2", "--csv", "out"],
            vec!["--sweep", "E4:session_mins=5..60:2", "--baseline", "b.json"],
            vec![
                "--sweep",
                "E4:session_mins=5..60:2",
                "--write-baseline",
                "b.json",
            ],
        ] {
            let err = parse(&flags).unwrap_err();
            assert!(err.contains("cannot be combined"), "{flags:?}: {err}");
        }
    }
}
