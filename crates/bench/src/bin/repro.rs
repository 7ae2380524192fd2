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
//! repro [FLAG]...
//! repro --help | -h      # every flag, its value and the modes that read it
//! ```
//!
//! A command line is a report run unless one mode flag (`--sweep`,
//! `--list`, `--claims`, `--serve kad`, `--probe`) picks another mode.
//! Each flag is declared once, in [`FLAGS`], with the modes that read
//! it; parsing, `--help` and the refusals all come from that table, so a
//! flag the chosen mode would not read is refused, never ignored.
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
use std::str::FromStr;

use decent_overlay::id::Key;
use decent_overlay::kadnet;
use decent_sim::prelude::{SimDuration, SimTime};

use decent_core::report::{diff_verdicts, verdicts_from_json, ClaimVerdict, RunReport};
use decent_core::scenario::ExecPolicy;
use decent_core::sensitivity::{run_sweep, SweepSpec};
use decent_core::{claims, experiments, scenario};
use decent_sim::json::Json;

/// The most operating-system threads a run starts at once: `--jobs`
/// experiments, each of which can be in a windowed advance that spawns
/// one thread per shard (empty shards included). It caps `--jobs`,
/// `--shards` and their product, so neither a typo like
/// `--shards 100000` nor `--jobs 256 --shards 256` asks the host for
/// tens of thousands of threads.
const MAX_THREADS: usize = 256;

/// The largest `--mesh-size`, held to the same thread budget. A served
/// mesh of `n` nodes runs one accept thread per node and one timer
/// thread; a probe dials each node once, which adds one read thread per
/// node on the serving side (the probe's own process runs `n + 2`). Mesh
/// nodes answer over the connection they were dialled on and never dial
/// each other, so serving one probe takes `2n + 1` threads: 255 at
/// `n = 127`.
const MAX_MESH_SIZE: usize = (MAX_THREADS - 1) / 2;

/// Output format for stdout.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
enum Format {
    /// Human-readable markdown reports (the default).
    #[default]
    Markdown,
    /// The canonical JSON run report.
    Json,
}

/// What a command line asks for: a report run unless a mode flag picks
/// another. Each row of [`FLAGS`] names the modes that read it.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
enum Mode {
    #[default]
    Report,
    Sweep,
    List,
    Claims,
    Serve,
    Probe,
    /// `--help` / `-h`: print the usage to stdout and exit 0.
    Help,
}

impl Mode {
    /// How refusals and the usage name the mode.
    fn name(self) -> &'static str {
        match self {
            Mode::Report => "a report run",
            Mode::Sweep => "--sweep",
            Mode::List => "--list",
            Mode::Claims => "--claims",
            Mode::Serve => "--serve",
            Mode::Probe => "--probe",
            Mode::Help => "--help",
        }
    }
}

/// Parsed command line.
#[derive(Debug, Default, PartialEq)]
struct Cli {
    mode: Mode,
    quick: bool,
    /// `None` means "all experiments".
    selected: Option<Vec<String>>,
    csv_dir: Option<std::path::PathBuf>,
    json_path: Option<std::path::PathBuf>,
    format: Format,
    summary_path: Option<std::path::PathBuf>,
    jobs: Option<usize>,
    shards: Option<usize>,
    seed: Option<u64>,
    baseline: Option<std::path::PathBuf>,
    write_baseline: Option<std::path::PathBuf>,
    sweep: Option<SweepSpec>,
    /// First localhost port of the mesh (nodes bind base, base+1, ...).
    port_base: Option<u16>,
    /// Number of mesh nodes.
    mesh_size: Option<usize>,
    /// Serve window in wall-clock seconds.
    serve_for: Option<f64>,
    /// Probe lookup deadline in wall-clock seconds.
    probe_timeout: Option<f64>,
}

impl Cli {
    /// The socket demos' seed, first port and node count, defaults
    /// filled in.
    fn mesh(&self) -> (u64, u16, usize) {
        (
            self.seed.unwrap_or(42),
            self.port_base.unwrap_or(42810),
            self.mesh_size.unwrap_or(8),
        )
    }
}

/// What follows a flag on the command line.
enum Takes {
    Nothing,
    /// One value, named by this metavar; the flag may be given once.
    One(&'static str),
    /// One value per occurrence; each adds to the ones before.
    Repeatable(&'static str),
}
use Takes::{Nothing, One, Repeatable};

/// One command-line flag: how it is spelled, what follows it and which
/// modes read it. Every other mode refuses it.
struct Flag {
    name: &'static str,
    takes: Takes,
    reads: &'static [Mode],
}

const fn flag(name: &'static str, takes: Takes, reads: &'static [Mode]) -> Flag {
    Flag { name, takes, reads }
}

const RUNS: &[Mode] = &[Mode::Report, Mode::Sweep];
const REPORT: &[Mode] = &[Mode::Report];
const SEEDED: &[Mode] = &[Mode::Report, Mode::Sweep, Mode::Serve, Mode::Probe];
const DEMOS: &[Mode] = &[Mode::Serve, Mode::Probe];

/// Every flag `repro` takes, in `--help` order; [`store`] keeps each
/// one's value.
const FLAGS: &[Flag] = &[
    flag("--quick", Nothing, RUNS),
    flag("--exp", Repeatable("E1,E2,..."), REPORT),
    flag("--csv", One("DIR"), REPORT),
    flag("--json", One("PATH"), RUNS),
    flag("--format", One("md|json"), RUNS),
    flag("--summary", One("PATH"), RUNS),
    flag("--jobs", One("N"), RUNS),
    flag("--shards", One("N"), RUNS),
    flag("--seed", One("N"), SEEDED),
    flag("--baseline", One("PATH"), REPORT),
    flag("--write-baseline", One("PATH"), REPORT),
    flag("--sweep", One("EXP:param=lo..hi:steps"), &[Mode::Sweep]),
    flag("--list", Nothing, &[Mode::List]),
    flag("--claims", Nothing, &[Mode::Claims]),
    flag("--serve", One("kad"), &[Mode::Serve]),
    flag("--probe", Nothing, &[Mode::Probe]),
    flag("--port-base", One("PORT"), DEMOS),
    flag("--mesh-size", One("N"), DEMOS),
    flag("--serve-for", One("SECS"), &[Mode::Serve]),
    flag("--probe-timeout", One("SECS"), &[Mode::Probe]),
];

/// Keeps `flag`'s value (`""` for a switch) in the command line.
fn store(cli: &mut Cli, flag: &str, value: &str) -> Result<(), String> {
    match flag {
        "--quick" => cli.quick = true,
        "--exp" => add_experiments(cli, value)?,
        "--csv" => cli.csv_dir = Some(value.into()),
        "--json" => cli.json_path = Some(value.into()),
        "--format" if value == "md" || value == "markdown" => cli.format = Format::Markdown,
        "--format" if value == "json" => cli.format = Format::Json,
        "--format" => return Err(format!("unknown format: {value} (expected md or json)")),
        "--summary" => cli.summary_path = Some(value.into()),
        "--jobs" => cli.jobs = Some(count(flag, value, 1, MAX_THREADS)?),
        "--shards" => cli.shards = Some(count(flag, value, 1, MAX_THREADS)?),
        "--seed" => cli.seed = Some(number(flag, value, "an unsigned integer", |_| true)?),
        "--baseline" => cli.baseline = Some(value.into()),
        "--write-baseline" => cli.write_baseline = Some(value.into()),
        "--sweep" => {
            select(cli, Mode::Sweep)?;
            cli.sweep = Some(SweepSpec::parse(value)?);
        }
        "--list" => select(cli, Mode::List)?,
        "--claims" => select(cli, Mode::Claims)?,
        "--serve" if value == "kad" => select(cli, Mode::Serve)?,
        "--serve" => return Err(format!("unknown --serve protocol: {value} (expected kad)")),
        "--probe" => select(cli, Mode::Probe)?,
        "--port-base" => {
            cli.port_base = Some(number(flag, value, "a nonzero port number", |&p| p != 0)?);
        }
        "--mesh-size" => cli.mesh_size = Some(count(flag, value, 2, MAX_MESH_SIZE)?),
        "--serve-for" => cli.serve_for = Some(seconds(flag, value)?),
        "--probe-timeout" => cli.probe_timeout = Some(seconds(flag, value)?),
        _ => unreachable!("{flag} is in FLAGS but not stored"),
    }
    Ok(())
}

/// Parses `flag`'s value as a `T` that `ok` accepts; `what` says in the
/// refusal what it accepts.
fn number<T: FromStr>(
    flag: &str,
    value: &str,
    what: &str,
    ok: impl Fn(&T) -> bool,
) -> Result<T, String> {
    match value.parse() {
        Ok(n) if ok(&n) => Ok(n),
        _ => Err(format!("{flag} expects {what}, got {value}")),
    }
}

/// A count in `lo..=hi`.
fn count(flag: &str, value: &str, lo: usize, hi: usize) -> Result<usize, String> {
    let what = format!("a positive integer (at least {lo}, at most {hi})");
    number(flag, value, &what, |n| (lo..=hi).contains(n))
}

/// Wall-clock seconds: finite and above zero, so that they convert to a
/// `SimDuration`.
fn seconds(flag: &str, value: &str) -> Result<f64, String> {
    let ok = |s: &f64| s.is_finite() && *s > 0.0;
    number(flag, value, "a positive, finite number of seconds", ok)
}

/// `--exp`: adds the comma-separated ids, each checked against the
/// registry, to the selection.
fn add_experiments(cli: &mut Cli, list: &str) -> Result<(), String> {
    let ids: Vec<String> = list
        .split(',')
        .map(|s| s.trim().to_ascii_uppercase())
        .filter(|s| !s.is_empty())
        .collect();
    if ids.is_empty() {
        return Err("--exp requires at least one experiment id".into());
    }
    let known = scenario::ids();
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
    Ok(())
}

/// A mode flag: picks `mode`, unless another mode flag already picked a
/// different one.
fn select(cli: &mut Cli, mode: Mode) -> Result<(), String> {
    if cli.mode != Mode::Report && cli.mode != mode {
        let (picked, asked) = (cli.mode.name(), mode.name());
        return Err(format!("{picked} and {asked} are two modes; pick one"));
    }
    cli.mode = mode;
    Ok(())
}

/// The `--help` text, made from [`FLAGS`]: every flag, its value and the
/// modes that read it.
fn usage() -> String {
    let mut text = String::from(
        "usage: repro [FLAG]...\n\
         A report run unless --sweep, --list, --claims, --serve or --probe picks another mode.\n\
         Each flag is read by the modes named beside it; any other mode refuses it.\n",
    );
    for flag in FLAGS {
        let spelled = match flag.takes {
            Nothing => flag.name.to_string(),
            One(metavar) => format!("{} {metavar}", flag.name),
            Repeatable(metavar) => format!("{} {metavar} (repeatable)", flag.name),
        };
        let modes: Vec<&str> = flag.reads.iter().map(|m| m.name()).collect();
        text += &format!("  {spelled:<34} {}\n", modes.join(", "));
    }
    text + "  --help, -h                         print this and exit\n"
}

/// Parses and validates arguments. Experiment ids are checked against the
/// experiment registry up front, so a typo like `--exp E99` fails before
/// any (potentially minutes-long) experiment runs rather than mid-report.
fn parse_args(args: impl IntoIterator<Item = String>) -> Result<Cli, String> {
    let mut cli = Cli::default();
    let mut given: Vec<&Flag> = Vec::new();
    let mut args = args.into_iter();
    while let Some(arg) = args.next() {
        if arg == "--help" || arg == "-h" {
            return Ok(Cli {
                mode: Mode::Help,
                ..Cli::default()
            });
        }
        let flag = FLAGS
            .iter()
            .find(|f| f.name == arg)
            .ok_or_else(|| format!("unrecognized argument: {arg}"))?;
        let value = match flag.takes {
            Nothing => String::new(),
            One(metavar) | Repeatable(metavar) => args
                .next()
                .ok_or_else(|| format!("{arg} requires a value ({metavar})"))?,
        };
        if matches!(flag.takes, One(_)) && given.iter().any(|g| g.name == arg) {
            return Err(format!("{arg} is given twice; it takes one value"));
        }
        store(&mut cli, flag.name, &value)?;
        given.push(flag);
    }
    if let Some(flag) = given.iter().find(|f| !f.reads.contains(&cli.mode)) {
        let mode = cli.mode.name();
        return Err(format!("{mode} cannot be combined with {}", flag.name));
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
    let report = cli.mode == Mode::Report;
    if let Some(seed) = cli.seed.filter(|&s| report && s > MAX_REPORT_SEED) {
        return Err(format!(
            "--seed {seed} is above 2^53 ({MAX_REPORT_SEED}), the largest seed a run report records exactly"
        ));
    }
    if matches!(cli.mode, Mode::Serve | Mode::Probe) {
        let (_, port_base, n) = cli.mesh();
        let last = usize::from(port_base) + n - 1;
        if last > usize::from(u16::MAX) {
            return Err(format!(
                "--port-base {port_base} with --mesh-size {n} overflows the port range: \
                 the last node would need port {last}"
            ));
        }
    }
    Ok(cli)
}

/// Demo target key: any fixed key works; the probe checks the
/// discovered set against the roster's true k-closest to this key.
const DEMO_TARGET: u64 = 0xDECE_2019;

/// The mesh's addresses; `parse_args` has checked that they fit the
/// port range.
fn mesh_addrs(port_base: u16, n: usize) -> Vec<SocketAddr> {
    (0..n)
        .map(|i| SocketAddr::from(([127, 0, 0, 1], port_base + i as u16)))
        .collect()
}

/// `--serve kad`: host a TCP-backed Kademlia mesh on localhost and
/// answer real-socket lookups until the serve window elapses.
fn run_serve(cli: &Cli) -> Result<(), String> {
    let (seed, port_base, n) = cli.mesh();
    let serve_for = cli.serve_for.unwrap_or(60.0);
    let cfg = kadnet::demo_config();
    let mut mesh = kadnet::serve_mesh(seed, n, &cfg, &mesh_addrs(port_base, n))
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
fn run_probe(cli: &Cli) -> Result<(), String> {
    let (seed, port_base, n) = cli.mesh();
    let timeout = cli.probe_timeout.unwrap_or(30.0);
    let cfg = kadnet::demo_config();
    let addrs = mesh_addrs(port_base, n);
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

/// Reports an error that is not the command line's: exit 1.
fn fail(msg: String) -> ExitCode {
    eprintln!("repro: {msg}");
    ExitCode::FAILURE
}

fn main() -> ExitCode {
    let cli = match parse_args(std::env::args().skip(1)) {
        Ok(cli) => cli,
        Err(msg) => {
            eprintln!("repro: {msg}");
            eprint!("{}", usage());
            return ExitCode::from(2);
        }
    };
    let outcome = match cli.mode {
        Mode::Report | Mode::Sweep => return run(&cli).unwrap_or_else(fail),
        Mode::Help => to_stdout(|out| out.write_all(usage().as_bytes())),
        Mode::Serve => run_serve(&cli),
        Mode::Probe => run_probe(&cli),
        Mode::Claims => to_stdout(write_claims),
        Mode::List => to_stdout(write_list),
    };
    outcome.map_or_else(fail, |()| ExitCode::SUCCESS)
}

/// Writes `text` to the file at `path`.
fn write_file(path: &std::path::Path, text: impl AsRef<[u8]>) -> Result<(), String> {
    std::fs::write(path, text).map_err(|e| format!("cannot write {}: {e}", path.display()))
}

/// A report run or a sweep: the experiments fanned out over `--jobs`.
/// `Err` is an output that cannot be written.
fn run(cli: &Cli) -> Result<ExitCode, String> {
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
                return Ok(ExitCode::from(2));
            }
        };
        let text = match cli.format {
            Format::Markdown => sweep.to_markdown(),
            Format::Json => sweep.to_json_text(),
        };
        to_stdout(|out| out.write_all(text.as_bytes()))?;
        if let Some(path) = &cli.json_path {
            write_file(path, sweep.to_json_text())?;
        }
        if let Some(path) = &cli.summary_path {
            write_file(path, sweep.to_markdown())?;
        }
        return Ok(ExitCode::SUCCESS);
    }
    let ids: Vec<String> = cli
        .selected
        .clone()
        .unwrap_or_else(|| scenario::ids().iter().map(|s| s.to_string()).collect());
    let id_refs: Vec<&str> = ids.iter().map(String::as_str).collect();

    let run = experiments::run_report_exec(&id_refs, cli.quick, cli.seed, jobs, exec);

    to_stdout(|out| write_report(out, &run, cli.format, jobs))?;
    if let Some(dir) = &cli.csv_dir {
        std::fs::create_dir_all(dir)
            .map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
        for r in &run.runs {
            for (i, table) in r.report.tables.iter().enumerate() {
                let name = format!("{}_{}.csv", r.report.id.to_lowercase(), i);
                write_file(&dir.join(name), table.to_csv())?;
            }
        }
    }
    if let Some(path) = &cli.json_path {
        write_file(path, run.to_json_text())?;
    }
    if let Some(path) = &cli.summary_path {
        write_file(path, run.claims_markdown())?;
    }
    if let Some(path) = &cli.write_baseline {
        write_file(path, run.baseline_json().to_string_pretty())?;
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
                return Ok(ExitCode::from(2));
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
    Ok(ExitCode::from(u8::from(failed)))
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
        assert_eq!(parse(&["--claims"]).unwrap().mode, Mode::Claims);
        assert_eq!(parse(&["--list"]).unwrap().mode, Mode::List);
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
                mode: Mode::Help,
                ..Cli::default()
            };
            assert_eq!(parse(&[flag]).unwrap(), help);
            assert_eq!(parse(&["--quick", flag, "--exp", "E99"]).unwrap(), help);
        }
        // A flag's value is never read as a flag.
        let cli = parse(&["--json", "-h"]).unwrap();
        assert_eq!(cli.mode, Mode::Report);
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
        assert_eq!(cli.mode, Mode::Serve);
        assert_eq!(cli.port_base, Some(43000));
        assert_eq!(cli.mesh_size, Some(12));
        assert_eq!(cli.serve_for, Some(90.0));
        let cli = parse(&["--probe", "--probe-timeout", "15"]).unwrap();
        assert_eq!(cli.mode, Mode::Probe);
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

    /// Every flag, with a value its readers accept.
    const EVERY_FLAG: [&[&str]; 16] = [
        &["--quick"],
        &["--exp", "E4"],
        &["--csv", "out"],
        &["--json", "r.json"],
        &["--format", "json"],
        &["--format", "md"],
        &["--summary", "s.md"],
        &["--jobs", "2"],
        &["--shards", "2"],
        &["--seed", "3"],
        &["--baseline", "b.json"],
        &["--write-baseline", "b.json"],
        &["--port-base", "43000"],
        &["--mesh-size", "12"],
        &["--serve-for", "5"],
        &["--probe-timeout", "5"],
    ];

    /// Each mode's name in refusals, the arguments that select it, and
    /// the flags `main` reads in it, written out from `main` rather than
    /// taken from `FLAGS`.
    const EVERY_MODE: [(&str, &[&str], &[&str]); 6] = [
        (
            "a report run",
            &[],
            &[
                "--quick",
                "--exp",
                "--csv",
                "--json",
                "--format",
                "--summary",
                "--jobs",
                "--shards",
                "--seed",
                "--baseline",
                "--write-baseline",
            ],
        ),
        (
            "--sweep",
            &["--sweep", "E4:session_mins=5..60:2"],
            &[
                "--quick",
                "--json",
                "--format",
                "--summary",
                "--jobs",
                "--shards",
                "--seed",
            ],
        ),
        ("--list", &["--list"], &[]),
        ("--claims", &["--claims"], &[]),
        (
            "--serve",
            &["--serve", "kad"],
            &["--seed", "--port-base", "--mesh-size", "--serve-for"],
        ),
        (
            "--probe",
            &["--probe"],
            &["--seed", "--port-base", "--mesh-size", "--probe-timeout"],
        ),
    ];

    #[test]
    fn every_flag_is_accepted_exactly_by_the_modes_that_read_it() {
        for (mode, select, reads) in EVERY_MODE {
            assert!(parse(select).is_ok(), "{select:?}");
            for flag in EVERY_FLAG {
                // The mode flag may come before or after the flag.
                for args in [[select, flag].concat(), [flag, select].concat()] {
                    match parse(&args) {
                        Ok(_) => assert!(reads.contains(&flag[0]), "{args:?} is accepted"),
                        Err(err) if reads.contains(&flag[0]) => panic!("{args:?}: {err}"),
                        Err(err) => assert_eq!(
                            err,
                            format!("{mode} cannot be combined with {}", flag[0]),
                            "{args:?}"
                        ),
                    }
                }
            }
        }
        // Two mode flags are two modes; a mode switch given twice is one.
        for (a, select_a, _) in EVERY_MODE.into_iter().skip(1) {
            for (b, select_b, _) in EVERY_MODE.into_iter().skip(1) {
                let args = [select_a, select_b].concat();
                match parse(&args) {
                    Ok(_) => assert!(a == b && select_a.len() == 1, "{args:?} is accepted"),
                    Err(err) if a == b => assert!(err.contains("given twice"), "{args:?}: {err}"),
                    Err(err) => assert!(err.contains("pick one"), "{args:?}: {err}"),
                }
            }
        }
    }

    #[test]
    fn list_and_claims_take_no_other_flag() {
        let err = parse(&["--list", "--claims"]).unwrap_err();
        assert!(err.contains("pick one"), "{err}");
        // `main` prints the catalog and returns before it reads any of
        // these, so each is refused rather than silently ignored.
        for args in [
            &["--quick", "--list"][..],
            &["--claims", "--exp", "E7"],
            &["--list", "--format", "json"],
            &["--claims", "--seed", "3"],
            &["--list", "--port-base", "43000"],
        ] {
            let err = parse(args).unwrap_err();
            assert!(err.contains("cannot be combined"), "{args:?}: {err}");
        }
        // With several refused flags, the first given is named.
        for (args, first) in [
            (
                &["--list", "--json", "l.json", "--shards", "2"][..],
                "--json",
            ),
            (&["--claims", "--csv", "out", "--summary", "s.md"], "--csv"),
        ] {
            let err = parse(args).unwrap_err();
            assert!(
                err.ends_with(&format!("cannot be combined with {first}")),
                "{err}"
            );
        }
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
            for (mode, select) in [
                ("a report run", &[][..]),
                // A report run with an experiment chosen is still a
                // report run.
                ("a report run", &["--quick", "--exp", "E16"]),
                ("--sweep", &["--sweep", "E4:session_mins=5..60:2"]),
            ] {
                let args = [select, flag].concat();
                let err = parse(&args).unwrap_err();
                assert_eq!(
                    err,
                    format!("{mode} cannot be combined with {}", flag[0]),
                    "{args:?}"
                );
            }
        }
        assert!(parse(&["--quick", "--exp", "E16", "--seed", "3"]).is_ok());
    }

    #[test]
    fn sweep_conflicts_with_point_run_flags() {
        for flag in [
            &["--exp", "E4"][..],
            &["--csv", "out"],
            &["--baseline", "b.json"],
            &["--write-baseline", "b.json"],
        ] {
            let args = [&["--sweep", "E4:session_mins=5..60:2"][..], flag].concat();
            let err = parse(&args).unwrap_err();
            assert_eq!(
                err,
                format!("--sweep cannot be combined with {}", flag[0]),
                "{args:?}"
            );
        }
    }

    #[test]
    fn help_names_every_flag_and_the_modes_that_read_it() {
        let text = usage();
        for flag in FLAGS {
            let line = text
                .lines()
                .find(|l| l.split_whitespace().next() == Some(flag.name))
                .unwrap_or_else(|| panic!("--help does not name {}:\n{text}", flag.name));
            for mode in flag.reads {
                assert!(line.contains(mode.name()), "{line}");
            }
        }
        assert!(text.contains("--help, -h"), "{text}");
    }

    #[test]
    fn a_value_flag_given_twice_is_refused() {
        let err = parse(&[
            "--quick", "--exp", "E16", "--seed", "3", "--seed", "4", "--format", "md", "--format",
            "json",
        ])
        .unwrap_err();
        assert!(err.contains("--seed is given twice"), "{err}");
        for flag in EVERY_FLAG
            .into_iter()
            .filter(|f| f.len() == 2 && f[0] != "--exp")
        {
            let select: &[&str] = match flag[0] {
                "--serve-for" => &["--serve", "kad"],
                "--probe-timeout" | "--port-base" | "--mesh-size" => &["--probe"],
                _ => &[],
            };
            let args = [select, flag, flag].concat();
            let err = parse(&args).unwrap_err();
            assert!(
                err.contains(&format!("{} is given twice", flag[0])),
                "{args:?}: {err}"
            );
        }
        for mode in ["--sweep", "--serve"] {
            let value = if mode == "--serve" {
                "kad"
            } else {
                "E4:session_mins=5..60:2"
            };
            let err = parse(&[mode, value, mode, value]).unwrap_err();
            assert!(err.contains(&format!("{mode} is given twice")), "{err}");
        }
        // A switch given twice asks for the same thing twice.
        assert!(parse(&["--quick", "--quick"]).unwrap().quick);
        assert_eq!(parse(&["--probe", "--probe"]).unwrap().mode, Mode::Probe);
    }

    #[test]
    fn seconds_must_be_finite() {
        for (select, flag) in [
            (&["--serve", "kad"][..], "--serve-for"),
            (&["--probe"], "--probe-timeout"),
        ] {
            for secs in ["inf", "-inf", "infinity", "NaN", "1e400", "0", "-1"] {
                let args = [select, &[flag, secs]].concat();
                let err = parse(&args).unwrap_err();
                assert!(err.contains("positive, finite"), "{args:?}: {err}");
            }
            let args = [select, &[flag, "0.5"]].concat();
            assert!(parse(&args).is_ok(), "{args:?}");
        }
    }

    #[test]
    fn the_mesh_must_fit_the_port_range() {
        // The last node binds port-base + mesh-size - 1, which may be 65535.
        for (select, base, size, fits) in [
            (&["--probe"][..], "65534", Some("2"), true),
            (&["--probe"], "65535", Some("2"), false),
            (&["--serve", "kad"], "65534", Some("2"), true),
            (&["--serve", "kad"], "65535", Some("2"), false),
            // The default mesh has 8 nodes.
            (&["--probe"], "65528", None, true),
            (&["--serve", "kad"], "65529", None, false),
        ] {
            let mut args = [select, &["--port-base", base]].concat();
            args.extend(size.map(|n| ["--mesh-size", n]).into_iter().flatten());
            match parse(&args) {
                Ok(_) => assert!(fits, "{args:?} is accepted"),
                Err(err) => {
                    assert!(!fits, "{args:?}: {err}");
                    assert!(err.contains("overflows the port range"), "{err}");
                }
            }
        }
        // The default port base fits the largest mesh.
        assert!(parse(&["--serve", "kad", "--mesh-size", "127"]).is_ok());
    }

    #[test]
    fn mesh_size_is_capped_by_the_thread_budget() {
        // Refused at the parser: no mesh of this size is ever started.
        assert_eq!(MAX_MESH_SIZE, 127);
        for size in ["128", "100000"] {
            for select in [&["--serve", "kad"][..], &["--probe"]] {
                let args = [select, &["--mesh-size", size]].concat();
                let err = parse(&args).unwrap_err();
                assert!(err.contains("at most 127"), "{args:?}: {err}");
            }
        }
        assert_eq!(
            parse(&["--probe", "--mesh-size", "127"]).unwrap().mesh_size,
            Some(127)
        );
    }
}
