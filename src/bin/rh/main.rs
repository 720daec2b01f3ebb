//! `rh` — the one command line: every paper table and figure
//! (`rh <experiment|all|list> [quick|paper|full]`), and the `export`,
//! `timeline`, `fleet`, `redteam` and `exploit` subcommands, whose
//! usage lines are in [`COMMANDS`] and which `rh <subcommand> --help`
//! prints.
//!
//! The experiments are `rh_harness::experiments::ALL`; a full
//! regeneration is one command: `rh all paper`.  `rh export` writes the
//! plotting series into `results/` by default; the other subcommands
//! write under `target/<subcommand>/`.
//!
//! Every command line goes through [`args::Spec`]: flags are written
//! `--name value` or `--name=value` and may come anywhere, positionals
//! keep their order.  A flag the subcommand does not take, a missing or
//! unparsable value, a flag given twice or an extra positional prints
//! the error and the usage line on stderr, nothing on stdout, and exits
//! 2.  Every JSON report is read back and compared with the run before
//! it is reported ([`write_checked_json`]).  A reader that closes stdout
//! early (`rh fleet --quick | head -1`) stops the command quietly with
//! exit 0.  `RH_WORKERS` sets the worker count (unset or 0: one per
//! core); no output depends on it except the fleet header, which names
//! it.

mod args;

use args::{Args, Spec};
use rh_exploit::{run_campaign, CampaignConfig};
use rh_fleet::{cohort_frontiers, CampaignSpec, CohortSpec, Fleet, FleetReport, WorkloadKind};
use rh_harness::experiments::{fig4, flooding, latency, write_reports, ALL};
use rh_harness::{
    parallel, report, scenario, BackendSpec, ExperimentScale, RunConfig, Runner, TimeSeriesRecorder,
};
use rh_hwmodel::Technique;
use rh_redteam::{run_search, SearchConfig};
use std::fs::File;
use std::io::{self, Write};
use std::num::NonZeroU64;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

/// Where every subcommand prints.
type Out = io::StdoutLock<'static>;

/// Why a subcommand stopped early.
enum Failure {
    /// A command line the subcommand does not take: exit 2.
    Usage(String),
    /// A run, a file, a self-check or printing failed: exit 1.
    Run(String),
    /// The reader closed stdout: it wants no more output, and that is
    /// not a failure.
    Closed,
}

/// A failed print to stdout.
impl From<io::Error> for Failure {
    fn from(err: io::Error) -> Self {
        match err.kind() {
            io::ErrorKind::BrokenPipe => Failure::Closed,
            _ => Failure::Run(err.to_string()),
        }
    }
}

/// A failed file operation, naming the file.
fn cannot<'a>(action: &'static str, path: &'a Path) -> impl FnOnce(io::Error) -> Failure + 'a {
    move |err| Failure::Run(format!("cannot {action} {}: {err}", path.display()))
}

/// A subcommand: the word that selects it, its command line and what it
/// runs.
struct Command {
    name: &'static str,
    spec: Spec,
    run: fn(&Args, &mut Out) -> Result<(), Failure>,
}

/// `rh <experiment|all|list> [scale]`, the command when no subcommand
/// word is given.
const EXPERIMENTS: Command = Command {
    name: "",
    spec: Spec {
        usage: "usage: rh <experiment|all|list> [quick|paper|full]",
        options: &[],
        switches: &[],
        positionals: &["experiment", "scale"],
    },
    run: experiments,
};

/// The subcommands, each selected by its word.
const COMMANDS: &[Command] = &[
    Command {
        name: "export",
        spec: Spec {
            usage: "usage: rh export [quick|paper|full] [output-dir]",
            options: &[],
            switches: &[],
            positionals: &["scale", "output-dir"],
        },
        run: export,
    },
    Command {
        name: "timeline",
        spec: Spec {
            usage: "usage: rh timeline [quick|paper|full] [technique] [stride] [output-dir] \
                    [--attack NAME] [--backend exact|fast|cycle]",
            options: &["--attack", "--backend"],
            switches: &[],
            positionals: &["scale", "technique", "stride", "output-dir"],
        },
        run: timeline,
    },
    Command {
        name: "fleet",
        spec: Spec {
            usage: "usage: rh fleet [--quick] [--devices N] [--seed S] \
                    [--backend exact|fast|cycle] [--frontier] [output-dir]",
            options: &["--devices", "--seed", "--backend"],
            switches: &["--quick", "--frontier"],
            positionals: &["output-dir"],
        },
        run: fleet,
    },
    Command {
        name: "redteam",
        spec: Spec {
            usage: "usage: rh redteam [--quick|--thorough] [--backend exact|fast|cycle] \
                    [--seed S] [output-dir]",
            options: &["--backend", "--seed"],
            switches: &["--quick", "--thorough"],
            positionals: &["output-dir"],
        },
        run: redteam,
    },
    Command {
        name: "exploit",
        spec: Spec {
            usage: "usage: rh exploit [--quick|--thorough] [--seed S] [output-dir]",
            options: &["--seed"],
            switches: &["--quick", "--thorough"],
            positionals: &["output-dir"],
        },
        run: exploit,
    },
];

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let (command, rest) = match COMMANDS
        .iter()
        .find(|c| argv.first().map(String::as_str) == Some(c.name))
    {
        Some(command) => (command, &argv[1..]),
        None => (&EXPERIMENTS, &argv[..]),
    };
    let mut out = io::stdout().lock();
    let result = match command.spec.parse(rest) {
        Err(err) => Err(Failure::Usage(err)),
        // `rh --help` is `rh list`.
        Ok(None) if command.name.is_empty() => list(&mut out).map_err(Failure::from),
        Ok(None) => writeln!(out, "{}", command.spec.usage).map_err(Failure::from),
        Ok(Some(args)) => (command.run)(&args, &mut out),
    };
    match result.and_then(|()| Ok(out.flush()?)) {
        Ok(()) | Err(Failure::Closed) => ExitCode::SUCCESS,
        Err(Failure::Run(err)) => {
            eprintln!("error: {err}");
            ExitCode::FAILURE
        }
        Err(Failure::Usage(err)) => {
            eprintln!("error: {err}\n{}", command.spec.usage);
            ExitCode::from(2)
        }
    }
}

/// The `scale` positional: `quick`, `paper` (the default) or `full`.
fn scale(args: &Args) -> Result<ExperimentScale, Failure> {
    ExperimentScale::from_arg(args.raw("scale")).map_err(|err| Failure::Usage(err.to_string()))
}

/// The value of flag or positional `name`, or `default` when not given.
fn get_or<T: std::str::FromStr>(args: &Args, name: &str, default: T) -> Result<T, Failure>
where
    T::Err: std::fmt::Display,
{
    Ok(args.get(name).map_err(Failure::Usage)?.unwrap_or(default))
}

/// The output directory, `default` when not given, created.
fn output_dir(args: &Args, default: &str) -> Result<PathBuf, Failure> {
    let dir = PathBuf::from(args.raw("output-dir").unwrap_or(default));
    std::fs::create_dir_all(&dir).map_err(cannot("create", &dir))?;
    Ok(dir)
}

/// Whether a search subcommand runs `--thorough`; `--quick`, the
/// default, may be spelled out.
fn thorough(args: &Args) -> Result<bool, Failure> {
    match (args.has("--quick"), args.has("--thorough")) {
        (true, true) => Err(Failure::Usage(
            "--quick and --thorough exclude each other".into(),
        )),
        (_, thorough) => Ok(thorough),
    }
}

/// Creates `path` with `write`.
fn write_file(path: &Path, write: impl FnOnce(File) -> io::Result<()>) -> Result<(), Failure> {
    File::create(path)
        .and_then(write)
        .map_err(cannot("write", path))
}

/// Writes `value` as JSON to `path`, reads the file back, and checks
/// that it parses to `value`.  Returns the byte count.
fn write_checked_json<T>(path: &Path, value: &T) -> Result<usize, Failure>
where
    T: serde::Serialize + serde::Deserialize + PartialEq,
{
    let json = serde_json::to_string(value)
        .map_err(|err| Failure::Run(format!("cannot serialize {}: {err}", path.display())))?;
    write_file(path, |mut file| file.write_all(json.as_bytes()))?;
    let read_back = std::fs::read_to_string(path).map_err(cannot("re-read", path))?;
    match serde_json::from_str::<T>(&read_back) {
        Ok(decoded) if decoded == *value => Ok(json.len()),
        Ok(_) => Err(Failure::Run(format!(
            "self-check failed: {} does not read back as the run",
            path.display()
        ))),
        Err(err) => Err(Failure::Run(format!(
            "self-check failed: {}: {err}",
            path.display()
        ))),
    }
}

fn experiments(args: &Args, out: &mut Out) -> Result<(), Failure> {
    let scale = scale(args)?;
    match args.raw("experiment").unwrap_or("list") {
        "list" => list(out)?,
        "all" => write_reports(out, ALL, &scale)?,
        name => {
            let at = ALL.iter().position(|e| e.name == name).ok_or_else(|| {
                Failure::Usage(format!("unknown experiment `{name}`; try `rh list`"))
            })?;
            write_reports(out, &ALL[at..=at], &scale)?;
        }
    }
    Ok(())
}

fn list(out: &mut Out) -> io::Result<()> {
    writeln!(out, "{}\n", EXPERIMENTS.spec.usage)?;
    for e in ALL {
        writeln!(out, "  {:16} {}", e.name, e.description)?;
    }
    Ok(())
}

/// The main experiment series as CSV for plotting (Fig. 4 scatter,
/// flooding points, latency table), plus Fig. 4 as SVG.
fn export(args: &Args, _out: &mut Out) -> Result<(), Failure> {
    let scale = scale(args)?;
    let dir = output_dir(args, "results")?;

    eprintln!("running fig4…");
    let points = fig4::run(&scale);
    write_file(&dir.join("fig4.csv"), |file| {
        report::fig4_csv(&points, file)
    })?;
    let svg = rh_harness::plot::fig4_svg(&points);
    write_file(&dir.join("fig4.svg"), |mut file| {
        file.write_all(svg.as_bytes())
    })?;
    eprintln!("running flooding…");
    let results = flooding::run(&scale);
    write_file(&dir.join("flooding.csv"), |file| {
        report::flooding_csv(&results, file)
    })?;
    eprintln!("running latency…");
    let results = latency::run(&scale);
    write_file(&dir.join("latency.csv"), |file| {
        report::latency_csv(&results, file)
    })?;
    eprintln!(
        "wrote fig4.csv, flooding.csv, latency.csv to {}",
        dir.display()
    );
    Ok(())
}

/// The per-interval trajectory of one run (cumulative activations,
/// triggers, false positives and max disturbance, sampled every `stride`
/// intervals) as JSON and CSV.  The run mixes the benign workload with
/// the paper's ramping attack, or with `--attack`'s catalog attack.
fn timeline(args: &Args, out: &mut Out) -> Result<(), Failure> {
    let scale = scale(args)?;
    let techniques = || Technique::TABLE3.into_iter().chain([Technique::Cat]);
    let technique = match args.raw("technique") {
        None => Technique::LoLiPromi,
        Some(name) => techniques()
            .find(|t| t.name().eq_ignore_ascii_case(name))
            .ok_or_else(|| {
                let known: Vec<&str> = techniques().map(Technique::name).collect();
                Failure::Usage(format!(
                    "unknown technique {name:?}; known: {}",
                    known.join(", ")
                ))
            })?,
    };
    // A stride of 0 is a usage error, not a silent stride of 1.
    let stride = args
        .get::<NonZeroU64>("stride")
        .map_err(Failure::Usage)?
        .map_or(64, NonZeroU64::get);
    let backend = get_or(args, "--backend", BackendSpec::Exact)?;
    let attack = args.raw("--attack");

    let config = RunConfig::paper(&scale);
    let trace = match attack {
        None => scenario::paper_mix(&config, 1),
        Some(name) => {
            let attack = scenario::named_attack(&config, name).ok_or_else(|| {
                Failure::Usage(format!(
                    "unknown attack {name:?}; known: {}",
                    scenario::named_attacks().join(", ")
                ))
            })?;
            scenario::mix_with(&config, attack, 1)
        }
    };
    let metrics = Runner::new(config)
        .technique(technique)
        .seed(1)
        .backend(backend)
        .observer(TimeSeriesRecorder::new(stride))
        .run(trace);

    let series = metrics
        .timeseries
        .as_ref()
        .expect("TimeSeriesRecorder was attached");
    writeln!(
        out,
        "{}: {} intervals, {} activations, {} triggers ({} FP), {} sample points @ stride {stride}",
        metrics.technique,
        metrics.intervals,
        metrics.workload_activations,
        metrics.trigger_events,
        metrics.false_positive_events,
        series.points.len(),
    )?;
    if let Some(cycle) = &metrics.cycle {
        writeln!(
            out,
            "cycle model: {} mitigation cycles ({:.2}% bandwidth overhead), \
             row-buffer hit rate {:.1}%",
            cycle.mitigation_cycles,
            cycle.bandwidth_overhead_percent(),
            100.0 * cycle.row_buffer_hit_rate(),
        )?;
    }

    let mut slug = metrics.technique.to_lowercase().replace('/', "-");
    if let Some(name) = attack {
        slug = format!("{slug}_{name}");
    }
    let dir = output_dir(args, "target/timeline")?;
    let json_path = dir.join(format!("timeline_{slug}.json"));
    write_checked_json(&json_path, &metrics)?;
    let csv_path = dir.join(format!("timeline_{slug}.csv"));
    write_file(&csv_path, |file| report::timeseries_csv(series, file))?;
    writeln!(
        out,
        "wrote {} and {} (JSON round-trip OK)",
        json_path.display(),
        csv_path.display()
    )?;
    Ok(())
}

/// The standard campaign shape: three cohorts splitting `devices` — a
/// broad mixed-technique cohort, a weak-cell tail cohort, and a
/// single-bank CPU-workload cohort.
fn campaign(seed: u64, devices: u64) -> CampaignSpec {
    let cpu = devices / 8;
    let weak = devices / 4;
    let broad = devices - weak - cpu;
    CampaignSpec::new(seed)
        .cohort(CohortSpec::new("broad", broad).banks(1, 4).techniques(vec![
            Technique::LoLiPromi,
            Technique::Para,
            Technique::TwiCe,
        ]))
        .cohort(
            CohortSpec::new("weak-tail", weak)
                .banks(1, 2)
                .flip_threshold(1024, 2048)
                .attack("flooding"),
        )
        .cohort(
            CohortSpec::new("cpu", cpu)
                .workload(WorkloadKind::Cpu)
                .banks(1, 1),
        )
}

fn print_fleet_report(out: &mut Out, report: &FleetReport) -> io::Result<()> {
    writeln!(
        out,
        "campaign seed {} fingerprint {:#018x}: {} devices, {} cohorts",
        report.seed,
        report.fingerprint,
        report.devices,
        report.cohorts.len()
    )?;
    for cohort in &report.cohorts {
        let p99 = cohort
            .time_to_first_flip
            .p99
            .map_or("-".to_string(), |v| format!("{v:.0}"));
        writeln!(
            out,
            "  {:<10} {:>6} devices  {:>6} flipped  ttff p99 {:>8} acts  \
             flips/Mact p99 {:>10}",
            cohort.name,
            cohort.devices,
            cohort.flip_devices,
            p99,
            cohort
                .flips_per_mega_act
                .p99
                .map_or("-".to_string(), |v| format!("{v:.2}")),
        )?;
    }
    Ok(())
}

/// A heterogeneous multi-cohort campaign (`--quick`: 1024 devices, or
/// `--devices`), its per-cohort population table and JSON report, and
/// with `--frontier` each cohort's red-team security frontier.
fn fleet(args: &Args, out: &mut Out) -> Result<(), Failure> {
    let seed = get_or(args, "--seed", 7)?;
    let devices = get_or(
        args,
        "--devices",
        if args.has("--quick") { 1024 } else { 64 },
    )?;
    let backend = get_or(args, "--backend", BackendSpec::Exact)?;

    let mut spec = campaign(seed, devices);
    for cohort in &mut spec.cohorts {
        cohort.backend = backend;
    }
    let workers = parallel::parse_workers(std::env::var("RH_WORKERS").ok().as_deref())
        .map_or("auto".to_string(), |w| w.to_string());
    writeln!(
        out,
        "fleet campaign: seed {seed}, {} devices over {} cohorts, {backend} tier, {workers} worker(s)",
        spec.total_devices(),
        spec.cohorts.len(),
    )?;
    let report = Fleet::new(spec.clone())
        .run()
        .map_err(|err| Failure::Run(format!("campaign invalid: {err}")))?;
    print_fleet_report(out, &report)?;
    let path = output_dir(args, "target/fleet")?.join("fleet-report.json");
    let bytes = write_checked_json(&path, &report)?;
    writeln!(
        out,
        "wrote {} ({bytes} bytes, round-trip checked)",
        path.display()
    )?;

    if args.has("--frontier") {
        writeln!(out, "per-cohort security frontiers (quick search):")?;
        for cohort in cohort_frontiers(&spec) {
            for technique in &cohort.techniques {
                let budget = technique
                    .frontier
                    .as_ref()
                    .map_or("unbroken".to_string(), |e| format!("budget {}", e.budget));
                writeln!(
                    out,
                    "  {:<10} @ threshold {:>6}  {:<10} {}",
                    cohort.name, cohort.flip_threshold, technique.technique, budget
                )?;
            }
        }
    }
    Ok(())
}

/// The security-frontier search over all nine Table III techniques: the
/// frontier table, where an adaptive attack undercuts the static ramp,
/// and the JSON report.
fn redteam(args: &Args, out: &mut Out) -> Result<(), Failure> {
    let seed = get_or(args, "--seed", 7)?;
    let mut search = SearchConfig::quick(seed);
    search.base.backend = get_or(args, "--backend", BackendSpec::Exact)?;
    if thorough(args)? {
        search.rounds = 5;
        search.population = 24;
        search.survivors = 5;
        search.max_windows = 4;
    }
    writeln!(
        out,
        "red-team frontier search: seed {seed}, {} rounds, flip threshold {}, {} tier, target {} flip(s)",
        search.rounds, search.base.flip_threshold, search.base.backend, search.flip_target
    )?;

    let report = run_search(&search);
    writeln!(out, "{}", report.render())?;
    for result in &report.results {
        if let (Some(adaptive), Some(static_ramp)) =
            (&result.frontier_adaptive, &result.frontier_static)
        {
            if adaptive.budget < static_ramp.budget {
                writeln!(
                    out,
                    "{}: adaptive {} breaches at budget {} vs static ramp {} ({:.0}% cheaper)",
                    result.technique,
                    adaptive.candidate.label(),
                    adaptive.budget,
                    static_ramp.budget,
                    100.0 * (1.0 - adaptive.budget as f64 / static_ramp.budget as f64)
                )?;
            }
        }
    }
    let path = output_dir(args, "target/redteam")?.join("redteam-frontier.json");
    let bytes = write_checked_json(&path, &report)?;
    writeln!(
        out,
        "wrote {} ({bytes} bytes, round-trip checked)",
        path.display()
    )?;
    Ok(())
}

/// The three-phase profile → evaluate → attack campaign for all nine
/// Table III techniques at each fidelity tier.  The report must be
/// byte-identical at 1, 2 and auto workers, and profiling must strictly
/// pay off for at least one (technique, tier), or the command fails.
fn exploit(args: &Args, out: &mut Out) -> Result<(), Failure> {
    let seed = get_or(args, "--seed", 7)?;
    let mut config = CampaignConfig::quick(seed);
    if thorough(args)? {
        config = config.with_tiers(BackendSpec::ALL.to_vec());
        config.rounds = 4;
        config.population = 12;
        config.survivors = 3;
        config.profile_span = 16;
    }
    writeln!(
        out,
        "exploit campaign: seed {seed}, {} techniques x {} tier(s), window {} rows @ {} intervals/row, strong threshold {}",
        Technique::TABLE3.len(),
        config.tiers.len(),
        config.profile_span,
        config.profile_dwell,
        config.base.flip_threshold
    )?;

    // The campaign contract: one report, byte-identical at any worker
    // count.  Run it at 1, 2 and auto workers and diff the JSON.
    let report = run_campaign(&config.clone().with_workers(1));
    let json = report.to_json();
    for workers in [2usize, 0] {
        if run_campaign(&config.clone().with_workers(workers)).to_json() != json {
            return Err(Failure::Run(format!(
                "determinism check failed: {workers}-worker campaign JSON differs"
            )));
        }
    }
    writeln!(out, "{}", report.render())?;

    for result in &report.results {
        if let (Some(total), Some(blind)) = (result.total_with_profiling(), result.blind.budget) {
            if result.profiling_pays_off() {
                writeln!(
                    out,
                    "{} [{}]: profiled flip at total budget {} vs blind {} ({:.0}% cheaper)",
                    result.technique,
                    result.tier,
                    total,
                    blind,
                    100.0 * (1.0 - total as f64 / blind as f64)
                )?;
            }
        }
    }
    let wins = report.profiling_wins();
    writeln!(
        out,
        "profiling pays off for {wins}/{} (technique, tier) campaigns",
        report.results.len()
    )?;
    if wins == 0 {
        return Err(Failure::Run(
            "no technique was cheaper to breach with profiling — campaign is miscalibrated".into(),
        ));
    }
    let path = output_dir(args, "target/exploit")?.join("exploit-campaign.json");
    let bytes = write_checked_json(&path, &report)?;
    writeln!(
        out,
        "wrote {} ({bytes} bytes, round-trip checked, worker-count invariant)",
        path.display()
    )?;
    Ok(())
}
