//! `bomblab` — command-line front end for the concolic-execution lab.
//!
//! ```text
//! bomblab asm <file.s> [-o out.bvm]     assemble + link (static, with runtime)
//! bomblab dis <file.s|file.bvm>         disassemble the text segment
//! bomblab run <file.s|file.bvm> [arg]   run concretely, print stdout/exit
//! bomblab trace <file.s|file.bvm> [arg] run and print the executed listing
//! bomblab solve <file.s|file.bvm> [seed] [--trace out.jsonl]
//!                                       concolically search for BOOM
//! bomblab constraints <file> [arg]      dump path conditions as SMT-LIB
//! bomblab analyze <file.s|file.bvm>     static analysis: annotated listing
//! bomblab analyze --bombs [prefix]      analyze the dataset, print summaries
//! bomblab bombs                         list the dataset
//! bomblab study [prefix] [--jobs N|auto] [--trace out.jsonl]
//!               [--checkpoint dir] [--resume] [--retries N]
//!               [--tools paper|omniscient] [--no-shared-cache]
//!               [--no-bbcache]
//!                                       run the Table-II study (durably)
//! bomblab chaos [prefix] [--seed N] [--faults K] [--io-faults K] [--sweeps M]
//!               [--jobs N|auto] [--retries N] [--checkpoint dir]
//!               [--trace out.jsonl]     fault-injection sweeps + containment check
//! bomblab tracecheck <file.jsonl>       validate a trace against the schema
//! ```
//!
//! Flags are order-independent — `bomblab study --jobs 4 decl` and
//! `bomblab study decl --jobs 4` are the same invocation — and unknown
//! flags are rejected with the accepted set. `--flag value` and
//! `--flag=value` are both accepted.
//!
//! Exit codes: 0 success, 1 runtime failure (I/O, bad image, failed
//! containment/validation), 2 usage error (unknown flag, bad value,
//! missing argument).

#![cfg_attr(not(test), warn(clippy::unwrap_used))]

use bomblab::concolic::{
    chaos_sweep, run_study_with, ChaosConfig, Engine, GroundTruth, Outcome, StaticHints,
    StudyOptions, Subject, ToolProfile, WorldInput,
};
use bomblab::isa::image::Image;
use bomblab::rt::link_program;
use bomblab::vm::{Machine, MachineConfig};
use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("asm") => cmd_asm(&args[1..]),
        Some("dis") => cmd_dis(&args[1..]),
        Some("run") => cmd_run(&args[1..]),
        Some("trace") => cmd_trace(&args[1..]),
        Some("solve") => cmd_solve(&args[1..]),
        Some("constraints") => cmd_constraints(&args[1..]),
        Some("analyze") => cmd_analyze(&args[1..]),
        Some("bombs") => cmd_bombs(),
        Some("study") => cmd_study(&args[1..]),
        Some("chaos") => cmd_chaos(&args[1..]),
        Some("tracecheck") => cmd_tracecheck(&args[1..]),
        _ => {
            eprintln!(
                "usage: bomblab <asm|dis|run|trace|solve|analyze|bombs|study|chaos|tracecheck> [args]\n\
                 see `bomblab` source documentation for details"
            );
            return ExitCode::from(2);
        }
    };
    match result {
        Ok(code) => code,
        Err(e) => {
            eprintln!("error: {e}");
            e.exit_code()
        }
    }
}

/// A typed CLI failure that carries its process exit code, so every
/// error path maps deliberately onto the shell contract instead of
/// collapsing to a generic `1`.
#[derive(Debug)]
enum CliError {
    /// Bad invocation: unknown flag, bad value, missing argument (exit 2).
    Usage(String),
    /// The OS said no: reading inputs, writing traces or images (exit 1).
    Io(std::io::Error),
    /// Malformed data: bad image bytes, assembly errors, VM load
    /// failures (exit 1).
    Other(String),
}

impl CliError {
    fn exit_code(&self) -> ExitCode {
        match self {
            CliError::Usage(_) => ExitCode::from(2),
            CliError::Io(_) | CliError::Other(_) => ExitCode::FAILURE,
        }
    }
}

impl std::fmt::Display for CliError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CliError::Usage(m) | CliError::Other(m) => f.write_str(m),
            CliError::Io(e) => e.fmt(f),
        }
    }
}

// Bare strings in command bodies are invocation complaints ("missing
// input file", "unknown flag"): usage errors, exit 2. Library failures
// arrive through the dedicated `From`s below and exit 1.
impl From<String> for CliError {
    fn from(m: String) -> CliError {
        CliError::Usage(m)
    }
}

impl From<&str> for CliError {
    fn from(m: &str) -> CliError {
        CliError::Usage(m.to_string())
    }
}

impl From<std::io::Error> for CliError {
    fn from(e: std::io::Error) -> CliError {
        CliError::Io(e)
    }
}

impl From<bomblab::isa::image::ImageError> for CliError {
    fn from(e: bomblab::isa::image::ImageError) -> CliError {
        CliError::Other(e.to_string())
    }
}

impl From<bomblab::rt::BuildError> for CliError {
    fn from(e: bomblab::rt::BuildError) -> CliError {
        CliError::Other(e.to_string())
    }
}

impl From<bomblab::vm::LoadError> for CliError {
    fn from(e: bomblab::vm::LoadError) -> CliError {
        CliError::Other(e.to_string())
    }
}

impl From<std::string::FromUtf8Error> for CliError {
    fn from(e: std::string::FromUtf8Error) -> CliError {
        CliError::Other(format!("input is neither BVM nor UTF-8 assembly: {e}"))
    }
}

type CmdResult = Result<ExitCode, CliError>;

/// One flag a subcommand accepts: canonical `--name`, optional short
/// alias, and whether it consumes a value (`--flag value` or
/// `--flag=value`; flags without values reject `=`).
struct FlagSpec {
    name: &'static str,
    alias: Option<&'static str>,
    takes_value: bool,
}

const JOBS: FlagSpec = FlagSpec {
    name: "--jobs",
    alias: Some("-j"),
    takes_value: true,
};
const TRACE: FlagSpec = FlagSpec {
    name: "--trace",
    alias: None,
    takes_value: true,
};

/// Parses `args` into positionals and flag values, order-independently.
/// Flags may appear anywhere, repeated flags keep the last value, and
/// anything starting with `-` that is not in `specs` is an error naming
/// the accepted set.
fn parse_flags(
    cmd: &str,
    args: &[String],
    specs: &[FlagSpec],
    max_positional: usize,
) -> Result<
    (
        Vec<String>,
        std::collections::BTreeMap<&'static str, String>,
    ),
    String,
> {
    let mut positional = Vec::new();
    let mut flags = std::collections::BTreeMap::new();
    let accepted = || specs.iter().map(|s| s.name).collect::<Vec<_>>().join(", ");
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        if !arg.starts_with('-') || arg == "-" {
            if positional.len() == max_positional {
                return Err(format!(
                    "{cmd}: unexpected argument {arg:?} (takes at most {max_positional} positional)"
                ));
            }
            positional.push(arg.clone());
            continue;
        }
        let (name, inline) = match arg.split_once('=') {
            Some((n, v)) => (n, Some(v)),
            None => (arg.as_str(), None),
        };
        let Some(spec) = specs
            .iter()
            .find(|s| s.name == name || s.alias == Some(name))
        else {
            return Err(format!(
                "{cmd}: unknown flag `{name}` (accepted: {})",
                accepted()
            ));
        };
        let value = if spec.takes_value {
            match inline {
                Some(v) => v.to_string(),
                None => it
                    .next()
                    .ok_or_else(|| format!("{cmd}: {} needs a value", spec.name))?
                    .clone(),
            }
        } else {
            if inline.is_some() {
                return Err(format!("{cmd}: {} takes no value", spec.name));
            }
            String::new()
        };
        flags.insert(spec.name, value);
    }
    Ok((positional, flags))
}

/// Parses a required-numeric flag value.
fn parse_num<T: std::str::FromStr>(cmd: &str, flag: &str, value: &str) -> Result<T, String> {
    value
        .parse()
        .map_err(|_| format!("{cmd}: bad {flag} value {value:?}"))
}

fn default_jobs() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZero::get)
}

/// Parses a `--jobs` value: the literal `auto` resolves to the machine's
/// available parallelism, anything else must be a positive worker count.
fn parse_jobs(cmd: &str, value: &str) -> Result<usize, String> {
    if value == "auto" {
        return Ok(default_jobs());
    }
    match parse_num(cmd, "--jobs", value)? {
        0 => Err(format!("{cmd}: --jobs must be at least 1 (or `auto`)")),
        n => Ok(n),
    }
}

/// Writes JSONL trace lines to `path` and the profile-summary sidecar
/// next to it (`<path minus .jsonl>.profile.md`), reporting both on
/// stderr so stdout stays machine-readable.
fn write_trace(
    path: &str,
    lines: &[String],
    profile_summary: Option<&str>,
) -> Result<(), CliError> {
    let mut doc = lines.join("\n");
    doc.push('\n');
    std::fs::write(path, doc)?;
    eprintln!("trace: wrote {} lines to {path}", lines.len());
    if let Some(summary) = profile_summary {
        let stem = path.strip_suffix(".jsonl").unwrap_or(path);
        let sidecar = format!("{stem}.profile.md");
        std::fs::write(&sidecar, summary)?;
        eprintln!("trace: wrote profile summary to {sidecar}");
    }
    Ok(())
}

/// Loads an image from a `.s` source file (assembled against the runtime)
/// or a serialized `.bvm` image.
fn load_image(path: &str) -> Result<Image, CliError> {
    let bytes = std::fs::read(path)?;
    if bytes.starts_with(b"BVM1") {
        Ok(Image::from_bytes(&bytes)?)
    } else {
        let src = String::from_utf8(bytes)?;
        Ok(link_program(&src)?)
    }
}

fn cmd_asm(args: &[String]) -> CmdResult {
    const OUTPUT: FlagSpec = FlagSpec {
        name: "--output",
        alias: Some("-o"),
        takes_value: true,
    };
    let (pos, flags) = parse_flags("asm", args, &[OUTPUT], 1)?;
    let input = pos.first().ok_or("asm: missing input file")?;
    let out = match flags.get("--output") {
        Some(path) => path.clone(),
        // `strip_suffix`, not `trim_end_matches`: the latter strips the
        // suffix repeatedly, mangling names like `double.s.s`.
        None => format!("{}.bvm", input.strip_suffix(".s").unwrap_or(input)),
    };
    let image = load_image(input)?;
    std::fs::write(&out, image.to_bytes())?;
    println!(
        "wrote {out}: {} text + {} data bytes, entry {:#x}",
        image.text.len(),
        image.data.len(),
        image.entry
    );
    Ok(ExitCode::SUCCESS)
}

fn cmd_dis(args: &[String]) -> CmdResult {
    let input = args.first().ok_or("dis: missing input file")?;
    let image = load_image(input)?;
    print!("{}", bomblab::isa::disasm::listing(&image));
    Ok(ExitCode::SUCCESS)
}

fn machine_for(args: &[String], trace: bool) -> Result<Machine, CliError> {
    let input = args.first().ok_or("missing input file")?;
    let image = load_image(input)?;
    let arg = args.get(1).cloned().unwrap_or_default();
    let config = MachineConfig {
        trace,
        ..MachineConfig::with_arg(arg.into_bytes())
    };
    Ok(Machine::load(&image, None, config)?)
}

fn cmd_run(args: &[String]) -> CmdResult {
    let mut machine = machine_for(args, false)?;
    let result = machine.run();
    print!("{}", String::from_utf8_lossy(machine.stdout()));
    eprintln!("[{} after {} steps]", result.status, result.steps);
    Ok(ExitCode::from(
        result.status.exit_code().unwrap_or(125).clamp(0, 255) as u8,
    ))
}

fn cmd_trace(args: &[String]) -> CmdResult {
    let mut machine = machine_for(args, true)?;
    let result = machine.run();
    for step in machine.trace().iter() {
        println!(
            "[{}:{}] {:#010x}  {}",
            step.pid, step.tid, step.pc, step.insn
        );
    }
    eprintln!("[{} after {} steps]", result.status, result.steps);
    Ok(ExitCode::SUCCESS)
}

fn cmd_solve(args: &[String]) -> CmdResult {
    const NO_DATAFLOW: FlagSpec = FlagSpec {
        name: "--no-dataflow",
        alias: None,
        takes_value: false,
    };
    let (pos, flags) = parse_flags("solve", args, &[TRACE, NO_DATAFLOW], 2)?;
    let input = pos.first().ok_or("solve: missing input file")?;
    let image = load_image(input)?;
    let seed = pos.get(1).cloned().unwrap_or_else(|| "AAAAAAAA".into());
    let subject = Subject {
        name: input.clone(),
        image,
        lib: None,
        seed: WorldInput::with_arg(seed.into_bytes()),
    };
    let profile = ToolProfile::omniscient();
    let obs_token = flags
        .get("--trace")
        .map(|_| bomblab::obs::arm(&subject.name, &profile.name));
    let started = std::time::Instant::now();
    let analysis = bomblab::sa::analyze(&subject.image, subject.lib.as_ref());
    let hints = {
        let h = StaticHints::from_analysis(&analysis);
        if profile.use_dataflow_hints && !flags.contains_key("--no-dataflow") {
            h.with_dataflow(&analysis)
        } else {
            h
        }
    };
    let attempt = Engine::new(profile.clone())
        .with_static_hints(hints)
        .explore(&subject, &GroundTruth::default());
    let wall_ns = started.elapsed().as_nanos() as u64;
    if let Some(token) = obs_token {
        let cell = bomblab::obs::disarm(token);
        let path = &flags["--trace"];
        write_trace(path, &solve_trace_lines(&cell, &attempt, wall_ns), None)?;
    }
    println!(
        "outcome: {} ({} rounds, {} queries)",
        attempt.outcome, attempt.evidence.rounds, attempt.evidence.queries
    );
    if let Some(solution) = attempt.solved_input {
        println!("argv[1] = {:?}", String::from_utf8_lossy(&solution.argv1));
        if solution.epoch != subject.seed.epoch {
            println!("epoch   = {}", solution.epoch);
        }
        return Ok(ExitCode::SUCCESS);
    }
    Ok(ExitCode::FAILURE)
}

/// Renders one `solve` run as schema-valid trace lines: header, the
/// cell's span/event/counter/hist stream, its outcome line, and the
/// summary trailer.
fn solve_trace_lines(
    cell: &bomblab::obs::CellProfile,
    attempt: &bomblab::concolic::Attempt,
    wall_ns: u64,
) -> Vec<String> {
    use bomblab::obs::json::{str_array, Obj};
    use bomblab::obs::trace::{render_cell, SCHEMA_VERSION};
    let mut lines = vec![Obj::new("study_start")
        .u64("schema", SCHEMA_VERSION)
        .u64("bombs", 1)
        .raw("profiles", &str_array(std::slice::from_ref(&cell.profile)))
        .finish()];
    render_cell(cell, &mut lines);
    lines.push(attempt.cell_line(&cell.bomb, &cell.profile, wall_ns, None));
    lines.push(
        Obj::new("summary")
            .u64("cells", 1)
            .u64("spans", cell.spans.len() as u64)
            .u64("events", cell.events.len() as u64)
            .u64("counters", cell.counters.len() as u64)
            .finish(),
    );
    lines
}

fn cmd_constraints(args: &[String]) -> CmdResult {
    use bomblab::symex::{MemoryModel, PropagationPolicy, SymExec};
    let input = args.first().ok_or("constraints: missing input file")?;
    let image = load_image(input)?;
    let arg = args.get(1).cloned().unwrap_or_else(|| "AAAAAAAA".into());
    let config = MachineConfig {
        trace: true,
        ..MachineConfig::with_arg(arg.clone().into_bytes())
    };
    let mut machine = Machine::load(&image, None, config)?;
    let snapshot = machine
        .process_memory(bomblab::vm::ROOT_PID)
        .ok_or("no root process")?
        .clone();
    machine.run();
    let trace = machine.take_trace();
    let mut sx = SymExec::new(
        MemoryModel::SymbolicMap {
            max_indirection: 2,
            region: 256,
        },
        PropagationPolicy::full(),
    );
    sx.set_initial_memory(bomblab::vm::ROOT_PID, snapshot);
    sx.symbolize_bytes(
        bomblab::vm::ROOT_PID,
        bomblab::isa::image::layout::ARGV_BASE + 16 + 5,
        arg.len() as u64,
        "arg1",
    );
    let sym = sx.run(&trace);
    eprintln!(
        "; {} symbolic branches, {} pins on the trace of argv[1] = {arg:?}",
        sym.path.len(),
        sym.pins.len()
    );
    print!("{}", bomblab::solver::smtlib::to_smtlib(&sym.path_query()));
    Ok(ExitCode::SUCCESS)
}

fn cmd_analyze(args: &[String]) -> CmdResult {
    const BOMBS: FlagSpec = FlagSpec {
        name: "--bombs",
        alias: None,
        takes_value: false,
    };
    const DATAFLOW: FlagSpec = FlagSpec {
        name: "--dataflow",
        alias: None,
        takes_value: false,
    };
    const JSON: FlagSpec = FlagSpec {
        name: "--json",
        alias: None,
        takes_value: false,
    };
    let (pos, flags) = parse_flags("analyze", args, &[BOMBS, DATAFLOW, JSON], 1)?;
    let dataflow = flags.contains_key("--dataflow");
    let json = flags.contains_key("--json");
    if flags.contains_key("--bombs") {
        let prefix = pos.first().cloned().unwrap_or_default();
        let mut silent: Vec<String> = Vec::new();
        let mut seen = false;
        for case in bomblab::bombs::all_cases() {
            if !case.subject.name.starts_with(&prefix) {
                continue;
            }
            seen = true;
            let token = json.then(|| bomblab::obs::arm(&case.subject.name, "analyze"));
            let a = bomblab::sa::analyze(&case.subject.image, case.subject.lib.as_ref());
            let cell = token.map(bomblab::obs::disarm);
            if json {
                println!(
                    "{}",
                    analyze_json_line(&case.subject.name, &a, cell.as_ref())
                );
            } else if dataflow {
                println!("{:18} {}", case.subject.name, a.dataflow_summary());
            } else {
                let preds: Vec<String> = a
                    .predictions
                    .iter()
                    .map(|(name, stage)| format!("{name}={stage}"))
                    .collect();
                println!(
                    "{:18} {}  {}",
                    case.subject.name,
                    a.summary(),
                    preds.join(" ")
                );
            }
            if a.lints.is_empty() {
                silent.push(case.subject.name.clone());
            }
        }
        if !seen {
            return Err(format!("no bombs match prefix {prefix:?}").into());
        }
        if !silent.is_empty() && !json && !dataflow {
            eprintln!("analyze: no lints fired on: {}", silent.join(", "));
            return Ok(ExitCode::FAILURE);
        }
        return Ok(ExitCode::SUCCESS);
    }
    let input = pos
        .first()
        .ok_or("analyze: expected a file or `--bombs [prefix]`")?;
    let token = json.then(|| bomblab::obs::arm(input, "analyze"));
    let image = load_image(input)?;
    let analysis = bomblab::sa::analyze(&image, None);
    let cell = token.map(bomblab::obs::disarm);
    if json {
        println!("{}", analyze_json_line(input, &analysis, cell.as_ref()));
    } else if dataflow {
        print!("{}", analysis.listing_dataflow());
        eprintln!("; {}", analysis.dataflow_summary());
    } else {
        print!("{}", analysis.listing());
        eprintln!("; {}", analysis.summary());
    }
    Ok(ExitCode::SUCCESS)
}

/// Renders one analysis as a machine-readable JSON line: the summary
/// counts, the data-flow products, every lint with its address and
/// per-profile stage forecast, and (when observability was armed) the
/// per-pass timing spans.
fn analyze_json_line(
    name: &str,
    a: &bomblab::sa::Analysis,
    cell: Option<&bomblab::obs::CellProfile>,
) -> String {
    use bomblab::obs::json::{escape, Obj};
    let quoted = |s: &str| format!("\"{}\"", escape(s));
    let t = &a.dataflow.taint;
    let lints: Vec<String> = a
        .lints
        .iter()
        .map(|l| {
            let stages: Vec<String> = l
                .stages
                .iter()
                .map(|(n, s)| quoted(&format!("{n}:{s}")))
                .collect();
            format!(
                "{{\"code\":{},\"pc\":{},\"detail\":{},\"stages\":[{}]}}",
                quoted(l.kind.code()),
                l.pc,
                quoted(&l.detail),
                stages.join(",")
            )
        })
        .collect();
    let predictions: Vec<String> = a
        .predictions
        .iter()
        .map(|(n, s)| {
            format!(
                "{{\"profile\":{},\"stage\":{}}}",
                quoted(n),
                quoted(&s.to_string())
            )
        })
        .collect();
    let mut line = Obj::new("analysis")
        .str("bomb", name)
        .u64("rounds", a.rounds as u64)
        .bool("resolve_sound", a.resolve_sound)
        .u64("blocks", a.cfg.blocks.len() as u64)
        .u64("functions", a.cfg.functions.len() as u64)
        .u64("gaps", a.cfg.gaps.len() as u64)
        .u64("branch_sites", t.branch_sites.len() as u64)
        .u64("tainted_branches", t.tainted_branches.len() as u64)
        .u64("independent_branches", t.independent.len() as u64)
        .u64("races", t.races.len() as u64)
        .raw("lints", &format!("[{}]", lints.join(",")))
        .raw("predictions", &format!("[{}]", predictions.join(",")));
    if let Some(cell) = cell {
        let spans: Vec<String> = cell
            .spans
            .iter()
            .map(|s| format!("{{\"stage\":{},\"ns\":{}}}", quoted(s.stage), s.ns))
            .collect();
        line = line.raw("spans", &format!("[{}]", spans.join(",")));
    }
    line.finish()
}

fn cmd_bombs() -> CmdResult {
    println!("| bomb | category | description |");
    println!("|---|---|---|");
    for case in bomblab::bombs::all_cases() {
        println!(
            "| {} | {} | {} |",
            case.subject.name, case.category, case.description
        );
    }
    Ok(ExitCode::SUCCESS)
}

const CHECKPOINT: FlagSpec = FlagSpec {
    name: "--checkpoint",
    alias: None,
    takes_value: true,
};
const RETRIES: FlagSpec = FlagSpec {
    name: "--retries",
    alias: None,
    takes_value: true,
};

fn cmd_study(args: &[String]) -> CmdResult {
    const RESUME: FlagSpec = FlagSpec {
        name: "--resume",
        alias: None,
        takes_value: false,
    };
    const NO_SHARED_CACHE: FlagSpec = FlagSpec {
        name: "--no-shared-cache",
        alias: None,
        takes_value: false,
    };
    const TOOLS: FlagSpec = FlagSpec {
        name: "--tools",
        alias: None,
        takes_value: true,
    };
    const NO_BBCACHE: FlagSpec = FlagSpec {
        name: "--no-bbcache",
        alias: None,
        takes_value: false,
    };
    let (pos, flags) = parse_flags(
        "study",
        args,
        &[
            JOBS,
            TRACE,
            CHECKPOINT,
            RESUME,
            RETRIES,
            NO_SHARED_CACHE,
            TOOLS,
            NO_BBCACHE,
        ],
        1,
    )?;
    let prefix = pos.first().cloned().unwrap_or_default();
    let jobs = match flags.get("--jobs") {
        Some(n) => parse_jobs("study", n)?,
        None => default_jobs(),
    };
    let trace_path = flags.get("--trace");
    if flags.contains_key("--resume") && !flags.contains_key("--checkpoint") {
        return Err("study: --resume needs --checkpoint <dir>".into());
    }
    let retries = match flags.get("--retries") {
        Some(n) => parse_num("study", "--retries", n)?,
        None => 0,
    };
    let cases: Vec<_> = bomblab::bombs::all_cases()
        .into_iter()
        .filter(|c| c.subject.name.starts_with(&prefix))
        .collect();
    if cases.is_empty() {
        return Err(format!("no bombs match prefix {prefix:?}").into());
    }
    let profiles = match flags.get("--tools").map(String::as_str) {
        None | Some("paper") => ToolProfile::paper_lineup(),
        Some("omniscient") => vec![ToolProfile::omniscient()],
        Some(other) => {
            return Err(
                format!("study: bad --tools value {other:?} (accepted: paper, omniscient)").into(),
            )
        }
    };
    let options = StudyOptions {
        jobs,
        observe: trace_path.is_some(),
        retries,
        checkpoint: flags.get("--checkpoint").map(std::path::PathBuf::from),
        resume: flags.contains_key("--resume"),
        shared_cache: !flags.contains_key("--no-shared-cache"),
        bbcache: !flags.contains_key("--no-bbcache"),
        ..StudyOptions::default()
    };
    let report = run_study_with(&cases, &profiles, &options);
    println!("{}", report.to_markdown());
    if let Some(path) = trace_path {
        write_trace(path, &report.trace_lines(), Some(&report.profile_summary()))?;
    }
    Ok(ExitCode::SUCCESS)
}

fn cmd_chaos(args: &[String]) -> CmdResult {
    const SEED: FlagSpec = FlagSpec {
        name: "--seed",
        alias: None,
        takes_value: true,
    };
    const FAULTS: FlagSpec = FlagSpec {
        name: "--faults",
        alias: None,
        takes_value: true,
    };
    const SWEEPS: FlagSpec = FlagSpec {
        name: "--sweeps",
        alias: None,
        takes_value: true,
    };
    const IO_FAULTS: FlagSpec = FlagSpec {
        name: "--io-faults",
        alias: None,
        takes_value: true,
    };
    let (pos, flags) = parse_flags(
        "chaos",
        args,
        &[
            SEED, FAULTS, IO_FAULTS, SWEEPS, JOBS, TRACE, RETRIES, CHECKPOINT,
        ],
        1,
    )?;
    let prefix = pos.first().cloned().unwrap_or_default();
    let mut config = ChaosConfig {
        jobs: default_jobs(),
        ..ChaosConfig::default()
    };
    if let Some(v) = flags.get("--seed") {
        config.seed = parse_num("chaos", "--seed", v)?;
    }
    if let Some(v) = flags.get("--faults") {
        config.faults = parse_num("chaos", "--faults", v)?;
    }
    if let Some(v) = flags.get("--io-faults") {
        config.io_faults = parse_num("chaos", "--io-faults", v)?;
    }
    if let Some(v) = flags.get("--sweeps") {
        config.sweeps = parse_num("chaos", "--sweeps", v)?;
    }
    if let Some(v) = flags.get("--jobs") {
        config.jobs = parse_jobs("chaos", v)?;
    }
    if let Some(v) = flags.get("--retries") {
        config.retries = parse_num("chaos", "--retries", v)?;
    }
    config.checkpoint = flags.get("--checkpoint").map(std::path::PathBuf::from);
    let trace_path = flags.get("--trace");
    config.observe = trace_path.is_some();
    if config.jobs == 0 {
        config.jobs = default_jobs();
    }
    let cases: Vec<_> = bomblab::bombs::all_cases()
        .into_iter()
        .filter(|c| c.subject.name.starts_with(&prefix))
        .collect();
    if cases.is_empty() {
        return Err(format!("no bombs match prefix {prefix:?}").into());
    }
    let profiles = ToolProfile::paper_lineup();
    let sweeps = chaos_sweep(&cases, &profiles, &config);
    if let Some(path) = trace_path {
        use bomblab::obs::json::Obj;
        let mut lines = Vec::new();
        for sweep in &sweeps {
            lines.push(
                Obj::new("sweep_start")
                    .u64("seed", sweep.seed)
                    .str("plan", &sweep.plan.to_string())
                    .finish(),
            );
            lines.extend(sweep.report.trace_lines());
        }
        write_trace(path, &lines, None)?;
    }
    let mut failed = false;
    for sweep in &sweeps {
        let abnormal = sweep
            .report
            .rows
            .iter()
            .flat_map(|row| &row.cells)
            .filter(|cell| cell.outcome == Outcome::Abnormal)
            .count();
        println!("sweep seed={}: plan [{}]", sweep.seed, sweep.plan);
        println!(
            "  {} cells, {} absorbed injected faults, {} labeled E",
            sweep.report.rows.len() * profiles.len(),
            sweep.injected_cells,
            abnormal
        );
        for line in sweep.report.contained_crashes() {
            println!("  contained: {line}");
        }
        if sweep.violations.is_empty() {
            println!("  containment invariant: OK");
        } else {
            failed = true;
            for v in &sweep.violations {
                println!("  VIOLATION: {v}");
            }
        }
    }
    if failed {
        eprintln!("chaos: containment invariant violated");
        return Ok(ExitCode::FAILURE);
    }
    Ok(ExitCode::SUCCESS)
}

fn cmd_tracecheck(args: &[String]) -> CmdResult {
    let (pos, _) = parse_flags("tracecheck", args, &[], 1)?;
    let path = pos.first().ok_or("tracecheck: missing trace file")?;
    let text = std::fs::read_to_string(path)?;
    match bomblab::obs::trace::validate_lines(&text) {
        Ok(checked) => {
            match bomblab::obs::trace::file_schema(&text) {
                Some(version) => println!("{path}: {checked} lines OK (schema v{version})"),
                None => println!("{path}: {checked} lines OK (no study_start line)"),
            }
            Ok(ExitCode::SUCCESS)
        }
        Err((line, why)) => {
            eprintln!("{path}:{line}: {why}");
            Ok(ExitCode::FAILURE)
        }
    }
}
