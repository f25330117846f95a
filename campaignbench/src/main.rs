//! `goofi-campaignbench --workload W --seed N --seconds S --trace 0|1`
//!
//! Runs closed-loop campaign jobs of one workload for `S` seconds and
//! prints, as the last line of stdout, one JSON object with the
//! correctness tally and the workload's end-to-end metrics (`--trace 0`)
//! or per-layer metrics (`--trace 1`). Three internal modes re-execute
//! this binary: `prepare` (builds the seeded inputs), `job` (runs one
//! job in a fresh process, as `goofi run` or `goofi serve` would) and
//! `worker` (a campaign worker process of the served workload).

use goofi_campaignbench::check::{digest, Checked, Reference};
use goofi_campaignbench::fixture::{prepare, Inputs};
use goofi_campaignbench::report::{end_to_end, per_layer, Metric, Sample};
use goofi_campaignbench::traced::{trace_local, trace_served};
use goofi_campaignbench::untraced::{fresh_copy, run_job};
use goofi_campaignbench::workloads::Workload;
use std::path::{Path, PathBuf};
use std::process::Command;
use std::time::{Duration, Instant};

/// Scratch space inside the checkout the benchmark runs from.
const WORK_DIR: &str = ".bench_work";

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
    db: Option<PathBuf>,
    variant: usize,
}

fn parse(args: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = 10;
    let mut trace = false;
    let mut db = None;
    let mut variant = 0;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: std::num::ParseIntError| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(value).ok_or_else(|| format!("unknown workload `{value}`"))?,
                )
            }
            "--seed" => seed = Some(value.parse().map_err(bad)?),
            "--seconds" => seconds = value.parse().map_err(bad)?,
            "--trace" => trace = value.parse::<u8>().map_err(bad)? != 0,
            "--db" => db = Some(PathBuf::from(value)),
            "--variant" => variant = value.parse().map_err(bad)?,
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds,
        trace,
        db,
        variant,
    })
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let code = match args.first().map(String::as_str) {
        Some("worker") => goofi_server::worker_main(),
        Some("prepare") => match parse(&args[1..]) {
            Ok(a) => match prepare(Path::new(WORK_DIR), a.workload, a.seed) {
                Ok(_) => 0,
                Err(e) => fail(&e.to_string()),
            },
            Err(e) => fail(&e),
        },
        Some("job") => match parse(&args[1..]).and_then(|a| job(&a)) {
            Ok(()) => 0,
            Err(e) => fail(&e),
        },
        _ => match parse(&args).and_then(|a| measure(&a)) {
            Ok(()) => 0,
            Err(e) => fail(&e),
        },
    };
    std::process::exit(code);
}

fn fail(message: &str) -> i32 {
    eprintln!("goofi-campaignbench: {message}");
    1
}

/// Builds the seeded inputs in a child process, so the fixture's memory
/// never counts towards this process's resident set.
fn prepare_inputs(a: &Args) -> Result<Inputs, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let status = Command::new(exe)
        .args(["prepare", "--workload", a.workload.name(), "--seed"])
        .arg(a.seed.to_string())
        .status()
        .map_err(|e| format!("cannot run prepare: {e}"))?;
    let inputs = Inputs::locate(Path::new(WORK_DIR), a.workload, a.seed);
    if !status.success() || !inputs.ready() {
        return Err(format!("prepare failed: {status}"));
    }
    Ok(inputs)
}

fn measure(a: &Args) -> Result<(), String> {
    let work = PathBuf::from(WORK_DIR);
    std::fs::create_dir_all(&work).map_err(|e| format!("{WORK_DIR}: {e}"))?;
    let inputs = prepare_inputs(a)?;
    let (fixture_rows, fixture_bytes) = inputs.fixture_size().ok_or("unreadable fixture size")?;
    let references = (0..a.workload.variants())
        .map(|v| {
            Reference::load(
                &inputs.reference,
                &a.workload.campaign_name(v),
                a.workload.experiments(),
            )
        })
        .collect::<Result<Vec<_>, _>>()
        .map_err(|e| e.to_string())?;
    println!(
        "workload {} seed {}: {} fault lists of {} experiments, history fixture {fixture_rows} rows, {fixture_bytes} bytes",
        a.workload.name(),
        a.seed,
        a.workload.variants(),
        a.workload.experiments()
    );

    let db = work.join(format!("job-{}.db", std::process::id()));
    let outcome = run_loop(a, &inputs, &references, &db);
    let _ = std::fs::remove_file(goofi_db::storage::wal_path(&db));
    let _ = std::fs::remove_file(&db);
    let (untraced, traced, checked) = outcome?;

    let metrics = if a.trace {
        per_layer(&untraced, &traced, checked, (fixture_rows, fixture_bytes))
    } else {
        end_to_end(&untraced)
    };
    if let Some(bad) = metrics.iter().find(|m| !m.value.is_finite()) {
        return Err(format!(
            "metric {} is not a number: {}",
            bad.name, bad.value
        ));
    }
    for m in &metrics {
        eprintln!("  {:<30} {:>16.6} {}", m.name, m.value, m.unit);
    }
    println!("{}", result_json(checked, &metrics));
    Ok(())
}

/// Prefix of the line a `job` process reports its figures on.
const JOB_LINE: &str = "job-figures";

/// The `job` mode: one job of the workload on the database at `--db`,
/// untraced or traced, in this fresh process. Prints its figures as
/// `name=value` pairs on one stdout line.
fn job(a: &Args) -> Result<(), String> {
    let db = a.db.as_deref().ok_or("--db is required")?;
    let campaign = a.workload.campaign_name(a.variant);
    let figures = match (a.trace, a.workload.served()) {
        (false, served) => run_job(a.workload, db, &campaign).map(|t| t.scalars(served)),
        (true, false) => trace_local(a.workload, db, &campaign).map(|l| l.scalars()),
        (true, true) => trace_served(a.workload, db, &campaign).map(|l| l.scalars()),
    }
    .map_err(|e| e.to_string())?;
    let pairs: Vec<String> = figures.iter().map(|(k, v)| format!("{k}={v:?}")).collect();
    println!("{JOB_LINE} {}", pairs.join(" "));
    Ok(())
}

/// Runs one job in a child process and reads back its figures.
fn spawn_job(a: &Args, db: &Path, variant: usize, traced: bool) -> Result<Sample, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let out = Command::new(exe)
        .args(["job", "--workload", a.workload.name(), "--seed"])
        .arg(a.seed.to_string())
        .args(["--trace", if traced { "1" } else { "0" }, "--db"])
        .arg(db)
        .arg("--variant")
        .arg(variant.to_string())
        .stderr(std::process::Stdio::inherit())
        .output()
        .map_err(|e| format!("cannot run job: {e}"))?;
    if !out.status.success() {
        return Err(format!("job failed: {}", out.status));
    }
    let stdout = String::from_utf8_lossy(&out.stdout);
    let line = stdout
        .lines()
        .find_map(|l| l.strip_prefix(JOB_LINE))
        .ok_or("job printed no figures")?;
    line.split_whitespace()
        .map(|pair| {
            let (k, v) = pair.split_once('=').ok_or("malformed job figure")?;
            let v: f64 = v
                .parse()
                .map_err(|_| format!("malformed job figure {pair}"))?;
            Ok((k.to_owned(), v))
        })
        .collect()
}

/// Closed loop: one job at a time, each in a fresh process on a fresh
/// copy of the prepared database, cycling through the fault lists, until
/// `--seconds` have passed and every fault list ran once (with
/// `--trace 1`, untraced and traced jobs alternate, and two of each
/// suffice). Every job's rows are checked after it ends: in full for
/// the first job of each fault list, then by the database's digest.
fn run_loop(
    a: &Args,
    inputs: &Inputs,
    references: &[Reference],
    db: &Path,
) -> Result<(Vec<Sample>, Vec<Sample>, Checked), String> {
    let budget = Duration::from_secs(a.seconds);
    let variants = a.workload.variants();
    let min_jobs = if a.trace { 4 } else { variants };
    let mut untraced = Vec::new();
    let mut traced = Vec::new();
    let mut checked = Checked::default();
    let mut verified = vec![None; variants];
    let start = Instant::now();
    for k in 0.. {
        if k >= min_jobs && start.elapsed() >= budget {
            break;
        }
        fresh_copy(&inputs.prepared, db).map_err(|e| e.to_string())?;
        let is_traced = a.trace && k % 2 == 1;
        let variant = (k / if a.trace { 2 } else { 1 }) % variants;
        let mut sample = spawn_job(a, db, variant, is_traced)?;
        let file = digest(db);
        let c = if file.is_some() && verified[variant] == file {
            Checked {
                attempted: a.workload.experiments(),
                failed: 0,
            }
        } else {
            let c = references[variant].check(db, a.workload.served());
            if c.failed == 0 {
                verified[variant] = file;
            }
            c
        };
        checked.attempted += c.attempted;
        checked.failed += c.failed;
        let get = |name: &str| sample.get(name).copied().unwrap_or(f64::NAN);
        if is_traced {
            eprintln!(
                "job {k} (traced): wall {:.3}s, {:.1}% of it in timed calls",
                get("wall_s"),
                100.0 * get("trace.coverage")
            );
            traced.push(sample);
        } else {
            eprintln!(
                "job {k} (fault list {variant}): setup {:.3}s, {:.1} exp/s, wall {:.3}s, rss {:.1} MB, db {:.2} MB",
                get("setup_s"),
                get("exp_per_s"),
                get("wall_s"),
                get("rss_peak_mb"),
                get("db_mb")
            );
            sample.insert("variant".into(), variant as f64);
            untraced.push(sample);
        }
    }
    Ok((untraced, traced, checked))
}

/// The result line: correctness tally plus metrics, every value with
/// all its digits.
fn result_json(checked: Checked, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {:?}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        checked.failed == 0 && checked.attempted > 0,
        checked.attempted,
        checked.failed,
        body.join(", ")
    )
}
