//! The `harness` binary: one command per row of
//! [`harness::experiments::EXPERIMENTS`], plus `all` (every full-size
//! report to `<dir>/<stem>.txt`, default `results/`) and the regression
//! `sentinel`; the flags are in `USAGE`. A run prints its report on
//! stdout, writes its `OBS_cluster.json` section and files into the
//! working directory, and exits 1 if a write fails. `--check [path]` runs
//! no simulation: it checks the artifact (default `OBS_cluster.json`)
//! against the experiment's schema rows. An unknown experiment or flag
//! exits 2.

use harness::artifact::{self, OBS_ARTIFACT};
use harness::experiments::{find, Experiment, Rendered, Size, EXPERIMENTS};
use harness::sentinel;
use std::path::Path;
use std::process::ExitCode;
use std::time::Instant;

const USAGE: &str = "usage: harness <experiment> [--smoke | --check [path] | --top-k N]
       harness all [dir]
       harness sentinel [--update] [--baselines dir]";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let args: Vec<&str> = args.iter().map(String::as_str).collect();
    let outcome = match args.split_first() {
        Some((&"all", rest)) => all(rest),
        Some((&"sentinel", rest)) => sentinel_command(rest),
        Some((name, rest)) => match find(name) {
            Some(exp) => experiment(exp, rest),
            None => Err(format!("unknown experiment `{name}`")),
        },
        None => Err("no experiment given".to_string()),
    };
    outcome.unwrap_or_else(|e| {
        let names: Vec<&str> = EXPERIMENTS.iter().map(|e| e.name).collect();
        eprintln!("harness: {e}\n{USAGE}\nexperiments: {}", names.join(" "));
        ExitCode::from(2)
    })
}

fn experiment(exp: &Experiment, args: &[&str]) -> Result<ExitCode, String> {
    let (mut size, mut check, mut top_k) = (Size::Full, None, None);
    let mut args = args.iter().copied().peekable();
    while let Some(flag) = args.next() {
        match flag {
            "--smoke" if exp.smoke => size = Size::Smoke,
            "--check" if !exp.schema.is_empty() => {
                check = Some(args.next_if(|a| !a.starts_with("--")).unwrap_or(OBS_ARTIFACT));
            }
            "--top-k" if exp.top_k.is_some() => {
                let k = args.next().and_then(|k| k.parse::<usize>().ok());
                top_k = Some(k.ok_or("--top-k takes a count")?);
            }
            _ => return Err(format!("`{}` takes no flag `{flag}`", exp.name)),
        }
    }
    if let Some(path) = check {
        if size == Size::Smoke || top_k.is_some() {
            return Err("--check runs no simulation and takes no other flag".to_string());
        }
        return Ok(artifact::check(exp.name, Path::new(path), exp.schema));
    }
    let run = match (exp.top_k, top_k) {
        (Some(render), Some(k)) => render(size, k),
        _ => (exp.render)(size),
    };
    Ok(emit(exp, run))
}

/// Prints the report, then writes the section and the files; the first
/// failed write ends the run with a nonzero status.
fn emit(exp: &Experiment, run: Rendered) -> ExitCode {
    print!("{}", run.report);
    let section = exp.section.zip(run.section).map(|(name, json)| {
        let written = artifact::write_section(Path::new(OBS_ARTIFACT), name, json);
        (format!("section {name} of {OBS_ARTIFACT}"), written)
    });
    let files =
        run.files.into_iter().map(|(name, bytes)| (name.to_string(), std::fs::write(name, bytes)));
    for (what, written) in section.into_iter().chain(files) {
        match written {
            Ok(()) => eprintln!("{}: wrote {what}", exp.name),
            Err(e) => {
                eprintln!("{}: could not write {what}: {e}", exp.name);
                return ExitCode::FAILURE;
            }
        }
    }
    ExitCode::SUCCESS
}

/// Every experiment at full size, one report file each.
fn all(args: &[&str]) -> Result<ExitCode, String> {
    let dir = match args {
        [] => "results",
        [dir] if !dir.starts_with("--") => dir,
        _ => return Err("`all` takes one directory".to_string()),
    };
    if let Err(e) = std::fs::create_dir_all(dir) {
        eprintln!("harness all: could not create {dir}: {e}");
        return Ok(ExitCode::FAILURE);
    }
    for exp in &EXPERIMENTS {
        let start = Instant::now();
        let report = (exp.render)(Size::Full).report;
        let path = format!("{dir}/{}.txt", exp.stem);
        if let Err(e) = std::fs::write(&path, &report) {
            eprintln!("harness all: could not write {path}: {e}");
            return Ok(ExitCode::FAILURE);
        }
        let secs = start.elapsed().as_secs_f64();
        println!("wrote {path} ({} lines, {secs:.1}s)", report.lines().count());
    }
    println!("done — see {dir}/");
    Ok(ExitCode::SUCCESS)
}

fn sentinel_command(args: &[&str]) -> Result<ExitCode, String> {
    let (mut dir, mut update) = ("baselines", false);
    let mut args = args.iter().copied();
    while let Some(flag) = args.next() {
        match flag {
            "--update" => update = true,
            "--baselines" => dir = args.next().ok_or("--baselines takes a directory")?,
            _ => return Err(format!("`sentinel` takes no flag `{flag}`")),
        }
    }
    Ok(sentinel::run(Path::new(dir), update))
}
