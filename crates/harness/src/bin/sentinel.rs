//! Regression sentinel: diffs the run artifact against its committed
//! baseline in `baselines/`, failing (exit 1) on any drift outside the
//! tolerance bands — the CI gate that catches silent behaviour changes.
//!
//! The guarded artifact is `OBS_cluster.json`: the E17–E22 sections the
//! `--smoke` binaries write earlier in the CI run. Timing is measured by
//! the `perfbench/` package, not here.
//!
//! Wall-clock fields are excluded by schema ([`harness::sentinel`]);
//! counters must match exactly; floats to 1e-9 relative. See
//! `baselines/README.md` for the full band definition.
//!
//! Flags:
//! * `--baselines <dir>` — baseline directory (default `baselines`)
//! * `--update` — overwrite the baseline with the current artifact
//!   (run the smoke binaries first, then commit the result)

use harness::sentinel::{compare, DEFAULT_REL_TOL};
use simcore::Json;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

/// `(baseline filename, current artifact path)` pairs the sentinel guards.
const ARTIFACTS: [(&str, &str); 1] = [("OBS_cluster.json", "OBS_cluster.json")];

fn load(path: &Path) -> Result<Json, String> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
    Json::parse(&text).map_err(|e| format!("{} is not valid JSON: {e}", path.display()))
}

fn update(dir: &Path) -> ExitCode {
    if let Err(e) = std::fs::create_dir_all(dir) {
        eprintln!("sentinel --update: cannot create {}: {e}", dir.display());
        return ExitCode::FAILURE;
    }
    let mut status = ExitCode::SUCCESS;
    for (name, current) in ARTIFACTS {
        // Parse-and-render rather than copy: verifies the artifact and
        // normalizes it through the same codec the comparison uses.
        match load(Path::new(current)) {
            Ok(doc) => {
                let dest = dir.join(name);
                match std::fs::write(&dest, doc.render()) {
                    Ok(()) => println!("sentinel: updated {}", dest.display()),
                    Err(e) => {
                        eprintln!("sentinel --update: cannot write {}: {e}", dest.display());
                        status = ExitCode::FAILURE;
                    }
                }
            }
            Err(e) => {
                eprintln!("sentinel --update: skipping {name}: {e}");
                status = ExitCode::FAILURE;
            }
        }
    }
    status
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let dir: PathBuf = args
        .iter()
        .position(|a| a == "--baselines")
        .and_then(|i| args.get(i + 1))
        .map_or_else(|| PathBuf::from("baselines"), PathBuf::from);
    if args.iter().any(|a| a == "--update") {
        return update(&dir);
    }

    let mut total = 0usize;
    let mut checked = 0usize;
    for (name, current) in ARTIFACTS {
        let base_path = dir.join(name);
        if !base_path.exists() {
            eprintln!("sentinel: no baseline {}, skipping", base_path.display());
            continue;
        }
        let (base, cur) = match (load(&base_path), load(Path::new(current))) {
            (Ok(b), Ok(c)) => (b, c),
            (Err(e), _) | (_, Err(e)) => {
                eprintln!("sentinel: {e}");
                total += 1;
                continue;
            }
        };
        checked += 1;
        let drifts = compare(&base, &cur, DEFAULT_REL_TOL);
        if drifts.is_empty() {
            println!("sentinel: {current} matches {}", base_path.display());
        } else {
            eprintln!("sentinel: {current} drifted from {}:", base_path.display());
            for d in &drifts {
                eprintln!("  {d}");
            }
            total += drifts.len();
        }
    }
    if total > 0 {
        eprintln!(
            "sentinel: {total} drift(s). If intentional, refresh with \
             `cargo run -p harness --bin sentinel -- --update` and commit."
        );
        return ExitCode::FAILURE;
    }
    if checked == 0 {
        eprintln!("sentinel: nothing checked (no baselines found in {})", dir.display());
        return ExitCode::FAILURE;
    }
    println!("sentinel: {checked} artifact(s) within tolerance bands");
    ExitCode::SUCCESS
}
