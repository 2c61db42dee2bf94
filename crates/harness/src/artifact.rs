//! The `OBS_cluster.json` observability artifact.
//!
//! The machine-readable twin of the experiment dashboards: one JSON
//! document with named sections, each written by the experiment binary
//! that produced it (`--bin obs` → `e18_obs`, `--bin shard` →
//! `e17_strong_scaling`).
//! Sections are merged read-modify-write through `simcore::Json::parse`,
//! so successive binaries extend one artifact instead of clobbering each
//! other — CI archives the result and schema-checks it with
//! `--bin obs -- --check`.

use simcore::Json;
use std::path::Path;
use std::process::ExitCode;

/// Default artifact filename, resolved against the working directory (the
/// repository root under `cargo run`).
pub const OBS_ARTIFACT: &str = "OBS_cluster.json";

/// Chrome trace-event export written by `--bin trace` (E19): the full
/// span set of the traced run, loadable in Perfetto / `chrome://tracing`.
/// A standalone file — the viewer wants the document at top level, so it
/// cannot be a section of [`OBS_ARTIFACT`].
pub const TRACE_ARTIFACT: &str = "TRACE_cluster.json";

/// Loads the artifact at `path`, or a fresh shell when it is missing or
/// unparseable (a corrupt artifact is rebuilt, not appended to).
pub fn load(path: &Path) -> Json {
    let parsed = std::fs::read_to_string(path).ok().and_then(|text| Json::parse(&text).ok());
    match parsed {
        Some(doc) if doc.get("sections").is_some() => doc,
        _ => Json::obj().set("artifact", Json::str("OBS_cluster")).set("sections", Json::obj()),
    }
}

/// Read-modify-writes one named section into the artifact at `path`.
pub fn write_section(path: &Path, name: &str, section: Json) -> std::io::Result<()> {
    let mut doc = load(path);
    let mut sections = doc.get("sections").cloned().unwrap_or_else(Json::obj);
    sections.insert(name, section);
    doc.insert("sections", sections);
    std::fs::write(path, doc.render())
}

/// The `--check [path]` mode of the artifact-writing bins: no simulation,
/// only a schema check of the artifact at `path`. Prints `<bin> --check:
/// <path> ok` on success; otherwise names the unreadable file, the JSON
/// parse error, or each error `schema_errors` found, and exits nonzero.
pub fn check(bin: &str, path: &Path, schema_errors: fn(&Json) -> Vec<String>) -> ExitCode {
    let text = match std::fs::read_to_string(path) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("{bin} --check: cannot read {}: {e}", path.display());
            return ExitCode::FAILURE;
        }
    };
    let doc = match Json::parse(&text) {
        Ok(d) => d,
        Err(e) => {
            eprintln!("{bin} --check: {} is not valid JSON: {e}", path.display());
            return ExitCode::FAILURE;
        }
    };
    let errs = schema_errors(&doc);
    if errs.is_empty() {
        println!("{bin} --check: {} ok", path.display());
        ExitCode::SUCCESS
    } else {
        for e in &errs {
            eprintln!("{bin} --check: {} missing/invalid: {e}", path.display());
        }
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sections_merge_across_writes() {
        let dir = std::env::temp_dir().join("obs_artifact_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(OBS_ARTIFACT);
        let _ = std::fs::remove_file(&path);

        write_section(&path, "a", Json::obj().set("x", Json::num(1.0))).unwrap();
        write_section(&path, "b", Json::obj().set("y", Json::num(2.0))).unwrap();
        write_section(&path, "a", Json::obj().set("x", Json::num(3.0))).unwrap();

        let doc = load(&path);
        assert_eq!(doc.get("artifact").and_then(Json::as_str), Some("OBS_cluster"));
        let sections = doc.get("sections").unwrap();
        assert_eq!(
            sections.get("a").and_then(|s| s.get("x")).and_then(Json::as_f64),
            Some(3.0),
            "rewrite replaces the section"
        );
        assert_eq!(sections.get("b").and_then(|s| s.get("y")).and_then(Json::as_f64), Some(2.0));
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn check_exits_nonzero_unless_the_schema_holds() {
        fn needs_x(doc: &Json) -> Vec<String> {
            match doc.get("sections").and_then(|s| s.get("x")) {
                Some(_) => Vec::new(),
                None => vec!["sections.x".to_string()],
            }
        }
        let dir = std::env::temp_dir().join("obs_artifact_check");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(OBS_ARTIFACT);
        let _ = std::fs::remove_file(&path);
        assert_eq!(check("t", &path, needs_x), ExitCode::FAILURE, "unreadable");
        std::fs::write(&path, "{not json").unwrap();
        assert_eq!(check("t", &path, needs_x), ExitCode::FAILURE, "invalid JSON");
        std::fs::remove_file(&path).unwrap();
        write_section(&path, "y", Json::obj()).unwrap();
        assert_eq!(check("t", &path, needs_x), ExitCode::FAILURE, "section missing");
        write_section(&path, "x", Json::obj()).unwrap();
        assert_eq!(check("t", &path, needs_x), ExitCode::SUCCESS);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn corrupt_artifact_is_rebuilt() {
        let dir = std::env::temp_dir().join("obs_artifact_corrupt");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(OBS_ARTIFACT);
        std::fs::write(&path, "{not json").unwrap();
        write_section(&path, "s", Json::obj()).unwrap();
        assert!(load(&path).get("sections").unwrap().get("s").is_some());
        std::fs::remove_file(&path).unwrap();
    }
}
