//! `tpnr-lint` binary: walk every `.rs` file in the workspace, run the
//! rule set and the interprocedural passes, honor `lint-allow.toml`,
//! and report.
//!
//! Exit codes: 0 = clean (all findings allowlisted, no stale allowlist
//! entries), 1 = unallowlisted findings or stale allowlist entries,
//! 2 = usage or I/O error.

#![forbid(unsafe_code)]

use std::path::{Path, PathBuf};
use std::process::ExitCode;

use tpnr_lint::{allow::Allowlist, lint_files, render, FileInput, Summary};

const USAGE: &str = "usage: tpnr-lint [--root DIR] [--allowlist FILE]";

fn main() -> ExitCode {
    let mut root: Option<PathBuf> = None;
    let mut allow_path: Option<PathBuf> = None;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--root" => match args.next() {
                Some(d) => root = Some(PathBuf::from(d)),
                None => return usage_error("--root needs a directory"),
            },
            "--allowlist" => match args.next() {
                Some(f) => allow_path = Some(PathBuf::from(f)),
                None => return usage_error("--allowlist needs a file"),
            },
            "--help" | "-h" => {
                println!("{USAGE}");
                return ExitCode::SUCCESS;
            }
            other => return usage_error(&format!("unknown argument `{other}`")),
        }
    }

    let root = match root.or_else(find_workspace_root) {
        Some(r) => r,
        None => {
            eprintln!("tpnr-lint: cannot locate the workspace root; pass --root");
            return ExitCode::from(2);
        }
    };

    let allow_file = allow_path.unwrap_or_else(|| root.join("lint-allow.toml"));
    let allow = if allow_file.exists() {
        let text = match std::fs::read_to_string(&allow_file) {
            Ok(t) => t,
            Err(e) => {
                eprintln!("tpnr-lint: reading {}: {e}", allow_file.display());
                return ExitCode::from(2);
            }
        };
        match Allowlist::parse(&text) {
            Ok(a) => a,
            Err(e) => {
                eprintln!("tpnr-lint: {e}");
                return ExitCode::from(2);
            }
        }
    } else {
        Allowlist::empty()
    };

    let mut files = Vec::new();
    if let Err(e) = collect_rs_files(&root, &root, &mut files) {
        eprintln!("tpnr-lint: walking {}: {e}", root.display());
        return ExitCode::from(2);
    }
    files.sort_by(|a, b| a.path.cmp(&b.path));

    let findings = lint_files(&files, &allow);
    let summary = Summary::of(&files, &findings);

    // A stale allowlist entry is a hard failure: it means a finding was
    // fixed (or a path moved) and the justification now suppresses
    // nothing — left alone it would silently mask the next regression.
    let stale = allow.unused(&findings);
    for s in &stale {
        eprintln!(
            "tpnr-lint: error: unused allowlist entry {} @ {} ({})",
            s.rule, s.path, s.justification
        );
    }
    // The findings, then the one-line coverage summary CI logs grep for.
    print!("{}", render(&findings, &summary));

    if summary.findings > summary.allowlisted || !stale.is_empty() {
        ExitCode::from(1)
    } else {
        ExitCode::SUCCESS
    }
}

fn usage_error(msg: &str) -> ExitCode {
    eprintln!("tpnr-lint: {msg}\n{USAGE}");
    ExitCode::from(2)
}

/// Locate the workspace root: prefer the current directory if it holds a
/// `[workspace]` manifest (the `cargo run` case from the repo root), else
/// walk up from this crate's own manifest directory.
fn find_workspace_root() -> Option<PathBuf> {
    let here = PathBuf::from(".");
    if is_workspace_root(&here) {
        return Some(here);
    }
    let mut dir = PathBuf::from(env!("CARGO_MANIFEST_DIR"));
    while dir.pop() {
        if is_workspace_root(&dir) {
            return Some(dir);
        }
    }
    None
}

fn is_workspace_root(dir: &Path) -> bool {
    std::fs::read_to_string(dir.join("Cargo.toml"))
        .map(|t| t.contains("[workspace]"))
        .unwrap_or(false)
}

/// Recursively collect `.rs` files under `dir`, skipping build output,
/// VCS metadata, hidden directories and nested workspaces. Paths are
/// stored workspace-relative with `/` separators so findings and
/// allowlist entries are portable.
fn collect_rs_files(root: &Path, dir: &Path, out: &mut Vec<FileInput>) -> std::io::Result<()> {
    for entry in std::fs::read_dir(dir)? {
        let entry = entry?;
        let path = entry.path();
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if path.is_dir() {
            // `fixtures` holds the lint's own test corpus: deliberately
            // broken code that must not be linted as workspace source. A
            // directory with a `[workspace]` manifest of its own (the host
            // benchmark in `perfbench/`) is a separate project that only
            // uses this one's public API.
            if name == "target"
                || name == "fixtures"
                || name.starts_with('.')
                || is_workspace_root(&path)
            {
                continue;
            }
            collect_rs_files(root, &path, out)?;
        } else if name.ends_with(".rs") {
            let rel = path
                .strip_prefix(root)
                .unwrap_or(&path)
                .components()
                .map(|c| c.as_os_str().to_string_lossy().into_owned())
                .collect::<Vec<_>>()
                .join("/");
            let source = std::fs::read_to_string(&path)?;
            out.push(FileInput { path: rel, source });
        }
    }
    Ok(())
}
