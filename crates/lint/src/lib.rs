//! `tpnr-lint`: a dependency-free, protocol-invariant static analyzer for
//! the TPNR workspace.
//!
//! The paper's security argument rests on invariants that general-purpose
//! tools cannot see: evidence must be signed-then-encrypted by dedicated
//! constructors, digests must be compared in constant time, protocol
//! timeliness must come from the simulated clock, and serialized output
//! must iterate deterministically. Each rule in [`rules`] encodes one such
//! invariant as a token-level heuristic over the hand-rolled [`lexer`].
//!
//! The engine operates on in-memory `(path, source)` pairs so rule tests
//! need no filesystem; the binary in `main.rs` walks the workspace and
//! feeds real files through the same path.

#![forbid(unsafe_code)]

pub mod allow;
pub mod callgraph;
pub mod lexer;
pub mod parser;
pub mod passes;
pub mod rules;

use lexer::Token;
use std::collections::BTreeMap;

/// One source file to analyze. `path` is workspace-relative with `/`
/// separators (used for module mapping and allowlist matching). A
/// `Cargo.toml` input is a crate manifest: it is not linted, and its
/// `[dependencies]` bound which crates the crate's calls may resolve into.
#[derive(Debug, Clone)]
pub struct FileInput {
    pub path: String,
    pub source: String,
}

/// A single rule violation at a source position.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    pub file: String,
    pub line: u32,
    pub col: u32,
    pub rule: &'static str,
    pub message: String,
    /// Set by the engine when a `lint-allow.toml` entry suppresses this.
    pub allowed: bool,
}

/// Per-file context handed to each rule.
pub struct FileCtx<'a> {
    pub path: &'a str,
    /// `crate::module` path, e.g. `core::client`; `None` for files that do
    /// not map to a library module (integration tests, benches, examples).
    pub module: Option<String>,
    /// True for files under `tests/`, `benches/`, or `examples/`.
    pub is_test_file: bool,
    pub tokens: &'a [Token],
    /// Parallel to `tokens`: inside a `#[cfg(test)]` / `#[test]` region.
    pub in_test: &'a [bool],
}

impl FileCtx<'_> {
    /// Module path as `&str` for scope checks (`""` when unknown).
    pub fn module_str(&self) -> &str {
        self.module.as_deref().unwrap_or("")
    }

    /// Last segment of the module path (`client` for `core::client`).
    pub fn module_leaf(&self) -> &str {
        self.module_str().rsplit("::").next().unwrap_or("")
    }
}

/// Map a workspace-relative path to a `crate::module` path.
///
/// `crates/core/src/client.rs` → `core::client`; `crates/net/src/lib.rs` →
/// `net`; the root package `src/lib.rs` → `tpnr`. Files under `tests/`,
/// `benches/`, or `examples/` get no module and are flagged as test files.
pub fn module_of(path: &str) -> (Option<String>, bool) {
    let parts: Vec<&str> = path.split('/').collect();
    let is_test_file = parts.iter().any(|p| *p == "tests" || *p == "benches" || *p == "examples");
    // Find the `src` component and the crate name before it.
    let src_idx = match parts.iter().position(|p| *p == "src") {
        Some(i) => i,
        None => return (None, is_test_file),
    };
    if is_test_file {
        return (None, true);
    }
    let crate_name = if src_idx == 0 {
        "tpnr".to_string()
    } else {
        // Directory holding `src` names the crate (`crates/<name>/src/…`
        // in this workspace, `<name>/src/…` for any stray layout).
        parts[src_idx - 1].replace('-', "_")
    };
    let mut module = crate_name;
    for seg in &parts[src_idx + 1..] {
        let seg = seg.trim_end_matches(".rs");
        if seg.is_empty() || seg == "lib" || seg == "main" || seg == "mod" {
            continue;
        }
        module.push_str("::");
        module.push_str(&seg.replace('-', "_"));
    }
    (Some(module), false)
}

/// Is this input a crate manifest rather than a source file?
pub fn is_manifest(path: &str) -> bool {
    path == "Cargo.toml" || path.ends_with("/Cargo.toml")
}

/// The crate root a manifest describes, named as [`module_of`] names the
/// crate's modules: the directory holding it (`crates/core/Cargo.toml` →
/// `core`), or `tpnr` for the workspace root's own package.
pub fn crate_of_manifest(path: &str) -> String {
    match path.strip_suffix("/Cargo.toml") {
        Some(dir) => dir.rsplit('/').next().unwrap_or(dir).replace('-', "_"),
        None => "tpnr".to_string(),
    }
}

/// The dependency names a manifest's `[dependencies]` list (target-specific
/// tables included; dev-, build- and `[workspace.dependencies]` not), as
/// written:
/// `tpnr-par.workspace = true`, `tpnr-core = { … }` and a
/// `[dependencies.tpnr-net]` table all name their first segment.
pub fn manifest_deps(text: &str) -> Vec<String> {
    let mut out = Vec::new();
    let mut in_deps = false;
    for line in text.lines().map(str::trim) {
        if let Some(header) = line.strip_prefix('[') {
            let header = header.trim_end_matches(']').trim();
            in_deps = header == "dependencies"
                || (header.starts_with("target.") && header.ends_with(".dependencies"));
            if let Some(dep) = header.strip_prefix("dependencies.") {
                out.push(dep.trim_matches('"').to_string());
            }
            continue;
        }
        if in_deps {
            let key = line.split(['=', '.']).next().unwrap_or("").trim().trim_matches('"');
            if !key.is_empty() && !key.starts_with('#') {
                out.push(key.to_string());
            }
        }
    }
    out
}

/// One lexed-and-parsed workspace file, shared by the per-file rules
/// and the interprocedural passes.
#[derive(Debug, Clone)]
pub struct WsFile {
    pub path: String,
    pub module: Option<String>,
    pub is_test_file: bool,
    pub tokens: Vec<Token>,
    pub in_test: Vec<bool>,
    pub parsed: parser::ParsedFile,
}

/// The whole workspace in one structure: input to the call graph.
#[derive(Debug, Clone, Default)]
pub struct Workspace {
    pub files: Vec<WsFile>,
    /// Crate root → the dependency names its manifest lists (see
    /// [`manifest_deps`]); a crate without a manifest among the inputs
    /// has no entry.
    pub manifests: BTreeMap<String, Vec<String>>,
}

impl Workspace {
    /// Lex and parse every source file; read every manifest's
    /// dependencies.
    pub fn build(files: &[FileInput]) -> Workspace {
        let mut out = Workspace::default();
        for f in files {
            if is_manifest(&f.path) {
                out.manifests.insert(crate_of_manifest(&f.path), manifest_deps(&f.source));
                continue;
            }
            let tokens = lexer::lex(&f.source);
            let in_test = lexer::test_region_flags(&tokens);
            let (module, is_test_file) = module_of(&f.path);
            let parsed = parser::parse_file(
                module.as_deref().unwrap_or(""),
                is_test_file,
                &tokens,
                &in_test,
            );
            out.files.push(WsFile {
                path: f.path.clone(),
                module,
                is_test_file,
                tokens,
                in_test,
                parsed,
            });
        }
        out
    }
}

/// Run every per-file rule and every interprocedural pass over the
/// workspace; findings come back sorted by (file, line, col, rule) with
/// `allowed` flags applied from `allow`.
pub fn lint_files(files: &[FileInput], allow: &allow::Allowlist) -> Vec<Finding> {
    lint_workspace(&Workspace::build(files), allow)
}

/// [`lint_files`] over an already built workspace.
pub fn lint_workspace(ws: &Workspace, allow: &allow::Allowlist) -> Vec<Finding> {
    let mut findings = Vec::new();
    for f in &ws.files {
        let ctx = FileCtx {
            path: &f.path,
            module: f.module.clone(),
            is_test_file: f.is_test_file,
            tokens: &f.tokens,
            in_test: &f.in_test,
        };
        for rule in rules::ALL {
            (rule.check)(&ctx, &mut findings);
        }
    }
    let graph = callgraph::Graph::build(ws);
    let pctx = passes::PassCtx { ws, graph: &graph };
    for pass in passes::ALL {
        (pass.run)(&pctx, &mut findings);
    }
    findings.sort_by(|a, b| {
        (a.file.as_str(), a.line, a.col, a.rule).cmp(&(b.file.as_str(), b.line, b.col, b.rule))
    });
    findings.dedup_by(|a, b| {
        a.file == b.file && a.line == b.line && a.col == b.col && a.rule == b.rule
    });
    for finding in &mut findings {
        if allow.permits(&finding.file, finding.rule) {
            finding.allowed = true;
        }
    }
    findings
}

/// Summary counts for the one-line CI report.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Summary {
    pub files: usize,
    pub rules: usize,
    pub findings: usize,
    pub allowlisted: usize,
}

impl Summary {
    pub fn of(files: &[FileInput], findings: &[Finding]) -> Summary {
        Summary {
            files: files.iter().filter(|f| !is_manifest(&f.path)).count(),
            rules: rules::ALL.len() + passes::ALL.len(),
            findings: findings.len(),
            allowlisted: findings.iter().filter(|f| f.allowed).count(),
        }
    }

    /// `N files, M rules, K findings, A allowlisted`
    pub fn line(&self) -> String {
        format!(
            "{} files, {} rules, {} findings, {} allowlisted",
            self.files, self.rules, self.findings, self.allowlisted
        )
    }
}

/// The binary's report: one `file:line:col RULE message` line per finding
/// that no allowlist entry suppresses, then the summary line.
pub fn render(findings: &[Finding], summary: &Summary) -> String {
    let mut out = String::new();
    for f in findings.iter().filter(|f| !f.allowed) {
        out.push_str(&format!("{}:{}:{} {} {}\n", f.file, f.line, f.col, f.rule, f.message));
    }
    out.push_str(&summary.line());
    out.push('\n');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn module_mapping() {
        assert_eq!(module_of("crates/core/src/client.rs"), (Some("core::client".into()), false));
        assert_eq!(module_of("crates/net/src/lib.rs"), (Some("net".into()), false));
        assert_eq!(module_of("src/lib.rs"), (Some("tpnr".into()), false));
        assert_eq!(
            module_of("crates/criterion-shim/src/lib.rs"),
            (Some("criterion_shim".into()), false)
        );
        assert_eq!(module_of("crates/core/tests/resolve_edge_cases.rs"), (None, true));
        assert_eq!(module_of("crates/bench/benches/evidence.rs"), (None, true));
        assert_eq!(module_of("examples/demo.rs"), (None, true));
    }

    #[test]
    fn manifests_name_their_crate_and_runtime_dependencies() {
        assert!(is_manifest("Cargo.toml") && is_manifest("crates/core/Cargo.toml"));
        assert!(!is_manifest("crates/core/src/Cargo.toml.rs"));
        assert_eq!(crate_of_manifest("crates/core/Cargo.toml"), "core");
        assert_eq!(crate_of_manifest("crates/proptest-shim/Cargo.toml"), "proptest_shim");
        assert_eq!(crate_of_manifest("Cargo.toml"), "tpnr");
        let text = "[package]\nname = \"tpnr-core\"\n\n[dependencies]\n\
                    tpnr-par.workspace = true\ntpnr-net = { path = \"../net\" }\n\
                    # a comment\n\n[dev-dependencies]\nproptest.workspace = true\n\
                    [target.'cfg(unix)'.dependencies]\ntpnr-storage = \"0.1\"\n\
                    [dependencies.tpnr-crypto]\npath = \"../crypto\"\n\
                    [build-dependencies]\ncc = \"1\"\n\
                    [workspace.dependencies]\ntpnr-bench = { path = \"crates/bench\" }\n";
        assert_eq!(
            manifest_deps(text),
            ["tpnr-par", "tpnr-net", "tpnr-storage", "tpnr-crypto"].map(String::from)
        );
    }

    #[test]
    fn findings_sorted_and_allow_applied() {
        let files = vec![FileInput {
            path: "crates/core/src/obs.rs".into(),
            source: "use std::collections::HashMap;\nstruct S { m: HashMap<u8, u8> }".into(),
        }];
        let allow = allow::Allowlist::parse(
            "[[allow]]\nrule = \"DET-ORDER\"\npath = \"crates/core/src/obs.rs\"\njustification = \"test\"\n",
        )
        .unwrap();
        let findings = lint_files(&files, &allow);
        assert_eq!(findings.len(), 2);
        assert!(findings.iter().all(|f| f.allowed));
        assert!(findings[0].line <= findings[1].line);
    }
}
