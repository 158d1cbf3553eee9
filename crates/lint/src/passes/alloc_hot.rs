//! **ALLOC-HOT** — allocation discipline on the two proven-hot paths.
//!
//! Two regions of this workspace carry explicit no-allocation /
//! no-copy claims: the fixed-limb Montgomery kernels (`crypto::limbs`,
//! DESIGN §4.13 — zero heap traffic per modular multiply) and the
//! evidence hot loop (commit → sign → seal → verify plus the wire
//! codec, E4's copy-freedom exhibit). ci.sh used to approximate both
//! with line greps (`Vec::|vec!|to_vec` over limbs.rs, a JSONL counter
//! grep for deep copies); this pass subsumes them: walk the call graph
//! from both root sets and flag every allocation-vocabulary
//! construction (`Vec::…`, `vec!`, `Box::new`, `String::…`,
//! `format!`, `.to_vec()`, `.to_string()`, `.to_owned()`,
//! `Bytes::copy_from_slice`) in any reached function.
//!
//! Allocations that are *deliberate* (the BigUint interop boundary,
//! digest output buffers) get justification-mandatory allowlist
//! entries — the gate's job is to make every hot-path allocation a
//! declared decision, and to keep `crates/crypto/src/limbs.rs` itself
//! at zero entries.

use crate::callgraph::Reach;
use crate::lexer::Token;
use crate::passes::PassCtx;
use crate::{Finding, Workspace};

pub const ID: &str = "ALLOC-HOT";

/// Evidence hot-loop roots: (module, fn name). Owners are not matched
/// so trait-default methods (`Wire::to_wire_bytes`) and free fns both
/// qualify. A root that names nothing would shrink the gate silently, so
/// the binary fails on one ([`unresolved_roots`]).
const HOT_ROOTS: &[(&str, &str)] = &[
    ("core::evidence", "sign_pair"),
    ("core::evidence", "seal_signatures"),
    ("core::evidence", "seal"),
    ("core::evidence", "seal_and_own"),
    ("core::evidence", "open_and_verify"),
    ("core::evidence", "verify_signatures"),
    ("core::evidence", "reverify"),
    ("core::session", "commit"),
    ("net::codec", "to_wire_bytes"),
    ("net::codec", "from_wire_bytes"),
];

/// One allocation site.
pub(crate) struct AllocSite {
    pub line: u32,
    pub col: u32,
    pub what: String,
}

/// Scan a function body for allocation-vocabulary constructions.
pub(crate) fn alloc_sites(
    toks: &[Token],
    in_test: &[bool],
    body: (usize, usize),
) -> Vec<AllocSite> {
    let (start, end) = body;
    let mut out = Vec::new();
    let mut i = start;
    while i < end {
        if in_test.get(i).copied().unwrap_or(false) {
            i += 1;
            continue;
        }
        let t = &toks[i];
        if let Some(name) = t.ident() {
            // `Vec::new(…)` / `String::from(…)` / `Box::new(…)` /
            // `Bytes::copy_from_slice(…)`, with optional turbofish.
            if matches!(name, "Vec" | "String" | "Box" | "Bytes") {
                let mut j = i + 1;
                if toks.get(j).is_some_and(|t| t.is_punct("::"))
                    && toks.get(j + 1).is_some_and(|t| t.is_punct("<"))
                {
                    // `Vec::<u8>::new` — skip the turbofish group.
                    let mut depth = 0isize;
                    j += 1;
                    while j < end {
                        if toks[j].is_punct("<") {
                            depth += 1;
                        } else if toks[j].is_punct(">") {
                            depth -= 1;
                            if depth == 0 {
                                j += 1;
                                break;
                            }
                        } else if toks[j].is_punct(">>") {
                            depth -= 2;
                            if depth <= 0 {
                                j += 1;
                                break;
                            }
                        }
                        j += 1;
                    }
                }
                if toks.get(j).is_some_and(|t| t.is_punct("::")) {
                    if let Some(assoc) = toks.get(j + 1).and_then(|t| t.ident()) {
                        let is_ctor = match name {
                            "Box" => assoc == "new",
                            "Bytes" => assoc == "copy_from_slice",
                            // Vec/String associated constructors.
                            _ => matches!(
                                assoc,
                                "new" | "with_capacity" | "from" | "from_utf8" | "from_utf8_lossy"
                            ),
                        };
                        if is_ctor && toks.get(j + 2).is_some_and(|t| t.is_punct("(")) {
                            out.push(AllocSite {
                                line: t.line,
                                col: t.col,
                                what: format!("{name}::{assoc}"),
                            });
                            i = j + 2;
                            continue;
                        }
                    }
                }
            }
            // `vec![…]` / `format!(…)`.
            if (name == "vec" || name == "format")
                && toks.get(i + 1).is_some_and(|t| t.is_punct("!"))
            {
                out.push(AllocSite { line: t.line, col: t.col, what: format!("{name}!") });
                i += 2;
                continue;
            }
            // `.to_vec()` / `.to_string()` / `.to_owned()`.
            if matches!(name, "to_vec" | "to_string" | "to_owned")
                && i > start
                && toks[i - 1].is_punct(".")
                && toks.get(i + 1).is_some_and(|t| t.is_punct("("))
            {
                out.push(AllocSite { line: t.line, col: t.col, what: format!(".{name}()") });
                i += 2;
                continue;
            }
        }
        i += 1;
    }
    out
}

fn roots_matching(ctx: &PassCtx, pred: impl Fn(&crate::parser::FnItem) -> bool) -> Vec<usize> {
    (0..ctx.graph.fns.len())
        .filter(|&i| {
            let it = &ctx.graph.fns[i].item;
            !it.is_test && pred(it)
        })
        .collect()
}

fn report(ctx: &PassCtx, reach: &Reach, region: &str, out: &mut Vec<Finding>) {
    let g = ctx.graph;
    for i in 0..g.fns.len() {
        if !reach.reached[i] || g.fns[i].item.is_test {
            continue;
        }
        let meta = &g.fns[i];
        let file = &ctx.ws.files[meta.file];
        let root = reach.root[i].map(|r| g.fns[r].item.qname.clone()).unwrap_or_default();
        let chain = g.chain(reach, i);
        for site in alloc_sites(&file.tokens, &file.in_test, meta.item.body) {
            out.push(Finding {
                file: file.path.clone(),
                line: site.line,
                col: site.col,
                rule: ID,
                message: format!(
                    "heap allocation `{}` on the {region} (root `{root}`, {chain}); preallocate or justify in lint-allow.toml",
                    site.what
                ),
                allowed: false,
            });
        }
    }
}

pub fn run(ctx: &PassCtx, out: &mut Vec<Finding>) {
    // Region A: the fixed-limb kernels. Every non-test fn in
    // crypto::limbs is a root — the module's contract is zero heap
    // traffic, full stop.
    let kernel_roots = roots_matching(ctx, |it| it.module == "crypto::limbs");
    let kernel_reach = ctx.graph.reach_from(&kernel_roots);
    report(ctx, &kernel_reach, "fixed-limb kernel path", out);
    // Region B: the evidence hot loop (commit/sign/seal/verify + wire
    // codec). Sites already reported from region A are deduped by the
    // engine (same rule, same position).
    let hot_roots =
        roots_matching(ctx, |it| HOT_ROOTS.iter().any(|(m, n)| it.module == *m && it.name == *n));
    let hot_reach = ctx.graph.reach_from(&hot_roots);
    report(ctx, &hot_reach, "evidence hot loop", out);
}

/// The hot roots whose module is among the workspace's files but holds no
/// non-test fn of the root's name: a deleted or renamed root. Roots of
/// modules the workspace lacks are not reported, so a partial workspace
/// (a test fixture) lints as before.
pub fn unresolved_roots(ws: &Workspace) -> Vec<(&'static str, &'static str)> {
    let linted = |m: &str| ws.files.iter().any(|f| f.module.as_deref() == Some(m));
    let resolves = |m: &str, n: &str| {
        let mut fns = ws.files.iter().flat_map(|f| &f.parsed.fns);
        fns.any(|it| !it.is_test && it.module == m && it.name == n)
    };
    HOT_ROOTS.iter().filter(|(m, n)| linted(m) && !resolves(m, n)).copied().collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::passes::run_pass;

    #[test]
    fn a_root_missing_from_its_module_is_unresolved() {
        let inputs = [
            (
                "crates/core/src/evidence.rs",
                "pub fn sign_pair() {}\npub fn seal_signatures() {}\npub fn seal() {}\n\
                 pub fn open_and_verify() {}\npub fn verify_signatures() {}\n\
                 impl VerifiedEvidence { pub fn reverify(&self) {} }\n\
                 #[cfg(test)]\nmod tests { fn seal_and_own() {} }",
            ),
            ("crates/core/src/session.rs", "impl Payload { pub fn commit(&self) {} }"),
        ]
        .map(|(p, s)| crate::FileInput { path: p.to_string(), source: s.to_string() });
        let ws = Workspace::build(&inputs);
        // A test fn does not stand in for the root, and `net::codec`'s
        // roots are not reported: the module is not among the inputs.
        assert_eq!(unresolved_roots(&ws), [("core::evidence", "seal_and_own")]);
    }

    #[test]
    fn limbs_allocation_is_flagged_without_any_call_chain() {
        let hits = run_pass(
            run,
            &[(
                "crates/crypto/src/limbs.rs",
                "pub struct FixedUint;\nimpl FixedUint {\n\
                 pub fn mul(&self) { let scratch = Vec::with_capacity(8); } }",
            )],
        );
        assert_eq!(hits.len(), 1);
        assert!(hits[0].message.contains("Vec::with_capacity"));
        assert!(hits[0].message.contains("fixed-limb kernel path"));
    }

    #[test]
    fn hot_loop_reaches_allocation_across_crates() {
        let hits = run_pass(
            run,
            &[
                (
                    "crates/core/src/evidence.rs",
                    "use tpnr_crypto::hash;\npub fn seal() { hash::digest_into(); }",
                ),
                ("crates/crypto/src/hash.rs", "pub fn digest_into() { let buf = data.to_vec(); }"),
            ],
        );
        assert_eq!(hits.len(), 1);
        assert_eq!(hits[0].file, "crates/crypto/src/hash.rs");
        assert!(hits[0].message.contains(".to_vec()"));
        assert!(hits[0].message.contains("evidence hot loop"));
        assert!(hits[0].message.contains("core::evidence::seal"));
    }

    #[test]
    fn unreached_allocation_is_fine() {
        let hits = run_pass(
            run,
            &[(
                "crates/core/src/obs.rs",
                "pub fn cold_path() { let v = vec![1, 2, 3]; let s = format!(\"x\"); }",
            )],
        );
        assert!(hits.is_empty());
    }

    #[test]
    fn deep_copy_ctor_is_flagged_on_the_wire_path() {
        let hits = run_pass(
            run,
            &[(
                "crates/net/src/codec.rs",
                "pub trait Wire {\n fn to_wire_bytes(&self) -> Bytes { frame_out() }\n}\n\
                 pub fn frame_out() -> Bytes { Bytes::copy_from_slice(buf) }",
            )],
        );
        assert_eq!(hits.len(), 1);
        assert!(hits[0].message.contains("Bytes::copy_from_slice"));
    }

    #[test]
    fn test_region_allocations_are_exempt() {
        let hits = run_pass(
            run,
            &[(
                "crates/crypto/src/limbs.rs",
                "pub fn mul_wide() {}\n#[cfg(test)]\nmod tests {\n\
                 #[test]\nfn t() { let v = vec![0u8; 64]; } }",
            )],
        );
        assert!(hits.is_empty());
    }
}
