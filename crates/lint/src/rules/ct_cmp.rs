//! **CT-CMP** — no `==` / `!=` on digest/MAC/signature-typed values
//! outside `crypto::ct`.
//!
//! Paper §5: the arbiter and evidence-verification paths compare hashes
//! and signatures; a data-dependent early-exit comparison leaks the first
//! differing byte through timing. All such comparisons must go through
//! `tpnr_crypto::ct::eq`, whose only data-dependent branch is on length
//! (public information). The heuristic: a comparison fires when either
//! operand mentions an identifier that names a digest, MAC, or signature
//! — unless the operand is a length query (`len()` / `output_len()` are
//! public), names an algorithm selector (`hash_alg` is an enum tag, not a
//! secret), or the name is the variant of a `Type::Variant` path
//! (`Ablation::NoSignatures` is an enum tag too).

use crate::lexer::{TokKind, Token};
use crate::{FileCtx, Finding};

pub const ID: &str = "CT-CMP";

const EXEMPT_MODULE: &str = "crypto::ct";

pub fn check(ctx: &FileCtx, out: &mut Vec<Finding>) {
    if ctx.module_str() == EXEMPT_MODULE || ctx.is_test_file {
        return;
    }
    let toks = ctx.tokens;
    for i in 0..toks.len() {
        if ctx.in_test[i] {
            continue;
        }
        let op = match &toks[i].kind {
            TokKind::Punct(p) if *p == "==" || *p == "!=" => *p,
            _ => continue,
        };
        let left = collect_left(toks, i);
        let right = collect_right(toks, i);
        let hit = sensitive_operand(&left).or_else(|| sensitive_operand(&right));
        if let Some(name) = hit {
            out.push(Finding {
                file: ctx.path.to_string(),
                line: toks[i].line,
                col: toks[i].col,
                rule: ID,
                message: format!(
                    "raw `{op}` on digest/MAC/signature value `{name}`; use tpnr_crypto::ct::eq"
                ),
                allowed: false,
            });
        }
    }
}

/// Identifiers mentioned in the operand to the left of token `i`,
/// innermost-last. Call arguments inside `(...)` / `[...]` groups are
/// skipped; the callee name before a group is kept (so `payload.commit(x)`
/// yields `payload`, `commit`).
fn collect_left(toks: &[crate::lexer::Token], i: usize) -> Vec<String> {
    let mut idents = Vec::new();
    let mut j = i;
    while j > 0 {
        j -= 1;
        match &toks[j].kind {
            TokKind::Punct(p) if *p == ")" || *p == "]" => {
                let open = if *p == ")" { "(" } else { "[" };
                let close = *p;
                let mut depth = 1usize;
                while j > 0 && depth > 0 {
                    j -= 1;
                    if toks[j].is_punct(close) {
                        depth += 1;
                    } else if toks[j].is_punct(open) {
                        depth -= 1;
                    }
                }
                if depth > 0 {
                    break; // unbalanced: give up on this operand
                }
            }
            TokKind::Ident(s) if !is_variant(toks, j) => idents.push(s.clone()),
            TokKind::Ident(_) => {}
            TokKind::Punct(p) if *p == "." || *p == "::" || *p == "&" || *p == "*" || *p == "?" => {
            }
            TokKind::Int | TokKind::Float | TokKind::Lit => {}
            _ => break,
        }
    }
    idents
}

/// Identifiers mentioned in the operand to the right of token `i`.
fn collect_right(toks: &[crate::lexer::Token], i: usize) -> Vec<String> {
    let mut idents = Vec::new();
    let mut j = i + 1;
    while j < toks.len() {
        match &toks[j].kind {
            TokKind::Punct(p) if *p == "(" || *p == "[" => {
                let open = *p;
                let close = if *p == "(" { ")" } else { "]" };
                let mut depth = 1usize;
                while depth > 0 {
                    j += 1;
                    if j >= toks.len() {
                        return idents;
                    }
                    if toks[j].is_punct(open) {
                        depth += 1;
                    } else if toks[j].is_punct(close) {
                        depth -= 1;
                    }
                }
            }
            TokKind::Ident(s) if !is_variant(toks, j) => idents.push(s.clone()),
            TokKind::Ident(_) => {}
            TokKind::Punct(p) if *p == "." || *p == "::" || *p == "&" || *p == "*" || *p == "?" => {
            }
            TokKind::Int | TokKind::Float | TokKind::Lit => {}
            _ => return idents,
        }
        j += 1;
    }
    idents
}

/// Is the identifier at `j` the variant of a `Type::Variant` path? Both
/// segments must be CamelCase, so an associated `Type::DIGEST` constant,
/// which may hold bytes, is still checked.
fn is_variant(toks: &[Token], j: usize) -> bool {
    let camel = |t: &Token| {
        t.ident()
            .is_some_and(|s| s.starts_with(char::is_uppercase) && s.contains(char::is_lowercase))
    };
    j >= 2 && camel(&toks[j]) && toks[j - 1].is_punct("::") && camel(&toks[j - 2])
}

/// If the operand is sensitive, return the identifier that makes it so.
/// Length queries short-circuit the whole operand: `digest.len() != 32`
/// compares public information.
fn sensitive_operand(idents: &[String]) -> Option<String> {
    if idents.iter().any(|s| {
        let l = s.to_lowercase();
        l == "len" || l == "is_empty" || l == "output_len" || l == "count"
    }) {
        return None;
    }
    idents.iter().find(|s| sensitive_name(s)).cloned()
}

fn sensitive_name(s: &str) -> bool {
    let l = s.to_lowercase();
    if l.contains("alg") {
        return false; // hash_alg / HashAlg: algorithm tags, not secrets
    }
    if l.contains("hash") || l.contains("digest") || l.contains("hmac") {
        return true;
    }
    if l == "mac" || l.starts_with("mac_") || l.ends_with("_mac") {
        return true;
    }
    // `sig` / `sig_data_hash` / `peer_sig` / `signature`, but NOT `signer`
    // or `sign` (those are roles/verbs, compared as identities, not bytes).
    if l == "sig" || l.starts_with("sig_") || l.ends_with("_sig") || l.contains("signature") {
        return true;
    }
    false
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rules::run_rule;

    const PATH: &str = "crates/core/src/arbiter.rs";

    #[test]
    fn fires_on_raw_digest_eq() {
        let hits = run_rule(check, PATH, "fn f() { if up.data_hash == down.data_hash {} }");
        assert_eq!(hits.len(), 1);
        assert_eq!(hits[0].rule, ID);
    }

    #[test]
    fn fires_on_signature_ne() {
        let hits = run_rule(check, PATH, "fn f() { if sig_plaintext != expected {} }");
        assert_eq!(hits.len(), 1);
    }

    #[test]
    fn fires_on_method_call_operand() {
        let hits = run_rule(check, PATH, "fn f() { if payload.commit(&cfg) != pt.data_hash {} }");
        assert_eq!(hits.len(), 1);
    }

    #[test]
    fn silent_on_ct_eq_form() {
        let hits =
            run_rule(check, PATH, "fn f() { if !ct::eq(&up.data_hash, &down.data_hash) {} }");
        assert!(hits.is_empty());
    }

    #[test]
    fn silent_on_length_comparison() {
        let hits = run_rule(check, PATH, "fn f() { if digest.len() != 32 { return; } }");
        assert!(hits.is_empty());
    }

    #[test]
    fn silent_on_hash_alg_enum_tag() {
        let hits = run_rule(check, PATH, "fn f() { if up.hash_alg != down.hash_alg {} }");
        assert!(hits.is_empty());
    }

    #[test]
    fn silent_on_an_enum_variant_path_but_not_on_a_signature() {
        let tag = "fn f() { if cfg.ablation != Ablation::NoSignatures {} }";
        assert!(run_rule(check, PATH, tag).is_empty());
        let flipped = "fn f() { if crate::config::Ablation::NoSignatures == cfg.ablation {} }";
        assert!(run_rule(check, PATH, flipped).is_empty());
        // The exemption covers the variant, not the other operand or a constant.
        assert_eq!(run_rule(check, PATH, "fn f() { if sig_plaintext != expected {} }").len(), 1);
        let mixed = "fn f() { if sig_plaintext != Ablation::NoSignatures {} }";
        assert_eq!(run_rule(check, PATH, mixed).len(), 1);
        assert_eq!(run_rule(check, PATH, "fn f() { if x == Sha256::EMPTY_DIGEST {} }").len(), 1);
    }

    #[test]
    fn silent_on_signer_identity() {
        let hits = run_rule(check, PATH, "fn f() { if ev.sender != signer { return; } }");
        assert!(hits.is_empty());
    }

    #[test]
    fn silent_inside_crypto_ct() {
        let hits = run_rule(
            check,
            "crates/crypto/src/ct.rs",
            "pub fn eq(a: &[u8], b: &[u8]) -> bool { a.hash == b.hash }",
        );
        assert!(hits.is_empty());
    }

    #[test]
    fn silent_in_test_region() {
        let src = "#[cfg(test)]\nmod tests { fn t() { assert!(a.data_hash == b.data_hash); } }";
        let hits = run_rule(check, PATH, src);
        assert!(hits.is_empty());
    }
}
