//! **EVIDENCE-CTOR** — evidence tokens may only be struct-literal
//! constructed inside their defining module `core::evidence`.
//!
//! Paper §4's evidence discipline: `Evidence = Encrypt_pk(recipient){
//! Sign(H(data)), Sign(H(plaintext))}` — sign-then-encrypt, in that
//! order. If any actor can build a `SealedEvidence` / `VerifiedEvidence`
//! by struct literal, it can skip the signing step (or encrypt first) and
//! the non-repudiation argument collapses. All construction goes through
//! the signing constructors in `core::evidence`, so the type system
//! witnesses the order. Test code is exempt — forging malformed evidence
//! is exactly what adversarial tests do.

use crate::lexer::TokKind;
use crate::{FileCtx, Finding};

pub const ID: &str = "EVIDENCE-CTOR";

const DEFINING_MODULE: &str = "core::evidence";

/// The evidence-token types whose construction is restricted.
const GUARDED_TYPES: &[&str] = &["SealedEvidence", "VerifiedEvidence"];

pub fn check(ctx: &FileCtx, out: &mut Vec<Finding>) {
    if ctx.module_str() == DEFINING_MODULE || ctx.is_test_file {
        return;
    }
    let toks = ctx.tokens;
    for i in 0..toks.len() {
        if ctx.in_test[i] {
            continue;
        }
        let name = match toks[i].ident() {
            Some(n) if GUARDED_TYPES.contains(&n) => n,
            _ => continue,
        };
        // Struct literal: the type name directly followed by `{`.
        if i + 1 >= toks.len() || !toks[i + 1].is_punct("{") {
            continue;
        }
        // Exclude non-literal positions where `Type {` also appears:
        // `impl SealedEvidence {`, `impl Wire for SealedEvidence {`,
        // `struct SealedEvidence {`, and `fn f() -> SealedEvidence {`
        // (the `{` is the fn body).
        if i > 0 {
            let skip = match &toks[i - 1].kind {
                TokKind::Ident(k) => {
                    matches!(k.as_str(), "impl" | "for" | "struct" | "enum" | "union" | "trait")
                }
                TokKind::Punct(p) => *p == "->",
                _ => false,
            };
            if skip {
                continue;
            }
        }
        out.push(Finding {
            file: ctx.path.to_string(),
            line: toks[i].line,
            col: toks[i].col,
            rule: ID,
            message: format!(
                "`{name}` struct literal outside core::evidence; evidence tokens must be \
                 built by the signing constructors (seal / seal_signatures / seal_and_own)"
            ),
            allowed: false,
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rules::run_rule;

    const PATH: &str = "crates/core/src/provider.rs";

    #[test]
    fn fires_on_struct_literal() {
        let hits =
            run_rule(check, PATH, "fn f(sealed: Vec<u8>) -> X { SealedEvidence { sealed } }");
        assert_eq!(hits.len(), 1);
        assert_eq!(hits[0].rule, ID);
    }

    #[test]
    fn fires_on_qualified_literal() {
        let hits = run_rule(
            check,
            PATH,
            "fn f(s: Vec<u8>) { let e = crate::evidence::SealedEvidence { sealed: s }; }",
        );
        assert_eq!(hits.len(), 1);
    }

    #[test]
    fn silent_on_constructor_form() {
        let hits = run_rule(
            check,
            PATH,
            "fn f() -> Result<SealedEvidence, E> { evidence::seal(cfg, me, pk, rng, pt) }",
        );
        assert!(hits.is_empty());
    }

    #[test]
    fn silent_inside_defining_module() {
        let hits = run_rule(
            check,
            "crates/core/src/evidence.rs",
            "pub fn seal() -> SealedEvidence { SealedEvidence { sealed } }",
        );
        assert!(hits.is_empty());
    }

    #[test]
    fn silent_on_impl_and_fn_return_position() {
        let src = "impl SealedEvidence { fn x(&self) {} }\n\
                   impl Wire for SealedEvidence { fn put(&self) {} }\n\
                   fn mk() -> SealedEvidence { helper() }";
        let hits = run_rule(check, PATH, src);
        assert!(hits.is_empty());
    }

    #[test]
    fn silent_in_tests() {
        let src =
            "#[cfg(test)]\nmod tests { fn forge() { let e = SealedEvidence { sealed: vec![] }; } }";
        assert!(run_rule(check, PATH, src).is_empty());
        assert!(run_rule(
            check,
            "crates/core/tests/forgery.rs",
            "fn f() { let e = SealedEvidence { sealed: vec![] }; }"
        )
        .is_empty());
    }
}
