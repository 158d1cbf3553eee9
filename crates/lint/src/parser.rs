//! Item-level parser: a brace-matched module / impl / fn tree with spans.
//!
//! The semantic passes (panic reachability, secret-flow taint, hot-path
//! allocation discipline) need to know *which function* a token belongs to
//! and *who calls whom* — neither of which the flat token stream gives
//! them. This parser recovers just enough structure from the [`crate::lexer`]
//! output, without building an AST:
//!
//! - `mod name { … }` nesting (appended to the file's module path);
//! - `impl Type { … }` / `impl Trait for Type { … }` / `trait T { … }`
//!   blocks (methods get an *owner* and, for trait impls, a trait name);
//! - `fn` items with name, visibility, parameter names, and the token
//!   range of their body (bodies are opaque: nested items inside a fn
//!   body are attributed to the enclosing function);
//! - `use` declarations flattened into an alias → path table (groups and
//!   `as` renames supported, globs ignored);
//! - `struct` items with field names and whether they `#[derive(Debug)]`
//!   (the secret-flow pass flags derived Debug on secret-bearing types).
//!
//! Item-level macro invocations (`thread_local! { … }` and friends) are
//! skipped wholesale: code inside them belongs to no function and is not
//! analyzed. This is a documented soundness limit of the call graph.

use crate::lexer::{TokKind, Token};

/// A parsed `fn` item.
#[derive(Debug, Clone)]
pub struct FnItem {
    /// Bare function name (`upload`, `decode`).
    pub name: String,
    /// Self type for inherent/trait-impl methods and trait default
    /// methods (`Client`), `None` for free functions.
    pub owner: Option<String>,
    /// Trait name for `impl Trait for Type` methods and trait decls.
    pub trait_name: Option<String>,
    /// Module path including nested `mod` blocks (`core::client::tests`).
    pub module: String,
    /// `module::[Owner::]name` — the display / lookup name.
    pub qname: String,
    pub is_pub: bool,
    /// Inside a `#[cfg(test)]` / `#[test]` region (or a test file).
    pub is_test: bool,
    /// Position of the function *name* token.
    pub line: u32,
    pub col: u32,
    /// Parameter names in declaration order, excluding any `self`.
    pub params: Vec<String>,
    /// Each parameter's written type, parallel to `params`: the last path
    /// segment outside generics (`Writer` for `w: &mut Writer`, `Reader`
    /// for `r: &mut codec::Reader<'_>`), or `None` for an `impl`/`dyn`
    /// type or one with no name (`&[u8]`, a tuple).
    pub param_types: Vec<Option<String>>,
    pub has_self: bool,
    /// Half-open token range of the body including braces; empty when the
    /// item has no body (trait method declaration).
    pub body: (usize, usize),
}

/// One `use` alias: the name it introduces and the full path it means.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct UseDecl {
    pub alias: String,
    pub path: Vec<String>,
}

/// A `struct` item (field names; derive(Debug) presence).
#[derive(Debug, Clone)]
pub struct StructItem {
    pub name: String,
    pub module: String,
    pub derives_debug: bool,
    pub fields: Vec<String>,
    pub line: u32,
    pub col: u32,
}

/// Everything the parser recovered from one file.
#[derive(Debug, Clone, Default)]
pub struct ParsedFile {
    pub fns: Vec<FnItem>,
    pub uses: Vec<UseDecl>,
    pub structs: Vec<StructItem>,
}

/// Keywords that can appear as `ident (` without being calls.
pub const EXPR_KEYWORDS: &[&str] = &[
    "if", "else", "while", "for", "loop", "match", "return", "break", "continue", "in", "as",
    "let", "move", "ref", "mut", "box", "await", "async", "unsafe", "dyn", "impl", "fn", "pub",
    "use", "mod", "struct", "enum", "trait", "type", "where", "const", "static", "crate", "super",
    "true", "false", "yield",
];

/// Parse one lexed file. `module` is the file's base module path from
/// [`crate::module_of`]; `in_test` is the per-token test-region mask.
pub fn parse_file(
    module: &str,
    is_test_file: bool,
    tokens: &[Token],
    in_test: &[bool],
) -> ParsedFile {
    let mut p = Parser { toks: tokens, in_test, is_test_file, out: ParsedFile::default() };
    p.items(0, tokens.len(), module, None, None);
    p.out
}

struct Parser<'a> {
    toks: &'a [Token],
    in_test: &'a [bool],
    is_test_file: bool,
    out: ParsedFile,
}

impl Parser<'_> {
    /// Parse items in `[i, end)` under `module` / `owner`. Returns when
    /// the range is exhausted.
    fn items(
        &mut self,
        mut i: usize,
        end: usize,
        module: &str,
        owner: Option<&str>,
        trait_name: Option<&str>,
    ) {
        let mut is_pub = false;
        let mut derives_debug = false;
        while i < end {
            let t = &self.toks[i];
            // Attribute: scan it for `derive(… Debug …)`; everything else
            // about attributes is already handled by the test-region mask.
            if t.is_punct("#") && i + 1 < end && self.toks[i + 1].is_punct("[") {
                let attr_end = self.skip_group(i + 1, "[", "]", end);
                let body = &self.toks[i + 1..attr_end];
                if body.iter().any(|t| t.is_ident("derive"))
                    && body.iter().any(|t| t.is_ident("Debug"))
                {
                    derives_debug = true;
                }
                i = attr_end;
                continue;
            }
            let name = match t.ident() {
                Some(n) => n,
                None => {
                    // Stray group at item level (e.g. macro expansion
                    // remnants): skip it balanced so we can't desync.
                    i = match () {
                        _ if t.is_punct("{") => self.skip_group(i, "{", "}", end),
                        _ if t.is_punct("(") => self.skip_group(i, "(", ")", end),
                        _ if t.is_punct("[") => self.skip_group(i, "[", "]", end),
                        _ => i + 1,
                    };
                    continue;
                }
            };
            match name {
                "pub" => {
                    is_pub = true;
                    i += 1;
                    // `pub(crate)` / `pub(super)` / `pub(in path)`.
                    if i < end && self.toks[i].is_punct("(") {
                        i = self.skip_group(i, "(", ")", end);
                    }
                }
                "unsafe" | "async" | "extern" | "default" => {
                    i += 1;
                    // `extern "C"` — skip the ABI literal.
                    if i < end && self.toks[i].kind == TokKind::Lit {
                        i += 1;
                    }
                }
                "const" | "static" | "type" if !self.next_is(i + 1, "fn") => {
                    // `const X: T = …;` / `static` / `type` aliases. The
                    // initializer may contain `;` inside groups, so skip
                    // group-aware to the terminating semicolon.
                    i = self.skip_to_semi(i + 1, end);
                    is_pub = false;
                    derives_debug = false;
                }
                "const" => i += 1, // `const fn`: let the fn arm handle it
                "mod" => {
                    i = self.parse_mod(i, end, module, is_pub);
                    is_pub = false;
                    derives_debug = false;
                }
                "impl" => {
                    i = self.parse_impl(i, end, module);
                    is_pub = false;
                    derives_debug = false;
                }
                "trait" => {
                    i = self.parse_trait(i, end, module);
                    is_pub = false;
                    derives_debug = false;
                }
                "fn" => {
                    i = self.parse_fn(i, end, module, owner, trait_name, is_pub);
                    is_pub = false;
                    derives_debug = false;
                }
                "struct" => {
                    i = self.parse_struct(i, end, module, derives_debug);
                    is_pub = false;
                    derives_debug = false;
                }
                "enum" | "union" => {
                    // Skip name + generics, then the body braces (or `;`).
                    i += 1;
                    while i < end && !self.toks[i].is_punct("{") && !self.toks[i].is_punct(";") {
                        i += 1;
                    }
                    if i < end && self.toks[i].is_punct("{") {
                        i = self.skip_group(i, "{", "}", end);
                    } else {
                        i += 1;
                    }
                    is_pub = false;
                    derives_debug = false;
                }
                "use" => {
                    i = self.parse_use(i, end);
                    is_pub = false;
                    derives_debug = false;
                }
                "macro_rules" => {
                    // `macro_rules! name { … }` — opaque.
                    i += 1;
                    while i < end
                        && !self.toks[i].is_punct("{")
                        && !self.toks[i].is_punct("(")
                        && !self.toks[i].is_punct("[")
                    {
                        i += 1;
                    }
                    i = match () {
                        _ if i < end && self.toks[i].is_punct("{") => {
                            self.skip_group(i, "{", "}", end)
                        }
                        _ if i < end && self.toks[i].is_punct("(") => {
                            self.skip_group(i, "(", ")", end)
                        }
                        _ if i < end && self.toks[i].is_punct("[") => {
                            self.skip_group(i, "[", "]", end)
                        }
                        _ => i,
                    };
                    is_pub = false;
                    derives_debug = false;
                }
                _ => {
                    // Item-level macro invocation `name! { … }` /
                    // `name!(…);` — opaque (no functions inside are
                    // attributed; documented soundness limit).
                    if i + 1 < end && self.toks[i + 1].is_punct("!") {
                        let mut j = i + 2;
                        // Optional macro "name" ident (macro_rules-style).
                        if j < end && self.toks[j].ident().is_some() {
                            j += 1;
                        }
                        i = match () {
                            _ if j < end && self.toks[j].is_punct("{") => {
                                self.skip_group(j, "{", "}", end)
                            }
                            _ if j < end && self.toks[j].is_punct("(") => {
                                self.skip_group(j, "(", ")", end)
                            }
                            _ if j < end && self.toks[j].is_punct("[") => {
                                self.skip_group(j, "[", "]", end)
                            }
                            _ => j,
                        };
                    } else {
                        i += 1;
                    }
                    is_pub = false;
                    derives_debug = false;
                }
            }
        }
    }

    fn next_is(&self, i: usize, name: &str) -> bool {
        self.toks.get(i).is_some_and(|t| t.is_ident(name))
    }

    /// `mod name { … }` → recurse; `mod name;` → skip.
    fn parse_mod(&mut self, i: usize, end: usize, module: &str, _is_pub: bool) -> usize {
        let mut j = i + 1;
        let name = match self.toks.get(j).and_then(|t| t.ident()) {
            Some(n) => n.to_string(),
            None => return i + 1,
        };
        j += 1;
        if j < end && self.toks[j].is_punct("{") {
            let close = self.skip_group(j, "{", "}", end);
            let sub = if module.is_empty() { name } else { format!("{module}::{name}") };
            self.items(j + 1, close.saturating_sub(1), &sub, None, None);
            close
        } else {
            // `mod name;` — out-of-line, its file is parsed separately.
            j + 1
        }
    }

    /// `impl [<…>] [Trait for] Type [where …] { … }`.
    fn parse_impl(&mut self, i: usize, end: usize, module: &str) -> usize {
        let mut j = i + 1;
        if j < end && self.toks[j].is_punct("<") {
            j = self.skip_angles(j, end);
        }
        // Collect the head: last path-segment ident before `for` names the
        // trait; last one after names the type (or the type if no `for`).
        let mut before_for: Option<String> = None;
        let mut current: Option<String> = None;
        let mut saw_for = false;
        while j < end {
            let t = &self.toks[j];
            if t.is_punct("{") {
                break;
            }
            if t.is_ident("where") {
                while j < end && !self.toks[j].is_punct("{") {
                    j += 1;
                }
                break;
            }
            if t.is_ident("for") {
                before_for = current.take();
                saw_for = true;
                j += 1;
                continue;
            }
            if t.is_punct("<") {
                j = self.skip_angles(j, end);
                continue;
            }
            if let Some(name) = t.ident() {
                if name != "dyn" && name != "mut" && name != "const" {
                    current = Some(name.to_string());
                }
            }
            j += 1;
        }
        if j >= end || !self.toks[j].is_punct("{") {
            return j;
        }
        let owner = current.unwrap_or_default();
        let trait_name = if saw_for { before_for } else { None };
        let close = self.skip_group(j, "{", "}", end);
        self.items(j + 1, close.saturating_sub(1), module, Some(&owner), trait_name.as_deref());
        close
    }

    /// `trait Name [: bounds] [where …] { … }` — default methods get the
    /// trait as their owner.
    fn parse_trait(&mut self, i: usize, end: usize, module: &str) -> usize {
        let mut j = i + 1;
        let name = match self.toks.get(j).and_then(|t| t.ident()) {
            Some(n) => n.to_string(),
            None => return i + 1,
        };
        j += 1;
        while j < end && !self.toks[j].is_punct("{") && !self.toks[j].is_punct(";") {
            if self.toks[j].is_punct("<") {
                j = self.skip_angles(j, end);
            } else {
                j += 1;
            }
        }
        if j >= end || !self.toks[j].is_punct("{") {
            return j + 1;
        }
        let close = self.skip_group(j, "{", "}", end);
        self.items(j + 1, close.saturating_sub(1), module, Some(&name), Some(&name));
        close
    }

    /// `fn name[<…>](params) [-> …] [where …] ({ … } | ;)`.
    fn parse_fn(
        &mut self,
        i: usize,
        end: usize,
        module: &str,
        owner: Option<&str>,
        trait_name: Option<&str>,
        is_pub: bool,
    ) -> usize {
        let mut j = i + 1;
        let (name, line, col) = match self.toks.get(j) {
            Some(t) => match t.ident() {
                Some(n) => (n.to_string(), t.line, t.col),
                None => return i + 1,
            },
            None => return i + 1,
        };
        j += 1;
        if j < end && self.toks[j].is_punct("<") {
            j = self.skip_angles(j, end);
        }
        if j >= end || !self.toks[j].is_punct("(") {
            return j;
        }
        let params_close = self.skip_group(j, "(", ")", end);
        let (params, param_types, has_self) =
            self.parse_params(j + 1, params_close.saturating_sub(1));
        // Scan to the body `{` or terminating `;`, skipping groups so a
        // `;` inside `[u8; 32]` or a return-type group can't fool us.
        let mut k = params_close;
        let mut body = (k, k);
        while k < end {
            let t = &self.toks[k];
            if t.is_punct("{") {
                let close = self.skip_group(k, "{", "}", end);
                body = (k, close);
                k = close;
                break;
            }
            if t.is_punct(";") {
                k += 1;
                break;
            }
            if t.is_punct("(") {
                k = self.skip_group(k, "(", ")", end);
            } else if t.is_punct("[") {
                k = self.skip_group(k, "[", "]", end);
            } else {
                k += 1;
            }
        }
        let is_test = self.is_test_file || self.in_test.get(i).copied().unwrap_or(false);
        let qname = match owner {
            Some(o) if !o.is_empty() => format!("{module}::{o}::{name}"),
            _ => format!("{module}::{name}"),
        };
        self.out.fns.push(FnItem {
            name,
            owner: owner.filter(|o| !o.is_empty()).map(str::to_string),
            trait_name: trait_name.map(str::to_string),
            module: module.to_string(),
            qname,
            is_pub,
            is_test,
            line,
            col,
            params,
            param_types,
            has_self,
            body,
        });
        k
    }

    /// Parameter names and written types from the token range inside the
    /// parens. Patterns keep their last identifier (`mut x: T` → `x`);
    /// `self` in any form sets `has_self` and is excluded from the list.
    fn parse_params(&self, start: usize, end: usize) -> (Vec<String>, Vec<Option<String>>, bool) {
        let mut params = Vec::new();
        let mut types = Vec::new();
        let mut has_self = false;
        let mut j = start;
        let mut pat_last: Option<String> = None;
        let mut pat_is_self = false;
        let mut in_type = false; // after the `:` of the current param
        let mut ty_last: Option<String> = None;
        let mut ty_opaque = false; // an `impl Trait` or `dyn Trait` type
        while j < end {
            let t = &self.toks[j];
            if t.is_punct("(") {
                j = self.skip_group(j, "(", ")", end);
                continue;
            }
            if t.is_punct("[") {
                j = self.skip_group(j, "[", "]", end);
                continue;
            }
            if t.is_punct("<") {
                j = self.skip_angles(j, end);
                continue;
            }
            if t.is_punct(",") {
                if pat_is_self {
                    has_self = true;
                } else if let Some(p) = pat_last.take() {
                    params.push(p);
                    types.push(ty_last.take().filter(|_| !ty_opaque));
                }
                pat_last = None;
                pat_is_self = false;
                in_type = false;
                ty_last = None;
                ty_opaque = false;
                j += 1;
                continue;
            }
            if t.is_punct(":") && !self.toks.get(j + 1).is_some_and(|t| t.is_punct(":")) {
                in_type = true;
                j += 1;
                continue;
            }
            if !in_type {
                if t.is_ident("self") {
                    pat_is_self = true;
                } else if let Some(n) = t.ident() {
                    if n != "mut" && n != "ref" && n != "_" {
                        pat_last = Some(n.to_string());
                    }
                }
            } else if let Some(n) = t.ident() {
                match n {
                    "impl" | "dyn" => ty_opaque = true,
                    "mut" | "const" => {}
                    _ => ty_last = Some(n.to_string()),
                }
            }
            j += 1;
        }
        if pat_is_self {
            has_self = true;
        } else if let Some(p) = pat_last {
            params.push(p);
            types.push(ty_last.filter(|_| !ty_opaque));
        }
        (params, types, has_self)
    }

    /// `struct Name [<…>] ({…} | (…); | ;)`.
    fn parse_struct(&mut self, i: usize, end: usize, module: &str, derives_debug: bool) -> usize {
        let mut j = i + 1;
        let (name, line, col) = match self.toks.get(j) {
            Some(t) => match t.ident() {
                Some(n) => (n.to_string(), t.line, t.col),
                None => return i + 1,
            },
            None => return i + 1,
        };
        j += 1;
        if j < end && self.toks[j].is_punct("<") {
            j = self.skip_angles(j, end);
        }
        // Skip a `where` clause if present.
        while j < end
            && !self.toks[j].is_punct("{")
            && !self.toks[j].is_punct("(")
            && !self.toks[j].is_punct(";")
        {
            j += 1;
        }
        let mut fields = Vec::new();
        let ret;
        if j < end && self.toks[j].is_punct("{") {
            let close = self.skip_group(j, "{", "}", end);
            // Field names: identifiers directly followed by `:` at depth 1.
            let mut depth = 0usize;
            let mut k = j;
            while k < close {
                let t = &self.toks[k];
                if t.is_punct("{") || t.is_punct("(") || t.is_punct("[") || t.is_punct("<") {
                    depth += 1;
                } else if t.is_punct("}") || t.is_punct(")") || t.is_punct("]") || t.is_punct(">") {
                    depth = depth.saturating_sub(1);
                } else if depth == 1 {
                    if let Some(n) = t.ident() {
                        if self.toks.get(k + 1).is_some_and(|t| t.is_punct(":"))
                            && !self.toks.get(k + 2).is_some_and(|t| t.is_punct(":"))
                            && n != "pub"
                        {
                            fields.push(n.to_string());
                        }
                    }
                }
                k += 1;
            }
            ret = close;
        } else if j < end && self.toks[j].is_punct("(") {
            let close = self.skip_group(j, "(", ")", end);
            ret = if close < end && self.toks[close].is_punct(";") { close + 1 } else { close };
        } else {
            ret = j + 1; // unit struct `;`
        }
        self.out.structs.push(StructItem {
            name,
            module: module.to_string(),
            derives_debug,
            fields,
            line,
            col,
        });
        ret
    }

    /// `use path::to::{a, b as c};` → alias table entries.
    fn parse_use(&mut self, i: usize, end: usize) -> usize {
        let semi = self.skip_to_semi(i + 1, end);
        let toks = &self.toks[i + 1..semi.saturating_sub(1).max(i + 1)];
        let mut decls = Vec::new();
        parse_use_tree(toks, &mut Vec::new(), &mut decls);
        self.out.uses.extend(decls);
        semi
    }

    /// Skip a balanced group from its opening token; returns the index
    /// one past the matching close (or `end`).
    fn skip_group(&self, open_idx: usize, open: &str, close: &str, end: usize) -> usize {
        let mut depth = 0usize;
        let mut j = open_idx;
        while j < end {
            if self.toks[j].is_punct(open) {
                depth += 1;
            } else if self.toks[j].is_punct(close) {
                depth -= 1;
                if depth == 0 {
                    return j + 1;
                }
            }
            j += 1;
        }
        end
    }

    /// Skip a balanced `<…>` generic group (handles `<<` / `>>` shifts as
    /// two angles — good enough for declaration positions).
    fn skip_angles(&self, open_idx: usize, end: usize) -> usize {
        let mut depth = 0isize;
        let mut j = open_idx;
        while j < end {
            match &self.toks[j].kind {
                TokKind::Punct("<") => depth += 1,
                TokKind::Punct("<<") => depth += 2,
                TokKind::Punct(">") => depth -= 1,
                TokKind::Punct(">>") => depth -= 2,
                _ => {}
            }
            j += 1;
            if depth <= 0 {
                return j;
            }
        }
        end
    }

    /// Skip forward to one past the next `;` that sits outside every
    /// `()`/`[]`/`{}` group.
    fn skip_to_semi(&self, mut j: usize, end: usize) -> usize {
        let mut depth = 0usize;
        while j < end {
            let t = &self.toks[j];
            if t.is_punct("(") || t.is_punct("[") || t.is_punct("{") {
                depth += 1;
            } else if t.is_punct(")") || t.is_punct("]") || t.is_punct("}") {
                depth = depth.saturating_sub(1);
            } else if t.is_punct(";") && depth == 0 {
                return j + 1;
            }
            j += 1;
        }
        end
    }
}

/// Recursive descent over the token body of a `use` declaration.
/// `prefix` is the path accumulated so far.
fn parse_use_tree(toks: &[Token], prefix: &mut Vec<String>, out: &mut Vec<UseDecl>) {
    let saved = prefix.len();
    let mut j = 0usize;
    while j < toks.len() {
        let t = &toks[j];
        if let Some(n) = t.ident() {
            if n == "as" {
                // `path as alias`: rebind the last pushed segment.
                if let Some(alias) = toks.get(j + 1).and_then(|t| t.ident()) {
                    out.push(UseDecl { alias: alias.to_string(), path: prefix.clone() });
                    // Cancel the plain-alias emit for this leaf.
                    prefix.truncate(saved);
                    j += 2;
                    // Skip to the next `,` at this level (or end).
                    while j < toks.len() && !toks[j].is_punct(",") {
                        j += 1;
                    }
                    continue;
                }
            }
            prefix.push(n.to_string());
            j += 1;
            continue;
        }
        if t.is_punct("::") {
            j += 1;
            continue;
        }
        if t.is_punct("{") {
            // Group: find the matching close, recurse on each element.
            let mut depth = 1usize;
            let mut k = j + 1;
            let inner_start = k;
            while k < toks.len() && depth > 0 {
                if toks[k].is_punct("{") {
                    depth += 1;
                } else if toks[k].is_punct("}") {
                    depth -= 1;
                }
                k += 1;
            }
            let inner = &toks[inner_start..k.saturating_sub(1)];
            // Split inner at top-level commas; recurse with the prefix.
            let mut d = 0usize;
            let mut start = 0usize;
            for (idx, t) in inner.iter().enumerate() {
                if t.is_punct("{") {
                    d += 1;
                } else if t.is_punct("}") {
                    d = d.saturating_sub(1);
                } else if t.is_punct(",") && d == 0 {
                    parse_use_tree(&inner[start..idx], prefix, out);
                    start = idx + 1;
                }
            }
            parse_use_tree(&inner[start..], prefix, out);
            prefix.truncate(saved);
            return; // a group ends the tree at this level
        }
        if t.is_punct(",") {
            // Sibling at the same level (top-level `use a, b` is not legal
            // Rust, but groups hand us comma-split slices).
            break;
        }
        if t.is_punct("*") {
            // Glob import: nothing to alias.
            prefix.truncate(saved);
            return;
        }
        j += 1;
    }
    // Leaf: alias is the last segment (only if this branch added any).
    if prefix.len() > saved {
        if let Some(last) = prefix.last() {
            out.push(UseDecl { alias: last.clone(), path: prefix.clone() });
        }
    }
    prefix.truncate(saved);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer;

    fn parse(src: &str) -> ParsedFile {
        let toks = lexer::lex(src);
        let in_test = lexer::test_region_flags(&toks);
        parse_file("core::client", false, &toks, &in_test)
    }

    #[test]
    fn free_and_method_fns() {
        let p = parse(
            "pub fn free_one(a: u8, mut b: u16) -> u8 { a }\n\
             struct Client;\n\
             impl Client { pub fn upload(&self, data: &[u8]) -> u64 { 0 } fn internal(&mut self) {} }",
        );
        assert_eq!(p.fns.len(), 3);
        let f = &p.fns[0];
        assert_eq!(f.qname, "core::client::free_one");
        assert!(f.is_pub && !f.has_self);
        assert_eq!(f.params, ["a", "b"]);
        let up = &p.fns[1];
        assert_eq!(up.qname, "core::client::Client::upload");
        assert_eq!(up.owner.as_deref(), Some("Client"));
        assert!(up.is_pub && up.has_self);
        assert_eq!(up.params, ["data"]);
        assert!(!p.fns[2].is_pub);
    }

    #[test]
    fn trait_impl_gets_trait_name() {
        let p = parse(
            "impl Wire for Plaintext { fn decode(r: &mut Reader) -> Result<Self, CodecError> { todo() } }",
        );
        assert_eq!(p.fns.len(), 1);
        assert_eq!(p.fns[0].trait_name.as_deref(), Some("Wire"));
        assert_eq!(p.fns[0].owner.as_deref(), Some("Plaintext"));
    }

    #[test]
    fn generic_impl_and_const_fn() {
        let p = parse(
            "impl<const N: usize> FixedUint<N> { pub const fn zero() -> Self { Self { limbs: [0; N] } } }",
        );
        assert_eq!(p.fns.len(), 1);
        assert_eq!(p.fns[0].qname, "core::client::FixedUint::zero");
    }

    #[test]
    fn nested_mod_extends_module_path() {
        let p = parse("mod inner { pub fn deep() {} }");
        assert_eq!(p.fns[0].module, "core::client::inner");
        assert_eq!(p.fns[0].qname, "core::client::inner::deep");
    }

    #[test]
    fn cfg_test_fns_are_marked() {
        let p =
            parse("fn prod() {}\n#[cfg(test)]\nmod tests { fn helper() {} #[test]\nfn t() {} }");
        assert!(!p.fns[0].is_test);
        assert!(p.fns[1].is_test && p.fns[2].is_test);
    }

    #[test]
    fn use_decls_flatten_groups_and_renames() {
        let p = parse(
            "use tpnr_crypto::{hash, rsa::RsaPublicKey};\nuse tpnr_net::codec as wire;\nuse std::collections::BTreeMap;",
        );
        assert!(p.uses.contains(&UseDecl {
            alias: "hash".into(),
            path: vec!["tpnr_crypto".into(), "hash".into()],
        }));
        assert!(p.uses.contains(&UseDecl {
            alias: "RsaPublicKey".into(),
            path: vec!["tpnr_crypto".into(), "rsa".into(), "RsaPublicKey".into()],
        }));
        assert!(p.uses.contains(&UseDecl {
            alias: "wire".into(),
            path: vec!["tpnr_net".into(), "codec".into()],
        }));
        assert!(p.uses.contains(&UseDecl {
            alias: "BTreeMap".into(),
            path: vec!["std".into(), "collections".into(), "BTreeMap".into()],
        }));
    }

    #[test]
    fn struct_fields_and_derive_debug() {
        let p = parse(
            "#[derive(Debug, Clone)]\npub struct KeyPair { pub public: Pk, private: Sk }\n\
             #[derive(Clone)]\nstruct Quiet { d: u8 }\nstruct Unit;",
        );
        assert_eq!(p.structs.len(), 3);
        assert!(p.structs[0].derives_debug);
        assert_eq!(p.structs[0].fields, ["public", "private"]);
        assert!(!p.structs[1].derives_debug);
        assert!(p.structs[2].fields.is_empty());
    }

    #[test]
    fn const_with_brackets_does_not_desync() {
        let p = parse("const TABLE: [u8; 4] = [0; 4];\npub fn after_const() {}");
        assert_eq!(p.fns.len(), 1);
        assert_eq!(p.fns[0].name, "after_const");
    }

    #[test]
    fn item_macro_bodies_are_opaque() {
        let p = parse(
            "thread_local! { static X: RefCell<u64> = RefCell::new(0); }\npub fn visible() {}",
        );
        assert_eq!(p.fns.len(), 1);
        assert_eq!(p.fns[0].name, "visible");
    }

    #[test]
    fn fn_body_span_covers_braces() {
        let src = "fn a() { inner(1); }\nfn b() {}";
        let toks = lexer::lex(src);
        let in_test = lexer::test_region_flags(&toks);
        let p = parse_file("m", false, &toks, &in_test);
        let (s, e) = p.fns[0].body;
        assert!(toks[s].is_punct("{") && toks[e - 1].is_punct("}"));
        assert!(toks[s..e].iter().any(|t| t.is_ident("inner")));
        assert!(!toks[p.fns[1].body.0..p.fns[1].body.1].iter().any(|t| t.is_ident("inner")));
    }

    #[test]
    fn where_clause_and_return_groups() {
        let p = parse(
            "pub fn g<F>(f: F) -> Result<[u8; 32], E> where F: Fn() -> u8 { f(); Ok([0; 32]) }",
        );
        assert_eq!(p.fns.len(), 1);
        assert_eq!(p.fns[0].params, ["f"]);
        let (s, e) = p.fns[0].body;
        assert!(s < e);
    }
}
