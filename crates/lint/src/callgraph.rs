//! Workspace call graph over the [`crate::parser`] item tree.
//!
//! Nodes are every parsed `fn` in the workspace; edges come from
//! token-level call-site extraction plus heuristic name resolution:
//!
//! - `self.method(…)` resolves to every impl of the caller's own type
//!   with that method name (cross-file impl blocks included);
//! - `Type::method(…)` / `Self::assoc(…)` resolve through the known
//!   type table (struct names and impl self-types);
//! - `path::to::f(…)` resolves through the caller file's `use` table
//!   with `crate`/`self`/`super` and `tpnr_*` → crate-root
//!   normalization;
//! - a bare `f(…)` resolves to the caller's own module, then its
//!   imports, then (only if unambiguous — a single defining module) the
//!   whole workspace;
//! - `recv.method(…)` on a receiver that is one of the caller's
//!   parameters, written with a workspace type (`w: &mut Writer`),
//!   resolves to that type's methods, its trait impls included; when the
//!   type has no method of that name (a trait default, a `Deref` target)
//!   it falls through to the next rule;
//! - any other `recv.method(…)` resolves to *all* same-named methods in
//!   the workspace, except for names on the std-collision stoplist
//!   (`get`, `len`, `clone`, …) which would wire every `BTreeMap::get`
//!   call to unrelated local methods;
//! - a method call of either form keeps only the candidates the caller's
//!   crate can reach: methods in that crate or in a workspace crate its
//!   `Cargo.toml` depends on, directly or transitively, and impls of a
//!   trait declared in one of those (generic or `dyn` dispatch may reach
//!   any impl of a trait the caller can name). A crate whose manifest is
//!   not among the inputs is not restricted.
//!
//! The result over-approximates on distinctive names and drops edges on
//! std-colliding ones; both directions are documented soundness limits
//! (DESIGN.md §4.14) along with the absence of trait-object dispatch
//! and closure tracking. Functions inside `#[cfg(test)]` regions are
//! kept as nodes but never traversed by [`Graph::reach_from`], so a
//! panic only reachable from test code is never attributed to a
//! protocol entry point.

use crate::lexer::Token;
use crate::parser::{FnItem, EXPR_KEYWORDS};
use crate::Workspace;
use std::collections::{BTreeMap, BTreeSet, VecDeque};

/// Method names whose bare `recv.name(…)` form is dominated by std types
/// (maps, vecs, options, iterators, formatters). Resolving these by name
/// alone would connect nearly every function to unrelated local impls,
/// so they only resolve through a `self.` receiver or a typed path.
const METHOD_STOPLIST: &[&str] = &[
    "and_then",
    "append",
    "as_bytes",
    "as_mut",
    "as_ref",
    "as_slice",
    "as_str",
    "chain",
    "clear",
    "clone",
    "cloned",
    "cmp",
    "collect",
    "contains",
    "contains_key",
    "copied",
    "count",
    "drain",
    "entry",
    "enumerate",
    "eq",
    "expect",
    "extend",
    "filter",
    "filter_map",
    "find",
    "first",
    "flat_map",
    "flatten",
    "flush",
    "fmt",
    "fold",
    "get",
    "get_mut",
    "get_or_insert_with",
    "hash",
    "insert",
    "into_iter",
    "is_empty",
    "is_none",
    "is_some",
    "iter",
    "iter_mut",
    "join",
    "keys",
    "last",
    "len",
    "map",
    "map_err",
    "max",
    "min",
    "ne",
    "next",
    "ok",
    "ok_or",
    "ok_or_else",
    "parse",
    "partial_cmp",
    "position",
    "pop",
    "push",
    "push_str",
    "read",
    "remove",
    "resize",
    "retain",
    "rev",
    "skip",
    "sort",
    "sort_by",
    "sort_by_key",
    "split",
    "split_at",
    "starts_with",
    "sum",
    "take",
    "to_owned",
    "to_string",
    "to_vec",
    "truncate",
    "trim",
    "unwrap",
    "unwrap_or",
    "unwrap_or_default",
    "unwrap_or_else",
    "values",
    "windows",
    "write",
    "zip",
];

/// One extracted call site inside a function body.
#[derive(Debug, Clone)]
pub struct CallSite {
    /// Index of the callee-name token in the owning file's token stream.
    pub tok: usize,
    pub line: u32,
    pub col: u32,
    /// Callee name as written (`settle`, `verify`, `from_biguint`).
    pub name: String,
    /// Half-open token range of the argument list (inside the parens).
    pub args: (usize, usize),
    /// `recv.name(…)` (vs free/path call).
    pub is_method: bool,
    /// `self.name(…)` specifically.
    pub receiver_self: bool,
    /// Resolved target node indices (may be empty; over-approximate).
    pub targets: Vec<usize>,
}

/// A call-graph node: one function, flattened with its file index.
#[derive(Debug, Clone)]
pub struct FnMeta {
    pub file: usize,
    pub item: FnItem,
}

/// An edge in the deduplicated adjacency list, keeping the first call
/// site's position for chain reporting.
#[derive(Debug, Clone, Copy)]
pub struct Edge {
    pub callee: usize,
    pub line: u32,
    pub col: u32,
}

/// Breadth-first reachability result with parent pointers.
#[derive(Debug, Clone)]
pub struct Reach {
    pub reached: Vec<bool>,
    /// For each reached node: the root it was discovered from.
    pub root: Vec<Option<usize>>,
    /// For each reached non-root node: the caller it was discovered via.
    pub parent: Vec<Option<usize>>,
}

#[derive(Debug, Default)]
pub struct Graph {
    pub fns: Vec<FnMeta>,
    /// Per-node extracted call sites (parallel to `fns`).
    pub calls: Vec<Vec<CallSite>>,
    /// Per-node deduplicated outgoing edges (parallel to `fns`).
    pub edges: Vec<Vec<Edge>>,
}

impl Graph {
    /// Build the workspace call graph: collect nodes, extract call
    /// sites, resolve names, and dedupe edges.
    pub fn build(ws: &Workspace) -> Graph {
        let mut g = Graph::default();
        for (fi, file) in ws.files.iter().enumerate() {
            for item in &file.parsed.fns {
                g.fns.push(FnMeta { file: fi, item: item.clone() });
            }
        }
        let r = Resolver::new(ws, &g.fns);
        for idx in 0..g.fns.len() {
            let meta = &g.fns[idx];
            let file = &ws.files[meta.file];
            let mut sites = extract_calls(&file.tokens, meta.item.body);
            for site in &mut sites {
                site.targets = r.resolve(site, meta, &file.tokens);
            }
            let mut seen = BTreeSet::new();
            let mut edges = Vec::new();
            for site in &sites {
                for &t in &site.targets {
                    if seen.insert(t) {
                        edges.push(Edge { callee: t, line: site.line, col: site.col });
                    }
                }
            }
            edges.sort_by_key(|e| e.callee);
            g.calls.push(sites);
            g.edges.push(edges);
        }
        g
    }

    /// Node indices whose qname equals `qname`.
    pub fn by_qname<'g>(&'g self, qname: &str) -> impl Iterator<Item = usize> + 'g {
        let q = qname.to_string();
        (0..self.fns.len()).filter(move |&i| self.fns[i].item.qname == q)
    }

    /// BFS from `roots` over call edges. Nodes inside test regions are
    /// never traversed (a non-test build cannot call them; heuristic
    /// edges into test helpers must not drag test panics into protocol
    /// reachability).
    pub fn reach_from(&self, roots: &[usize]) -> Reach {
        let n = self.fns.len();
        let mut reach =
            Reach { reached: vec![false; n], root: vec![None; n], parent: vec![None; n] };
        let mut queue = VecDeque::new();
        for &r in roots {
            if r < n && !self.fns[r].item.is_test && !reach.reached[r] {
                reach.reached[r] = true;
                reach.root[r] = Some(r);
                queue.push_back(r);
            }
        }
        while let Some(u) = queue.pop_front() {
            for e in &self.edges[u] {
                let v = e.callee;
                if !reach.reached[v] && !self.fns[v].item.is_test {
                    reach.reached[v] = true;
                    reach.root[v] = reach.root[u];
                    reach.parent[v] = Some(u);
                    queue.push_back(v);
                }
            }
        }
        reach
    }

    /// Root-to-target qname chain for a reached node, elided in the
    /// middle when longer than five hops.
    pub fn chain(&self, reach: &Reach, target: usize) -> String {
        let mut names = Vec::new();
        let mut cur = Some(target);
        while let Some(i) = cur {
            names.push(self.fns[i].item.qname.clone());
            cur = reach.parent[i];
        }
        names.reverse();
        if names.len() > 5 {
            let skipped = names.len() - 4;
            let tail = names.split_off(names.len() - 2);
            names.truncate(2);
            names.push(format!("... {skipped} more ..."));
            names.extend(tail);
        }
        names.join(" -> ")
    }
}

/// Name-resolution tables, built once per workspace.
struct Resolver<'w> {
    ws: &'w Workspace,
    /// (owner type, method name) → nodes.
    by_owner_name: BTreeMap<(String, String), Vec<usize>>,
    /// (module, name) → free-fn nodes.
    free_by_module_name: BTreeMap<(String, String), Vec<usize>>,
    /// name → free-fn nodes (global fallback).
    free_by_name: BTreeMap<String, Vec<usize>>,
    /// name → method nodes (any owner).
    method_by_name: BTreeMap<String, Vec<usize>>,
    /// Known type names: struct names and impl self-types.
    type_names: BTreeSet<String>,
    /// First segment of every file module (`core`, `net`, `crypto`, …).
    crate_roots: BTreeSet<String>,
    /// Module of every node (parallel to the graph's `fns`).
    fn_modules: Vec<String>,
    /// Trait every node implements or declares (parallel to `fns`).
    fn_traits: Vec<Option<String>>,
    /// Crate root → the crates its calls may reach: itself and its
    /// manifest's workspace dependencies, transitively. Crates with no
    /// manifest among the inputs have no entry.
    reachable: BTreeMap<String, BTreeSet<String>>,
    /// Trait name → the crate roots that declare a trait of that name.
    trait_crates: BTreeMap<String, BTreeSet<String>>,
}

/// The crate root of a module path (`core` for `core::client`).
fn crate_root(module: &str) -> &str {
    module.split("::").next().unwrap_or("")
}

impl<'w> Resolver<'w> {
    fn new(ws: &'w Workspace, fns: &[FnMeta]) -> Resolver<'w> {
        let mut r = Resolver {
            ws,
            by_owner_name: BTreeMap::new(),
            free_by_module_name: BTreeMap::new(),
            free_by_name: BTreeMap::new(),
            method_by_name: BTreeMap::new(),
            type_names: BTreeSet::new(),
            crate_roots: BTreeSet::new(),
            fn_modules: fns.iter().map(|m| m.item.module.clone()).collect(),
            fn_traits: fns.iter().map(|m| m.item.trait_name.clone()).collect(),
            reachable: BTreeMap::new(),
            trait_crates: BTreeMap::new(),
        };
        for (i, m) in fns.iter().enumerate() {
            let it = &m.item;
            // A trait block's own methods carry the trait as both owner and
            // trait name.
            if let Some(t) = it.trait_name.as_ref().filter(|t| it.owner.as_ref() == Some(t)) {
                let krate = crate_root(&it.module).to_string();
                r.trait_crates.entry(t.clone()).or_default().insert(krate);
            }
            match &it.owner {
                Some(o) => {
                    r.by_owner_name.entry((o.clone(), it.name.clone())).or_default().push(i);
                    r.method_by_name.entry(it.name.clone()).or_default().push(i);
                    r.type_names.insert(o.clone());
                }
                None => {
                    r.free_by_module_name
                        .entry((it.module.clone(), it.name.clone()))
                        .or_default()
                        .push(i);
                    r.free_by_name.entry(it.name.clone()).or_default().push(i);
                }
            }
        }
        for file in &ws.files {
            if let Some(m) = &file.module {
                if let Some(root) = m.split("::").next() {
                    r.crate_roots.insert(root.to_string());
                }
            }
            for s in &file.parsed.structs {
                r.type_names.insert(s.name.clone());
            }
        }
        // A dependency is named as in its `use` paths, `tpnr-net` for the
        // crate root `net`; names of crates outside the workspace drop out.
        let direct: BTreeMap<&str, Vec<String>> = ws
            .manifests
            .iter()
            .map(|(krate, deps)| {
                let workspace_deps = deps
                    .iter()
                    .map(|d| {
                        let d = d.replace('-', "_");
                        match d.strip_prefix("tpnr_") {
                            Some(root) if r.crate_roots.contains(root) => root.to_string(),
                            _ => d,
                        }
                    })
                    .filter(|d| r.crate_roots.contains(d))
                    .collect();
                (krate.as_str(), workspace_deps)
            })
            .collect();
        for &krate in direct.keys() {
            let mut seen = BTreeSet::from([krate.to_string()]);
            let mut queue = vec![krate];
            while let Some(c) = queue.pop() {
                for d in direct.get(c).into_iter().flatten() {
                    if seen.insert(d.clone()) {
                        queue.push(d);
                    }
                }
            }
            r.reachable.insert(krate.to_string(), seen);
        }
        r
    }

    /// May code in `caller_module` call node `callee`? Only within the
    /// crates the caller's crate reaches, or through a trait declared in
    /// one of them; any call is allowed from a crate with no manifest.
    fn can_call(&self, caller_module: &str, callee: usize) -> bool {
        let Some(reach) = self.reachable.get(crate_root(caller_module)) else {
            return true;
        };
        reach.contains(crate_root(&self.fn_modules[callee]))
            || self.fn_traits[callee]
                .as_ref()
                .and_then(|t| self.trait_crates.get(t))
                .is_some_and(|declared| !declared.is_disjoint(reach))
    }

    fn resolve(&self, site: &CallSite, caller: &FnMeta, toks: &[Token]) -> Vec<usize> {
        if site.is_method {
            return self.resolve_method(site, caller, toks);
        }
        // Reconstruct any `a::b::name` path by walking back over `::`.
        let segs = path_segments(toks, site.tok);
        if segs.len() > 1 {
            self.resolve_path(&segs, caller)
        } else {
            self.resolve_free(&site.name, caller)
        }
    }

    fn resolve_method(&self, site: &CallSite, caller: &FnMeta, toks: &[Token]) -> Vec<usize> {
        let mut targets = self.method_candidates(site, caller, toks);
        targets.retain(|&t| self.can_call(&caller.item.module, t));
        targets
    }

    fn method_candidates(&self, site: &CallSite, caller: &FnMeta, toks: &[Token]) -> Vec<usize> {
        let owner = if site.receiver_self {
            caller.item.owner.as_ref()
        } else {
            self.parameter_type(site, caller, toks)
        };
        if let Some(owner) = owner {
            if let Some(v) = self.by_owner_name.get(&(owner.clone(), site.name.clone())) {
                return v.clone();
            }
        }
        if METHOD_STOPLIST.contains(&site.name.as_str()) {
            return Vec::new();
        }
        self.method_by_name.get(&site.name).cloned().unwrap_or_default()
    }

    /// The written type of a method call's receiver when the receiver is
    /// one of the caller's parameters (`w` in `w.str(…)`, with `w: &mut
    /// Writer`) and that type is a workspace type.
    fn parameter_type<'c>(
        &self,
        site: &CallSite,
        caller: &'c FnMeta,
        toks: &[Token],
    ) -> Option<&'c String> {
        // `recv . name (`: a receiver reached through a field (`a.w.str()`)
        // is not the parameter.
        let recv = toks.get(site.tok.checked_sub(2)?)?.ident()?;
        if site.tok >= 3 && toks[site.tok - 3].is_punct(".") {
            return None;
        }
        let i = caller.item.params.iter().position(|p| p == recv)?;
        caller.item.param_types.get(i)?.as_ref().filter(|t| self.type_names.contains(*t))
    }

    fn resolve_path(&self, segs: &[String], caller: &FnMeta) -> Vec<usize> {
        let name = segs.last().expect("path has segments").clone();
        let penult = &segs[segs.len() - 2];
        // `Self::assoc(…)` and `Type::assoc(…)`.
        if penult == "Self" {
            if let Some(owner) = &caller.item.owner {
                return self.by_owner_name.get(&(owner.clone(), name)).cloned().unwrap_or_default();
            }
            return Vec::new();
        }
        if self.type_names.contains(penult) {
            return self.by_owner_name.get(&(penult.clone(), name)).cloned().unwrap_or_default();
        }
        // Module path: expand a leading `use` alias, then normalize.
        let mut segs = segs.to_vec();
        if let Some(decl) = self.use_lookup(caller.file, &segs[0]) {
            segs.splice(0..1, decl.iter().cloned());
        }
        let segs = self.normalize(&segs, &caller.item.module);
        if segs.len() < 2 {
            return self.resolve_free(&name, caller);
        }
        // The expansion may have surfaced a typed path (`use x::Type;
        // Type::assoc(…)` was handled above, but `use x as t; t::Type::f`
        // gets here).
        let penult = &segs[segs.len() - 2];
        if self.type_names.contains(penult) {
            return self.by_owner_name.get(&(penult.clone(), name)).cloned().unwrap_or_default();
        }
        let module = segs[..segs.len() - 1].join("::");
        self.free_by_module_name.get(&(module, name)).cloned().unwrap_or_default()
    }

    fn resolve_free(&self, name: &str, caller: &FnMeta) -> Vec<usize> {
        // Same module first.
        if let Some(v) =
            self.free_by_module_name.get(&(caller.item.module.clone(), name.to_string()))
        {
            return v.clone();
        }
        // Imported by name?
        if let Some(path) = self.use_lookup(caller.file, name) {
            let segs = self.normalize(&path, &caller.item.module);
            if segs.len() >= 2 {
                let module = segs[..segs.len() - 1].join("::");
                if let Some(v) = self.free_by_module_name.get(&(module, name.to_string())) {
                    return v.clone();
                }
            }
            return Vec::new();
        }
        // Global fallback: only when a single module defines the name
        // (covers glob imports without wiring ambiguous names).
        if let Some(v) = self.free_by_name.get(name) {
            let modules: BTreeSet<&str> = v.iter().map(|&i| self.fn_modules[i].as_str()).collect();
            if modules.len() == 1 {
                return v.clone();
            }
        }
        Vec::new()
    }

    /// Find a `use` alias in the caller's file.
    fn use_lookup(&self, file: usize, alias: &str) -> Option<Vec<String>> {
        self.ws.files[file].parsed.uses.iter().find(|u| u.alias == alias).map(|u| u.path.clone())
    }

    /// Normalize a path's leading segment: `crate`/`self`/`super`
    /// relative to the caller's module, `tpnr_x` → `x` when `x` is a
    /// known crate root.
    fn normalize(&self, segs: &[String], caller_module: &str) -> Vec<String> {
        let mut out: Vec<String> = Vec::new();
        let caller_segs: Vec<&str> = caller_module.split("::").collect();
        let mut rest = segs;
        match segs.first().map(String::as_str) {
            Some("crate") => {
                out.push(caller_segs[0].to_string());
                rest = &segs[1..];
            }
            Some("self") => {
                out.extend(caller_segs.iter().map(|s| s.to_string()));
                rest = &segs[1..];
            }
            Some("super") => {
                let keep = caller_segs.len().saturating_sub(1);
                out.extend(caller_segs[..keep].iter().map(|s| s.to_string()));
                rest = &segs[1..];
                // `super::super::…`
                while rest.first().map(String::as_str) == Some("super") {
                    out.pop();
                    rest = &rest[1..];
                }
            }
            Some(first) => {
                if let Some(stripped) = first.strip_prefix("tpnr_") {
                    if self.crate_roots.contains(stripped) {
                        out.push(stripped.to_string());
                        rest = &segs[1..];
                    }
                }
            }
            None => {}
        }
        out.extend(rest.iter().cloned());
        out
    }
}

/// Walk back from the callee-name token to collect a `::`-separated
/// path, skipping one balanced turbofish group (`Type::<N>::f`).
fn path_segments(toks: &[Token], name_idx: usize) -> Vec<String> {
    let mut segs = vec![toks[name_idx].ident().unwrap_or_default().to_string()];
    let mut j = name_idx;
    while j >= 2 && toks[j - 1].is_punct("::") {
        let mut k = j - 2;
        // Backward turbofish skip: `… :: < … > :: name`.
        if toks[k].is_punct(">") || toks[k].is_punct(">>") {
            let mut depth = 0isize;
            loop {
                match () {
                    _ if toks[k].is_punct(">") => depth += 1,
                    _ if toks[k].is_punct(">>") => depth += 2,
                    _ if toks[k].is_punct("<") => depth -= 1,
                    _ if toks[k].is_punct("<<") => depth -= 2,
                    _ => {}
                }
                if depth <= 0 || k == 0 {
                    break;
                }
                k -= 1;
            }
            if k == 0 || !toks[k].is_punct("<") {
                break;
            }
            k -= 1; // now at whatever precedes `<`; expect `::` then ident
            if k == 0 || !toks[k].is_punct("::") {
                break;
            }
            k -= 1;
        }
        match toks[k].ident() {
            Some(s) => {
                segs.insert(0, s.to_string());
                j = k;
            }
            None => break,
        }
        if j < 2 {
            break;
        }
    }
    segs
}

/// The index of the `(` that opens a call's arguments when the callee name
/// ends just before `at`: `at` itself, or the token after a balanced
/// turbofish `::<…>` starting there. `None` when no call follows.
fn call_paren(toks: &[Token], at: usize, end: usize) -> Option<usize> {
    if toks.get(at)?.is_punct("(") {
        return Some(at);
    }
    if !(toks.get(at)?.is_punct("::") && toks.get(at + 1)?.is_punct("<")) {
        return None;
    }
    let mut depth = 0usize;
    for k in at + 1..end {
        let t = &toks[k];
        depth = match () {
            _ if t.is_punct("<") => depth + 1,
            _ if t.is_punct("<<") => depth + 2,
            _ if t.is_punct(">") => depth.checked_sub(1)?,
            _ if t.is_punct(">>") => depth.checked_sub(2)?,
            // A generic argument list never holds a statement's end.
            _ if t.is_punct(";") => return None,
            _ => depth,
        };
        if depth == 0 {
            return toks.get(k + 1).filter(|t| t.is_punct("(")).map(|_| k + 1);
        }
    }
    None
}

/// Extract call sites from a function body token range. Sees through
/// nested blocks and closures (their calls belong to the enclosing fn);
/// macro invocations are not calls (the passes scan macros directly).
pub fn extract_calls(toks: &[Token], body: (usize, usize)) -> Vec<CallSite> {
    let (start, end) = body;
    let mut out = Vec::new();
    let mut i = start;
    while i < end {
        let t = &toks[i];
        let name = match t.ident() {
            Some(n) => n,
            None => {
                i += 1;
                continue;
            }
        };
        // `name(` or, with a turbofish, `name::<…>(`.
        let Some(open) = call_paren(toks, i + 1, end) else {
            i += 1;
            continue;
        };
        if EXPR_KEYWORDS.contains(&name) {
            i += 1;
            continue;
        }
        // `fn name(` inside the body is a nested definition, not a call.
        if i > start && toks[i - 1].is_ident("fn") {
            i += 1;
            continue;
        }
        let is_method = i > start && toks[i - 1].is_punct(".");
        let receiver_self = is_method
            && i >= 2
            && toks[i - 2].is_ident("self")
            && !(i >= 3 && (toks[i - 3].is_punct(".") || toks[i - 3].is_punct("::")));
        // Argument range: matching close paren.
        let mut depth = 0usize;
        let mut close = open;
        while close < end {
            if toks[close].is_punct("(") {
                depth += 1;
            } else if toks[close].is_punct(")") {
                depth -= 1;
                if depth == 0 {
                    break;
                }
            }
            close += 1;
        }
        out.push(CallSite {
            tok: i,
            line: t.line,
            col: t.col,
            name: name.to_string(),
            args: (open + 1, close.min(end)),
            is_method,
            receiver_self,
            targets: Vec::new(),
        });
        i += 1;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{FileInput, Workspace};

    fn ws(files: &[(&str, &str)]) -> Workspace {
        let inputs: Vec<FileInput> = files
            .iter()
            .map(|(p, s)| FileInput { path: p.to_string(), source: s.to_string() })
            .collect();
        Workspace::build(&inputs)
    }

    fn node(g: &Graph, qname: &str) -> usize {
        g.by_qname(qname).next().unwrap_or_else(|| panic!("no node {qname}"))
    }

    fn has_edge(g: &Graph, from: &str, to: &str) -> bool {
        let f = node(g, from);
        let t = node(g, to);
        g.edges[f].iter().any(|e| e.callee == t)
    }

    #[test]
    fn method_calls_resolve_only_into_crates_the_manifest_reaches() {
        // net declares `Wire`; core depends on net and implements it; bench
        // depends on core and has an unrelated `encode`. net's generic call
        // may reach core's impl through the trait, never bench's method;
        // core's call reaches net's method through its dependency.
        let w = ws(&[
            (
                "crates/net/src/codec.rs",
                "pub trait Wire { fn encode(&self); }\n\
                 pub fn write<T: Wire>(x: &T) { x.encode(); }\n\
                 pub struct Reader;\nimpl Reader { pub fn array(&self) {} }",
            ),
            (
                "crates/core/src/msg.rs",
                "pub struct Msg;\nimpl Wire for Msg { fn encode(&self) {} }\n\
                 pub fn decode(r: &Reader) { r.array(); }",
            ),
            (
                "crates/bench/src/report.rs",
                "pub struct Row;\nimpl Row { pub fn encode(&self) {} pub fn array(&self) {} }",
            ),
            ("crates/net/Cargo.toml", "[package]\nname = \"tpnr-net\"\n"),
            ("crates/core/Cargo.toml", "[dependencies]\ntpnr-net = { path = \"../net\" }\n"),
            ("crates/bench/Cargo.toml", "[dependencies]\ntpnr-core.workspace = true\n"),
        ]);
        let g = Graph::build(&w);
        assert!(has_edge(&g, "net::codec::write", "core::msg::Msg::encode"));
        assert!(!has_edge(&g, "net::codec::write", "bench::report::Row::encode"));
        assert!(has_edge(&g, "core::msg::decode", "net::codec::Reader::array"));
        assert!(!has_edge(&g, "core::msg::decode", "bench::report::Row::array"));
    }

    #[test]
    fn self_method_resolves_to_own_impl() {
        let w = ws(&[(
            "crates/core/src/client.rs",
            "struct Client;\nimpl Client {\n  pub fn upload(&self) { self.helper(); }\n  fn helper(&self) {}\n}",
        )]);
        let g = Graph::build(&w);
        assert!(has_edge(&g, "core::client::Client::upload", "core::client::Client::helper"));
    }

    #[test]
    fn cross_crate_path_via_use() {
        let w = ws(&[
            (
                "crates/core/src/evidence.rs",
                "use tpnr_crypto::hash;\npub fn seal() { hash::digest(); }",
            ),
            ("crates/crypto/src/hash.rs", "pub fn digest() {}"),
        ]);
        let g = Graph::build(&w);
        assert!(has_edge(&g, "core::evidence::seal", "crypto::hash::digest"));
    }

    #[test]
    fn typed_path_resolves_across_files() {
        let w = ws(&[
            (
                "crates/core/src/session.rs",
                "use tpnr_crypto::rsa::RsaPublicKey;\npub fn check() { RsaPublicKey::verify_sig(); }",
            ),
            (
                "crates/crypto/src/rsa.rs",
                "pub struct RsaPublicKey;\nimpl RsaPublicKey { pub fn verify_sig() {} }",
            ),
        ]);
        let g = Graph::build(&w);
        assert!(has_edge(&g, "core::session::check", "crypto::rsa::RsaPublicKey::verify_sig"));
    }

    #[test]
    fn crate_relative_path() {
        let w = ws(&[
            ("crates/core/src/runner.rs", "pub fn run() { crate::sched::settle(); }"),
            ("crates/core/src/sched.rs", "pub fn settle() {}"),
        ]);
        let g = Graph::build(&w);
        assert!(has_edge(&g, "core::runner::run", "core::sched::settle"));
    }

    #[test]
    fn stoplisted_method_on_foreign_receiver_is_dropped() {
        let w = ws(&[
            ("crates/core/src/a.rs", "pub fn caller(m: M) { m.get(); m.settle_now(); }"),
            (
                "crates/storage/src/store.rs",
                "struct Store;\nimpl Store { pub fn get(&self) {} pub fn settle_now(&self) {} }",
            ),
        ]);
        let g = Graph::build(&w);
        // `get` collides with std collections: no edge.
        assert!(!has_edge(&g, "core::a::caller", "storage::store::Store::get"));
        // Distinctive name: over-approximate edge is kept.
        assert!(has_edge(&g, "core::a::caller", "storage::store::Store::settle_now"));
    }

    #[test]
    fn self_receiver_beats_stoplist() {
        let w = ws(&[(
            "crates/storage/src/store.rs",
            "struct Store;\nimpl Store { pub fn both(&self) { self.get(); } pub fn get(&self) {} }",
        )]);
        let g = Graph::build(&w);
        assert!(has_edge(&g, "storage::store::Store::both", "storage::store::Store::get"));
    }

    #[test]
    fn free_global_fallback_requires_unique_module() {
        let w = ws(&[
            ("crates/core/src/a.rs", "pub fn caller() { unique_helper(); dup(); }"),
            ("crates/net/src/b.rs", "pub fn unique_helper() {} pub fn dup() {}"),
            ("crates/storage/src/c.rs", "pub fn dup() {}"),
        ]);
        let g = Graph::build(&w);
        assert!(has_edge(&g, "core::a::caller", "net::b::unique_helper"));
        assert!(!has_edge(&g, "core::a::caller", "net::b::dup"));
        assert!(!has_edge(&g, "core::a::caller", "storage::c::dup"));
    }

    #[test]
    fn reachability_skips_test_fns() {
        let w = ws(&[(
            "crates/core/src/a.rs",
            "pub fn entry() { shared(); }\nfn shared() {}\n\
             #[cfg(test)]\nmod tests { pub fn t_helper() { super::shared(); } }",
        )]);
        let g = Graph::build(&w);
        let entry = node(&g, "core::a::entry");
        let helper = node(&g, "core::a::tests::t_helper");
        let r = g.reach_from(&[entry]);
        assert!(r.reached[node(&g, "core::a::shared")]);
        assert!(!r.reached[helper]);
        // Even rooting at a test fn traverses nothing.
        let r2 = g.reach_from(&[helper]);
        assert!(!r2.reached[helper]);
    }

    #[test]
    fn chain_reports_root_to_target() {
        let w = ws(&[(
            "crates/core/src/a.rs",
            "pub fn entry() { mid(); }\nfn mid() { leaf(); }\nfn leaf() {}",
        )]);
        let g = Graph::build(&w);
        let r = g.reach_from(&[node(&g, "core::a::entry")]);
        let chain = g.chain(&r, node(&g, "core::a::leaf"));
        assert_eq!(chain, "core::a::entry -> core::a::mid -> core::a::leaf");
    }

    #[test]
    fn turbofish_calls_get_edges() {
        let w = ws(&[(
            "crates/core/src/a.rs",
            "struct R;\nimpl R { fn array<const N: usize>(&self) {} }\n\
             pub fn entry(r: &R) { r.array::<32>(); helper::<Vec<Vec<u8>>>(1); }\n\
             fn helper<T>(x: u8) {}",
        )]);
        let g = Graph::build(&w);
        assert!(has_edge(&g, "core::a::entry", "core::a::R::array"));
        assert!(has_edge(&g, "core::a::entry", "core::a::helper"));
    }

    #[test]
    fn a_turbofish_is_skipped_only_before_a_paren() {
        let toks = crate::lexer::lex(
            "fn f() { let v = Vec::<u8>::new(); g::<u8>(secret); let b = x < y; h::<T>; }",
        );
        let sites = extract_calls(&toks, (0, toks.len()));
        let names: Vec<&str> = sites.iter().map(|s| s.name.as_str()).collect();
        assert_eq!(names, ["new", "g"]);
        let (a, b) = sites[1].args;
        assert!(toks[a..b].iter().any(|t| t.is_ident("secret")));
    }

    #[test]
    fn call_args_range_covers_arguments() {
        let toks = crate::lexer::lex("fn f() { g(secret, 2); }");
        let sites = extract_calls(&toks, (0, toks.len()));
        let g_site = sites.iter().find(|s| s.name == "g").unwrap();
        let (a, b) = g_site.args;
        assert!(toks[a..b].iter().any(|t| t.is_ident("secret")));
    }
}
