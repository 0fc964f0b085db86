//! The workspace model behind the call graph: every parsed function with
//! its enclosing module path, `impl` self-type, and per-file `use` maps —
//! plus the conservative call-site resolver built on them.
//!
//! Resolution is deliberately biased toward **refusing to resolve**: a
//! call only becomes a graph edge when the target is unambiguous under
//! the name, the (use-expanded) path, the receiver's self-type where one
//! is derivable, and a deny-list of std-colliding names. An unresolved
//! call stays [`Resolution::External`] and contributes ⊤ facts — so a
//! resolver shortfall can only lose precision, never soundness.

use std::collections::BTreeMap;

use crate::flow::ast::{self, Expr, FnDef, Pat, Stmt};
use crate::flow::range::CallEvent;
use crate::syntax::lexer::{lex, matching_close, Tok, Token};
use crate::syntax::source::SourceFile;

/// Method names that collide with std/core inherent or trait methods: a
/// workspace method with one of these names is never claimed as the
/// unique target of an unhinted method call.
pub const STD_METHODS: &[&str] = &[
    "abs",
    "all",
    "and_then",
    "any",
    "as_mut",
    "as_ref",
    "as_str",
    "borrow",
    "borrow_mut",
    "ceil",
    "chain",
    "chunks",
    "clamp",
    "clone",
    "cloned",
    "cmp",
    "collect",
    "contains",
    "copied",
    "count",
    "dedup",
    "default",
    "drain",
    "entry",
    "enumerate",
    "eq",
    "err",
    "exp",
    "expect",
    "extend",
    "filter",
    "filter_map",
    "find",
    "first",
    "flat_map",
    "flatten",
    "floor",
    "fmt",
    "fold",
    "from_bits",
    "get",
    "get_mut",
    "hash",
    "hypot",
    "insert",
    "into",
    "into_iter",
    "is_empty",
    "is_err",
    "is_finite",
    "is_nan",
    "is_none",
    "is_ok",
    "is_some",
    "iter",
    "iter_mut",
    "join",
    "last",
    "len",
    "ln",
    "lock",
    "log10",
    "map",
    "map_err",
    "max",
    "max_by",
    "min",
    "min_by",
    "mul_add",
    "next",
    "ok",
    "or",
    "or_else",
    "parse",
    "partial_cmp",
    "position",
    "powf",
    "powi",
    "push",
    "push_str",
    "read",
    "rem_euclid",
    "remove",
    "replace",
    "rev",
    "round",
    "signum",
    "skip",
    "sort",
    "sort_by",
    "split",
    "sqrt",
    "sum",
    "swap",
    "take",
    "to_bits",
    "to_owned",
    "to_string",
    "to_vec",
    "trim",
    "trunc",
    "unwrap",
    "unwrap_or",
    "unwrap_or_default",
    "unwrap_or_else",
    "windows",
    "write",
    "zip",
];

/// Free-function names too generic to claim from a bare (unqualified)
/// call even when the workspace defines exactly one.
const FREE_FN_DENY: &[&str] = &[
    "abs", "clamp", "default", "drop", "format", "from", "into", "main", "max", "min", "new",
    "replace", "swap", "take",
];

/// One source file's resolution context.
#[derive(Debug)]
pub struct FileInfo {
    /// Repo-relative path with forward slashes.
    pub path: String,
    /// `use` aliases visible in the file: last/`as` segment → full path.
    pub uses: BTreeMap<String, Vec<String>>,
    /// Base paths of `use …::*;` imports.
    pub globs: Vec<Vec<String>>,
    /// Module path of items defined here (`crates/pv/src/units.rs` →
    /// `[pv, units]`; non-library files use their file stem).
    pub module: Vec<String>,
    /// `true` for library sources under `crates/*/src` (excluding
    /// `src/bin/`) — the set the dead-pub report polices.
    pub in_crate_src: bool,
}

/// One parsed function with its resolution context.
#[derive(Debug)]
pub struct FnInfo {
    /// The parsed definition (signature + body).
    pub def: FnDef,
    /// Index into [`Workspace::files`].
    pub file: usize,
    /// Self type of the innermost enclosing `impl`, when inside one.
    pub self_type: Option<String>,
}

impl FnInfo {
    /// Display name: `Type::name` for methods/assoc fns, `name` otherwise.
    pub fn qname(&self) -> String {
        match &self.self_type {
            Some(t) => format!("{t}::{}", self.def.name),
            None => self.def.name.clone(),
        }
    }
}

/// Outcome of resolving one call event.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Resolution {
    /// Exactly one workspace function is the target.
    Unique(usize),
    /// Several same-named workspace functions could be (used by
    /// reachability, never for facts).
    Candidates(Vec<usize>),
    /// Out of the workspace (std, vendored) or too ambiguous to claim.
    External,
}

/// The parsed workspace: files, functions, and name-occurrence accounting.
#[derive(Debug)]
pub struct Workspace {
    /// Per-file resolution context, indexed by [`FnInfo::file`].
    pub files: Vec<FileInfo>,
    /// Every parsed function.
    pub fns: Vec<FnInfo>,
    /// Function name → indices into `fns`.
    pub by_name: BTreeMap<String, Vec<usize>>,
    /// Total ident-token occurrences per name, across all files.
    pub mentions: BTreeMap<String, usize>,
    /// Ident-token occurrences inside `use` statements, per name.
    pub use_mentions: BTreeMap<String, usize>,
    /// `fn <name>` definition tokens, per name.
    pub def_counts: BTreeMap<String, usize>,
}

impl Workspace {
    /// Parses every source file into the workspace model.
    pub fn build(sources: &[SourceFile]) -> Workspace {
        let mut files = Vec::new();
        let mut fns: Vec<FnInfo> = Vec::new();
        let mut by_name: BTreeMap<String, Vec<usize>> = BTreeMap::new();
        let mut mentions: BTreeMap<String, usize> = BTreeMap::new();
        let mut use_mentions: BTreeMap<String, usize> = BTreeMap::new();
        let mut def_counts: BTreeMap<String, usize> = BTreeMap::new();

        for src in sources {
            let tokens = lex(src);
            let (uses, globs) = parse_uses(&tokens, &mut use_mentions);
            let spans = impl_spans(&tokens);
            let file_ix = files.len();
            files.push(FileInfo {
                path: src.path.clone(),
                uses,
                globs,
                module: module_of(&src.path),
                in_crate_src: is_crate_src(&src.path),
            });
            for t in &tokens {
                if let Tok::Ident(w) = &t.tok {
                    *mentions.entry(w.clone()).or_insert(0) += 1;
                }
            }
            for def in ast::parse_fns(src) {
                // Innermost impl span containing the fn line.
                let self_type = spans
                    .iter()
                    .filter(|s| s.open_line <= def.line && def.line <= s.close_line)
                    .min_by_key(|s| s.close_line - s.open_line)
                    .map(|s| s.self_type.clone());
                *def_counts.entry(def.name.clone()).or_insert(0) += 1;
                by_name.entry(def.name.clone()).or_default().push(fns.len());
                fns.push(FnInfo {
                    def,
                    file: file_ix,
                    self_type,
                });
            }
        }
        Workspace {
            files,
            fns,
            by_name,
            mentions,
            use_mentions,
            def_counts,
        }
    }

    /// Resolves one call event observed in `file`, from a function whose
    /// self type is `caller_self` (substituted for `Self` paths), with an
    /// optional receiver type hint for method calls.
    pub fn resolve(
        &self,
        file: usize,
        caller_self: Option<&str>,
        event: &CallEvent,
        recv_type: Option<&str>,
    ) -> Resolution {
        if event.is_method {
            return self.resolve_method(&event.path[0], recv_type);
        }
        let mut segs: Vec<String> = event.path.clone();
        if segs.first().is_some_and(|s| s == "Self") {
            if let Some(t) = caller_self {
                segs[0] = t.to_owned();
            }
        }
        // Expand a leading `use` alias.
        if let Some(full) = self.files[file].uses.get(&segs[0]) {
            let mut expanded = full.clone();
            expanded.extend(segs[1..].iter().cloned());
            segs = expanded;
        }
        let Some(name) = segs.last().cloned() else {
            return Resolution::External;
        };
        if segs.len() == 1 {
            return self.resolve_bare(file, &name);
        }
        let prefix: Vec<&str> = segs[..segs.len() - 1]
            .iter()
            .map(String::as_str)
            .filter(|s| *s != "crate" && *s != "self" && *s != "super")
            .collect();
        // `Type::assoc(…)`: the segment before the name is a type.
        if let Some(ty) = prefix.last().filter(|s| starts_upper(s)) {
            let cands: Vec<usize> = self
                .named(&name)
                .iter()
                .copied()
                .filter(|&i| self.fns[i].self_type.as_deref() == Some(*ty))
                .collect();
            return pick(cands);
        }
        // Module-qualified: the definition's module path must end with the
        // written prefix.
        let cands: Vec<usize> = self
            .named(&name)
            .iter()
            .copied()
            .filter(|&i| {
                let m = &self.files[self.fns[i].file].module;
                m.len() >= prefix.len()
                    && m[m.len() - prefix.len()..]
                        .iter()
                        .zip(&prefix)
                        .all(|(a, b)| a == b)
            })
            .collect();
        pick(cands)
    }

    fn resolve_method(&self, name: &str, recv_type: Option<&str>) -> Resolution {
        if STD_METHODS.contains(&name) {
            return Resolution::External;
        }
        let cands: Vec<usize> = self
            .named(name)
            .iter()
            .copied()
            .filter(|&i| self.fns[i].def.has_self)
            .collect();
        if let Some(ty) = recv_type {
            let hinted: Vec<usize> = cands
                .iter()
                .copied()
                .filter(|&i| self.fns[i].self_type.as_deref() == Some(ty))
                .collect();
            // A hint that matches nothing means the receiver's methods are
            // out of the workspace — do not fall back to name matching.
            return pick(hinted);
        }
        pick(cands)
    }

    fn resolve_bare(&self, file: usize, name: &str) -> Resolution {
        if FREE_FN_DENY.contains(&name) {
            return Resolution::External;
        }
        let cands: Vec<usize> = self
            .named(name)
            .iter()
            .copied()
            .filter(|&i| !self.fns[i].def.has_self)
            .collect();
        // Same-file definitions shadow imports.
        let local: Vec<usize> = cands
            .iter()
            .copied()
            .filter(|&i| self.fns[i].file == file)
            .collect();
        if local.len() == 1 {
            return Resolution::Unique(local[0]);
        }
        pick(cands)
    }

    fn named(&self, name: &str) -> &[usize] {
        self.by_name.get(name).map_or(&[], Vec::as_slice)
    }
}

fn pick(cands: Vec<usize>) -> Resolution {
    match cands.len() {
        0 => Resolution::External,
        1 => Resolution::Unique(cands[0]),
        _ => Resolution::Candidates(cands),
    }
}

fn starts_upper(s: &str) -> bool {
    s.chars().next().is_some_and(char::is_uppercase)
}

/// `true` for library sources under `crates/*/src`, excluding binaries.
fn is_crate_src(path: &str) -> bool {
    path.starts_with("crates/") && path.contains("/src/") && !path.contains("/src/bin/")
}

/// Module path of the items a file defines.
fn module_of(path: &str) -> Vec<String> {
    let parts: Vec<&str> = path.split('/').collect();
    // crates/<c>/src/a/b.rs → [<c>, a, b]; lib.rs/mod.rs/main.rs drop
    // their own segment.
    if parts.len() >= 4 && parts[0] == "crates" && parts[2] == "src" && !path.contains("/src/bin/")
    {
        let mut m = vec![parts[1].to_owned()];
        for p in &parts[3..] {
            let stem = p.trim_end_matches(".rs");
            if stem == "lib" || stem == "mod" || stem == "main" {
                continue;
            }
            m.push(stem.to_owned());
        }
        return m;
    }
    // Binaries, tests, benches, examples: each file is its own crate root.
    let stem = parts
        .last()
        .map(|p| p.trim_end_matches(".rs"))
        .unwrap_or_default();
    vec![stem.to_owned()]
}

/// One `impl` block's line span and self type.
#[derive(Debug)]
struct ImplSpan {
    open_line: usize,
    close_line: usize,
    self_type: String,
}

/// Scans the token stream for `impl` blocks: `impl<…> Type {…}` and
/// `impl<…> Trait for Type {…}` — the self type is the path segment
/// immediately before the body (after `for` when present).
fn impl_spans(tokens: &[Token]) -> Vec<ImplSpan> {
    let mut out = Vec::new();
    let mut i = 0;
    while i < tokens.len() {
        if !tokens[i].is_ident("impl") {
            i += 1;
            continue;
        }
        let mut j = i + 1;
        if tokens.get(j).is_some_and(|t| t.is_op("<")) {
            j = ast::skip_angles(tokens, j);
        }
        // Walk to the body `{`, remembering the last type-ish ident seen
        // at the top level (a `for` resets it to the type being implemented
        // on; generic argument lists are skipped).
        let mut self_type: Option<String> = None;
        let mut found = None;
        while let Some(t) = tokens.get(j) {
            match &t.tok {
                Tok::Op("{") => {
                    found = Some(j);
                    break;
                }
                Tok::Op(";") => break,
                Tok::Op("<") => {
                    j = ast::skip_angles(tokens, j);
                    continue;
                }
                Tok::Ident(w) if w == "for" => {
                    self_type = None;
                }
                Tok::Ident(w) if w == "where" => {
                    // `where` clauses may mention other types; stop
                    // updating and scan on for the `{`.
                    while let Some(t) = tokens.get(j) {
                        if t.is_op("{") {
                            break;
                        }
                        if t.is_op("<") {
                            j = ast::skip_angles(tokens, j);
                            continue;
                        }
                        j += 1;
                    }
                    continue;
                }
                Tok::Ident(w) if starts_upper(w) => {
                    self_type = Some(w.clone());
                }
                _ => {}
            }
            j += 1;
        }
        let (Some(open), Some(ty)) = (found, self_type) else {
            i = j.max(i + 1);
            continue;
        };
        let Some(close) = matching_close(tokens, open) else {
            break;
        };
        out.push(ImplSpan {
            open_line: tokens[open].line,
            close_line: tokens[close].line,
            self_type: ty,
        });
        // Continue inside: nested impls in fn bodies are found too.
        i = open + 1;
    }
    out
}

/// Parses every `use` statement into alias and glob maps, counting the
/// ident tokens it contains into `use_mentions`.
fn parse_uses(
    tokens: &[Token],
    use_mentions: &mut BTreeMap<String, usize>,
) -> (BTreeMap<String, Vec<String>>, Vec<Vec<String>>) {
    let mut aliases = BTreeMap::new();
    let mut globs = Vec::new();
    let mut i = 0;
    while i < tokens.len() {
        if !tokens[i].is_ident("use") {
            i += 1;
            continue;
        }
        let start = i + 1;
        let mut end = start;
        while end < tokens.len() && !tokens[end].is_op(";") {
            end += 1;
        }
        for t in &tokens[start..end] {
            if let Tok::Ident(w) = &t.tok {
                if w != "as" && w != "crate" && w != "self" && w != "super" {
                    *use_mentions.entry(w.clone()).or_insert(0) += 1;
                }
            }
        }
        parse_use_tree(&tokens[start..end], &[], &mut aliases, &mut globs);
        i = end + 1;
    }
    (aliases, globs)
}

/// Recursively expands one use tree (`a::b::{c, d as e, f::*}`).
fn parse_use_tree(
    toks: &[Token],
    prefix: &[String],
    aliases: &mut BTreeMap<String, Vec<String>>,
    globs: &mut Vec<Vec<String>>,
) {
    let mut path: Vec<String> = prefix.to_vec();
    let mut i = 0;
    while i < toks.len() {
        match &toks[i].tok {
            Tok::Ident(w) if w == "as" => {
                if let Some(alias) = toks.get(i + 1).and_then(Token::ident) {
                    aliases.insert(alias.to_owned(), path.clone());
                }
                return;
            }
            Tok::Ident(w) => {
                if w != "crate" && w != "self" && w != "super" {
                    path.push(w.clone());
                }
                i += 1;
            }
            Tok::Op("::") => {
                i += 1;
            }
            Tok::Op("*") => {
                globs.push(path);
                return;
            }
            Tok::Op("{") => {
                let Some(close) = matching_close(toks, i) else {
                    return;
                };
                for part in split_commas(&toks[i + 1..close]) {
                    parse_use_tree(part, &path, aliases, globs);
                }
                return;
            }
            _ => {
                i += 1;
            }
        }
    }
    if let Some(last) = path.last().cloned() {
        aliases.insert(last, path);
    }
}

/// Splits on commas at bracket depth 0.
fn split_commas(tokens: &[Token]) -> Vec<&[Token]> {
    let mut parts = Vec::new();
    let mut depth = 0i32;
    let mut start = 0;
    for (i, t) in tokens.iter().enumerate() {
        match &t.tok {
            Tok::Op("(") | Tok::Op("[") | Tok::Op("{") => depth += 1,
            Tok::Op(")") | Tok::Op("]") | Tok::Op("}") => depth -= 1,
            Tok::Op(",") if depth == 0 => {
                parts.push(&tokens[start..i]);
                start = i + 1;
            }
            _ => {}
        }
    }
    if start < tokens.len() {
        parts.push(&tokens[start..]);
    }
    parts
}

/// Best-effort local-name → type-name hints for one function: parameter
/// type ascriptions, `Type::ctor(…)` initializers, and the `self`
/// receiver. Used for method-receiver disambiguation; a missing hint
/// resolves to [`Resolution::External`], never a wrong edge.
pub fn local_type_hints(f: &FnInfo) -> BTreeMap<String, String> {
    let mut hints = BTreeMap::new();
    if let Some(t) = &f.self_type {
        hints.insert("self".to_owned(), t.clone());
    }
    for p in &f.def.params {
        if let Some(name) = &p.name {
            if let Some(ty) = first_upper_word(&p.ty) {
                hints.insert(name.clone(), ty);
            }
        }
    }
    for_each_stmt(&f.def.body, &mut |stmt| {
        if let Stmt::Let {
            pat: Pat::Bind(name),
            init: Some(init),
        } = stmt
        {
            if let Some(ty) = ctor_type(init) {
                hints.insert(name.clone(), ty);
            }
        }
    });
    hints
}

/// The first capitalized word of a rendered type string (`& mut Vec < f64 >`
/// → `Vec`).
fn first_upper_word(ty: &str) -> Option<String> {
    ty.split(|c: char| !c.is_alphanumeric() && c != '_')
        .find(|w| starts_upper(w))
        .map(str::to_owned)
}

/// The constructed type of `Type::ctor(…)` initializers (looking through
/// a trailing `?`/method chain is deliberately not attempted).
fn ctor_type(e: &Expr) -> Option<String> {
    match e {
        Expr::Call { path, .. } if path.len() >= 2 => {
            let ty = &path[path.len() - 2];
            starts_upper(ty).then(|| ty.clone())
        }
        Expr::Try(inner) => ctor_type(inner),
        _ => None,
    }
}

/// Depth-first visit of every statement in `stmts`, including nested
/// bodies and value-position blocks/closures. The callback receives
/// references at the lifetime of `stmts`, so it may retain them.
pub fn for_each_stmt<'a>(stmts: &'a [Stmt], f: &mut impl FnMut(&'a Stmt)) {
    for s in stmts {
        f(s);
        match s {
            Stmt::Let { init, .. } => {
                if let Some(e) = init {
                    for_each_stmt_expr(e, f);
                }
            }
            Stmt::LetElse {
                init, else_body, ..
            } => {
                for_each_stmt_expr(init, f);
                for_each_stmt(else_body, f);
            }
            Stmt::Assign { value, .. } => for_each_stmt_expr(value, f),
            Stmt::Expr(e) => for_each_stmt_expr(e, f),
            Stmt::If {
                cond,
                then_body,
                else_body,
            } => {
                for_each_stmt_expr(cond, f);
                for_each_stmt(then_body, f);
                for_each_stmt(else_body, f);
            }
            Stmt::While { cond, body } => {
                for_each_stmt_expr(cond, f);
                for_each_stmt(body, f);
            }
            Stmt::Loop { body } | Stmt::Block(body) => for_each_stmt(body, f),
            Stmt::For { iter, body, .. } => {
                for_each_stmt_expr(iter, f);
                for_each_stmt(body, f);
            }
            Stmt::Return(Some(e)) => for_each_stmt_expr(e, f),
            Stmt::Return(None)
            | Stmt::Break
            | Stmt::Continue
            | Stmt::Havoc(_)
            | Stmt::Opaque { .. } => {}
        }
    }
}

/// Visits statements nested in an expression (blocks, closures, arms).
fn for_each_stmt_expr<'a>(e: &'a Expr, f: &mut impl FnMut(&'a Stmt)) {
    match e {
        Expr::Neg(a) | Expr::Try(a) | Expr::Cast(a) | Expr::Ref { expr: a, .. } => {
            for_each_stmt_expr(a, f);
        }
        Expr::Binary { lhs, rhs, .. } => {
            for_each_stmt_expr(lhs, f);
            for_each_stmt_expr(rhs, f);
        }
        Expr::Call { args, .. } => {
            for a in args {
                for_each_stmt_expr(a, f);
            }
        }
        Expr::Method { recv, args, .. } => {
            for_each_stmt_expr(recv, f);
            for a in args {
                for_each_stmt_expr(a, f);
            }
        }
        Expr::Field { recv, .. } => for_each_stmt_expr(recv, f),
        Expr::Tuple(es) | Expr::Array(es) => {
            for a in es {
                for_each_stmt_expr(a, f);
            }
        }
        Expr::If {
            cond,
            then_e,
            else_e,
        } => {
            for_each_stmt_expr(cond, f);
            for_each_stmt_expr(then_e, f);
            if let Some(e) = else_e {
                for_each_stmt_expr(e, f);
            }
        }
        Expr::Match { scrutinee, arms } => {
            for_each_stmt_expr(scrutinee, f);
            for arm in arms {
                if let Some(g) = &arm.guard {
                    for_each_stmt_expr(g, f);
                }
                for_each_stmt_expr(&arm.body, f);
            }
        }
        Expr::Block { stmts, value } => {
            for_each_stmt(stmts, f);
            if let Some(v) = value {
                for_each_stmt_expr(v, f);
            }
        }
        Expr::Closure { body, .. } => for_each_stmt_expr(body, f),
        Expr::Num(_) | Expr::Path(_) | Expr::Opaque => {}
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ws(files: &[(&str, &str)]) -> Workspace {
        let sources: Vec<SourceFile> = files.iter().map(|(p, t)| SourceFile::parse(p, t)).collect();
        Workspace::build(&sources)
    }

    fn call(path: &[&str]) -> CallEvent {
        CallEvent {
            line: 1,
            path: path.iter().map(|s| (*s).to_owned()).collect(),
            is_method: false,
            recv: None,
            args: Vec::new(),
        }
    }

    fn method(name: &str) -> CallEvent {
        CallEvent {
            line: 1,
            path: vec![name.to_owned()],
            is_method: true,
            recv: None,
            args: Vec::new(),
        }
    }

    #[test]
    fn bare_calls_resolve_same_file_then_workspace() {
        let w = ws(&[
            (
                "crates/a/src/lib.rs",
                "fn helper() {}\nfn go() { helper(); }\n",
            ),
            ("crates/b/src/lib.rs", "fn solo() {}\n"),
        ]);
        assert!(matches!(
            w.resolve(0, None, &call(&["helper"]), None),
            Resolution::Unique(0)
        ));
        // `solo` is unique workspace-wide even from another file.
        assert!(matches!(
            w.resolve(0, None, &call(&["solo"]), None),
            Resolution::Unique(_)
        ));
        assert_eq!(
            w.resolve(0, None, &call(&["nothing"]), None),
            Resolution::External
        );
    }

    #[test]
    fn use_expansion_and_module_suffix_match() {
        let w = ws(&[
            ("crates/bench/src/parallel.rs", "pub fn parallel_map() {}\n"),
            (
                "crates/bench/src/bin/go.rs",
                "use bench::parallel::parallel_map;\nfn main() { parallel_map(); }\n",
            ),
        ]);
        assert!(matches!(
            w.resolve(1, None, &call(&["parallel_map"]), None),
            Resolution::Unique(0)
        ));
        assert!(matches!(
            w.resolve(1, None, &call(&["parallel", "parallel_map"]), None),
            Resolution::Unique(0)
        ));
        assert_eq!(
            w.resolve(1, None, &call(&["other", "parallel_map"]), None),
            Resolution::External
        );
    }

    #[test]
    fn methods_need_uniqueness_and_dodge_std_names() {
        let w = ws(&[(
            "crates/a/src/lib.rs",
            "struct Chip;\nimpl Chip {\n    fn power_if(&self) {}\n    fn len(&self) {}\n}\n",
        )]);
        assert!(matches!(
            w.resolve(0, None, &method("power_if"), None),
            Resolution::Unique(_)
        ));
        // `len` collides with std; never claimed.
        assert_eq!(
            w.resolve(0, None, &method("len"), None),
            Resolution::External
        );
        // A hint that matches nothing stays external.
        assert_eq!(
            w.resolve(0, None, &method("power_if"), Some("Vec")),
            Resolution::External
        );
        assert!(matches!(
            w.resolve(0, None, &method("power_if"), Some("Chip")),
            Resolution::Unique(_)
        ));
    }

    #[test]
    fn assoc_fns_resolve_by_self_type() {
        let w = ws(&[(
            "crates/a/src/lib.rs",
            "struct A;\nstruct B;\nimpl A {\n    fn build() {}\n}\nimpl B {\n    fn build() {}\n}\n",
        )]);
        assert!(matches!(
            w.resolve(0, None, &call(&["A", "build"]), None),
            Resolution::Unique(_)
        ));
        // Bare `build` is ambiguous.
        assert!(matches!(
            w.resolve(0, None, &call(&["build"]), None),
            Resolution::Candidates(_)
        ));
        // `Self::build` resolves through the caller's impl.
        assert!(matches!(
            w.resolve(0, Some("B"), &call(&["Self", "build"]), None),
            Resolution::Unique(_)
        ));
    }

    #[test]
    fn impl_spans_assign_self_types() {
        let w = ws(&[(
            "crates/a/src/lib.rs",
            "impl Display for Gauge {\n    fn render(&self) {}\n}\nfn free() {}\n",
        )]);
        assert_eq!(w.fns[0].self_type.as_deref(), Some("Gauge"));
        assert_eq!(w.fns[1].self_type, None);
        assert_eq!(w.fns[0].qname(), "Gauge::render");
    }

    #[test]
    fn mention_accounting_tracks_defs_and_uses() {
        let w = ws(&[
            ("crates/a/src/lib.rs", "pub fn alpha() {}\n"),
            (
                "crates/b/src/lib.rs",
                "use a::alpha;\nfn go() { alpha(); }\n",
            ),
        ]);
        assert_eq!(w.mentions["alpha"], 3);
        assert_eq!(w.def_counts["alpha"], 1);
        assert_eq!(w.use_mentions["alpha"], 1);
    }

    #[test]
    fn type_hints_come_from_params_and_ctors() {
        let w = ws(&[(
            "crates/a/src/lib.rs",
            "impl Grid {\n    fn go(&self, chip: &mut Chip) {\n        let sink = JsonlSink::create(dir)?;\n    }\n}\n",
        )]);
        let hints = local_type_hints(&w.fns[0]);
        assert_eq!(hints["self"], "Grid");
        assert_eq!(hints["chip"], "Chip");
        assert_eq!(hints["sink"], "JsonlSink");
    }
}
