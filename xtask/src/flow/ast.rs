//! A resilient expression/statement parser over the shared token stream.
//!
//! `cargo xtask flow` needs more structure than a token window: interval analysis must see assignments,
//! branches, loops and call arguments as trees. This module parses the
//! masked token stream of a [`SourceFile`] into a deliberately small AST.
//! It is *resilient*, not complete: any construct outside the grammar the
//! passes understand collapses into [`Expr::Opaque`] / [`Stmt::Opaque`],
//! which the abstract interpreter treats as "could be anything" — so a
//! parse shortfall can only ever lose precision, never soundness.
//!
//! Known approximations (all precision-only): macro bodies, struct
//! literals, indexing and casts evaluate to ⊤; closures keep their body
//! (sanitizer sites inside are still classified) but evaluate to ⊤ as
//! values;
//! `break`/`continue`/`return` are modelled as statements but not inside
//! value-position expressions (an arm like `B => break` falls through as ⊤
//! instead of jumping, which can only widen downstream states).

use crate::flow::interval::Interval;
use crate::syntax::lexer::{lex, matching_close, Tok, Token};
use crate::syntax::source::SourceFile;

/// A parsed pattern, as far as the dataflow passes care.
#[derive(Debug, Clone, PartialEq)]
pub enum Pat {
    /// `_` or anything that binds nothing we can see.
    Wild,
    /// A plain binding (`x`, `mut x`).
    Bind(String),
    /// A tuple pattern `(a, b)`.
    Tuple(Vec<Pat>),
    /// A (tuple-)variant pattern: `Policy::FixedPower(cap)`, `Some(x)`,
    /// or a unit path like `PowerSource::Utility` (empty `subs`).
    Variant {
        /// Path segments of the variant.
        path: Vec<String>,
        /// Sub-patterns of a tuple variant.
        subs: Vec<Pat>,
    },
    /// An or-pattern `A | B`.
    Or(Vec<Pat>),
    /// A pattern we do not model (struct patterns, literals, ranges).
    Opaque,
}

/// A binary operator the interval domain interprets; everything else
/// becomes [`BinOp::Other`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BinOp {
    /// `+`
    Add,
    /// `-`
    Sub,
    /// `*`
    Mul,
    /// `/`
    Div,
    /// `<`, `<=`, `>`, `>=`, `==`, `!=` — kept for branch refinement.
    Cmp(&'static str),
    /// `&&`
    And,
    /// `||`
    Or,
    /// Any other infix operator (`%`, bit ops, ranges).
    Other,
}

/// A parsed expression.
#[derive(Debug, Clone, PartialEq)]
pub enum Expr {
    /// Numeric literal.
    Num(f64),
    /// A path: a local (`x`), a constant (`Watts::ZERO`), a free function
    /// name before call resolution.
    Path(Vec<String>),
    /// Unary negation `-e`.
    Neg(Box<Expr>),
    /// Infix application.
    Binary {
        /// The operator.
        op: BinOp,
        /// Left operand.
        lhs: Box<Expr>,
        /// Right operand.
        rhs: Box<Expr>,
    },
    /// Free/associated function call `path(args)`.
    Call {
        /// Callee path segments.
        path: Vec<String>,
        /// Arguments.
        args: Vec<Expr>,
        /// 1-based line of the callee token.
        line: usize,
    },
    /// Method call `recv.name(args)`.
    Method {
        /// Receiver expression.
        recv: Box<Expr>,
        /// Method name.
        name: String,
        /// Arguments.
        args: Vec<Expr>,
        /// 1-based line of the method name token.
        line: usize,
    },
    /// Field access `recv.name` (tuple indices use the digit string).
    Field {
        /// Receiver expression.
        recv: Box<Expr>,
        /// Field name.
        name: String,
    },
    /// Tuple constructor `(a, b)`.
    Tuple(Vec<Expr>),
    /// Value-position `if`.
    If {
        /// Condition.
        cond: Box<Expr>,
        /// Then-branch value.
        then_e: Box<Expr>,
        /// Else-branch value (`None` for a statement-shaped `if`).
        else_e: Option<Box<Expr>>,
    },
    /// `match` expression.
    Match {
        /// Scrutinee.
        scrutinee: Box<Expr>,
        /// Arms in source order.
        arms: Vec<Arm>,
    },
    /// Block expression `{ stmts; value }`.
    Block {
        /// Statements.
        stmts: Vec<Stmt>,
        /// Trailing value, if any.
        value: Option<Box<Expr>>,
    },
    /// `expr?` — evaluates to the success value (abstractly transparent).
    Try(Box<Expr>),
    /// `&expr` / `&mut expr`.
    Ref {
        /// `true` for `&mut`.
        mutable: bool,
        /// Referent.
        expr: Box<Expr>,
    },
    /// A closure `|params| body` (also `move` closures). The
    /// interpreter evaluates the body for its effects and sanitizer sites
    /// only.
    Closure {
        /// Parameter patterns (type ascriptions stripped).
        params: Vec<Pat>,
        /// The closure body expression.
        body: Box<Expr>,
    },
    /// An array literal `[a, b, c]`; `[e; n]` is kept as a single-element
    /// array (every element has `e`'s abstract value).
    Array(Vec<Expr>),
    /// `expr as Type` — the value is ⊤ (casts truncate/saturate), but the
    /// operand is kept so sanitizer sites inside it are still classified.
    Cast(Box<Expr>),
    /// Anything the grammar does not model (macros, literals,
    /// struct expressions, indexing).
    Opaque,
}

/// One `match` arm.
#[derive(Debug, Clone, PartialEq)]
pub struct Arm {
    /// The arm pattern.
    pub pat: Pat,
    /// Optional `if` guard.
    pub guard: Option<Expr>,
    /// The arm body.
    pub body: Expr,
}

/// A parsed statement.
#[derive(Debug, Clone, PartialEq)]
pub enum Stmt {
    /// `let pat = init;` (irrefutable or refutable-without-else).
    Let {
        /// Binding pattern.
        pat: Pat,
        /// Initializer (`None` for `let x;`).
        init: Option<Expr>,
    },
    /// `let pat = init else { … };` — the else block diverges.
    LetElse {
        /// Binding pattern.
        pat: Pat,
        /// Initializer.
        init: Expr,
        /// Diverging else body.
        else_body: Vec<Stmt>,
    },
    /// Assignment to a simple local: `x = e`, `x += e`, ….
    Assign {
        /// Target local name.
        name: String,
        /// Compound operator, if any (`BinOp::Add` for `+=`).
        op: Option<BinOp>,
        /// Right-hand side.
        value: Expr,
    },
    /// An expression statement (includes assignments to non-locals, whose
    /// right-hand side is still evaluated for its call sites).
    Expr(Expr),
    /// `if cond { … } else { … }` in statement position.
    If {
        /// Condition.
        cond: Expr,
        /// Then body.
        then_body: Vec<Stmt>,
        /// Else body (empty if absent; else-if chains nest here).
        else_body: Vec<Stmt>,
    },
    /// `while cond { … }` (also carries desugared `while let`).
    While {
        /// Loop condition (`Expr::Opaque` for `while let`).
        cond: Expr,
        /// Body.
        body: Vec<Stmt>,
    },
    /// `loop { … }`.
    Loop {
        /// Body.
        body: Vec<Stmt>,
    },
    /// `for pat in iter { … }` — the binder is havocked per iteration,
    /// except over a literal array whose element hull is used instead.
    For {
        /// Loop binder pattern.
        pat: Pat,
        /// The iterated expression.
        iter: Expr,
        /// Body.
        body: Vec<Stmt>,
    },
    /// `return e;` / `return;`.
    Return(Option<Expr>),
    /// `break;` (labels and values are ignored).
    Break,
    /// `continue;`.
    Continue,
    /// Bare block `{ … }` in statement position.
    Block(Vec<Stmt>),
    /// Binds every name in the pattern to ⊤ (loop binders, `while let`).
    Havoc(Pat),
    /// A statement outside the grammar; `kills` lists locals passed by
    /// `&mut`, which the interpreter must invalidate.
    Opaque {
        /// Locals invalidated by the statement.
        kills: Vec<String>,
    },
}

/// One parsed value parameter of a function signature.
#[derive(Debug, Clone)]
pub struct Param {
    /// Binding name (`None` for patterns we do not model, e.g. tuples).
    pub name: Option<String>,
    /// Value range of a proptest-style binder (`name in lo..hi`), when the
    /// strategy bounds are numeric literals. Anything else stays `None`
    /// (⊤): `any::<f64>()` style strategies can generate NaN.
    pub range: Option<Interval>,
}

/// A parsed free or associated function.
#[derive(Debug, Clone)]
pub struct FnDef {
    /// Body statements (with trailing expression appended as a statement).
    pub body: Vec<Stmt>,
    /// `true` when the `fn` line sits in a `#[cfg(test)]` region.
    pub in_test: bool,
    /// Value parameters (the `self` receiver excluded).
    pub params: Vec<Param>,
}

/// Parses every function with a body out of `src`.
///
/// The scan is linear over the token stream, so functions nested in other
/// functions are (re-)parsed as their own [`FnDef`] too; the interpreter
/// treats the inner occurrence inside the outer body as opaque.
pub fn parse_fns(src: &SourceFile) -> Vec<FnDef> {
    let tokens = lex(src);
    let mut out = Vec::new();
    let mut i = 0;
    while i < tokens.len() {
        if !tokens[i].is_ident("fn") {
            i += 1;
            continue;
        }
        let Some(name_tok) = tokens.get(i + 1) else {
            break;
        };
        if name_tok.ident().is_none() {
            i += 1;
            continue;
        }
        let line = tokens[i].line;
        // Skip generics between the name and the parameter list.
        let mut j = i + 2;
        if tokens.get(j).is_some_and(|t| t.is_op("<")) {
            j = skip_angles(&tokens, j);
        }
        if !tokens.get(j).is_some_and(|t| t.is_op("(")) {
            i += 1;
            continue;
        }
        let Some(params_close) = matching_close(&tokens, j) else {
            break;
        };
        // Find the body `{` (or `;` for a bodyless trait method) after the
        // return type / where clause.
        let mut k = params_close + 1;
        let mut body_open = None;
        while let Some(t) = tokens.get(k) {
            if t.is_op(";") {
                break;
            }
            if t.is_op("{") {
                body_open = Some(k);
                break;
            }
            if t.is_op("<") {
                k = skip_angles(&tokens, k);
                continue;
            }
            k += 1;
        }
        let Some(open) = body_open else {
            i = params_close + 1;
            continue;
        };
        let Some(close) = matching_close(&tokens, open) else {
            break;
        };
        let mut p = Parser {
            toks: &tokens[open + 1..close],
            pos: 0,
        };
        let (body, trailing) = p.parse_stmts();
        let mut body = body;
        if let Some(e) = trailing {
            body.push(Stmt::Expr(e));
        }
        out.push(FnDef {
            body,
            in_test: src.is_test_line(line),
            params: parse_params(&tokens[j + 1..params_close]),
        });
        // Continue *inside* the body so nested fns are found too.
        i = open + 1;
    }
    out
}

/// `true` when an `if`/`else` token chain contains a `let` at bracket depth
/// zero — i.e. any condition in the chain is an `if let`. Depth-0 is what
/// distinguishes chain conditions from `if let`s nested inside the braced
/// branch bodies (those are fine in expression position: the bodies are
/// re-parsed as blocks by [`Parser::parse_block_expr`]).
fn chain_has_depth0_let(tokens: &[Token]) -> bool {
    let mut depth = 0u32;
    for t in tokens {
        if t.is_op("{") || t.is_op("(") || t.is_op("[") {
            depth += 1;
        } else if t.is_op("}") || t.is_op(")") || t.is_op("]") {
            depth = depth.saturating_sub(1);
        } else if depth == 0 && t.is_ident("let") {
            return true;
        }
    }
    false
}

/// Parses a parameter-list token slice into its value parameters (a
/// leading `self` receiver is skipped).
fn parse_params(tokens: &[Token]) -> Vec<Param> {
    let mut parts = split_top_commas(tokens);
    if parts.first().is_some_and(|part| is_self_param(part)) {
        parts.remove(0);
    }
    parts
        .into_iter()
        .filter(|part| !part.is_empty())
        .map(parse_param)
        .collect()
}

/// `true` when the part is a `self` receiver (`self`, `mut self`,
/// `&self`, `&mut self`, `&'a self`).
fn is_self_param(part: &[Token]) -> bool {
    part.iter()
        .find(|t| !(t.is_op("&") || t.is_ident("mut") || matches!(&t.tok, Tok::Lifetime(_))))
        .is_some_and(|t| t.is_ident("self"))
}

/// Parses one non-self parameter: `pat: Type` or a proptest-style binder
/// `name in strategy`.
fn parse_param(part: &[Token]) -> Param {
    // Split at the first `:` at bracket depth 0.
    let mut depth = 0i32;
    let mut colon = None;
    let mut in_kw = None;
    for (n, t) in part.iter().enumerate() {
        match &t.tok {
            Tok::Op("(") | Tok::Op("[") | Tok::Op("{") => depth += 1,
            Tok::Op(")") | Tok::Op("]") | Tok::Op("}") => depth -= 1,
            Tok::Op(":") if depth == 0 && colon.is_none() => colon = Some(n),
            Tok::Ident(w) if w == "in" && depth == 0 && in_kw.is_none() => in_kw = Some(n),
            _ => {}
        }
    }
    // `pat: Type` binds the pattern before the colon; a binder
    // `name in lo..hi` also carries the strategy's range.
    let (pat_toks, range) = match (colon, in_kw) {
        (Some(c), _) => (&part[..c], None),
        (None, Some(k)) => (&part[..k], parse_range_hint(&part[k + 1..])),
        (None, None) => (part, None),
    };
    let name = match parse_pattern(pat_toks) {
        Pat::Bind(n) => Some(n),
        _ => None,
    };
    Param { name, range }
}

/// The interval of a proptest range strategy `lo..hi` / `lo..=hi` with
/// numeric-literal bounds. An unparseable upper bound still yields
/// `[lo, ∞)` open — `Range<f64>` strategies generate values strictly below
/// their (finite) end. An unparseable lower bound yields `None` (⊤).
fn parse_range_hint(tokens: &[Token]) -> Option<Interval> {
    let mut depth = 0i32;
    let mut dots = None;
    for (n, t) in tokens.iter().enumerate() {
        match &t.tok {
            Tok::Op("(") | Tok::Op("[") | Tok::Op("{") => depth += 1,
            Tok::Op(")") | Tok::Op("]") | Tok::Op("}") => depth -= 1,
            Tok::Op("..") | Tok::Op("..=") if depth == 0 => {
                dots = Some(n);
                break;
            }
            _ => {}
        }
    }
    let dots = dots?;
    let inclusive = tokens[dots].is_op("..=");
    let lo = parse_num_slice(&tokens[..dots])?;
    let (hi, hi_open) = match parse_num_slice(&tokens[dots + 1..]) {
        Some(h) => (h, !inclusive),
        None => (f64::INFINITY, true),
    };
    // NaN endpoints fail this comparison too, rejecting the range.
    if matches!(
        lo.partial_cmp(&hi),
        None | Some(std::cmp::Ordering::Greater)
    ) {
        return None;
    }
    Some(Interval {
        lo,
        hi,
        lo_open: false,
        hi_open,
        nan: false,
    })
}

/// Parses a slice that is exactly a (possibly negated, possibly suffixed)
/// numeric literal.
fn parse_num_slice(tokens: &[Token]) -> Option<f64> {
    match tokens {
        [t] => match &t.tok {
            Tok::Num(n) => num_value(n),
            _ => None,
        },
        [m, t] if m.is_op("-") => match &t.tok {
            Tok::Num(n) => num_value(n).map(|v| -v),
            _ => None,
        },
        _ => None,
    }
}

/// The numeric value of a literal token's text, stripping `_` separators
/// and a trailing type suffix (`160.0_f64`, `0usize`).
pub fn num_value(raw: &str) -> Option<f64> {
    let t = raw.replace('_', "");
    if let Ok(v) = t.parse::<f64>() {
        return Some(v);
    }
    for suffix in [
        "f64", "f32", "usize", "isize", "u128", "i128", "u64", "i64", "u32", "i32", "u16", "i16",
        "u8", "i8",
    ] {
        if let Some(stripped) = t.strip_suffix(suffix) {
            if !stripped.is_empty() {
                return stripped.parse().ok();
            }
        }
    }
    None
}

/// Skips a `<…>` group starting at `open` (which must be `<`), counting
/// `<<`/`>>` as two. Returns the index just past the matching `>`.
pub(crate) fn skip_angles(tokens: &[Token], open: usize) -> usize {
    let mut depth = 0i32;
    let mut i = open;
    while let Some(t) = tokens.get(i) {
        match &t.tok {
            Tok::Op("<") => depth += 1,
            Tok::Op("<<") => depth += 2,
            Tok::Op(">") => depth -= 1,
            Tok::Op(">>") => depth -= 2,
            // `->` inside generics (fn pointers) would confuse the scan;
            // bail out rather than overrun.
            Tok::Op(";") | Tok::Op("{") => return i,
            _ => {}
        }
        i += 1;
        if depth <= 0 {
            return i;
        }
    }
    i
}

/// Recursive-descent parser over a token slice (one function body).
struct Parser<'a> {
    toks: &'a [Token],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn peek(&self) -> Option<&'a Token> {
        self.toks.get(self.pos)
    }

    fn peek_at(&self, n: usize) -> Option<&'a Token> {
        self.toks.get(self.pos + n)
    }

    fn at_op(&self, op: &str) -> bool {
        self.peek().is_some_and(|t| t.is_op(op))
    }

    fn at_ident(&self, w: &str) -> bool {
        self.peek().is_some_and(|t| t.is_ident(w))
    }

    fn eat_op(&mut self, op: &str) -> bool {
        if self.at_op(op) {
            self.pos += 1;
            true
        } else {
            false
        }
    }

    /// Skips tokens until past the bracket group opening at the current
    /// position; no-op if not at an open bracket.
    fn skip_group(&mut self) {
        if let Some(close) = matching_close(self.toks, self.pos) {
            self.pos = close + 1;
        } else {
            self.pos = self.toks.len();
        }
    }

    /// Skips to just past the next `;` at bracket depth 0 (or the end).
    fn skip_past_semi(&mut self) -> Vec<String> {
        let mut kills = Vec::new();
        while let Some(t) = self.peek() {
            if t.is_op(";") {
                self.pos += 1;
                break;
            }
            if t.is_op("(") || t.is_op("[") || t.is_op("{") {
                let start = self.pos;
                self.skip_group();
                kills.extend(ref_mut_idents(&self.toks[start..self.pos]));
                continue;
            }
            if t.is_op("&") && self.peek_at(1).is_some_and(|t| t.is_ident("mut")) {
                if let Some(name) = self.peek_at(2).and_then(Token::ident) {
                    kills.push(name.to_owned());
                }
            }
            self.pos += 1;
        }
        kills
    }

    /// Parses statements until the slice is exhausted; returns them plus a
    /// trailing expression if the block ends in one.
    fn parse_stmts(&mut self) -> (Vec<Stmt>, Option<Expr>) {
        let mut stmts = Vec::new();
        while self.peek().is_some() {
            // Attributes inside bodies: `#[…]`.
            if self.at_op("#") {
                self.pos += 1;
                if self.at_op("[") {
                    self.skip_group();
                }
                continue;
            }
            if self.eat_op(";") {
                continue;
            }
            if self.at_ident("let") {
                stmts.push(self.parse_let());
                continue;
            }
            if self.at_ident("if") {
                // A trailing `if`/`else` chain is the block's value (e.g. a
                // match arm ending in `if c { (a, b) } else { (x, y) }`);
                // re-parse it as an expression so the value survives. `if
                // let` conditions (a depth-0 `let` in the chain) stay
                // statements — the expression grammar does not model them.
                let start = self.pos;
                let stmt = self.parse_if_stmt();
                if self.peek().is_none() && !chain_has_depth0_let(&self.toks[start..]) {
                    self.pos = start;
                    let e = self.parse_expr(true);
                    if self.peek().is_none() {
                        return (stmts, Some(e));
                    }
                    // The expression parse desynchronised; fall back to the
                    // statement parse, which is known to consume the chain.
                    self.pos = start;
                    stmts.push(self.parse_if_stmt());
                    continue;
                }
                stmts.push(stmt);
                continue;
            }
            if self.at_ident("while") {
                stmts.push(self.parse_while());
                continue;
            }
            if self.at_ident("for") {
                stmts.push(self.parse_for());
                continue;
            }
            if self.at_ident("loop") {
                self.pos += 1;
                let body = self.parse_braced_body();
                stmts.push(Stmt::Loop { body });
                continue;
            }
            if self.at_ident("return") {
                self.pos += 1;
                let e = if self.at_op(";") || self.peek().is_none() {
                    None
                } else {
                    Some(self.parse_expr(true))
                };
                self.eat_op(";");
                stmts.push(Stmt::Return(e));
                continue;
            }
            if self.at_ident("break") || self.at_ident("continue") {
                let is_break = self.at_ident("break");
                self.pos += 1;
                // Labels / break values are skipped.
                self.skip_past_semi();
                stmts.push(if is_break {
                    Stmt::Break
                } else {
                    Stmt::Continue
                });
                continue;
            }
            if self.at_op("{") {
                let body = self.parse_braced_body();
                stmts.push(Stmt::Block(body));
                continue;
            }
            // Items nested in bodies (fn/struct/impl/use…): skip the
            // header to the next `{`/`;` and the group if any; a nested fn
            // is re-parsed as its own FnDef by the outer scan.
            if self.at_ident("fn")
                || self.at_ident("struct")
                || self.at_ident("impl")
                || self.at_ident("use")
                || self.at_ident("const")
                || self.at_ident("static")
            {
                while let Some(t) = self.peek() {
                    if t.is_op(";") {
                        self.pos += 1;
                        break;
                    }
                    if t.is_op("{") {
                        self.skip_group();
                        break;
                    }
                    if t.is_op("(") || t.is_op("[") {
                        self.skip_group();
                        continue;
                    }
                    self.pos += 1;
                }
                stmts.push(Stmt::Opaque { kills: Vec::new() });
                continue;
            }
            // Expression statement or assignment.
            let start = self.pos;
            let e = self.parse_expr(true);
            if self.pos == start {
                // No progress — consume defensively to guarantee
                // termination.
                self.pos += 1;
                continue;
            }
            if let Some(op) = self.peek().and_then(assign_op) {
                self.pos += 1;
                let rhs = self.parse_expr(true);
                self.eat_op(";");
                if let Expr::Path(segs) = &e {
                    if segs.len() == 1 {
                        stmts.push(Stmt::Assign {
                            name: segs[0].clone(),
                            op,
                            value: rhs,
                        });
                        continue;
                    }
                }
                // Assignment to a non-local (field, index): evaluate the
                // RHS for its effects only.
                stmts.push(Stmt::Expr(rhs));
                continue;
            }
            if self.eat_op(";") || self.peek().is_some() {
                stmts.push(Stmt::Expr(e));
                continue;
            }
            return (stmts, Some(e));
        }
        (stmts, None)
    }

    /// Parses the `{ … }` body of a control construct into statements
    /// (trailing expressions folded into `Stmt::Expr`).
    fn parse_braced_body(&mut self) -> Vec<Stmt> {
        if !self.at_op("{") {
            // Malformed — consume one token so the caller makes progress.
            self.pos += 1;
            return vec![Stmt::Opaque { kills: Vec::new() }];
        }
        let Some(close) = matching_close(self.toks, self.pos) else {
            self.pos = self.toks.len();
            return vec![Stmt::Opaque { kills: Vec::new() }];
        };
        let mut inner = Parser {
            toks: &self.toks[self.pos + 1..close],
            pos: 0,
        };
        self.pos = close + 1;
        let (mut stmts, trailing) = inner.parse_stmts();
        if let Some(e) = trailing {
            stmts.push(Stmt::Expr(e));
        }
        stmts
    }

    fn parse_let(&mut self) -> Stmt {
        self.pos += 1; // `let`
                       // Pattern tokens reach to `=`, `:`, `;` or `else` at depth 0.
        let pat_start = self.pos;
        let mut depth = 0i32;
        while let Some(t) = self.peek() {
            match &t.tok {
                Tok::Op("(") | Tok::Op("[") | Tok::Op("{") => depth += 1,
                Tok::Op(")") | Tok::Op("]") | Tok::Op("}") => depth -= 1,
                Tok::Op("=") | Tok::Op(":") | Tok::Op(";") if depth == 0 => break,
                Tok::Ident(w) if w == "else" && depth == 0 => break,
                _ => {}
            }
            self.pos += 1;
        }
        let pat = parse_pattern(&self.toks[pat_start..self.pos]);
        // Optional type ascription: skip to `=` or `;` at depth 0.
        if self.at_op(":") {
            let mut depth = 0i32;
            while let Some(t) = self.peek() {
                match &t.tok {
                    Tok::Op("(") | Tok::Op("[") | Tok::Op("{") => depth += 1,
                    Tok::Op(")") | Tok::Op("]") | Tok::Op("}") => depth -= 1,
                    Tok::Op("=") | Tok::Op(";") if depth == 0 => break,
                    _ => {}
                }
                self.pos += 1;
            }
        }
        if self.eat_op(";") {
            return Stmt::Let { pat, init: None };
        }
        if !self.eat_op("=") {
            // Unparseable let — be safe.
            self.skip_past_semi();
            return Stmt::Let { pat, init: None };
        }
        let init = self.parse_expr(true);
        if self.at_ident("else") {
            self.pos += 1;
            let else_body = self.parse_braced_body();
            self.eat_op(";");
            return Stmt::LetElse {
                pat,
                init,
                else_body,
            };
        }
        self.eat_op(";");
        Stmt::Let {
            pat,
            init: Some(init),
        }
    }

    fn parse_if_stmt(&mut self) -> Stmt {
        self.pos += 1; // `if`
        let cond = if self.at_ident("let") {
            // `if let PAT = scrutinee` — model as an opaque condition with
            // the bindings havocked in the then-branch.
            self.pos += 1;
            let pat_start = self.pos;
            let mut depth = 0i32;
            while let Some(t) = self.peek() {
                match &t.tok {
                    Tok::Op("(") | Tok::Op("[") | Tok::Op("{") => depth += 1,
                    Tok::Op(")") | Tok::Op("]") | Tok::Op("}") => depth -= 1,
                    Tok::Op("=") if depth == 0 => break,
                    _ => {}
                }
                self.pos += 1;
            }
            let pat = parse_pattern(&self.toks[pat_start..self.pos]);
            self.eat_op("=");
            let _scrutinee = self.parse_expr(false);
            let mut then_body = self.parse_braced_body();
            then_body.insert(0, Stmt::Havoc(pat));
            let else_body = self.parse_else();
            return Stmt::If {
                cond: Expr::Opaque,
                then_body,
                else_body,
            };
        } else {
            self.parse_expr(false)
        };
        let then_body = self.parse_braced_body();
        let else_body = self.parse_else();
        Stmt::If {
            cond,
            then_body,
            else_body,
        }
    }

    fn parse_else(&mut self) -> Vec<Stmt> {
        if !self.at_ident("else") {
            return Vec::new();
        }
        self.pos += 1;
        if self.at_ident("if") {
            return vec![self.parse_if_stmt()];
        }
        self.parse_braced_body()
    }

    fn parse_while(&mut self) -> Stmt {
        self.pos += 1; // `while`
        if self.at_ident("let") {
            self.pos += 1;
            let pat_start = self.pos;
            let mut depth = 0i32;
            while let Some(t) = self.peek() {
                match &t.tok {
                    Tok::Op("(") | Tok::Op("[") | Tok::Op("{") => depth += 1,
                    Tok::Op(")") | Tok::Op("]") | Tok::Op("}") => depth -= 1,
                    Tok::Op("=") if depth == 0 => break,
                    _ => {}
                }
                self.pos += 1;
            }
            let pat = parse_pattern(&self.toks[pat_start..self.pos]);
            self.eat_op("=");
            let _scrutinee = self.parse_expr(false);
            let mut body = self.parse_braced_body();
            body.insert(0, Stmt::Havoc(pat));
            return Stmt::While {
                cond: Expr::Opaque,
                body,
            };
        }
        let cond = self.parse_expr(false);
        let body = self.parse_braced_body();
        Stmt::While { cond, body }
    }

    fn parse_for(&mut self) -> Stmt {
        self.pos += 1; // `for`
        let pat_start = self.pos;
        let mut depth = 0i32;
        while let Some(t) = self.peek() {
            match &t.tok {
                Tok::Op("(") | Tok::Op("[") | Tok::Op("{") => depth += 1,
                Tok::Op(")") | Tok::Op("]") | Tok::Op("}") => depth -= 1,
                Tok::Ident(w) if w == "in" && depth == 0 => break,
                _ => {}
            }
            self.pos += 1;
        }
        let pat = parse_pattern(&self.toks[pat_start..self.pos]);
        if self.at_ident("in") {
            self.pos += 1;
        }
        let iter = self.parse_expr(false);
        let body = self.parse_braced_body();
        Stmt::For { pat, iter, body }
    }

    /// Parses one expression. `struct_ok` is false in condition/scrutinee
    /// position, where `Ident {` starts the construct body rather than a
    /// struct literal.
    fn parse_expr(&mut self, struct_ok: bool) -> Expr {
        self.parse_binary(0, struct_ok)
    }

    fn parse_binary(&mut self, min_bp: u8, struct_ok: bool) -> Expr {
        let mut lhs = self.parse_unary(struct_ok);
        while let Some(t) = self.peek() {
            let Some((op, bp)) = infix_op(t) else { break };
            if bp < min_bp {
                break;
            }
            self.pos += 1;
            let rhs = self.parse_binary(bp + 1, struct_ok);
            lhs = Expr::Binary {
                op,
                lhs: Box::new(lhs),
                rhs: Box::new(rhs),
            };
        }
        lhs
    }

    fn parse_unary(&mut self, struct_ok: bool) -> Expr {
        if self.at_op("-") {
            self.pos += 1;
            return Expr::Neg(Box::new(self.parse_unary(struct_ok)));
        }
        if self.at_op("!") {
            self.pos += 1;
            let inner = self.parse_unary(struct_ok);
            // `!cond` is kept as Binary(Other) so refinement can negate it.
            return Expr::Binary {
                op: BinOp::Other,
                lhs: Box::new(Expr::Path(vec!["!".to_owned()])),
                rhs: Box::new(inner),
            };
        }
        if self.at_op("*") {
            self.pos += 1;
            self.parse_unary(struct_ok);
            return Expr::Opaque;
        }
        if self.at_op("&") {
            self.pos += 1;
            let mutable = self.at_ident("mut");
            if mutable {
                self.pos += 1;
            }
            let inner = self.parse_unary(struct_ok);
            return Expr::Ref {
                mutable,
                expr: Box::new(inner),
            };
        }
        self.parse_postfix(struct_ok)
    }

    fn parse_postfix(&mut self, struct_ok: bool) -> Expr {
        let mut e = self.parse_primary(struct_ok);
        loop {
            if self.at_op("?") {
                self.pos += 1;
                e = Expr::Try(Box::new(e));
                continue;
            }
            if self.at_op(".") {
                // `.await` / `.ident` / `.ident(args)` / `.0`.
                let Some(t) = self.peek_at(1) else { break };
                match &t.tok {
                    Tok::Ident(name) if name == "await" => {
                        self.pos += 2;
                        continue;
                    }
                    Tok::Ident(name) => {
                        let name = name.clone();
                        let line = t.line;
                        self.pos += 2;
                        // Turbofish: `.collect::<…>()`.
                        if self.at_op("::") && self.peek_at(1).is_some_and(|t| t.is_op("<")) {
                            self.pos += 1;
                            self.pos = skip_angles(self.toks, self.pos);
                        }
                        if self.at_op("(") {
                            let args = self.parse_args();
                            e = Expr::Method {
                                recv: Box::new(e),
                                name,
                                args,
                                line,
                            };
                        } else {
                            e = Expr::Field {
                                recv: Box::new(e),
                                name,
                            };
                        }
                        continue;
                    }
                    Tok::Num(n) => {
                        let name = n.clone();
                        self.pos += 2;
                        e = Expr::Field {
                            recv: Box::new(e),
                            name,
                        };
                        continue;
                    }
                    _ => break,
                }
            }
            if self.at_op("[") {
                self.skip_group();
                e = Expr::Opaque;
                continue;
            }
            if self.at_ident("as") {
                // Cast: consume the type path; the operand survives so
                // sanitizer sites inside it are still classified, but the
                // value is lost (casts truncate/saturate).
                self.pos += 1;
                while self
                    .peek()
                    .is_some_and(|t| matches!(&t.tok, Tok::Ident(_)) || t.is_op("::"))
                {
                    self.pos += 1;
                }
                e = Expr::Cast(Box::new(e));
                continue;
            }
            break;
        }
        e
    }

    fn parse_primary(&mut self, struct_ok: bool) -> Expr {
        let Some(t) = self.peek() else {
            return Expr::Opaque;
        };
        match &t.tok {
            Tok::Num(n) => {
                let v = num_value(n);
                self.pos += 1;
                match v {
                    Some(v) => Expr::Num(v),
                    None => Expr::Opaque,
                }
            }
            Tok::Op("(") => {
                let Some(close) = matching_close(self.toks, self.pos) else {
                    self.pos = self.toks.len();
                    return Expr::Opaque;
                };
                let inner = &self.toks[self.pos + 1..close];
                self.pos = close + 1;
                let parts = split_top_commas(inner);
                if parts.len() == 1 {
                    let mut p = Parser {
                        toks: parts[0],
                        pos: 0,
                    };
                    if parts[0].is_empty() {
                        return Expr::Opaque; // unit `()`
                    }
                    p.parse_expr(true)
                } else {
                    Expr::Tuple(
                        parts
                            .iter()
                            .map(|part| {
                                let mut p = Parser { toks: part, pos: 0 };
                                p.parse_expr(true)
                            })
                            .collect(),
                    )
                }
            }
            Tok::Op("{") => {
                let Some(close) = matching_close(self.toks, self.pos) else {
                    self.pos = self.toks.len();
                    return Expr::Opaque;
                };
                let mut inner = Parser {
                    toks: &self.toks[self.pos + 1..close],
                    pos: 0,
                };
                self.pos = close + 1;
                let (stmts, value) = inner.parse_stmts();
                Expr::Block {
                    stmts,
                    value: value.map(Box::new),
                }
            }
            Tok::Op("[") => {
                let Some(close) = matching_close(self.toks, self.pos) else {
                    self.pos = self.toks.len();
                    return Expr::Opaque;
                };
                let inner = &self.toks[self.pos + 1..close];
                self.pos = close + 1;
                // `[e; n]` repeat form: one representative element.
                let mut depth = 0i32;
                let mut semi = None;
                for (n, t) in inner.iter().enumerate() {
                    match &t.tok {
                        Tok::Op("(") | Tok::Op("[") | Tok::Op("{") => depth += 1,
                        Tok::Op(")") | Tok::Op("]") | Tok::Op("}") => depth -= 1,
                        Tok::Op(";") if depth == 0 => {
                            semi = Some(n);
                            break;
                        }
                        _ => {}
                    }
                }
                if let Some(s) = semi {
                    let mut p = Parser {
                        toks: &inner[..s],
                        pos: 0,
                    };
                    return Expr::Array(vec![p.parse_expr(true)]);
                }
                Expr::Array(
                    split_top_commas(inner)
                        .into_iter()
                        .filter(|part| !part.is_empty())
                        .map(|part| {
                            let mut p = Parser { toks: part, pos: 0 };
                            p.parse_expr(true)
                        })
                        .collect(),
                )
            }
            Tok::Op("|") | Tok::Op("||") => {
                let mut params = Vec::new();
                if self.at_op("||") {
                    self.pos += 1;
                } else {
                    self.pos += 1;
                    let p_start = self.pos;
                    while let Some(t) = self.peek() {
                        if t.is_op("|") {
                            break;
                        }
                        if t.is_op("(") || t.is_op("[") || t.is_op("{") {
                            self.skip_group();
                            continue;
                        }
                        self.pos += 1;
                    }
                    let p_toks = &self.toks[p_start..self.pos.min(self.toks.len())];
                    self.eat_op("|");
                    for part in split_top_commas(p_toks) {
                        // Strip a `: Type` ascription at depth 0.
                        let mut depth = 0i32;
                        let mut end = part.len();
                        for (n, t) in part.iter().enumerate() {
                            match &t.tok {
                                Tok::Op("(") | Tok::Op("[") | Tok::Op("{") => depth += 1,
                                Tok::Op(")") | Tok::Op("]") | Tok::Op("}") => depth -= 1,
                                Tok::Op(":") if depth == 0 => {
                                    end = n;
                                    break;
                                }
                                _ => {}
                            }
                        }
                        params.push(parse_pattern(&part[..end]));
                    }
                }
                // Optional `-> Type` before a braced body.
                if self.at_op("->") {
                    while let Some(t) = self.peek() {
                        if t.is_op("{") {
                            break;
                        }
                        if t.is_op("<") {
                            self.pos = skip_angles(self.toks, self.pos);
                            continue;
                        }
                        self.pos += 1;
                    }
                }
                let body = self.parse_expr(struct_ok);
                Expr::Closure {
                    params,
                    body: Box::new(body),
                }
            }
            Tok::Ident(w) if w == "if" => {
                self.pos += 1;
                let cond = self.parse_expr(false);
                let then_e = self.parse_block_expr();
                let else_e = if self.at_ident("else") {
                    self.pos += 1;
                    if self.at_ident("if") {
                        Some(Box::new(self.parse_primary(struct_ok)))
                    } else {
                        Some(Box::new(self.parse_block_expr()))
                    }
                } else {
                    None
                };
                Expr::If {
                    cond: Box::new(cond),
                    then_e: Box::new(then_e),
                    else_e,
                }
            }
            Tok::Ident(w) if w == "match" => {
                self.pos += 1;
                let scrutinee = self.parse_expr(false);
                let arms = self.parse_match_arms();
                Expr::Match {
                    scrutinee: Box::new(scrutinee),
                    arms,
                }
            }
            Tok::Ident(w) if w == "move" => {
                self.pos += 1;
                self.parse_primary(struct_ok)
            }
            Tok::Ident(w) if w == "unsafe" || w == "async" => {
                self.pos += 1;
                self.parse_primary(struct_ok)
            }
            Tok::Ident(_) => self.parse_path_expr(struct_ok),
            _ => {
                self.pos += 1;
                Expr::Opaque
            }
        }
    }

    /// Parses `{ … }` as a value (used by value-position `if`).
    fn parse_block_expr(&mut self) -> Expr {
        if !self.at_op("{") {
            return Expr::Opaque;
        }
        let Some(close) = matching_close(self.toks, self.pos) else {
            self.pos = self.toks.len();
            return Expr::Opaque;
        };
        let mut inner = Parser {
            toks: &self.toks[self.pos + 1..close],
            pos: 0,
        };
        self.pos = close + 1;
        let (stmts, value) = inner.parse_stmts();
        Expr::Block {
            stmts,
            value: value.map(Box::new),
        }
    }

    fn parse_path_expr(&mut self, struct_ok: bool) -> Expr {
        let mut segs = Vec::new();
        let line = self.peek().map_or(0, |t| t.line);
        while let Some(t) = self.peek() {
            if let Tok::Ident(s) = &t.tok {
                segs.push(s.clone());
                self.pos += 1;
                if self.at_op("::") {
                    self.pos += 1;
                    // Turbofish in path position.
                    if self.at_op("<") {
                        self.pos = skip_angles(self.toks, self.pos);
                        break;
                    }
                    continue;
                }
            }
            break;
        }
        if segs.is_empty() {
            self.pos += 1;
            return Expr::Opaque;
        }
        // Macro invocation: `name!(…)` / `name![…]` / `name!{…}`.
        if self.at_op("!") {
            self.pos += 1;
            self.skip_group();
            return Expr::Opaque;
        }
        if self.at_op("(") {
            let args = self.parse_args();
            return Expr::Call {
                path: segs,
                args,
                line,
            };
        }
        if struct_ok && self.at_op("{") && segs.last().is_some_and(|s| starts_upper(s)) {
            // Struct literal.
            self.skip_group();
            return Expr::Opaque;
        }
        Expr::Path(segs)
    }

    /// Parses a parenthesized argument list (cursor on `(`).
    fn parse_args(&mut self) -> Vec<Expr> {
        let Some(close) = matching_close(self.toks, self.pos) else {
            self.pos = self.toks.len();
            return Vec::new();
        };
        let inner = &self.toks[self.pos + 1..close];
        self.pos = close + 1;
        let mut parts = split_top_commas(inner);
        // Trailing comma: drop the final empty slot only. Interior empties
        // stay as Opaque — masked string literals lex to zero tokens, and
        // argument positions must not shift.
        if parts.last().is_some_and(|p| p.is_empty()) {
            parts.pop();
        }
        parts
            .into_iter()
            .map(|part| {
                if part.is_empty() {
                    return Expr::Opaque;
                }
                let mut p = Parser { toks: part, pos: 0 };
                p.parse_expr(true)
            })
            .collect()
    }

    /// Parses `{ pat [if guard] => body, … }` (cursor on `{`).
    fn parse_match_arms(&mut self) -> Vec<Arm> {
        if !self.at_op("{") {
            return Vec::new();
        }
        let Some(close) = matching_close(self.toks, self.pos) else {
            self.pos = self.toks.len();
            return Vec::new();
        };
        let inner = &self.toks[self.pos + 1..close];
        self.pos = close + 1;
        let mut arms = Vec::new();
        let mut i = 0;
        while i < inner.len() {
            // Pattern (and optional guard) reach to `=>` at depth 0.
            let mut depth = 0i32;
            let mut arrow = None;
            let mut guard_at = None;
            let mut j = i;
            while j < inner.len() {
                match &inner[j].tok {
                    Tok::Op("(") | Tok::Op("[") | Tok::Op("{") => depth += 1,
                    Tok::Op(")") | Tok::Op("]") | Tok::Op("}") => depth -= 1,
                    Tok::Op("=>") if depth == 0 => {
                        arrow = Some(j);
                        break;
                    }
                    Tok::Ident(w) if w == "if" && depth == 0 && guard_at.is_none() => {
                        guard_at = Some(j);
                    }
                    _ => {}
                }
                j += 1;
            }
            let Some(arrow) = arrow else { break };
            let pat_end = guard_at.unwrap_or(arrow);
            let pat = parse_pattern(&inner[i..pat_end]);
            let guard = guard_at.map(|g| {
                let mut p = Parser {
                    toks: &inner[g + 1..arrow],
                    pos: 0,
                };
                p.parse_expr(false)
            });
            // Body: an expression; arms end at `,` at depth 0 or at the
            // end of the arm list.
            let mut p = Parser {
                toks: &inner[arrow + 1..],
                pos: 0,
            };
            let body = p.parse_expr(true);
            let consumed = p.pos;
            i = arrow + 1 + consumed;
            if i < inner.len() && inner[i].is_op(",") {
                i += 1;
            }
            arms.push(Arm { pat, guard, body });
        }
        arms
    }
}

/// Splits a token slice on commas at bracket depth 0, honouring closure
/// parameter pipes so `f(|a, b| a + b)` stays one argument.
fn split_top_commas(tokens: &[Token]) -> Vec<&[Token]> {
    let mut parts = Vec::new();
    let mut depth = 0i32;
    let mut in_pipes = false;
    let mut start = 0;
    for (i, t) in tokens.iter().enumerate() {
        match &t.tok {
            Tok::Op("(") | Tok::Op("[") | Tok::Op("{") => depth += 1,
            Tok::Op(")") | Tok::Op("]") | Tok::Op("}") => depth -= 1,
            Tok::Op("|") if depth == 0 => in_pipes = !in_pipes,
            Tok::Op(",") if depth == 0 && !in_pipes => {
                parts.push(&tokens[start..i]);
                start = i + 1;
            }
            _ => {}
        }
    }
    parts.push(&tokens[start..]);
    if parts.len() == 1 && parts[0].is_empty() {
        return vec![];
    }
    parts
}

/// Names appearing as `&mut name` anywhere in the slice.
fn ref_mut_idents(tokens: &[Token]) -> Vec<String> {
    let mut out = Vec::new();
    for w in tokens.windows(3) {
        if w[0].is_op("&") && w[1].is_ident("mut") {
            if let Some(n) = w[2].ident() {
                out.push(n.to_owned());
            }
        }
    }
    out
}

/// Parses a pattern from its token slice.
pub fn parse_pattern(tokens: &[Token]) -> Pat {
    // Or-patterns at depth 0.
    let mut depth = 0i32;
    let mut splits = Vec::new();
    for (i, t) in tokens.iter().enumerate() {
        match &t.tok {
            Tok::Op("(") | Tok::Op("[") | Tok::Op("{") => depth += 1,
            Tok::Op(")") | Tok::Op("]") | Tok::Op("}") => depth -= 1,
            Tok::Op("|") if depth == 0 => splits.push(i),
            _ => {}
        }
    }
    if !splits.is_empty() {
        let mut parts = Vec::new();
        let mut start = 0;
        for s in splits {
            parts.push(parse_pattern(&tokens[start..s]));
            start = s + 1;
        }
        parts.push(parse_pattern(&tokens[start..]));
        return Pat::Or(parts);
    }

    let mut i = 0;
    // Strip `ref` / `mut` / `&` / `box` prefixes.
    while tokens
        .get(i)
        .is_some_and(|t| t.is_ident("ref") || t.is_ident("mut") || t.is_op("&"))
    {
        i += 1;
    }
    let rest = &tokens[i.min(tokens.len())..];
    match rest.first().map(|t| &t.tok) {
        None => Pat::Wild,
        Some(Tok::Op("_")) => Pat::Wild,
        Some(Tok::Op("(")) => {
            let Some(close) = matching_close(rest, 0) else {
                return Pat::Opaque;
            };
            let subs: Vec<Pat> = split_top_commas(&rest[1..close])
                .into_iter()
                .map(parse_pattern)
                .collect();
            Pat::Tuple(subs)
        }
        Some(Tok::Num(_)) => Pat::Opaque,
        Some(Tok::Ident(_)) => {
            let mut segs = Vec::new();
            let mut j = 0;
            while let Some(Tok::Ident(s)) = rest.get(j).map(|t| &t.tok) {
                segs.push(s.clone());
                if rest.get(j + 1).is_some_and(|t| t.is_op("::")) {
                    j += 2;
                } else {
                    j += 1;
                    break;
                }
            }
            match rest.get(j).map(|t| &t.tok) {
                Some(Tok::Op("(")) => {
                    let Some(close) = matching_close(rest, j) else {
                        return Pat::Opaque;
                    };
                    let subs: Vec<Pat> = split_top_commas(&rest[j + 1..close])
                        .into_iter()
                        .map(parse_pattern)
                        .collect();
                    Pat::Variant { path: segs, subs }
                }
                Some(Tok::Op("{")) => Pat::Opaque, // struct patterns bind nothing we track
                Some(Tok::Op("..")) | Some(Tok::Op("..=")) => Pat::Opaque,
                None => {
                    if segs.len() == 1 && !starts_upper(&segs[0]) {
                        Pat::Bind(segs.remove(0))
                    } else {
                        Pat::Variant {
                            path: segs,
                            subs: Vec::new(),
                        }
                    }
                }
                _ => Pat::Opaque,
            }
        }
        _ => Pat::Opaque,
    }
}

fn starts_upper(s: &str) -> bool {
    s.chars().next().is_some_and(char::is_uppercase)
}

fn assign_op(t: &Token) -> Option<Option<BinOp>> {
    match &t.tok {
        Tok::Op("=") => Some(None),
        Tok::Op("+=") => Some(Some(BinOp::Add)),
        Tok::Op("-=") => Some(Some(BinOp::Sub)),
        Tok::Op("*=") => Some(Some(BinOp::Mul)),
        Tok::Op("/=") => Some(Some(BinOp::Div)),
        Tok::Op("%=")
        | Tok::Op("^=")
        | Tok::Op("&=")
        | Tok::Op("|=")
        | Tok::Op("<<=")
        | Tok::Op(">>=") => Some(Some(BinOp::Other)),
        _ => None,
    }
}

/// Infix operator and its binding power (higher binds tighter).
fn infix_op(t: &Token) -> Option<(BinOp, u8)> {
    let r = match &t.tok {
        Tok::Op("||") => (BinOp::Or, 1),
        Tok::Op("&&") => (BinOp::And, 2),
        Tok::Op("==") => (BinOp::Cmp("=="), 3),
        Tok::Op("!=") => (BinOp::Cmp("!="), 3),
        Tok::Op("<") => (BinOp::Cmp("<"), 3),
        Tok::Op("<=") => (BinOp::Cmp("<="), 3),
        Tok::Op(">") => (BinOp::Cmp(">"), 3),
        Tok::Op(">=") => (BinOp::Cmp(">="), 3),
        Tok::Op("..") | Tok::Op("..=") => (BinOp::Other, 4),
        Tok::Op("+") => (BinOp::Add, 5),
        Tok::Op("-") => (BinOp::Sub, 5),
        Tok::Op("*") => (BinOp::Mul, 6),
        Tok::Op("/") => (BinOp::Div, 6),
        Tok::Op("%") => (BinOp::Other, 6),
        Tok::Op("^") | Tok::Op("|") | Tok::Op("<<") | Tok::Op(">>") => (BinOp::Other, 3),
        _ => return None,
    };
    Some(r)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn body(text: &str) -> Vec<Stmt> {
        let wrapped = format!("fn t() {{\n{text}\n}}\n");
        let src = SourceFile::parse("t.rs", &wrapped);
        let fns = parse_fns(&src);
        assert_eq!(fns.len(), 1, "{fns:?}");
        fns.into_iter().next().map(|f| f.body).unwrap_or_default()
    }

    #[test]
    fn parses_let_with_arithmetic() {
        let b = body("let x = a * 2.0 + b;");
        assert_eq!(b.len(), 1);
        let Stmt::Let { pat, init } = &b[0] else {
            panic!("{b:?}")
        };
        assert_eq!(*pat, Pat::Bind("x".to_owned()));
        let Some(Expr::Binary { op: BinOp::Add, .. }) = init else {
            panic!("{init:?}")
        };
    }

    #[test]
    fn precedence_mul_over_add() {
        let b = body("let x = 1.0 + 2.0 * 3.0;");
        let Stmt::Let {
            init: Some(Expr::Binary { op, rhs, .. }),
            ..
        } = &b[0]
        else {
            panic!("{b:?}")
        };
        assert_eq!(*op, BinOp::Add);
        assert!(matches!(**rhs, Expr::Binary { op: BinOp::Mul, .. }));
    }

    #[test]
    fn parses_tuple_let_over_match() {
        let b = body(
            "let (a, b) = match s {\n\
             K::X => (Watts::ZERO, v),\n\
             K::Y(c) => { (p.min(c), v) }\n\
             };",
        );
        let Stmt::Let {
            pat: Pat::Tuple(ps),
            init: Some(Expr::Match { arms, .. }),
        } = &b[0]
        else {
            panic!("{b:?}")
        };
        assert_eq!(ps.len(), 2);
        assert_eq!(arms.len(), 2);
        assert!(matches!(
            &arms[1].pat,
            Pat::Variant { path, subs } if path == &["K", "Y"] && subs == &[Pat::Bind("c".to_owned())]
        ));
    }

    #[test]
    fn method_chains_and_try() {
        let b = body("let p = chip.power_if(core, next)?.min(cap);");
        let Stmt::Let {
            init: Some(Expr::Method { name, recv, .. }),
            ..
        } = &b[0]
        else {
            panic!("{b:?}")
        };
        assert_eq!(name, "min");
        assert!(matches!(**recv, Expr::Try(_)));
    }

    #[test]
    fn closures_and_macros_are_opaque_but_bounded() {
        let b = body("let m: Vec<f64> = xs.iter().map(|p| p.at(t)).collect();\nlet v = vec![0u64; n];\nuse_it(m, v);");
        assert_eq!(b.len(), 3, "{b:?}");
    }

    #[test]
    fn statement_if_else_chain() {
        // A chain with statements after it parses as a statement…
        let b =
            body("if a < 1.0 { x = 1.0; } else if a < 2.0 { x = 2.0; } else { x = 3.0; }\ndone();");
        let Stmt::If { else_body, .. } = &b[0] else {
            panic!("{b:?}")
        };
        assert!(matches!(&else_body[0], Stmt::If { .. }));
    }

    #[test]
    fn trailing_if_else_chain_is_a_value() {
        // …while a chain that ends the block is re-parsed as the block's
        // value expression, so `match` arms ending in `if c { (a, b) }
        // else { (x, y) }` keep their tuple value.
        let b = body("if a < 1.0 { x = 1.0; } else if a < 2.0 { x = 2.0; } else { x = 3.0; }");
        assert!(matches!(&b[0], Stmt::Expr(Expr::If { .. })), "{b:?}");
        // An `if let` anywhere in the chain's conditions keeps the whole
        // chain a statement (the expression grammar does not model it).
        let b = body("if let Some(v) = find(x) { x = v; } else { x = 3.0; }");
        assert!(matches!(&b[0], Stmt::If { .. }), "{b:?}");
    }

    #[test]
    fn loops_breaks_and_let_else() {
        let b = body(
            "loop {\n\
             let Some(e) = find(x) else { break; };\n\
             if bad(e) { continue; }\n\
             }",
        );
        let Stmt::Loop { body } = &b[0] else {
            panic!("{b:?}")
        };
        assert!(
            matches!(&body[0], Stmt::LetElse { else_body, .. } if matches!(else_body[0], Stmt::Break))
        );
    }

    #[test]
    fn while_and_for() {
        let b = body(
            "while p > cap && n > 0 { n -= 1; }\nfor (i, s) in xs.iter().enumerate() { go(i, s); }",
        );
        assert!(matches!(&b[0], Stmt::While { .. }));
        let Stmt::For { pat, .. } = &b[1] else {
            panic!("{b:?}")
        };
        assert_eq!(
            *pat,
            Pat::Tuple(vec![Pat::Bind("i".to_owned()), Pat::Bind("s".to_owned())])
        );
    }

    #[test]
    fn struct_literals_in_args_are_consumed() {
        let b = body("let r = track(&mut Rig { a, b: c.d() })?;");
        assert!(matches!(
            &b[0],
            Stmt::Let {
                init: Some(Expr::Try(_)),
                ..
            }
        ));
    }

    #[test]
    fn or_pattern_arms_parse() {
        let b = body("let x = match p { P::A | P::B => 1.0, _ => 2.0 };");
        let Stmt::Let {
            init: Some(Expr::Match { arms, .. }),
            ..
        } = &b[0]
        else {
            panic!("{b:?}")
        };
        assert!(matches!(&arms[0].pat, Pat::Or(ps) if ps.len() == 2));
        assert_eq!(arms[1].pat, Pat::Wild);
    }

    #[test]
    fn test_fns_are_marked() {
        let text = "fn a() {}\n#[cfg(test)]\nmod tests {\n    fn b() {}\n}\n";
        let src = SourceFile::parse("t.rs", text);
        let fns = parse_fns(&src);
        assert_eq!(fns.len(), 2);
        assert!(!fns[0].in_test);
        assert!(fns[1].in_test);
    }

    #[test]
    fn signature_capture() {
        let text = "pub fn f(&mut self, x: f64, buf: &mut Vec<f64>) -> Result<f64, E> {\n    x + 1.0\n}\nfn g(n: usize) -> f64 { v[n] }\n";
        let src = SourceFile::parse("t.rs", text);
        let fns = parse_fns(&src);
        assert_eq!(fns.len(), 2);
        // The `&mut self` receiver is not a value parameter.
        let f = &fns[0];
        assert_eq!(f.params.len(), 2);
        assert_eq!(f.params[0].name.as_deref(), Some("x"));
        assert_eq!(f.params[1].name.as_deref(), Some("buf"));
        assert_eq!(fns[1].params[0].name.as_deref(), Some("n"));
    }

    #[test]
    fn proptest_range_binders_get_intervals() {
        let text = "fn t(p in 10.0..160.0f64, q in any::<f64>()) {}\n";
        let src = SourceFile::parse("t.rs", text);
        let fns = parse_fns(&src);
        let r = fns[0].params[0].range.expect("range hint");
        assert_eq!((r.lo, r.hi), (10.0, 160.0));
        assert!(!r.lo_open && r.hi_open && !r.nan);
        assert!(fns[0].params[1].range.is_none());
    }

    #[test]
    fn closures_keep_their_bodies() {
        let b = body("let f = |a: f64, b| a + b;\nxs.map(|x| x * 2.0);");
        let Stmt::Let {
            init: Some(Expr::Closure { params, body, .. }),
            ..
        } = &b[0]
        else {
            panic!("{b:?}")
        };
        assert_eq!(params.len(), 2);
        assert!(matches!(**body, Expr::Binary { op: BinOp::Add, .. }));
        let Stmt::Expr(Expr::Method { args, .. }) = &b[1] else {
            panic!("{b:?}")
        };
        assert!(matches!(&args[0], Expr::Closure { .. }));
    }

    #[test]
    fn arrays_parse_to_elements() {
        let b = body("let a = [1.0, 2.0, x];\nlet r = [0.0; 8];");
        let Stmt::Let {
            init: Some(Expr::Array(es)),
            ..
        } = &b[0]
        else {
            panic!("{b:?}")
        };
        assert_eq!(es.len(), 3);
        let Stmt::Let {
            init: Some(Expr::Array(rs)),
            ..
        } = &b[1]
        else {
            panic!("{b:?}")
        };
        assert_eq!(rs.len(), 1, "repeat form keeps one representative");
    }

    #[test]
    fn suffixed_literals_parse() {
        assert_eq!(num_value("160.0_f64"), Some(160.0));
        assert_eq!(num_value("0usize"), Some(0.0));
        assert_eq!(num_value("1_000"), Some(1000.0));
        assert_eq!(num_value("0x10"), None);
    }
}
