//! Hierarchical wall-clock profiler, strictly fenced from the
//! deterministic telemetry path.
//!
//! Everything else in this crate runs on the **simulation clock**; this
//! module is the one sanctioned home of ambient time (`std::time::Instant`,
//! disallowed by the root `clippy.toml` everywhere else and waived by the
//! module-level `#![expect]` below).
//! The fence is one-way: nothing flows back — no simulated value, no
//! record, no digest input depends on a measurement taken here.
//! `bench/tests/determinism.rs` proves the pinned day hash is
//! bit-identical with profiling armed.
//!
//! # Model
//!
//! A [`Profiler`] handle (cheap to clone, `Rc`-shared like
//! [`Telemetry`](crate::Telemetry)) owns one span **stack** and one span
//! **tree**. Entering a scope ([`Profiler::scope`]) pushes a frame and
//! returns a [`ProfSpan`] guard; dropping the guard pops the frame and
//! folds the measured interval into the tree node for that call path.
//! Handles are `!Send`, so every thread profiles into its own tree with no
//! locks anywhere. The tree's *structure* (shape, call counts) is a pure
//! function of the simulated execution path; only the wall-clock numbers
//! are machine-dependent.
//!
//! ```
//! use telemetry::prof::Profiler;
//!
//! let prof = Profiler::enabled();
//! {
//!     let _day = prof.scope("day");
//!     for _ in 0..3 {
//!         let _step = prof.scope("step");
//!     }
//! }
//! let tree = prof.tree();
//! assert_eq!(tree.roots[0].name, "day");
//! assert_eq!(tree.roots[0].children[0].calls, 3);
//!
//! // Disabled handles are free: no clock read, no allocation.
//! let off = Profiler::disabled();
//! let _nothing = off.scope("day");
//! assert!(off.tree().roots.is_empty());
//! ```
#![expect(
    clippy::disallowed_methods,
    reason = "the profiler is the one sanctioned home of ambient time; nothing it measures flows into a record, a digest or a simulated value"
)]

use std::cell::RefCell;
use std::rc::Rc;
use std::time::Instant;

/// One raw node of the live span tree (arena-indexed).
#[derive(Debug)]
struct RawNode {
    name: &'static str,
    /// Arena indices of this node's children, in first-entry order.
    children: Vec<usize>,
    calls: u64,
    wall_ns: u64,
}

/// One captured span interval. Only recorded when the profiler was built
/// with [`Profiler::with_trace_log`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceEvent {
    /// Span name (a `schema::PROF_*` constant at real call sites).
    pub name: &'static str,
    /// Measured span duration, nanoseconds.
    pub dur_ns: u64,
}

/// Shared state behind an enabled [`Profiler`] handle.
struct ProfInner {
    nodes: RefCell<Vec<RawNode>>,
    /// Arena indices of the currently-open spans, outermost first.
    stack: RefCell<Vec<usize>>,
    /// Trace-event log and its capacity (`0` disables capture).
    events: RefCell<Vec<TraceEvent>>,
    events_cap: usize,
}

/// A hierarchical wall-clock profiler handle.
///
/// Clones share the same tree (like [`Telemetry`](crate::Telemetry) handles
/// share a sink); the disabled handle is a no-op whose [`Profiler::scope`]
/// never reads the clock.
#[derive(Clone)]
pub struct Profiler {
    inner: Option<Rc<ProfInner>>,
}

impl std::fmt::Debug for Profiler {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Profiler")
            .field("enabled", &self.inner.is_some())
            .finish()
    }
}

impl Default for Profiler {
    fn default() -> Self {
        Profiler::disabled()
    }
}

impl Profiler {
    /// A no-op handle: every scope is free, the tree stays empty.
    pub fn disabled() -> Profiler {
        Profiler { inner: None }
    }

    /// An armed handle aggregating into a fresh span tree (no trace log).
    pub fn enabled() -> Profiler {
        Profiler::with_trace_log(0)
    }

    /// An armed handle that additionally captures up to `cap` raw span
    /// intervals ([`Self::take_events`]). `0` disables capture.
    pub fn with_trace_log(cap: usize) -> Profiler {
        Profiler {
            inner: Some(Rc::new(ProfInner {
                nodes: RefCell::new(Vec::new()),
                stack: RefCell::new(Vec::new()),
                events: RefCell::new(Vec::new()),
                events_cap: cap,
            })),
        }
    }

    /// `true` when scopes actually measure.
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// Enters a named scope, returning the guard that measures it. The
    /// interval from this call to the guard's drop is folded into the span
    /// tree under the current call path.
    #[must_use = "the returned guard measures until dropped; binding it to `_` drops immediately"]
    pub fn scope(&self, name: &'static str) -> ProfSpan {
        let Some(inner) = &self.inner else {
            return ProfSpan { ctx: None };
        };
        let node = inner.enter(name);
        ProfSpan {
            ctx: Some(SpanCtx {
                inner: Rc::clone(inner),
                node,
                start: Instant::now(),
            }),
        }
    }

    /// Snapshots the aggregated span tree. Children are sorted by name, so
    /// two runs that execute the same scopes yield structurally identical
    /// trees regardless of timing.
    pub fn tree(&self) -> ProfTree {
        let Some(inner) = &self.inner else {
            return ProfTree { roots: Vec::new() };
        };
        let nodes = match inner.nodes.try_borrow() {
            Ok(nodes) => nodes,
            Err(_) => return ProfTree { roots: Vec::new() },
        };
        // Roots are the nodes no other node claims as a child.
        let mut is_child = vec![false; nodes.len()];
        for node in nodes.iter() {
            for &c in &node.children {
                if let Some(slot) = is_child.get_mut(c) {
                    *slot = true;
                }
            }
        }
        let mut roots: Vec<ProfNode> = (0..nodes.len())
            .filter(|&i| !is_child[i])
            .map(|i| freeze(&nodes, i))
            .collect();
        roots.sort_by(|a, b| a.name.cmp(&b.name));
        ProfTree { roots }
    }

    /// Drains the captured trace-event log (empty unless built with
    /// [`Self::with_trace_log`]). Events come back in completion order.
    pub fn take_events(&self) -> Vec<TraceEvent> {
        match &self.inner {
            Some(inner) => match inner.events.try_borrow_mut() {
                Ok(mut events) => std::mem::take(&mut *events),
                Err(_) => Vec::new(),
            },
            None => Vec::new(),
        }
    }
}

impl ProfInner {
    /// Finds or creates the child named `name` under the innermost open
    /// span (or at the root) and pushes it on the stack.
    fn enter(&self, name: &'static str) -> usize {
        let Ok(mut nodes) = self.nodes.try_borrow_mut() else {
            return usize::MAX;
        };
        let Ok(mut stack) = self.stack.try_borrow_mut() else {
            return usize::MAX;
        };
        let idx = match stack.last().copied() {
            Some(parent) => {
                let found = nodes[parent]
                    .children
                    .iter()
                    .copied()
                    .find(|&c| nodes[c].name == name);
                match found {
                    Some(c) => c,
                    None => {
                        let c = push_node(&mut nodes, name);
                        nodes[parent].children.push(c);
                        c
                    }
                }
            }
            None => {
                // A root scope: reuse an existing root of the same name.
                let mut claimed = vec![false; nodes.len()];
                for node in nodes.iter() {
                    for &c in &node.children {
                        if let Some(slot) = claimed.get_mut(c) {
                            *slot = true;
                        }
                    }
                }
                let found = (0..nodes.len()).find(|&i| !claimed[i] && nodes[i].name == name);
                match found {
                    Some(i) => i,
                    None => push_node(&mut nodes, name),
                }
            }
        };
        stack.push(idx);
        idx
    }

    /// Closes the span for `node`: folds the measurement into the tree and
    /// pops the stack (defensively, in case guards were dropped out of
    /// order).
    fn exit(&self, node: usize, wall_ns: u64) {
        if let Ok(mut nodes) = self.nodes.try_borrow_mut() {
            if let Some(raw) = nodes.get_mut(node) {
                raw.calls += 1;
                raw.wall_ns = raw.wall_ns.saturating_add(wall_ns);
            }
        }
        if let Ok(mut stack) = self.stack.try_borrow_mut() {
            if stack.last() == Some(&node) {
                stack.pop();
            } else if let Some(pos) = stack.iter().rposition(|&i| i == node) {
                stack.remove(pos);
            }
        }
        if self.events_cap > 0 {
            if let Ok(mut events) = self.events.try_borrow_mut() {
                if events.len() < self.events_cap {
                    if let Some(name) = self.name_of(node) {
                        events.push(TraceEvent {
                            name,
                            dur_ns: wall_ns,
                        });
                    }
                }
            }
        }
    }

    fn name_of(&self, node: usize) -> Option<&'static str> {
        self.nodes.try_borrow().ok()?.get(node).map(|n| n.name)
    }
}

fn push_node(nodes: &mut Vec<RawNode>, name: &'static str) -> usize {
    nodes.push(RawNode {
        name,
        children: Vec::new(),
        calls: 0,
        wall_ns: 0,
    });
    nodes.len() - 1
}

fn saturating_ns(d: std::time::Duration) -> u64 {
    u64::try_from(d.as_nanos()).unwrap_or(u64::MAX)
}

/// Recursively freezes arena node `i` into an owned [`ProfNode`].
fn freeze(nodes: &[RawNode], i: usize) -> ProfNode {
    let raw = &nodes[i];
    let mut children: Vec<ProfNode> = raw.children.iter().map(|&c| freeze(nodes, c)).collect();
    children.sort_by(|a, b| a.name.cmp(&b.name));
    ProfNode {
        name: raw.name.to_owned(),
        calls: raw.calls,
        wall_ns: raw.wall_ns,
        children,
    }
}

/// The measurement context a live [`ProfSpan`] carries to its drop.
struct SpanCtx {
    inner: Rc<ProfInner>,
    node: usize,
    start: Instant,
}

/// RAII guard for one profiled scope; the measured interval ends when the
/// guard drops. Obtained from [`Profiler::scope`].
#[must_use = "the guard measures until dropped; binding it to `_` drops immediately"]
pub struct ProfSpan {
    ctx: Option<SpanCtx>,
}

impl std::fmt::Debug for ProfSpan {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ProfSpan")
            .field("armed", &self.ctx.is_some())
            .finish()
    }
}

impl Drop for ProfSpan {
    fn drop(&mut self) {
        if let Some(ctx) = self.ctx.take() {
            let wall_ns = saturating_ns(ctx.start.elapsed());
            ctx.inner.exit(ctx.node, wall_ns);
        }
    }
}

/// One aggregated node of a frozen span tree: a span name plus everything
/// measured under that call path.
///
/// `calls` (and the tree shape itself) are deterministic — pure functions
/// of the simulated execution path; `wall_ns` is the one machine-dependent
/// field.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ProfNode {
    /// Span name.
    pub name: String,
    /// Number of completed scopes at this call path.
    pub calls: u64,
    /// Total wall time (machine-dependent), nanoseconds.
    pub wall_ns: u64,
    /// Child nodes, sorted by name.
    pub children: Vec<ProfNode>,
}

/// A frozen, thread-independent span tree (the `Send` product of a
/// per-thread [`Profiler`]).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ProfTree {
    /// Top-level spans, sorted by name.
    pub roots: Vec<ProfNode>,
}

impl ProfTree {
    /// Number of nodes in the tree.
    pub fn node_count(&self) -> usize {
        fn count(node: &ProfNode) -> usize {
            1 + node.children.iter().map(count).sum::<usize>()
        }
        self.roots.iter().map(count).sum()
    }
}

/// A fenced wall-clock stopwatch for coarse phase timing (wave walls,
/// progress ETAs). Lives here so ambient time stays confined to this
/// module; like all profiler output, its readings must never feed a
/// deterministic artifact.
#[derive(Debug, Clone, Copy)]
pub struct Stopwatch {
    start: Instant,
}

impl Stopwatch {
    /// Starts the clock.
    #[allow(clippy::new_without_default)] // a stopwatch has no meaningful default
    pub fn new() -> Stopwatch {
        Stopwatch {
            start: Instant::now(),
        }
    }

    /// Nanoseconds since [`Self::new`].
    pub fn elapsed_ns(&self) -> u64 {
        saturating_ns(self.start.elapsed())
    }

    /// Seconds since [`Self::new`].
    pub fn elapsed_secs(&self) -> f64 {
        self.start.elapsed().as_secs_f64()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_profiler_is_inert() {
        let prof = Profiler::disabled();
        assert!(!prof.is_enabled());
        let _span = prof.scope("day");
        assert!(prof.tree().roots.is_empty());
        assert!(prof.take_events().is_empty());
    }

    #[test]
    fn nesting_builds_the_expected_tree() {
        let prof = Profiler::enabled();
        {
            let _day = prof.scope("day");
            for _ in 0..3 {
                let _tpr = prof.scope("tpr");
            }
            let _track = prof.scope("track");
        }
        {
            let _day = prof.scope("day");
            let _track = prof.scope("track");
        }
        let tree = prof.tree();
        assert_eq!(tree.roots.len(), 1);
        let day = &tree.roots[0];
        assert_eq!(day.name, "day");
        assert_eq!(day.calls, 2);
        // Children sorted by name: tpr < track.
        let names: Vec<&str> = day.children.iter().map(|c| c.name.as_str()).collect();
        assert_eq!(names, vec!["tpr", "track"]);
        assert_eq!(day.children[0].calls, 3);
        assert_eq!(day.children[1].calls, 2);
        assert!(day.wall_ns >= day.children.iter().map(|c| c.wall_ns).sum::<u64>());
    }

    #[test]
    fn clones_share_one_tree() {
        let prof = Profiler::enabled();
        let alias = prof.clone();
        {
            let _a = prof.scope("day");
            let _b = alias.scope("inner");
        }
        let tree = alias.tree();
        assert_eq!(tree.roots.len(), 1);
        assert_eq!(tree.roots[0].children[0].name, "inner");
    }

    #[test]
    fn trace_log_captures_bounded_events() {
        let prof = Profiler::with_trace_log(3);
        for _ in 0..5 {
            let _s = prof.scope("step");
        }
        let events = prof.take_events();
        assert_eq!(events.len(), 3, "capacity bounds the log");
        assert!(events.iter().all(|e| e.name == "step"));
        assert!(prof.take_events().is_empty(), "take drains");
    }

    #[test]
    fn nested_trace_events_come_back_in_completion_order() {
        let prof = Profiler::with_trace_log(8);
        {
            let _outer = prof.scope("outer");
            let _inner = prof.scope("inner");
        }
        let events = prof.take_events();
        // Inner completes first, inside the outer interval.
        assert_eq!(events[0].name, "inner");
        assert_eq!(events[1].name, "outer");
        assert!(events[1].dur_ns >= events[0].dur_ns);
    }

    #[test]
    fn stopwatch_is_monotonic() {
        let sw = Stopwatch::new();
        let first = sw.elapsed_ns();
        let second = sw.elapsed_ns();
        assert!(second >= first);
        assert!(sw.elapsed_secs() >= 0.0);
    }
}
