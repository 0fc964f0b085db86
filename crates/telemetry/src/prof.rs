//! Hierarchical wall-clock profiler, strictly fenced from the
//! deterministic telemetry path.
//!
//! Everything else in this crate runs on the **simulation clock**; this
//! module is the one sanctioned home of ambient time (`std::time::Instant`,
//! disallowed by the root `clippy.toml` everywhere else and waived by the
//! module-level `#![expect]` below).
//! The fence is directional: the profiler *reads* the sim clock (via
//! [`Profiler::set_minute`]) to attribute wall time to simulated time, but
//! nothing ever flows back — no simulated value, no record, no digest input
//! depends on a measurement taken here. `bench/tests/determinism.rs` proves
//! the pinned day hash is bit-identical with profiling armed.
//!
//! # Model
//!
//! A [`Profiler`] handle (cheap to clone, `Rc`-shared like
//! [`Telemetry`](crate::Telemetry)) owns one span **stack** and one span
//! **tree**. Entering a scope ([`Profiler::scope`]) pushes a frame and
//! returns a [`ProfSpan`] guard; dropping the guard pops the frame and
//! folds the measured interval into the tree node for that call path.
//! Handles are `!Send`, so every thread profiles into its own tree with no
//! locks anywhere — aggregation across threads happens after the fact by
//! [`ProfTree::merge`], which is associative and keyed on span names, so
//! the merged *structure* (shape, call counts, sim-minute attribution) is
//! identical at any thread count; only the wall-clock numbers are
//! machine-dependent.
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

use std::cell::{Cell, RefCell};
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
    sim_minutes: u64,
}

/// A captured span interval for the Chrome trace-event export. Only
/// recorded when the profiler was built with [`Profiler::with_trace_log`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceEvent {
    /// Span name (a `schema::PROF_*` constant at real call sites).
    pub name: &'static str,
    /// Nanoseconds from the profiler's epoch to span entry.
    pub start_ns: u64,
    /// Measured span duration, nanoseconds.
    pub dur_ns: u64,
    /// Simulation minute-of-day when the span opened.
    pub minute: u32,
    /// Stack depth at entry (0 = a root span).
    pub depth: u32,
}

/// Shared state behind an enabled [`Profiler`] handle.
struct ProfInner {
    epoch: Instant,
    nodes: RefCell<Vec<RawNode>>,
    /// Arena indices of the currently-open spans, outermost first.
    stack: RefCell<Vec<usize>>,
    minute: Cell<u32>,
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
    /// intervals for the Chrome trace-event export. `0` disables capture.
    pub fn with_trace_log(cap: usize) -> Profiler {
        Profiler {
            inner: Some(Rc::new(ProfInner {
                epoch: Instant::now(),
                nodes: RefCell::new(Vec::new()),
                stack: RefCell::new(Vec::new()),
                minute: Cell::new(0),
                events: RefCell::new(Vec::new()),
                events_cap: cap,
            })),
        }
    }

    /// `true` when scopes actually measure.
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// Advances the simulation clock used for sim-time attribution.
    /// Call sites feed this the same minute-of-day they feed
    /// [`Telemetry::set_minute`](crate::Telemetry::set_minute).
    pub fn set_minute(&self, minute: u32) {
        if let Some(inner) = &self.inner {
            inner.minute.set(minute);
        }
    }

    /// The last simulation minute fed to [`Self::set_minute`].
    pub fn minute(&self) -> u32 {
        self.inner.as_ref().map_or(0, |i| i.minute.get())
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
                start_minute: inner.minute.get(),
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
    fn exit(&self, node: usize, wall_ns: u64, start_minute: u32, start: Instant) {
        if let Ok(mut nodes) = self.nodes.try_borrow_mut() {
            if let Some(raw) = nodes.get_mut(node) {
                raw.calls += 1;
                raw.wall_ns = raw.wall_ns.saturating_add(wall_ns);
                raw.sim_minutes = raw
                    .sim_minutes
                    .saturating_add(u64::from(self.minute.get().saturating_sub(start_minute)));
            }
        }
        let depth = match self.stack.try_borrow_mut() {
            Ok(mut stack) => {
                let depth = stack.len().saturating_sub(1);
                if stack.last() == Some(&node) {
                    stack.pop();
                } else if let Some(pos) = stack.iter().rposition(|&i| i == node) {
                    stack.remove(pos);
                }
                depth
            }
            Err(_) => 0,
        };
        if self.events_cap > 0 {
            if let Ok(mut events) = self.events.try_borrow_mut() {
                if events.len() < self.events_cap {
                    if let Some(raw_name) = self.name_of(node) {
                        let start_ns = saturating_ns(start.duration_since(self.epoch));
                        events.push(TraceEvent {
                            name: raw_name,
                            start_ns,
                            dur_ns: wall_ns,
                            minute: start_minute,
                            #[allow(clippy::cast_possible_truncation)] // stack depth is tiny
                            depth: depth as u32,
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
        sim_minutes: 0,
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
        sim_minutes: raw.sim_minutes,
        children,
    }
}

/// The measurement context a live [`ProfSpan`] carries to its drop.
struct SpanCtx {
    inner: Rc<ProfInner>,
    node: usize,
    start: Instant,
    start_minute: u32,
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
            ctx.inner.exit(ctx.node, wall_ns, ctx.start_minute, ctx.start);
        }
    }
}

/// One aggregated node of a frozen span tree: a span name plus everything
/// measured under that call path.
///
/// `calls` and `sim_minutes` (and the tree shape itself) are deterministic
/// — pure functions of the simulated execution path; `wall_ns` is the one
/// machine-dependent field, which exporters quarantine accordingly.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ProfNode {
    /// Span name.
    pub name: String,
    /// Number of completed scopes at this call path.
    pub calls: u64,
    /// Total wall time (machine-dependent), nanoseconds.
    pub wall_ns: u64,
    /// Simulation minutes elapsed while spans at this path were open.
    pub sim_minutes: u64,
    /// Child nodes, sorted by name.
    pub children: Vec<ProfNode>,
}

impl ProfNode {
    /// Wall time spent in this node itself, excluding children
    /// (saturating: concurrent child overlap cannot go negative).
    pub fn self_ns(&self) -> u64 {
        let children: u64 = self.children.iter().map(|c| c.wall_ns).sum();
        self.wall_ns.saturating_sub(children)
    }

    fn merge_from(&mut self, other: &ProfNode) {
        self.calls += other.calls;
        self.wall_ns = self.wall_ns.saturating_add(other.wall_ns);
        self.sim_minutes = self.sim_minutes.saturating_add(other.sim_minutes);
        merge_children(&mut self.children, &other.children);
    }
}

/// Merges `theirs` into `ours`, both sorted by name; the result stays
/// sorted.
fn merge_children(ours: &mut Vec<ProfNode>, theirs: &[ProfNode]) {
    for node in theirs {
        match ours.binary_search_by(|probe| probe.name.as_str().cmp(node.name.as_str())) {
            Ok(i) => ours[i].merge_from(node),
            Err(i) => ours.insert(i, node.clone()),
        }
    }
}

/// A frozen, thread-independent span tree (the `Send` product of a
/// per-thread [`Profiler`]).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ProfTree {
    /// Top-level spans, sorted by name.
    pub roots: Vec<ProfNode>,
}

impl ProfTree {
    /// Folds another tree into this one, node by matching call path.
    /// Associative and commutative up to the canonical name ordering, so
    /// shard trees merged in any grouping produce the same structure.
    pub fn merge(&mut self, other: &ProfTree) {
        merge_children(&mut self.roots, &other.roots);
    }

    /// Total wall time across the top-level spans, nanoseconds.
    pub fn total_wall_ns(&self) -> u64 {
        self.roots.iter().map(|r| r.wall_ns).sum()
    }

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
        prof.set_minute(300);
        assert_eq!(prof.minute(), 0);
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
        assert_eq!(day.self_ns(), day.wall_ns - day.children[0].wall_ns - day.children[1].wall_ns);
    }

    #[test]
    fn sim_minute_attribution_tracks_set_minute() {
        let prof = Profiler::enabled();
        prof.set_minute(100);
        {
            let _day = prof.scope("day");
            prof.set_minute(160);
        }
        assert_eq!(prof.minute(), 160);
        let tree = prof.tree();
        assert_eq!(tree.roots[0].sim_minutes, 60);
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
    fn merge_is_order_insensitive() {
        let build = |calls: u64| {
            let prof = Profiler::enabled();
            for _ in 0..calls {
                let _s = prof.scope("shard");
                let _t = prof.scope("day");
            }
            prof.tree()
        };
        let a = build(2);
        let b = build(5);
        let mut ab = a.clone();
        ab.merge(&b);
        let mut ba = b.clone();
        ba.merge(&a);
        assert_eq!(ab.roots[0].calls, 7);
        assert_eq!(ab.roots[0].children[0].calls, 7);
        // Structure and deterministic fields agree in both merge orders.
        fn strip(node: &ProfNode) -> (String, u64, u64, Vec<(String, u64, u64)>) {
            (
                node.name.clone(),
                node.calls,
                node.sim_minutes,
                node.children
                    .iter()
                    .map(|c| (c.name.clone(), c.calls, c.sim_minutes))
                    .collect(),
            )
        }
        assert_eq!(strip(&ab.roots[0]), strip(&ba.roots[0]));
        assert_eq!(ab.node_count(), 2);
    }

    #[test]
    fn trace_log_captures_bounded_events() {
        let prof = Profiler::with_trace_log(3);
        prof.set_minute(420);
        for _ in 0..5 {
            let _s = prof.scope("step");
        }
        let events = prof.take_events();
        assert_eq!(events.len(), 3, "capacity bounds the log");
        assert!(events.iter().all(|e| e.name == "step" && e.minute == 420 && e.depth == 0));
        assert!(prof.take_events().is_empty(), "take drains");
    }

    #[test]
    fn nested_trace_events_record_depth() {
        let prof = Profiler::with_trace_log(8);
        {
            let _outer = prof.scope("outer");
            let _inner = prof.scope("inner");
        }
        let events = prof.take_events();
        // Inner completes first.
        assert_eq!(events[0].name, "inner");
        assert_eq!(events[0].depth, 1);
        assert_eq!(events[1].name, "outer");
        assert_eq!(events[1].depth, 0);
        assert!(events[1].start_ns <= events[0].start_ns);
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
