//! Profile exporters and campaign wall-clock analysis.
//!
//! The profiler itself lives in [`telemetry::prof`]; this module turns its
//! span trees into artifacts:
//!
//! * **collapsed-stack** lines (`a;b;c <self_ns>` — the flamegraph input
//!   format), with a parser so tests can prove the export round-trips;
//! * **Chrome trace-event JSON** (`chrome://tracing` / Perfetto) from a
//!   profiler's raw [`TraceEvent`] log;
//! * the **`results/profile_report.json`** document: a *structural*
//!   section (tree shape, call counts, sim-minute attribution — byte-stable
//!   across machines and thread counts, the part `tdiff` and the golden
//!   render test pin) and a *machine* section quarantining everything
//!   wall-clock (span times, per-wave walls, pool utilization, critical
//!   path), mirroring the campaign report's `scaling`-section precedent.

use telemetry::prof::{ProfNode, ProfTree, TraceEvent};

use crate::output::Json;

/// Exact for every realistic duration/count (|n| ≤ 2^53 ns ≈ 104 days).
#[allow(clippy::cast_precision_loss)]
fn num_u64(n: u64) -> Json {
    debug_assert!(n < (1 << 53));
    Json::Num(n as f64)
}

// ---- collapsed-stack (flamegraph) export --------------------------------

/// One node of a collapsed-stack value tree: a frame name, the *self*
/// value attributed to exactly this call path, and name-sorted children.
/// [`stack_of`] derives one from a [`ProfTree`] (self wall nanoseconds);
/// [`parse_collapsed`] rebuilds one from exported lines.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StackNode {
    /// Frame name (no `;`, spaces or newlines — enforced by the parser).
    pub name: String,
    /// Value attributed to this exact path (not including children).
    pub value: u64,
    /// Child frames, sorted by name.
    pub children: Vec<StackNode>,
}

/// Converts a span tree into a collapsed-stack value tree over **self**
/// wall time (`wall_ns` minus children — the flamegraph convention, where
/// a frame's total is implied by the sum over its subtree).
pub fn stack_of(tree: &ProfTree) -> Vec<StackNode> {
    fn conv(node: &ProfNode) -> StackNode {
        StackNode {
            name: node.name.clone(),
            value: node.self_ns(),
            children: node.children.iter().map(conv).collect(),
        }
    }
    tree.roots.iter().map(conv).collect()
}

/// Renders a collapsed-stack tree as flamegraph input lines
/// (`frame;frame;frame value`). A line is emitted for every node with a
/// non-zero self value and for every leaf (so zero-valued leaves survive
/// the round-trip); interior nodes whose self value is zero appear only as
/// path prefixes. Lines come out in depth-first name order.
pub fn collapse_lines(roots: &[StackNode]) -> Vec<String> {
    fn walk(node: &StackNode, prefix: &str, out: &mut Vec<String>) {
        let path = if prefix.is_empty() {
            node.name.clone()
        } else {
            format!("{prefix};{}", node.name)
        };
        if node.value > 0 || node.children.is_empty() {
            out.push(format!("{path} {}", node.value));
        }
        for child in &node.children {
            walk(child, &path, out);
        }
    }
    let mut out = Vec::new();
    for root in roots {
        walk(root, "", &mut out);
    }
    out
}

/// Parses collapsed-stack lines back into the value tree
/// ([`collapse_lines`]'s inverse: export → parse is the identity, which
/// `bench/tests/profile.rs` property-tests). Repeated paths accumulate,
/// the flamegraph convention.
///
/// # Errors
///
/// Malformed lines: no value field, a non-integer value, or an empty
/// frame name.
pub fn parse_collapsed<S: AsRef<str>>(lines: &[S]) -> Result<Vec<StackNode>, String> {
    let mut roots: Vec<StackNode> = Vec::new();
    for (i, line) in lines.iter().enumerate() {
        let line = line.as_ref();
        if line.trim().is_empty() {
            continue;
        }
        let (path, value) = line
            .rsplit_once(' ')
            .ok_or_else(|| format!("line {}: missing value field", i + 1))?;
        let value: u64 = value
            .trim()
            .parse()
            .map_err(|_| format!("line {}: bad value `{value}`", i + 1))?;
        let frames: Vec<&str> = path.split(';').collect();
        if frames.iter().any(|f| f.is_empty()) {
            return Err(format!("line {}: empty frame name", i + 1));
        }
        insert_path(&mut roots, &frames, value);
    }
    Ok(roots)
}

/// Adds `value` at `frames` (non-empty), creating nodes along the path and
/// keeping every sibling list sorted by name.
fn insert_path(level: &mut Vec<StackNode>, frames: &[&str], value: u64) {
    let Some((first, rest)) = frames.split_first() else {
        return;
    };
    let idx = match level.binary_search_by(|n| n.name.as_str().cmp(first)) {
        Ok(idx) => idx,
        Err(idx) => {
            level.insert(
                idx,
                StackNode {
                    name: (*first).to_owned(),
                    value: 0,
                    children: Vec::new(),
                },
            );
            idx
        }
    };
    if rest.is_empty() {
        level[idx].value = level[idx].value.saturating_add(value);
    } else {
        insert_path(&mut level[idx].children, rest, value);
    }
}

// ---- Chrome trace-event export -----------------------------------------

/// Renders a profiler's raw span log as a Chrome trace-event document
/// (the `chrome://tracing` / Perfetto JSON format: one complete `"X"`
/// event per span, microsecond timestamps, with the simulation minute and
/// stack depth carried in `args`).
pub fn chrome_trace(events: &[TraceEvent]) -> Json {
    let trace_events = events
        .iter()
        .map(|e| {
            Json::obj(vec![
                ("name", Json::str(e.name)),
                ("cat", Json::str("solarcore")),
                ("ph", Json::str("X")),
                ("ts", Json::Num(ns_to_us(e.start_ns))),
                ("dur", Json::Num(ns_to_us(e.dur_ns))),
                ("pid", Json::int(0)),
                ("tid", Json::int(0)),
                (
                    "args",
                    Json::obj(vec![
                        ("minute", Json::int(e.minute as usize)),
                        ("depth", Json::int(e.depth as usize)),
                    ]),
                ),
            ])
        })
        .collect();
    Json::obj(vec![
        ("displayTimeUnit", Json::str("ms")),
        ("traceEvents", Json::Arr(trace_events)),
    ])
}

/// Trace-event timestamps are microseconds by convention.
#[allow(clippy::cast_precision_loss)]
fn ns_to_us(ns: u64) -> f64 {
    ns as f64 / 1000.0
}

// ---- report sections ----------------------------------------------------

/// The **deterministic** half of a profile report: tree shape, call
/// counts and sim-minute attribution only — no wall-clock field anywhere,
/// so the rendered section is byte-identical across machines and thread
/// counts (`bench/tests/profile.rs` renders it twice to prove it).
pub fn structural_json(tree: &ProfTree) -> Json {
    fn node_json(node: &ProfNode) -> Json {
        Json::obj(vec![
            ("name", Json::str(node.name.as_str())),
            ("calls", num_u64(node.calls)),
            ("sim_minutes", num_u64(node.sim_minutes)),
            ("children", Json::Arr(node.children.iter().map(node_json).collect())),
        ])
    }
    Json::obj(vec![
        ("node_count", Json::int(tree.node_count())),
        ("spans", Json::Arr(tree.roots.iter().map(node_json).collect())),
    ])
}

/// The wall-time tree for the **machine-dependent** report section:
/// total and self nanoseconds per call path.
pub fn wall_json(tree: &ProfTree) -> Json {
    fn node_json(node: &ProfNode) -> Json {
        Json::obj(vec![
            ("name", Json::str(node.name.as_str())),
            ("wall_ns", num_u64(node.wall_ns)),
            ("self_ns", num_u64(node.self_ns())),
            ("children", Json::Arr(node.children.iter().map(node_json).collect())),
        ])
    }
    Json::Arr(tree.roots.iter().map(node_json).collect())
}

// ---- campaign wall-clock analysis --------------------------------------

/// Wall-clock measurements of one campaign wave (a `checkpoint_every`
/// batch of shards dispatched to the worker pool together).
#[derive(Debug, Clone, Copy)]
pub struct WaveWall {
    /// Shards the wave executed.
    pub shards: usize,
    /// Wall time of the whole wave (dispatch to last join), nanoseconds.
    pub wall_ns: u64,
    /// Sum of the wave's per-shard wall times, nanoseconds.
    pub sum_shard_ns: u64,
    /// The slowest shard of the wave, nanoseconds.
    pub max_shard_ns: u64,
}

/// Wall-clock profile of one campaign invocation: the merged span tree
/// plus per-shard and per-wave timings. Collected only when
/// [`RunOptions::profile`](crate::campaign::RunOptions) is set; lives
/// **outside** the deterministic report document
/// ([`CampaignOutcome::report_json`](crate::campaign::CampaignOutcome::report_json)
/// never reads it).
#[derive(Debug, Clone, Default)]
pub struct CampaignProfile {
    /// Per-shard span trees merged in canonical shard order.
    pub tree: ProfTree,
    /// `(shard index, wall ns)` for every shard this invocation executed.
    pub shard_walls: Vec<(usize, u64)>,
    /// Per-wave wall measurements, in execution order.
    pub waves: Vec<WaveWall>,
    /// Worker threads the pool ran with.
    pub threads: usize,
}

impl CampaignProfile {
    /// Total wall time across all waves, nanoseconds.
    pub fn total_wall_ns(&self) -> u64 {
        self.waves.iter().map(|w| w.wall_ns).sum()
    }

    /// Worker-pool utilization: shard work performed over pool capacity
    /// (`Σ shard walls / (threads × Σ wave walls)`). 1.0 = every worker
    /// busy for every wave; low values mean stragglers serialized waves.
    #[allow(clippy::cast_precision_loss)]
    pub fn pool_utilization(&self) -> f64 {
        let capacity = (self.threads.max(1) as u64).saturating_mul(self.total_wall_ns());
        if capacity == 0 {
            return 0.0;
        }
        let work: u64 = self.waves.iter().map(|w| w.sum_shard_ns).sum();
        work as f64 / capacity as f64
    }

    /// The campaign's critical path: the sum over waves of each wave's
    /// slowest shard — the floor any thread count must pay, since waves
    /// are barriers (the checkpoint writes between them).
    pub fn critical_path_ns(&self) -> u64 {
        self.waves.iter().map(|w| w.max_shard_ns).sum()
    }

    /// The machine-dependent report section: wall-time tree, flamegraph
    /// lines, per-wave timings and the pool analysis. Everything in here
    /// varies run to run; nothing in it is digest-relevant.
    pub fn machine_json(&self) -> Json {
        let waves = self
            .waves
            .iter()
            .map(|w| {
                Json::obj(vec![
                    ("shards", Json::int(w.shards)),
                    ("wall_ns", num_u64(w.wall_ns)),
                    ("sum_shard_ns", num_u64(w.sum_shard_ns)),
                    ("max_shard_ns", num_u64(w.max_shard_ns)),
                ])
            })
            .collect();
        let flame = collapse_lines(&stack_of(&self.tree))
            .into_iter()
            .map(Json::Str)
            .collect();
        Json::obj(vec![
            ("threads", Json::int(self.threads)),
            ("total_wall_ns", num_u64(self.total_wall_ns())),
            ("pool_utilization", Json::Num(self.pool_utilization())),
            ("critical_path_ns", num_u64(self.critical_path_ns())),
            ("waves", Json::Arr(waves)),
            ("wall_spans", wall_json(&self.tree)),
            ("flamegraph", Json::Arr(flame)),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use telemetry::prof::Profiler;

    fn sample_tree() -> ProfTree {
        let prof = Profiler::enabled();
        {
            let _shard = prof.scope("shard");
            {
                let _day = prof.scope("run_day");
                let _t = prof.scope("mppt_track");
            }
            let _day2 = prof.scope("run_day");
        }
        prof.tree()
    }

    #[test]
    fn collapse_round_trips_a_real_tree() {
        let stacks = stack_of(&sample_tree());
        let lines = collapse_lines(&stacks);
        assert!(lines.iter().any(|l| l.starts_with("shard;run_day;mppt_track ")));
        let parsed = parse_collapsed(&lines).unwrap();
        assert_eq!(parsed, stacks);
    }

    #[test]
    fn zero_valued_interior_nodes_survive_as_prefixes() {
        let roots = vec![StackNode {
            name: "a".into(),
            value: 0,
            children: vec![StackNode {
                name: "b".into(),
                value: 0,
                children: Vec::new(),
            }],
        }];
        let lines = collapse_lines(&roots);
        assert_eq!(lines, vec!["a;b 0"]);
        assert_eq!(parse_collapsed(&lines).unwrap(), roots);
    }

    #[test]
    fn parser_rejects_malformed_lines() {
        assert!(parse_collapsed(&["no_value"]).is_err());
        assert!(parse_collapsed(&["a;b notanum"]).is_err());
        assert!(parse_collapsed(&["a;;b 3"]).is_err());
        assert!(parse_collapsed(&[" 3"]).is_err());
        let ok = parse_collapsed(&["a;b 3", "", "a;b 4"]).unwrap();
        assert_eq!(ok[0].children[0].value, 7, "repeated paths accumulate");
    }

    #[test]
    fn structural_section_has_no_wall_fields() {
        let doc = structural_json(&sample_tree()).render();
        assert!(doc.contains("\"calls\""));
        assert!(doc.contains("\"sim_minutes\""));
        assert!(
            !doc.contains("_ns") && !doc.contains("wall"),
            "no wall-clock field may leak: {doc}"
        );
    }

    #[test]
    fn chrome_trace_shape() {
        let prof = Profiler::with_trace_log(16);
        {
            let _s = prof.scope("run_day");
        }
        let doc = chrome_trace(&prof.take_events()).render();
        let v = Json::parse(&doc).unwrap();
        let events = v["traceEvents"].as_array().unwrap();
        assert_eq!(events.len(), 1);
        assert_eq!(events[0]["ph"].as_str(), Some("X"));
        assert_eq!(events[0]["name"].as_str(), Some("run_day"));
        assert!(events[0]["args"]["depth"].as_u64().is_some());
    }

    #[test]
    fn pool_analysis_arithmetic() {
        let profile = CampaignProfile {
            tree: ProfTree::default(),
            shard_walls: vec![(0, 100), (1, 300), (2, 200), (3, 200)],
            waves: vec![
                WaveWall { shards: 2, wall_ns: 300, sum_shard_ns: 400, max_shard_ns: 300 },
                WaveWall { shards: 2, wall_ns: 200, sum_shard_ns: 400, max_shard_ns: 200 },
            ],
            threads: 2,
        };
        assert_eq!(profile.total_wall_ns(), 500);
        assert_eq!(profile.critical_path_ns(), 500);
        assert!((profile.pool_utilization() - 0.8).abs() < 1e-12);
        let machine = profile.machine_json().render();
        assert!(machine.contains("pool_utilization"));
        let empty = CampaignProfile::default();
        assert_eq!(empty.pool_utilization(), 0.0);
    }
}
