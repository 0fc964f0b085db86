//! Zero-dependency structured telemetry for the SolarCore control loop.
//!
//! The paper evaluates SolarCore by *introspecting* its MPPT control loop —
//! per-period tracking error (Table 7), transfer-ratio/load trajectories
//! (Figs. 13–14), per-core V/F allocation histories (Fig. 21) — and this
//! crate is the substrate that makes those observations first-class instead
//! of opaque end-of-run aggregates. It provides:
//!
//! * [`Record`]s — [`Event`]s and [`Span`]s with typed [`Field`]s, plus
//!   snapshots of [`Counter`]s and fixed-bucket [`Histogram`]s;
//! * a pluggable [`Sink`] trait with five implementations: [`NullSink`]
//!   (benches), [`JsonlSink`] (runs, byte-deterministic JSON Lines),
//!   [`RingSink`] (bounded in-memory collector keeping the most recent
//!   records), [`AggregatingSink`] (order-insensitive roll-ups for
//!   `results/`) and [`MetricFold`] (constant-memory streaming aggregation
//!   for sharded campaigns);
//! * a cheap, cloneable [`Telemetry`] handle that stamps every record with
//!   the **simulation clock** (minute-of-day) and a monotonic sequence
//!   number. Ambient time is confined to exactly one module — the
//!   wall-clock [`prof`]iler, which is fenced so nothing it measures can
//!   flow into a record, a digest, or any simulated value — so instrumented
//!   simulations stay bitwise deterministic (the PR-2 contract);
//!   the root `clippy.toml` disallows `Instant::now` everywhere else (the
//!   sole waiver is the module-level `#![expect]` in `prof.rs`);
//! * a hierarchical wall-clock [`Profiler`] ([`prof`]): scoped [`ProfSpan`]
//!   guards aggregate into a per-thread span tree ([`ProfTree`]) whose
//!   *structure* (shape, call counts) is deterministic while wall times
//!   stay quarantined as machine-dependent.
//!
//! The concrete schema emitted by the simulation engine (record names,
//! field names, units) is documented in `solarcore::telemetry::schema` and
//! DESIGN.md §14; this crate only fixes the *envelope* (record shapes and
//! their JSON Lines encoding).
//!
//! # Quick start
//!
//! ```
//! use telemetry::{field, JsonlSink, Telemetry};
//! use std::cell::RefCell;
//! use std::rc::Rc;
//!
//! let sink = Rc::new(RefCell::new(JsonlSink::new()));
//! let tel = Telemetry::attached(sink.clone());
//! tel.set_minute(450); // 07:30, sim clock — never wall clock
//! tel.event("minute", vec![field("budget_w", 123.5), field("source", "solar")])?;
//! tel.flush()?;
//! let line = sink.borrow().buffer().to_owned();
//! assert_eq!(
//!     line,
//!     "{\"t\":\"event\",\"name\":\"minute\",\"minute\":450,\"seq\":0,\
//!      \"fields\":{\"budget_w\":123.5,\"source\":\"solar\"}}\n"
//! );
//!
//! // A disabled handle is a no-op: same call sites, zero records.
//! let off = Telemetry::disabled();
//! off.event("minute", vec![field("budget_w", 0.0)])?;
//! assert!(!off.is_enabled());
//! # Ok::<(), telemetry::SinkError>(())
//! ```
//!
//! ## Error policy
//!
//! Every emission path returns `Result<(), SinkError>` and call sites must
//! propagate — the crate `forbid`s `unwrap`/`expect`/`panic!`, so an
//! `#[allow]` waiver is itself a compile error and there is no way to
//! smuggle a panic into the telemetry path of a production run.
#![warn(missing_docs)]
#![cfg_attr(
    not(test),
    forbid(clippy::unwrap_used, clippy::expect_used, clippy::panic),
    deny(clippy::let_underscore_must_use, clippy::unused_result_ok)
)]
#![cfg_attr(test, allow(clippy::float_cmp))] // unit tests assert exact constructed values

pub mod fold;
pub mod handle;
pub mod metrics;
pub mod prof;
pub mod record;
pub mod sink;
pub mod value;

pub use fold::MetricFold;
pub use handle::Telemetry;
pub use metrics::{quantile_from_buckets, Counter, Histogram};
pub use prof::{ProfNode, ProfSpan, ProfTree, Profiler, Stopwatch, TraceEvent};
pub use record::{CounterSnapshot, Event, HistogramSnapshot, Record, Span};
pub use sink::{AggregatingSink, JsonlSink, NullSink, RingSink, Sink, SinkError};
pub use value::{field, Field, Value};
