//! Pluggable sinks: where a telemetry stream goes.
//!
//! | Sink | Purpose |
//! |------|---------|
//! | [`NullSink`] | benches — proves instrumentation overhead is noise |
//! | [`JsonlSink`] | runs — byte-deterministic JSON Lines into memory |
//! | [`RingSink`] | bounded in-memory collector (most recent N records) |
//! | [`AggregatingSink`] | order-insensitive roll-ups for `results/` |
//!
//! All sinks are in-memory; persistence is the caller's job (e.g.
//! `trace_report` writes a [`JsonlSink`] buffer to
//! `results/telemetry_golden_co_jan_hm2.jsonl`). That keeps the sink trait
//! infallible in practice while the `Result` signature still forces every
//! call site to propagate — the crate `forbid`s `unwrap`/`expect`/`panic!`
//! outside tests, so no waiver can opt out of that contract.

use crate::record::{Event, Record, Span};
use crate::value::{Field, Value};
use std::collections::VecDeque;
use std::fmt;

/// Why a sink refused a record.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub enum SinkError {
    /// The same metric name was re-registered with a different shape
    /// (e.g. histogram bucket layouts differ between merges).
    SchemaMismatch {
        /// The offending metric name.
        name: &'static str,
    },
    /// The sink was explicitly closed and cannot accept more records.
    Closed,
}

impl fmt::Display for SinkError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::SchemaMismatch { name } => {
                write!(f, "telemetry schema mismatch for metric `{name}`")
            }
            Self::Closed => write!(f, "telemetry sink is closed"),
        }
    }
}

impl std::error::Error for SinkError {}

/// Destination for a telemetry stream.
///
/// Implementations must be order-preserving (a JSONL stream's byte
/// determinism depends on it) and must not consult ambient time or entropy.
pub trait Sink {
    /// Accepts one record.
    fn record(&mut self, record: &Record) -> Result<(), SinkError>;

    /// Flushes buffered state; default is a no-op.
    fn flush(&mut self) -> Result<(), SinkError> {
        Ok(())
    }
}

/// Discards everything. Used by benches to measure instrumentation
/// overhead with the emission path fully exercised.
#[derive(Debug, Clone, Copy, Default)]
pub struct NullSink;

impl Sink for NullSink {
    fn record(&mut self, _record: &Record) -> Result<(), SinkError> {
        Ok(())
    }
}

/// Bounded in-memory collector keeping the most recent `capacity` records.
///
/// This is the "ring buffer" of the subsystem: cheap enough to leave
/// attached to a long sweep, inspectable after the fact, and it never
/// grows beyond its bound — old records are evicted FIFO.
#[derive(Debug, Clone)]
pub struct RingSink {
    capacity: usize,
    ring: VecDeque<Record>,
}

impl RingSink {
    /// Creates a ring holding at most `capacity` records (min 1).
    pub fn new(capacity: usize) -> Self {
        let capacity = capacity.max(1);
        Self {
            capacity,
            ring: VecDeque::with_capacity(capacity),
        }
    }

    /// The retained records, oldest first.
    pub fn records(&self) -> impl Iterator<Item = &Record> {
        self.ring.iter()
    }

    /// Number of records currently retained.
    pub fn len(&self) -> usize {
        self.ring.len()
    }

    /// `true` when nothing has been recorded yet.
    pub fn is_empty(&self) -> bool {
        self.ring.is_empty()
    }
}

impl Sink for RingSink {
    fn record(&mut self, record: &Record) -> Result<(), SinkError> {
        if self.ring.len() == self.capacity {
            self.ring.pop_front();
        }
        self.ring.push_back(record.clone());
        Ok(())
    }
}

/// Byte-deterministic JSON Lines encoder into an in-memory buffer.
///
/// One record per line. Floats use Rust's shortest round-trip formatting
/// (`{}`), so parsing the stream recovers the exact `f64` bits — the
/// golden-trace check in `cargo xtask trace` relies on this to recompute
/// tracking error to 1e-9 against `results/tab07_tracking_error.json`.
/// Non-finite floats encode as `null` (JSON has no NaN/Inf).
#[derive(Debug, Clone, Default)]
pub struct JsonlSink {
    buf: String,
}

impl JsonlSink {
    /// Creates an empty encoder.
    pub fn new() -> Self {
        Self::default()
    }

    /// The encoded stream so far.
    pub fn buffer(&self) -> &str {
        &self.buf
    }

    /// Consumes the sink, returning the encoded stream.
    pub fn into_string(self) -> String {
        self.buf
    }

    /// Discards the stream encoded so far, keeping the allocation — lets
    /// one sink be reused across runs (e.g. repeated benchmark iterations).
    pub fn clear(&mut self) {
        self.buf.clear();
    }
}

impl Sink for JsonlSink {
    fn record(&mut self, record: &Record) -> Result<(), SinkError> {
        encode_record(&mut self.buf, record);
        self.buf.push('\n');
        Ok(())
    }
}

fn encode_record(out: &mut String, record: &Record) {
    match record {
        Record::Event(Event {
            name,
            minute,
            seq,
            fields,
        }) => {
            out.push_str("{\"t\":\"event\",\"name\":");
            encode_str(out, name);
            out.push_str(&format!(",\"minute\":{minute},\"seq\":{seq},\"fields\":"));
            encode_fields(out, fields);
            out.push('}');
        }
        Record::Span(Span {
            name,
            start_minute,
            end_minute,
            seq,
            fields,
        }) => {
            out.push_str("{\"t\":\"span\",\"name\":");
            encode_str(out, name);
            out.push_str(&format!(
                ",\"start_minute\":{start_minute},\"end_minute\":{end_minute},\"seq\":{seq},\"fields\":"
            ));
            encode_fields(out, fields);
            out.push('}');
        }
        Record::Counter(c) => {
            out.push_str("{\"t\":\"counter\",\"name\":");
            encode_str(out, c.name);
            out.push_str(&format!(",\"seq\":{},\"value\":{}}}", c.seq, c.value));
        }
        Record::Histogram(h) => {
            out.push_str("{\"t\":\"histogram\",\"name\":");
            encode_str(out, h.name);
            out.push_str(&format!(",\"seq\":{},\"bounds\":[", h.seq));
            push_u64_list(out, h.bounds.iter().copied());
            out.push_str("],\"counts\":[");
            push_u64_list(out, h.counts.iter().copied());
            out.push_str(&format!(
                "],\"count\":{},\"sum\":{},\"max\":{}}}",
                h.count, h.sum, h.max
            ));
        }
    }
}

fn push_u64_list(out: &mut String, values: impl Iterator<Item = u64>) {
    for (i, v) in values.enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&v.to_string());
    }
}

fn encode_fields(out: &mut String, fields: &[Field]) {
    out.push('{');
    for (i, f) in fields.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        encode_str(out, f.name);
        out.push(':');
        encode_value(out, &f.value);
    }
    out.push('}');
}

fn encode_value(out: &mut String, value: &Value) {
    match value {
        Value::U64(v) => out.push_str(&v.to_string()),
        Value::I64(v) => out.push_str(&v.to_string()),
        Value::F64(v) if v.is_finite() => out.push_str(&v.to_string()),
        Value::F64(_) => out.push_str("null"),
        Value::Bool(v) => out.push_str(if *v { "true" } else { "false" }),
        Value::Str(s) => encode_str(out, s),
        Value::Text(s) => encode_str(out, s),
    }
}

fn encode_str(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
}

/// Order-insensitive roll-up of a stream's metrics.
///
/// Events and spans are tallied per name; counter and histogram snapshots
/// are folded by name (later snapshots of the same monotone metric
/// supersede earlier ones, so folding keeps the maximum). Storage is
/// sorted-`Vec`, not `HashMap` — iteration order is part of the
/// determinism contract.
#[derive(Debug, Clone, Default)]
pub struct AggregatingSink {
    /// `(record name, occurrences)` for events and spans, sorted by name.
    tallies: Vec<(&'static str, u64)>,
    /// Latest counter value per name, sorted by name.
    counters: Vec<(&'static str, u64)>,
}

impl AggregatingSink {
    /// Creates an empty aggregator.
    pub fn new() -> Self {
        Self::default()
    }

    /// `(record name, occurrences)` tallies for events and spans, sorted.
    pub fn tallies(&self) -> &[(&'static str, u64)] {
        &self.tallies
    }

    /// Final counter values by name, sorted.
    pub fn counters(&self) -> &[(&'static str, u64)] {
        &self.counters
    }

    fn bump(slot: &mut Vec<(&'static str, u64)>, name: &'static str, v: u64, fold_max: bool) {
        match slot.binary_search_by(|(n, _)| n.cmp(&name)) {
            Ok(i) => {
                let cur = slot[i].1;
                slot[i].1 = if fold_max {
                    cur.max(v)
                } else {
                    cur.saturating_add(v)
                };
            }
            Err(i) => slot.insert(i, (name, v)),
        }
    }
}

impl Sink for AggregatingSink {
    fn record(&mut self, record: &Record) -> Result<(), SinkError> {
        match record {
            Record::Event(_) | Record::Span(_) => {
                Self::bump(&mut self.tallies, record.name(), 1, false);
            }
            Record::Counter(c) => Self::bump(&mut self.counters, c.name, c.value, true),
            Record::Histogram(h) => Self::bump(&mut self.counters, h.name, h.count, true),
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::CounterSnapshot;
    use crate::value::field;

    fn minute_event(seq: u32) -> Record {
        Record::Event(Event {
            name: "minute",
            minute: 450 + seq,
            seq: u64::from(seq),
            fields: vec![field("budget_w", 71.5), field("source", "solar")],
        })
    }

    #[test]
    fn jsonl_is_one_line_per_record_with_roundtrip_floats() {
        let mut sink = JsonlSink::new();
        sink.record(&minute_event(0)).unwrap();
        let line = sink.buffer();
        assert!(line.ends_with('\n'));
        assert_eq!(line.lines().count(), 1);
        assert!(line.contains("\"budget_w\":71.5"));
        assert!(line.contains("\"source\":\"solar\""));
        // shortest round-trip: an exact integer-valued f64 prints bare
        let mut s2 = JsonlSink::new();
        s2.record(&Record::Event(Event {
            name: "e",
            minute: 0,
            seq: 0,
            fields: vec![field("x", 1.0_f64), field("y", f64::NAN)],
        }))
        .unwrap();
        assert!(s2.buffer().contains("\"x\":1,"));
        assert!(s2.buffer().contains("\"y\":null"));
    }

    #[test]
    fn into_string_hands_back_the_whole_stream() {
        let mut sink = JsonlSink::new();
        sink.record(&minute_event(0)).unwrap();
        sink.record(&minute_event(1)).unwrap();
        let expected = sink.buffer().to_owned();
        let owned = sink.into_string();
        assert_eq!(owned, expected);
        assert_eq!(owned.lines().count(), 2);
    }

    #[test]
    fn jsonl_escapes_strings() {
        let mut sink = JsonlSink::new();
        sink.record(&Record::Event(Event {
            name: "e",
            minute: 0,
            seq: 0,
            fields: vec![field("msg", "a\"b\\c\nd".to_owned())],
        }))
        .unwrap();
        assert!(sink.buffer().contains("\"msg\":\"a\\\"b\\\\c\\nd\""));
    }

    #[test]
    fn ring_keeps_most_recent() {
        let mut ring = RingSink::new(2);
        for seq in 0..5 {
            ring.record(&minute_event(seq)).unwrap();
        }
        let seqs: Vec<u64> = ring.records().map(Record::seq).collect();
        assert_eq!(seqs, vec![3, 4]);
        assert_eq!(ring.len(), 2);
        assert!(!ring.is_empty());
    }

    #[test]
    fn aggregator_tallies_and_folds() {
        let mut agg = AggregatingSink::new();
        for seq in 0..3 {
            agg.record(&minute_event(seq)).unwrap();
        }
        for value in [5, 9, 7] {
            agg.record(&Record::Counter(CounterSnapshot {
                name: "pv_solves",
                seq: 10,
                value,
            }))
            .unwrap();
        }
        assert_eq!(agg.tallies(), &[("minute", 3)]);
        assert_eq!(agg.counters(), &[("pv_solves", 9)]);
    }
}
