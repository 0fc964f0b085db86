//! The [`Telemetry`] handle: a cheap, cloneable emitter stamped by the
//! simulation clock.
//!
//! A handle is either **disabled** (the default — every emitter is a no-op
//! that never allocates) or **attached** to a shared [`Sink`]. Clones share
//! the sink, the monotonic sequence counter and the sim-time cursor, so a
//! simulation engine can hand the same stream to its controller, policy and
//! chip layers without plumbing a context object everywhere.
//!
//! Time is the **simulation clock only**: the engine calls
//! [`Telemetry::set_minute`] once per simulated minute and every subsequent
//! record is stamped with that minute. Nothing here reads `SystemTime` or
//! `Instant` — the root `clippy.toml` disallows both outside `prof`.

use crate::metrics::{Counter, Histogram};
use crate::record::{Event, Record, Span};
use crate::sink::{Sink, SinkError};
use crate::value::Field;
use std::cell::{Cell, RefCell};
use std::fmt;
use std::rc::Rc;

struct Inner {
    sink: Rc<RefCell<dyn Sink>>,
    seq: Cell<u64>,
    minute: Cell<u32>,
}

/// A cloneable telemetry emitter. See the [module docs](self).
#[derive(Clone, Default)]
pub struct Telemetry {
    inner: Option<Rc<Inner>>,
}

impl fmt::Debug for Telemetry {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match &self.inner {
            Some(inner) => f
                .debug_struct("Telemetry")
                .field("enabled", &true)
                .field("seq", &inner.seq.get())
                .field("minute", &inner.minute.get())
                .finish_non_exhaustive(),
            None => f
                .debug_struct("Telemetry")
                .field("enabled", &false)
                .finish(),
        }
    }
}

impl Telemetry {
    /// A disabled handle: every emitter is a no-op returning `Ok(())`.
    pub fn disabled() -> Self {
        Self { inner: None }
    }

    /// A handle attached to `sink`. Clones share the sink and counters.
    pub fn attached(sink: Rc<RefCell<dyn Sink>>) -> Self {
        Self {
            inner: Some(Rc::new(Inner {
                sink,
                seq: Cell::new(0),
                minute: Cell::new(0),
            })),
        }
    }

    /// `true` when records actually reach a sink.
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// Advances the simulation clock; subsequent records are stamped with
    /// `minute` (minute-of-day).
    pub fn set_minute(&self, minute: u32) {
        if let Some(inner) = &self.inner {
            inner.minute.set(minute);
        }
    }

    /// The current simulation minute (0 when disabled).
    pub fn minute(&self) -> u32 {
        self.inner.as_ref().map_or(0, |i| i.minute.get())
    }

    fn emit(&self, make: impl FnOnce(u64, u32) -> Record) -> Result<(), SinkError> {
        let Some(inner) = &self.inner else {
            return Ok(());
        };
        let seq = inner.seq.get();
        inner.seq.set(seq + 1);
        let record = make(seq, inner.minute.get());
        inner.sink.borrow_mut().record(&record)
    }

    /// Emits an [`Event`] stamped with the current minute.
    pub fn event(&self, name: &'static str, fields: Vec<Field>) -> Result<(), SinkError> {
        self.emit(|seq, minute| {
            Record::Event(Event {
                name,
                minute,
                seq,
                fields,
            })
        })
    }

    /// Emits a [`Span`] from `start_minute` to the current minute.
    pub fn span(
        &self,
        name: &'static str,
        start_minute: u32,
        fields: Vec<Field>,
    ) -> Result<(), SinkError> {
        self.emit(|seq, minute| {
            Record::Span(Span {
                name,
                start_minute,
                end_minute: minute.max(start_minute),
                seq,
                fields,
            })
        })
    }

    /// Emits a snapshot of `counter`.
    pub fn counter(&self, counter: &Counter) -> Result<(), SinkError> {
        self.emit(|seq, _| Record::Counter(counter.snapshot(seq)))
    }

    /// Emits a snapshot of `histogram`.
    pub fn histogram(&self, histogram: &Histogram) -> Result<(), SinkError> {
        self.emit(|seq, _| Record::Histogram(histogram.snapshot(seq)))
    }

    /// Flushes the underlying sink.
    pub fn flush(&self) -> Result<(), SinkError> {
        match &self.inner {
            Some(inner) => inner.sink.borrow_mut().flush(),
            None => Ok(()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sink::{JsonlSink, RingSink};
    use crate::value::field;

    #[test]
    fn disabled_handle_is_inert() {
        let tel = Telemetry::disabled();
        assert!(!tel.is_enabled());
        tel.set_minute(99);
        assert_eq!(tel.minute(), 0);
        tel.event("e", vec![field("x", 1_u64)]).unwrap();
        tel.flush().unwrap();
        assert_eq!(format!("{tel:?}"), "Telemetry { enabled: false }");
    }

    #[test]
    fn clones_share_seq_and_clock() {
        let sink = Rc::new(RefCell::new(RingSink::new(8)));
        let tel = Telemetry::attached(sink.clone());
        let tel2 = tel.clone();
        tel.set_minute(450);
        tel.event("a", vec![]).unwrap();
        tel2.event("b", vec![]).unwrap();
        let seqs: Vec<u64> = sink.borrow().records().map(Record::seq).collect();
        assert_eq!(seqs, vec![0, 1]);
        assert_eq!(tel2.minute(), 450);
    }

    #[test]
    fn span_clamps_end_to_start() {
        let sink = Rc::new(RefCell::new(RingSink::new(8)));
        let tel = Telemetry::attached(sink.clone());
        tel.set_minute(450);
        tel.span("track", 460, vec![]).unwrap();
        let record = sink.borrow().records().next().cloned().unwrap();
        match record {
            Record::Span(s) => {
                assert_eq!(s.start_minute, 460);
                assert_eq!(s.end_minute, 460);
            }
            other => panic!("unexpected record {other:?}"),
        }
    }

    #[test]
    fn identical_streams_are_byte_identical() {
        let run = || {
            let sink = Rc::new(RefCell::new(JsonlSink::new()));
            let tel = Telemetry::attached(sink.clone());
            for minute in 450..460 {
                tel.set_minute(minute);
                tel.event("minute", vec![field("budget_w", f64::from(minute) * 0.5)])
                    .unwrap();
            }
            tel.flush().unwrap();
            let bytes = sink.borrow().buffer().to_owned();
            bytes
        };
        assert_eq!(run(), run());
    }
}
