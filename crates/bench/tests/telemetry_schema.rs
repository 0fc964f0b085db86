//! Golden test of the telemetry observability contract (DESIGN.md §14).
//!
//! Deserializes the committed sample stream
//! `results/telemetry_golden_co_jan_hm2.jsonl` and asserts the record
//! envelope, the per-record field sets, their JSON types and their unit
//! conventions — so any schema-breaking change to the emitting code fails
//! here until the contract documents, the sample and this test are updated
//! together. A fresh golden day must also emit the committed stream byte
//! for byte.
//!
//! After an *intentional* change, regenerate the stream with
//! `BLESS=1 cargo test -p bench --test telemetry_schema`, its only writer,
//! then review the diff like any golden update.

use std::sync::OnceLock;

use bench::output::Json;
use bench::pins::{assert_pins, assert_regenerates, Pins};
use solarcore::schema;

const GOLDEN: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/../../results/telemetry_golden_co_jan_hm2.jsonl"
);

/// The committed golden stream, read once per test binary — and under
/// `BLESS=1` rewritten from a fresh golden day first.
fn golden_stream() -> &'static str {
    static STREAM: OnceLock<String> = OnceLock::new();
    STREAM.get_or_init(|| {
        if std::env::var_os("BLESS").is_some() {
            let fresh = bench::trace_report::run_golden_day().stream;
            std::fs::write(GOLDEN, fresh).expect("golden stream written");
        }
        std::fs::read_to_string(GOLDEN).expect("committed golden stream exists")
    })
}

fn golden_records() -> Vec<Json> {
    golden_stream()
        .lines()
        .map(|line| Json::parse(line).expect("golden line parses as JSON"))
        .collect()
}

/// The keys of a golden record's `fields` object in the order the stream
/// writes them. A parsed object's keys come back sorted, so the order is
/// read off the record's line, which its `seq` numbers.
fn fields_of(record: &Json) -> Vec<String> {
    let Json::Obj(fields) = &record["fields"] else {
        panic!("fields must be an object, got {:?}", record["fields"]);
    };
    let seq = record["seq"].as_u64().expect("record has a seq");
    let line = golden_stream()
        .lines()
        .nth(usize::try_from(seq).expect("seq fits usize"))
        .expect("seq numbers a golden line");
    let body = &line[line.find("\"fields\":").expect("line writes its fields")..];
    let mut keys: Vec<(usize, &String)> = fields
        .keys()
        .map(|k| {
            (
                body.find(&format!("\"{k}\":")).expect("key is on the line"),
                k,
            )
        })
        .collect();
    keys.sort_unstable();
    keys.into_iter().map(|(_, k)| k.clone()).collect()
}

#[test]
fn every_record_has_the_envelope() {
    let records = golden_records();
    assert!(!records.is_empty());
    for (i, r) in records.iter().enumerate() {
        let t = r["t"].as_str().expect("t tag");
        assert!(
            matches!(t, "event" | "span" | "counter" | "histogram"),
            "line {i}: unknown record type {t}"
        );
        assert!(r["name"].as_str().is_some(), "line {i}: missing name");
        // Sequence numbers are the stream's total order: 0,1,2,…
        assert_eq!(r["seq"].as_u64(), Some(i as u64), "line {i}: seq broken");
        match t {
            "event" => {
                let minute = r["minute"].as_u64().expect("event minute stamp");
                assert!(minute < 1440, "line {i}: minute {minute} out of range");
            }
            "span" => {
                let start = r["start_minute"].as_u64().expect("span start");
                let end = r["end_minute"].as_u64().expect("span end");
                assert!(start <= end, "line {i}: span ends before it starts");
            }
            _ => {}
        }
    }
}

#[test]
fn day_start_opens_the_stream_with_run_identity() {
    let records = golden_records();
    let first = &records[0];
    assert_eq!(first["t"].as_str(), Some("event"));
    assert_eq!(first["name"].as_str(), Some(schema::EVENT_DAY_START));
    let f = &first["fields"];
    assert_eq!(f[schema::SITE].as_str(), Some("CO"));
    assert_eq!(f[schema::SEASON].as_str(), Some("Jan"));
    assert_eq!(f[schema::DAY].as_u64(), Some(0));
    assert_eq!(f[schema::MIX].as_str(), Some("HM2"));
    assert_eq!(f[schema::POLICY].as_str(), Some("MPPT&Opt"));
}

#[test]
fn minute_events_carry_the_documented_fields_and_units() {
    let records = golden_records();
    let minutes: Vec<&Json> = records
        .iter()
        .filter(|r| r["name"].as_str() == Some(schema::EVENT_MINUTE))
        .collect();
    assert_eq!(minutes.len(), 601, "one minute event per simulated minute");
    let expected = [
        schema::BUDGET_W,
        schema::DRAWN_W,
        schema::BUS_V,
        schema::SOURCE,
        schema::CHIP_POWER_W,
        schema::CHIP_CAPACITY_W,
        schema::RATIO_K,
        schema::INSTRUCTIONS,
    ];
    for m in &minutes {
        assert_eq!(
            fields_of(m),
            expected.map(String::from),
            "minute field set/order drifted"
        );
        let f = &m["fields"];
        // `_w`/`_v`/`_k` fields are numbers; watts are non-negative.
        for key in [
            schema::BUDGET_W,
            schema::DRAWN_W,
            schema::CHIP_POWER_W,
            schema::CHIP_CAPACITY_W,
        ] {
            let w = f[key].as_f64().unwrap_or(f64::NAN);
            assert!(w >= 0.0, "{key} must be a non-negative wattage, got {w}");
        }
        assert!(f[schema::BUS_V].as_f64().is_some());
        assert!(f[schema::RATIO_K].as_f64().is_some());
        assert!(f[schema::INSTRUCTIONS].as_f64().is_some());
        let source = f[schema::SOURCE].as_str().expect("source label");
        assert!(matches!(source, "solar" | "utility"));
    }
}

#[test]
fn track_spans_describe_the_mppt_loop() {
    let records = golden_records();
    let spans: Vec<&Json> = records
        .iter()
        .filter(|r| r["t"].as_str() == Some("span"))
        .collect();
    assert!(!spans.is_empty(), "an MPPT day must emit tracking spans");
    for s in &spans {
        assert_eq!(s["name"].as_str(), Some(schema::SPAN_TRACK));
        let f = &s["fields"];
        assert!(f[schema::ROUNDS].as_u64().is_some());
        assert!(f[schema::ACTIONS].as_u64().is_some());
        assert!(f[schema::REVERSALS].as_u64().is_some());
        assert!(f[schema::FINAL_POWER_W].as_f64().is_some());
        assert!(f[schema::RATIO_K].as_f64().is_some());
        assert!(f[schema::FORCED].as_bool().is_some());
    }
    // The first span is the forced source-transition track.
    assert_eq!(spans[0]["fields"][schema::FORCED].as_bool(), Some(true));
}

#[test]
fn histograms_are_internally_consistent() {
    let records = golden_records();
    let hists: Vec<&Json> = records
        .iter()
        .filter(|r| r["t"].as_str() == Some("histogram"))
        .collect();
    let names: Vec<&str> = hists.iter().filter_map(|h| h["name"].as_str()).collect();
    assert_eq!(
        names,
        vec![
            schema::HIST_NEWTON_ITERS,
            schema::HIST_TRACK_ROUNDS,
            schema::HIST_TRACK_ACTIONS,
            schema::HIST_TRACK_REVERSALS,
            schema::HIST_TPR_MOVES,
            schema::HIST_RATIO_K_CENTI,
        ],
    );
    for h in &hists {
        let bounds = h["bounds"].as_array().expect("bounds");
        let counts = h["counts"].as_array().expect("counts");
        assert_eq!(
            counts.len(),
            bounds.len() + 1,
            "inclusive bounds plus one overflow bucket"
        );
        let total: u64 = counts.iter().filter_map(Json::as_u64).sum();
        assert_eq!(Some(total), h["count"].as_u64(), "bucket counts must sum");
        assert!(h["sum"].as_u64().is_some());
        assert!(h["max"].as_u64().is_some());
    }
}

#[test]
fn counters_and_day_summary_close_the_stream() {
    let records = golden_records();
    let counter_names: Vec<&str> = records
        .iter()
        .filter(|r| r["t"].as_str() == Some("counter"))
        .filter_map(|r| r["name"].as_str())
        .collect();
    assert_eq!(
        counter_names,
        vec![schema::COUNTER_MPP_QUERIES, schema::COUNTER_PV_EVALS]
    );

    let last = records.last().expect("nonempty stream");
    assert_eq!(last["name"].as_str(), Some(schema::EVENT_DAY_SUMMARY));
    let f = &last["fields"];
    let expected = [
        schema::TRACKING_ERROR,
        schema::ENERGY_DRAWN_WH,
        schema::ENERGY_AVAILABLE_WH,
        schema::UTILIZATION,
        schema::INSTRUCTIONS,
        schema::CACHE_HITS,
        schema::CACHE_MISSES,
        schema::SOLVES,
        schema::PV_EVALS,
        schema::NEWTON_ITERS_TOTAL,
    ];
    assert_eq!(
        fields_of(last),
        expected.map(String::from),
        "day_summary field set drifted"
    );
    let err = f[schema::TRACKING_ERROR].as_f64().expect("tracking_error");
    assert!((0.0..=1.0).contains(&err));
    let util = f[schema::UTILIZATION].as_f64().expect("utilization");
    assert!((0.0..=1.0).contains(&util));
}

#[test]
fn vf_residency_covers_every_core_and_level() {
    let records = golden_records();
    let residency: Vec<&Json> = records
        .iter()
        .filter(|r| r["name"].as_str() == Some(schema::EVENT_VF_RESIDENCY))
        .collect();
    assert_eq!(residency.len(), 8, "one record per core");
    for (core, r) in residency.iter().enumerate() {
        let f = &r["fields"];
        assert_eq!(f[schema::CORE].as_u64(), Some(core as u64));
        let gated = f[schema::GATED_MINUTES].as_u64().expect("gated_minutes");
        let levels: u64 = schema::RESIDENCY_LEVELS
            .iter()
            .map(|key| f[*key].as_u64().expect("residency level field"))
            .sum();
        // Residency partitions the day: gated + per-level == 601 minutes.
        assert_eq!(gated + levels, 601);
    }
}

#[test]
fn golden_day_solver_and_memo_counters_are_pinned() {
    // Work counts are deterministic, so they are pinned exactly: any change
    // to the op-solve probe sequence or to the memo's hit/miss sequence
    // shows here, as does any other change to the committed stream.
    let committed = golden_stream();
    let report = bench::trace_report::run_golden_day();
    let last = Json::parse(report.stream.lines().last().expect("nonempty stream"))
        .expect("stream line parses as JSON");
    assert_eq!(last["name"].as_str(), Some(schema::EVENT_DAY_SUMMARY));
    let summary = &last["fields"];
    let pins = Pins::committed().unwrap();
    assert_pins(
        [
            schema::SOLVES,
            schema::PV_EVALS,
            schema::CACHE_HITS,
            schema::CACHE_MISSES,
            schema::NEWTON_ITERS_TOTAL,
        ]
        .map(|key| {
            let count = summary[key]
                .as_u64()
                .unwrap_or_else(|| panic!("day_summary has no {key}"));
            pins.check_count(&format!("golden_day.{key}"), count)
        }),
    );
    assert_regenerates(
        "results/telemetry_golden_co_jan_hm2.jsonl",
        committed,
        &report.stream,
    );
}
