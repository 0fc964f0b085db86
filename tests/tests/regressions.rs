//! Explicit replay of the saved proptest regression corpus.
//!
//! Upstream `proptest` re-runs `*.proptest-regressions` seeds before
//! generating novel cases; the vendored offline stub does not persist or
//! read those files, so the corpus next to `properties.rs` would be dead
//! weight unless replayed by hand. Each `cc` line is reproduced here as a
//! plain `#[test]` with the shrunken inputs recorded in the corpus
//! comment, and a meta-test parses the corpus so a newly appended seed
//! fails CI until it gains an explicit replay below.
//!
//! Workflow for a new proptest failure:
//! 1. Append a `cc <hash> # shrinks to <inputs>` line to
//!    `tests/tests/properties.proptest-regressions` (matching upstream's
//!    format, so migrating back to real proptest keeps the corpus).
//! 2. Add a `#[test]` here replaying those inputs through the property
//!    body, and bump the expected count in `corpus_is_fully_replayed`.

use archsim::{MultiCoreChip, VfLevel};
use powertrain::DcDcConverter;
use pv::units::{Celsius, Irradiance};
use pv::{CellEnv, PvArray, PvGenerator};
use solarcore::{ControllerConfig, LoadTuner, Policy, SolarCoreController, TrackingRig};
use workloads::Mix;

/// The property body of `tracking_converges_from_any_start` (from
/// `properties.rs`), replayed for one concrete corpus case.
fn assert_tracking_converges(env: CellEnv, start_ratio: f64, mix_idx: usize) {
    let array = PvArray::solarcore_default();
    let mpp = array.mpp(env).power.get();
    assert!(
        mpp > 30.0,
        "corpus case no longer satisfies the prop_assume"
    );
    let mix = Mix::all().swap_remove(mix_idx);
    let mut chip = MultiCoreChip::new(&mix);
    chip.set_all_levels(VfLevel::lowest());
    let mut converter = DcDcConverter::solarcore_default();
    converter.set_ratio(start_ratio).unwrap();
    let mut tuner = LoadTuner::new(Policy::MpptOpt);
    let mut controller = SolarCoreController::new(ControllerConfig::paper_defaults()).unwrap();
    let report = controller
        .track(&mut TrackingRig {
            array: &array,
            env,
            mpp: array.mpp(env),
            converter: &mut converter,
            chip: &mut chip,
            tuner: &mut tuner,
        })
        .unwrap();
    let chip_max = {
        let mut probe = MultiCoreChip::new(&mix);
        probe.set_all_levels(VfLevel::highest());
        probe.total_power().get()
    };
    let target = mpp.min(chip_max * 1.05);
    assert!(
        report.final_output_power > 0.75 * target * converter.efficiency(),
        "tracked {:.1} W of target {target:.1} W (mpp {mpp:.1}, chip max {chip_max:.1})",
        report.final_output_power
    );
    assert!(report.final_output_power <= mpp + 1e-6);
}

/// Corpus seed `2b6d281c…`: mid-irradiance warm day, H1 mix, a start
/// ratio near the middle of the converter's range.
#[test]
fn corpus_2b6d281c_tracking_converges() {
    assert_tracking_converges(
        CellEnv::new(
            Irradiance::new(907.7953093411271),
            Celsius::new(24.74973744268775),
        ),
        3.9251149362726583,
        0,
    );
}

/// Corpus seed `71037942…`: half irradiance at freezing temperature, M1
/// mix, a start ratio at the low edge of the legal range.
#[test]
fn corpus_71037942_tracking_converges() {
    assert_tracking_converges(
        CellEnv::new(Irradiance::new(498.5999066709034), Celsius::new(0.0)),
        1.6934587830487686,
        2,
    );
}

/// Every `cc` line in the corpus must have an explicit replay above: this
/// count assertion fails the build when a new seed is appended without
/// one, enforcing the workflow in the module docs.
#[test]
fn corpus_is_fully_replayed() {
    const REPLAYED: usize = 2;
    let corpus = include_str!("properties.proptest-regressions");
    let seeds: Vec<&str> = corpus
        .lines()
        .map(str::trim)
        .filter(|l| l.starts_with("cc "))
        .collect();
    assert_eq!(
        seeds.len(),
        REPLAYED,
        "corpus has {} seed(s) but {REPLAYED} are replayed; \
         add a #[test] replaying the new seed's inputs",
        seeds.len()
    );
    // Each corpus line records its shrunken inputs, which is what the
    // replays above encode; make sure the comments are still there.
    for line in &seeds {
        assert!(
            line.contains("# shrinks to"),
            "corpus line lost its shrunken-input comment: {line}"
        );
    }
}
