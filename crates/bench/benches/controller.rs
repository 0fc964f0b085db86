//! Microbenchmarks of one SolarCore MPPT tracking invocation — the paper
//! reports < 5 ms tracking latency per 10-minute period on real hardware;
//! here we measure the simulated controller's own cost per invocation.

use criterion::{black_box, criterion_group, criterion_main, BatchSize, Criterion};

use archsim::{MultiCoreChip, VfLevel};
use powertrain::DcDcConverter;
use pv::units::{Celsius, Irradiance};
use pv::{CellEnv, PvArray, PvGenerator};
use solarcore::{ControllerConfig, LoadTuner, Policy, SolarCoreController, TrackingRig};
use workloads::Mix;

fn bench_track(c: &mut Criterion) {
    let mut group = c.benchmark_group("controller/track");
    for (label, g) in [
        ("full_sun", 950.0),
        ("half_sun", 500.0),
        ("overcast", 150.0),
    ] {
        group.bench_function(label, |b| {
            let array = PvArray::solarcore_default();
            let mut controller = SolarCoreController::new(ControllerConfig::paper_defaults())
                .expect("paper defaults are valid");
            let env = CellEnv::new(Irradiance::new(g), Celsius::new(42.0));
            let mpp = array.mpp(env);
            b.iter_batched(
                || {
                    let mut chip = MultiCoreChip::new(&Mix::hm2());
                    chip.set_all_levels(VfLevel::lowest());
                    (
                        DcDcConverter::solarcore_default(),
                        chip,
                        LoadTuner::new(Policy::MpptOpt),
                    )
                },
                |(mut converter, mut chip, mut tuner)| {
                    controller.track(&mut TrackingRig {
                        array: &array,
                        env: black_box(env),
                        mpp,
                        converter: &mut converter,
                        chip: &mut chip,
                        tuner: &mut tuner,
                    })
                },
                BatchSize::SmallInput,
            )
        });
    }
    group.finish();
}

fn bench_retrack_after_small_drift(c: &mut Criterion) {
    // Once converged, a re-track under slightly changed conditions should be
    // much cheaper than cold-start tracking. The converged state is cloned
    // per iteration; controllers are cheap to clone (config + sensor seed).
    let array = PvArray::solarcore_default();
    let sunny = CellEnv::new(Irradiance::new(800.0), Celsius::new(42.0));
    let drifted = CellEnv::new(Irradiance::new(760.0), Celsius::new(43.0));
    let drifted_mpp = array.mpp(drifted);

    // Converge once outside the measurement loop.
    let mut controller = SolarCoreController::new(ControllerConfig::paper_defaults())
        .expect("paper defaults are valid");
    let mut chip = MultiCoreChip::new(&Mix::hm2());
    chip.set_all_levels(VfLevel::lowest());
    let mut converter = DcDcConverter::solarcore_default();
    let mut tuner = LoadTuner::new(Policy::MpptOpt);
    controller
        .track(&mut TrackingRig {
            array: &array,
            env: sunny,
            mpp: array.mpp(sunny),
            converter: &mut converter,
            chip: &mut chip,
            tuner: &mut tuner,
        })
        .expect("tracking succeeds on a consistent rig");

    c.bench_function("controller/retrack_after_drift", |b| {
        b.iter_batched(
            || (controller.clone(), converter.clone(), chip.clone()),
            |(mut controller, mut converter, mut chip)| {
                let mut tuner = LoadTuner::new(Policy::MpptOpt);
                controller.track(&mut TrackingRig {
                    array: &array,
                    env: black_box(drifted),
                    mpp: drifted_mpp,
                    converter: &mut converter,
                    chip: &mut chip,
                    tuner: &mut tuner,
                })
            },
            BatchSize::SmallInput,
        )
    });
}

criterion_group!(benches, bench_track, bench_retrack_after_small_drift);
criterion_main!(benches);
