//! Microbenchmarks of the PV electrical substrate: the I-V solver, the MPP
//! oracle, curve sampling, and datasheet fitting. These bound the cost of
//! every experiment (each simulated minute solves operating points).

use std::cell::RefCell;

use criterion::{black_box, criterion_group, criterion_main, Criterion};

use powertrain::{solve_operating_point, DcDcConverter, LoadModel};
use pv::units::{Amps, Celsius, Irradiance, Ohms, Volts};
use pv::{
    ArrayCache, CachedArray, CellEnv, Datasheet, IvCurve, MppPoint, PvArray, PvError, PvGenerator,
    PvModule,
};
use solarcore::ControllerConfig;

fn bench_current_solve(c: &mut Criterion) {
    let module = PvModule::bp3180n();
    let env = CellEnv::new(Irradiance::new(850.0), Celsius::new(48.0));
    c.bench_function("pv/current_at_36v", |b| {
        b.iter(|| {
            module
                .current_at(black_box(env), black_box(Volts::new(36.0)))
                .unwrap()
        })
    });
}

fn bench_mpp_search(c: &mut Criterion) {
    let module = PvModule::bp3180n();
    let env = CellEnv::new(Irradiance::new(700.0), Celsius::new(40.0));
    c.bench_function("pv/mpp_golden_section", |b| {
        b.iter(|| module.mpp(black_box(env)))
    });
}

fn bench_curve_sampling(c: &mut Criterion) {
    let module = PvModule::bp3180n();
    let env = CellEnv::stc();
    c.bench_function("pv/iv_curve_100pts", |b| {
        b.iter(|| IvCurve::sample(&module, black_box(env), 100).unwrap())
    });
}

fn bench_datasheet_fit(c: &mut Criterion) {
    c.bench_function("pv/datasheet_fit_bp3180n", |b| {
        b.iter(|| Datasheet::bp3180n().fit().unwrap())
    });
}

/// Coefficient hoisting: a [`pv::ModuleSolver`] held across an I-V sweep
/// resolves `Iph`/`I0`/`n·Vt` once, vs. `current_at` resolving per call.
fn bench_warm_solver_sweep(c: &mut Criterion) {
    let module = PvModule::bp3180n();
    let env = CellEnv::new(Irradiance::new(850.0), Celsius::new(48.0));
    let mut group = c.benchmark_group("pv_warm");
    group.bench_function("iv_sweep_40pts_cold", |b| {
        b.iter(|| {
            (0..40)
                .map(|k| {
                    module
                        .current_at(env, Volts::new(k as f64))
                        .map(|i| i.get())
                        .unwrap_or(0.0)
                })
                .sum::<f64>()
        })
    });
    group.bench_function("iv_sweep_40pts_warm", |b| {
        b.iter(|| {
            let solver = module.solver(env);
            (0..40)
                .map(|k| {
                    solver
                        .current_at(Volts::new(k as f64))
                        .map(|i| i.get())
                        .unwrap_or(0.0)
                })
                .sum::<f64>()
        })
    });
    group.finish();
}

/// Exact-key memoization: repeated `(G, T, V)` solves through a
/// [`CachedArray`] against the cold path (the perturb-and-observe pattern),
/// and one operating-point solve's probes replayed through a warm memo.
fn bench_memo_hits(c: &mut Criterion) {
    let array = PvArray::solarcore_default();
    let env = CellEnv::new(Irradiance::new(700.0), Celsius::new(40.0));
    let mut group = c.benchmark_group("pv_memo");
    group.bench_function("repeat_solve_cold", |b| {
        b.iter(|| array.current_at(black_box(env), black_box(Volts::new(34.0))))
    });
    group.bench_function("repeat_solve_memoized", |b| {
        let cache = ArrayCache::new();
        let cached = CachedArray::new(&array, &cache);
        b.iter(|| cached.current_at(black_box(env), black_box(Volts::new(34.0))))
    });
    // The operating-point solver's pattern through a warm memo: once the
    // bisection interval collapses to adjacent floats its tail repeats one
    // voltage, so this prices the hit path as the solver drives it.
    let probes = bisection_probes(&array, env);
    group.bench_function("bisection_probes_97_warm", |b| {
        let cache = ArrayCache::new();
        let cached = CachedArray::new(&array, &cache);
        for &v in &probes {
            cached.current_at(env, v).unwrap();
        }
        b.iter(|| {
            probes
                .iter()
                .map(|&v| cached.current_at(black_box(env), v).map_or(0.0, Amps::get))
                .sum::<f64>()
        })
    });
    group.finish();
}

/// A pass-through generator that records every probe voltage.
struct ProbeRecorder<'a> {
    array: &'a PvArray,
    probes: RefCell<Vec<Volts>>,
}

impl PvGenerator for ProbeRecorder<'_> {
    fn open_circuit_voltage(&self, env: CellEnv) -> Volts {
        self.array.open_circuit_voltage(env)
    }

    fn current_at_counted(&self, env: CellEnv, voltage: Volts) -> Result<(Amps, u32), PvError> {
        self.probes.borrow_mut().push(voltage);
        self.array.current_at_counted(env, voltage)
    }

    fn mpp(&self, env: CellEnv) -> MppPoint {
        self.array.mpp(env)
    }
}

/// The 96 bisection midpoints and the finish evaluation of one
/// resistive-load operating-point solve near the MPP, as tracking presents
/// it.
fn bisection_probes(array: &PvArray, env: CellEnv) -> Vec<Volts> {
    let vdd = ControllerConfig::paper_defaults().nominal_bus_voltage.get();
    let load = LoadModel::Resistance(Ohms::new(vdd * vdd / (0.9 * array.mpp(env).power.get())));
    let recorder = ProbeRecorder {
        array,
        probes: RefCell::new(Vec::new()),
    };
    solve_operating_point(&recorder, env, &DcDcConverter::solarcore_default(), &load).unwrap();
    let probes = recorder.probes.into_inner();
    assert_eq!(probes.len(), 97, "96 bisection probes + 1 finish");
    probes
}

criterion_group!(
    benches,
    bench_current_solve,
    bench_mpp_search,
    bench_curve_sampling,
    bench_datasheet_fit,
    bench_warm_solver_sweep,
    bench_memo_hits
);
criterion_main!(benches);
