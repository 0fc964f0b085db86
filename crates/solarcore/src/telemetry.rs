//! The SolarCore observability contract: the schema of every telemetry
//! record the simulation engine emits, plus the engine-side instruments.
//!
//! The generic envelope (events, spans, counters, histograms, their JSONL
//! encoding) lives in the [`telemetry`] crate; *this* module pins down what
//! the engine actually says — the record names, field names and units that
//! DESIGN.md §14 documents and `crates/bench/tests/telemetry_schema.rs`
//! golden-tests against a committed stream.
//!
//! # Stability
//!
//! Names in [`schema`] are a public contract: downstream tooling
//! (`cargo xtask trace`, the JSONL artifacts in `results/`) parses them by
//! string. Adding records or fields is backwards-compatible; renaming or
//! removing any existing name is a breaking change that must update
//! DESIGN.md §14, the golden sample under `results/`, and the schema test
//! in the same PR.
//!
//! # Units
//!
//! Physical fields carry their unit as a name suffix, mirroring the
//! [`pv::units`] newtype the value was read from:
//!
//! | suffix | unit | newtype |
//! |--------|------|---------|
//! | `_w` | watts | [`pv::units::Watts`] |
//! | `_v` | volts | [`pv::units::Volts`] |
//! | `_a` | amperes | [`pv::units::Amps`] |
//! | `_wh` | watt-hours | [`pv::units::WattHours`] |
//! | `_k` | DC/DC transfer ratio (dimensionless) | — |
//!
//! Timestamps are **simulation minutes-of-day** (the `minute` envelope
//! field), never wall-clock time; a stream is bit-identical across runs,
//! threads and machines (checked by `bench/tests/determinism.rs`).

use pv::cell::CellEnv;
use pv::error::PvError;
use pv::generator::PvGenerator;
use pv::mpp::MppPoint;
use pv::units::{Amps, Volts};
use pv::{ArrayCache, CachedArray, PvArray};
use telemetry::{Counter, Histogram};

/// Schema-stable record and field names. See the [module docs](self) for
/// the stability rules and unit conventions.
pub mod schema {
    /// Event emitted once before the first simulated minute.
    ///
    /// Fields: [`SITE`], [`SEASON`], [`DAY`], [`MIX`], [`POLICY`].
    pub const EVENT_DAY_START: &str = "day_start";

    /// Event emitted once per simulated minute, after the control loop ran.
    ///
    /// Fields: [`BUDGET_W`], [`DRAWN_W`], [`BUS_V`], [`SOURCE`],
    /// [`CHIP_POWER_W`], [`CHIP_CAPACITY_W`], [`RATIO_K`],
    /// [`INSTRUCTIONS`].
    pub const EVENT_MINUTE: &str = "minute";

    /// Event emitted on each Fixed-Power budget reallocation.
    ///
    /// Fields: [`BUDGET_W`], [`MOVES`].
    pub const EVENT_TPR_ALLOC: &str = "tpr_alloc";

    /// Event emitted once per core at end of day with its V/F residency.
    ///
    /// Fields: [`CORE`], [`GATED_MINUTES`], and one `residency_l<i>`
    /// field per V/F level (`l0` = fastest), in minutes.
    pub const EVENT_VF_RESIDENCY: &str = "vf_residency";

    /// Event emitted once after the last minute; mirrors [`DayResult`].
    ///
    /// Fields: [`TRACKING_ERROR`], [`ENERGY_DRAWN_WH`],
    /// [`ENERGY_AVAILABLE_WH`], [`UTILIZATION`], [`INSTRUCTIONS`],
    /// [`CACHE_HITS`], [`CACHE_MISSES`], [`SOLVES`], [`PV_EVALS`],
    /// [`NEWTON_ITERS_TOTAL`].
    ///
    /// [`DayResult`]: crate::engine::DayResult
    pub const EVENT_DAY_SUMMARY: &str = "day_summary";

    /// Span covering one MPPT tracking invocation (start == end minute:
    /// tracking completes within the minute it fires in).
    ///
    /// Fields: [`ROUNDS`], [`ACTIONS`], [`REVERSALS`], [`FINAL_POWER_W`],
    /// [`RATIO_K`], [`FORCED`].
    pub const SPAN_TRACK: &str = "track";

    /// Histogram of Newton/bisection iterations per PV I-V solve.
    pub const HIST_NEWTON_ITERS: &str = "newton_iters";

    /// Histogram of tuning rounds per tracking invocation.
    pub const HIST_TRACK_ROUNDS: &str = "track_rounds";

    /// Histogram of perturbation actions per tracking invocation.
    pub const HIST_TRACK_ACTIONS: &str = "track_actions";

    /// Histogram of direction reversals per tracking invocation.
    pub const HIST_TRACK_REVERSALS: &str = "track_reversals";

    /// Histogram of TPR reallocation moves per Fixed-Power budget change.
    pub const HIST_TPR_MOVES: &str = "tpr_moves";

    /// Histogram of the converter-ratio trajectory: `k` in centisteps
    /// (`round(k · 100)`) observed once per minute.
    pub const HIST_RATIO_K_CENTI: &str = "ratio_k_centi";

    /// Event emitted once per minute whose sensing health probe was
    /// flagged faulty (implausible or stuck reading).
    ///
    /// Fields: [`REASON`], [`REJECTS`], [`RETRIES`].
    pub const EVENT_FAULT_REJECT: &str = "fault_reject";

    /// Event emitted when detection confidence collapses and the engine
    /// trips from MPPT into the conservative fallback budget.
    ///
    /// Fields: [`FALLBACK_BUDGET_W`], [`REJECTS`].
    pub const EVENT_DEGRADE_ENTER: &str = "degrade_enter";

    /// Event emitted when the re-entry hysteresis dwell is satisfied and
    /// MPPT resumes.
    ///
    /// Fields: [`DWELL_MINUTES`], [`REJECTS`].
    pub const EVENT_DEGRADE_EXIT: &str = "degrade_exit";

    /// Wall-clock profiler span: trace/phase generation
    /// ([`DaySimulation::prepare`](crate::DaySimulation::prepare)).
    pub const PROF_PREPARE: &str = "prepare";

    /// Wall-clock profiler span: one full simulated day
    /// ([`DaySimulation::run_prepared`](crate::DaySimulation::run_prepared)).
    pub const PROF_RUN_DAY: &str = "run_day";

    /// Wall-clock profiler span: one TPR budget reallocation
    /// ([`allocate_budget`](crate::engine::allocate_budget) under a
    /// Fixed-Power budget or the degraded fallback).
    pub const PROF_TPR_ALLOC: &str = "tpr_alloc";

    /// Wall-clock profiler span: one MPPT tracking invocation.
    pub const PROF_MPPT_TRACK: &str = "mppt_track";

    /// Counter of PV generator MPP oracle queries.
    pub const COUNTER_MPP_QUERIES: &str = "mpp_queries";

    /// Counter of PV I-V curve evaluations through the instrumented array.
    pub const COUNTER_PV_EVALS: &str = "pv_evals";

    /// Field: site code (`"AZ"`, `"CO"`, `"NC"`, `"TN"`). Str.
    pub const SITE: &str = "site";
    /// Field: season label (`"Jan"`, `"Apr"`, `"Jul"`, `"Oct"`). Str.
    pub const SEASON: &str = "season";
    /// Field: day index within the season window. U64.
    pub const DAY: &str = "day";
    /// Field: workload-mix name (`"HM2"`, …). Str.
    pub const MIX: &str = "mix";
    /// Field: policy label (`"MPPT&Opt"`, …). Str.
    pub const POLICY: &str = "policy";
    /// Field: solar budget at the panel MPP, watts. F64.
    pub const BUDGET_W: &str = "budget_w";
    /// Field: power actually drawn from the active source, watts. F64.
    pub const DRAWN_W: &str = "drawn_w";
    /// Field: load-bus voltage, volts. F64.
    pub const BUS_V: &str = "bus_v";
    /// Field: active power source, `"solar"` or `"utility"`. Str.
    pub const SOURCE: &str = "source";
    /// Field: chip power demand after the control step, watts. F64.
    pub const CHIP_POWER_W: &str = "chip_power_w";
    /// Field: chip demand at max V/F all-ungated, watts. F64.
    pub const CHIP_CAPACITY_W: &str = "chip_capacity_w";
    /// Field: DC/DC transfer ratio `k` (dimensionless). F64.
    pub const RATIO_K: &str = "ratio_k";
    /// Field: instructions retired this minute (or total, in
    /// [`EVENT_DAY_SUMMARY`]). F64.
    pub const INSTRUCTIONS: &str = "instructions";
    /// Field: TPR reallocation moves applied. U64.
    pub const MOVES: &str = "moves";
    /// Field: core index. U64.
    pub const CORE: &str = "core";
    /// Field: minutes the core spent power-gated. U64.
    pub const GATED_MINUTES: &str = "gated_minutes";
    /// Field: tracking rounds executed. U64.
    pub const ROUNDS: &str = "rounds";
    /// Field: tuning actions executed. U64.
    pub const ACTIONS: &str = "actions";
    /// Field: perturbation direction reversals. U64.
    pub const REVERSALS: &str = "reversals";
    /// Field: output power at end of tracking, watts. F64.
    pub const FINAL_POWER_W: &str = "final_power_w";
    /// Field: `true` when tracking was forced (source transition) rather
    /// than periodic/event-triggered. Bool.
    pub const FORCED: &str = "forced";
    /// Field: mean relative tracking error over qualifying solar minutes —
    /// exactly [`DayResult::mean_tracking_error`]. F64.
    ///
    /// [`DayResult::mean_tracking_error`]: crate::engine::DayResult::mean_tracking_error
    pub const TRACKING_ERROR: &str = "tracking_error";
    /// Field: energy drawn from the array over the day, watt-hours. F64.
    pub const ENERGY_DRAWN_WH: &str = "energy_drawn_wh";
    /// Field: solar energy available at the MPP, watt-hours. F64.
    pub const ENERGY_AVAILABLE_WH: &str = "energy_available_wh";
    /// Field: drawn/available energy ratio. F64.
    pub const UTILIZATION: &str = "utilization";
    /// Field: solver-cache hits (see [`pv::CacheStats`]). U64.
    pub const CACHE_HITS: &str = "cache_hits";
    /// Field: solver-cache misses. U64.
    pub const CACHE_MISSES: &str = "cache_misses";
    /// Field: operating-point solves performed. U64.
    pub const SOLVES: &str = "solves";
    /// Field: PV I-V evaluations across all solves (the count of
    /// [`HIST_NEWTON_ITERS`]). U64.
    pub const PV_EVALS: &str = "pv_evals";
    /// Field: total Newton iterations across all PV evaluations (the sum
    /// of [`HIST_NEWTON_ITERS`]). U64.
    pub const NEWTON_ITERS_TOTAL: &str = "newton_iters_total";
    /// Field: why a sensing health probe was rejected, `"implausible"` or
    /// `"stuck"`. Str.
    pub const REASON: &str = "reason";
    /// Field: cumulative readings rejected by the fault detector. U64.
    pub const REJECTS: &str = "rejects";
    /// Field: cumulative re-sample attempts issued by the detector. U64.
    pub const RETRIES: &str = "retries";
    /// Field: the conservative budget allocated while degraded, watts. F64.
    pub const FALLBACK_BUDGET_W: &str = "fallback_budget_w";
    /// Field: minutes spent in degraded mode before re-entering MPPT. U64.
    pub const DWELL_MINUTES: &str = "dwell_minutes";
    /// Field names for per-level residency minutes in
    /// [`EVENT_VF_RESIDENCY`], indexed by V/F level (`l0` = fastest). U64.
    pub const RESIDENCY_LEVELS: [&str; 6] = [
        "residency_l0",
        "residency_l1",
        "residency_l2",
        "residency_l3",
        "residency_l4",
        "residency_l5",
    ];
}

/// Bucket bounds for [`schema::HIST_NEWTON_ITERS`] (iterations per solve;
/// 0 = solver-cache hit).
pub const NEWTON_ITER_BOUNDS: &[u64] = &[0, 1, 2, 3, 4, 6, 8, 12, 16, 24, 32, 64, 128];

/// Bucket bounds for the per-tracking histograms (rounds/actions/reversals).
pub const TRACK_BOUNDS: &[u64] = &[0, 1, 2, 4, 8, 16, 32, 64, 128, 256];

/// Bucket bounds for [`schema::HIST_TPR_MOVES`].
pub const TPR_MOVE_BOUNDS: &[u64] = &[0, 1, 2, 4, 8, 16, 32, 64];

/// Bucket bounds for [`schema::HIST_RATIO_K_CENTI`]: `k ∈ [0.8, 8.0]` in
/// 0.05 steps ⇒ centisteps 80..=800.
pub const RATIO_K_BOUNDS: &[u64] = &[100, 150, 200, 250, 300, 350, 400, 500, 600, 800];

/// The engine's per-day instruments: everything accumulated across a run
/// and snapshotted into the stream at end of day.
#[derive(Debug)]
pub struct DayInstruments {
    /// Newton/bisection iterations per PV solve.
    pub newton_iters: Histogram,
    /// Tracking rounds per invocation.
    pub track_rounds: Histogram,
    /// Tuning actions per invocation.
    pub track_actions: Histogram,
    /// Direction reversals per invocation.
    pub track_reversals: Histogram,
    /// TPR moves per Fixed-Power budget change.
    pub tpr_moves: Histogram,
    /// Converter-ratio trajectory in centisteps, sampled per minute.
    pub ratio_k_centi: Histogram,
    /// MPP oracle queries: one per simulated minute, which the engine
    /// answers from the setup's precomputed column.
    pub mpp_queries: Counter,
    /// Zero-iteration evaluations (memo hits) batched out of the hot path;
    /// folded into `newton_iters` by [`Self::fold_zero_evals`].
    zero_evals: std::cell::Cell<u64>,
}

impl Default for DayInstruments {
    fn default() -> Self {
        Self::new()
    }
}

impl DayInstruments {
    /// Creates zeroed instruments with the contract bucket layouts.
    pub fn new() -> Self {
        Self {
            newton_iters: Histogram::new(schema::HIST_NEWTON_ITERS, NEWTON_ITER_BOUNDS),
            track_rounds: Histogram::new(schema::HIST_TRACK_ROUNDS, TRACK_BOUNDS),
            track_actions: Histogram::new(schema::HIST_TRACK_ACTIONS, TRACK_BOUNDS),
            track_reversals: Histogram::new(schema::HIST_TRACK_REVERSALS, TRACK_BOUNDS),
            tpr_moves: Histogram::new(schema::HIST_TPR_MOVES, TPR_MOVE_BOUNDS),
            ratio_k_centi: Histogram::new(schema::HIST_RATIO_K_CENTI, RATIO_K_BOUNDS),
            mpp_queries: Counter::new(schema::COUNTER_MPP_QUERIES),
            zero_evals: std::cell::Cell::new(0),
        }
    }

    /// Tallies `n` zero-iteration evaluations. A single counter bump, so
    /// the memo-hit path (~97% of a cached day's evaluations) does not pay
    /// for a full histogram record, and a batch of hits costs one bump.
    pub fn note_zero_evals(&self, n: u64) {
        self.zero_evals.set(self.zero_evals.get().saturating_add(n));
    }

    /// Folds the batched zero-iteration evaluations into `newton_iters`.
    /// Must run once before the instruments are snapshotted; afterwards
    /// the histogram is exactly as if every evaluation had been recorded
    /// individually.
    pub fn fold_zero_evals(&self) {
        self.newton_iters.record_zeros(self.zero_evals.replace(0));
    }

    /// The [`schema::COUNTER_PV_EVALS`] record: one per I-V evaluation,
    /// which is one per `newton_iters` observation. Call after
    /// [`Self::fold_zero_evals`].
    pub fn pv_evals(&self) -> Counter {
        let evals = Counter::new(schema::COUNTER_PV_EVALS);
        evals.add(self.newton_iters.count());
        evals
    }
}

/// The engine's one PV access path for a day: the array, its memo when
/// the solver cache is on, and the evaluation tally when telemetry is
/// attached.
///
/// A concrete type, so the controller's solves dispatch to it statically.
/// Each evaluation runs through the memo ([`CachedArray`]) or the plain
/// array. The tally records its Newton-iteration count (0 for memo hits)
/// into [`DayInstruments`] and counts MPP queries. It is the only observer
/// of PV work: evaluation counts and iteration totals are read off the
/// `newton_iters` histogram. The tally changes what is *observed*, never
/// what is *computed*.
///
/// A run of repeated evaluations at one voltage goes to the memo as one
/// batch: the first is tallied with its own iteration count, and the rest,
/// which are memo hits, as zero-iteration evaluations. Without the memo
/// every repeat is a full solve and is tallied as one.
#[derive(Debug)]
pub struct PvHandle<'a> {
    array: &'a PvArray,
    memo: Option<CachedArray<'a>>,
    tally: Option<&'a DayInstruments>,
}

impl<'a> PvHandle<'a> {
    /// A handle on `array`, memoized through `cache` and tallied into
    /// `instruments` when they are given.
    pub fn new(
        array: &'a PvArray,
        cache: Option<&'a ArrayCache>,
        instruments: Option<&'a DayInstruments>,
    ) -> Self {
        Self {
            array,
            memo: cache.map(|cache| CachedArray::new(array, cache)),
            tally: instruments,
        }
    }
}

impl PvGenerator for PvHandle<'_> {
    fn open_circuit_voltage(&self, env: CellEnv) -> Volts {
        match &self.memo {
            Some(memo) => memo.open_circuit_voltage(env),
            None => self.array.open_circuit_voltage(env),
        }
    }

    fn current_at_counted(&self, env: CellEnv, voltage: Volts) -> Result<(Amps, u32), PvError> {
        let (current, iters) = match &self.memo {
            Some(memo) => memo.current_at_counted(env, voltage)?,
            None => self.array.current_at_counted(env, voltage)?,
        };
        if let Some(instruments) = self.tally {
            if iters == 0 {
                instruments.note_zero_evals(1);
            } else {
                instruments.newton_iters.record(u64::from(iters));
            }
        }
        Ok((current, iters))
    }

    fn current_at_repeated(
        &self,
        env: CellEnv,
        voltage: Volts,
        times: u32,
    ) -> Result<Amps, PvError> {
        let mut current = self.current_at(env, voltage)?;
        match &self.memo {
            // After the first evaluation every repeat is a memo hit.
            Some(memo) if times > 1 => {
                current = memo.current_at_repeated(env, voltage, times - 1)?;
                if let Some(instruments) = self.tally {
                    instruments.note_zero_evals(u64::from(times - 1));
                }
            }
            _ => {
                for _ in 1..times {
                    current = self.current_at(env, voltage)?;
                }
            }
        }
        Ok(current)
    }

    fn mpp(&self, env: CellEnv) -> MppPoint {
        if let Some(instruments) = self.tally {
            instruments.mpp_queries.incr();
        }
        self.array.mpp(env)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use powertrain::{solve_operating_point, DcDcConverter, LoadModel};
    use pv::units::{Celsius, Irradiance, Ohms, Watts};

    #[test]
    fn pv_handle_is_bit_transparent_and_tallies() {
        let array = PvArray::solarcore_default();
        let instruments = DayInstruments::new();
        let counting = PvHandle::new(&array, None, Some(&instruments));
        let env = CellEnv::new(Irradiance::new(800.0), Celsius::new(30.0));
        let v = Volts::new(33.0);

        let plain = array.current_at(env, v).unwrap();
        let wrapped = counting.current_at(env, v).unwrap();
        assert_eq!(plain.get().to_bits(), wrapped.get().to_bits());
        assert_eq!(
            counting.mpp(env).power.get().to_bits(),
            array.mpp(env).power.get().to_bits()
        );
        instruments.fold_zero_evals();
        assert_eq!(instruments.pv_evals().get(), 1);
        assert_eq!(instruments.mpp_queries.get(), 1);
        assert_eq!(instruments.newton_iters.count(), 1);
        assert!(instruments.newton_iters.sum() >= 1);

        // One resistive operating-point solve: 96 bisection probes plus the
        // finish evaluation, each costing at least one Newton iteration,
        // and the same bits as the unobserved solve.
        let instruments = DayInstruments::new();
        let counting = PvHandle::new(&array, None, Some(&instruments));
        let dcdc = DcDcConverter::solarcore_default();
        let load = LoadModel::Resistance(Ohms::new(1.2));
        let plain = solve_operating_point(&array, env, &dcdc, &load).unwrap();
        let counted = solve_operating_point(&counting, env, &dcdc, &load).unwrap();
        for (a, b) in [
            (plain.panel_voltage.get(), counted.panel_voltage.get()),
            (plain.output_current.get(), counted.output_current.get()),
        ] {
            assert_eq!(a.to_bits(), b.to_bits());
        }
        instruments.fold_zero_evals();
        assert_eq!(instruments.newton_iters.count(), 97);
        assert!(instruments.newton_iters.sum() >= 97);
        assert_eq!(instruments.pv_evals().get(), 97);

        // Through the memo the same solve gives the same bits and still
        // tallies 97 evaluations, the repeated probes at 0 iterations.
        let cache = ArrayCache::new();
        let instruments = DayInstruments::new();
        let memoized = PvHandle::new(&array, Some(&cache), Some(&instruments));
        let cached = solve_operating_point(&memoized, env, &dcdc, &load).unwrap();
        assert_eq!(cached, plain);
        instruments.fold_zero_evals();
        assert_eq!(instruments.pv_evals().get(), 97);
        let stats = cache.stats();
        assert_eq!(stats.hits + stats.misses, 97);
        assert!(stats.hits > 0 && stats.misses > 0);

        // Without a tally nothing is counted, and the bits stay.
        let silent = PvHandle::new(&array, Some(&cache), None);
        assert_eq!(solve_operating_point(&silent, env, &dcdc, &load), Ok(plain));
        assert_eq!(cache.stats().hits, stats.hits + 97);
    }

    /// Forwards to a handle through `current_at_counted` alone, so the
    /// solver's repeated evaluations reach it one call at a time.
    struct Unbatched<'h>(&'h PvHandle<'h>);

    impl PvGenerator for Unbatched<'_> {
        fn open_circuit_voltage(&self, env: CellEnv) -> Volts {
            self.0.open_circuit_voltage(env)
        }

        fn current_at_counted(&self, env: CellEnv, voltage: Volts) -> Result<(Amps, u32), PvError> {
            self.0.current_at_counted(env, voltage)
        }

        fn mpp(&self, env: CellEnv) -> MppPoint {
            self.0.mpp(env)
        }
    }

    /// With the memo on and off, solves whose repeats reach the handle in
    /// one batch give the bits, the `newton_iters` count and sum and the
    /// memo counters of solves whose repeats arrive one by one: 97
    /// evaluations per solve either way.
    #[test]
    fn batched_repeats_tally_like_single_evaluations() {
        let array = PvArray::solarcore_default();
        let dcdc = DcDcConverter::solarcore_default();
        for memo in [false, true] {
            let caches = [ArrayCache::new(), ArrayCache::new()];
            let tallies = [DayInstruments::new(), DayInstruments::new()];
            let handles = [0, 1]
                .map(|k| PvHandle::new(&array, memo.then_some(&caches[k]), Some(&tallies[k])));
            let single = Unbatched(&handles[1]);
            let mut solves = 0;
            for (g, t) in [(120.0, 4.0), (540.0, 22.0), (910.0, 37.0), (1080.0, 55.0)] {
                let env = CellEnv::new(Irradiance::new(g), Celsius::new(t));
                let p_mpp = array.mpp(env).power.get() * dcdc.efficiency();
                let loads = [0.4, 1.2, 3.0]
                    .map(|r| LoadModel::Resistance(Ohms::new(r)))
                    .into_iter()
                    .chain(
                        [0.3, 0.95]
                            .map(|share| LoadModel::ConstantPower(Watts::new(share * p_mpp))),
                    );
                for load in loads {
                    let batched = solve_operating_point(&handles[0], env, &dcdc, &load).unwrap();
                    let one_by_one = solve_operating_point(&single, env, &dcdc, &load).unwrap();
                    assert_eq!(
                        batched.panel_voltage.get().to_bits(),
                        one_by_one.panel_voltage.get().to_bits()
                    );
                    assert_eq!(
                        batched.panel_current.get().to_bits(),
                        one_by_one.panel_current.get().to_bits()
                    );
                    solves += 1;
                }
            }
            for tally in &tallies {
                tally.fold_zero_evals();
            }
            let [batched, one_by_one] = &tallies;
            assert_eq!(batched.newton_iters.count(), 97 * solves, "memo {memo}");
            assert_eq!(
                batched.newton_iters.count(),
                one_by_one.newton_iters.count()
            );
            assert_eq!(batched.newton_iters.sum(), one_by_one.newton_iters.sum());
            assert_eq!(batched.pv_evals().get(), one_by_one.pv_evals().get());
            assert_eq!(caches[0].stats(), caches[1].stats());
        }
    }

    #[test]
    fn zero_eval_batching_folds_to_individual_records() {
        let batched = DayInstruments::new();
        batched.note_zero_evals(1);
        batched.note_zero_evals(2);
        batched.newton_iters.record(2);
        batched.fold_zero_evals();

        let plain = DayInstruments::new();
        for _ in 0..3 {
            plain.newton_iters.record(0);
        }
        plain.newton_iters.record(2);

        assert_eq!(batched.pv_evals().get(), plain.pv_evals().get());
        assert_eq!(batched.newton_iters.count(), plain.newton_iters.count());
        assert_eq!(batched.newton_iters.sum(), plain.newton_iters.sum());
        // A second fold is a no-op: the batch cell was drained.
        batched.fold_zero_evals();
        assert_eq!(batched.pv_evals().get(), 4);
    }

    #[test]
    fn residency_fields_cover_every_vf_level() {
        assert_eq!(schema::RESIDENCY_LEVELS.len(), archsim::VfLevel::COUNT);
    }

    #[test]
    fn bucket_bounds_are_sorted() {
        for bounds in [
            NEWTON_ITER_BOUNDS,
            TRACK_BOUNDS,
            TPR_MOVE_BOUNDS,
            RATIO_K_BOUNDS,
        ] {
            assert!(bounds.windows(2).all(|w| w[0] < w[1]));
        }
    }
}
