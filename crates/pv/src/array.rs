//! PV array: series/parallel composition of identical modules.
//!
//! The paper sizes the array to the multi-core load it studies (an 8-core
//! chip drawing up to ≈150 W); [`PvArray::solarcore_default`] provides that
//! configuration.

// Conversion-heavy numeric kernel: every `as` cast here must be lossless.
// `cast_possible_truncation` is denied workspace-wide; these two close
// the remaining silent-conversion holes.
#![deny(clippy::cast_sign_loss, clippy::cast_possible_wrap)]

use std::num::NonZeroUsize;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, PoisonError};
use std::thread;

use crate::cell::CellEnv;
use crate::error::PvError;
use crate::generator::PvGenerator;
use crate::module::PvModule;
use crate::mpp::{self, MppPoint};
use crate::solve::ModuleSolver;
use crate::units::{Amps, Volts};

/// Environments per block of [`PvArray::mpp_column`]'s work: about 0.1 ms
/// of golden-section searches, so a day's 601 minutes make ~38 blocks.
const MPP_BLOCK: usize = 16;

/// Stack size of an MPP helper thread. A search needs a few hundred bytes,
/// and a stack smaller than std's 2 MiB default keeps the helper's share of
/// peak RSS down.
const HELPER_STACK: usize = 256 << 10;

/// MPP helper threads running in this process. [`PvArray::mpp_column`]
/// keeps it below the CPU count, so columns computed at once (by the
/// workers of a parallel sweep) share the spare CPUs instead of each
/// spawning a helper per CPU; each helper thread adds its stack and a
/// malloc arena to the peak RSS.
static HELPERS: AtomicUsize = AtomicUsize::new(0);

/// One of the process's helper slots, released on drop.
struct HelperSlot;

impl HelperSlot {
    /// Claims a slot if fewer than `limit` are taken.
    fn claim(limit: usize) -> Option<Self> {
        HELPERS
            .fetch_update(Ordering::AcqRel, Ordering::Acquire, |n| {
                (n < limit).then_some(n + 1)
            })
            .ok()
            .map(|_| HelperSlot)
    }
}

impl Drop for HelperSlot {
    fn drop(&mut self) {
        HELPERS.fetch_sub(1, Ordering::AcqRel);
    }
}

/// An array of identical PV modules: `modules_series` in series per string,
/// `strings_parallel` strings in parallel, all under uniform conditions.
///
/// # Examples
///
/// ```
/// use pv::{PvArray, PvModule, CellEnv};
/// use pv::generator::PvGenerator;
///
/// let array = PvArray::new(PvModule::bp3180n(), 1, 1)?;
/// assert!(array.mpp(CellEnv::stc()).power.get() > 170.0);
/// # Ok::<(), pv::PvError>(())
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct PvArray {
    module: PvModule,
    modules_series: u32,
    strings_parallel: u32,
}

impl PvArray {
    /// Builds an array from a module prototype and a layout.
    ///
    /// # Errors
    ///
    /// Returns [`PvError::InvalidParameter`] if either count is zero.
    pub fn new(
        module: PvModule,
        modules_series: u32,
        strings_parallel: u32,
    ) -> Result<Self, PvError> {
        if modules_series == 0 {
            return Err(PvError::InvalidParameter {
                name: "modules_series",
                value: 0.0,
                constraint: "must be >= 1",
            });
        }
        if strings_parallel == 0 {
            return Err(PvError::InvalidParameter {
                name: "strings_parallel",
                value: 0.0,
                constraint: "must be >= 1",
            });
        }
        Ok(Self {
            module,
            modules_series,
            strings_parallel,
        })
    }

    /// The array configuration used throughout the SolarCore experiments:
    /// a single BP3180N module (180 W nameplate), matching the ≈75–150 W
    /// power range of the simulated 8-core processor (Figures 13–14 plot
    /// budgets up to ~100 W and ~150 W).
    #[expect(
        clippy::expect_used,
        reason = "compile-time-constant paper layout, pinned by a unit test"
    )]
    pub fn solarcore_default() -> Self {
        Self::new(PvModule::bp3180n(), 1, 1).expect("static layout is valid")
    }

    /// The module prototype.
    pub fn module(&self) -> &PvModule {
        &self.module
    }

    /// Modules in series per string.
    pub fn modules_series(&self) -> u32 {
        self.modules_series
    }

    /// Parallel strings.
    pub fn strings_parallel(&self) -> u32 {
        self.strings_parallel
    }

    /// The maximum power point of every environment in `envs`, in order:
    /// entry `i` is bit-identical to `self.mpp(envs[i])`.
    ///
    /// The searches are independent, so the column is cut into contiguous
    /// blocks of 16 environments that the calling thread and scoped helper
    /// threads claim in turn. There is at most one helper per further
    /// available CPU, counted across the process, so concurrent callers do
    /// not multiply threads. Each block's points are written in place at
    /// their own indices, so the bits do not depend on the thread count or
    /// on which thread searched which block. Claiming blocks instead of
    /// owning a fixed share keeps a helper that starts late from holding up
    /// the caller. A helper's panic is resumed on the calling thread.
    pub fn mpp_column(&self, envs: &[CellEnv]) -> Vec<MppPoint> {
        let threads = thread::available_parallelism().map_or(1, NonZeroUsize::get);
        self.mpp_column_in(envs, threads, MPP_BLOCK)
    }

    /// [`Self::mpp_column`] on at most `threads` threads, in blocks of
    /// `block` environments.
    fn mpp_column_in(&self, envs: &[CellEnv], threads: usize, block: usize) -> Vec<MppPoint> {
        let mut column = vec![MppPoint::DARK; envs.len()];
        let block = block.max(1);
        let wanted = threads.min(envs.len().div_ceil(block)).saturating_sub(1);
        let slots: Vec<HelperSlot> = (0..wanted)
            .map_while(|_| HelperSlot::claim(threads.saturating_sub(1)))
            .collect();
        let blocks = Mutex::new(envs.chunks(block).zip(column.chunks_mut(block)));
        let work = || loop {
            let claimed = blocks.lock().unwrap_or_else(PoisonError::into_inner).next();
            let Some((envs, out)) = claimed else { break };
            for (point, &env) in out.iter_mut().zip(envs) {
                *point = self.mpp(env);
            }
        };
        thread::scope(|scope| {
            // A helper that cannot be spawned leaves its blocks to the others.
            let helpers: Vec<_> = slots
                .iter()
                .filter_map(|_| {
                    thread::Builder::new()
                        .stack_size(HELPER_STACK)
                        .spawn_scoped(scope, work)
                        .ok()
                })
                .collect();
            work();
            for helper in helpers {
                if let Err(payload) = helper.join() {
                    std::panic::resume_unwind(payload);
                }
            }
        });
        column
    }

    /// [`PvGenerator::current_at_counted`] through `solver`, which must be
    /// resolved for this array's module; the memo passes one it kept from
    /// an earlier evaluation under the same environment.
    pub(crate) fn current_with(
        &self,
        solver: &ModuleSolver<'_>,
        voltage: Volts,
    ) -> Result<(Amps, u32), PvError> {
        let per_module = voltage / self.modules_series as f64;
        let (current, iters) = solver.current_at_counted(per_module)?;
        Ok((current * self.strings_parallel as f64, iters))
    }
}

impl PvGenerator for PvArray {
    fn open_circuit_voltage(&self, env: CellEnv) -> Volts {
        self.module.open_circuit_voltage(env) * self.modules_series as f64
    }

    fn current_at_counted(&self, env: CellEnv, voltage: Volts) -> Result<(Amps, u32), PvError> {
        self.current_with(&self.module.solver(env), voltage)
    }

    fn mpp(&self, env: CellEnv) -> MppPoint {
        let module_mpp = mpp::find_mpp(&self.module, env);
        MppPoint {
            voltage: module_mpp.voltage * self.modules_series as f64,
            current: module_mpp.current * self.strings_parallel as f64,
            power: module_mpp.power * (self.modules_series * self.strings_parallel) as f64,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::units::Watts;

    #[test]
    fn rejects_zero_layout() {
        assert!(PvArray::new(PvModule::bp3180n(), 0, 1).is_err());
        assert!(PvArray::new(PvModule::bp3180n(), 1, 0).is_err());
    }

    #[test]
    fn two_by_three_array_scales_mpp() {
        let single = PvArray::new(PvModule::bp3180n(), 1, 1).unwrap();
        let array = PvArray::new(PvModule::bp3180n(), 2, 3).unwrap();
        let env = CellEnv::stc();
        let s = single.mpp(env);
        let a = array.mpp(env);
        assert!((a.voltage.get() - 2.0 * s.voltage.get()).abs() < 1e-6);
        assert!((a.current.get() - 3.0 * s.current.get()).abs() < 1e-6);
        assert!((a.power.get() - 6.0 * s.power.get()).abs() < 1e-6);
    }

    #[test]
    fn array_current_consistent_with_module() {
        let array = PvArray::new(PvModule::bp3180n(), 2, 2).unwrap();
        let env = CellEnv::stc();
        let v = Volts::new(72.0); // 36 V per module
        let i = array.current_at(env, v).unwrap();
        let i_module = array.module().current_at(env, Volts::new(36.0)).unwrap();
        assert!((i.get() - 2.0 * i_module.get()).abs() < 1e-9);
    }

    #[test]
    fn mpp_column_bits_do_not_depend_on_the_split() {
        use crate::units::{Celsius, Irradiance};
        let array = PvArray::new(PvModule::bp3180n(), 2, 3).unwrap();
        let day: Vec<CellEnv> = (0..41)
            .map(|m| {
                let g = (f64::from(m) * 0.08).sin().max(0.0) * 1100.0;
                CellEnv::new(Irradiance::new(g), Celsius::new(5.0 + f64::from(m)))
            })
            .collect();
        let bits = |column: &[MppPoint]| -> Vec<[u64; 3]> {
            column
                .iter()
                .map(|p| {
                    [
                        p.voltage.get().to_bits(),
                        p.current.get().to_bits(),
                        p.power.get().to_bits(),
                    ]
                })
                .collect()
        };
        for envs in [&day[..], &day[7..8], &[]] {
            let want: Vec<MppPoint> = envs.iter().map(|&e| array.mpp(e)).collect();
            for threads in [1, 2, 3, 7] {
                for block in [1, 3, MPP_BLOCK, 64] {
                    let got = array.mpp_column_in(envs, threads, block);
                    let case = format!("{} envs, {threads} threads, block {block}", envs.len());
                    assert_eq!(bits(&got), bits(&want), "{case}");
                }
            }
            assert_eq!(bits(&array.mpp_column(envs)), bits(&want));
        }
        assert!(day.iter().any(|e| e.irradiance.get() == 0.0));
    }

    #[test]
    fn default_array_covers_multicore_budget() {
        let array = PvArray::solarcore_default();
        let p: Watts = array.mpp(CellEnv::stc()).power;
        assert!(p.get() > 150.0, "array must cover the 8-core peak: {p}");
    }
}
