//! Warm-started I-V solving and bitwise-transparent result caching.
//!
//! The SolarCore engine solves the module's implicit I-V equation hundreds
//! of thousands of times per simulated day — per tracking perturbation, per
//! golden-section MPP probe, per bisection step of the operating-point
//! solver. Two observations make that hot path fast without changing a
//! single output bit:
//!
//! 1. **Coefficient hoisting** ([`ModuleSolver`]): within one `(G, T)`
//!    environment the photocurrent `Iph`, saturation current `I0` and the
//!    slope scale `n·Vt` are constants, yet the naive solver recomputed
//!    them (two transcendental-heavy evaluations) on every Newton
//!    iteration. The solver resolves them once per environment and replays
//!    the *exact same arithmetic* against the resolved values, so every
//!    returned bit matches the cold path.
//! 2. **Exact-bits memoization** ([`ArrayCache`] / [`CachedArray`]): the
//!    controller's perturb-and-observe loop and the operating-point
//!    solver re-evaluate *identical* `(G, T, V)` triples many times over.
//!    A bounded, deterministic, set-associative memo keyed on
//!    [`f64::to_bits`] returns the previously computed bits verbatim.
//!    Exact-key lookups can never substitute a "close enough" neighbour,
//!    which is what keeps the determinism harness hashes unchanged. A
//!    second, per-environment memo holds each `(G, T)`'s `Voc`, which
//!    every operating-point solve asks for. The MPP is not memoized: the
//!    engine computes each minute's once, when the day is prepared
//!    ([`PvArray::mpp_column`]).
//!
//! Below the cell's `Voc` the current solve also skips the bracket
//! expansion's first residual, which provably could not expand the
//! bracket there (DESIGN.md §13, mechanism 5).
//!
//! Deliberately *not* implemented: seeding Newton from a neighbouring
//! operating point. A different starting iterate walks a different
//! iteration path and converges to a ULP-different root, which would break
//! the bitwise-reproducibility contract (see DESIGN.md §13).
//!
//! The memo structure is a fixed-capacity flat array of 4-way sets with
//! eldest-stamp replacement — no `HashMap` (an iteration-order hazard the
//! root `clippy.toml` disallows), no unbounded growth, no ambient state. A
//! slot whose stamp is 0 is empty; every stored entry has a stamp of at
//! least 1.
//!
//! The operating-point solver drives the memo ~97 times per solve and
//! ~97% of those lookups hit, so the lookup is kept cheap by four
//! mechanisms that leave the memo's state evolution unchanged — the same
//! set index, stamp sequence, replacement choice, hit/miss sequence and
//! returned bits as a full FNV-1a hash and set scan on every call:
//!
//! 1. **Hoisted environment prefix.** FNV-1a consumes bytes in order, so
//!    the state after the `(G, T)` bytes is a function of `(G, T)` alone.
//!    The cache keeps that state for the last environment it hashed and
//!    continues it over the 8 voltage bytes; the result is the full-key
//!    hash, so the set index is the same.
//! 2. **Successor links.** Each solve entry records the slot of the lookup
//!    that followed its last hit or store, and a lookup first tries the
//!    slot linked from the previous one. It takes that slot only when it
//!    holds exactly the key: entries live only in their own set and a set
//!    never holds a key twice (a store follows only a miss of the same
//!    key), so that is the way the hash and scan would find. A tracker
//!    re-solving the previous operating point, or a bisection re-probing
//!    the voltage it just probed, then skips the hash and the scan.
//! 3. **One hash per miss.** A missed lookup returns its set index and the
//!    store takes it; both still tick the stamp.
//! 4. **Resolved coefficients per miss.** The cache keeps the
//!    [`CellCoeffs`] of the last environment a miss solved under, so a
//!    miss in the same `(G, T)` skips [`CellCoeffs::resolve`] and the
//!    `ln` of the cell's `Voc`. The solve is the plain array's code run
//!    against those coefficients.
//!
//! A test-only copy of the old lookup is run against this one on one probe
//! stream, and the two tables must match entry for entry.

use core::cell::RefCell;

use crate::array::PvArray;
use crate::cell::{CellCoeffs, CellEnv};
use crate::error::PvError;
use crate::generator::PvGenerator;
use crate::module::PvModule;
use crate::mpp::{self, MppPoint};
use crate::units::{Amps, Volts, Watts};

/// A per-environment module solver: [`CellCoeffs`] resolved once, then
/// reused across every residual evaluation of every solve under the same
/// `(G, T)`.
///
/// All methods are bitwise identical to the corresponding [`PvModule`]
/// methods (which construct a throwaway solver per call); holding a solver
/// across calls only amortizes the coefficient resolution.
#[derive(Debug, Clone)]
pub struct ModuleSolver<'m> {
    module: &'m PvModule,
    env: CellEnv,
    coeffs: CellCoeffs,
    /// Per-cell open-circuit voltage of `coeffs` (zero in darkness): below
    /// it the current solve's bracket needs no expansion.
    voc_cell: Volts,
}

/// Maximum iterations for the hybrid Newton/bisection current solver.
const MAX_SOLVER_ITERS: u32 = 128;

/// Convergence tolerance on the current residual, in amperes.
const CURRENT_TOLERANCE: f64 = 1e-10;

impl<'m> ModuleSolver<'m> {
    /// Resolves the `(G, T)` coefficients of `module` under `env`.
    pub fn new(module: &'m PvModule, env: CellEnv) -> Self {
        let coeffs = CellCoeffs::resolve(module.cell(), env);
        Self {
            module,
            env,
            coeffs,
            voc_cell: coeffs.open_circuit_cell_voltage(),
        }
    }

    /// The module this solver was resolved for.
    pub fn module(&self) -> &'m PvModule {
        self.module
    }

    /// The environment this solver was resolved for.
    pub fn env(&self) -> CellEnv {
        self.env
    }

    /// Open-circuit voltage `Voc` (closed form); zero in darkness.
    pub fn open_circuit_voltage(&self) -> Volts {
        if self.voc_cell <= Volts::ZERO {
            return Volts::ZERO;
        }
        Volts::new(self.voc_cell.get() * self.module.cells_series() as f64)
    }

    /// Module output current at a prescribed terminal voltage — the
    /// bracketed Newton/bisection hybrid of [`PvModule::current_at`], run
    /// against the pre-resolved coefficients.
    ///
    /// # Errors
    ///
    /// Returns [`PvError::NoConvergence`] if the solver exhausts its
    /// iteration budget (not expected for physical inputs) and
    /// [`PvError::InvalidParameter`] for non-finite voltage.
    pub fn current_at(&self, voltage: Volts) -> Result<Amps, PvError> {
        Ok(self.current_at_counted(voltage)?.0)
    }

    /// [`Self::current_at`] plus the number of Newton/bisection iterations
    /// the solve took — the telemetry subsystem's per-solve cost signal
    /// (DESIGN.md §14). The arithmetic is *identical* to `current_at`
    /// (which now delegates here), so counting is observationally free:
    /// every returned current bit is unchanged.
    ///
    /// # Errors
    ///
    /// Same contract as [`Self::current_at`].
    pub fn current_at_counted(&self, voltage: Volts) -> Result<(Amps, u32), PvError> {
        if !voltage.is_finite() {
            return Err(PvError::InvalidParameter {
                name: "voltage",
                value: voltage.get(),
                constraint: "must be finite",
            });
        }
        let v_cell = Volts::new(voltage.get() / self.module.cells_series() as f64);
        let iph = self.coeffs.photocurrent().get();

        // Bracket the root of the strictly-decreasing residual f(i):
        // f(iph) <= 0 always; expand the lower bound until f(lo) >= 0.
        // Up to the cell's Voc the start already brackets it: lo <= -0.01
        // and v_cell + lo·Rs <= Voc,cell give I0·expm1(arg) <= Iph (to
        // ~1e-13 A of rounding), so f(lo) >= -lo - 1e-13 > 0 and the
        // expansion loop could not run. Skipping its residual there is
        // exact (DESIGN.md §13, mechanism 5).
        let mut hi = iph;
        let mut lo = 0.0_f64.min(-0.01 * iph.max(1.0));
        if v_cell > self.voc_cell {
            let mut expand = 0;
            while self.coeffs.residual(v_cell, Amps::new(lo)).get() < 0.0 {
                lo = lo * 4.0 - 1.0;
                expand += 1;
                if expand > 64 {
                    return Err(PvError::NoConvergence {
                        context: "bracketing module current",
                        iterations: expand,
                    });
                }
            }
        }
        debug_assert!(self.coeffs.residual(v_cell, Amps::new(hi)).get() <= 0.0);

        // Newton iterations, falling back to bisection whenever the step
        // would leave the bracket (guaranteed convergence).
        let strings = self.module.strings_parallel() as f64;
        let mut i = 0.5 * (lo + hi);
        for iter in 0..MAX_SOLVER_ITERS {
            let f = self.coeffs.residual(v_cell, Amps::new(i)).get();
            if f.abs() < CURRENT_TOLERANCE {
                return Ok((Amps::new(i * strings), iter + 1));
            }
            if f > 0.0 {
                lo = i;
            } else {
                hi = i;
            }
            let df = self.coeffs.residual_di(v_cell, Amps::new(i));
            let newton = i - f / df;
            i = if newton > lo && newton < hi {
                newton
            } else {
                0.5 * (lo + hi)
            };
            if (hi - lo).abs() < CURRENT_TOLERANCE {
                return Ok((Amps::new(i * strings), iter + 1));
            }
        }
        Err(PvError::NoConvergence {
            context: "module current at voltage",
            iterations: MAX_SOLVER_ITERS,
        })
    }

    /// Output power at a prescribed terminal voltage.
    ///
    /// # Errors
    ///
    /// Propagates errors from [`Self::current_at`].
    pub fn power_at(&self, voltage: Volts) -> Result<Watts, PvError> {
        Ok(voltage * self.current_at(voltage)?)
    }

    /// Locates the module's maximum power point; delegates to
    /// [`mpp::find_mpp_with`] so the whole golden-section search shares one
    /// coefficient resolution.
    pub fn mpp(&self) -> MppPoint {
        mpp::find_mpp_with(self)
    }
}

/// Exact-bits key of one cached quantity: the `to_bits` patterns of
/// irradiance and temperature, plus (for I-V solves) the terminal voltage.
type EnvKey = (u64, u64);

/// Key of one I-V solve: environment plus terminal-voltage bits.
type SolveKey = (u64, u64, u64);

/// Associativity of the memo sets: replacement candidates per index.
const WAYS: usize = 4;

/// Sets in the I-V solve memo (capacity = `SOLVE_SETS × WAYS` entries).
/// Sized to hold the working set of a few simulated minutes of controller
/// perturbation with room to spare; 48 B/entry, so 192 KiB total.
const SOLVE_SETS: usize = 1024;

/// Sets in the per-environment `Voc` memo. A simulated day has 601
/// distinct `(G, T)` samples; `512 × 4` entries keep a whole day resident,
/// so across all the policies of a batch only the first operating-point
/// solve under each `(G, T)` computes its `Voc`.
const ENV_SETS: usize = 512;

/// One stored I-V solve; a stamp of 0 marks an empty slot.
#[derive(Debug, Clone, Copy, Default)]
struct SolveEntry {
    key: SolveKey,
    /// `to_bits` of the solved current — stored and returned verbatim.
    current_bits: u64,
    /// Replacement stamp (monotonic per cache; eldest way is evicted).
    stamp: u64,
    /// Slot of the lookup that followed this entry's last hit or store,
    /// which the next lookup tries first. A store links the entry to
    /// itself.
    next: u32,
}

// The 4-byte link fits in the padding of the 44-byte entry.
const _: () = assert!(core::mem::size_of::<SolveEntry>() == 48);

impl SolveEntry {
    /// `true` when the slot is occupied by `key`. The stamp test keeps an
    /// empty slot from matching the all-zero key of `(+0, +0, +0)`.
    fn holds(&self, key: SolveKey) -> bool {
        self.stamp != 0 && self.key == key
    }
}

/// One stored per-environment record; a stamp of 0 marks an empty slot.
#[derive(Debug, Clone, Copy, Default)]
struct EnvEntry {
    key: EnvKey,
    /// `to_bits` of the open-circuit voltage.
    voc_bits: u64,
    stamp: u64,
}

/// FNV-1a offset basis: the hash state before any key byte.
const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// Continues FNV-1a from state `h` over the key words' little-endian bytes.
/// FNV-1a is sequential, so `fnv_from(fnv(a), b) == fnv(a ++ b)`.
fn fnv_from(mut h: u64, words: &[u64]) -> u64 {
    for w in words {
        for b in w.to_le_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

/// FNV-1a over the key bytes — deterministic, platform-independent set
/// indexing (the same construction the determinism harness hashes with).
fn fnv(words: &[u64]) -> u64 {
    fnv_from(FNV_OFFSET, words)
}

// Set indices are `hash % set-count` with set-count ≤ 1024, so the cast
// cannot truncate. Callers pass the power-of-two set-count constants, so
// the remainder compiles to a mask.
#[allow(clippy::cast_possible_truncation)]
fn set_index(hash: u64, sets: usize) -> usize {
    (hash % sets as u64) as usize
}

/// The slots of set `set` in a flat table of `WAYS`-way sets.
fn ways(set: usize) -> core::ops::Range<usize> {
    set * WAYS..(set + 1) * WAYS
}

/// Mutable interior of an [`ArrayCache`].
#[derive(Debug)]
struct CacheState {
    /// `SOLVE_SETS` sets of `WAYS` slots, set `s` at [`ways`]`(s)`.
    solves: Vec<SolveEntry>,
    /// `ENV_SETS` sets of `WAYS` slots, laid out like `solves`.
    envs: Vec<EnvEntry>,
    stamp: u64,
    hits: u64,
    misses: u64,
    /// The environment key last hashed and its FNV-1a state, `fnv(&[g, t])`:
    /// both memos' set indices continue from it.
    env_hash: (EnvKey, u64),
    /// Slot of the last solve hit or store: the next lookup tries the slot
    /// it links to, then links it to the slot that lookup lands on. Slot 0
    /// before the first, whose link is harmless to follow or write.
    last: usize,
    /// The environment of the last missed solve, its resolved coefficients
    /// and per-cell `Voc`.
    resolved: Option<(EnvKey, CellCoeffs, Volts)>,
}

impl CacheState {
    fn new() -> Self {
        Self {
            solves: vec![SolveEntry::default(); SOLVE_SETS * WAYS],
            envs: vec![EnvEntry::default(); ENV_SETS * WAYS],
            stamp: 0,
            hits: 0,
            misses: 0,
            env_hash: ((0, 0), fnv(&[0, 0])),
            last: 0,
            resolved: None,
        }
    }

    fn tick(&mut self) -> u64 {
        self.stamp = self.stamp.wrapping_add(1);
        self.stamp
    }

    /// `fnv(&[key.0, key.1])`, rehashed only when the environment changes.
    fn hash_env(&mut self, key: EnvKey) -> u64 {
        if self.env_hash.0 != key {
            self.env_hash = (key, fnv(&[key.0, key.1]));
        }
        self.env_hash.1
    }

    /// Makes `slot` the successor of the last hit or store, and the new
    /// last.
    #[allow(clippy::cast_possible_truncation)] // slots < SOLVE_SETS × WAYS
    fn link(&mut self, slot: usize) {
        self.solves[self.last].next = slot as u32;
        self.last = slot;
    }

    /// Looks up one solve. A hit returns the stored current bits; a miss
    /// returns the key's set index for [`Self::store_solve`].
    fn lookup_solve(&mut self, key: SolveKey) -> Result<u64, usize> {
        let stamp = self.tick();
        // The linked successor, if it holds the key, is the way the scan
        // below would find: a key lives only in its own set, once.
        let predicted = self.solves[self.last].next as usize;
        let entry = &mut self.solves[predicted];
        if entry.holds(key) {
            entry.stamp = stamp;
            self.hits += 1;
            self.last = predicted;
            return Ok(entry.current_bits);
        }
        let set = set_index(
            fnv_from(self.hash_env((key.0, key.1)), &[key.2]),
            SOLVE_SETS,
        );
        for slot in ways(set) {
            let entry = &mut self.solves[slot];
            if entry.holds(key) {
                entry.stamp = stamp;
                let bits = entry.current_bits;
                self.hits += 1;
                self.link(slot);
                return Ok(bits);
            }
        }
        self.misses += 1;
        Err(set)
    }

    /// Stores a solved current into `set`, the index a missed
    /// [`Self::lookup_solve`] of `key` returned.
    #[allow(clippy::cast_possible_truncation)] // slots < SOLVE_SETS × WAYS
    fn store_solve(&mut self, set: usize, key: SolveKey, current_bits: u64) {
        let stamp = self.tick();
        let slots = ways(set);
        let slot = slots.start + eldest_way(self.solves[slots].iter().map(|e| e.stamp));
        self.solves[slot] = SolveEntry {
            key,
            current_bits,
            stamp,
            next: slot as u32,
        };
        self.link(slot);
    }

    /// A solver for `env` on `module`, reusing the coefficients resolved
    /// for the last missed environment when `env` is that one.
    fn solver<'m>(&mut self, module: &'m PvModule, env: CellEnv, key: EnvKey) -> ModuleSolver<'m> {
        if let Some((resolved, coeffs, voc_cell)) = self.resolved {
            if resolved == key {
                return ModuleSolver {
                    module,
                    env,
                    coeffs,
                    voc_cell,
                };
            }
        }
        let solver = ModuleSolver::new(module, env);
        self.resolved = Some((key, solver.coeffs, solver.voc_cell));
        solver
    }

    /// Looks up the stored `Voc` bits of one environment.
    fn lookup_env(&mut self, key: EnvKey) -> Option<u64> {
        let set = set_index(self.hash_env(key), ENV_SETS);
        let stamp = self.tick();
        for entry in &mut self.envs[ways(set)] {
            if entry.stamp != 0 && entry.key == key {
                entry.stamp = stamp;
                return Some(entry.voc_bits);
            }
        }
        None
    }

    /// Stores the `Voc` bits of an environment [`Self::lookup_env`] missed.
    fn store_env(&mut self, key: EnvKey, voc_bits: u64) {
        let slots = ways(set_index(self.hash_env(key), ENV_SETS));
        let stamp = self.tick();
        let slot = slots.start + eldest_way(self.envs[slots].iter().map(|e| e.stamp));
        self.envs[slot] = EnvEntry {
            key,
            voc_bits,
            stamp,
        };
    }
}

/// Picks the replacement way: the first empty slot (stamp 0), else the
/// eldest stamp. Purely a function of cache history — no randomness, no
/// ambient state — so replacement (and therefore every hit/miss sequence)
/// is deterministic.
fn eldest_way(stamps: impl Iterator<Item = u64>) -> usize {
    let mut slot = 0;
    let mut eldest = u64::MAX;
    for (i, stamp) in stamps.enumerate() {
        if stamp < eldest {
            eldest = stamp;
            slot = i;
        }
    }
    slot
}

/// Hit/miss counters of an [`ArrayCache`], for tests and benchmarks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheStats {
    /// Exact-key I-V solve lookups that returned stored bits.
    pub hits: u64,
    /// I-V solve lookups that fell through to the cold solver.
    pub misses: u64,
}

/// Bounded, deterministic memo for one [`PvArray`]'s solved quantities,
/// keyed on exact `f64` bit patterns.
///
/// Interior-mutable (`RefCell`) so it can sit behind the `&self` methods of
/// [`PvGenerator`]; consequently single-threaded by construction, which
/// matches how the engine uses it — one cache per day-simulation run, each
/// run confined to one worker thread of the deterministic `parallel_map`.
/// Its entries, and the coefficients it keeps for misses, hold only for
/// the module of the array they were solved on.
#[derive(Debug)]
pub struct ArrayCache {
    state: RefCell<CacheState>,
}

impl Default for ArrayCache {
    fn default() -> Self {
        Self::new()
    }
}

impl ArrayCache {
    /// Creates an empty cache.
    pub fn new() -> Self {
        Self {
            state: RefCell::new(CacheState::new()),
        }
    }

    /// Current hit/miss counters (I-V solve memo only).
    pub fn stats(&self) -> CacheStats {
        let state = self.state.borrow();
        CacheStats {
            hits: state.hits,
            misses: state.misses,
        }
    }
}

/// A [`PvArray`] view that consults an [`ArrayCache`] before solving.
///
/// Every miss runs the *plain* [`PvArray`] evaluation and stores the
/// returned bits; every hit replays stored bits verbatim. The wrapper
/// therefore cannot produce a value the uncached array would not —
/// bit-transparency is structural, not numerical, and the differential
/// tests in `crates/pv/tests/cache_transparency.rs` verify it end to end.
#[derive(Debug)]
pub struct CachedArray<'a> {
    array: &'a PvArray,
    cache: &'a ArrayCache,
}

impl<'a> CachedArray<'a> {
    /// Attaches a cache to an array.
    pub fn new(array: &'a PvArray, cache: &'a ArrayCache) -> Self {
        Self { array, cache }
    }

    /// The wrapped array.
    pub fn array(&self) -> &'a PvArray {
        self.array
    }

    fn env_key(env: CellEnv) -> EnvKey {
        (
            env.irradiance.get().to_bits(),
            env.temperature.get().to_bits(),
        )
    }
}

impl PvGenerator for CachedArray<'_> {
    fn open_circuit_voltage(&self, env: CellEnv) -> Volts {
        let key = Self::env_key(env);
        let mut state = self.cache.state.borrow_mut();
        if let Some(bits) = state.lookup_env(key) {
            return Volts::new(f64::from_bits(bits));
        }
        let voc = self.array.open_circuit_voltage(env);
        state.store_env(key, voc.get().to_bits());
        voc
    }

    fn current_at_counted(&self, env: CellEnv, voltage: Volts) -> Result<(Amps, u32), PvError> {
        if !voltage.is_finite() {
            // Error paths are not memoized; delegate for the exact error.
            return self.array.current_at_counted(env, voltage);
        }
        let env_key = Self::env_key(env);
        let key = (env_key.0, env_key.1, voltage.get().to_bits());
        let mut state = self.cache.state.borrow_mut();
        let set = match state.lookup_solve(key) {
            // A replayed memo entry costs zero solver iterations — exactly
            // what the telemetry histogram should show for a warm cache.
            Ok(bits) => return Ok((Amps::new(f64::from_bits(bits)), 0)),
            Err(set) => set,
        };
        let solver = state.solver(self.array.module(), env, env_key);
        let (current, iters) = self.array.current_with(&solver, voltage)?;
        state.store_solve(set, key, current.get().to_bits());
        Ok((current, iters))
    }

    /// Not memoized: the engine reads each minute's MPP from the setup's
    /// precomputed column ([`PvArray::mpp_column`]), so no caller asks twice.
    fn mpp(&self, env: CellEnv) -> MppPoint {
        self.array.mpp(env)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::units::{Celsius, Irradiance};

    fn env(g: f64, t: f64) -> CellEnv {
        CellEnv::new(Irradiance::new(g), Celsius::new(t))
    }

    #[test]
    fn solver_matches_module_bit_for_bit() {
        let module = PvModule::bp3180n();
        for (g, t) in [(1000.0, 25.0), (450.0, 11.0), (80.0, -3.0), (0.0, 20.0)] {
            let e = env(g, t);
            let solver = ModuleSolver::new(&module, e);
            assert_eq!(
                solver.open_circuit_voltage().get().to_bits(),
                module.open_circuit_voltage(e).get().to_bits()
            );
            for step in 0..=45 {
                let v = Volts::new(step as f64);
                let a = solver.current_at(v).unwrap().get().to_bits();
                let b = module.current_at(e, v).unwrap().get().to_bits();
                assert_eq!(a, b, "G={g} T={t} V={step}");
            }
            let sm = solver.mpp();
            let mm = module.mpp(e);
            assert_eq!(sm.voltage.get().to_bits(), mm.voltage.get().to_bits());
            assert_eq!(sm.power.get().to_bits(), mm.power.get().to_bits());
        }
    }

    /// `ModuleSolver::current_at_counted` as it was before the bracket
    /// skip: the expansion loop's first residual runs on every solve.
    fn current_with_full_bracket(
        solver: &ModuleSolver<'_>,
        voltage: Volts,
    ) -> Result<(Amps, u32), PvError> {
        let v_cell = Volts::new(voltage.get() / solver.module.cells_series() as f64);
        let iph = solver.coeffs.photocurrent().get();
        let mut hi = iph;
        let mut lo = 0.0_f64.min(-0.01 * iph.max(1.0));
        let mut expand = 0;
        while solver.coeffs.residual(v_cell, Amps::new(lo)).get() < 0.0 {
            lo = lo * 4.0 - 1.0;
            expand += 1;
            if expand > 64 {
                return Err(PvError::NoConvergence {
                    context: "bracketing module current",
                    iterations: expand,
                });
            }
        }
        let strings = solver.module.strings_parallel() as f64;
        let mut i = 0.5 * (lo + hi);
        for iter in 0..MAX_SOLVER_ITERS {
            let f = solver.coeffs.residual(v_cell, Amps::new(i)).get();
            if f.abs() < CURRENT_TOLERANCE {
                return Ok((Amps::new(i * strings), iter + 1));
            }
            if f > 0.0 {
                lo = i;
            } else {
                hi = i;
            }
            let df = solver.coeffs.residual_di(v_cell, Amps::new(i));
            let newton = i - f / df;
            i = if newton > lo && newton < hi {
                newton
            } else {
                0.5 * (lo + hi)
            };
            if (hi - lo).abs() < CURRENT_TOLERANCE {
                return Ok((Amps::new(i * strings), iter + 1));
            }
        }
        Err(PvError::NoConvergence {
            context: "module current at voltage",
            iterations: MAX_SOLVER_ITERS,
        })
    }

    /// The BP3180N and a 72-cell module whose cell has no series
    /// resistance.
    fn bracket_modules() -> [PvModule; 2] {
        let cell = crate::cell::CellParams::new(
            Amps::new(5.4),
            Amps::new(5.0e-9),
            1.3,
            crate::units::Ohms::ZERO,
            0.003,
        )
        .unwrap();
        [
            PvModule::bp3180n(),
            PvModule::new("Rs = 0", cell, 72, 1).unwrap(),
        ]
    }

    /// Up to the cell's `Voc` the bracket's start already has
    /// `residual(lo) >= 0`, and the solve returns the bits and iteration
    /// count of the full-bracket copy.
    ///
    /// The solves are compared only where `hi = Iph` bounds the root
    /// (`residual(hi) <= 0`, which the solver debug-asserts). Below about
    /// `-Iph·Rs` per cell, and so at any negative voltage in the dark, the
    /// root lies above `Iph`; no caller probes there.
    fn check_bracket_skip(module: &PvModule, e: CellEnv, voltage: Volts) -> Result<(), String> {
        let solver = ModuleSolver::new(module, e);
        let v_cell = Volts::new(voltage.get() / module.cells_series() as f64);
        let iph = solver.coeffs.photocurrent();
        let lo = 0.0_f64.min(-0.01 * iph.get().max(1.0));
        if v_cell <= solver.voc_cell && solver.coeffs.residual(v_cell, Amps::new(lo)).get() < 0.0 {
            return Err(format!("residual(lo) < 0 at {e:?}, V = {voltage}"));
        }
        if solver.coeffs.residual(v_cell, iph).get() > 0.0 {
            return Ok(());
        }
        let got = solver
            .current_at_counted(voltage)
            .map(|(i, n)| (i.get().to_bits(), n));
        let want = current_with_full_bracket(&solver, voltage).map(|(i, n)| (i.get().to_bits(), n));
        if got != want {
            return Err(format!("{got:?} != {want:?} at {e:?}, V = {voltage}"));
        }
        Ok(())
    }

    proptest::proptest! {
        #![proptest_config(proptest::test_runner::ProptestConfig::with_cases(256))]

        #[test]
        fn bracket_skip_is_exact_up_to_voc(
            g in 0.0..1400.0_f64,
            t in -20.0..85.0_f64,
            frac in 0.0..=1.0_f64,
        ) {
            for module in &bracket_modules() {
                let e = env(g, t);
                let voc = module.open_circuit_voltage(e).get();
                let voltage = Volts::new(-1.0 + frac * (voc + 1.0));
                let checked = check_bracket_skip(module, e, voltage);
                proptest::prop_assert!(checked.is_ok(), "{:?}", checked);
            }
        }
    }

    #[test]
    fn bracket_skip_is_exact_at_the_edges() {
        for module in &bracket_modules() {
            for g in [0.0, 1e-9, 1.0, 1400.0] {
                for t in [-20.0, 25.0, 85.0] {
                    let e = env(g, t);
                    let voc = module.open_circuit_voltage(e).get();
                    // -1 V, 0 V, Voc and its float neighbours (the one above
                    // runs the expansion loop), and a point well beyond Voc.
                    for v in [
                        -1.0,
                        0.0,
                        voc,
                        f64::from_bits(voc.to_bits().saturating_sub(1)),
                        f64::from_bits(voc.to_bits() + 1),
                        voc + 5.0,
                    ] {
                        check_bracket_skip(module, e, Volts::new(v)).unwrap();
                    }
                }
            }
        }
    }

    #[test]
    fn cached_array_replays_stored_bits() {
        let array = PvArray::solarcore_default();
        let cache = ArrayCache::new();
        let cached = CachedArray::new(&array, &cache);
        let e = env(700.0, 30.0);
        let v = Volts::new(33.5);

        let cold = array.current_at(e, v).unwrap();
        let first = cached.current_at(e, v).unwrap();
        let second = cached.current_at(e, v).unwrap();
        assert_eq!(cold.get().to_bits(), first.get().to_bits());
        assert_eq!(first.get().to_bits(), second.get().to_bits());
        let stats = cache.stats();
        assert_eq!(stats.hits, 1);
        assert_eq!(stats.misses, 1);
    }

    #[test]
    fn cached_mpp_and_voc_match_plain_array() {
        let array = PvArray::solarcore_default();
        let cache = ArrayCache::new();
        let cached = CachedArray::new(&array, &cache);
        let e = env(820.0, 18.5);
        // Twice each: miss then hit, identical bits both times.
        for _ in 0..2 {
            assert_eq!(
                cached.mpp(e).power.get().to_bits(),
                array.mpp(e).power.get().to_bits()
            );
            assert_eq!(
                cached.open_circuit_voltage(e).get().to_bits(),
                array.open_circuit_voltage(e).get().to_bits()
            );
        }
    }

    #[test]
    fn cache_capacity_is_bounded_under_churn() {
        let array = PvArray::solarcore_default();
        let cache = ArrayCache::new();
        let cached = CachedArray::new(&array, &cache);
        // Far more distinct keys than capacity: replacement must cycle
        // without panicking and later lookups must still be correct.
        for step in 0..6000 {
            let v = Volts::new(10.0 + (step % 300) as f64 * 0.1);
            let e = env(400.0 + (step / 300) as f64, 25.0);
            let a = cached.current_at(e, v).unwrap();
            let b = array.current_at(e, v).unwrap();
            assert_eq!(a.get().to_bits(), b.get().to_bits());
        }
    }

    #[test]
    fn error_paths_are_uncached_and_propagate() {
        let array = PvArray::solarcore_default();
        let cache = ArrayCache::new();
        let cached = CachedArray::new(&array, &cache);
        let e = env(1000.0, 25.0);
        assert!(cached.current_at(e, Volts::new(f64::NAN)).is_err());
        assert_eq!(cache.stats().misses, 0);
    }

    #[test]
    fn eldest_way_prefers_empty_then_oldest() {
        use super::eldest_way;
        assert_eq!(eldest_way([0, 0].into_iter()), 0);
        assert_eq!(eldest_way([5, 0].into_iter()), 1);
        assert_eq!(eldest_way([5, 2, 9].into_iter()), 1);
    }

    /// The memo's entries and replacement rule as the reference model
    /// stores them: a slot is `None` when empty.
    #[derive(Clone, Copy)]
    struct SolveEntry {
        key: SolveKey,
        current_bits: u64,
        stamp: u64,
    }

    #[derive(Clone, Copy)]
    struct EnvEntry {
        key: EnvKey,
        voc_bits: u64,
        stamp: u64,
    }

    fn eldest_way(stamps: impl Iterator<Item = Option<u64>>) -> usize {
        let mut slot = 0;
        let mut eldest = u64::MAX;
        for (i, stamp) in stamps.enumerate() {
            match stamp {
                None => return i,
                Some(s) if s < eldest => {
                    eldest = s;
                    slot = i;
                }
                Some(_) => {}
            }
        }
        slot
    }

    /// The memo as it was before the prefix hash, the fast paths, the
    /// single hash per miss and the flat layout: a full 24-byte FNV-1a per
    /// call and a set scan on every lookup.
    struct ReferenceMemo {
        solves: Vec<[Option<SolveEntry>; WAYS]>,
        envs: Vec<[Option<EnvEntry>; WAYS]>,
        stamp: u64,
        hits: u64,
        misses: u64,
    }

    impl ReferenceMemo {
        fn new() -> Self {
            Self {
                solves: vec![[None; WAYS]; SOLVE_SETS],
                envs: vec![[None; WAYS]; ENV_SETS],
                stamp: 0,
                hits: 0,
                misses: 0,
            }
        }

        fn tick(&mut self) -> u64 {
            self.stamp = self.stamp.wrapping_add(1);
            self.stamp
        }

        fn lookup_solve(&mut self, key: SolveKey) -> Option<u64> {
            let idx = set_index(fnv(&[key.0, key.1, key.2]), self.solves.len());
            let stamp = self.tick();
            for entry in self.solves[idx].iter_mut().flatten() {
                if entry.key == key {
                    entry.stamp = stamp;
                    self.hits += 1;
                    return Some(entry.current_bits);
                }
            }
            self.misses += 1;
            None
        }

        fn store_solve(&mut self, key: SolveKey, current_bits: u64) {
            let idx = set_index(fnv(&[key.0, key.1, key.2]), self.solves.len());
            let stamp = self.tick();
            let entry = SolveEntry {
                key,
                current_bits,
                stamp,
            };
            let set = &mut self.solves[idx];
            let slot = eldest_way(set.iter().map(|w| w.as_ref().map(|e| e.stamp)));
            set[slot] = Some(entry);
        }

        fn lookup_env(&mut self, key: EnvKey) -> Option<u64> {
            let idx = set_index(fnv(&[key.0, key.1]), self.envs.len());
            let stamp = self.tick();
            for entry in self.envs[idx].iter_mut().flatten() {
                if entry.key == key {
                    entry.stamp = stamp;
                    return Some(entry.voc_bits);
                }
            }
            None
        }

        fn store_env(&mut self, key: EnvKey, voc_bits: u64) {
            let idx = set_index(fnv(&[key.0, key.1]), self.envs.len());
            let stamp = self.tick();
            let set = &mut self.envs[idx];
            let slot = eldest_way(set.iter().map(|w| w.as_ref().map(|e| e.stamp)));
            set[slot] = Some(EnvEntry {
                key,
                voc_bits,
                stamp,
            });
        }
    }

    /// Runs one probe through the reference memo the way `CachedArray`
    /// runs it through the cache; returns `(hit, current bits)`.
    fn reference_solve(
        memo: &mut ReferenceMemo,
        array: &PvArray,
        e: CellEnv,
        v: Volts,
    ) -> (bool, u64) {
        let key = (
            e.irradiance.get().to_bits(),
            e.temperature.get().to_bits(),
            v.get().to_bits(),
        );
        if let Some(bits) = memo.lookup_solve(key) {
            return (true, bits);
        }
        let bits = array.current_at(e, v).unwrap().get().to_bits();
        memo.store_solve(key, bits);
        (false, bits)
    }

    /// Drives the cache and the reference memo with one probe stream and
    /// checks them call by call.
    struct Differential<'a> {
        array: &'a PvArray,
        cache: &'a ArrayCache,
        memo: ReferenceMemo,
        calls: u64,
    }

    impl Differential<'_> {
        fn solve(&mut self, e: CellEnv, v: Volts) -> f64 {
            let before = self.cache.stats();
            let got = CachedArray::new(self.array, self.cache)
                .current_at(e, v)
                .unwrap()
                .get();
            let hit = self.cache.stats().hits > before.hits;
            let (want_hit, want_bits) = reference_solve(&mut self.memo, self.array, e, v);
            assert_eq!(hit, want_hit, "hit/miss of call {}", self.calls);
            assert_eq!(got.to_bits(), want_bits, "bits of call {}", self.calls);
            self.calls += 1;
            got
        }

        fn voc(&mut self, e: CellEnv) -> f64 {
            let got = CachedArray::new(self.array, self.cache).open_circuit_voltage(e);
            let key = CachedArray::env_key(e);
            let want = match self.memo.lookup_env(key) {
                Some(bits) => bits,
                None => {
                    let bits = self.array.open_circuit_voltage(e).get().to_bits();
                    self.memo.store_env(key, bits);
                    bits
                }
            };
            assert_eq!(got.get().to_bits(), want, "Voc of call {}", self.calls);
            self.calls += 1;
            got.get()
        }

        /// A non-finite probe returns the plain array's error and leaves the
        /// memo, its stamp and links included, untouched.
        fn non_finite(&mut self, e: CellEnv) {
            let snapshot = |cache: &ArrayCache| {
                let state = cache.state.borrow();
                (state.stamp, state.hits, state.misses, state.last)
            };
            let before = snapshot(self.cache);
            let nan = Volts::new(f64::NAN);
            let got = CachedArray::new(self.array, self.cache).current_at(e, nan);
            let want = self.array.current_at(e, nan);
            assert!(got.is_err(), "non-finite probe of call {}", self.calls);
            assert_eq!(format!("{got:?}"), format!("{want:?}"));
            assert_eq!(snapshot(self.cache), before);
            self.calls += 1;
        }

        /// An MPP query passes through to the array and leaves the memo,
        /// its stamp included, untouched.
        fn mpp(&mut self, e: CellEnv) {
            let stamp = self.cache.state.borrow().stamp;
            let got = CachedArray::new(self.array, self.cache).mpp(e);
            assert_eq!(self.cache.state.borrow().stamp, stamp);
            let want = self.array.mpp(e);
            assert_eq!(
                got.power.get().to_bits(),
                want.power.get().to_bits(),
                "MPP of call {}",
                self.calls
            );
            self.calls += 1;
        }

        /// The operating-point solver's probe pattern for a resistive
        /// load: 96 bisection midpoints on `[0, Voc]`, whose tail repeats
        /// once the interval collapses to adjacent floats, plus the finish.
        fn bisect(&mut self, e: CellEnv, r_panel: f64) {
            let (mut lo, mut hi) = (0.0, self.voc(e));
            for _ in 0..96 {
                let mid = 0.5 * (lo + hi);
                if mid / r_panel - self.solve(e, Volts::new(mid)) < 0.0 {
                    lo = mid;
                } else {
                    hi = mid;
                }
            }
            self.solve(e, Volts::new(0.5 * (lo + hi)));
        }
    }

    #[test]
    fn memo_state_evolves_exactly_like_the_reference() {
        let array = PvArray::solarcore_default();
        let cache = ArrayCache::new();
        let mut run = Differential {
            array: &array,
            cache: &cache,
            memo: ReferenceMemo::new(),
            calls: 0,
        };
        let sunny = env(850.0, 41.0);
        let hazy = env(430.0, 27.5);

        // Bisection solves, with MPP queries and env switches between them.
        for r_panel in [0.9, 1.3, 1.3, 2.2] {
            run.bisect(sunny, r_panel);
            run.mpp(hazy);
            run.bisect(hazy, r_panel);
            run.mpp(sunny);
        }
        // Env switches in mid-solve: alternate environments probe by probe.
        for step in 0..40 {
            let v = Volts::new(20.0 + 0.25 * f64::from(step % 10));
            run.solve(if step % 2 == 0 { sunny } else { hazy }, v);
            run.solve(sunny, v);
        }

        // Set-conflict churn: hit a key, evict it with other keys of its
        // set, then repeat it.
        let victim = Volts::new(33.0);
        let set_of = |v: Volts| {
            let (g, t) = CachedArray::env_key(sunny);
            set_index(fnv(&[g, t, v.get().to_bits()]), SOLVE_SETS)
        };
        let rivals: Vec<Volts> = (1..)
            .map(|k| Volts::new(33.0 + 1e-3 * f64::from(k)))
            .filter(|&v| set_of(v) == set_of(victim))
            .take(WAYS)
            .collect();
        for _ in 0..3 {
            run.solve(sunny, victim);
            run.solve(sunny, victim);
            run.voc(hazy);
            for &v in &rivals {
                run.solve(sunny, v);
            }
            run.solve(sunny, victim);
            run.solve(sunny, victim);
            run.solve(sunny, rivals[0]);
        }

        // Successor links: `linked` is the key in the slot the next lookup
        // tries first, and `key` a probe's memo key.
        let linked = || {
            let state = cache.state.borrow();
            let entry = state.solves[state.solves[state.last].next as usize];
            (entry.stamp != 0).then_some(entry.key)
        };
        let key = |e: CellEnv, v: Volts| {
            let (g, t) = CachedArray::env_key(e);
            (g, t, v.get().to_bits())
        };

        // The same solve twice in a row: a store links its entry to itself.
        let fresh = Volts::new(27.125);
        run.solve(sunny, fresh);
        assert_eq!(linked(), Some(key(sunny, fresh)));
        run.solve(sunny, fresh);
        run.solve(sunny, fresh);

        // The linked slot is evicted and refilled by another key of its set
        // between two linked probes: the next probe must not take it.
        let anchor = Volts::new(25.5);
        run.solve(sunny, anchor);
        run.solve(sunny, victim);
        run.solve(sunny, anchor);
        assert_eq!(linked(), Some(key(sunny, victim)));
        for &v in &rivals {
            run.solve(sunny, v);
        }
        run.solve(sunny, anchor);
        let refill = linked();
        assert!(rivals.iter().any(|&v| refill == Some(key(sunny, v))));
        run.solve(sunny, victim);

        // A non-finite probe between two linked probes leaves the link.
        run.solve(sunny, anchor);
        assert_eq!(linked(), Some(key(sunny, victim)));
        run.non_finite(sunny);
        assert_eq!(linked(), Some(key(sunny, victim)));
        run.solve(sunny, victim);

        // An environment switch mid-chain: the linked slot holds the same
        // voltage under the old environment, and the miss re-resolves the
        // coefficients of each environment in turn.
        let chain = [24.1, 24.3, 24.7].map(Volts::new);
        for v in chain {
            run.solve(sunny, v);
        }
        run.solve(sunny, chain[0]);
        assert_eq!(linked(), Some(key(sunny, chain[1])));
        let misses = cache.stats().misses;
        run.solve(hazy, chain[1]);
        assert_eq!(cache.stats().misses, misses + 1);
        run.solve(sunny, chain[2]);
        run.solve(sunny, Volts::new(24.9));
        run.solve(hazy, Volts::new(24.9));
        assert_eq!(cache.stats().misses, misses + 3);

        let stats = cache.stats();
        assert_eq!(
            stats,
            CacheStats {
                hits: run.memo.hits,
                misses: run.memo.misses,
            }
        );
        assert!(stats.hits > 0 && stats.misses > 0);
        let state = cache.state.borrow();
        assert_eq!(state.stamp, run.memo.stamp);
        let solves: Vec<_> = state
            .solves
            .iter()
            .map(|e| (e.stamp != 0).then_some((e.key, e.current_bits, e.stamp)))
            .collect();
        let want: Vec<_> = run
            .memo
            .solves
            .iter()
            .flatten()
            .map(|w| w.map(|e| (e.key, e.current_bits, e.stamp)))
            .collect();
        assert!(solves == want);
        let envs: Vec<_> = state
            .envs
            .iter()
            .map(|e| (e.stamp != 0).then_some((e.key, e.voc_bits, e.stamp)))
            .collect();
        let want: Vec<_> = run
            .memo
            .envs
            .iter()
            .flatten()
            .map(|w| w.map(|e| (e.key, e.voc_bits, e.stamp)))
            .collect();
        assert!(envs == want);
    }
}
