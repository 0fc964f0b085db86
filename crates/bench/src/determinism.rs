//! Bitwise-reproducibility helpers: canonical hashing of simulation
//! output and a seeded shuffle for input-order perturbation.
//!
//! The SolarCore evaluation is only trustworthy if a day simulation is
//! *bit-identical* regardless of thread count and work ordering. These
//! helpers give that property teeth: every quantity is folded into an
//! FNV-1a hash via `f64::to_bits` (so `-0.0` vs `0.0` or a ULP of drift
//! changes the hash), and `bench/tests/determinism.rs` compares the hashes
//! across 1-thread, N-thread, and reordered-input runs.

use solarcore::engine::DayResult;

use crate::campaign::rows_digest;
use crate::grid::PolicyGrid;

/// Canonical FNV-1a accumulator over simulation quantities.
#[derive(Debug, Clone)]
pub struct CanonicalHasher {
    state: u64,
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

impl Default for CanonicalHasher {
    fn default() -> Self {
        Self { state: FNV_OFFSET }
    }
}

impl CanonicalHasher {
    /// Folds raw bytes into the state.
    pub fn bytes(&mut self, bytes: &[u8]) -> &mut Self {
        for &b in bytes {
            self.state ^= u64::from(b);
            self.state = self.state.wrapping_mul(FNV_PRIME);
        }
        self
    }

    /// Folds an `f64` by exact bit pattern — no rounding, no tolerance.
    pub fn f64(&mut self, value: f64) -> &mut Self {
        self.bytes(&value.to_bits().to_le_bytes())
    }

    /// Folds a `u64`.
    pub fn u64(&mut self, value: u64) -> &mut Self {
        self.bytes(&value.to_le_bytes())
    }

    /// Folds a string (length-prefixed so concatenations cannot collide).
    pub fn str(&mut self, value: &str) -> &mut Self {
        self.u64(value.len() as u64);
        self.bytes(value.as_bytes())
    }

    /// The accumulated hash.
    pub fn finish(&self) -> u64 {
        self.state
    }
}

/// Canonical hash of one day simulation: every per-minute record's budget,
/// drawn power, bus voltage, chip power/capacity, instructions (PTP), and
/// per-core V/F digest, in minute order.
pub fn day_hash(result: &DayResult) -> u64 {
    let mut h = CanonicalHasher::default();
    for r in result.records() {
        h.u64(u64::from(r.minute));
        h.f64(r.budget.get());
        h.f64(r.drawn.get());
        h.f64(r.bus_voltage.get());
        h.f64(r.chip_power.get());
        h.f64(r.chip_capacity.get());
        h.f64(r.instructions);
        h.u64(r.vf_digest);
    }
    h.f64(result.energy_drawn().get());
    h.f64(result.solar_instructions());
    h.finish()
}

/// Canonical hash of a computed policy grid: its rows' [`rows_digest`],
/// then every battery baseline, field by field, in the grid's canonical
/// order.
pub fn grid_hash(grid: &PolicyGrid) -> u64 {
    let mut h = CanonicalHasher::default();
    h.u64(rows_digest(&grid.rows));
    h.u64(grid.battery.len() as u64);
    for b in &grid.battery {
        h.str(&b.site);
        h.str(&b.season);
        h.str(&b.mix);
        h.f64(b.upper_ptp);
        h.f64(b.lower_ptp);
    }
    h.finish()
}

/// splitmix64 — the seed expander used for the shuffle below.
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Deterministic Fisher–Yates shuffle from an explicit seed: same seed,
/// same permutation, on every platform.
// The modulo bounds the draw by `i < items.len()`, so the cast back to
// usize cannot truncate.
#[allow(clippy::cast_possible_truncation)]
pub fn shuffle<T>(items: &mut [T], seed: u64) {
    let mut state = seed;
    for i in (1..items.len()).rev() {
        // Modulo bias is irrelevant here: the permutation only needs to be
        // deterministic and "not the identity", not statistically uniform.
        let j = (splitmix64(&mut state) % (i as u64 + 1)) as usize;
        items.swap(i, j);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hasher_is_sensitive_to_bit_flips() {
        let a = CanonicalHasher::default().f64(1.0).finish();
        let b = CanonicalHasher::default().f64(1.0 + f64::EPSILON).finish();
        let c = CanonicalHasher::default().f64(-0.0).finish();
        let d = CanonicalHasher::default().f64(0.0).finish();
        assert_ne!(a, b);
        assert_ne!(c, d);
    }

    #[test]
    fn string_hashing_is_length_prefixed() {
        let a = CanonicalHasher::default().str("ab").str("c").finish();
        let b = CanonicalHasher::default().str("a").str("bc").finish();
        assert_ne!(a, b);
    }

    #[test]
    fn shuffle_is_deterministic_and_permutes() {
        let mut a: Vec<u32> = (0..50).collect();
        let mut b: Vec<u32> = (0..50).collect();
        shuffle(&mut a, 0xfeed);
        shuffle(&mut b, 0xfeed);
        assert_eq!(a, b);
        assert_ne!(a, (0..50).collect::<Vec<u32>>());
        let mut sorted = a.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..50).collect::<Vec<u32>>());
    }

    #[test]
    fn different_seeds_differ() {
        let mut a: Vec<u32> = (0..50).collect();
        let mut b: Vec<u32> = (0..50).collect();
        shuffle(&mut a, 1);
        shuffle(&mut b, 2);
        assert_ne!(a, b);
    }
}
