//! Learned facts the range pass starts from: platform bound constants and
//! summaries of the simulation APIs it treats as contracts.
//!
//! The authoritative numeric ranges live in `solarcore::invariants::bounds`
//! (plain `f64` constants, pinned to the runtime structures by unit tests
//! over there). This module re-learns them at the token level — no
//! compilation, keeping xtask dependency-free — and cross-checks the V/F
//! entries against the `VF_POINTS` ladder in `archsim::dvfs`. Drift between
//! the two files is a hard error, so a seed can never silently outlive the
//! structure it summarizes.
//!
//! Summaries are the *trusted base* of every static proof: a method listed
//! here is believed to honour its documented contract (e.g. `total_power`
//! returns a finite non-negative wattage). `cargo xtask flow` then proves
//! that the *flow* from those contracts into each sanitizer call site
//! preserves the checked property. The split is reported per site — see
//! `DESIGN.md` §15.

use std::collections::BTreeMap;
use std::path::Path;

use crate::flow::interval::Interval;
use crate::syntax::lexer::{lex, Tok};
use crate::syntax::source::SourceFile;

/// Names of the unit newtypes in `pv::units` whose `new` wraps its operand
/// verbatim (so `Watts::new(e)` is numerically transparent).
const UNIT_TYPES: &[&str] = &[
    "Watts",
    "Volts",
    "Amps",
    "Ohms",
    "Hertz",
    "Seconds",
    "Joules",
    "WattHours",
    "Celsius",
];

/// Everything the range pass knows before looking at a function body.
#[derive(Debug, Clone)]
pub struct Seeds {
    /// Named constants usable in expressions (`POWER_SLACK_W`,
    /// `bounds::VDD_MAX_V`, …), keyed by their final path segment.
    consts: BTreeMap<String, f64>,
}

impl Seeds {
    /// Learns the seed constants from the workspace sources and
    /// cross-checks them against the structures they summarize.
    pub fn learn(root: &Path) -> Result<Seeds, String> {
        let inv_path = root.join("crates/solarcore/src/invariants.rs");
        let inv_text = std::fs::read_to_string(&inv_path)
            .map_err(|e| format!("cannot read {}: {e}", inv_path.display()))?;
        let inv = SourceFile::parse("crates/solarcore/src/invariants.rs", &inv_text);
        let consts = learn_consts(&inv);

        for required in [
            "POWER_SLACK_W",
            "VDD_MIN_V",
            "VDD_MAX_V",
            "FREQ_MIN_GHZ",
            "FREQ_MAX_GHZ",
            "RATIO_K_MIN",
            "RATIO_K_MAX",
            "RATIO_K_STEP",
            "EFFICIENCY_MAX",
        ] {
            if !consts.contains_key(required) {
                return Err(format!(
                    "seed constant `{required}` not found in {}",
                    inv_path.display()
                ));
            }
        }

        let dvfs_path = root.join("crates/archsim/src/dvfs.rs");
        let dvfs_text = std::fs::read_to_string(&dvfs_path)
            .map_err(|e| format!("cannot read {}: {e}", dvfs_path.display()))?;
        let dvfs = SourceFile::parse("crates/archsim/src/dvfs.rs", &dvfs_text);
        let ladder = learn_vf_points(&dvfs)
            .ok_or_else(|| format!("VF_POINTS table not found in {}", dvfs_path.display()))?;

        let mut consts = consts;
        // Synthesized from the ladder itself (used by the `from_index`
        // sink); not a bounds constant, so not in the required list above.
        #[allow(clippy::cast_precision_loss)] // ladder length is tiny
        consts.insert("VF_LEVEL_COUNT".to_owned(), ladder.len() as f64);

        let seeds = Seeds { consts };
        seeds.cross_check(&ladder)?;
        Ok(seeds)
    }

    /// Fixed seeds for the fixture ui tests (no file IO; same values the
    /// real workspace carries today).
    pub fn for_tests() -> Seeds {
        let mut consts = BTreeMap::new();
        for (name, value) in [
            ("POWER_SLACK_W", 0.5),
            ("VDD_MIN_V", 0.95),
            ("VDD_MAX_V", 1.45),
            ("FREQ_MIN_GHZ", 1.0),
            ("FREQ_MAX_GHZ", 2.5),
            ("RATIO_K_MIN", 0.8),
            ("RATIO_K_MAX", 8.0),
            ("RATIO_K_STEP", 0.05),
            ("EFFICIENCY_MAX", 1.0),
            ("VF_LEVEL_COUNT", 6.0),
        ] {
            consts.insert(name.to_owned(), value);
        }
        Seeds { consts }
    }

    /// Fails if the learned bound constants disagree with the V/F ladder.
    fn cross_check(&self, ladder: &[(f64, f64)]) -> Result<(), String> {
        let fold = |sel: fn(&(f64, f64)) -> f64, f: fn(f64, f64) -> f64, init: f64| {
            ladder.iter().map(sel).fold(init, f)
        };
        let checks = [
            ("VDD_MIN_V", fold(|p| p.1, f64::min, f64::INFINITY)),
            ("VDD_MAX_V", fold(|p| p.1, f64::max, f64::NEG_INFINITY)),
            ("FREQ_MIN_GHZ", fold(|p| p.0, f64::min, f64::INFINITY)),
            ("FREQ_MAX_GHZ", fold(|p| p.0, f64::max, f64::NEG_INFINITY)),
        ];
        for (name, expected) in checks {
            let got = self.consts[name];
            if got.to_bits() != expected.to_bits() {
                return Err(format!(
                    "seed drift: invariants::bounds::{name} = {got} but the \
                     archsim VF_POINTS ladder implies {expected}; update the \
                     bounds module (its unit tests pin the same values)"
                ));
            }
        }
        Ok(())
    }

    /// The numeric value of a named constant path (`POWER_SLACK_W`,
    /// `bounds::VDD_MAX_V`, `f64::INFINITY`, `Watts::ZERO`), if known.
    pub fn const_value(&self, path: &[String]) -> Option<Interval> {
        let last = path.last()?;
        if let Some(v) = self.consts.get(last) {
            return Some(Interval::constant(*v));
        }
        match last.as_str() {
            "ZERO" if path.len() == 2 && UNIT_TYPES.contains(&path[0].as_str()) => {
                Some(Interval::constant(0.0))
            }
            "INFINITY" => Some(Interval {
                lo: f64::INFINITY,
                hi: f64::INFINITY,
                lo_open: false,
                hi_open: false,
                nan: false,
            }),
            "NEG_INFINITY" => Some(Interval {
                lo: f64::NEG_INFINITY,
                hi: f64::NEG_INFINITY,
                lo_open: false,
                hi_open: false,
                nan: false,
            }),
            "NAN" => Some(Interval::TOP),
            "EPSILON" => Some(Interval::constant(f64::EPSILON)),
            "PI" => Some(Interval::constant(std::f64::consts::PI)),
            _ => None,
        }
    }

    /// `true` when `Type::new(x)` wraps `x` verbatim (the pv unit
    /// newtypes), making the call numerically transparent.
    pub fn transparent_constructor(&self, path: &[String]) -> bool {
        path.len() == 2 && path[1] == "new" && UNIT_TYPES.contains(&path[0].as_str())
    }

    /// Contract summary for a method call, by method name: the interval its
    /// return value is trusted to inhabit. `None` means no contract (the
    /// evaluator falls back to ⊤ or a structural rule).
    pub fn method_summary(&self, name: &str) -> Option<Interval> {
        // Finite and non-negative: `[0, ∞)` — the open infinite bound is
        // exactly "unbounded above but never +∞", and no NaN.
        let nonneg = Interval {
            lo: 0.0,
            hi: f64::INFINITY,
            lo_open: false,
            hi_open: true,
            nan: false,
        };
        match name {
            // Powers produced by the simulation structs are finite and
            // non-negative by construction (their own unit tests and the
            // runtime sanitizer in debug builds enforce it at the source).
            "total_power" | "power_if" | "panel_power" | "output_power" | "power" => Some(nonneg),
            // The degraded-mode budget: documented (and property-tested)
            // to be finite, non-negative and capped by the measured
            // potential — the cap is not representable here, so only the
            // `[0, ∞)` part is trusted.
            "fallback_budget" => Some(nonneg),
            // Solved node voltages: finite, non-negative.
            "output_voltage" | "open_circuit_voltage" => Some(nonneg),
            // The VID ladder pins core voltages to its end points.
            "voltage" => Some(Interval::closed(
                self.consts["VDD_MIN_V"],
                self.consts["VDD_MAX_V"],
            )),
            // Converter contracts (constructor-validated in powertrain).
            "efficiency" => Some(Interval {
                lo: 0.0,
                hi: self.consts["EFFICIENCY_MAX"],
                lo_open: true,
                hi_open: false,
                nan: false,
            }),
            "ratio" => Some(Interval::closed(
                self.consts["RATIO_K_MIN"],
                self.consts["RATIO_K_MAX"],
            )),
            "ratio_step" => Some(Interval::constant(self.consts["RATIO_K_STEP"])),
            _ => None,
        }
    }

    /// Contract summary for a field access, by field name.
    pub fn field_summary(&self, name: &str) -> Option<Interval> {
        let nonneg = Interval {
            lo: 0.0,
            hi: f64::INFINITY,
            lo_open: false,
            hi_open: true,
            nan: false,
        };
        match name {
            // `MppPoint.power`: the MPP oracle emits finite, non-negative
            // power (zero at night).
            "power" => Some(nonneg),
            // `OperatingPoint.output_voltage`: a solved bus node voltage.
            "output_voltage" => Some(nonneg),
            _ => None,
        }
    }

    /// The reachable DC/DC transfer-ratio range (the `set_ratio` sink).
    pub fn ratio_bounds(&self) -> Interval {
        Interval::closed(self.consts["RATIO_K_MIN"], self.consts["RATIO_K_MAX"])
    }

    /// Number of V/F ladder levels (the `from_index` sink).
    pub fn vf_level_count(&self) -> f64 {
        self.consts["VF_LEVEL_COUNT"]
    }

    /// Contract summary for a tuple-variant payload bound in a pattern, by
    /// variant name.
    pub fn payload_summary(&self, variant: &str) -> Option<Interval> {
        match variant {
            // `Policy::FixedPower(budget)`: `DaySimulation::build()` rejects
            // non-finite or negative budgets, so any payload that reaches
            // the engine is in `[0, ∞)`.
            "FixedPower" => Some(Interval {
                lo: 0.0,
                hi: f64::INFINITY,
                lo_open: false,
                hi_open: true,
                nan: false,
            }),
            _ => None,
        }
    }

    /// The slack constant used by the relational sanitizer checks.
    pub fn power_slack(&self) -> f64 {
        self.consts["POWER_SLACK_W"]
    }
}

/// Collects every `pub? const NAME: f64 = <number>;` in the file.
fn learn_consts(src: &SourceFile) -> BTreeMap<String, f64> {
    let tokens = lex(src);
    let mut out = BTreeMap::new();
    let mut i = 0;
    while i + 5 < tokens.len() {
        if tokens[i].is_ident("const") {
            let name = tokens[i + 1].ident();
            let is_f64 = tokens[i + 2].is_op(":") && tokens[i + 3].is_ident("f64");
            if let (Some(name), true) = (name, is_f64) {
                if tokens[i + 4].is_op("=") {
                    if let Some(v) = parse_signed_num(&tokens[i + 5].tok, tokens.get(i + 6)) {
                        out.insert(name.to_owned(), v);
                    }
                }
            }
        }
        i += 1;
    }
    out
}

/// Parses `<num>` or `-<num>` starting at `first`.
fn parse_signed_num(first: &Tok, next: Option<&crate::syntax::lexer::Token>) -> Option<f64> {
    match first {
        Tok::Num(n) => n.replace('_', "").parse().ok(),
        Tok::Op("-") => match next.map(|t| &t.tok) {
            Some(Tok::Num(n)) => n.replace('_', "").parse::<f64>().ok().map(|v| -v),
            _ => None,
        },
        _ => None,
    }
}

/// Extracts the `(frequency, voltage)` pairs of the `VF_POINTS` table.
fn learn_vf_points(src: &SourceFile) -> Option<Vec<(f64, f64)>> {
    let tokens = lex(src);
    let at = tokens.iter().position(|t| t.is_ident("VF_POINTS"))?;
    // Skip to the `=` then collect numeric pairs until the closing `]`.
    let eq = tokens[at..].iter().position(|t| t.is_op("="))? + at;
    let open = tokens[eq..].iter().position(|t| t.is_op("["))? + eq;
    let close = crate::syntax::lexer::matching_close(&tokens, open)?;
    let mut pairs = Vec::new();
    let mut nums: Vec<f64> = Vec::new();
    for t in &tokens[open + 1..close] {
        if let Tok::Num(n) = &t.tok {
            if let Ok(v) = n.replace('_', "").parse::<f64>() {
                nums.push(v);
            }
        }
    }
    let mut it = nums.chunks_exact(2);
    for pair in &mut it {
        pairs.push((pair[0], pair[1]));
    }
    if pairs.is_empty() {
        return None;
    }
    Some(pairs)
}

#[cfg(test)]
// Seeds are exact constants; the tests compare them bit-for-bit on purpose.
#[allow(clippy::float_cmp)]
mod tests {
    use super::*;

    fn repo_root() -> std::path::PathBuf {
        std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
            .parent()
            .expect("xtask has a parent")
            .to_path_buf()
    }

    #[test]
    fn workspace_seeds_learn_and_cross_check() {
        let seeds = Seeds::learn(&repo_root()).expect("seeds learn");
        assert_eq!(seeds.power_slack(), 0.5);
        let vdd = seeds.method_summary("voltage").unwrap();
        assert_eq!((vdd.lo, vdd.hi), (0.95, 1.45));
        assert!(vdd.proves_finite());
    }

    #[test]
    fn test_seeds_match_workspace_seeds() {
        let learned = Seeds::learn(&repo_root()).expect("seeds learn");
        let fixed = Seeds::for_tests();
        assert_eq!(learned.consts, fixed.consts);
    }

    #[test]
    fn const_lookup_knows_units_and_float_specials() {
        let s = Seeds::for_tests();
        let zero = s
            .const_value(&["Watts".to_owned(), "ZERO".to_owned()])
            .unwrap();
        assert_eq!((zero.lo, zero.hi), (0.0, 0.0));
        assert!(zero.proves_finite());
        let inf = s
            .const_value(&["f64".to_owned(), "INFINITY".to_owned()])
            .unwrap();
        assert!(!inf.proves_finite());
        assert!(inf.proves_ge(0.0));
        let slack = s.const_value(&["POWER_SLACK_W".to_owned()]).unwrap();
        assert_eq!(slack.lo, 0.5);
        assert!(s
            .const_value(&["bounds".to_owned(), "RATIO_K_MAX".to_owned()])
            .is_some());
        assert!(s.const_value(&["NO_SUCH".to_owned()]).is_none());
    }

    #[test]
    fn drift_between_bounds_and_ladder_is_fatal() {
        let mut s = Seeds::for_tests();
        s.consts.insert("VDD_MAX_V".to_owned(), 1.5);
        let ladder = [(2.5, 1.45), (1.0, 0.95)];
        assert!(s.cross_check(&ladder).unwrap_err().contains("seed drift"));
    }

    #[test]
    fn efficiency_summary_is_half_open() {
        let s = Seeds::for_tests();
        let eta = s.method_summary("efficiency").unwrap();
        assert!(eta.proves_gt(0.0));
        assert!(eta.proves_le(1.0));
        assert!(!eta.proves_ge(0.1));
    }
}
