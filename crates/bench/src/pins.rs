//! The committed behaviour pins, `results/pins.json`, and the byte-for-byte
//! check of a regenerated artifact.
//!
//! Every digest, hash, work count and headline scalar the tier-1 suite
//! pins lives once in that file, under a name: digests as the 16-digit
//! hex strings the reports write, counts as integers, scalars as numbers.
//! A behaviour change that moves a pin fails the test that reads it with
//! the pin's key, the committed value and the computed value, so a
//! re-bless copies the computed values into this one file
//! (docs/HANDBOOK.md, "Blessing golden state").

use std::path::Path;

use crate::output::Json;

/// A parsed pins file: one JSON object from pin name to value.
#[derive(Debug)]
pub struct Pins(Json);

impl Pins {
    /// Reads and parses the committed `results/pins.json`.
    ///
    /// # Errors
    ///
    /// The file cannot be read, is not JSON, or is not a JSON object.
    pub fn committed() -> Result<Pins, String> {
        let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../results/pins.json");
        let text = std::fs::read_to_string(path).map_err(|e| format!("results/pins.json: {e}"))?;
        Pins::parse(&text)
    }

    fn parse(text: &str) -> Result<Pins, String> {
        match Json::parse(text) {
            Ok(doc @ Json::Obj(_)) => Ok(Pins(doc)),
            Ok(_) => Err("results/pins.json: the document is not an object".to_owned()),
            Err(e) => Err(format!("results/pins.json:{e}")),
        }
    }

    /// Checks `computed` against the digest pinned under `key`.
    ///
    /// # Errors
    ///
    /// The key is missing, its value is not a 16-digit hex string, or the
    /// pin moved; the error names the key and `results/pins.json`, and for
    /// a moved pin both values, in the form the file writes them.
    pub fn check_digest(&self, key: &str, computed: u64) -> Result<(), String> {
        let pinned = self
            .value(key)?
            .as_str()
            .filter(|s| s.len() == 16 && s.bytes().all(|b| b.is_ascii_hexdigit()))
            .and_then(|s| u64::from_str_radix(s, 16).ok())
            .ok_or_else(|| wrong_kind(key, "a 16-digit hex digest"))?;
        if pinned == computed {
            return Ok(());
        }
        Err(moved(
            key,
            &format!("\"{pinned:016x}\""),
            &format!("\"{computed:016x}\""),
        ))
    }

    /// Checks `computed` against the work count pinned under `key`.
    ///
    /// # Errors
    ///
    /// As [`Pins::check_digest`], for a value that must be a non-negative
    /// integer.
    pub fn check_count(&self, key: &str, computed: u64) -> Result<(), String> {
        let pinned = self
            .value(key)?
            .as_u64()
            .ok_or_else(|| wrong_kind(key, "a non-negative integer"))?;
        if pinned == computed {
            return Ok(());
        }
        Err(moved(key, &pinned.to_string(), &computed.to_string()))
    }

    /// Checks that `computed` lies within `tolerance` of the scalar pinned
    /// under `key`.
    ///
    /// # Errors
    ///
    /// As [`Pins::check_digest`], for a value that must be a number.
    pub fn check_scalar(&self, key: &str, computed: f64, tolerance: f64) -> Result<(), String> {
        let pinned = self
            .value(key)?
            .as_f64()
            .ok_or_else(|| wrong_kind(key, "a number"))?;
        if (computed - pinned).abs() <= tolerance {
            return Ok(());
        }
        Err(moved(key, &pinned.to_string(), &computed.to_string()))
    }

    fn value(&self, key: &str) -> Result<&Json, String> {
        self.0
            .get(key)
            .ok_or_else(|| format!("results/pins.json has no pin `{key}`"))
    }
}

fn wrong_kind(key: &str, kind: &str) -> String {
    format!("results/pins.json: pin `{key}` is not {kind}")
}

fn moved(key: &str, committed: &str, computed: &str) -> String {
    format!("pin `{key}` moved: results/pins.json holds {committed}, the code computes {computed}")
}

/// Asserts that every pin check passed.
///
/// # Panics
///
/// Listing every failed check, one per line, so a re-bless sees all the
/// values a test computes at once.
pub fn assert_pins(checks: impl IntoIterator<Item = Result<(), String>>) {
    let failed: Vec<String> = checks.into_iter().filter_map(Result::err).collect();
    assert!(failed.is_empty(), "{}", failed.join("\n"));
}

/// Asserts that a fresh render of a committed artifact is byte-identical
/// to the committed text `artifact` names, reporting the first differing
/// line.
///
/// # Panics
///
/// When the two texts differ anywhere.
pub fn assert_regenerates(artifact: &str, committed: &str, fresh: &str) {
    if let Some((line, (want, got))) = committed
        .lines()
        .zip(fresh.lines())
        .enumerate()
        .find(|(_, (want, got))| want != got)
    {
        panic!(
            "{artifact} line {} differs from a fresh run:\n\
             committed: {want}\n\
             computed:  {got}",
            line + 1
        );
    }
    assert!(
        fresh == committed,
        "{artifact} differs from a fresh run in length or line endings"
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    const SAMPLE: &str = r#"{"hash": "00000000000000ff", "solves": 12, "ratio": 0.5}"#;

    #[test]
    fn missing_and_mistyped_pins_name_the_key_and_the_file() {
        let pins = Pins::parse(SAMPLE).unwrap();
        for (key, err) in [
            ("absent", pins.check_digest("absent", 1)),
            ("solves", pins.check_digest("solves", 12)),
            ("ratio", pins.check_count("ratio", 0)),
            ("hash", pins.check_count("hash", 255)),
            ("hash", pins.check_scalar("hash", 255.0, 1e-9)),
        ] {
            let err = err.unwrap_err();
            assert!(err.contains("results/pins.json"), "{err}");
            assert!(err.contains(&format!("`{key}`")), "{err}");
        }
        let short = Pins::parse(r#"{"d": "00ff"}"#).unwrap();
        assert!(short.check_digest("d", 255).unwrap_err().contains("`d`"));
        assert!(Pins::parse("[1]")
            .unwrap_err()
            .contains("results/pins.json"));
    }

    #[test]
    fn a_moved_pin_names_its_key_and_both_values() {
        let pins = Pins::parse(SAMPLE).unwrap();
        assert_pins([
            pins.check_digest("hash", 255),
            pins.check_count("solves", 12),
            pins.check_scalar("ratio", 0.5 + 1e-12, 1e-9),
        ]);
        assert_eq!(
            pins.check_digest("hash", 1).unwrap_err(),
            "pin `hash` moved: results/pins.json holds \"00000000000000ff\", \
             the code computes \"0000000000000001\""
        );
        assert_eq!(
            pins.check_count("solves", 13).unwrap_err(),
            "pin `solves` moved: results/pins.json holds 12, the code computes 13"
        );
        for computed in [0.6, f64::NAN] {
            assert!(pins.check_scalar("ratio", computed, 1e-9).is_err());
        }
    }

    #[test]
    #[should_panic(
        expected = "pin `hash` moved: results/pins.json holds \"00000000000000ff\", \
                               the code computes \"0000000000000001\"\n\
                               pin `solves` moved"
    )]
    fn assert_pins_lists_every_moved_pin() {
        let pins = Pins::parse(SAMPLE).unwrap();
        assert_pins([
            pins.check_digest("hash", 1),
            pins.check_scalar("ratio", 0.5, 1e-9),
            pins.check_count("solves", 13),
        ]);
    }
}
