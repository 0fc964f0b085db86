//! Hand-rolled parser for the TOML-ish scenario files under `scenarios/`.
//!
//! The format is deliberately tiny (same dependency-free spirit as xtask's
//! report tooling): one `[scenario]` header block with `key = value` lines,
//! then any number of `[[fault]]` blocks. Values are double-quoted strings
//! or bare numbers; `#` starts a comment. Example:
//!
//! ```text
//! [scenario]
//! name = "stuck_noon"
//! seed = 42
//! site = "AZ"          # optional hints the campaign runner may honour
//! season = "Jul"
//! day = 0
//!
//! [[fault]]
//! kind = "sensor_stuck"
//! channel = "both"
//! start = 720
//! end = 765
//! ```
//!
//! Every error carries the 1-based line number of the offending line. A
//! key set twice in one block, or one the block's fault kind does not
//! read, is an error rather than a silent override or default.

use crate::kind::{FaultKind, SensorChannel};
use crate::plan::{FaultError, FaultPlan, ScheduledFault};

/// Parses scenario text into a validated [`FaultPlan`].
///
/// # Errors
///
/// Returns [`FaultError::Parse`] with a line number for malformed text, or
/// [`FaultError::InvalidFault`] when a block parses but fails validation.
pub fn parse_scenario(text: &str) -> Result<FaultPlan, FaultError> {
    let mut scenario: Vec<Entry> = Vec::new();
    // Each `[[fault]]` block with the line of its header.
    let mut fault_blocks: Vec<(usize, Vec<Entry>)> = Vec::new();
    let mut section = Section::None;

    for (idx, raw) in text.lines().enumerate() {
        let line_no = idx + 1;
        let line = strip_comment(raw).trim();
        if line.is_empty() {
            continue;
        }
        if line == "[scenario]" {
            if !scenario.is_empty() || !fault_blocks.is_empty() {
                return err(
                    line_no,
                    "[scenario] must be the first block and appear once",
                );
            }
            section = Section::Scenario;
            continue;
        }
        if line == "[[fault]]" {
            fault_blocks.push((line_no, Vec::new()));
            section = Section::Fault;
            continue;
        }
        if line.starts_with('[') {
            return err(
                line_no,
                "unknown block header (expected [scenario] or [[fault]])",
            );
        }
        let Some((key, value)) = line.split_once('=') else {
            return err(line_no, "expected `key = value`");
        };
        let block = match (section, fault_blocks.last_mut()) {
            (Section::Scenario, _) => &mut scenario,
            (Section::Fault, Some((_, block))) => block,
            _ => return err(line_no, "key before any block header"),
        };
        let key = key.trim();
        if let Some((first, ..)) = block.iter().find(|(_, k, _)| k == key) {
            return Err(FaultError::Parse {
                line: line_no,
                reason: format!("duplicate key `{key}` (first set on line {first})"),
            });
        }
        block.push((line_no, key.to_owned(), value.trim().to_owned()));
    }

    let mut name = None;
    let mut seed = 0u64;
    let mut site = None;
    let mut season = None;
    let mut day = None;
    for (line_no, key, value) in &scenario {
        match key.as_str() {
            "name" => name = Some(string_value(*line_no, value)?),
            "seed" => seed = int_value(*line_no, value)?,
            "site" => site = Some(string_value(*line_no, value)?),
            "season" => season = Some(string_value(*line_no, value)?),
            "day" => day = Some(narrow(*line_no, int_value(*line_no, value)?)?),
            _ => return err(*line_no, "unknown [scenario] key"),
        }
    }
    let Some(name) = name else {
        return err(1, "[scenario] block must set `name`");
    };

    let mut plan = FaultPlan::new(&name, seed);
    plan.set_hints(site, season, day);
    for (header_line, entries) in &fault_blocks {
        let mut block = FaultBlock {
            header_line: *header_line,
            entries,
            used: vec![false; entries.len()],
        };
        plan.schedule(block.parse()?)?;
    }
    Ok(plan)
}

/// One `key = value` line: its 1-based line number, key and raw value.
type Entry = (usize, String, String);

#[derive(Clone, Copy)]
enum Section {
    None,
    Scenario,
    Fault,
}

/// A `[[fault]]` block being read. Every lookup marks its key used, so a
/// key the fault kind never reads is left over and rejected as unknown.
struct FaultBlock<'a> {
    /// Line of the `[[fault]]` header: where a missing key is reported.
    header_line: usize,
    entries: &'a [Entry],
    used: Vec<bool>,
}

impl<'a> FaultBlock<'a> {
    fn find(&mut self, key: &str) -> Option<(usize, &'a str)> {
        let entries = self.entries;
        let i = entries.iter().position(|(_, k, _)| k == key)?;
        self.used[i] = true;
        Some((entries[i].0, entries[i].2.as_str()))
    }

    fn required(&mut self, key: &str) -> Result<(usize, &'a str), FaultError> {
        self.find(key).ok_or_else(|| FaultError::Parse {
            line: self.header_line,
            reason: format!("[[fault]] block missing `{key}`"),
        })
    }

    fn number(&mut self, key: &str) -> Result<f64, FaultError> {
        let (line, v) = self.required(key)?;
        number_value(line, v)
    }

    /// An integer narrowed into the field's width, errors anchored at the
    /// key's own line.
    fn int<T: TryFrom<u64>>(&mut self, key: &str) -> Result<T, FaultError> {
        let (line, v) = self.required(key)?;
        narrow(line, int_value(line, v)?)
    }

    fn parse(&mut self) -> Result<ScheduledFault, FaultError> {
        let (kind_line, kind_raw) = self.required("kind")?;
        let kind_name = string_value(kind_line, kind_raw)?;
        let kind = self.kind(kind_line, &kind_name)?;
        let fault = ScheduledFault {
            start_minute: self.int("start")?,
            end_minute: self.int("end")?,
            kind,
        };
        if let Some(i) = self.used.iter().position(|used| !used) {
            let (line, key, _) = &self.entries[i];
            return Err(FaultError::Parse {
                line: *line,
                reason: format!("unknown key `{key}` for fault kind `{kind_name}`"),
            });
        }
        Ok(fault)
    }

    fn kind(&mut self, kind_line: usize, kind_name: &str) -> Result<FaultKind, FaultError> {
        Ok(match kind_name {
            "sensor_stuck" => {
                let channel = match self.find("channel") {
                    None => SensorChannel::Both,
                    Some((line, v)) => match string_value(line, v)?.as_str() {
                        "voltage" => SensorChannel::Voltage,
                        "current" => SensorChannel::Current,
                        "both" => SensorChannel::Both,
                        _ => return err(line, "`channel` must be voltage, current or both"),
                    },
                };
                FaultKind::SensorStuck { channel }
            }
            "sensor_dropout" => FaultKind::SensorDropout,
            "sensor_bias_drift" => FaultKind::SensorBiasDrift {
                rate_per_minute: self.number("rate_per_minute")?,
            },
            "sensor_noise_burst" => FaultKind::SensorNoiseBurst {
                sigma: self.number("sigma")?,
            },
            "converter_derate" => FaultKind::ConverterDerate {
                factor_start: self.number("factor_start")?,
                factor_end: self.number("factor_end")?,
            },
            "actuator_lag" => FaultKind::ActuatorLag {
                steps: self.int("steps")?,
            },
            "ats_flap" => FaultKind::AtsFlap {
                period_minutes: self.int("period_minutes")?,
            },
            "core_throttle" => FaultKind::CoreThrottle {
                core: self.int("core")?,
                max_level_index: self.int("max_level_index")?,
            },
            "core_loss" => FaultKind::CoreLoss {
                core: self.int("core")?,
            },
            "irradiance_cliff" => FaultKind::IrradianceCliff {
                factor: self.number("factor")?,
                ramp_minutes: match self.find("ramp_minutes") {
                    None => 0,
                    Some((line, v)) => narrow(line, int_value(line, v)?)?,
                },
            },
            _ => return err(kind_line, "unknown fault kind"),
        })
    }
}

/// Strips a trailing `#` comment, respecting double-quoted strings.
fn strip_comment(line: &str) -> &str {
    let mut in_string = false;
    for (i, c) in line.char_indices() {
        match c {
            '"' => in_string = !in_string,
            '#' if !in_string => return &line[..i],
            _ => {}
        }
    }
    line
}

fn string_value(line: usize, raw: &str) -> Result<String, FaultError> {
    let raw = raw.trim();
    if raw.len() >= 2 && raw.starts_with('"') && raw.ends_with('"') {
        Ok(raw[1..raw.len() - 1].to_owned())
    } else {
        Err(FaultError::Parse {
            line,
            reason: "expected a double-quoted string".to_owned(),
        })
    }
}

fn number_value(line: usize, raw: &str) -> Result<f64, FaultError> {
    raw.trim().parse::<f64>().map_err(|_| FaultError::Parse {
        line,
        reason: format!("expected a number, got `{}`", raw.trim()),
    })
}

fn int_value(line: usize, raw: &str) -> Result<u64, FaultError> {
    raw.trim().parse::<u64>().map_err(|_| FaultError::Parse {
        line,
        reason: format!("expected a non-negative integer, got `{}`", raw.trim()),
    })
}

/// Narrows a parsed integer into the field's width with a line-anchored
/// error instead of a silent truncation.
fn narrow<T: TryFrom<u64>>(line: usize, x: u64) -> Result<T, FaultError> {
    T::try_from(x).map_err(|_| FaultError::Parse {
        line,
        reason: format!("integer `{x}` out of range for this field"),
    })
}

fn err<T>(line: usize, reason: &str) -> Result<T, FaultError> {
    Err(FaultError::Parse {
        line,
        reason: reason.to_owned(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    const SAMPLE: &str = r#"
# canonical stuck-sensor scenario
[scenario]
name = "stuck_noon"
seed = 42
site = "AZ"     # hint only
season = "Jul"
day = 0

[[fault]]
kind = "sensor_stuck"
channel = "both"
start = 720
end = 765

[[fault]]
kind = "irradiance_cliff"
factor = 0.25
ramp_minutes = 5
start = 800
end = 860
"#;

    #[test]
    fn parses_the_sample_scenario() {
        let plan = parse_scenario(SAMPLE).unwrap();
        assert_eq!(plan.name(), "stuck_noon");
        assert_eq!(plan.seed(), 42);
        assert_eq!(plan.site_hint(), Some("AZ"));
        assert_eq!(plan.season_hint(), Some("Jul"));
        assert_eq!(plan.day_hint(), Some(0));
        assert_eq!(plan.faults().len(), 2);
        assert_eq!(plan.first_onset(), Some(720));
        assert!(plan.has_irradiance_faults());
        assert_eq!(
            plan.faults()[0].kind,
            FaultKind::SensorStuck {
                channel: SensorChannel::Both
            }
        );
    }

    #[test]
    fn every_kind_round_trips() {
        let text = r#"
[scenario]
name = "all"
seed = 7

[[fault]]
kind = "sensor_dropout"
start = 0
end = 1

[[fault]]
kind = "sensor_bias_drift"
rate_per_minute = 0.02
start = 0
end = 1

[[fault]]
kind = "sensor_noise_burst"
sigma = 0.1
start = 0
end = 1

[[fault]]
kind = "converter_derate"
factor_start = 1.0
factor_end = 0.6
start = 0
end = 1

[[fault]]
kind = "actuator_lag"
steps = 3
start = 0
end = 1

[[fault]]
kind = "ats_flap"
period_minutes = 5
start = 0
end = 1

[[fault]]
kind = "core_throttle"
core = 2
max_level_index = 4
start = 0
end = 1

[[fault]]
kind = "core_loss"
core = 1
start = 0
end = 1

[[fault]]
kind = "irradiance_cliff"
factor = 0.3
start = 0
end = 1
"#;
        let plan = parse_scenario(text).unwrap();
        assert_eq!(plan.faults().len(), 9);
        assert_eq!(
            plan.faults()[8].kind,
            FaultKind::IrradianceCliff {
                factor: 0.3,
                ramp_minutes: 0
            }
        );
    }

    #[test]
    fn errors_carry_line_numbers() {
        let bad =
            "[scenario]\nname = \"x\"\n\n[[fault]]\nkind = \"no_such_kind\"\nstart = 0\nend = 1\n";
        match parse_scenario(bad) {
            Err(FaultError::Parse { line, .. }) => assert_eq!(line, 5),
            other => panic!("expected parse error, got {other:?}"),
        }
        match parse_scenario("name = \"x\"\n") {
            Err(FaultError::Parse { line, .. }) => assert_eq!(line, 1),
            other => panic!("expected parse error, got {other:?}"),
        }
        match parse_scenario("[scenario]\nname = unquoted\n") {
            Err(FaultError::Parse { line, .. }) => assert_eq!(line, 2),
            other => panic!("expected parse error, got {other:?}"),
        }
        // A key the fault kind does not read, a misspelled key and a key
        // set twice are rejected at their own line, never defaulted or
        // overridden; so is an integer too wide for its field.
        let cliff = "[scenario]\nname = \"x\"\n[[fault]]\nkind = \"irradiance_cliff\"\n\
                     factor = 0.5\nramp_minute = 10\nstart = 0\nend = 1\n";
        let stuck = "[scenario]\nname = \"x\"\n[[fault]]\nkind = \"sensor_stuck\"\n\
                     chanel = \"voltage\"\nstart = 0\nend = 1\n";
        let twice_fault = "[scenario]\nname = \"x\"\n[[fault]]\nkind = \"core_loss\"\n\
                           core = 1\nstart = 0\ncore = 2\nend = 1\n";
        let twice_scenario = "[scenario]\nname = \"x\"\nseed = 1\nseed = 2\n";
        let too_wide = "[scenario]\nname = \"x\"\n[[fault]]\nkind = \"ats_flap\"\n\
                        start = 0\nend = 1\nperiod_minutes = 4294967296\n";
        for (text, want_line, want_reason) in [
            (cliff, 6, "unknown key `ramp_minute`"),
            (stuck, 5, "unknown key `chanel`"),
            (twice_fault, 7, "duplicate key `core` (first set on line 5)"),
            (
                twice_scenario,
                4,
                "duplicate key `seed` (first set on line 3)",
            ),
            (too_wide, 7, "out of range"),
        ] {
            match parse_scenario(text) {
                Err(FaultError::Parse { line, reason }) => {
                    assert_eq!(line, want_line, "{reason}");
                    assert!(reason.contains(want_reason), "{reason}");
                }
                other => panic!("expected parse error, got {other:?}"),
            }
        }
    }

    #[test]
    fn missing_name_is_rejected() {
        assert!(parse_scenario("[scenario]\nseed = 1\n").is_err());
    }

    #[test]
    fn invalid_fault_surfaces_validation_error() {
        let bad =
            "[scenario]\nname = \"x\"\n[[fault]]\nkind = \"sensor_dropout\"\nstart = 10\nend = 5\n";
        match parse_scenario(bad) {
            Err(FaultError::InvalidFault { kind, .. }) => assert_eq!(kind, "sensor_dropout"),
            other => panic!("expected validation error, got {other:?}"),
        }
    }

    #[test]
    fn comments_inside_strings_survive() {
        let text = "[scenario]\nname = \"has # hash\"\n";
        assert_eq!(parse_scenario(text).unwrap().name(), "has # hash");
    }
}
