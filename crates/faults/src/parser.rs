//! The workspace's one reader for its TOML-ish spec files: the fault
//! scenarios under `scenarios/` ([`parse_scenario`]) and the campaign
//! specs under `campaigns/` (`bench::campaign::CampaignSpec::parse`).
//!
//! The grammar is deliberately tiny, because the workspace has no TOML
//! dependency. A file opens with one `[table]` header block of
//! `key = value` lines, then any number of `[[array]]` blocks when its
//! format has them. Values are double-quoted strings (no escapes), bare
//! numbers, or comma lists inside one string; `#` starts a comment outside
//! a string. A scenario, for example:
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
//! [`read_spec`] splits the text into [`Block`]s, borrowing every key and
//! value from it. A [`Block`] reads typed values through [`Field`] and
//! marks each key it reads, so [`Block::finish`] reports a key nobody read
//! as unknown. Every [`SpecError`] carries the 1-based line it belongs to:
//! a malformed line or value, an unknown header, a misplaced or repeated
//! `[table]` header, a key set twice in one block, an unknown key and a
//! repeated list item fail at their own line; a missing required key at
//! its block's header line.

use std::fmt;

use crate::kind::{FaultKind, SensorChannel};
use crate::plan::{FaultError, FaultPlan, ScheduledFault};

/// A spec-file error at its 1-based line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpecError {
    /// 1-based line number of the offending line.
    pub line: usize,
    /// What went wrong.
    pub reason: String,
}

impl From<SpecError> for FaultError {
    fn from(e: SpecError) -> Self {
        FaultError::Parse {
            line: e.line,
            reason: e.reason,
        }
    }
}

fn err<T>(line: usize, reason: impl Into<String>) -> Result<T, SpecError> {
    Err(SpecError {
        line,
        reason: reason.into(),
    })
}

/// Splits `text` into its `head` block (the `[table]` header it must open
/// with, once) and, in file order, the blocks of the `repeated`
/// `[[array]]` header, if its format has one. A text with no `head` fails
/// at line 1.
pub fn read_spec<'a>(
    text: &'a str,
    head: &str,
    repeated: Option<&str>,
) -> Result<(Block<'a>, Vec<Block<'a>>), SpecError> {
    let mut blocks: Vec<Block<'a>> = Vec::new();
    for (idx, raw) in text.lines().enumerate() {
        let line = idx + 1;
        let content = strip_comment(raw).trim();
        if content.is_empty() {
            continue;
        }
        if content.starts_with('[') {
            if content != head && Some(content) != repeated {
                let or = repeated.map(|r| format!(" or {r}")).unwrap_or_default();
                return err(line, format!("unknown block header (expected {head}{or})"));
            }
            if (content == head) != blocks.is_empty() {
                return err(
                    line,
                    format!("{head} must be the first block and appear once"),
                );
            }
            blocks.push(Block {
                header: content,
                line,
                entries: Vec::new(),
            });
            continue;
        }
        let Some((key, value)) = content.split_once('=') else {
            return err(line, "expected `key = value`");
        };
        let key = key.trim();
        let Some(block) = blocks.last_mut() else {
            return err(line, format!("key before the {head} header"));
        };
        if let Some(first) = block.entries.iter().find(|e| e.key == key) {
            return err(
                line,
                format!("duplicate key `{key}` (first set on line {})", first.line),
            );
        }
        block.entries.push(Entry {
            line,
            key,
            value: value.trim(),
            read: false,
        });
    }
    let mut blocks = blocks.into_iter();
    match blocks.next() {
        Some(first) => Ok((first, blocks.collect())),
        None => err(1, format!("missing the {head} block")),
    }
}

/// One `key = value` line of a block.
#[derive(Debug)]
struct Entry<'a> {
    line: usize,
    key: &'a str,
    value: &'a str,
    /// Set once a reader asked for the key.
    read: bool,
}

/// One header block and its entries, in file order.
#[derive(Debug)]
pub struct Block<'a> {
    header: &'a str,
    line: usize,
    entries: Vec<Entry<'a>>,
}

impl<'a> Block<'a> {
    /// The value set for `key`, if any, marking the key read.
    pub fn get(&mut self, key: &str) -> Option<Field<'a>> {
        let entry = self.entries.iter_mut().find(|e| e.key == key)?;
        entry.read = true;
        Some(Field {
            line: entry.line,
            raw: entry.value,
        })
    }

    /// The value set for `key`, marking it read; an error at the block's
    /// header line when it is missing.
    pub fn required(&mut self, key: &str) -> Result<Field<'a>, SpecError> {
        match self.get(key) {
            Some(field) => Ok(field),
            None => err(self.line, format!("{} block missing `{key}`", self.header)),
        }
    }

    /// Rejects the first key nobody read as unknown, at its line; `what`
    /// names the block (`"[campaign]"`, ``"fault kind `ats_flap`"``).
    pub fn finish(&self, what: impl fmt::Display) -> Result<(), SpecError> {
        match self.entries.iter().find(|e| !e.read) {
            Some(e) => err(e.line, format!("unknown key `{}` for {what}", e.key)),
            None => Ok(()),
        }
    }
}

/// One value and the line it was set on, read as the type its key takes;
/// every error is anchored at that line.
#[derive(Debug, Clone, Copy)]
pub struct Field<'a> {
    line: usize,
    raw: &'a str,
}

impl<'a> Field<'a> {
    /// An error anchored at this value's line.
    pub fn error(&self, reason: impl Into<String>) -> SpecError {
        SpecError {
            line: self.line,
            reason: reason.into(),
        }
    }

    /// A double-quoted string, without its quotes.
    pub fn string(&self) -> Result<&'a str, SpecError> {
        let unquoted = self.raw.strip_prefix('"').and_then(|s| s.strip_suffix('"'));
        unquoted.ok_or_else(|| self.error("expected a double-quoted string"))
    }

    /// A bare number.
    pub fn number(&self) -> Result<f64, SpecError> {
        let raw = self.raw;
        raw.parse()
            .map_err(|_| self.error(format!("expected a number, got `{raw}`")))
    }

    /// A non-negative integer narrowed into the field's width `T`, never
    /// silently truncated.
    pub fn int<T: TryFrom<u64>>(&self) -> Result<T, SpecError> {
        let raw = self.raw;
        let x: u64 = raw
            .parse()
            .map_err(|_| self.error(format!("expected a non-negative integer, got `{raw}`")))?;
        T::try_from(x).map_err(|_| self.error(format!("integer `{x}` out of range for this field")))
    }

    /// A comma-separated list inside one string, items trimmed and empty
    /// items skipped; an error when it holds no item or repeats one.
    pub fn list(&self) -> Result<Vec<&'a str>, SpecError> {
        let mut items: Vec<&'a str> = Vec::new();
        for item in self.string()?.split(',').map(str::trim) {
            if items.contains(&item) {
                return Err(self.error(format!("`{item}` listed twice")));
            }
            if !item.is_empty() {
                items.push(item);
            }
        }
        if items.is_empty() {
            return Err(self.error("expected a non-empty comma-separated list"));
        }
        Ok(items)
    }
}

/// Strips a trailing `#` comment, respecting double-quoted strings.
fn strip_comment(line: &str) -> &str {
    let mut in_string = false;
    for (i, b) in line.bytes().enumerate() {
        match b {
            b'"' => in_string = !in_string,
            b'#' if !in_string => return &line[..i],
            _ => {}
        }
    }
    line
}

/// Parses scenario text into a validated [`FaultPlan`].
///
/// # Errors
///
/// Returns [`FaultError::Parse`] with a line number for malformed text, or
/// [`FaultError::InvalidFault`] when a block parses but fails validation.
pub fn parse_scenario(text: &str) -> Result<FaultPlan, FaultError> {
    let (mut head, faults) = read_spec(text, "[scenario]", Some("[[fault]]"))?;
    let name = head.required("name")?.string()?;
    let seed = head.get("seed").map(|f| f.int()).transpose()?.unwrap_or(0);
    let site = head.get("site").map(|f| f.string()).transpose()?;
    let season = head.get("season").map(|f| f.string()).transpose()?;
    let day = head.get("day").map(|f| f.int()).transpose()?;
    head.finish("[scenario]")?;

    let mut plan = FaultPlan::new(name, seed);
    plan.set_hints(site.map(str::to_owned), season.map(str::to_owned), day);
    for mut block in faults {
        plan.schedule(fault(&mut block)?)?;
    }
    Ok(plan)
}

/// Reads one `[[fault]]` block: its kind, the keys that kind takes, and
/// its window.
fn fault(block: &mut Block<'_>) -> Result<ScheduledFault, SpecError> {
    let kind_field = block.required("kind")?;
    let kind_name = kind_field.string()?;
    let kind = match kind_name {
        "sensor_stuck" => {
            let channel = match block.get("channel") {
                None => SensorChannel::Both,
                Some(field) => match field.string()? {
                    "voltage" => SensorChannel::Voltage,
                    "current" => SensorChannel::Current,
                    "both" => SensorChannel::Both,
                    _ => return Err(field.error("`channel` must be voltage, current or both")),
                },
            };
            FaultKind::SensorStuck { channel }
        }
        "sensor_dropout" => FaultKind::SensorDropout,
        "sensor_bias_drift" => FaultKind::SensorBiasDrift {
            rate_per_minute: block.required("rate_per_minute")?.number()?,
        },
        "sensor_noise_burst" => FaultKind::SensorNoiseBurst {
            sigma: block.required("sigma")?.number()?,
        },
        "converter_derate" => FaultKind::ConverterDerate {
            factor_start: block.required("factor_start")?.number()?,
            factor_end: block.required("factor_end")?.number()?,
        },
        "actuator_lag" => FaultKind::ActuatorLag {
            steps: block.required("steps")?.int()?,
        },
        "ats_flap" => FaultKind::AtsFlap {
            period_minutes: block.required("period_minutes")?.int()?,
        },
        "core_throttle" => FaultKind::CoreThrottle {
            core: block.required("core")?.int()?,
            max_level_index: block.required("max_level_index")?.int()?,
        },
        "core_loss" => FaultKind::CoreLoss {
            core: block.required("core")?.int()?,
        },
        "irradiance_cliff" => FaultKind::IrradianceCliff {
            factor: block.required("factor")?.number()?,
            ramp_minutes: block
                .get("ramp_minutes")
                .map(|f| f.int())
                .transpose()?
                .unwrap_or(0),
        },
        _ => return Err(kind_field.error("unknown fault kind")),
    };
    let fault = ScheduledFault {
        start_minute: block.required("start")?.int()?,
        end_minute: block.required("end")?.int()?,
        kind,
    };
    block.finish(format_args!("fault kind `{kind_name}`"))?;
    Ok(fault)
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
        let no_end = "[scenario]\nname = \"x\"\n\n[[fault]]\nkind = \"core_loss\"\n\
                      core = 1\nstart = 0\n";
        let fault_first = "# leading comment\n[[fault]]\nkind = \"core_loss\"\n";
        let two_heads = "[scenario]\nname = \"x\"\n[scenario]\n";
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
            (no_end, 4, "[[fault]] block missing `end`"),
            (fault_first, 2, "[scenario] must be the first block"),
            (two_heads, 3, "[scenario] must be the first block"),
            ("[fault]\n", 1, "unknown block header"),
            ("[scenario]\nname\n", 2, "expected `key = value`"),
            ("", 1, "missing the [scenario] block"),
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
