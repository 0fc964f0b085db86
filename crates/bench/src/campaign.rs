//! Year-scale multi-site campaign engine: sharded execution with
//! checkpoint/resume and streaming telemetry aggregation.
//!
//! The paper's evaluation spans four representative days; the ROADMAP's
//! north star asks for sweeps "as fast as the hardware allows" over far
//! longer horizons. This module runs them: a [`CampaignSpec`] (TOML-ish
//! text, read by the same reader as `scenarios/*.toml`) enumerates
//! `site × month × workload-mix × policy × fault-scenario` **shards**, each
//! shard simulating a run of consecutive days ([`solarenv::DayRange`])
//! that share one warm PV solver memo
//! ([`SimSetup::into_cache`](solarcore::engine::SimSetup::into_cache) →
//! [`DaySimulation::prepare_with_cache`](solarcore::DaySimulation::prepare_with_cache)).
//!
//! **Scheduling.** Shards run on [`parallel_map`]'s lock-free
//! grab-next-index pool — idle workers steal the next unclaimed shard —
//! and outputs always come back in input order, so the report is
//! byte-stable at any thread count.
//!
//! **Checkpoint/resume.** Shards execute in waves of
//! `checkpoint_every`; after each wave the engine rewrites the checkpoint
//! (canonical JSON via [`Json`]: sorted keys, shortest-roundtrip floats,
//! so every `f64` parses back to the exact same bits). A killed campaign
//! resumes from the last full wave and re-executes only the in-flight
//! wave; the finished report is byte-identical to an uninterrupted run's —
//! `bench/tests/campaign_resume.rs` enforces it.
//!
//! **Aggregation.** Each shard folds its day-end telemetry snapshots into
//! a [`MetricFold`]; the engine merges per-shard folds into one campaign
//! aggregate with the associative `merge`, so memory stays O(shards in
//! flight), never O(campaign).

use std::error::Error;
use std::fmt;
use std::path::{Path, PathBuf};

use faults::{parse_scenario, read_spec, Block, FaultPlan, Field, SpecError};
use solarcore::telemetry::{
    schema, NEWTON_ITER_BOUNDS, RATIO_K_BOUNDS, TPR_MOVE_BOUNDS, TRACK_BOUNDS,
};
use solarcore::{DaySimulation, Policy};
use solarenv::{DayRange, Month, Season, Site};
use telemetry::{CounterSnapshot, HistogramSnapshot, MetricFold, Stopwatch, Telemetry};
use workloads::Mix;

use crate::determinism::{day_hash, CanonicalHasher};
use crate::output::Json;
use crate::parallel::parallel_map;

/// A campaign error: a spec that fails to parse, at its line, or a
/// scenario file or checkpoint that cannot be used.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CampaignError {
    /// The spec text failed to parse, or named something unknown.
    Parse {
        /// 1-based line number of the offending line.
        line: usize,
        /// What went wrong.
        reason: String,
    },
    /// A scenario file could not be read or parsed, a name edited into a
    /// parsed spec is unknown, or a checkpoint was unusable.
    Invalid {
        /// What went wrong.
        reason: String,
    },
}

impl fmt::Display for CampaignError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CampaignError::Parse { line, reason } => {
                write!(f, "campaign spec line {line}: {reason}")
            }
            CampaignError::Invalid { reason } => write!(f, "invalid campaign: {reason}"),
        }
    }
}

impl Error for CampaignError {}

impl From<SpecError> for CampaignError {
    fn from(e: SpecError) -> Self {
        CampaignError::Parse {
            line: e.line,
            reason: e.reason,
        }
    }
}

fn invalid(reason: impl Into<String>) -> CampaignError {
    CampaignError::Invalid {
        reason: reason.into(),
    }
}

/// A parsed campaign specification.
///
/// The text format is one `[campaign]` block of `key = value` lines —
/// double-quoted strings or bare integers, `#` comments — read by the
/// same reader as `scenarios/*.toml` ([`faults::read_spec`]). List-valued
/// keys are comma-separated inside one string, with no item listed twice;
/// `months` additionally accepts inclusive ranges.
///
/// ```
/// use bench::campaign::CampaignSpec;
///
/// let spec = CampaignSpec::parse(r#"
/// [campaign]
/// name = "smoke"
/// sites = "AZ,TN"          # site codes
/// months = "Jan-Feb"       # ranges and/or single months
/// days_per_month = 1
/// mixes = "HM2"
/// policies = "MPPT&Opt"
/// scenarios = "none"       # "none" = disarmed; else a scenarios/ file
/// checkpoint_every = 2
/// "#).unwrap();
/// let shards = spec.shards(std::path::Path::new(".")).unwrap();
/// assert_eq!(shards.len(), 4); // 2 sites × 2 months × 1 × 1 × 1
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CampaignSpec {
    /// Campaign name (report/checkpoint identity).
    pub name: String,
    /// Site codes to sweep (`"AZ"`, `"CO"`, `"NC"`, `"TN"`).
    pub sites: Vec<String>,
    /// Months to sweep, in calendar order of appearance.
    pub months: Vec<Month>,
    /// Consecutive weather realizations simulated per (site, month) cell,
    /// 1 ..= [`DayRange::MAX_DAYS`].
    pub days_per_month: u32,
    /// Workload mix names.
    pub mixes: Vec<String>,
    /// Policy labels (`"MPPT&IC"`, `"MPPT&RR"`, `"MPPT&Opt"`,
    /// `"MPPT&Chip"`; `"Fixed-Power"` is unknown — it needs a budget the
    /// spec grammar does not carry).
    pub policies: Vec<String>,
    /// Fault scenarios: `"none"` (disarmed) or `scenarios/` file names.
    pub scenarios: Vec<String>,
    /// Shards per checkpoint wave.
    pub checkpoint_every: usize,
}

impl CampaignSpec {
    /// Parses a spec, resolving every site, month, mix and policy it names.
    ///
    /// # Errors
    ///
    /// [`CampaignError::Parse`] at the offending line for malformed text,
    /// an unknown key, name or header, a repeated list item and an
    /// out-of-range number.
    pub fn parse(text: &str) -> Result<CampaignSpec, CampaignError> {
        let (mut block, _) = read_spec(text, "[campaign]", None)?;
        let name = block.required("name")?.string()?.to_owned();
        let sites = names(
            &mut block,
            "sites",
            &["AZ", "CO", "NC", "TN"],
            "site code",
            Site::from_code,
        )?;
        let months = match block.get("months") {
            Some(field) => months(field)?,
            None => Month::ALL.to_vec(),
        };
        let days_per_month = match block.get("days_per_month") {
            Some(field) => match field.int()? {
                days @ 1..=DayRange::MAX_DAYS => days,
                days => {
                    let max = DayRange::MAX_DAYS;
                    let reason = format!("days_per_month {days} is outside 1..={max}");
                    return Err(field.error(reason).into());
                }
            },
            None => 1,
        };
        let mixes = names(&mut block, "mixes", &["HM2"], "mix", Mix::by_name)?;
        let policies = names(
            &mut block,
            "policies",
            &["MPPT&Opt"],
            "campaign policy",
            policy_from_label,
        )?;
        // `shards()` loads the scenario files, so any name passes here.
        let scenarios = names(&mut block, "scenarios", &["none"], "scenario", |_| Some(()))?;
        let checkpoint_every = match block.get("checkpoint_every") {
            Some(field) => match field.int()? {
                0 => return Err(field.error("checkpoint_every must be at least 1").into()),
                n => n,
            },
            None => 8,
        };
        block.finish("[campaign]")?;
        Ok(CampaignSpec {
            name,
            sites,
            months,
            days_per_month,
            mixes,
            policies,
            scenarios,
            checkpoint_every,
        })
    }

    /// Canonical FNV-1a digest over every shard-defining spec field
    /// (everything except `checkpoint_every`, which only groups waves and
    /// cannot change the final report). A checkpoint records this digest
    /// and refuses to resume under a different spec.
    pub fn digest(&self) -> u64 {
        let mut h = CanonicalHasher::default();
        h.str(&self.name);
        h.u64(self.sites.len() as u64);
        for s in &self.sites {
            h.str(s);
        }
        h.u64(self.months.len() as u64);
        for m in &self.months {
            h.str(m.name());
        }
        h.u64(u64::from(self.days_per_month));
        h.u64(self.mixes.len() as u64);
        for m in &self.mixes {
            h.str(m);
        }
        h.u64(self.policies.len() as u64);
        for p in &self.policies {
            h.str(p);
        }
        h.u64(self.scenarios.len() as u64);
        for s in &self.scenarios {
            h.str(s);
        }
        h.finish()
    }

    /// Enumerates the campaign's shards in canonical
    /// `(site, month, mix, policy, scenario)` nested order — which is both
    /// the execution input order and the report row order — resolving each
    /// scenario name against `scenarios_dir` (`"none"` loads nothing).
    ///
    /// # Errors
    ///
    /// [`CampaignError::Invalid`] when a scenario file is missing or fails
    /// to parse, or a name edited into the spec after [`parse`] is
    /// unknown.
    ///
    /// [`parse`]: CampaignSpec::parse
    pub fn shards(&self, scenarios_dir: &Path) -> Result<Vec<Shard>, CampaignError> {
        let mut plans: Vec<Option<FaultPlan>> = Vec::with_capacity(self.scenarios.len());
        for scenario in &self.scenarios {
            if scenario == "none" {
                plans.push(None);
            } else {
                let path = scenarios_dir.join(scenario);
                let text = std::fs::read_to_string(&path)
                    .map_err(|e| invalid(format!("scenario `{scenario}`: {e}")))?;
                let plan = parse_scenario(&text)
                    .map_err(|e| invalid(format!("scenario `{scenario}`: {e}")))?;
                plans.push(Some(plan));
            }
        }
        // Each name resolves once, not once per shard.
        let sites = resolve(&self.sites, "site code", Site::from_code)?;
        let mixes = resolve(&self.mixes, "mix", Mix::by_name)?;
        let policies = resolve(&self.policies, "campaign policy", policy_from_label)?;
        let mut shards = Vec::new();
        for site in &sites {
            for &month in &self.months {
                for mix in &mixes {
                    for &policy in &policies {
                        for (scenario, plan) in self.scenarios.iter().zip(&plans) {
                            shards.push(Shard {
                                index: shards.len(),
                                site: site.clone(),
                                month,
                                mix: mix.clone(),
                                policy,
                                scenario: scenario.clone(),
                                plan: plan.clone(),
                            });
                        }
                    }
                }
            }
        }
        Ok(shards)
    }
}

/// One unit of campaign work: `days_per_month` consecutive simulated days
/// of a `(site, month, mix, policy, scenario)` cell.
#[derive(Debug, Clone)]
pub struct Shard {
    /// Position in canonical enumeration order (also the row index).
    pub index: usize,
    /// The site simulated.
    pub site: Site,
    /// The month simulated (anchored to its season; see
    /// [`Month::anchor`]).
    pub month: Month,
    /// The workload mix.
    pub mix: Mix,
    /// The power-management policy.
    pub policy: Policy,
    /// Scenario label (`"none"` when disarmed).
    pub scenario: String,
    /// The armed fault plan, when `scenario` names one.
    pub plan: Option<FaultPlan>,
}

/// Resolves every name in `names`. `parse` has checked them all, but the
/// spec's fields are public, so a name edited in afterwards is checked
/// here.
fn resolve<T>(
    names: &[String],
    what: &str,
    lookup: impl Fn(&str) -> Option<T>,
) -> Result<Vec<T>, CampaignError> {
    names
        .iter()
        .map(|n| lookup(n).ok_or_else(|| invalid(format!("unknown {what} `{n}`"))))
        .collect()
}

/// Maps a campaign policy label to its [`Policy`]. `Fixed-Power` is not
/// one: it needs a budget the spec grammar does not carry.
fn policy_from_label(label: &str) -> Option<Policy> {
    match label {
        "MPPT&IC" => Some(Policy::MpptIc),
        "MPPT&RR" => Some(Policy::MpptRr),
        "MPPT&Opt" => Some(Policy::MpptOpt),
        "MPPT&Chip" => Some(Policy::MpptChipWide),
        _ => None,
    }
}

/// Reads the list `key` (or `default` when it is unset), rejecting at
/// the key's line an item that `lookup` does not resolve.
fn names<T>(
    block: &mut Block<'_>,
    key: &str,
    default: &[&str],
    what: &str,
    lookup: impl Fn(&str) -> Option<T>,
) -> Result<Vec<String>, SpecError> {
    let Some(field) = block.get(key) else {
        return Ok(default.iter().map(|&d| d.to_owned()).collect());
    };
    field
        .list()?
        .into_iter()
        .map(|item| match lookup(item) {
            Some(_) => Ok(item.to_owned()),
            None => Err(field.error(format!("unknown {what} `{item}`"))),
        })
        .collect()
}

/// Reads `months`: single months and inclusive ranges, in order of
/// appearance, with no month listed twice.
fn months(field: Field<'_>) -> Result<Vec<Month>, SpecError> {
    let mut months = Vec::new();
    for part in field.list()? {
        let range = Month::parse_range(part)
            .ok_or_else(|| field.error(format!("bad month or range `{part}`")))?;
        for m in range {
            if months.contains(&m) {
                return Err(field.error(format!("month `{m}` listed twice")));
            }
            months.push(m);
        }
    }
    Ok(months)
}

// ---- shard execution ---------------------------------------------------

/// The per-shard result row: identity, scalars, and the canonical FNV-1a
/// digest over every simulated day's full minute-level output.
#[derive(Debug, Clone, PartialEq)]
pub struct ShardRow {
    /// Shard index (canonical enumeration order).
    pub index: usize,
    /// Site code.
    pub site: String,
    /// Month name.
    pub month: String,
    /// Mix name.
    pub mix: String,
    /// Policy label.
    pub policy: String,
    /// Scenario label (`"none"` when disarmed).
    pub scenario: String,
    /// Days simulated.
    pub days: u32,
    /// FNV-1a digest chaining every day's [`day_hash`].
    pub digest: u64,
    /// Sum of solar-powered instructions (performance-time product).
    pub ptp: f64,
    /// Mean green-energy utilization across the shard's days.
    pub utilization: f64,
    /// Mean fraction of the daytime window spent solar-powered.
    pub effective_fraction: f64,
    /// Mean relative tracking error.
    pub tracking_error: f64,
    /// Total solar energy drawn, Wh.
    pub energy_drawn_wh: f64,
    /// Total ideal MPP energy available, Wh.
    pub energy_available_wh: f64,
}

impl ShardRow {
    /// Renders the row as a canonical-JSON object.
    pub fn to_json(&self) -> Json {
        Json::obj(vec![
            ("index", Json::int(self.index)),
            ("site", Json::str(&self.site)),
            ("month", Json::str(&self.month)),
            ("mix", Json::str(&self.mix)),
            ("policy", Json::str(&self.policy)),
            ("scenario", Json::str(&self.scenario)),
            ("days", Json::int(self.days as usize)),
            ("digest", Json::hex(self.digest)),
            ("ptp", Json::Num(self.ptp)),
            ("utilization", Json::Num(self.utilization)),
            ("effective_fraction", Json::Num(self.effective_fraction)),
            ("tracking_error", Json::Num(self.tracking_error)),
            ("energy_drawn_wh", Json::Num(self.energy_drawn_wh)),
            ("energy_available_wh", Json::Num(self.energy_available_wh)),
        ])
    }

    /// Reads a row back from parsed checkpoint JSON. Exact by
    /// construction: canonical floats are shortest-roundtrip and digests
    /// travel as hex strings.
    fn from_json(v: &Json) -> Result<ShardRow, CampaignError> {
        let field = |k: &str| -> Result<&Json, CampaignError> {
            v.get(k)
                .ok_or_else(|| invalid(format!("checkpoint row missing `{k}`")))
        };
        let s = |k: &str| -> Result<String, CampaignError> {
            field(k)?
                .as_str()
                .map(str::to_owned)
                .ok_or_else(|| invalid(format!("checkpoint row `{k}` is not a string")))
        };
        let f = |k: &str| -> Result<f64, CampaignError> {
            field(k)?
                .as_f64()
                .ok_or_else(|| invalid(format!("checkpoint row `{k}` is not a number")))
        };
        let u = |k: &str| -> Result<u64, CampaignError> {
            field(k)?
                .as_u64()
                .ok_or_else(|| invalid(format!("checkpoint row `{k}` is not an integer")))
        };
        Ok(ShardRow {
            index: usize::try_from(u("index")?).map_err(|_| invalid("row index out of range"))?,
            site: s("site")?,
            month: s("month")?,
            mix: s("mix")?,
            policy: s("policy")?,
            scenario: s("scenario")?,
            days: u32::try_from(u("days")?).map_err(|_| invalid("row days out of range"))?,
            digest: parse_hex(&s("digest")?)?,
            ptp: f("ptp")?,
            utilization: f("utilization")?,
            effective_fraction: f("effective_fraction")?,
            tracking_error: f("tracking_error")?,
            energy_drawn_wh: f("energy_drawn_wh")?,
            energy_available_wh: f("energy_available_wh")?,
        })
    }
}

fn parse_hex(s: &str) -> Result<u64, CampaignError> {
    u64::from_str_radix(s, 16).map_err(|_| invalid(format!("bad hex digest `{s}`")))
}

/// A shard result: the deterministic row and metric fold, plus — when
/// profiling was requested — the shard's wall time in nanoseconds.
pub type ProfiledShard = (ShardRow, MetricFold, Option<u64>);

/// Runs one shard: `days` consecutive day simulations of its month
/// ([`DayRange`]), threading one warm PV solver memo, with day-end
/// telemetry folded into a [`MetricFold`].
///
/// When `profile` is true, the result carries the shard's wall time in
/// nanoseconds, read off a [`Stopwatch`]. The reading never touches
/// telemetry, the fold, or the digest — rows are bit-identical either way
/// (`bench/tests/profile.rs` checks it).
///
/// # Errors
///
/// Propagates simulation configuration/run errors as strings (the form
/// that crosses [`parallel_map`]'s thread boundary).
pub fn run_shard(shard: &Shard, days: u32, profile: bool) -> Result<ProfiledShard, String> {
    let days: Vec<u32> = DayRange::new(shard.month, days).day_indices().collect();
    run_cell(
        &Cell {
            index: shard.index,
            site: &shard.site,
            mix: &shard.mix,
            policy: shard.policy,
            scenario: &shard.scenario,
            plan: shard.plan.as_ref(),
            season: shard.month.anchor(),
            days: &days,
            period: shard.month.name(),
        },
        profile,
    )
}

/// One sweep cell as the shared day loop ([`run_cell`]) runs it: the
/// identity its row records, and the days it simulates.
pub(crate) struct Cell<'a> {
    /// Row index.
    pub(crate) index: usize,
    /// The site simulated.
    pub(crate) site: &'a Site,
    /// The workload mix.
    pub(crate) mix: &'a Mix,
    /// The power-management policy.
    pub(crate) policy: Policy,
    /// Scenario label (`"none"` when disarmed).
    pub(crate) scenario: &'a str,
    /// The armed fault plan, if any.
    pub(crate) plan: Option<&'a FaultPlan>,
    /// The season every day's weather is drawn from.
    pub(crate) season: Season,
    /// Weather-realization indices, in run order.
    pub(crate) days: &'a [u32],
    /// The period label the row records in its `month` column.
    pub(crate) period: &'a str,
}

/// The one day loop behind every sweep: builds, prepares and runs each of
/// the cell's days through one warm PV solver memo, chains their
/// [`day_hash`]es and folds their scalars into a [`ShardRow`]. Both
/// [`run_shard`] and the policy grid ([`crate::grid::PolicyGrid::compute`])
/// call it; see [`run_shard`] for `profile`.
pub(crate) fn run_cell(cell: &Cell<'_>, profile: bool) -> Result<ProfiledShard, String> {
    use std::cell::RefCell;
    use std::rc::Rc;

    let watch = Stopwatch::new();
    let fold = Rc::new(RefCell::new(MetricFold::new()));
    let mut cache = pv::ArrayCache::new();
    let mut h = CanonicalHasher::default();
    let mut ptp = 0.0;
    let mut utilization = 0.0;
    let mut effective_fraction = 0.0;
    let mut tracking_error = 0.0;
    let mut energy_drawn_wh = 0.0;
    let mut energy_available_wh = 0.0;

    for &day in cell.days {
        let mut builder = DaySimulation::builder()
            .site(cell.site.clone())
            .season(cell.season)
            .day(day)
            .mix(cell.mix.clone())
            .policy(cell.policy)
            .telemetry(Telemetry::attached(fold.clone()));
        if let Some(plan) = cell.plan {
            builder = builder.fault_plan(plan.clone());
        }
        let sim = builder.build().map_err(|e| e.to_string())?;
        let setup = sim.prepare_with_cache(cache);
        let result = sim.run_prepared(&setup).map_err(|e| e.to_string())?;
        cache = setup.into_cache();

        h.u64(u64::from(day));
        h.u64(day_hash(&result));
        ptp += result.solar_instructions();
        utilization += result.utilization();
        effective_fraction += result.effective_fraction();
        tracking_error += result.mean_tracking_error();
        energy_drawn_wh += result.energy_drawn().get();
        energy_available_wh += result.energy_available().get();
    }

    // Every simulation (and its Telemetry handle) is dropped, so this is
    // the last reference to the fold.
    let fold = Rc::try_unwrap(fold)
        .map_err(|_| "telemetry fold still shared after shard".to_owned())?
        .into_inner();
    let days =
        u32::try_from(cell.days.len()).map_err(|_| "too many days in one cell".to_owned())?;
    let n = f64::from(days.max(1));
    let row = ShardRow {
        index: cell.index,
        site: cell.site.code().to_owned(),
        month: cell.period.to_owned(),
        mix: cell.mix.name().to_owned(),
        policy: cell.policy.label().to_owned(),
        scenario: cell.scenario.to_owned(),
        days,
        digest: h.finish(),
        ptp,
        utilization: utilization / n,
        effective_fraction: effective_fraction / n,
        tracking_error: tracking_error / n,
        energy_drawn_wh,
        energy_available_wh,
    };
    Ok((row, fold, profile.then(|| watch.elapsed_ns())))
}

// ---- aggregate (de)serialization --------------------------------------

/// Resolves a histogram name from a checkpoint to its schema constant and
/// bucket bounds. The indirection re-establishes the `&'static` lifetimes
/// a parsed checkpoint cannot carry.
fn static_histogram(name: &str) -> Option<(&'static str, &'static [u64])> {
    match name {
        schema::HIST_NEWTON_ITERS => Some((schema::HIST_NEWTON_ITERS, NEWTON_ITER_BOUNDS)),
        schema::HIST_TRACK_ROUNDS => Some((schema::HIST_TRACK_ROUNDS, TRACK_BOUNDS)),
        schema::HIST_TRACK_ACTIONS => Some((schema::HIST_TRACK_ACTIONS, TRACK_BOUNDS)),
        schema::HIST_TRACK_REVERSALS => Some((schema::HIST_TRACK_REVERSALS, TRACK_BOUNDS)),
        schema::HIST_TPR_MOVES => Some((schema::HIST_TPR_MOVES, TPR_MOVE_BOUNDS)),
        schema::HIST_RATIO_K_CENTI => Some((schema::HIST_RATIO_K_CENTI, RATIO_K_BOUNDS)),
        _ => None,
    }
}

/// Resolves a counter name from a checkpoint to its schema constant.
fn static_counter(name: &str) -> Option<&'static str> {
    match name {
        schema::COUNTER_MPP_QUERIES => Some(schema::COUNTER_MPP_QUERIES),
        schema::COUNTER_PV_EVALS => Some(schema::COUNTER_PV_EVALS),
        _ => None,
    }
}

/// Resolves an event/span name from a checkpoint to its schema constant.
fn static_event(name: &str) -> Option<&'static str> {
    match name {
        schema::EVENT_DAY_START => Some(schema::EVENT_DAY_START),
        schema::EVENT_MINUTE => Some(schema::EVENT_MINUTE),
        schema::EVENT_TPR_ALLOC => Some(schema::EVENT_TPR_ALLOC),
        schema::EVENT_VF_RESIDENCY => Some(schema::EVENT_VF_RESIDENCY),
        schema::EVENT_DAY_SUMMARY => Some(schema::EVENT_DAY_SUMMARY),
        schema::EVENT_FAULT_REJECT => Some(schema::EVENT_FAULT_REJECT),
        schema::EVENT_DEGRADE_ENTER => Some(schema::EVENT_DEGRADE_ENTER),
        schema::EVENT_DEGRADE_EXIT => Some(schema::EVENT_DEGRADE_EXIT),
        schema::SPAN_TRACK => Some(schema::SPAN_TRACK),
        _ => None,
    }
}

/// Renders a [`MetricFold`] as a canonical-JSON object.
pub fn fold_to_json(fold: &MetricFold) -> Json {
    let histograms = fold
        .histogram_snapshots()
        .iter()
        .map(|snap| {
            Json::obj(vec![
                ("name", Json::str(snap.name)),
                (
                    "bounds",
                    Json::Arr(snap.bounds.iter().map(|&b| Json::uint(b)).collect()),
                ),
                (
                    "counts",
                    Json::Arr(snap.counts.iter().map(|&c| Json::uint(c)).collect()),
                ),
                ("count", Json::uint(snap.count)),
                ("sum", Json::uint(snap.sum)),
                ("max", Json::uint(snap.max)),
            ])
        })
        .collect();
    let counters = fold
        .counter_snapshots()
        .iter()
        .map(|snap| {
            Json::obj(vec![
                ("name", Json::str(snap.name)),
                ("value", Json::uint(snap.value)),
            ])
        })
        .collect();
    let tallies = fold
        .tallies()
        .iter()
        .map(|&(name, n)| Json::obj(vec![("name", Json::str(name)), ("n", Json::uint(n))]))
        .collect();
    Json::obj(vec![
        ("histograms", Json::Arr(histograms)),
        ("counters", Json::Arr(counters)),
        ("tallies", Json::Arr(tallies)),
    ])
}

/// Rebuilds a [`MetricFold`] from parsed checkpoint JSON, resolving every
/// name against the `solarcore` telemetry schema (unknown names mean the
/// checkpoint came from a different schema generation and are rejected).
///
/// # Errors
///
/// [`CampaignError::Invalid`] on structural or schema mismatches.
pub fn fold_from_json(v: &Json) -> Result<MetricFold, CampaignError> {
    let arr = |k: &str| -> Result<&Vec<Json>, CampaignError> {
        v.get(k)
            .and_then(Json::as_array)
            .ok_or_else(|| invalid(format!("checkpoint aggregate missing `{k}` array")))
    };
    let name_of = |item: &Json| -> Result<String, CampaignError> {
        item.get("name")
            .and_then(Json::as_str)
            .map(str::to_owned)
            .ok_or_else(|| invalid("aggregate entry missing `name`"))
    };
    let u = |item: &Json, k: &str| -> Result<u64, CampaignError> {
        item.get(k)
            .and_then(Json::as_u64)
            .ok_or_else(|| invalid(format!("aggregate entry `{k}` is not an integer")))
    };
    let u_list = |item: &Json, k: &str| -> Result<Vec<u64>, CampaignError> {
        item.get(k)
            .and_then(Json::as_array)
            .ok_or_else(|| invalid(format!("aggregate entry `{k}` is not an array")))?
            .iter()
            .map(|x| {
                x.as_u64()
                    .ok_or_else(|| invalid(format!("aggregate `{k}` element is not an integer")))
            })
            .collect()
    };

    let mut fold = MetricFold::new();
    for item in arr("histograms")? {
        let name = name_of(item)?;
        let Some((static_name, bounds)) = static_histogram(&name) else {
            return Err(invalid(format!("unknown histogram `{name}` in checkpoint")));
        };
        if u_list(item, "bounds")? != bounds {
            return Err(invalid(format!(
                "histogram `{name}` bounds drifted from the schema"
            )));
        }
        let snap = HistogramSnapshot {
            name: static_name,
            seq: 0,
            bounds,
            counts: u_list(item, "counts")?,
            count: u(item, "count")?,
            sum: u(item, "sum")?,
            max: u(item, "max")?,
        };
        fold.absorb_histogram(&snap)
            .map_err(|e| invalid(e.to_string()))?;
    }
    for item in arr("counters")? {
        let name = name_of(item)?;
        let Some(static_name) = static_counter(&name) else {
            return Err(invalid(format!("unknown counter `{name}` in checkpoint")));
        };
        fold.absorb_counter(&CounterSnapshot {
            name: static_name,
            seq: 0,
            value: u(item, "value")?,
        });
    }
    for item in arr("tallies")? {
        let name = name_of(item)?;
        let Some(static_name) = static_event(&name) else {
            return Err(invalid(format!("unknown record name `{name}` in checkpoint")));
        };
        fold.tally(static_name, u(item, "n")?);
    }
    Ok(fold)
}

// ---- engine ------------------------------------------------------------

/// Runtime options of one engine invocation (never part of the spec
/// digest — none of these can change the final report bytes).
#[derive(Debug, Clone, Default)]
pub struct RunOptions {
    /// Worker threads (0 = [`crate::parallel::default_threads`]).
    pub threads: usize,
    /// Checkpoint file: loaded (resume) when present, rewritten after
    /// every completed wave. `None` disables checkpointing.
    pub checkpoint: Option<PathBuf>,
    /// Simulated kill switch for tests: abort once at least this many
    /// shards have completed, *without* checkpointing the in-flight wave —
    /// exactly what `kill -9` mid-wave loses.
    pub kill_after: Option<usize>,
    /// Collect a wall-clock [`CampaignProfile`] (per-shard and per-wave
    /// walls). Profiling never touches rows, aggregate, or digest —
    /// `bench/tests/profile.rs` checks that the report bytes are identical.
    pub profile: bool,
    /// Invoked after every completed wave with cumulative progress and an
    /// ETA (a plain `fn` pointer so the options stay `Clone + Default`).
    /// `None` stays silent — the default for tests and library callers.
    pub progress: Option<fn(&WaveProgress)>,
}

/// Cumulative progress snapshot handed to [`RunOptions::progress`] after
/// every completed wave.
#[derive(Debug, Clone, Copy)]
pub struct WaveProgress {
    /// Completed shards so far, resumed rows included.
    pub done: usize,
    /// Total shards in the spec.
    pub total: usize,
    /// Shards executed by this invocation (resumed rows excluded).
    pub executed: usize,
    /// Wall-clock seconds since this invocation started.
    pub elapsed_secs: f64,
    /// Estimated seconds remaining (`elapsed / executed × remaining`),
    /// `None` until the first shard has executed.
    pub eta_secs: Option<f64>,
}

/// The result of an engine invocation.
#[derive(Debug)]
pub struct CampaignOutcome {
    /// Campaign name (from the spec).
    pub name: String,
    /// The spec digest the run (and any checkpoint) is bound to.
    pub spec_digest: u64,
    /// All completed rows, in canonical shard order.
    pub rows: Vec<ShardRow>,
    /// The campaign-level metric aggregate.
    pub aggregate: MetricFold,
    /// Shard indices executed *by this invocation* (resumed-from rows
    /// excluded) — the resume tests use this to prove nothing before the
    /// checkpoint frontier re-executed.
    pub executed: Vec<usize>,
    /// Rows restored from the checkpoint instead of executed.
    pub resumed_from: usize,
    /// Rows durably checkpointed when the invocation returned.
    pub checkpointed: usize,
    /// `false` when `kill_after` aborted the run.
    pub complete: bool,
    /// Wall-clock profile of this invocation when [`RunOptions::profile`]
    /// was set — never folded into [`CampaignOutcome::report_json`].
    pub profile: Option<CampaignProfile>,
}

impl CampaignOutcome {
    /// Canonical FNV-1a digest over every row — the campaign digest the
    /// golden test pins.
    pub fn digest(&self) -> u64 {
        rows_digest(&self.rows)
    }

    /// The report document — identity, rows, aggregate, digest — and,
    /// rendered, the committed `results/campaign_report.json` byte for
    /// byte. Byte-identical across thread counts and kill/resume
    /// schedules; no wall-clock reading enters it.
    pub fn report_json(&self) -> Json {
        Json::obj(vec![
            ("campaign", Json::str(&self.name)),
            ("spec_digest", Json::hex(self.spec_digest)),
            ("shards", Json::int(self.rows.len())),
            ("rows", Json::Arr(self.rows.iter().map(ShardRow::to_json).collect())),
            ("aggregate", fold_to_json(&self.aggregate)),
            ("digest", Json::hex(self.digest())),
        ])
    }
}

/// Wall-clock measurements of one campaign wave (a `checkpoint_every`
/// batch of shards dispatched to the worker pool together).
#[derive(Debug, Clone, Copy)]
pub struct WaveWall {
    /// Shards the wave executed.
    pub shards: usize,
    /// Wall time of the whole wave (dispatch to last join), nanoseconds.
    pub wall_ns: u64,
    /// Sum of the wave's per-shard wall times, nanoseconds.
    pub sum_shard_ns: u64,
}

/// Wall-clock profile of one campaign invocation: per-shard and per-wave
/// timings. Collected only when [`RunOptions::profile`] is set; lives
/// **outside** the report document ([`CampaignOutcome::report_json`]
/// never reads it).
#[derive(Debug, Clone, Default)]
pub struct CampaignProfile {
    /// `(shard index, wall ns)` for every shard this invocation executed.
    pub shard_walls: Vec<(usize, u64)>,
    /// Per-wave wall measurements, in execution order.
    pub waves: Vec<WaveWall>,
    /// Worker threads the pool ran with.
    pub threads: usize,
}

impl CampaignProfile {
    /// Worker-pool utilization: shard work performed over pool capacity
    /// (`Σ shard walls / (threads × Σ wave walls)`). 1.0 = every worker
    /// busy for every wave; low values mean stragglers serialized waves.
    #[allow(clippy::cast_precision_loss)]
    pub fn pool_utilization(&self) -> f64 {
        let wall: u64 = self.waves.iter().map(|w| w.wall_ns).sum();
        let capacity = (self.threads.max(1) as u64).saturating_mul(wall);
        if capacity == 0 {
            return 0.0;
        }
        let work: u64 = self.waves.iter().map(|w| w.sum_shard_ns).sum();
        work as f64 / capacity as f64
    }
}

/// Canonical FNV-1a digest over report rows, field by field.
pub fn rows_digest(rows: &[ShardRow]) -> u64 {
    let mut h = CanonicalHasher::default();
    h.u64(rows.len() as u64);
    for row in rows {
        h.u64(row.index as u64);
        h.str(&row.site);
        h.str(&row.month);
        h.str(&row.mix);
        h.str(&row.policy);
        h.str(&row.scenario);
        h.u64(u64::from(row.days));
        h.u64(row.digest);
        h.f64(row.ptp);
        h.f64(row.utilization);
        h.f64(row.effective_fraction);
        h.f64(row.tracking_error);
        h.f64(row.energy_drawn_wh);
        h.f64(row.energy_available_wh);
    }
    h.finish()
}

/// Executes (or resumes) a campaign.
///
/// Shards run in waves of `spec.checkpoint_every` on the lock-free
/// [`parallel_map`] pool; rows and the metric aggregate accumulate in
/// canonical order, and the checkpoint is rewritten after every wave. When
/// `opts.checkpoint` names an existing file, the run resumes from it:
/// checkpointed rows are restored verbatim (never re-executed) and
/// execution continues at the frontier.
///
/// # Errors
///
/// Simulation failures, checkpoint I/O/parse failures, and a checkpoint
/// whose `spec_digest` does not match `spec`.
pub fn run(
    spec: &CampaignSpec,
    scenarios_dir: &Path,
    opts: &RunOptions,
) -> Result<CampaignOutcome, Box<dyn Error>> {
    let shards = spec.shards(scenarios_dir)?;
    let spec_digest = spec.digest();
    let threads = if opts.threads == 0 {
        crate::parallel::default_threads()
    } else {
        opts.threads
    };

    let mut rows: Vec<ShardRow> = Vec::with_capacity(shards.len());
    let mut aggregate = MetricFold::new();
    let mut resumed_from = 0;
    if let Some(path) = &opts.checkpoint {
        if path.exists() {
            let (loaded_rows, loaded_fold) = load_checkpoint(path, spec_digest)?;
            resumed_from = loaded_rows.len();
            rows = loaded_rows;
            aggregate = loaded_fold;
        }
    }
    if resumed_from > shards.len() {
        return Err(invalid("checkpoint has more rows than the spec has shards").into());
    }

    let mut executed = Vec::new();
    let mut checkpointed = resumed_from;
    let mut done = resumed_from;
    let days = spec.days_per_month;
    let mut profile = opts.profile.then(|| CampaignProfile {
        threads,
        ..CampaignProfile::default()
    });
    let run_watch = Stopwatch::new();
    while done < shards.len() {
        let wave_end = (done + spec.checkpoint_every).min(shards.len());
        let wave: Vec<Shard> = shards[done..wave_end].to_vec();
        let wave_len = wave.len();
        let profiling = profile.is_some();
        let wave_watch = Stopwatch::new();
        let results = parallel_map(wave, threads, |shard| run_shard(shard, days, profiling));
        let wave_ns = wave_watch.elapsed_ns();
        let mut sum_shard_ns = 0u64;
        for result in results {
            let (row, fold, shard_ns) = result?;
            aggregate.merge(&fold)?;
            if let (Some(p), Some(wall_ns)) = (profile.as_mut(), shard_ns) {
                sum_shard_ns = sum_shard_ns.saturating_add(wall_ns);
                p.shard_walls.push((row.index, wall_ns));
            }
            executed.push(row.index);
            rows.push(row);
        }
        if let Some(p) = profile.as_mut() {
            p.waves.push(WaveWall {
                shards: wave_len,
                wall_ns: wave_ns,
                sum_shard_ns,
            });
        }
        done = wave_end;
        if let Some(report) = opts.progress {
            let elapsed_secs = run_watch.elapsed_secs();
            #[allow(clippy::cast_precision_loss)] // shard counts are tiny
            let eta_secs = (!executed.is_empty())
                .then(|| elapsed_secs / executed.len() as f64 * (shards.len() - done) as f64);
            report(&WaveProgress {
                done,
                total: shards.len(),
                executed: executed.len(),
                elapsed_secs,
                eta_secs,
            });
        }
        let killed = opts.kill_after.is_some_and(|k| done >= k);
        if !killed {
            if let Some(path) = &opts.checkpoint {
                write_checkpoint(path, spec, spec_digest, &rows, &aggregate)?;
                checkpointed = done;
            }
        }
        if killed {
            return Ok(CampaignOutcome {
                name: spec.name.clone(),
                spec_digest,
                rows,
                aggregate,
                executed,
                resumed_from,
                checkpointed,
                complete: false,
                profile,
            });
        }
    }

    Ok(CampaignOutcome {
        name: spec.name.clone(),
        spec_digest,
        rows,
        aggregate,
        executed,
        resumed_from,
        checkpointed,
        complete: true,
        profile,
    })
}

/// Rewrites the checkpoint: the completed-row prefix plus the running
/// aggregate, in canonical JSON (write-then-rename, so a kill mid-write
/// leaves the previous checkpoint intact).
fn write_checkpoint(
    path: &Path,
    spec: &CampaignSpec,
    spec_digest: u64,
    rows: &[ShardRow],
    aggregate: &MetricFold,
) -> Result<(), Box<dyn Error>> {
    let doc = Json::obj(vec![
        ("campaign", Json::str(&spec.name)),
        ("spec_digest", Json::hex(spec_digest)),
        ("completed", Json::int(rows.len())),
        ("rows", Json::Arr(rows.iter().map(ShardRow::to_json).collect())),
        ("aggregate", fold_to_json(aggregate)),
    ]);
    let tmp = path.with_extension("tmp");
    std::fs::write(&tmp, doc.render())?;
    std::fs::rename(&tmp, path)?;
    Ok(())
}

/// Loads a checkpoint, verifying it belongs to this spec.
fn load_checkpoint(
    path: &Path,
    spec_digest: u64,
) -> Result<(Vec<ShardRow>, MetricFold), Box<dyn Error>> {
    let text = std::fs::read_to_string(path)?;
    let doc =
        Json::parse(&text).map_err(|e| invalid(format!("checkpoint {}: {e}", path.display())))?;
    let found = doc
        .get("spec_digest")
        .and_then(Json::as_str)
        .ok_or_else(|| invalid("checkpoint missing `spec_digest`"))?;
    if parse_hex(found)? != spec_digest {
        return Err(invalid(format!(
            "checkpoint {} belongs to a different campaign spec",
            path.display()
        ))
        .into());
    }
    let rows = doc
        .get("rows")
        .and_then(Json::as_array)
        .ok_or_else(|| invalid("checkpoint missing `rows`"))?
        .iter()
        .map(ShardRow::from_json)
        .collect::<Result<Vec<_>, _>>()?;
    for (i, row) in rows.iter().enumerate() {
        if row.index != i {
            return Err(invalid("checkpoint rows are not a canonical prefix").into());
        }
    }
    // `write_checkpoint` always writes both fields, so a mismatch or a
    // missing aggregate means a truncated or hand-edited file: resuming
    // from it would silently drop the restored rows' telemetry.
    let completed = doc.get("completed").and_then(Json::as_u64);
    if completed != u64::try_from(rows.len()).ok() {
        return Err(invalid("checkpoint `completed` does not match its rows").into());
    }
    let aggregate = doc
        .get("aggregate")
        .ok_or_else(|| invalid("checkpoint missing `aggregate`"))?;
    Ok((rows, fold_from_json(aggregate)?))
}

#[cfg(test)]
mod tests {
    use super::*;

    const SPEC: &str = r#"
# two-cell smoke campaign
[campaign]
name = "unit"
sites = "AZ"
months = "Jan"
days_per_month = 1
mixes = "HM2"
policies = "MPPT&Opt,MPPT&RR"
scenarios = "none"
checkpoint_every = 1
"#;

    #[test]
    fn parses_defaults_and_explicit_keys() {
        let spec = CampaignSpec::parse(SPEC).unwrap();
        assert_eq!(spec.name, "unit");
        assert_eq!(spec.sites, vec!["AZ"]);
        assert_eq!(spec.months, vec![Month::Jan]);
        assert_eq!(spec.policies, vec!["MPPT&Opt", "MPPT&RR"]);
        assert_eq!(spec.checkpoint_every, 1);

        let minimal = CampaignSpec::parse("[campaign]\nname = \"m\"\n").unwrap();
        assert_eq!(minimal.sites.len(), 4);
        assert_eq!(minimal.months.len(), 12);
        assert_eq!(minimal.mixes, vec!["HM2"]);
        assert_eq!(minimal.scenarios, vec!["none"]);
    }

    #[test]
    fn parse_errors_carry_line_numbers() {
        // Every bad value fails at its own key's line: the reason names
        // what is wrong, and a duplicate key the line that set it first.
        for (body, want_line, want_reason) in [
            ("bogus = 1", 3, "unknown key `bogus`"),
            ("sites = \"XX\"", 3, "unknown site code `XX`"),
            ("mixes = \"NOPE\"", 3, "unknown mix `NOPE`"),
            (
                "policies = \"Fixed-Power\"",
                3,
                "unknown campaign policy `Fixed-Power`",
            ),
            ("months = \"Smarch\"", 3, "bad month or range `Smarch`"),
            ("days_per_month = 0", 3, "outside 1..=31"),
            ("\ndays_per_month = 32", 4, "outside 1..=31"),
            ("checkpoint_every = 0", 3, "at least 1"),
            (
                "sites = \"AZ\"\n\nsites = \"CO\"",
                5,
                "duplicate key `sites` (first set on line 3)",
            ),
            // A repeated item would run its shards twice or be dropped.
            ("sites = \"AZ,AZ\"", 3, "`AZ` listed twice"),
            ("months = \"Jan,Jan-Feb\"", 3, "month `Jan` listed twice"),
            (
                "policies = \"MPPT&RR, MPPT&RR\"",
                3,
                "`MPPT&RR` listed twice",
            ),
        ] {
            match CampaignSpec::parse(&format!("[campaign]\nname = \"x\"\n{body}\n")) {
                Err(CampaignError::Parse { line, reason }) => {
                    assert_eq!(line, want_line, "{body}: {reason}");
                    assert!(reason.contains(want_reason), "{body}: {reason}");
                }
                other => panic!("{body}: expected a parse error, got {other:?}"),
            }
        }
        match CampaignSpec::parse("name = \"x\"\n") {
            Err(CampaignError::Parse { line, .. }) => assert_eq!(line, 1),
            other => panic!("expected parse error, got {other:?}"),
        }
        assert!(CampaignSpec::parse("[campaign]\nname = \"x\"\ndays_per_month = 31\n").is_ok());
    }

    #[test]
    fn shard_enumeration_is_canonical_and_indexed() {
        let spec = CampaignSpec::parse(SPEC).unwrap();
        let shards = spec.shards(Path::new(".")).unwrap();
        assert_eq!(shards.len(), 2);
        assert_eq!(shards[0].policy, Policy::MpptOpt);
        assert_eq!(shards[1].policy, Policy::MpptRr);
        for (i, s) in shards.iter().enumerate() {
            assert_eq!(s.index, i);
        }
    }

    #[test]
    fn spec_digest_ignores_checkpoint_every_only() {
        let a = CampaignSpec::parse(SPEC).unwrap();
        let mut b = a.clone();
        b.checkpoint_every = 99;
        assert_eq!(a.digest(), b.digest());
        let mut c = a.clone();
        c.sites = vec!["TN".to_owned()];
        assert_ne!(a.digest(), c.digest());
    }

    #[test]
    fn row_json_round_trips_exactly() {
        let row = ShardRow {
            index: 7,
            site: "AZ".to_owned(),
            month: "Feb".to_owned(),
            mix: "HM2".to_owned(),
            policy: "MPPT&Opt".to_owned(),
            scenario: "none".to_owned(),
            days: 3,
            digest: 0xdead_beef_0102_0304,
            ptp: 1.0 / 3.0,
            utilization: 0.08521867475698039,
            effective_fraction: 0.75,
            tracking_error: 2e-3,
            energy_drawn_wh: 123.456789,
            energy_available_wh: 200.0,
        };
        let rendered = row.to_json().render();
        let parsed = ShardRow::from_json(&Json::parse(&rendered).unwrap()).unwrap();
        assert_eq!(parsed, row);
        assert_eq!(parsed.utilization.to_bits(), row.utilization.to_bits());
    }

    #[test]
    fn fold_json_round_trips() {
        let h = telemetry::Histogram::new(schema::HIST_NEWTON_ITERS, NEWTON_ITER_BOUNDS);
        h.record(3);
        h.record(40);
        let mut fold = MetricFold::new();
        fold.absorb_histogram(&h.snapshot(0)).unwrap();
        fold.absorb_counter(&CounterSnapshot {
            name: schema::COUNTER_PV_EVALS,
            seq: 0,
            value: 12345,
        });
        fold.tally(schema::EVENT_MINUTE, 601);

        let doc = fold_to_json(&fold).render();
        let back = fold_from_json(&Json::parse(&doc).unwrap()).unwrap();
        assert_eq!(back.histogram_snapshots(), fold.histogram_snapshots());
        assert_eq!(back.counter_snapshots(), fold.counter_snapshots());
        assert_eq!(back.tallies(), fold.tallies());
    }

    #[test]
    fn fold_json_rejects_unknown_names() {
        let doc = Json::parse(
            r#"{"histograms":[{"name":"mystery","bounds":[1],"counts":[0,0],"count":0,"sum":0,"max":0}],"counters":[],"tallies":[]}"#,
        )
        .unwrap();
        assert!(fold_from_json(&doc).is_err());
    }

    #[test]
    fn pool_analysis_arithmetic() {
        let profile = CampaignProfile {
            shard_walls: vec![(0, 100), (1, 300), (2, 200), (3, 200)],
            waves: vec![
                WaveWall { shards: 2, wall_ns: 300, sum_shard_ns: 400 },
                WaveWall { shards: 2, wall_ns: 200, sum_shard_ns: 400 },
            ],
            threads: 2,
        };
        assert!((profile.pool_utilization() - 0.8).abs() < 1e-12);
        let empty = CampaignProfile::default();
        assert_eq!(empty.pool_utilization(), 0.0);
    }
}
