//! Year-scale calendar: the twelve civil months and day-range iteration.
//!
//! The paper evaluates four representative months (mid-Jan/Apr/Jul/Oct,
//! [`Season`]); the campaign engine sweeps all twelve. Each [`Month`] maps
//! to its nearest evaluated season — the *anchor approximation*: December,
//! January and February share January's climatology and solar geometry,
//! March–May share April's, and so on. What distinguishes the months of one
//! anchor from each other is the *weather realization*: every month owns a
//! disjoint block of day indices ([`Month::day_base`]), so `Feb` day 3 and
//! `Jan` day 3 drive the same clear-sky envelope through different seeded
//! cloud processes. All iteration here is lazy — a [`DayRange`] generates
//! one [`EnvTrace`] at a time, so a year-scale campaign never holds more
//! than the in-flight day's trace in memory.
//!
//! ```
//! use solarenv::{DayRange, Month, Season, Site};
//!
//! assert_eq!(Month::Feb.anchor(), Season::Jan);
//! let range = DayRange::new(Month::Feb, 2);
//! let traces: Vec<_> = range.traces(&Site::phoenix_az()).collect();
//! assert_eq!(traces.len(), 2);
//! assert_eq!(traces[0].samples().len(), 601);
//! ```

use std::fmt;

use crate::season::Season;
use crate::site::Site;
use crate::trace::EnvTrace;

/// One of the twelve civil months, anchored to the paper's four seasons.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Month {
    /// January (anchor: [`Season::Jan`]).
    Jan,
    /// February (anchor: [`Season::Jan`]).
    Feb,
    /// March (anchor: [`Season::Apr`]).
    Mar,
    /// April (anchor: [`Season::Apr`]).
    Apr,
    /// May (anchor: [`Season::Apr`]).
    May,
    /// June (anchor: [`Season::Jul`]).
    Jun,
    /// July (anchor: [`Season::Jul`]).
    Jul,
    /// August (anchor: [`Season::Jul`]).
    Aug,
    /// September (anchor: [`Season::Oct`]).
    Sep,
    /// October (anchor: [`Season::Oct`]).
    Oct,
    /// November (anchor: [`Season::Oct`]).
    Nov,
    /// December (anchor: [`Season::Jan`]).
    Dec,
}

impl Month {
    /// All twelve months in calendar order.
    pub const ALL: [Month; 12] = [
        Month::Jan,
        Month::Feb,
        Month::Mar,
        Month::Apr,
        Month::May,
        Month::Jun,
        Month::Jul,
        Month::Aug,
        Month::Sep,
        Month::Oct,
        Month::Nov,
        Month::Dec,
    ];

    /// Stable calendar index 0 (Jan) ..= 11 (Dec).
    pub fn index(self) -> usize {
        match self {
            Month::Jan => 0,
            Month::Feb => 1,
            Month::Mar => 2,
            Month::Apr => 3,
            Month::May => 4,
            Month::Jun => 5,
            Month::Jul => 6,
            Month::Aug => 7,
            Month::Sep => 8,
            Month::Oct => 9,
            Month::Nov => 10,
            Month::Dec => 11,
        }
    }

    /// The evaluated season this month borrows climatology and geometry
    /// from (the anchor approximation described at module level).
    pub fn anchor(self) -> Season {
        match self {
            Month::Dec | Month::Jan | Month::Feb => Season::Jan,
            Month::Mar | Month::Apr | Month::May => Season::Apr,
            Month::Jun | Month::Jul | Month::Aug => Season::Jul,
            Month::Sep | Month::Oct | Month::Nov => Season::Oct,
        }
    }

    /// First day index of this month's private realization block. Day `d`
    /// of the month is realization `day_base() + d` under the anchor
    /// season, so distinct months never reuse a weather realization.
    #[allow(clippy::cast_possible_truncation)]
    pub fn day_base(self) -> u32 {
        // index() ≤ 11, so the product fits comfortably in u32.
        (self.index() as u32) * DayRange::MAX_DAYS
    }

    /// Parses a month name (`"Jan"` .. `"Dec"`, case-sensitive).
    pub fn from_name(name: &str) -> Option<Month> {
        Month::ALL.iter().copied().find(|m| m.name() == name)
    }

    /// The month's canonical three-letter name.
    pub fn name(self) -> &'static str {
        match self {
            Month::Jan => "Jan",
            Month::Feb => "Feb",
            Month::Mar => "Mar",
            Month::Apr => "Apr",
            Month::May => "May",
            Month::Jun => "Jun",
            Month::Jul => "Jul",
            Month::Aug => "Aug",
            Month::Sep => "Sep",
            Month::Oct => "Oct",
            Month::Nov => "Nov",
            Month::Dec => "Dec",
        }
    }

    /// Parses an inclusive month range like `"Jan-Dec"` or a single month
    /// name, returning the months in calendar order. Wrapping ranges
    /// (`"Nov-Feb"`) are rejected; returns `None` on any unknown name.
    ///
    /// ```
    /// use solarenv::Month;
    ///
    /// let q2 = Month::parse_range("Apr-Jun").unwrap();
    /// assert_eq!(q2, vec![Month::Apr, Month::May, Month::Jun]);
    /// assert_eq!(Month::parse_range("Jul").unwrap(), vec![Month::Jul]);
    /// assert!(Month::parse_range("Nov-Feb").is_none());
    /// ```
    pub fn parse_range(spec: &str) -> Option<Vec<Month>> {
        match spec.split_once('-') {
            None => Month::from_name(spec).map(|m| vec![m]),
            Some((lo, hi)) => {
                let lo = Month::from_name(lo)?;
                let hi = Month::from_name(hi)?;
                if lo.index() > hi.index() {
                    return None;
                }
                Some(Month::ALL[lo.index()..=hi.index()].to_vec())
            }
        }
    }
}

impl fmt::Display for Month {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// A lazy run of consecutive simulated days within one month.
///
/// Iteration yields the anchor-season day indices (for seeding and for
/// [`EnvTrace::generate`]) or the traces themselves; nothing is
/// materialized up front, so memory stays O(1) in the range length.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DayRange {
    month: Month,
    days: u32,
}

impl DayRange {
    /// Width of each month's private day-index block, and so the longest
    /// range a month holds: realizations never collide across months.
    pub const MAX_DAYS: u32 = 31;

    /// A range of `days` consecutive realizations in `month`, clamped to
    /// [`Self::MAX_DAYS`] so ranges never bleed into the next month.
    pub fn new(month: Month, days: u32) -> DayRange {
        DayRange {
            month,
            days: days.min(Self::MAX_DAYS),
        }
    }

    /// The month this range lives in.
    pub fn month(self) -> Month {
        self.month
    }

    /// Number of days in the range.
    pub fn len(self) -> u32 {
        self.days
    }

    /// Whether the range is empty.
    pub fn is_empty(self) -> bool {
        self.days == 0
    }

    /// The anchor-season day indices, in chronological order.
    ///
    /// ```
    /// use solarenv::{DayRange, Month};
    ///
    /// let days: Vec<u32> = DayRange::new(Month::Feb, 3).day_indices().collect();
    /// assert_eq!(days, vec![31, 32, 33]); // Feb's block starts at 1 * 31
    /// ```
    pub fn day_indices(self) -> impl Iterator<Item = u32> {
        let base = self.month.day_base();
        (0..self.days).map(move |d| base + d)
    }

    /// Lazily generates the daytime irradiance/temperature trace for each
    /// day in the range at `site`, under the month's anchor season.
    pub fn traces(self, site: &Site) -> impl Iterator<Item = EnvTrace> + '_ {
        let season = self.month.anchor();
        self.day_indices()
            .map(move |day| EnvTrace::generate(site, season, day))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn anchors_partition_the_year() {
        let mut per_season = [0usize; 4];
        for m in Month::ALL {
            per_season[m.anchor().index()] += 1;
        }
        assert_eq!(per_season, [3, 3, 3, 3]);
    }

    #[test]
    fn indices_are_calendar_ordered_and_unique() {
        let idx: Vec<usize> = Month::ALL.iter().map(|m| m.index()).collect();
        assert_eq!(idx, (0..12).collect::<Vec<_>>());
    }

    #[test]
    fn day_blocks_are_disjoint() {
        for a in Month::ALL {
            for b in Month::ALL {
                if a == b {
                    continue;
                }
                let block_a: Vec<u32> =
                    DayRange::new(a, DayRange::MAX_DAYS).day_indices().collect();
                let block_b: Vec<u32> =
                    DayRange::new(b, DayRange::MAX_DAYS).day_indices().collect();
                assert!(block_a.iter().all(|d| !block_b.contains(d)));
            }
        }
    }

    #[test]
    fn january_day_zero_matches_season_realization() {
        // Month::Jan is the identity embedding of the paper's Season::Jan.
        assert_eq!(Month::Jan.day_base(), 0);
        assert_eq!(Month::Jan.anchor(), Season::Jan);
    }

    #[test]
    fn parse_round_trips_names() {
        for m in Month::ALL {
            assert_eq!(Month::from_name(&m.to_string()), Some(m));
        }
        assert_eq!(Month::from_name("January"), None);
    }

    #[test]
    fn parse_range_full_year() {
        let year = Month::parse_range("Jan-Dec").unwrap();
        assert_eq!(year, Month::ALL.to_vec());
    }

    #[test]
    fn parse_range_rejects_wrapping_and_unknown() {
        assert!(Month::parse_range("Nov-Feb").is_none());
        assert!(Month::parse_range("Jan-Smarch").is_none());
        assert!(Month::parse_range("").is_none());
    }

    #[test]
    fn ranges_clamp_to_block_width() {
        let r = DayRange::new(Month::Mar, 99);
        assert_eq!(r.len(), DayRange::MAX_DAYS);
    }

    #[test]
    fn traces_match_direct_generation() {
        let site = Site::golden_co();
        let range = DayRange::new(Month::Feb, 2);
        let via_range: Vec<EnvTrace> = range.traces(&site).collect();
        for (i, day) in range.day_indices().enumerate() {
            let direct = EnvTrace::generate(&site, Season::Jan, day);
            assert_eq!(
                via_range[i].insolation_kwh_m2().to_bits(),
                direct.insolation_kwh_m2().to_bits()
            );
        }
    }
}
