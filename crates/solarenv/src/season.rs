//! The four evaluation seasons of the paper (mid-Jan/Apr/Jul/Oct 2009).

use std::fmt;

/// One of the four representative months used in the paper's evaluation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Season {
    /// Mid-January (winter).
    Jan,
    /// Mid-April (spring).
    Apr,
    /// Mid-July (summer).
    Jul,
    /// Mid-October (autumn).
    Oct,
}

impl Season {
    /// All four seasons, in the paper's order.
    pub const ALL: [Season; 4] = [Season::Jan, Season::Apr, Season::Jul, Season::Oct];

    /// Representative day of year (the 15th of the month, as the paper uses
    /// "the middle of Jan., Apr., Jul. and Oct.").
    pub fn day_of_year(self) -> u32 {
        match self {
            Season::Jan => 15,
            Season::Apr => 105,
            Season::Jul => 196,
            Season::Oct => 288,
        }
    }

    /// Parses a season name (`"Jan"`, `"Apr"`, `"Jul"`, `"Oct"`,
    /// case-sensitive), the inverse of `Display`.
    pub fn from_name(name: &str) -> Option<Season> {
        match name {
            "Jan" => Some(Season::Jan),
            "Apr" => Some(Season::Apr),
            "Jul" => Some(Season::Jul),
            "Oct" => Some(Season::Oct),
            _ => None,
        }
    }

    /// Stable index 0..=3 (useful for seeding and table layout).
    pub fn index(self) -> usize {
        match self {
            Season::Jan => 0,
            Season::Apr => 1,
            Season::Jul => 2,
            Season::Oct => 3,
        }
    }
}

impl fmt::Display for Season {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let name = match self {
            Season::Jan => "Jan",
            Season::Apr => "Apr",
            Season::Jul => "Jul",
            Season::Oct => "Oct",
        };
        f.write_str(name)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn days_of_year_are_mid_month() {
        assert_eq!(Season::Jan.day_of_year(), 15);
        assert_eq!(Season::Apr.day_of_year(), 105);
        assert_eq!(Season::Jul.day_of_year(), 196);
        assert_eq!(Season::Oct.day_of_year(), 288);
    }

    #[test]
    fn indices_are_unique_and_ordered() {
        let idx: Vec<usize> = Season::ALL.iter().map(|s| s.index()).collect();
        assert_eq!(idx, vec![0, 1, 2, 3]);
    }

    #[test]
    fn display_names() {
        assert_eq!(Season::Jul.to_string(), "Jul");
        for season in Season::ALL {
            assert_eq!(Season::from_name(&season.to_string()), Some(season));
        }
        assert_eq!(Season::from_name("Mar"), None);
    }
}
