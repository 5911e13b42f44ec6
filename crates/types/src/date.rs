//! A minimal proleptic-Gregorian calendar date, stored as days since
//! 1970-01-01.
//!
//! TPC-H predicates compare and offset dates (`l_shipdate >= date
//! '1994-01-01'`, `+ interval '1' year`); storing days-since-epoch keeps the
//! encoding order-preserving so date range predicates survive bitwise
//! decomposition unchanged. The civil-calendar conversion follows the
//! classic Howard Hinnant `days_from_civil` algorithm.

use std::fmt;

/// A calendar date as a signed day count since the Unix epoch.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Date(pub i32);

impl Date {
    /// Construct from a civil `(year, month, day)` triple.
    ///
    /// # Panics
    /// Panics if `month` or `day` are out of range, or the year so far from
    /// 1970 that its day count leaves `i32` (this is a programming error in
    /// generators/tests; the SQL layer validates user input and returns an
    /// error instead).
    pub fn from_ymd(year: i32, month: u32, day: u32) -> Self {
        assert!((1..=12).contains(&month), "month out of range: {month}");
        assert!((1..=31).contains(&day), "day out of range: {day}");
        Date::checked_ymd(year.into(), month, day).expect("year out of range")
    }

    /// The civil date `(year, month, day)` — `month` and `day` valid —, or
    /// `None` when its day count leaves `i32` (beyond ±5.8 M years).
    fn checked_ymd(year: i64, month: u32, day: u32) -> Option<Self> {
        i32::try_from(days_from_civil(year, month, day))
            .ok()
            .map(Date)
    }

    /// Parse `"YYYY-MM-DD"`.
    pub fn parse(s: &str) -> Option<Self> {
        let mut parts = s.splitn(3, '-');
        let y: i32 = parts.next()?.parse().ok()?;
        let m: u32 = parts.next()?.parse().ok()?;
        let d: u32 = parts.next()?.parse().ok()?;
        if !(1..=12).contains(&m) || d < 1 || d > days_in_month(y.into(), m) {
            return None;
        }
        Date::checked_ymd(y.into(), m, d)
    }

    /// The `(year, month, day)` triple of this date.
    pub fn ymd(self) -> (i32, u32, u32) {
        civil_from_days(self.0)
    }

    /// Days since the Unix epoch (can be negative for pre-1970 dates).
    #[inline]
    pub fn days(self) -> i32 {
        self.0
    }

    /// This date shifted by `n` calendar days; `None` when the day count
    /// leaves `i32`.
    #[inline]
    pub fn add_days(self, n: i32) -> Option<Self> {
        self.0.checked_add(n).map(Date)
    }

    /// This date shifted by `n` calendar months (day-of-month clamped to the
    /// target month's length, as SQL interval arithmetic does); `None` when
    /// the day count leaves `i32`.
    pub fn add_months(self, n: i32) -> Option<Self> {
        let (y, m, d) = self.ymd();
        // |y| < 5.9 M and |n| ≤ 2^31: no overflow in `i64`.
        let zero_based = i64::from(y) * 12 + (i64::from(m) - 1) + i64::from(n);
        let ny = zero_based.div_euclid(12);
        let nm = zero_based.rem_euclid(12) as u32 + 1;
        Date::checked_ymd(ny, nm, d.min(days_in_month(ny, nm)))
    }

    /// This date shifted by `n` calendar years; `None` when the day count
    /// leaves `i32`.
    pub fn add_years(self, n: i32) -> Option<Self> {
        self.add_months(n.checked_mul(12)?)
    }
}

impl fmt::Display for Date {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let (y, m, d) = self.ymd();
        write!(f, "{y:04}-{m:02}-{d:02}")
    }
}

impl fmt::Debug for Date {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Date({self})")
    }
}

fn is_leap(y: i64) -> bool {
    y % 4 == 0 && (y % 100 != 0 || y % 400 == 0)
}

fn days_in_month(y: i64, m: u32) -> u32 {
    match m {
        1 | 3 | 5 | 7 | 8 | 10 | 12 => 31,
        4 | 6 | 9 | 11 => 30,
        2 => {
            if is_leap(y) {
                29
            } else {
                28
            }
        }
        _ => unreachable!("invalid month {m}"),
    }
}

/// Days since 1970-01-01 for the civil date `(y, m, d)`; exact for every
/// year within ±2^50.
fn days_from_civil(y: i64, m: u32, d: u32) -> i64 {
    let y = y - if m <= 2 { 1 } else { 0 };
    let era = y.div_euclid(400);
    let yoe = y - era * 400; // [0, 399]
    let mp = ((m as i64) + 9) % 12; // March = 0
    let doy = (153 * mp + 2) / 5 + (d as i64) - 1; // [0, 365]
    let doe = yoe * 365 + yoe / 4 - yoe / 100 + doy; // [0, 146096]
    era * 146_097 + doe - 719_468
}

/// Civil `(y, m, d)` for a day count since 1970-01-01.
fn civil_from_days(z: i32) -> (i32, u32, u32) {
    let z = z as i64 + 719_468;
    let era = z.div_euclid(146_097);
    let doe = z - era * 146_097; // [0, 146096]
    let yoe = (doe - doe / 1460 + doe / 36_524 - doe / 146_096) / 365; // [0, 399]
    let y = yoe + era * 400;
    let doy = doe - (365 * yoe + yoe / 4 - yoe / 100); // [0, 365]
    let mp = (5 * doy + 2) / 153; // [0, 11]
    let d = (doy - (153 * mp + 2) / 5 + 1) as u32; // [1, 31]
    let m = if mp < 10 { mp + 3 } else { mp - 9 } as u32; // [1, 12]
    ((y + if m <= 2 { 1 } else { 0 }) as i32, m, d)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn epoch_is_day_zero() {
        assert_eq!(Date::from_ymd(1970, 1, 1).days(), 0);
        assert_eq!(Date(0).ymd(), (1970, 1, 1));
    }

    #[test]
    fn known_dates() {
        // TPC-H date range endpoints.
        assert_eq!(Date::from_ymd(1992, 1, 1).days(), 8035);
        assert_eq!(Date::from_ymd(1998, 12, 31).days(), 10_591);
        // The classic 2526-day shipdate domain (1992-01-02 ..= 1998-12-01 + 121 days span).
        let lo = Date::from_ymd(1992, 1, 2);
        let hi = Date::from_ymd(1998, 12, 1);
        assert_eq!(hi.days() - lo.days() + 1, 2526);
    }

    #[test]
    fn roundtrip_every_day_of_two_leap_cycles() {
        let start = Date::from_ymd(1996, 1, 1).days();
        let end = Date::from_ymd(2004, 12, 31).days();
        for d in start..=end {
            let (y, m, dd) = Date(d).ymd();
            assert_eq!(Date::from_ymd(y, m, dd).days(), d);
        }
    }

    #[test]
    fn parse_and_display() {
        let d = Date::parse("1994-01-01").unwrap();
        assert_eq!(d.to_string(), "1994-01-01");
        assert_eq!(Date::parse("1994-13-01"), None);
        assert_eq!(Date::parse("1994-02-30"), None);
        assert_eq!(Date::parse("not-a-date"), None);
        assert_eq!(Date::parse("1994"), None);
    }

    #[test]
    fn interval_arithmetic() {
        let d = Date::parse("1995-09-01").unwrap();
        let shown = |d: Option<Date>| d.unwrap().to_string();
        assert_eq!(shown(d.add_months(1)), "1995-10-01"); // TPC-H Q14 window
        assert_eq!(shown(d.add_years(1)), "1996-09-01");
        let eom = Date::parse("1996-01-31").unwrap();
        assert_eq!(shown(eom.add_months(1)), "1996-02-29"); // clamped, leap year
        assert_eq!(shown(eom.add_months(-2)), "1995-11-30");
        assert_eq!(shown(d.add_days(-90)), "1995-06-03");
    }

    /// Shifts whose day count leaves `i32` are `None`, never a wrapped or
    /// truncated date; the last representable days are reached exactly.
    #[test]
    fn interval_arithmetic_overflow_is_none() {
        let d = Date::parse("1998-12-01").unwrap();
        assert_eq!(d.add_days(i32::MAX), None);
        assert_eq!(Date(i32::MIN).add_days(-1), None);
        assert_eq!(Date(i32::MAX - 1).add_days(1), Some(Date(i32::MAX)));
        for n in [i32::MAX, i32::MIN, i32::MAX / 12 + 1] {
            assert_eq!(d.add_months(n), None, "{n} months");
            assert_eq!(d.add_years(n), None, "{n} years");
        }
        assert_eq!(Date(i32::MAX).add_months(1), None);
        assert_eq!(Date(i32::MIN).add_years(-1), None);
        assert_eq!(Date::parse("2147483647-01-01"), None);
        let (y, m, _) = Date(i32::MAX).ymd();
        let first_of_last = Date::parse(&format!("{y}-{m:02}-01")).unwrap();
        assert_eq!(first_of_last.ymd(), (y, m, 1));
    }

    #[test]
    fn ordering_matches_day_counts() {
        let a = Date::parse("1994-01-01").unwrap();
        let b = Date::parse("1995-01-01").unwrap();
        assert!(a < b);
        assert_eq!(b.days() - a.days(), 365);
    }
}
