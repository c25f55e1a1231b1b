//! Calendar time for DER `UTCTime`/`GeneralizedTime`.
//!
//! [`Time`] is a thin wrapper over *seconds since the Unix epoch* (UTC,
//! i.e. Zulu — RFC 6960 requires all OCSP times be expressed in GMT).
//! Civil-date conversion uses Howard Hinnant's `days_from_civil`
//! algorithms, valid over the entire simulated range.
//!
//! The whole study runs on simulated time, so this type is also the base
//! clock unit of every other crate: there is exactly one notion of "now"
//! in the system and it is a `Time`.

use crate::{Error, Result};
use core::fmt;
use core::ops::{Add, AddAssign, Sub, SubAssign};

/// A UTC timestamp with one-second resolution.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Time(i64);

/// A broken-down civil date/time (always UTC).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Civil {
    /// Four-digit year.
    pub year: i32,
    /// Month, 1–12.
    pub month: u8,
    /// Day of month, 1–31.
    pub day: u8,
    /// Hour, 0–23.
    pub hour: u8,
    /// Minute, 0–59.
    pub minute: u8,
    /// Second, 0–59 (no leap seconds in the simulation).
    pub second: u8,
}

impl Time {
    /// The Unix epoch, 1970-01-01T00:00:00Z.
    pub const UNIX_EPOCH: Time = Time(0);

    /// Construct from raw seconds since the Unix epoch.
    pub const fn from_unix(secs: i64) -> Time {
        Time(secs)
    }

    /// Seconds since the Unix epoch.
    pub const fn unix(self) -> i64 {
        self.0
    }

    /// Construct from a civil UTC date/time.
    ///
    /// # Panics
    ///
    /// Panics if the civil fields do not denote a real calendar moment;
    /// use [`Time::try_from_civil`] for untrusted input.
    pub fn from_civil(year: i32, month: u8, day: u8, hour: u8, minute: u8, second: u8) -> Time {
        Time::try_from_civil(Civil {
            year,
            month,
            day,
            hour,
            minute,
            second,
        })
        .expect("invalid civil date")
    }

    /// Construct from a civil UTC date/time, failing on impossible dates.
    pub fn try_from_civil(c: Civil) -> Result<Time> {
        if c.month < 1 || c.month > 12 || c.day < 1 || c.hour > 23 || c.minute > 59 || c.second > 59
        {
            return Err(Error::InvalidTime);
        }
        if c.day > days_in_month(c.year, c.month) {
            return Err(Error::InvalidTime);
        }
        let days = days_from_civil(c.year, c.month, c.day);
        Ok(Time(
            days * 86_400
                + i64::from(c.hour) * 3_600
                + i64::from(c.minute) * 60
                + i64::from(c.second),
        ))
    }

    /// Break this time into civil UTC components.
    pub fn civil(self) -> Civil {
        let days = self.0.div_euclid(86_400);
        let secs = self.0.rem_euclid(86_400);
        let (year, month, day) = civil_from_days(days);
        Civil {
            year,
            month,
            day,
            hour: (secs / 3_600) as u8,
            minute: (secs % 3_600 / 60) as u8,
            second: (secs % 60) as u8,
        }
    }

    /// Render as DER `GeneralizedTime` content (`YYYYMMDDHHMMSSZ`).
    pub fn to_generalized(self) -> String {
        let c = self.civil();
        format!(
            "{:04}{:02}{:02}{:02}{:02}{:02}Z",
            c.year, c.month, c.day, c.hour, c.minute, c.second
        )
    }

    /// Render as DER `UTCTime` content (`YYMMDDHHMMSSZ`); only valid for
    /// years 1950–2049 per RFC 5280's interpretation rule.
    pub fn to_utc_time(self) -> Result<String> {
        let c = self.civil();
        if !(1950..2050).contains(&c.year) {
            return Err(Error::InvalidTime);
        }
        Ok(format!(
            "{:02}{:02}{:02}{:02}{:02}{:02}Z",
            c.year % 100,
            c.month,
            c.day,
            c.hour,
            c.minute,
            c.second
        ))
    }

    /// Parse DER `GeneralizedTime` content (`YYYYMMDDHHMMSSZ`).
    pub fn parse_generalized(s: &str) -> Result<Time> {
        let b = s.as_bytes();
        if b.len() != 15 || b[14] != b'Z' {
            return Err(Error::InvalidTime);
        }
        let year = parse_digits(&b[0..4])? as i32;
        Time::try_from_civil(Civil {
            year,
            month: parse_digits(&b[4..6])? as u8,
            day: parse_digits(&b[6..8])? as u8,
            hour: parse_digits(&b[8..10])? as u8,
            minute: parse_digits(&b[10..12])? as u8,
            second: parse_digits(&b[12..14])? as u8,
        })
    }

    /// Parse DER `UTCTime` content (`YYMMDDHHMMSSZ`). Years `< 50` map to
    /// 20xx, years `>= 50` map to 19xx (RFC 5280 §4.1.2.5.1).
    pub fn parse_utc_time(s: &str) -> Result<Time> {
        let b = s.as_bytes();
        if b.len() != 13 || b[12] != b'Z' {
            return Err(Error::InvalidTime);
        }
        let yy = parse_digits(&b[0..2])? as i32;
        let year = if yy < 50 { 2000 + yy } else { 1900 + yy };
        Time::try_from_civil(Civil {
            year,
            month: parse_digits(&b[2..4])? as u8,
            day: parse_digits(&b[4..6])? as u8,
            hour: parse_digits(&b[6..8])? as u8,
            minute: parse_digits(&b[8..10])? as u8,
            second: parse_digits(&b[10..12])? as u8,
        })
    }
}

fn parse_digits(b: &[u8]) -> Result<u32> {
    let mut value = 0u32;
    for &d in b {
        if !d.is_ascii_digit() {
            return Err(Error::InvalidTime);
        }
        value = value * 10 + u32::from(d - b'0');
    }
    Ok(value)
}

fn is_leap(year: i32) -> bool {
    year % 4 == 0 && (year % 100 != 0 || year % 400 == 0)
}

fn days_in_month(year: i32, month: u8) -> u8 {
    match month {
        1 | 3 | 5 | 7 | 8 | 10 | 12 => 31,
        4 | 6 | 9 | 11 => 30,
        2 => {
            if is_leap(year) {
                29
            } else {
                28
            }
        }
        _ => 0,
    }
}

/// Days since 1970-01-01 for a civil date (Hinnant, `days_from_civil`).
fn days_from_civil(y: i32, m: u8, d: u8) -> i64 {
    let y = i64::from(y) - i64::from(m <= 2);
    let era = if y >= 0 { y } else { y - 399 } / 400;
    let yoe = y - era * 400; // [0, 399]
    let m = i64::from(m);
    let d = i64::from(d);
    let doy = (153 * (if m > 2 { m - 3 } else { m + 9 }) + 2) / 5 + d - 1; // [0, 365]
    let doe = yoe * 365 + yoe / 4 - yoe / 100 + doy; // [0, 146096]
    era * 146_097 + doe - 719_468
}

/// Civil date for days since 1970-01-01 (Hinnant, `civil_from_days`).
fn civil_from_days(z: i64) -> (i32, u8, u8) {
    let z = z + 719_468;
    let era = if z >= 0 { z } else { z - 146_096 } / 146_097;
    let doe = z - era * 146_097; // [0, 146096]
    let yoe = (doe - doe / 1_460 + doe / 36_524 - doe / 146_096) / 365; // [0, 399]
    let y = yoe + era * 400;
    let doy = doe - (365 * yoe + yoe / 4 - yoe / 100); // [0, 365]
    let mp = (5 * doy + 2) / 153; // [0, 11]
    let d = doy - (153 * mp + 2) / 5 + 1; // [1, 31]
    let m = if mp < 10 { mp + 3 } else { mp - 9 }; // [1, 12]
    ((y + i64::from(m <= 2)) as i32, m as u8, d as u8)
}

impl Add<i64> for Time {
    type Output = Time;
    /// Advance by a number of seconds.
    fn add(self, secs: i64) -> Time {
        Time(self.0 + secs)
    }
}

impl AddAssign<i64> for Time {
    fn add_assign(&mut self, secs: i64) {
        self.0 += secs;
    }
}

impl Sub<i64> for Time {
    type Output = Time;
    /// Rewind by a number of seconds.
    fn sub(self, secs: i64) -> Time {
        Time(self.0 - secs)
    }
}

impl SubAssign<i64> for Time {
    fn sub_assign(&mut self, secs: i64) {
        self.0 -= secs;
    }
}

impl Sub<Time> for Time {
    type Output = i64;
    /// Difference in seconds.
    fn sub(self, other: Time) -> i64 {
        self.0 - other.0
    }
}

impl fmt::Display for Time {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let c = self.civil();
        write!(
            f,
            "{:04}-{:02}-{:02}T{:02}:{:02}:{:02}Z",
            c.year, c.month, c.day, c.hour, c.minute, c.second
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn epoch_is_1970() {
        let c = Time::UNIX_EPOCH.civil();
        assert_eq!((c.year, c.month, c.day, c.hour), (1970, 1, 1, 0));
    }

    #[test]
    fn known_timestamp() {
        // 2018-04-25T00:00:00Z == 1524614400 (start of the paper's Hourly scan)
        let t = Time::from_civil(2018, 4, 25, 0, 0, 0);
        assert_eq!(t.unix(), 1_524_614_400);
        assert_eq!(t.to_string(), "2018-04-25T00:00:00Z");
    }

    #[test]
    fn generalized_round_trip() {
        let t = Time::from_civil(2018, 9, 4, 23, 59, 59);
        let s = t.to_generalized();
        assert_eq!(s, "20180904235959Z");
        assert_eq!(Time::parse_generalized(&s).unwrap(), t);
    }

    #[test]
    fn utc_time_round_trip_and_windowing() {
        let t = Time::from_civil(2018, 5, 1, 12, 0, 0);
        let s = t.to_utc_time().unwrap();
        assert_eq!(s, "180501120000Z");
        assert_eq!(Time::parse_utc_time(&s).unwrap(), t);
        // 49 maps to 2049, 50 maps to 1950.
        assert_eq!(
            Time::parse_utc_time("490101000000Z").unwrap().civil().year,
            2049
        );
        assert_eq!(
            Time::parse_utc_time("500101000000Z").unwrap().civil().year,
            1950
        );
    }

    #[test]
    fn leap_years() {
        assert!(Time::try_from_civil(Civil {
            year: 2016,
            month: 2,
            day: 29,
            hour: 0,
            minute: 0,
            second: 0
        })
        .is_ok());
        assert!(Time::try_from_civil(Civil {
            year: 2018,
            month: 2,
            day: 29,
            hour: 0,
            minute: 0,
            second: 0
        })
        .is_err());
        // 1900 was not a leap year; 2000 was.
        assert!(!is_leap(1900));
        assert!(is_leap(2000));
    }

    #[test]
    fn rejects_garbage() {
        assert!(Time::parse_generalized("not a time at all").is_err());
        assert!(Time::parse_generalized("2018130100000Z").is_err());
        assert!(Time::parse_utc_time("18040100000").is_err());
        assert!(Time::parse_utc_time("1804010000AAZ").is_err());
    }

    #[test]
    fn arithmetic() {
        let t = Time::from_civil(2018, 4, 25, 0, 0, 0);
        assert_eq!((t + 3_600) - t, 3_600);
        assert_eq!((t - 86_400).civil().day, 24);
        let mut u = t;
        u += 60;
        u -= 30;
        assert_eq!(u - t, 30);
    }

    #[test]
    fn civil_round_trip_sweep() {
        // Sweep a few thousand days around the study period.
        let start = Time::from_civil(2010, 1, 1, 0, 0, 0);
        for day in 0..5_000 {
            let t = start + day * 86_400 + 12 * 3_600;
            let c = t.civil();
            let back = Time::try_from_civil(c).unwrap();
            assert_eq!(back, t, "day offset {day}");
        }
    }
}
