//! Ensemble statistics: mean, sample standard deviation, Student-t
//! 95 % confidence intervals, and per-cell folding of repeated-seed
//! artifact tables.
//!
//! Every paper-shape artifact used to be a single draw from one RNG
//! seed. The ensemble layer (`mustaple-bench`) reruns a campaign under
//! N independent seeds and folds the N copies of each artifact table
//! into a *companion* table (the `*.ens.csv` files): one row per
//! numeric CSV cell carrying `mean`, the 95 % confidence interval
//! bounds, `n`, the sample standard deviation, and the min/max envelope
//! across seeds. The estimator discipline follows the
//! repeated-measurement reporting of "Rigorous statistical analysis of
//! HTTPS reachability" (arXiv 1706.02813): small-sample intervals use
//! the Student t distribution with `n − 1` degrees of freedom, never
//! the normal approximation.
//!
//! Everything here is deterministic: folding N tables in seed order is
//! a pure function of the tables, so ensemble companions inherit the
//! repo's serial ≡ parallel byte-equality contract.

use crate::Table;

/// Header of every ensemble companion table (`*.ens.csv`).
///
/// `metric` names one numeric cell of the underlying artifact
/// (`rowkey:column`, or a quantile such as `q50` for CDF-shaped
/// figures); `min`/`max` are the across-seed envelope.
pub const ENSEMBLE_HEADER: [&str; 8] = [
    "metric", "mean", "ci_lo", "ci_hi", "n", "stddev", "min", "max",
];

/// Two-sided 95 % critical values of the Student t distribution,
/// `(degrees of freedom, t)`. Between entries the *smaller* tabulated
/// df applies (its t is larger), so interpolation error only ever
/// widens an interval — the conservative direction for a gate.
const T95: [(usize, f64); 33] = [
    (1, 12.706),
    (2, 4.303),
    (3, 3.182),
    (4, 2.776),
    (5, 2.571),
    (6, 2.447),
    (7, 2.365),
    (8, 2.306),
    (9, 2.262),
    (10, 2.228),
    (11, 2.201),
    (12, 2.179),
    (13, 2.160),
    (14, 2.145),
    (15, 2.131),
    (16, 2.120),
    (17, 2.110),
    (18, 2.101),
    (19, 2.093),
    (20, 2.086),
    (21, 2.080),
    (22, 2.074),
    (23, 2.069),
    (24, 2.064),
    (25, 2.060),
    (26, 2.056),
    (27, 2.052),
    (28, 2.048),
    (29, 2.045),
    (30, 2.042),
    (40, 2.021),
    (60, 2.000),
    (120, 1.980),
];

/// The two-sided 95 % Student-t critical value for `df` degrees of
/// freedom: the entry for the largest tabulated df ≤ `df`, so beyond
/// df = 120 the (conservative) 1.980 applies rather than the normal
/// approximation's 1.960.
///
/// # Panics
///
/// Panics on `df == 0` — a confidence interval needs at least two
/// samples.
pub fn t_critical_95(df: usize) -> f64 {
    assert!(df >= 1, "t distribution needs at least 1 degree of freedom");
    let mut t = T95[0].1;
    for &(table_df, value) in T95.iter().rev() {
        if table_df <= df {
            t = value;
            break;
        }
    }
    t
}

/// Arithmetic mean (0.0 for an empty slice).
pub fn mean(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    samples.iter().sum::<f64>() / samples.len() as f64
}

/// Sample standard deviation (`n − 1` denominator; 0.0 for fewer than
/// two samples).
pub fn sample_stddev(samples: &[f64]) -> f64 {
    if samples.len() < 2 {
        return 0.0;
    }
    let m = mean(samples);
    let ss: f64 = samples.iter().map(|x| (x - m) * (x - m)).sum();
    (ss / (samples.len() - 1) as f64).sqrt()
}

/// The per-cell summary an ensemble reports: mean, sample stddev,
/// t-distribution 95 % confidence interval, and the across-seed
/// min/max envelope.
#[derive(Debug, Clone, PartialEq)]
pub struct Summary {
    /// Number of samples (seeds).
    pub n: usize,
    /// Arithmetic mean.
    pub mean: f64,
    /// Sample standard deviation (0.0 when `n < 2`).
    pub stddev: f64,
    /// Lower 95 % confidence bound on the mean.
    pub ci_lo: f64,
    /// Upper 95 % confidence bound on the mean.
    pub ci_hi: f64,
    /// Smallest sample.
    pub min: f64,
    /// Largest sample.
    pub max: f64,
}

impl Summary {
    /// Summarize a sample set. `None` when empty. A single sample
    /// degenerates to the raw value: `mean == ci_lo == ci_hi`,
    /// `stddev == 0`.
    pub fn from_samples(samples: &[f64]) -> Option<Summary> {
        if samples.is_empty() {
            return None;
        }
        let n = samples.len();
        let mean = mean(samples);
        let stddev = sample_stddev(samples);
        let half_width = if n < 2 {
            0.0
        } else {
            t_critical_95(n - 1) * stddev / (n as f64).sqrt()
        };
        let mut min = f64::INFINITY;
        let mut max = f64::NEG_INFINITY;
        for &x in samples {
            min = min.min(x);
            max = max.max(x);
        }
        Some(Summary {
            n,
            mean,
            stddev,
            ci_lo: mean - half_width,
            ci_hi: mean + half_width,
            min,
            max,
        })
    }

    /// Width of the confidence interval (`ci_hi − ci_lo`).
    pub fn ci_width(&self) -> f64 {
        self.ci_hi - self.ci_lo
    }

    /// Render as one companion-table row under [`ENSEMBLE_HEADER`].
    pub fn row(&self, metric: &str) -> Vec<String> {
        vec![
            metric.to_owned(),
            fmt_stat(self.mean),
            fmt_stat(self.ci_lo),
            fmt_stat(self.ci_hi),
            self.n.to_string(),
            fmt_stat(self.stddev),
            fmt_stat(self.min),
            fmt_stat(self.max),
        ]
    }
}

/// Format one statistic: six decimal places, trailing zeros (and a bare
/// trailing point) trimmed, `-0` normalized to `0`. Deterministic — a
/// pure function of the `f64` bits — so companion CSVs are byte-stable.
pub fn fmt_stat(v: f64) -> String {
    let mut s = format!("{v:.6}");
    if s.contains('.') {
        while s.ends_with('0') {
            s.pop();
        }
        if s.ends_with('.') {
            s.pop();
        }
    }
    if s == "-0" {
        s = "0".to_owned();
    }
    s
}

/// Parse one table cell as a statistic sample.
///
/// Accepts plain `f64` syntax and percent cells (`"17.2%"` → `17.2` —
/// the value stays in percent units, matching the column it came from).
/// Non-finite values (including literal `inf`, which `f64` parses) and
/// non-numeric cells yield `None`: means and intervals over them would
/// be meaningless.
fn parse_cell(cell: &str) -> Option<f64> {
    let text = cell.strip_suffix('%').unwrap_or(cell);
    match text.parse::<f64>() {
        Ok(v) if v.is_finite() => Some(v),
        _ => None,
    }
}

/// Quantiles reported for CDF-shaped tables, as `(name, q)`.
const CDF_QUANTILES: [(&str, f64); 6] = [
    ("q10", 0.10),
    ("q25", 0.25),
    ("q50", 0.50),
    ("q75", 0.75),
    ("q90", 0.90),
    ("q99", 0.99),
];

/// Fold N same-shaped artifact tables (one per seed, in canonical seed
/// order) into an ensemble companion table under [`ENSEMBLE_HEADER`].
///
/// Two folding modes:
///
/// * **CDF tables** (header exactly `x,cdf`): the per-seed support
///   points differ, so cells cannot align. Instead each replica is
///   reduced to scalar statistics that *do* align — the row count
///   (`rows`) and the x-positions of fixed quantiles (`q10` … `q99`) —
///   and those are summarized. The `min`/`max` columns are then the
///   across-seed envelope of the curve at each quantile. Quantiles
///   where any replica's value is non-finite (Figure 8 plots blank
///   `nextUpdate` as ∞) are skipped.
/// * **Everything else**: rows are aligned across seeds by their first
///   (key) column — with an occurrence index for duplicate keys — and
///   every cell that parses numerically in *all* replicas becomes one
///   companion row named `rowkey:column`. Rows whose key is missing
///   from any replica are dropped: a responder that only shows up under
///   some seeds has no meaningful per-cell mean.
///
/// Returns `None` when `tables` is empty or the headers disagree
/// (artifact shape drift — nothing sensible to fold).
pub fn fold_tables(tables: &[Table]) -> Option<Table> {
    let first = tables.first()?;
    if tables.iter().any(|t| t.header() != first.header()) {
        return None;
    }
    let mut out = Table::new(&ENSEMBLE_HEADER);
    if first.header() == ["x", "cdf"] {
        fold_cdf(tables, &mut out);
    } else {
        fold_aligned(tables, &mut out);
    }
    Some(out)
}

/// Reduce one `x,cdf` table to `(rows, quantile x-positions)`.
fn cdf_scalars(table: &Table) -> (f64, Vec<Option<f64>>) {
    // Parse the curve, keeping non-finite x (the ∞ samples of Figure 8)
    // so quantiles that land on them are reported as unavailable rather
    // than silently taken from the previous point.
    let curve: Vec<(f64, f64)> = table
        .rows()
        .filter_map(|row| {
            let x = row[0].strip_suffix('%').unwrap_or(&row[0]).parse().ok()?;
            let f = row[1].parse().ok()?;
            Some((x, f))
        })
        .collect();
    let quantiles = CDF_QUANTILES
        .iter()
        .map(|&(_, q)| {
            curve
                .iter()
                .find(|&&(_, f)| f >= q)
                .map(|&(x, _)| x)
                .filter(|x| x.is_finite())
        })
        .collect();
    (table.len() as f64, quantiles)
}

fn fold_cdf(tables: &[Table], out: &mut Table) {
    let reduced: Vec<(f64, Vec<Option<f64>>)> = tables.iter().map(cdf_scalars).collect();
    let rows: Vec<f64> = reduced.iter().map(|(n, _)| *n).collect();
    if let Some(summary) = Summary::from_samples(&rows) {
        out.row(&summary.row("rows"));
    }
    for (i, &(name, _)) in CDF_QUANTILES.iter().enumerate() {
        let samples: Option<Vec<f64>> = reduced.iter().map(|(_, qs)| qs[i]).collect();
        if let Some(summary) = samples.as_deref().and_then(Summary::from_samples) {
            out.row(&summary.row(name));
        }
    }
}

/// A table's rows keyed by `(first-column value, occurrence index)`.
type KeyedRows<'a> = Vec<((&'a str, usize), &'a [String])>;

fn fold_aligned(tables: &[Table], out: &mut Table) {
    let first = &tables[0];
    // Key rows by (first-column value, occurrence index) so duplicate
    // keys (e.g. repeated "counter" cells) still align positionally.
    let keyed: Vec<KeyedRows> = tables
        .iter()
        .map(|t| {
            let mut seen: Vec<(&str, usize)> = Vec::new();
            t.rows()
                .map(|row| {
                    let key = row[0].as_str();
                    let occurrence = seen.iter().filter(|(k, _)| *k == key).count();
                    seen.push((key, occurrence));
                    ((key, occurrence), row)
                })
                .collect()
        })
        .collect();
    for &((key, occurrence), row) in &keyed[0] {
        // The same (key, occurrence) in every replica, or skip the row.
        let aligned: Option<Vec<&[String]>> = keyed
            .iter()
            .map(|rows| {
                rows.iter()
                    .find(|&&(k, _)| k == (key, occurrence))
                    .map(|&(_, r)| r)
            })
            .collect();
        let Some(aligned) = aligned else { continue };
        for (col, column_name) in first.header().iter().enumerate().skip(1) {
            if parse_cell(&row[col]).is_none() {
                continue;
            }
            let samples: Option<Vec<f64>> = aligned.iter().map(|r| parse_cell(&r[col])).collect();
            let Some(summary) = samples.as_deref().and_then(Summary::from_samples) else {
                continue;
            };
            let metric = if occurrence == 0 {
                format!("{key}:{column_name}")
            } else {
                format!("{key}#{occurrence}:{column_name}")
            };
            out.row(&summary.row(&metric));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mean_and_stddev_match_hand_computation() {
        assert_eq!(mean(&[]), 0.0);
        assert_eq!(mean(&[3.0]), 3.0);
        assert_eq!(mean(&[2.0, 4.0]), 3.0);
        assert_eq!(sample_stddev(&[2.0]), 0.0);
        // s² = ((2−3)² + (4−3)²) / (2−1) = 2.
        assert!((sample_stddev(&[2.0, 4.0]) - 2.0_f64.sqrt()).abs() < 1e-12);
        // s² = ((1−3)² + (3−3)² + (5−3)²) / 2 = 4.
        assert_eq!(sample_stddev(&[1.0, 3.0, 5.0]), 2.0);
    }

    #[test]
    fn t_table_spot_checks() {
        assert_eq!(t_critical_95(1), 12.706);
        assert_eq!(t_critical_95(4), 2.776);
        assert_eq!(t_critical_95(30), 2.042);
        // Between tabulated dfs: the smaller df's (larger) t applies.
        assert_eq!(t_critical_95(35), 2.042);
        assert_eq!(t_critical_95(119), 2.000);
        assert_eq!(t_critical_95(121), 1.980);
        assert_eq!(t_critical_95(1_000_000), 1.980);
    }

    #[test]
    #[should_panic(expected = "degree of freedom")]
    fn t_needs_a_degree_of_freedom() {
        t_critical_95(0);
    }

    #[test]
    fn n2_interval_matches_hand_computation() {
        // Samples {2, 4}: mean 3, s = √2, half-width
        // t₉₅(1) · s / √2 = 12.706 · √2 / √2 = 12.706.
        let s = Summary::from_samples(&[2.0, 4.0]).unwrap();
        assert_eq!(s.n, 2);
        assert_eq!(s.mean, 3.0);
        assert!((s.ci_lo - (3.0 - 12.706)).abs() < 1e-9);
        assert!((s.ci_hi - (3.0 + 12.706)).abs() < 1e-9);
        assert_eq!((s.min, s.max), (2.0, 4.0));
    }

    #[test]
    fn zero_variance_cells_collapse_to_a_point() {
        let s = Summary::from_samples(&[5.0, 5.0, 5.0, 5.0]).unwrap();
        assert_eq!(s.stddev, 0.0);
        assert_eq!((s.ci_lo, s.ci_hi), (5.0, 5.0));
        assert_eq!(s.ci_width(), 0.0);
    }

    #[test]
    fn single_seed_degenerates_to_the_raw_value() {
        let s = Summary::from_samples(&[7.25]).unwrap();
        assert_eq!(s.n, 1);
        assert_eq!((s.mean, s.ci_lo, s.ci_hi), (7.25, 7.25, 7.25));
        assert_eq!(s.stddev, 0.0);
        assert_eq!((s.min, s.max), (7.25, 7.25));
        assert!(Summary::from_samples(&[]).is_none());
    }

    #[test]
    fn stat_formatting_is_trimmed_and_normal() {
        assert_eq!(fmt_stat(3.0), "3");
        assert_eq!(fmt_stat(0.5), "0.5");
        assert_eq!(fmt_stat(2.0 / 3.0), "0.666667");
        assert_eq!(fmt_stat(-0.0000001), "0");
        assert_eq!(fmt_stat(2_090_880.0), "2090880");
    }

    #[test]
    fn cells_parse_plain_and_percent_but_not_text() {
        assert_eq!(parse_cell("17.2"), Some(17.2));
        assert_eq!(parse_cell("17.2%"), Some(17.2));
        assert_eq!(parse_cell("-3"), Some(-3.0));
        assert_eq!(parse_cell("yes"), None);
        assert_eq!(parse_cell("inf"), None);
        assert_eq!(parse_cell("count=3;sum=9"), None);
    }

    fn keyed_table(values: &[(&str, f64, &str)]) -> Table {
        let mut t = Table::new(&["time", "pct", "verdict"]);
        for &(key, v, text) in values {
            t.row(&[key.to_owned(), format!("{v:.3}"), text.to_owned()]);
        }
        t
    }

    #[test]
    fn fold_aligns_rows_by_key_and_summarizes_numeric_cells() {
        let a = keyed_table(&[("t0", 1.0, "yes"), ("t1", 10.0, "no")]);
        let b = keyed_table(&[("t0", 3.0, "yes"), ("t1", 10.0, "no")]);
        let out = fold_tables(&[a, b]).unwrap();
        assert_eq!(
            out.header(),
            &["metric", "mean", "ci_lo", "ci_hi", "n", "stddev", "min", "max"]
        );
        let rows: Vec<&[String]> = out.rows().collect();
        // Only the numeric `pct` column summarizes; `verdict` is text.
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[0][0], "t0:pct");
        assert_eq!(rows[0][1], "2"); // mean of 1 and 3
        assert_eq!(rows[0][4], "2"); // n
        assert_eq!(
            (&rows[0][6], &rows[0][7]),
            (&"1".to_owned(), &"3".to_owned())
        );
        // Zero variance row: interval collapses.
        assert_eq!(rows[1][0], "t1:pct");
        assert_eq!(rows[1][2], rows[1][3]);
        assert_eq!(rows[1][5], "0");
    }

    #[test]
    fn rows_missing_from_some_seed_are_dropped() {
        let a = keyed_table(&[("t0", 1.0, "x"), ("only-a", 5.0, "x")]);
        let b = keyed_table(&[("t0", 2.0, "x")]);
        let out = fold_tables(&[a, b]).unwrap();
        let metrics: Vec<&str> = out.rows().map(|r| r[0].as_str()).collect();
        assert_eq!(metrics, ["t0:pct"]);
    }

    #[test]
    fn duplicate_keys_align_by_occurrence() {
        let a = keyed_table(&[("dup", 1.0, "x"), ("dup", 100.0, "x")]);
        let b = keyed_table(&[("dup", 3.0, "x"), ("dup", 200.0, "x")]);
        let out = fold_tables(&[a, b]).unwrap();
        let rows: Vec<&[String]> = out.rows().collect();
        assert_eq!(rows[0][0], "dup:pct");
        assert_eq!(rows[0][1], "2");
        assert_eq!(rows[1][0], "dup#1:pct");
        assert_eq!(rows[1][1], "150");
    }

    fn cdf_table(points: &[(f64, f64)]) -> Table {
        let mut t = Table::new(&["x", "cdf"]);
        for &(x, f) in points {
            t.row(&[format!("{x:.2}"), format!("{f:.4}")]);
        }
        t
    }

    #[test]
    fn cdf_tables_fold_into_quantile_rows_with_envelopes() {
        let a = cdf_table(&[(1.0, 0.25), (2.0, 0.5), (4.0, 1.0)]);
        let b = cdf_table(&[(1.0, 0.25), (3.0, 0.5), (6.0, 1.0)]);
        let out = fold_tables(&[a, b]).unwrap();
        let rows: Vec<&[String]> = out.rows().collect();
        assert_eq!(rows[0][0], "rows");
        assert_eq!(rows[0][1], "3");
        let q50 = rows.iter().find(|r| r[0] == "q50").unwrap();
        assert_eq!(q50[1], "2.5"); // mean of 2 and 3
        assert_eq!((&q50[6], &q50[7]), (&"2".to_owned(), &"3".to_owned())); // envelope
        let q99 = rows.iter().find(|r| r[0] == "q99").unwrap();
        assert_eq!(q99[1], "5"); // mean of 4 and 6
    }

    #[test]
    fn cdf_quantiles_on_infinite_mass_are_skipped() {
        let mut with_inf = Table::new(&["x", "cdf"]);
        with_inf.row_strs(&["1.00", "0.5000"]);
        with_inf.row_strs(&["inf", "1.0000"]);
        let out = fold_tables(&[with_inf.clone(), with_inf]).unwrap();
        let metrics: Vec<&str> = out.rows().map(|r| r[0].as_str()).collect();
        assert!(metrics.contains(&"q50"), "{metrics:?}");
        assert!(!metrics.contains(&"q99"), "{metrics:?}");
    }

    #[test]
    fn mismatched_or_empty_inputs_fold_to_none() {
        assert!(fold_tables(&[]).is_none());
        let a = keyed_table(&[("t0", 1.0, "x")]);
        let b = cdf_table(&[(1.0, 1.0)]);
        assert!(fold_tables(&[a, b]).is_none());
    }

    #[test]
    fn folding_is_deterministic() {
        let a = keyed_table(&[("t0", 1.0, "x"), ("t1", 2.5, "y")]);
        let b = keyed_table(&[("t0", 4.0, "x"), ("t1", 2.5, "y")]);
        let once = fold_tables(&[a.clone(), b.clone()]).unwrap().to_csv();
        let twice = fold_tables(&[a, b]).unwrap().to_csv();
        assert_eq!(once, twice);
    }
}
