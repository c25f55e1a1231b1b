//! Alexa-rank binning for the adoption curves.
//!
//! Figures 2 and 11 plot adoption percentages "as a function of website
//! popularity" in bins of 10 000 ranks. [`RankBins`] accumulates
//! per-rank booleans and emits per-bin percentages, and
//! [`AlexaAdoption`] folds the three curves of both figures one site at
//! a time.

/// Rank-binned percentage accumulator.
#[derive(Debug, Clone)]
pub struct RankBins {
    bin_width: usize,
    bins: Vec<(u64, u64)>, // (hits, totals)
}

impl RankBins {
    /// Bins of `bin_width` ranks (the paper uses 10 000).
    ///
    /// # Panics
    ///
    /// Panics if `bin_width == 0`.
    pub fn new(bin_width: usize) -> RankBins {
        assert!(bin_width > 0, "bin width must be positive");
        RankBins {
            bin_width,
            bins: Vec::new(),
        }
    }

    /// Record whether the site at `rank` (1-based) has the property.
    pub fn record(&mut self, rank: usize, hit: bool) {
        let idx = rank.saturating_sub(1) / self.bin_width;
        if self.bins.len() <= idx {
            self.bins.resize(idx + 1, (0, 0));
        }
        let (hits, total) = &mut self.bins[idx];
        *total += 1;
        if hit {
            *hits += 1;
        }
    }

    /// Per-bin `(bin_start_rank, percentage)`.
    pub fn percentages(&self) -> Vec<(usize, f64)> {
        self.bins
            .iter()
            .enumerate()
            .map(|(i, &(hits, total))| {
                (
                    i * self.bin_width,
                    100.0 * hits as f64 / total.max(1) as f64,
                )
            })
            .collect()
    }

    /// Overall percentage across all ranks.
    pub fn overall_percentage(&self) -> f64 {
        let (hits, total) = self
            .bins
            .iter()
            .fold((0u64, 0u64), |(h, t), &(bh, bt)| (h + bh, t + bt));
        if total == 0 {
            0.0
        } else {
            100.0 * hits as f64 / total as f64
        }
    }

    /// A simple popularity-trend statistic: percentage in the first bin
    /// minus percentage in the last bin (positive = popular sites adopt
    /// more, the paper's qualitative claim for both figures).
    pub fn popularity_gradient(&self) -> f64 {
        let p = self.percentages();
        match (p.first(), p.last()) {
            (Some(first), Some(last)) if p.len() > 1 => first.1 - last.1,
            _ => 0.0,
        }
    }
}

/// The folded Figure 2 / Figure 11 summary: rank-binned HTTPS, OCSP-
/// among-HTTPS, and stapling-among-OCSP adoption, recorded one site at
/// a time so the Alexa list never needs to exist in memory.
///
/// The record rules are exactly the figures' batch folds: every site
/// feeds the HTTPS bins; only HTTPS sites feed the OCSP bins; only OCSP
/// sites feed the stapling bins.
#[derive(Debug, Clone)]
pub struct AlexaAdoption {
    https: RankBins,
    ocsp_of_https: RankBins,
    staples_of_ocsp: RankBins,
}

impl AlexaAdoption {
    /// An empty summary for a list of `size` sites (the figures bin
    /// ranks into 100 bins: `bin_width = (size / 100).max(1)`).
    pub fn new(size: usize) -> AlexaAdoption {
        let bin_width = (size / 100).max(1);
        AlexaAdoption {
            https: RankBins::new(bin_width),
            ocsp_of_https: RankBins::new(bin_width),
            staples_of_ocsp: RankBins::new(bin_width),
        }
    }

    /// Fold one site (1-based `rank`) into the summary.
    pub fn record(&mut self, rank: usize, https: bool, ocsp: bool, staples: bool) {
        self.https.record(rank, https);
        if https {
            self.ocsp_of_https.record(rank, ocsp);
        }
        if ocsp {
            self.staples_of_ocsp.record(rank, staples);
        }
    }

    /// HTTPS adoption by rank bin (Figure 2, first curve).
    pub fn https(&self) -> &RankBins {
        &self.https
    }

    /// OCSP adoption among HTTPS sites by rank bin (Figure 2, second
    /// curve).
    pub fn ocsp_of_https(&self) -> &RankBins {
        &self.ocsp_of_https
    }

    /// Stapling adoption among OCSP sites by rank bin (Figure 11).
    pub fn staples_of_ocsp(&self) -> &RankBins {
        &self.staples_of_ocsp
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bins_split_on_width() {
        let mut rb = RankBins::new(10);
        for rank in 1..=10 {
            rb.record(rank, true);
        }
        for rank in 11..=20 {
            rb.record(rank, rank % 2 == 0);
        }
        let p = rb.percentages();
        assert_eq!(p.len(), 2);
        assert_eq!(p[0], (0, 100.0));
        assert_eq!(p[1], (10, 50.0));
        assert_eq!(rb.overall_percentage(), 75.0);
    }

    #[test]
    fn gradient_positive_when_top_sites_lead() {
        let mut rb = RankBins::new(10);
        for rank in 1..=10 {
            rb.record(rank, true);
        }
        for rank in 11..=20 {
            rb.record(rank, false);
        }
        assert_eq!(rb.popularity_gradient(), 100.0);
    }

    #[test]
    fn rank_one_is_first_bin() {
        let mut rb = RankBins::new(10_000);
        rb.record(1, true);
        rb.record(10_000, true);
        rb.record(10_001, false);
        let p = rb.percentages();
        assert_eq!(p.len(), 2);
        assert_eq!(p[0].1, 100.0);
    }

    #[test]
    fn empty_is_safe() {
        let rb = RankBins::new(10);
        assert_eq!(rb.overall_percentage(), 0.0);
        assert_eq!(rb.popularity_gradient(), 0.0);
        assert!(rb.percentages().is_empty());
    }

    #[test]
    fn alexa_adoption_matches_figure_folds() {
        // Replicate the fig2/fig11 batch fold by hand and compare.
        let sites: Vec<(usize, bool, bool, bool)> = (1..=200)
            .map(|rank| {
                let https = rank % 4 != 0;
                let ocsp = https && rank % 3 != 0;
                let staples = ocsp && rank % 5 == 0;
                (rank, https, ocsp, staples)
            })
            .collect();
        let mut fold = AlexaAdoption::new(sites.len());
        let bin_width = (sites.len() / 100).max(1);
        let mut https_bins = RankBins::new(bin_width);
        let mut ocsp_bins = RankBins::new(bin_width);
        let mut staple_bins = RankBins::new(bin_width);
        for &(rank, https, ocsp, staples) in &sites {
            fold.record(rank, https, ocsp, staples);
            https_bins.record(rank, https);
            if https {
                ocsp_bins.record(rank, ocsp);
            }
            if ocsp {
                staple_bins.record(rank, staples);
            }
        }
        assert_eq!(fold.https().percentages(), https_bins.percentages());
        assert_eq!(fold.ocsp_of_https().percentages(), ocsp_bins.percentages());
        assert_eq!(
            fold.staples_of_ocsp().percentages(),
            staple_bins.percentages()
        );
        assert_eq!(
            fold.https().overall_percentage(),
            https_bins.overall_percentage()
        );
        assert_eq!(
            fold.staples_of_ocsp().popularity_gradient(),
            staple_bins.popularity_gradient()
        );
    }
}
