//! Scale configuration.

use asn1::Time;
use std::num::NonZeroUsize;

/// How large the synthetic ecosystem is. The *distributions* are always
/// calibrated to the paper; these knobs set only the sample counts.
#[derive(Debug, Clone)]
pub struct EcosystemConfig {
    /// Master seed: same seed, same ecosystem, bit for bit.
    pub seed: u64,
    /// Number of OCSP responders to stand up (paper: 536).
    pub responders: usize,
    /// Certificates sampled per responder for the Hourly scan (paper: 50).
    pub certs_per_responder: usize,
    /// Size of the statistical corpus (paper: ~112.8 M valid certs).
    pub corpus_size: usize,
    /// Size of the Alexa list (paper: 1 M).
    pub alexa_size: usize,
    /// Revoked certificates for the §5.4 consistency study
    /// (paper: 728,261 unexpired-and-revoked).
    pub revoked_pool: usize,
    /// Start of the measurement campaign (paper: 2018-04-25).
    pub campaign_start: Time,
    /// End of the campaign (paper: 2018-09-04).
    pub campaign_end: Time,
    /// Seconds between scan rounds (paper: hourly; default coarser to
    /// keep full campaigns fast — shapes are insensitive to this).
    pub scan_interval: i64,
    /// Worker threads for the scan campaigns. `None` means "use
    /// `std::thread::available_parallelism()`". Results are bit-identical
    /// for every setting — shards carry their own derived RNG streams —
    /// so this is purely a wall-clock knob.
    pub parallelism: Option<NonZeroUsize>,
    /// Multiplier on the *statistical* populations (corpus + Alexa —
    /// see [`EcosystemConfig::scaled_corpus_size`]). Scan populations
    /// are untouched, so `1` (the default) reproduces every artifact
    /// byte for byte.
    pub scale_mult: usize,
}

impl EcosystemConfig {
    /// The default "figures" scale: ~1:5 responders, ~1:1000 volume,
    /// scan rounds every 2 hours.
    pub fn figures() -> EcosystemConfig {
        EcosystemConfig {
            seed: 2018,
            responders: 110,
            certs_per_responder: 2,
            corpus_size: 120_000,
            alexa_size: 100_000,
            revoked_pool: 2_500,
            campaign_start: Time::from_civil(2018, 4, 25, 0, 0, 0),
            campaign_end: Time::from_civil(2018, 9, 4, 0, 0, 0),
            scan_interval: 2 * 3_600,
            parallelism: None,
            scale_mult: 1,
        }
    }

    /// A small scale for unit/integration tests: runs in well under a
    /// second, still exercising every code path.
    pub fn tiny() -> EcosystemConfig {
        EcosystemConfig {
            seed: 7,
            responders: 14,
            certs_per_responder: 2,
            corpus_size: 4_000,
            alexa_size: 5_000,
            revoked_pool: 60,
            campaign_start: Time::from_civil(2018, 4, 25, 0, 0, 0),
            campaign_end: Time::from_civil(2018, 5, 5, 0, 0, 0),
            scan_interval: 3 * 3_600,
            parallelism: None,
            scale_mult: 1,
        }
    }

    /// Override the seed.
    pub fn with_seed(mut self, seed: u64) -> EcosystemConfig {
        self.seed = seed;
        self
    }

    /// Override the worker-thread count (`1` forces a serial run).
    pub fn with_parallelism(mut self, workers: usize) -> EcosystemConfig {
        self.parallelism = NonZeroUsize::new(workers);
        self
    }

    /// Override the statistical-population scale multiplier.
    pub fn with_scale_mult(mut self, scale_mult: usize) -> EcosystemConfig {
        self.scale_mult = scale_mult;
        self
    }

    /// The corpus size after the scale multiplier — what the §4 pass
    /// actually streams.
    pub fn scaled_corpus_size(&self) -> usize {
        self.corpus_size * self.scale_mult.max(1)
    }

    /// The Alexa list size after the scale multiplier — what the
    /// Figure 2 / Figure 11 folds actually stream. Scan-path
    /// populations (e.g. the Alexa1M probe set) intentionally keep the
    /// *base* `alexa_size`, so scan artifacts are scale-invariant.
    pub fn scaled_alexa_size(&self) -> usize {
        self.alexa_size * self.scale_mult.max(1)
    }

    /// Number of scan rounds in the campaign.
    pub fn scan_rounds(&self) -> usize {
        ((self.campaign_end - self.campaign_start) / self.scan_interval).max(0) as usize
    }

    /// Campaign length in days.
    pub fn campaign_days(&self) -> i64 {
        (self.campaign_end - self.campaign_start) / 86_400
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn figures_scale_matches_paper_window() {
        let c = EcosystemConfig::figures();
        assert_eq!(c.campaign_days(), 132);
        assert!(c.scan_rounds() > 200);
    }

    #[test]
    fn tiny_is_actually_tiny() {
        let c = EcosystemConfig::tiny();
        assert!(c.responders < 20);
        assert!(c.scan_rounds() <= 80);
    }
}
