//! The statistical certificate corpus — the synthetic Censys.
//!
//! §4's analysis needs only a handful of per-certificate booleans at
//! enormous scale, so the corpus is *statistical*: lightweight records
//! drawn from the calibrated marginals, with the issuing operator
//! attached, and streamed by [`crate::stream::CorpusStream`] rather
//! than held. (Full cryptographic certificates live in [`crate::live`],
//! where the scanning experiments need them.)

/// One corpus certificate (the fields §4 reads).
#[derive(Debug, Clone, PartialEq)]
pub struct CorpusCert {
    /// Issuing operator name ("Let's Encrypt", "Comodo", …; filler
    /// operators are "Other-N").
    pub issuer: String,
    /// AIA carries at least one OCSP URL.
    pub has_ocsp: bool,
    /// Carries the TLS Feature (Must-Staple) extension.
    pub has_must_staple: bool,
    /// Carries a CRL Distribution Points extension.
    pub has_crl: bool,
    /// Lists more than one OCSP responder in its AIA.
    pub multi_responder: bool,
}

/// Aggregate statistics over a corpus (the §4 numbers).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct CorpusStats {
    /// Total valid certificates.
    pub total: usize,
    /// Certificates with an OCSP URL.
    pub ocsp: usize,
    /// Certificates with Must-Staple.
    pub must_staple: usize,
    /// Must-Staple certificates issued by Let's Encrypt.
    pub must_staple_lets_encrypt: usize,
    /// Certificates with multiple OCSP responders.
    pub multi_responder: usize,
}

impl CorpusStats {
    /// Fraction of certificates supporting OCSP (paper: 95.4 %).
    pub fn ocsp_fraction(&self) -> f64 {
        self.ocsp as f64 / self.total.max(1) as f64
    }

    /// Fraction supporting Must-Staple (paper: 0.02 %).
    pub fn must_staple_fraction(&self) -> f64 {
        self.must_staple as f64 / self.total.max(1) as f64
    }

    /// Let's Encrypt's share of Must-Staple certificates (paper: 97.3 %).
    pub fn lets_encrypt_must_staple_share(&self) -> f64 {
        self.must_staple_lets_encrypt as f64 / self.must_staple.max(1) as f64
    }
}

#[cfg(test)]
mod tests {
    use crate::calibration as cal;
    use crate::stream::{CorpusFold, CorpusStream};

    /// The §4 fold over a drained `size`-certificate feed.
    fn fold(seed: u64, size: usize) -> CorpusFold {
        let mut stream = CorpusStream::new(seed, size);
        for _ in stream.by_ref() {}
        stream.into_fold()
    }

    fn corpus() -> CorpusFold {
        fold(1, 200_000)
    }

    #[test]
    fn ocsp_fraction_matches_calibration() {
        let stats = corpus().stats().clone();
        assert!(
            (stats.ocsp_fraction() - cal::OCSP_SUPPORT_FRACTION).abs() < 0.01,
            "got {}",
            stats.ocsp_fraction()
        );
    }

    #[test]
    fn must_staple_is_minuscule_and_lets_encrypt_dominates() {
        let stats = corpus().stats().clone();
        // ~0.02-0.03 % of certs.
        let f = stats.must_staple_fraction();
        assert!(f > 0.000_05 && f < 0.001, "fraction {f}");
        // LE ≈ 97 % of Must-Staple issuance.
        let share = stats.lets_encrypt_must_staple_share();
        assert!(share > 0.85, "share {share}");
    }

    #[test]
    fn issuer_breakdown_ranks_lets_encrypt_first() {
        let breakdown = corpus().must_staple_by_issuer();
        assert!(!breakdown.is_empty());
        assert_eq!(breakdown[0].0, "Let's Encrypt");
    }

    #[test]
    fn deterministic_per_seed() {
        let a = fold(9, 10_000);
        let b = fold(9, 10_000);
        let c = fold(10, 10_000);
        assert_eq!(a, b);
        assert_ne!(a, c, "different seeds draw different corpora");
    }

    #[test]
    fn lets_encrypt_certs_have_no_crl() {
        assert!(CorpusStream::new(1, 200_000)
            .filter(|c| c.issuer == "Let's Encrypt")
            .all(|c| !c.has_crl));
    }
}
