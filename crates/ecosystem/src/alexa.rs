//! The synthetic Alexa Top-1M list.
//!
//! Adoption probabilities interpolate log-linearly between a "top" and a
//! "tail" value across the rank range, which is exactly the shape of the
//! paper's Figures 2 and 11: high and slowly declining. The list is
//! streamed site by site by [`crate::stream::AlexaStream`].

/// One ranked site.
#[derive(Debug, Clone)]
pub struct AlexaSite {
    /// 1-based popularity rank.
    pub rank: usize,
    /// Domain name.
    pub domain: String,
    /// Serves HTTPS with a valid certificate.
    pub https: bool,
    /// Its certificate carries an OCSP URL.
    pub ocsp: bool,
    /// The server staples OCSP responses (Figure 11).
    pub staples: bool,
    /// Its certificate carries Must-Staple (§4: 100 domains in 1M).
    pub must_staple: bool,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stream::AlexaStream;
    use analysis_shim::fraction;

    /// Tiny local helper (the real analysis crate is a dev-dependency of
    /// higher layers; keeping this crate dependency-light).
    mod analysis_shim {
        use super::super::AlexaSite;
        pub fn fraction(sites: &[AlexaSite], f: impl Fn(&AlexaSite) -> bool) -> f64 {
            sites.iter().filter(|s| f(s)).count() as f64 / sites.len().max(1) as f64
        }
    }

    fn list() -> Vec<AlexaSite> {
        AlexaStream::new(3, 100_000).collect()
    }

    #[test]
    fn https_is_roughly_three_quarters() {
        let l = list();
        let f = fraction(&l, |s| s.https);
        assert!((0.68..0.82).contains(&f), "https fraction {f}");
    }

    #[test]
    fn ocsp_among_https_matches_paper_average() {
        let l = list();
        let https: Vec<_> = l.iter().filter(|s| s.https).cloned().collect();
        let f = fraction(&https, |s| s.ocsp);
        // Paper: 91.3 % average.
        assert!((0.88..0.945).contains(&f), "ocsp|https fraction {f}");
    }

    #[test]
    fn stapling_is_roughly_a_third_of_ocsp_sites() {
        let l = list();
        let ocsp: Vec<_> = l.iter().filter(|s| s.ocsp).cloned().collect();
        let f = fraction(&ocsp, |s| s.staples);
        assert!((0.25..0.45).contains(&f), "stapling fraction {f}");
    }

    #[test]
    fn popular_sites_adopt_more() {
        let l = list();
        let head = &l[..10_000];
        let tail = &l[90_000..];
        assert!(fraction(head, |s| s.https) > fraction(tail, |s| s.https));
        assert!(fraction(head, |s| s.staples) > fraction(tail, |s| s.staples));
    }

    #[test]
    fn must_staple_count_is_tiny() {
        let l = list();
        let count = l.iter().filter(|s| s.must_staple).count();
        // Paper: 100 in 1M → ~10 in 100k. Allow generous slack.
        assert!(count < 60, "count {count}");
    }

    #[test]
    fn deterministic() {
        let a: Vec<AlexaSite> = AlexaStream::new(5, 1_000).collect();
        let b: Vec<AlexaSite> = AlexaStream::new(5, 1_000).collect();
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.https, y.https);
            assert_eq!(x.staples, y.staples);
        }
    }
}
