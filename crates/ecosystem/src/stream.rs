//! The certificate feeds — pull-based generation at any scale.
//!
//! The §4 corpus and the Alexa list are never materialized: each is a
//! seeded, deterministic *iterator*, so a pass over ×N populations
//! holds one record at a time (DESIGN.md §13):
//!
//! * [`CorpusStream`] yields [`CorpusCert`]s on demand and folds the §4
//!   statistics ([`CorpusFold`]) as it goes, so consumers that only
//!   need the numbers never hold a certificate vector.
//! * [`AlexaStream`] yields [`AlexaSite`]s in rank order; the Figure 2
//!   / Figure 11 rank folds consume it site by site.
//!
//! Same seed and size, same records, bit for bit: the RNG draw order is
//! part of the determinism contract.

use crate::alexa::AlexaSite;
use crate::authorities::{named_operators, OperatorSpec};
use crate::calibration as cal;
use crate::corpus::{CorpusCert, CorpusStats};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::BTreeMap;

/// RNG stream salt for [`CorpusStream`]. Changing it changes every
/// seeded corpus.
const CORPUS_SALT: u64 = 0xC0_45_05;

/// RNG stream salt for [`AlexaStream`].
const ALEXA_SALT: u64 = 0xA1E7A;

/// Draw one corpus certificate. The draw order (operator, filler
/// index, OCSP, Must-Staple, multi-responder — the latter two
/// short-circuited on `has_ocsp`) is part of the determinism contract:
/// reordering it changes every seeded corpus.
fn draw_cert(rng: &mut StdRng, operators: &[OperatorSpec], named_share: f64) -> CorpusCert {
    let spec = pick_operator(rng, operators, named_share);
    let (issuer, supports_crl, ms_share) = match spec {
        Some(op) => (op.name.to_string(), op.supports_crl, op.must_staple_share),
        None => {
            // Long-tail filler CA: generic behavior, no Must-Staple.
            (format!("Other-{}", rng.gen_range(0..40)), true, 0.0)
        }
    };
    let has_ocsp = rng.gen_bool(cal::OCSP_SUPPORT_FRACTION);
    let has_must_staple = has_ocsp && rng.gen_bool(ms_share);
    CorpusCert {
        issuer,
        has_ocsp,
        has_must_staple,
        has_crl: supports_crl,
        multi_responder: has_ocsp && rng.gen_bool(cal::MULTI_RESPONDER_FRACTION),
    }
}

fn pick_operator<'a>(
    rng: &mut StdRng,
    operators: &'a [OperatorSpec],
    named_share: f64,
) -> Option<&'a OperatorSpec> {
    let x: f64 = rng.gen_range(0.0..1.0);
    if x >= named_share {
        return None;
    }
    let mut acc = 0.0;
    for op in operators {
        acc += op.market_share;
        if x < acc {
            return Some(op);
        }
    }
    operators.last()
}

/// The §4 statistics folded incrementally while certificates stream
/// past: [`CorpusStats`] plus the per-issuer Must-Staple counts. This
/// is the *only* state the §4 pass retains — memory is bounded by the
/// number of distinct issuers, not the corpus size.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct CorpusFold {
    stats: CorpusStats,
    must_staple_issuers: BTreeMap<String, usize>,
}

impl CorpusFold {
    /// An empty fold.
    pub fn new() -> CorpusFold {
        CorpusFold::default()
    }

    /// Fold one certificate in.
    pub fn record(&mut self, cert: &CorpusCert) {
        self.stats.total += 1;
        if cert.has_ocsp {
            self.stats.ocsp += 1;
        }
        if cert.has_must_staple {
            self.stats.must_staple += 1;
            if cert.issuer == "Let's Encrypt" {
                self.stats.must_staple_lets_encrypt += 1;
            }
            *self
                .must_staple_issuers
                .entry(cert.issuer.clone())
                .or_default() += 1;
        }
        if cert.multi_responder {
            self.stats.multi_responder += 1;
        }
    }

    /// The aggregate §4 statistics so far.
    pub fn stats(&self) -> &CorpusStats {
        &self.stats
    }

    /// Must-Staple counts per issuer, descending — the §4 CA breakdown.
    /// Ties keep issuer-name (BTreeMap) order.
    pub fn must_staple_by_issuer(&self) -> Vec<(String, usize)> {
        let mut out: Vec<(String, usize)> = self
            .must_staple_issuers
            .iter()
            .map(|(k, &v)| (k.clone(), v))
            .collect();
        out.sort_by_key(|&(_, v)| std::cmp::Reverse(v));
        out
    }
}

/// A seeded, deterministic certificate feed: yields exactly `size`
/// [`CorpusCert`]s, folding the §4 statistics as it goes.
pub struct CorpusStream {
    rng: StdRng,
    operators: Vec<OperatorSpec>,
    named_share: f64,
    remaining: usize,
    fold: CorpusFold,
}

impl CorpusStream {
    /// A feed of `size` certificates under `seed`.
    pub fn new(seed: u64, size: usize) -> CorpusStream {
        let operators = named_operators();
        let named_share: f64 = operators.iter().map(|o| o.market_share).sum();
        CorpusStream {
            rng: StdRng::seed_from_u64(seed ^ CORPUS_SALT),
            operators,
            named_share,
            remaining: size,
            fold: CorpusFold::new(),
        }
    }

    /// The statistics folded over everything yielded so far.
    ///
    /// (Named `fold_so_far` because `Iterator::fold` wins method
    /// resolution on a bare `fold()` call against an iterator value.)
    pub fn fold_so_far(&self) -> &CorpusFold {
        &self.fold
    }

    /// Consume the stream, returning the fold (drain first for the
    /// full-corpus statistics).
    pub fn into_fold(self) -> CorpusFold {
        self.fold
    }
}

impl Iterator for CorpusStream {
    type Item = CorpusCert;

    fn next(&mut self) -> Option<CorpusCert> {
        if self.remaining == 0 {
            return None;
        }
        self.remaining -= 1;
        let cert = draw_cert(&mut self.rng, &self.operators, self.named_share);
        self.fold.record(&cert);
        Some(cert)
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        (self.remaining, Some(self.remaining))
    }
}

/// A seeded, deterministic Alexa feed: yields exactly `size`
/// [`AlexaSite`]s in rank order.
pub struct AlexaStream {
    rng: StdRng,
    size: usize,
    next_rank: usize,
}

/// Interpolate between `top` (rank 1) and `tail` (rank n) on a
/// log-rank scale — the Figure 2/11 adoption shape.
fn interp(rank: usize, n: usize, top: f64, tail: f64) -> f64 {
    if n <= 1 {
        return top;
    }
    let x = (rank as f64).ln() / (n as f64).ln();
    top + (tail - top) * x
}

impl AlexaStream {
    /// A feed of `size` ranked sites under `seed`.
    pub fn new(seed: u64, size: usize) -> AlexaStream {
        AlexaStream {
            rng: StdRng::seed_from_u64(seed ^ ALEXA_SALT),
            size,
            next_rank: 1,
        }
    }
}

impl Iterator for AlexaStream {
    type Item = AlexaSite;

    fn next(&mut self) -> Option<AlexaSite> {
        if self.next_rank > self.size {
            return None;
        }
        let rank = self.next_rank;
        self.next_rank += 1;
        let size = self.size;
        let https = self.rng.gen_bool(interp(
            rank,
            size,
            cal::ALEXA_HTTPS_TOP,
            cal::ALEXA_HTTPS_TAIL,
        ));
        let ocsp = https
            && self.rng.gen_bool(interp(
                rank,
                size,
                cal::ALEXA_OCSP_TOP,
                cal::ALEXA_OCSP_TAIL,
            ));
        let staples = ocsp
            && self.rng.gen_bool(interp(
                rank,
                size,
                cal::ALEXA_STAPLING_TOP,
                cal::ALEXA_STAPLING_TAIL,
            ));
        let must_staple = ocsp && self.rng.gen_bool(cal::ALEXA_MUST_STAPLE_FRACTION);
        Some(AlexaSite {
            rank,
            domain: format!("site-{rank:07}.example"),
            https,
            ocsp,
            staples,
            must_staple,
        })
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let left = self.size.saturating_sub(self.next_rank - 1);
        (left, Some(left))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn partial_fold_reflects_only_whats_yielded() {
        let mut stream = CorpusStream::new(7, 1_000);
        for _ in 0..100 {
            stream.next();
        }
        assert_eq!(stream.fold_so_far().stats().total, 100);
        assert_eq!(stream.size_hint(), (900, Some(900)));
    }
}
