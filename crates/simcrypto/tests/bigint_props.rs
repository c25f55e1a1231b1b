//! Property tests for the big-integer arithmetic, with special attention
//! to Knuth Algorithm D division and the Montgomery kernel behind
//! `modpow` (the fiddliest code in the crate), both checked against
//! plain reference arithmetic.

use mustaple_simcrypto::{BigUint, KeyPair};
use proptest::prelude::*;
use rand::{rngs::StdRng, SeedableRng};

fn big(bytes: &[u8]) -> BigUint {
    BigUint::from_be_bytes(bytes)
}

/// The value of little-endian `u32` limbs.
fn from_words(words: &[u32]) -> BigUint {
    let bytes: Vec<u8> = words.iter().rev().flat_map(|w| w.to_be_bytes()).collect();
    big(&bytes)
}

/// `base ^ exp mod m` through `modpow` is below `m` and equals the
/// schoolbook oracle.
fn check_modpow(base: &BigUint, exp: &BigUint, m: &BigUint) {
    let got = base.modpow(exp, m);
    assert!(got < *m, "base={base:?} exp={exp:?} m={m:?}: {got:?}");
    assert_eq!(
        got,
        base.modpow_schoolbook(exp, m),
        "base={base:?} exp={exp:?} m={m:?}"
    );
}

/// Bases for `m`: zero, one below `m`, `m` itself, one above, and
/// `m·k + r`, up to twice `m`'s width, which the kernel folds in digit
/// by digit.
fn edge_bases(m: &BigUint, k: &BigUint, r: &BigUint) -> [BigUint; 5] {
    [
        BigUint::zero(),
        m.sub(&BigUint::one()),
        m.clone(),
        m.add(&BigUint::one()),
        m.mul(k).add(r),
    ]
}

/// The edge moduli at every kernel width `k` (in `u64` limbs):
/// 2^(64k) − 1, all ones; 2^(64k−1) + 1, the smallest odd value with the
/// top bit set; and 2^(64(k−1)) + 1 (3 at one limb), the smallest odd
/// value of the width, where the kernel's intermediate values, which
/// only stay below R = 2^(64k), run furthest above `m`. The exponents
/// include all-ones values, which multiply after every window: 32 bits,
/// the longest square-and-multiply exponent, and the modulus' full
/// width. Then one modulus wider than the kernel, 2^1024 + 1, which
/// takes the schoolbook fallback.
#[test]
fn montgomery_edge_moduli_and_fallback() {
    let one = BigUint::one();
    let k = BigUint::from_u64(0x9E37_79B9_7F4A_7C15);
    let r = BigUint::from_u64(12_345);
    for limbs in 1..=16 {
        let all_ones = one.shl(64 * limbs).sub(&one);
        let low = one.shl(64 * limbs - 1).add(&one);
        let smallest = if limbs == 1 {
            BigUint::from_u64(3)
        } else {
            one.shl(64 * (limbs - 1)).add(&one)
        };
        for m in [all_ones, low, smallest] {
            let full_exp = m.sub(&BigUint::from_u64(2));
            let exps = [
                one.clone(),
                BigUint::from_u64(65_537),
                BigUint::from_u64(u64::from(u32::MAX)),
                one.shl(64 * limbs).sub(&one),
                full_exp,
            ];
            for exp in exps {
                for base in edge_bases(&m, &k, &r) {
                    check_modpow(&base, &exp, &m);
                }
            }
        }
    }
    let wide = one.shl(1024).add(&one);
    let exp = wide.sub(&BigUint::from_u64(2));
    for base in edge_bases(&wide, &k, &r) {
        check_modpow(&base, &exp, &wide);
    }
}

/// Lock-step CRT signing, on keys whose primes share a limb width, and
/// the one-half-after-the-other fallback, on 513-bit keys (a 256-bit `p`
/// and a 257-bit `q`), both equal the straight `m^d mod n` oracle on
/// random messages, and every signature counts two exponentiations.
#[test]
fn lock_step_and_split_signing_match_plain() {
    use mustaple_simcrypto::bigint::modpow_calls;
    use rand::Rng;
    let mut rng = StdRng::seed_from_u64(0x5EED_C127);
    for (seed, bits) in [(1, 384), (2, 384), (3, 384), (4, 512), (5, 513), (6, 1024)] {
        let kp = KeyPair::generate(&mut StdRng::seed_from_u64(seed), bits);
        for _ in 0..24 {
            let mut msg = vec![0u8; rng.gen_range(0..300usize)];
            rng.fill(&mut msg[..]);
            let before = modpow_calls();
            let sig = kp.sign(&msg);
            assert_eq!(modpow_calls() - before, 2, "bits={bits}");
            assert_eq!(sig, kp.sign_without_crt(&msg), "bits={bits} msg={msg:?}");
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn division_identity(a in proptest::collection::vec(any::<u8>(), 0..40),
                         b in proptest::collection::vec(any::<u8>(), 1..24)) {
        let a = big(&a);
        let b = big(&b);
        prop_assume!(!b.is_zero());
        let (q, r) = a.div_rem(&b);
        // a == q*b + r and r < b
        prop_assert_eq!(q.mul(&b).add(&r), a);
        prop_assert!(r.cmp_to(&b) == core::cmp::Ordering::Less);
    }

    #[test]
    fn add_sub_inverse(a in proptest::collection::vec(any::<u8>(), 0..40),
                       b in proptest::collection::vec(any::<u8>(), 0..40)) {
        let a = big(&a);
        let b = big(&b);
        prop_assert_eq!(a.add(&b).sub(&b), a.clone());
        prop_assert_eq!(a.add(&b), b.add(&a));
    }

    #[test]
    fn mul_distributes(a in any::<u64>(), b in any::<u64>(), c in any::<u64>()) {
        let (a, b, c) = (BigUint::from_u64(a), BigUint::from_u64(b), BigUint::from_u64(c));
        prop_assert_eq!(a.mul(&b.add(&c)), a.mul(&b).add(&a.mul(&c)));
    }

    #[test]
    fn bytes_round_trip(bytes in proptest::collection::vec(any::<u8>(), 0..64)) {
        let n = big(&bytes);
        let back = BigUint::from_be_bytes(&n.to_be_bytes());
        prop_assert_eq!(back, n);
    }

    #[test]
    fn shifts_are_mul_div_by_powers(a in proptest::collection::vec(any::<u8>(), 0..32),
                                    s in 0usize..80) {
        let a = big(&a);
        let pow = BigUint::one().shl(s);
        prop_assert_eq!(a.shl(s), a.mul(&pow));
        prop_assert_eq!(a.shr(s), a.div_rem(&pow).0);
    }

    #[test]
    fn modpow_matches_naive(base in 0u64..1000, exp in 0u32..24, m in 2u64..100_000) {
        let m_big = BigUint::from_u64(m);
        let got = BigUint::from_u64(base).modpow(&BigUint::from_u64(u64::from(exp)), &m_big);
        // Naive reference using u128.
        let mut acc: u128 = 1;
        for _ in 0..exp {
            acc = acc * u128::from(base) % u128::from(m);
        }
        prop_assert_eq!(got, BigUint::from_u64(acc as u64));
    }

    #[test]
    fn modinv_really_inverts(a in 1u64..u64::MAX, m in 3u64..u64::MAX) {
        let a = BigUint::from_u64(a);
        let m = BigUint::from_u64(m);
        if let Some(inv) = a.modinv(&m) {
            prop_assert_eq!(a.mulmod(&inv, &m), BigUint::one());
            prop_assert!(inv.cmp_to(&m) == core::cmp::Ordering::Less);
        }
    }

    /// The kernel at every width it is monomorphized for, 1 to 16 `u64`
    /// limbs — every `u32` limb count from 1 to 32, so the odd counts
    /// that leave the top `u64` limb half empty too — with exponents of
    /// 1 to 40 bits and of the modulus' full width, and the edge bases.
    #[test]
    fn montgomery_matches_schoolbook_at_every_width(
        words in proptest::collection::vec(any::<u32>(), 96..97),
        exp_bits in 1usize..=40,
    ) {
        let short = u64::from(words[32]) | u64::from(words[33]) << 32;
        let short_exp = BigUint::from_u64(short & ((1 << exp_bits) - 1) | 1 << (exp_bits - 1));
        for limbs in 1..=32 {
            let mut m_words = words[..limbs].to_vec();
            m_words[limbs - 1] = m_words[limbs - 1].max(1);
            m_words[0] |= 1;
            let m = from_words(&m_words);
            let full_exp = from_words(&words[32..32 + limbs]);
            let base = from_words(&words[64..64 + limbs]);
            check_modpow(&base, &full_exp, &m);
            for base in edge_bases(&m, &from_words(&words[..limbs]), &base) {
                check_modpow(&base, &short_exp, &m);
            }
        }
    }

    /// CRT signing equals the straight `m^d mod n` oracle and verifies,
    /// at every key size the benches use.
    #[test]
    fn crt_sign_matches_plain_and_verifies(seed in any::<u64>(),
                                           msg in proptest::collection::vec(any::<u8>(), 0..200)) {
        for bits in [384usize, 512, 768, 1024] {
            let kp = KeyPair::generate(&mut StdRng::seed_from_u64(seed), bits);
            let sig = kp.sign(&msg);
            prop_assert_eq!(&sig, &kp.sign_without_crt(&msg), "bits={}", bits);
            prop_assert!(kp.public().verify(&msg, &sig).is_ok(), "bits={}", bits);
        }
    }

    /// Stress exactly the Algorithm D q_hat fix-up path: divisors whose
    /// top limb is large and dividends built to sit near digit boundaries.
    #[test]
    fn division_near_digit_boundaries(top in (1u32 << 31)..=u32::MAX,
                                      lows in proptest::collection::vec(any::<u32>(), 1..4),
                                      q in any::<u64>(), extra in any::<u32>()) {
        // divisor = [lows..., top]; dividend = divisor * q + extra
        let mut div_bytes = top.to_be_bytes().to_vec();
        for l in &lows {
            div_bytes.extend_from_slice(&l.to_be_bytes());
        }
        let divisor = big(&div_bytes);
        let dividend = divisor.mul(&BigUint::from_u64(q)).add(&BigUint::from_u64(u64::from(extra)));
        let (got_q, got_r) = dividend.div_rem(&divisor);
        prop_assert_eq!(got_q.mul(&divisor).add(&got_r), dividend);
        prop_assert!(got_r.cmp_to(&divisor) == core::cmp::Ordering::Less);
    }
}
