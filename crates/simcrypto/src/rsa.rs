//! Toy-size textbook RSA signatures with PKCS#1 v1.5-shaped padding.
//!
//! Signing encodes `EM = 0x00 || 0x01 || 0xFF.. || 0x00 || SHA256(msg)`
//! and computes `EM^d mod n`; verification recomputes `sig^e mod n` and
//! compares the full encoded message. The padding check is strict
//! (full re-encode comparison), so truncation/garbage attacks used by the
//! study's fault injector are reliably detected.
//!
//! The default modulus size is 384 bits: large enough that the byte-level
//! encodings look realistic, small enough that a measurement campaign can
//! sign millions of responses in seconds.

#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
#![deny(clippy::unreachable, clippy::todo, clippy::unimplemented)]

use crate::bigint::{be_words, write_be, BigUint, CrtCtx, MontgomeryCtx, MAX_LIMBS};
use crate::prime::generate_prime;
use crate::sha256;
use rand::Rng;
use std::sync::OnceLock;

/// Default modulus size in bits for simulation keys — the smallest size
/// that fits PKCS#1-style SHA-256 padding. Signing cost scales roughly
/// cubically with modulus size, and the scan campaigns sign millions of
/// responses, so the default stays at the floor.
pub const DEFAULT_BITS: usize = 384;

/// The fixed public exponent, 65537.
pub fn public_exponent() -> BigUint {
    BigUint::from_u64(65537)
}

/// Verification failure reasons.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SignatureError {
    /// The signature integer was not smaller than the modulus, or had the
    /// wrong byte length.
    Malformed,
    /// The recovered encoded message did not match the expected padding
    /// and digest.
    Invalid,
}

impl core::fmt::Display for SignatureError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            SignatureError::Malformed => write!(f, "malformed signature"),
            SignatureError::Invalid => write!(f, "signature verification failed"),
        }
    }
}

impl std::error::Error for SignatureError {}

/// An RSA public key (n, e).
///
/// Equality, hashing and `Debug` see `n` and `e` only.
#[derive(Clone)]
pub struct PublicKey {
    n: BigUint,
    e: BigUint,
    /// `n`'s Montgomery constants (`None` where the kernel does not take
    /// `n`), made by the first [`PublicKey::verify`] rather than here:
    /// keys decoded from every probe's attached certificates may never
    /// verify anything, while a long-lived issuer key verifies many
    /// signatures.
    mont: OnceLock<Option<MontgomeryCtx>>,
    /// [`PublicKey::key_id`], made by its first call for the same
    /// reason: an issuer key is asked for its id on every request.
    key_id: OnceLock<[u8; 32]>,
}

impl PublicKey {
    /// Construct from raw components.
    pub fn new(n: BigUint, e: BigUint) -> PublicKey {
        PublicKey {
            n,
            e,
            mont: OnceLock::new(),
            key_id: OnceLock::new(),
        }
    }

    /// The modulus.
    pub fn modulus(&self) -> &BigUint {
        &self.n
    }

    /// The public exponent.
    pub fn exponent(&self) -> &BigUint {
        &self.e
    }

    /// Modulus size in whole bytes.
    pub fn modulus_len(&self) -> usize {
        self.n.bit_len().div_ceil(8)
    }

    /// Verify `signature` over `message`.
    ///
    /// Where the Montgomery kernel takes `n` (odd, at most 1024 bits:
    /// every key the study generates), nothing is allocated: the
    /// signature's limbs, the recovered encoding and the expected one
    /// are fixed arrays on the stack, and `s < n` is checked on the
    /// packed limbs.
    pub fn verify(&self, message: &[u8], signature: &[u8]) -> Result<(), SignatureError> {
        let k = self.modulus_len();
        if signature.len() != k {
            return Err(SignatureError::Malformed);
        }
        let Some(ctx) = self.mont.get_or_init(|| MontgomeryCtx::new(&self.n)) else {
            return self.verify_schoolbook(message, signature);
        };
        let mut words = [0; 4 * MAX_LIMBS];
        let s = be_words(signature, &mut words);
        if !ctx.below_modulus(s) {
            return Err(SignatureError::Malformed);
        }
        // n fits the kernel, so k ≤ 8·MAX_LIMBS bytes.
        let mut em = [0; 8 * MAX_LIMBS];
        write_be(&ctx.pow_words(s, &self.e), &mut em[..k]);
        let mut expected = [0; 8 * MAX_LIMBS];
        encode_em_into(message, &mut expected[..k]).ok_or(SignatureError::Malformed)?;
        if em[..k] == expected[..k] {
            Ok(())
        } else {
            Err(SignatureError::Invalid)
        }
    }

    /// [`PublicKey::verify`] for a modulus the kernel does not take
    /// (even, one, or wider than 1024 bits), through `BigUint`.
    fn verify_schoolbook(&self, message: &[u8], signature: &[u8]) -> Result<(), SignatureError> {
        let k = signature.len();
        let s = BigUint::from_be_bytes(signature);
        if s.cmp_to(&self.n) != core::cmp::Ordering::Less {
            return Err(SignatureError::Malformed);
        }
        let em = s.modpow(&self.e, &self.n).to_be_bytes_padded(k);
        let expected = encode_em(message, k).ok_or(SignatureError::Malformed)?;
        if em == expected {
            Ok(())
        } else {
            Err(SignatureError::Invalid)
        }
    }

    /// A stable identifier for this key: SHA-256 of `n || e` bytes.
    /// Used as the `issuerKeyHash` in OCSP CertIDs.
    pub fn key_id(&self) -> [u8; 32] {
        *self.key_id.get_or_init(|| {
            let mut data = self.n.to_be_bytes();
            data.extend_from_slice(&self.e.to_be_bytes());
            sha256(&data)
        })
    }
}

impl PartialEq for PublicKey {
    fn eq(&self, other: &PublicKey) -> bool {
        (&self.n, &self.e) == (&other.n, &other.e)
    }
}

impl Eq for PublicKey {}

impl core::hash::Hash for PublicKey {
    fn hash<H: core::hash::Hasher>(&self, state: &mut H) {
        (&self.n, &self.e).hash(state);
    }
}

impl core::fmt::Debug for PublicKey {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_struct("PublicKey")
            .field("n", &self.n)
            .field("e", &self.e)
            .finish()
    }
}

/// An RSA key pair, with CRT parameters for fast signing.
#[derive(Debug, Clone)]
pub struct KeyPair {
    public: PublicKey,
    d: BigUint,
    /// CRT: signing via the Chinese Remainder Theorem is ~4x faster than
    /// a full modpow, which matters because the simulated responders
    /// sign hundreds of thousands of OCSP responses per measurement
    /// campaign. Its constants are made once here rather than on every
    /// signature.
    crt: CrtCtx,
}

impl KeyPair {
    /// Generate a key pair with a modulus of `bits` bits.
    ///
    /// # Panics
    ///
    /// Panics if `bits < 384`: the encoded message needs 32 (digest) + 3
    /// (header) + 8 (minimum pad) = 43 bytes, i.e. 344 bits, and we round
    /// up to the next common size. Panics if `bits > 2048`, where the
    /// CRT primes outgrow the Montgomery kernel.
    pub fn generate(rng: &mut impl Rng, bits: usize) -> KeyPair {
        assert!(bits >= 384, "modulus too small for SHA-256 padding");
        assert!(bits <= 128 * MAX_LIMBS, "modulus too large for CRT signing");
        let e = public_exponent();
        loop {
            let p = generate_prime(rng, bits / 2);
            let q = generate_prime(rng, bits - bits / 2);
            if p == q {
                continue;
            }
            let n = p.mul(&q);
            if n.bit_len() != bits {
                continue;
            }
            let one = BigUint::one();
            let phi = p.sub(&one).mul(&q.sub(&one));
            let Some(d) = e.modinv(&phi) else { continue };
            let Some(qinv) = q.modinv(&p) else { continue };
            let dp = d.rem(&p.sub(&one));
            let dq = d.rem(&q.sub(&one));
            // Odd primes within the asserted width always have contexts.
            let Some(crt) = CrtCtx::new(&p, &q, dp, dq, qinv) else {
                continue;
            };
            return KeyPair {
                public: PublicKey::new(n, e),
                d,
                crt,
            };
        }
    }

    /// Generate with the default simulation size.
    pub fn generate_default(rng: &mut impl Rng) -> KeyPair {
        Self::generate(rng, DEFAULT_BITS)
    }

    /// The public half.
    pub fn public(&self) -> &PublicKey {
        &self.public
    }

    /// Sign `message`, returning a signature of exactly `modulus_len`
    /// bytes. Uses CRT: `s1 = m^dp mod p`, `s2 = m^dq mod q`,
    /// `h = qinv (s1 - s2) mod p`, `s = s2 + q h`; the signature is the
    /// only allocation.
    pub fn sign(&self, message: &[u8]) -> Vec<u8> {
        let k = self.public.modulus_len();
        let mut em = [0; 16 * MAX_LIMBS];
        let em = &mut em[..k];
        #[expect(clippy::expect_used, reason = "generation checked the modulus length")]
        encode_em_into(message, em).expect("modulus checked at generation");
        let mut signature = vec![0; k];
        self.crt.sign(em, &mut signature);
        signature
    }

    /// The full private exponent (exposed for tests/ablations comparing
    /// CRT signing against the straight `m^d mod n` path).
    pub fn sign_without_crt(&self, message: &[u8]) -> Vec<u8> {
        let k = self.public.modulus_len();
        #[expect(clippy::expect_used, reason = "generation checked the modulus length")]
        let em = encode_em(message, k).expect("modulus checked at generation");
        let m = BigUint::from_be_bytes(&em);
        m.modpow(&self.d, &self.public.n).to_be_bytes_padded(k)
    }
}

/// PKCS#1 v1.5-shaped encoded message for a SHA-256 digest.
/// Returns `None` when `k` is too small to hold the padding.
fn encode_em(message: &[u8], k: usize) -> Option<Vec<u8>> {
    let mut em = vec![0; k];
    encode_em_into(message, &mut em)?;
    Some(em)
}

/// [`encode_em`] over all of `em`: `0x00 0x01 PS 0x00 DIGEST`, with PS
/// at least 8 bytes of 0xFF. Returns `None`, leaving `em` as it is, when
/// `em` is too short to hold the padding.
fn encode_em_into(message: &[u8], em: &mut [u8]) -> Option<()> {
    let digest = sha256(message);
    let ps_len = em.len().checked_sub(3 + digest.len())?;
    if ps_len < 8 {
        return None;
    }
    let (header, rest) = em.split_at_mut(2 + ps_len);
    header[0] = 0x00;
    header[1] = 0x01;
    header[2..].fill(0xff);
    rest[0] = 0x00;
    rest[1..].copy_from_slice(&digest);
    Some(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{rngs::StdRng, SeedableRng};

    fn keypair() -> KeyPair {
        KeyPair::generate(&mut StdRng::seed_from_u64(42), 384)
    }

    #[test]
    fn sign_verify_round_trip() {
        let kp = keypair();
        let sig = kp.sign(b"ocsp response body");
        kp.public().verify(b"ocsp response body", &sig).unwrap();
    }

    #[test]
    fn tampered_message_fails() {
        let kp = keypair();
        let sig = kp.sign(b"original");
        assert_eq!(
            kp.public().verify(b"tampered", &sig),
            Err(SignatureError::Invalid)
        );
    }

    #[test]
    fn tampered_signature_fails() {
        let kp = keypair();
        let mut sig = kp.sign(b"message");
        sig[5] ^= 0x40;
        assert!(kp.public().verify(b"message", &sig).is_err());
    }

    #[test]
    fn wrong_key_fails() {
        let kp1 = keypair();
        let kp2 = KeyPair::generate(&mut StdRng::seed_from_u64(43), 384);
        let sig = kp1.sign(b"message");
        assert!(kp2.public().verify(b"message", &sig).is_err());
    }

    #[test]
    fn wrong_length_signature_is_malformed() {
        let kp = keypair();
        let sig = kp.sign(b"m");
        assert_eq!(
            kp.public().verify(b"m", &sig[1..]),
            Err(SignatureError::Malformed)
        );
        let mut long = sig.clone();
        long.push(0);
        assert_eq!(
            kp.public().verify(b"m", &long),
            Err(SignatureError::Malformed)
        );
    }

    /// A signature of the right length is still malformed unless its
    /// value is below `n`: equal to `n`, one above it, or all `0xff`.
    /// Zero is below `n` and recovers an encoding that does not match.
    /// Both on the kernel's path and, under an even modulus, on the
    /// schoolbook one.
    #[test]
    fn out_of_range_signatures_are_malformed() {
        let kp = keypair();
        let even = PublicKey::new(
            kp.public().modulus().add(&BigUint::one()),
            public_exponent(),
        );
        for key in [kp.public(), &even] {
            let (n, k) = (key.modulus(), key.modulus_len());
            for (value, expected) in [
                (n.to_be_bytes_padded(k), SignatureError::Malformed),
                (
                    n.add(&BigUint::one()).to_be_bytes_padded(k),
                    SignatureError::Malformed,
                ),
                (vec![0xff; k], SignatureError::Malformed),
                (vec![0; k], SignatureError::Invalid),
            ] {
                assert_eq!(
                    key.verify(b"m", &value),
                    Err(expected),
                    "n={n:?} {value:02x?}"
                );
            }
        }
    }

    #[test]
    fn signature_has_modulus_length() {
        let kp = keypair();
        for msg in [&b""[..], b"x", b"a much longer message spanning blocks"] {
            assert_eq!(kp.sign(msg).len(), kp.public().modulus_len());
        }
    }

    #[test]
    fn generation_is_deterministic() {
        let a = KeyPair::generate(&mut StdRng::seed_from_u64(9), 384);
        let b = KeyPair::generate(&mut StdRng::seed_from_u64(9), 384);
        assert_eq!(a.public(), b.public());
    }

    #[test]
    fn key_ids_differ() {
        let a = keypair();
        let b = KeyPair::generate(&mut StdRng::seed_from_u64(77), 384);
        assert_ne!(a.public().key_id(), b.public().key_id());
    }

    #[test]
    fn crt_matches_plain_signing() {
        let kp = keypair();
        for msg in [&b"a"[..], b"bb", b"a longer message for crt equivalence"] {
            assert_eq!(kp.sign(msg), kp.sign_without_crt(msg));
        }
    }

    /// Pins keygen (Miller–Rabin runs through `modpow`) and the
    /// signature bytes, so a drift in either fails here first.
    #[test]
    fn golden_vector() {
        let kp = keypair();
        let hex = |bytes: &[u8]| bytes.iter().map(|b| format!("{b:02x}")).collect::<String>();
        assert_eq!(
            hex(&kp.public().modulus().to_be_bytes()),
            "94446d3bf9694473c83ca98876de4f834cfdab2e4d4cb64a\
             77d0e73345c3a2d2c9df6403164964b05e917ae3ee20e8bd"
        );
        assert_eq!(
            hex(&kp.sign(b"golden vector")),
            "5023cf52707938886f3f6a20816b61551719684f0c63b52e\
             bb3d99dd9f64e09f5f217ea29d6b005272b9d35fab6e2850"
        );
    }

    #[test]
    fn default_bits_keypair_works() {
        let kp = KeyPair::generate_default(&mut StdRng::seed_from_u64(1));
        assert_eq!(kp.public().modulus_len(), DEFAULT_BITS / 8);
        let sig = kp.sign(b"default");
        kp.public().verify(b"default", &sig).unwrap();
    }
}
