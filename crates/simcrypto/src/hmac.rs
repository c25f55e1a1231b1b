//! HMAC-SHA256 (RFC 2104).
//!
//! Besides message authentication, the study uses HMAC as a deterministic
//! PRF: per-sample randomness is derived as `HMAC(seed, label)`, which
//! keeps every simulation run reproducible.

#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
#![deny(clippy::unreachable, clippy::todo, clippy::unimplemented)]

use crate::sha256::Sha256;

const BLOCK: usize = 64;

/// HMAC-SHA256 under one fixed key.
///
/// The key's two pad blocks are absorbed once, here; every MAC starts
/// from clones of the two midstates. A MAC of a short message then costs
/// two SHA-256 compressions instead of four, which matters for a PRF
/// keyed once and evaluated on every simulated request.
#[derive(Clone)]
pub struct HmacSha256 {
    /// SHA-256 after absorbing `key ^ ipad`.
    inner: Sha256,
    /// SHA-256 after absorbing `key ^ opad`.
    outer: Sha256,
}

impl HmacSha256 {
    /// Key a MAC. Keys longer than the 64-byte block are hashed first.
    pub fn new(key: &[u8]) -> HmacSha256 {
        let mut k = [0u8; BLOCK];
        if key.len() > BLOCK {
            k[..32].copy_from_slice(&crate::sha256(key));
        } else {
            k[..key.len()].copy_from_slice(key);
        }
        let mut inner = Sha256::new();
        inner.update(&k.map(|b| b ^ 0x36));
        let mut outer = Sha256::new();
        outer.update(&k.map(|b| b ^ 0x5c));
        HmacSha256 { inner, outer }
    }

    /// The MAC of `data`.
    pub fn mac(&self, data: &[u8]) -> [u8; 32] {
        self.mac_parts(&[data])
    }

    /// The MAC of the concatenation of `parts`, absorbed in place, so a
    /// message built from pieces needs no buffer.
    pub fn mac_parts(&self, parts: &[&[u8]]) -> [u8; 32] {
        let mut inner = self.inner.clone();
        for part in parts {
            inner.update(part);
        }
        let mut outer = self.outer.clone();
        outer.update(&inner.finalize());
        outer.finalize()
    }
}

/// HMAC-SHA256 of `data` under `key`, for a key used once.
pub fn hmac_sha256(key: &[u8], data: &[u8]) -> [u8; 32] {
    HmacSha256::new(key).mac(data)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hex(digest: &[u8]) -> String {
        digest.iter().map(|b| format!("{b:02x}")).collect()
    }

    // RFC 4231 test vectors for HMAC-SHA256.
    #[test]
    fn rfc4231_case_1() {
        let key = [0x0bu8; 20];
        let mac = hmac_sha256(&key, b"Hi There");
        assert_eq!(
            hex(&mac),
            "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7"
        );
    }

    #[test]
    fn rfc4231_case_2() {
        let mac = hmac_sha256(b"Jefe", b"what do ya want for nothing?");
        assert_eq!(
            hex(&mac),
            "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843"
        );
    }

    #[test]
    fn rfc4231_case_3() {
        let key = [0xaau8; 20];
        let data = [0xddu8; 50];
        let mac = hmac_sha256(&key, &data);
        assert_eq!(
            hex(&mac),
            "773ea91e36800e46854db8ebd09181a72959098b3ef8c122d9635514ced565fe"
        );
    }

    #[test]
    fn rfc4231_case_6_long_key() {
        let key = [0xaau8; 131];
        let mac = hmac_sha256(
            &key,
            b"Test Using Larger Than Block-Size Key - Hash Key First",
        );
        assert_eq!(
            hex(&mac),
            "60e431591ee0b67f0d8a26aacbf5b77f8e0bc6213728c5140546040f0ee37f54"
        );
    }

    /// RFC 4231 cases 1, 2, 3 and 6: `(key, data, mac)`.
    fn rfc4231() -> [(Vec<u8>, Vec<u8>, &'static str); 4] {
        [
            (
                vec![0x0b; 20],
                b"Hi There".to_vec(),
                "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7",
            ),
            (
                b"Jefe".to_vec(),
                b"what do ya want for nothing?".to_vec(),
                "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843",
            ),
            (
                vec![0xaa; 20],
                vec![0xdd; 50],
                "773ea91e36800e46854db8ebd09181a72959098b3ef8c122d9635514ced565fe",
            ),
            (
                vec![0xaa; 131],
                b"Test Using Larger Than Block-Size Key - Hash Key First".to_vec(),
                "60e431591ee0b67f0d8a26aacbf5b77f8e0bc6213728c5140546040f0ee37f54",
            ),
        ]
    }

    #[test]
    fn keyed_mac_is_reusable() {
        // Each MAC must start from the stored midstates, not consume
        // them: one keyed value gives each case's MAC after MACing a
        // two-block message, and again right after.
        for (key, data, expected) in rfc4231() {
            let keyed = HmacSha256::new(&key);
            keyed.mac(&[0x5a; 100]);
            assert_eq!(hex(&keyed.mac(&data)), expected);
            assert_eq!(hex(&keyed.mac(&data)), expected);
        }
    }

    #[test]
    fn parts_mac_as_their_concatenation() {
        // Every split of each case's message, including empty parts and
        // splits across the 64-byte block boundary, gives its MAC.
        for (key, data, expected) in rfc4231() {
            let keyed = HmacSha256::new(&key);
            for cut in 0..=data.len() {
                let (head, tail) = data.split_at(cut);
                assert_eq!(hex(&keyed.mac_parts(&[head, &[], tail])), expected);
            }
        }
    }

    #[test]
    fn block_size_key_is_used_as_is() {
        // NIST's HMAC-SHA256 keylen=blocklen example: key 0x00..=0x3f,
        // the largest key used without hashing it first.
        let key: Vec<u8> = (0..64).collect();
        let keyed = HmacSha256::new(&key);
        for _ in 0..2 {
            assert_eq!(
                hex(&keyed.mac(b"Sample message for keylen=blocklen")),
                "8bb9a1db9806f20df7f77b82138c7914d174d59e13dc4d0169c9057b133e1d62"
            );
        }
        // One byte more and the key is hashed down to 32 bytes.
        let longer: Vec<u8> = (0..65).collect();
        assert_eq!(
            hmac_sha256(&longer, b"msg"),
            hmac_sha256(&crate::sha256(&longer), b"msg")
        );
    }
}
