//! Property tests: certificate and CRL encode/decode round-trips over
//! randomized contents, and decoder robustness against mutation.

use asn1::Time;
use mustaple_pki::extensions::{
    AuthorityInfoAccess, BasicConstraints, CrlDistributionPoints, SubjectAltName, TlsFeature,
};
use mustaple_pki::{
    Certificate, Crl, Name, RevocationReason, RevokedEntry, Serial, TbsCertificate, Validity,
};
use proptest::prelude::*;
use rand::{rngs::StdRng, SeedableRng};
use simcrypto::KeyPair;

fn keypair() -> KeyPair {
    // One shared key pair: generation is the slow part and key contents
    // are not what these properties are about.
    KeyPair::generate(&mut StdRng::seed_from_u64(0xBEEF), 384)
}

fn dns_label() -> impl Strategy<Value = String> {
    "[a-z][a-z0-9-]{0,14}[a-z0-9]".prop_map(|s| s)
}

fn arb_serial() -> impl Strategy<Value = Serial> {
    proptest::collection::vec(any::<u8>(), 1..20).prop_map(|b| Serial::from_bytes(&b))
}

fn arb_time() -> impl Strategy<Value = Time> {
    // 2000..2049 keeps UTCTime in range.
    (946_684_800i64..2_524_608_000).prop_map(Time::from_unix)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn certificate_round_trips(
        serial in arb_serial(),
        cn in dns_label(),
        issuer_cn in dns_label(),
        nb in arb_time(),
        lifetime in 86_400i64..(5 * 365 * 86_400),
        must_staple in any::<bool>(),
        ca in any::<bool>(),
        sans in proptest::collection::vec(dns_label(), 0..5),
        ocsp_urls in proptest::collection::vec("[a-z]{1,10}", 0..3),
    ) {
        let kp = keypair();
        let mut extensions = vec![BasicConstraints { ca, path_len: None }.to_extension()];
        if must_staple {
            extensions.push(TlsFeature::must_staple().to_extension());
        }
        if !sans.is_empty() {
            extensions.push(SubjectAltName { dns_names: sans.clone() }.to_extension());
        }
        if !ocsp_urls.is_empty() {
            extensions.push(
                AuthorityInfoAccess {
                    ocsp: ocsp_urls.iter().map(|u| format!("http://{u}.test/")).collect(),
                    ca_issuers: vec![],
                }
                .to_extension(),
            );
            extensions.push(
                CrlDistributionPoints { urls: vec![format!("http://crl.{cn}.test/c.crl")] }
                    .to_extension(),
            );
        }
        let tbs = TbsCertificate {
            serial: serial.clone(),
            issuer: Name::ca("Prop CA", &issuer_cn),
            validity: Validity { not_before: nb, not_after: nb + lifetime },
            subject: Name::common_name(&cn),
            public_key: kp.public().clone(),
            extensions,
        };
        let sig = kp.sign(&tbs.to_der());
        let cert = Certificate::assemble(tbs, sig);
        let der = cert.to_der();
        let back = Certificate::from_der(&der).unwrap();
        prop_assert_eq!(&back, &cert);
        prop_assert!(back.verify_signature(kp.public()));
        prop_assert_eq!(back.has_must_staple(), must_staple);
        prop_assert_eq!(back.is_ca(), ca);
        prop_assert_eq!(back.serial(), &serial);
        prop_assert_eq!(back.dns_names(), sans);
        prop_assert_eq!(back.ocsp_urls().len(), ocsp_urls.len());
        // Re-encode is byte-identical (DER canonicality end to end).
        prop_assert_eq!(back.to_der(), der);
    }

    #[test]
    fn certificate_decoder_survives_mutation(
        cn in dns_label(),
        idx_frac in 0.0f64..1.0,
        xor in 1u8..=255,
    ) {
        let kp = keypair();
        let tbs = TbsCertificate {
            serial: Serial::from_u64(77),
            issuer: Name::ca("Mut CA", "Mut Root"),
            validity: Validity {
                not_before: Time::from_civil(2018, 1, 1, 0, 0, 0),
                not_after: Time::from_civil(2019, 1, 1, 0, 0, 0),
            },
            subject: Name::common_name(&cn),
            public_key: kp.public().clone(),
            extensions: vec![TlsFeature::must_staple().to_extension()],
        };
        let sig = kp.sign(&tbs.to_der());
        let cert = Certificate::assemble(tbs, sig);
        let mut der = cert.to_der();
        let idx = ((der.len() - 1) as f64 * idx_frac) as usize;
        der[idx] ^= xor;
        // Mutated certificates either fail to parse or fail to verify;
        // they never panic and never verify as authentic.
        if let Ok(parsed) = Certificate::from_der(&der) {
            prop_assert!(
                !parsed.verify_signature(kp.public()) || parsed == cert,
                "mutation at {idx} xor {xor:#x} forged a signature"
            );
        }
    }

    #[test]
    fn crl_decoder_survives_mutation(
        entries in proptest::collection::vec((arb_serial(), arb_time(), any::<bool>()), 0..6),
        this_update in arb_time(),
        xor in 1u8..=255,
    ) {
        let kp = keypair();
        let mut seen = std::collections::HashSet::new();
        let entries: Vec<RevokedEntry> = entries
            .into_iter()
            .filter(|(s, _, _)| seen.insert(s.clone()))
            .map(|(serial, revocation_time, has_reason)| RevokedEntry {
                serial,
                revocation_time,
                reason: has_reason.then_some(RevocationReason::KeyCompromise),
            })
            .collect();
        let next_update = Some(this_update + 7 * 86_400);
        let crl = Crl::build(Name::ca("Mut CA", "Mut Root"), this_update, next_update, entries, &kp);
        let der = crl.to_der();
        // Edited or cut CRLs either fail to parse or fail to verify;
        // they never panic and never verify as authentic.
        let forged = |bytes: &[u8]| {
            Crl::from_der(bytes).is_ok_and(|parsed| parsed.verify_signature(kp.public()) && parsed != crl)
        };
        for idx in 0..der.len() {
            let mut edited = der.clone();
            edited[idx] ^= xor;
            prop_assert!(!forged(&edited), "edit at {idx} xor {xor:#x} forged a CRL");
        }
        for len in 0..der.len() {
            prop_assert!(!forged(&der[..len]), "truncation to {len} bytes forged a CRL");
        }
    }

    #[test]
    fn crl_round_trips(
        entries in proptest::collection::vec(
            (arb_serial(), arb_time(), proptest::option::of(0usize..10)),
            0..40
        ),
        this_update in arb_time(),
        has_next in any::<bool>(),
    ) {
        let kp = keypair();
        let reasons = [
            RevocationReason::Unspecified,
            RevocationReason::KeyCompromise,
            RevocationReason::CaCompromise,
            RevocationReason::AffiliationChanged,
            RevocationReason::Superseded,
            RevocationReason::CessationOfOperation,
            RevocationReason::CertificateHold,
            RevocationReason::RemoveFromCrl,
            RevocationReason::PrivilegeWithdrawn,
            RevocationReason::AaCompromise,
        ];
        // Dedup serials: a CRL keys on them.
        let mut seen = std::collections::HashSet::new();
        let entries: Vec<RevokedEntry> = entries
            .into_iter()
            .filter(|(s, _, _)| seen.insert(s.clone()))
            .map(|(serial, revocation_time, reason_idx)| RevokedEntry {
                serial,
                revocation_time,
                reason: reason_idx.map(|i| reasons[i]),
            })
            .collect();
        let next_update = has_next.then(|| this_update + 7 * 86_400);
        let crl = Crl::build(Name::ca("Prop CA", "Prop Root"), this_update, next_update, entries.clone(), &kp);
        let back = Crl::from_der(&crl.to_der()).unwrap();
        prop_assert_eq!(&back, &crl);
        prop_assert!(back.verify_signature(kp.public()));
        for entry in &entries {
            let found = back.find(&entry.serial).unwrap();
            prop_assert_eq!(found.revocation_time, entry.revocation_time);
            prop_assert_eq!(found.reason, entry.reason);
        }
        prop_assert_eq!(back.next_update(), next_update);
    }

    #[test]
    fn names_round_trip(cn in "\\PC{1,40}", org in "\\PC{1,40}") {
        let name = Name::ca(&org, &cn);
        let der = name.to_der();
        let mut dec = asn1::Decoder::new(&der);
        let back = Name::decode(&mut dec).unwrap();
        prop_assert_eq!(back, name);
    }
}
