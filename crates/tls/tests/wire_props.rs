//! Property tests for the handshake wire formats: every decoder returns
//! a message or a typed [`WireError`] on any input and never panics.
//! Inputs are arbitrary bytes, single-byte edits of valid messages and
//! every truncation of them. Valid messages round-trip, and every
//! proper prefix of one is refused.

use asn1::Time;
use mustaple_tls::wire::{
    msg_type, CertificateMsg, CertificateStatusMsg, CertificateStatusV2Msg, ClientHello,
};
use pki::{Certificate, CertificateAuthority, IssueParams};
use proptest::prelude::*;
use rand::{rngs::StdRng, SeedableRng};
use std::cell::OnceCell;

thread_local! {
    static CERTS: OnceCell<Vec<Certificate>> = const { OnceCell::new() };
}

/// A root, an intermediate, and two leaves to draw chains from.
fn with_certs<R>(f: impl FnOnce(&[Certificate]) -> R) -> R {
    CERTS.with(|cell| {
        f(cell.get_or_init(|| {
            let now = Time::from_civil(2018, 5, 1, 0, 0, 0);
            let mut rng = StdRng::seed_from_u64(0x71A5);
            let mut root = CertificateAuthority::new_root(&mut rng, "R", "Root", "r.test", now);
            let mut sub = root.issue_intermediate(&mut rng, "S", "Sub", "s.test", now);
            let leaves = [
                sub.issue(&mut rng, &IssueParams::new("a.example", now)),
                root.issue(
                    &mut rng,
                    &IssueParams::new("b.example", now).must_staple(true),
                ),
            ];
            let mut certs = leaves.to_vec();
            certs.push(sub.certificate().clone());
            certs.push(root.certificate().clone());
            certs
        }))
    })
}

/// Run every decoder on `bytes`; none may panic. Returns how many
/// accepted it.
fn decode_all(bytes: &[u8]) -> usize {
    [
        ClientHello::decode(bytes).is_ok(),
        CertificateMsg::decode(bytes).is_ok(),
        CertificateStatusMsg::decode(bytes).is_ok(),
        CertificateStatusV2Msg::decode(bytes).is_ok(),
    ]
    .into_iter()
    .filter(|&ok| ok)
    .count()
}

/// Every decoder on one edit of every byte of `wire`; no decoder on
/// any proper prefix of it.
fn edits_and_truncations(wire: &[u8], xor: u8) -> Result<(), TestCaseError> {
    let mut edited = wire.to_vec();
    for i in 0..wire.len() {
        edited[i] ^= xor;
        decode_all(&edited);
        edited[i] ^= xor;
    }
    for cut in 0..wire.len() {
        prop_assert_eq!(decode_all(&wire[..cut]), 0, "{}-byte prefix", cut);
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn arbitrary_bytes_never_panic(
        ty in prop_oneof![
            Just(msg_type::CLIENT_HELLO),
            Just(msg_type::CERTIFICATE),
            Just(msg_type::CERTIFICATE_STATUS),
            any::<u8>(),
        ],
        body in proptest::collection::vec(any::<u8>(), 0..256),
    ) {
        decode_all(&body);
        // Behind a consistent frame header, the garbage reaches the
        // message bodies' parsers.
        let len = body.len();
        let mut framed = vec![ty, (len >> 16) as u8, (len >> 8) as u8, len as u8];
        framed.extend_from_slice(&body);
        decode_all(&framed);
    }

    #[test]
    fn client_hellos_round_trip_and_survive_edits(
        server_name in "[a-z0-9.-]{0,40}",
        status_request in any::<bool>(),
        status_request_v2 in any::<bool>(),
        xor in 1u8..=255,
    ) {
        let hello = ClientHello { server_name, status_request, status_request_v2 };
        let wire = hello.encode();
        prop_assert_eq!(ClientHello::decode(&wire), Ok(hello));
        edits_and_truncations(&wire, xor)?;
    }

    #[test]
    fn certificate_msgs_round_trip_and_survive_edits(
        picks in proptest::collection::vec(0usize..4, 0..4),
        xor in 1u8..=255,
    ) {
        let msg = with_certs(|certs| CertificateMsg {
            chain: picks.iter().map(|&i| certs[i].clone()).collect(),
        });
        let wire = msg.encode();
        prop_assert_eq!(CertificateMsg::decode(&wire), Ok(msg));
        edits_and_truncations(&wire, xor)?;
    }

    #[test]
    fn certificate_status_msgs_round_trip_and_survive_edits(
        ocsp_response in proptest::collection::vec(any::<u8>(), 0..128),
        responses in proptest::collection::vec(
            proptest::option::of(proptest::collection::vec(any::<u8>(), 1..48)),
            0..4,
        ),
        xor in 1u8..=255,
    ) {
        let v1 = CertificateStatusMsg { ocsp_response };
        let wire = v1.encode();
        prop_assert_eq!(CertificateStatusMsg::decode(&wire), Ok(v1));
        edits_and_truncations(&wire, xor)?;

        let v2 = CertificateStatusV2Msg { responses };
        let wire = v2.encode();
        prop_assert_eq!(CertificateStatusV2Msg::decode(&wire), Ok(v2));
        edits_and_truncations(&wire, xor)?;
    }
}
