//! Microbenchmarks of the cryptographic substrate, including the
//! CRT-vs-plain signing ablation that justified the KeyPair layout, the
//! schoolbook-vs-Montgomery modexp comparison behind the scan hot path,
//! the one-shot vs keyed HMAC behind the latency PRF, and the
//! responder's signed-response cache (cold sign vs cached hit).

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use ocsp::{CertId, OcspRequest, Responder, ResponderProfile};
use pki::{CertificateAuthority, IssueParams};
use rand::{rngs::StdRng, Rng, SeedableRng};
use simcrypto::{hmac_sha256, sha256, BigUint, HmacSha256, KeyPair};

fn bench_sha256(c: &mut Criterion) {
    let mut group = c.benchmark_group("sha256");
    for size in [64usize, 1024, 16 * 1024] {
        let data = vec![0xabu8; size];
        group.bench_function(format!("{size}B"), |b| {
            b.iter(|| sha256(std::hint::black_box(&data)))
        });
    }
    group.finish();
}

/// The latency PRF's shape: an 8-byte seed key and a ~30-byte
/// (host, region, time) message. One-shot HMAC absorbs the key's two pad
/// blocks on every call (four compressions); the keyed form absorbed
/// them once and clones the midstates (two).
fn bench_hmac(c: &mut Criterion) {
    let key = 7u64.to_be_bytes();
    let msg = b"ocsp.responder-042.test\x03\x00\x00\x00\x00\x5a\xe7\xa0\x00";
    let keyed = HmacSha256::new(&key);
    let mut group = c.benchmark_group("hmac");
    group.bench_function("oneshot", |b| {
        b.iter(|| hmac_sha256(&key, std::hint::black_box(msg)))
    });
    group.bench_function("keyed", |b| b.iter(|| keyed.mac(std::hint::black_box(msg))));
    group.finish();
}

/// Signing and verifying cycle through 256 distinct messages, as the
/// workloads do: a responder signs a different `ResponseData` every
/// time. Timed on one fixed message, every iteration takes the same
/// branches through the whole exponentiation, and the branch predictor
/// learns them, so the bench would time a best case that no workload
/// sees, and a change that takes data-dependent branches out of the
/// kernel would read as a regression.
fn bench_rsa(c: &mut Criterion) {
    let mut group = c.benchmark_group("rsa");
    let msgs: Vec<Vec<u8>> = (0..256)
        .map(|i| format!("a typical ocsp response data blob {i:03}").into_bytes())
        .collect();
    for bits in [384usize, 512, 768] {
        let kp = KeyPair::generate(&mut StdRng::seed_from_u64(1), bits);
        let sigs: Vec<Vec<u8>> = msgs.iter().map(|msg| kp.sign(msg)).collect();
        let (count, mut last) = (msgs.len(), 0);
        let mut pick = move || {
            last = (last + 1) % count;
            last
        };
        group.bench_function(format!("sign-crt-{bits}"), |b| {
            b.iter(|| kp.sign(std::hint::black_box(&msgs[pick()])))
        });
        group.bench_function(format!("sign-plain-{bits}"), |b| {
            b.iter(|| kp.sign_without_crt(std::hint::black_box(&msgs[pick()])))
        });
        group.bench_function(format!("verify-{bits}"), |b| {
            b.iter(|| {
                let i = pick();
                kp.public()
                    .verify(std::hint::black_box(&msgs[i]), &sigs[i])
                    .unwrap()
            })
        });
    }
    group.bench_function("keygen-384", |b| {
        let mut seed = 0u64;
        b.iter_batched(
            || {
                seed += 1;
                StdRng::seed_from_u64(seed)
            },
            |mut rng| KeyPair::generate(&mut rng, 384),
            BatchSize::SmallInput,
        )
    });
    group.finish();
}

/// The modexp ablation behind the scan hot path: LSB-first schoolbook
/// square-and-multiply vs the Montgomery (CIOS) kernel. Every RSA
/// sign/verify in the study funnels through `modpow`. Each shape cycles
/// through 256 bases, for the reason `bench_rsa` cycles its messages.
fn bench_modexp(c: &mut Criterion) {
    let rand_int = |rng: &mut StdRng, bytes: usize| {
        let mut buf = vec![0u8; bytes];
        rng.fill(&mut buf[..]);
        BigUint::from_be_bytes(&buf)
    };
    let odd_modulus = |rng: &mut StdRng, bytes: usize| {
        let mut m_bytes = vec![0u8; bytes];
        rng.fill(&mut m_bytes[..]);
        m_bytes[0] |= 0x80; // full width
        m_bytes[bytes - 1] |= 0x01; // odd: the Montgomery-eligible case
        BigUint::from_be_bytes(&m_bytes)
    };
    // (name, seed, modulus bytes, base bytes, fixed exponent): three
    // full-width shapes with drawn exponents, then the two the study
    // runs, one CRT half of a 384-bit signature and a 384-bit verify.
    // Bases as wide as the modulus are drawn below it; a CRT half takes
    // the whole 48-byte encoded message unreduced, as signing does.
    let shapes = [
        ("384", 0xE0D * 384, 48, 48, None),
        ("512", 0xE0D * 512, 64, 64, None),
        ("768", 0xE0D * 768, 96, 96, None),
        ("crt-half-192", 0xC27, 24, 48, None),
        ("e65537-384", 0x10001, 48, 48, Some(65537)),
    ];
    let mut group = c.benchmark_group("modexp");
    for (name, seed, bytes, base_bytes, exp) in shapes {
        let mut rng = StdRng::seed_from_u64(seed);
        let exp = exp.map_or_else(|| rand_int(&mut rng, bytes), BigUint::from_u64);
        let m = odd_modulus(&mut rng, bytes);
        let bases: Vec<BigUint> = (0..256)
            .map(|_| match rand_int(&mut rng, base_bytes) {
                base if base_bytes > bytes => base,
                base => base.div_rem(&m).1,
            })
            .collect();
        let mut last = 0;
        let mut pick = move || {
            last = (last + 1) % 256;
            last
        };
        group.bench_function(format!("schoolbook-{name}"), |b| {
            b.iter(|| {
                std::hint::black_box(&bases[pick()])
                    .modpow_schoolbook(std::hint::black_box(&exp), &m)
            })
        });
        group.bench_function(format!("montgomery-{name}"), |b| {
            b.iter(|| std::hint::black_box(&bases[pick()]).modpow(std::hint::black_box(&exp), &m))
        });
    }
    group.finish();
}

/// The responder's signed-response cache: a cold `handle_with` pays a
/// full RSA sign; a warm one serves cached DER. The gap is the per-probe
/// saving the hourly campaign collects on every repeat probe of a
/// (serial, window).
fn bench_responder_cache(c: &mut Criterion) {
    let mut rng = StdRng::seed_from_u64(0x0C5);
    let now = asn1::Time::from_civil(2018, 5, 1, 10, 30, 0);
    let mut ca = CertificateAuthority::new_root(&mut rng, "CA", "Root", "ca.test", now);
    let leaf = ca.issue(&mut rng, &IssueParams::new("site.example", now));
    let id = CertId::for_certificate(&leaf, ca.certificate());
    let req = OcspRequest::single(id);
    let profile = ResponderProfile::healthy()
        .pre_generated(7_200)
        .validity(7_200);
    let mut reg = telemetry::Registry::new();

    let mut group = c.benchmark_group("responder");
    group.bench_function("handle-cold", |b| {
        b.iter_batched(
            || Responder::new("http://ocsp.ca.test/", profile.clone()),
            |mut responder| responder.handle_with(&ca, &req, now, &mut reg),
            BatchSize::SmallInput,
        )
    });
    group.bench_function("handle-cache-hit", |b| {
        let mut responder = Responder::new("http://ocsp.ca.test/", profile.clone());
        responder.handle_with(&ca, &req, now, &mut reg); // prime the window
        b.iter(|| responder.handle_with(&ca, &req, now, &mut reg))
    });
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(20);
    targets = bench_sha256, bench_hmac, bench_rsa, bench_modexp, bench_responder_cache
}
criterion_main!(benches);
