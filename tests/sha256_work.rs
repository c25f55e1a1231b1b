//! SHA-256 and RSA work per campaign probe, pinned exactly.
//!
//! `simcrypto::sha256::blocks_compressed` counts compressions and
//! `simcrypto::bigint::modpow_calls` modular exponentiations on the
//! calling thread, and `Executor::serial()` runs every work unit inline,
//! so a one-day tiny campaign does the same hashing and signing on every
//! run and every host. A change that adds or removes hashing, signing or
//! verification on the probe path moves these counts; update the pins
//! along with the change that moved them.

use ecosystem::{EcosystemConfig, LiveEcosystem};
use netsim::Region;
use scanner::{Executor, HourlyCampaign};
use simcrypto::bigint::modpow_calls;
use simcrypto::sha256::blocks_compressed;

#[test]
fn campaign_sha256_compressions_are_pinned() {
    // The second day of the paper's campaign at tiny scale.
    let mut config = EcosystemConfig::tiny().with_parallelism(1);
    config.campaign_start = EcosystemConfig::figures().campaign_start + 86_400;
    config.campaign_end = config.campaign_start + 86_400;
    let eco = LiveEcosystem::generate(config);
    let probes =
        (eco.config.scan_rounds() * Region::VANTAGE_POINTS.len() * eco.scan_targets.len()) as u64;

    let (blocks_before, modpows_before) = (blocks_compressed(), modpow_calls());
    let dataset = HourlyCampaign::new(&eco).run_with(&Executor::serial());
    let blocks = blocks_compressed() - blocks_before;
    let modpows = modpow_calls() - modpows_before;

    assert_eq!(dataset.requests, probes);
    // 3.74 compressions per probe.
    assert_eq!((probes, blocks), (1_344, 5_028));
    // 140 CRT signatures (two half-exponentiations each) and 140
    // verifications.
    assert_eq!(modpows, 420);
}
