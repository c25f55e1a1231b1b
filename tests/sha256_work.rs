//! SHA-256 work per campaign probe, pinned exactly.
//!
//! `simcrypto::sha256::blocks_compressed` counts compressions on the
//! calling thread, and `Executor::serial()` runs every work unit inline,
//! so a one-day tiny campaign does the same hashing on every run and
//! every host. A change that adds or removes hashing on the probe path
//! moves this count; update the pin along with the change that moved it.

use ecosystem::{EcosystemConfig, LiveEcosystem};
use netsim::Region;
use scanner::{Executor, HourlyCampaign};
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

    let before = blocks_compressed();
    let dataset = HourlyCampaign::new(&eco).run_with(&Executor::serial());
    let blocks = blocks_compressed() - before;

    assert_eq!(dataset.requests, probes);
    // 3.79 compressions per probe.
    assert_eq!((probes, blocks), (1_344, 5_100));
}
