//! The live ecosystem: real CAs, real responders, a wired `World`.
//!
//! This is what the scanning experiments (§5) run against. Generation:
//!
//! 1. stand up the named operators plus anonymous fillers until the
//!    configured responder count is reached, each with a CA (real keys)
//!    and one or more responder hostnames;
//! 2. draw each filler responder's quality profile from the calibrated
//!    marginals (validity, margins, pre-generation, superfluous
//!    certs/serials, persistent malformation);
//! 3. issue scan-target certificates per responder (the Hourly
//!    population) and the revoked pool (the consistency study);
//! 4. script the §5.2 outage calendar — the named episodes plus random
//!    transient outages at the calibrated 36.8 % incidence;
//! 5. wire everything into a [`netsim::World`].

use crate::authorities::{named_operators, ConsistencyFault, OperatorSpec, OutageScript};
use crate::calibration as cal;
use crate::config::EcosystemConfig;
use asn1::Time;
use netsim::outage::RegionScope;
use netsim::{FailureKind, HandlerFactory, Outage, Region, Topology, World};
use ocsp::{CertId, MalformMode, Responder, ResponderProfile};
use pki::{Certificate, CertificateAuthority, IssueParams, RevocationReason, RootStore, Serial};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::Arc;

/// One responder hostname and its behavior.
#[derive(Debug, Clone)]
pub struct ResponderHost {
    /// DNS name, e.g. `ocsp3.comodoca.test`.
    pub hostname: String,
    /// Full URL as it appears in AIA extensions.
    pub url: String,
    /// Index into [`LiveEcosystem::operators`].
    pub operator: usize,
    /// Quality profile.
    pub profile: ResponderProfile,
    /// Hosting region.
    pub region: Region,
    /// Infrastructure group (correlated failures).
    pub infra_group: Option<String>,
}

/// One operator stood up with real key material.
pub struct LiveOperator {
    /// Display name.
    pub name: String,
    /// The CA (keys, issuance, revocation DBs).
    pub ca: CertificateAuthority,
    /// Which scripted episode, if any.
    pub outage: OutageScript,
    /// CRL↔OCSP fault.
    pub consistency: ConsistencyFault,
    /// The operator's CRL hostname.
    pub crl_host: String,
    /// Whether issued certificates carry CRL DPs.
    pub supports_crl: bool,
    /// Share of the certificate market (drives how many Alexa domains
    /// depend on this operator's responders).
    pub market_share: f64,
}

/// One certificate tracked by the Hourly scan.
#[derive(Debug, Clone)]
pub struct ScanTarget {
    /// The certificate.
    pub cert: Certificate,
    /// Its OCSP CertID.
    pub cert_id: CertId,
    /// Issuing operator index.
    pub operator: usize,
    /// Index into [`LiveEcosystem::responders`].
    pub responder: usize,
    /// The responder URL to query.
    pub url: String,
}

/// One revoked certificate in the consistency-study pool.
#[derive(Debug, Clone)]
pub struct RevokedTarget {
    /// Serial number.
    pub serial: Serial,
    /// OCSP CertID.
    pub cert_id: CertId,
    /// Issuing operator index.
    pub operator: usize,
    /// Responder URL.
    pub url: String,
    /// CRL URL.
    pub crl_url: String,
}

/// The full live ecosystem.
pub struct LiveEcosystem {
    /// Generation configuration.
    pub config: EcosystemConfig,
    /// All operators.
    pub operators: Vec<LiveOperator>,
    /// All responder hosts, flattened.
    pub responders: Vec<ResponderHost>,
    /// The Hourly-scan population.
    pub scan_targets: Vec<ScanTarget>,
    /// The consistency-study pool (revoked, unexpired).
    pub revoked: Vec<RevokedTarget>,
    /// Root store trusting every operator.
    pub root_store: RootStore,
}

impl LiveEcosystem {
    /// Generate the ecosystem.
    pub fn generate(config: EcosystemConfig) -> LiveEcosystem {
        let mut rng = StdRng::seed_from_u64(config.seed ^ 0x11FE);
        let t0 = config.campaign_start;
        let specs = named_operators();

        let mut operators = Vec::new();
        let mut responders: Vec<ResponderHost> = Vec::new();
        let mut root_store = RootStore::new("union(Apple, Microsoft, NSS)");

        // Named operators first, trimmed to the responder budget.
        for spec in &specs {
            if responders.len() >= config.responders {
                break;
            }
            let idx = operators.len();
            let ca = CertificateAuthority::new_root(
                &mut rng,
                spec.name,
                &format!("{} Root CA", spec.name),
                spec.slug,
                t0 - 365 * 86_400,
            );
            root_store.add(ca.certificate().clone());
            let count = spec
                .responder_count
                .min(config.responders - responders.len());
            for r in 0..count {
                let hostname = if spec.responder_count == 1 {
                    format!("ocsp.{}", spec.slug)
                } else {
                    format!("ocsp{}.{}", r + 1, spec.slug)
                };
                responders.push(ResponderHost {
                    url: format!("http://{hostname}/"),
                    hostname,
                    operator: idx,
                    profile: profile_from_spec(spec, &mut rng),
                    region: spec.home_region,
                    infra_group: spec.infra_group.map(str::to_string),
                });
            }
            operators.push(LiveOperator {
                name: spec.name.to_string(),
                crl_host: format!("crl.{}", spec.slug),
                ca,
                outage: spec.outage,
                consistency: spec.consistency,
                supports_crl: spec.supports_crl,
                market_share: spec.market_share,
            });
        }

        // Filler operators until the responder budget is filled.
        let mut filler_idx = 0;
        let mut malformed_budget = scaled(cal::PERSISTENT_MALFORMED, config.responders);
        while responders.len() < config.responders {
            let idx = operators.len();
            let slug = format!("ca{filler_idx:03}.test");
            let name = format!("Other-{filler_idx:03}");
            let ca = CertificateAuthority::new_root(
                &mut rng,
                &name,
                &format!("{name} Root"),
                &slug,
                t0 - 365 * 86_400,
            );
            root_store.add(ca.certificate().clone());
            let hostname = format!("ocsp.{slug}");
            let mut profile = draw_filler_profile(&mut rng);
            if malformed_budget > 0 && rng.gen_bool(0.3) {
                profile = profile.malformed(if malformed_budget.is_multiple_of(2) {
                    MalformMode::LiteralZero
                } else {
                    MalformMode::JavascriptPage
                });
                malformed_budget -= 1;
            }
            responders.push(ResponderHost {
                url: format!("http://{hostname}/"),
                hostname,
                operator: idx,
                profile,
                region: [
                    Region::Oregon,
                    Region::Virginia,
                    Region::Paris,
                    Region::Seoul,
                ][rng.gen_range(0..4usize)],
                infra_group: None,
            });
            operators.push(LiveOperator {
                name,
                crl_host: format!("crl.{slug}"),
                ca,
                outage: OutageScript::None,
                consistency: ConsistencyFault::None,
                supports_crl: true,
                market_share: 0.004,
            });
            filler_idx += 1;
        }

        // Scan targets: `certs_per_responder` certificates per responder.
        let mut scan_targets = Vec::new();
        for (r_idx, host) in responders.iter().enumerate() {
            let op = &mut operators[host.operator];
            for c in 0..config.certs_per_responder {
                let domain = format!("scan-{r_idx:03}-{c:02}.example");
                let params = IssueParams {
                    domain,
                    extra_dns_names: vec![],
                    validity: pki::Validity {
                        not_before: t0 - 30 * 86_400,
                        // ≥30 days of validity left at campaign end, per
                        // the paper's selection criterion (§5.1 step 1).
                        not_after: config.campaign_end + 60 * 86_400,
                    },
                    must_staple: false,
                    with_ocsp_url: true,
                    with_crl_url: op.supports_crl,
                };
                let cert = op.ca.issue(&mut rng, &params);
                let cert_id = CertId::for_certificate(&cert, op.ca.certificate());
                scan_targets.push(ScanTarget {
                    cert,
                    cert_id,
                    operator: host.operator,
                    responder: r_idx,
                    url: host.url.clone(),
                });
            }
        }

        // The revoked pool, spread across CRL-supporting operators.
        let mut revoked = Vec::new();
        let mut crl_only_used = vec![0usize; operators.len()];
        let crl_ops: Vec<usize> = operators
            .iter()
            .enumerate()
            .filter(|(_, o)| o.supports_crl)
            .map(|(i, _)| i)
            .collect();
        for i in 0..config.revoked_pool {
            let op_idx = crl_ops[i % crl_ops.len()];
            let url = responders
                .iter()
                .find(|r| r.operator == op_idx)
                .map(|r| r.url.clone())
                .unwrap_or_default();
            let op = &mut operators[op_idx];
            let domain = format!("revoked-{i:05}.example");
            let params = IssueParams {
                domain,
                extra_dns_names: vec![],
                validity: pki::Validity {
                    not_before: t0 - 180 * 86_400,
                    not_after: config.campaign_end + 180 * 86_400,
                },
                must_staple: false,
                with_ocsp_url: true,
                with_crl_url: true,
            };
            let cert = op.ca.issue(&mut rng, &params);
            let serial = cert.serial().clone();
            let revoked_at = t0 - rng.gen_range(1i64..150) * 86_400;
            apply_revocation(
                &mut rng,
                op,
                &serial,
                revoked_at,
                &mut crl_only_used[op_idx],
            );
            revoked.push(RevokedTarget {
                cert_id: CertId::for_certificate(&cert, op.ca.certificate()),
                serial,
                operator: op_idx,
                url,
                crl_url: format!("http://{}/latest.crl", op.crl_host),
            });
        }

        LiveEcosystem {
            config,
            operators,
            responders,
            scan_targets,
            revoked,
            root_store,
        }
    }

    /// Wire the ecosystem into a shared, immutable [`Topology`]:
    /// responder handler factories, CRL handler factories, and the full
    /// outage calendar. Any number of [`World`]s — one per scan shard —
    /// can be built over the result; each instantiates its own handler
    /// (and thus its own responder caches) on first contact with a host.
    /// Handlers only read their operator's CA, so every world shares one
    /// copy of it.
    pub fn build_topology(&self) -> Arc<Topology> {
        let mut topo = Topology::new(self.config.seed ^ 0x0417);
        let t0 = self.config.campaign_start;
        let cas: Vec<Arc<CertificateAuthority>> = self
            .operators
            .iter()
            .map(|op| Arc::new(op.ca.clone()))
            .collect();

        for host in &self.responders {
            let op = &self.operators[host.operator];
            let ca = Arc::clone(&cas[host.operator]);
            let url = host.url.clone();
            // The sheca/postsignum "0"-body episodes are HTTP-200
            // garbage, not outages — handled inside the HTTP handler.
            let zero_windows = zero_body_windows(op.outage, t0);
            let healthy_profile = host.profile.clone();
            let factory: HandlerFactory = Box::new(move || {
                let ca = Arc::clone(&ca);
                let mut responder = Responder::new(&url, healthy_profile.clone());
                let healthy_profile = healthy_profile.clone();
                let zero_windows = zero_windows.clone();
                Box::new(
                    move |_path: &str,
                          body: &[u8],
                          now: Time,
                          _region: Region,
                          reg: &mut telemetry::Registry| {
                        let in_zero_episode = zero_windows
                            .iter()
                            .any(|&(start, end)| start <= now && now < end);
                        if in_zero_episode {
                            responder.set_profile(
                                healthy_profile.clone().malformed(MalformMode::LiteralZero),
                            );
                        } else if responder.profile().malform == MalformMode::LiteralZero
                            && healthy_profile.malform != MalformMode::LiteralZero
                        {
                            responder.set_profile(healthy_profile.clone());
                        }
                        (200, responder.handle_bytes_with(&ca, body, now, reg))
                    },
                )
            });
            topo.register(
                &host.hostname,
                host.region,
                host.infra_group.as_deref(),
                factory,
            );

            // Host-scoped pieces of the outage script.
            for outage in host_outages(op.outage, t0, self.config.campaign_end) {
                topo.add_outage(&host.hostname, outage);
            }
        }

        // CRL endpoints: one per operator, serving a freshly signed CRL.
        for (op, ca) in self.operators.iter().zip(cas) {
            let factory: HandlerFactory = Box::new(move || {
                let ca = Arc::clone(&ca);
                Box::new(
                    move |_path: &str,
                          _body: &[u8],
                          now: Time,
                          _r: Region,
                          _reg: &mut telemetry::Registry| {
                        // Weekly CRL windows.
                        let this_update =
                            Time::from_unix(now.unix() - now.unix().rem_euclid(7 * 86_400));
                        let crl = ca.generate_crl(this_update, Some(this_update + 7 * 86_400));
                        (200, crl.to_der().into())
                    },
                )
            });
            topo.register(&op.crl_host, Region::Virginia, None, factory);
        }

        // Group-scoped episodes.
        self.schedule_group_episodes(&mut topo, t0);

        // Random transient outages at the calibrated incidence.
        let mut rng = StdRng::seed_from_u64(self.config.seed ^ 0x007A6E);
        let campaign_secs = self.config.campaign_end - t0;
        for host in &self.responders {
            let op = &self.operators[host.operator];
            let scripted = op.outage != OutageScript::None;
            // Let's Encrypt's responder is CDN-fronted (Zhu et al.: 94 %
            // of OCSP requests hit CDN edges) — modeled as outage-free.
            // A random outage there would dwarf every scripted episode,
            // because a third of all domains ride on that one URL.
            let cdn_fronted = op.name == "Let's Encrypt";
            if scripted || cdn_fronted || !rng.gen_bool(cal::TRANSIENT_OUTAGE_FRACTION) {
                continue;
            }
            let episodes = rng.gen_range(1..=3);
            for _ in 0..episodes {
                let start = t0 + rng.gen_range(0..campaign_secs.max(1));
                let duration = rng.gen_range(1i64..=5) * 3_600;
                let kind = match rng.gen_range(0..4) {
                    0 => FailureKind::DnsNxDomain,
                    1 => FailureKind::TcpConnect,
                    2 => FailureKind::Http4xx,
                    _ => FailureKind::Http5xx,
                };
                let scope = if rng.gen_bool(0.5) {
                    RegionScope::All
                } else {
                    let n = rng.gen_range(1..=3);
                    let mut regions = Region::VANTAGE_POINTS.to_vec();
                    // Deterministic subset.
                    for i in (1..regions.len()).rev() {
                        regions.swap(i, rng.gen_range(0..=i));
                    }
                    regions.truncate(n);
                    RegionScope::Only(regions)
                };
                topo.add_outage(
                    &host.hostname,
                    Outage {
                        start,
                        end: Some(start + duration),
                        scope,
                        kind,
                    },
                );
            }
        }

        Arc::new(topo)
    }

    /// Wire the ecosystem into one fresh `World` over its own topology.
    pub fn build_world(&self) -> World {
        World::from_topology(self.build_topology())
    }

    fn schedule_group_episodes(&self, topo: &mut Topology, t0: Time) {
        // Comodo, Apr 25 19:00, 2 h, Oregon/Sydney/Seoul, whole group.
        topo.add_group_outage(
            "comodo-infra",
            Outage::regional(
                t0 + 19 * 3_600,
                2 * 3_600,
                vec![Region::Oregon, Region::Sydney, Region::Seoul],
                FailureKind::TcpConnect,
            ),
        );
        // wosign/startssl, Aug 3 22:00, 1 h, everywhere.
        topo.add_group_outage(
            "wosign-infra",
            Outage::transient(
                Time::from_civil(2018, 8, 3, 22, 0, 0),
                3_600,
                FailureKind::TcpConnect,
            ),
        );
        // Digicert, Aug 27 09:00, 5 h, Seoul only.
        topo.add_group_outage(
            "digicert-infra",
            Outage::regional(
                Time::from_civil(2018, 8, 27, 9, 0, 0),
                5 * 3_600,
                vec![Region::Seoul],
                FailureKind::TcpConnect,
            ),
        );
        // Certum, Aug 9 17:00, 2 h, Sydney only.
        topo.add_group_outage(
            "certum-infra",
            Outage::regional(
                Time::from_civil(2018, 8, 9, 17, 0, 0),
                2 * 3_600,
                vec![Region::Sydney],
                FailureKind::TcpConnect,
            ),
        );
    }

    /// Scan targets belonging to one responder.
    pub fn targets_of(&self, responder: usize) -> impl Iterator<Item = &ScanTarget> {
        self.scan_targets
            .iter()
            .filter(move |t| t.responder == responder)
    }

    /// The CA certificate of an operator.
    pub fn issuer_of(&self, operator: usize) -> &Certificate {
        self.operators[operator].ca.certificate()
    }

    /// How many Alexa domains depend on each responder, allocating
    /// `alexa_ocsp_domains` proportionally to operator market share and
    /// evenly across an operator's responders. Drives Figure 4's
    /// impact-of-outages analysis.
    pub fn alexa_domains_per_responder(&self, alexa_ocsp_domains: usize) -> Vec<usize> {
        let total_share: f64 = self.operators.iter().map(|o| o.market_share).sum();
        let mut weights = vec![0usize; self.responders.len()];
        for (idx, host) in self.responders.iter().enumerate() {
            let op = &self.operators[host.operator];
            let responders_of_op = self
                .responders
                .iter()
                .filter(|r| r.operator == host.operator)
                .count();
            let op_domains =
                (alexa_ocsp_domains as f64 * op.market_share / total_share).round() as usize;
            weights[idx] = op_domains / responders_of_op.max(1);
        }
        weights
    }
}

/// Scale a paper-sized count to the configured responder population.
fn scaled(paper_count: usize, responders: usize) -> usize {
    ((paper_count * responders) as f64 / cal::HOURLY_RESPONDERS as f64).round() as usize
}

/// Quality profile for a named operator's responder. Knobs the spec
/// leaves at their defaults are drawn from the §5 marginal distributions
/// — the paper's population statistics (17.2 % zero margin, 14.5 %
/// multi-cert, …) hold across *all* responders, named operators
/// included, not just the anonymous fillers.
fn profile_from_spec(spec: &OperatorSpec, rng: &mut StdRng) -> ResponderProfile {
    let defaults = OperatorSpec::base("", "", 1, Region::Virginia, 0.0);
    let drawn = draw_filler_profile(rng);
    let mut profile = ResponderProfile {
        validity_secs: if spec.validity_secs == defaults.validity_secs {
            drawn.validity_secs
        } else {
            spec.validity_secs
        },
        this_update_margin: if spec.this_update_margin == defaults.this_update_margin {
            drawn.this_update_margin
        } else {
            spec.this_update_margin
        },
        generation: match spec.pregen_interval {
            Some(interval) if Some(interval) == defaults.pregen_interval => drawn.generation,
            Some(interval) => ocsp::profile::GenerationMode::PreGenerated { interval },
            None => ocsp::profile::GenerationMode::OnDemand,
        },
        superfluous_certs: if spec.superfluous_certs == 0 {
            drawn.superfluous_certs
        } else {
            spec.superfluous_certs
        },
        extra_serials: if spec.extra_serials == 0 {
            drawn.extra_serials
        } else {
            spec.extra_serials
        },
        malform: MalformMode::Valid,
        wrong_serial: false,
        corrupt_signature: false,
        instance_skews: spec.instance_skews.to_vec(),
    };
    if profile.instance_skews.is_empty() {
        profile.instance_skews = vec![0];
    }
    // A backdating margin larger than the validity period would make
    // every response arrive already expired; cap it at half the window
    // (relevant when a spec pins a short validity, like CNNIC's 10800 s,
    // while the margin is drawn from the population marginal).
    if let Some(validity) = profile.validity_secs {
        if profile.this_update_margin > validity / 2 {
            profile.this_update_margin = validity / 2;
        }
    }
    profile
}

/// Draw a filler responder's quality profile from the §5 marginals.
fn draw_filler_profile(rng: &mut StdRng) -> ResponderProfile {
    let mut profile = ResponderProfile::healthy();

    // Validity period (Figure 8): blank 9.1 %, >1 month 2 %, else around
    // the one-week median (1–14 days).
    let v: f64 = rng.gen_range(0.0..1.0);
    if v < cal::BLANK_NEXT_UPDATE_FRACTION {
        profile.validity_secs = None;
    } else if v < cal::BLANK_NEXT_UPDATE_FRACTION + cal::MONTH_PLUS_VALIDITY_FRACTION {
        profile.validity_secs = Some(rng.gen_range(31 * 86_400..=cal::MAX_VALIDITY_SECS));
    } else {
        profile.validity_secs = Some(rng.gen_range(86_400..=14 * 86_400));
    }

    // thisUpdate margin (Figure 9): zero 17.2 %, future 3 %, else 1 m–1 d.
    let m: f64 = rng.gen_range(0.0..1.0);
    let zero_or_future = m < cal::ZERO_MARGIN_FRACTION + cal::FUTURE_THIS_UPDATE_FRACTION;
    profile.this_update_margin = if m < cal::ZERO_MARGIN_FRACTION {
        0
    } else if zero_or_future {
        -rng.gen_range(30i64..600)
    } else {
        rng.gen_range(60..86_400)
    };

    // Pre-generation (51.7 % of all responders), refresh 1–24 h. The
    // zero/future-margin responders above are necessarily on-demand — a
    // cached window always shows a positive observed margin (window age),
    // so Figure 9's zero-margin mass can only come from responders that
    // sign at fetch time. Concentrate the pre-generated mass on the rest,
    // scaled so the population marginal still comes out at 51.7 %.
    let pregen_given_nonzero = cal::PRE_GENERATED_FRACTION
        / (1.0 - cal::ZERO_MARGIN_FRACTION - cal::FUTURE_THIS_UPDATE_FRACTION);
    if !zero_or_future && rng.gen_bool(pregen_given_nonzero) {
        let interval = rng.gen_range(1i64..=24) * 3_600;
        profile = profile.pre_generated(interval);
    }

    // Superfluous certificates (Figure 6: 14.5 % send >1 cert).
    if rng.gen_bool(cal::MULTI_CERT_FRACTION) {
        profile.superfluous_certs = rng.gen_range(1..=4);
    }

    // Extra serials (Figure 7): 3.3 % send 20; another 1.5 % send 2–5.
    let s: f64 = rng.gen_range(0.0..1.0);
    if s < cal::TWENTY_SERIAL_FRACTION {
        profile.extra_serials = 19;
    } else if s < cal::MULTI_SERIAL_FRACTION {
        profile.extra_serials = rng.gen_range(1..=4);
    }

    profile
}

/// Per-host outage pieces of the named episodes.
fn host_outages(script: OutageScript, t0: Time, end: Time) -> Vec<Outage> {
    match script {
        OutageScript::IdentrustAlwaysDead => vec![Outage::persistent(
            t0 - 86_400,
            RegionScope::All,
            FailureKind::DnsNxDomain,
        )],
        OutageScript::DigitalCertValidationSaoPaulo => {
            // Persistent São Paulo 404s, fixed 23:00 Aug 31.
            let fixed_at = Time::from_civil(2018, 8, 31, 23, 0, 0);
            vec![Outage {
                start: t0 - 86_400,
                end: Some(fixed_at),
                scope: RegionScope::Only(vec![Region::SaoPaulo]),
                kind: FailureKind::Http4xx,
            }]
        }
        OutageScript::WayportGradualDeath => {
            // Fades over the first month: day k suffers a k-hour outage,
            // then stays down for good.
            let mut outages = Vec::new();
            for day in 0..30 {
                let start = t0 + day * 86_400;
                outages.push(Outage::transient(
                    start,
                    (day * 3_600).min(86_400 - 1),
                    FailureKind::TcpConnect,
                ));
            }
            outages.push(Outage::persistent(
                t0 + 30 * 86_400,
                RegionScope::All,
                FailureKind::TcpConnect,
            ));
            let _ = end;
            outages
        }
        _ => Vec::new(),
    }
}

/// Windows during which an operator's responders return the body `"0"`.
fn zero_body_windows(script: OutageScript, t0: Time) -> Vec<(Time, Time)> {
    match script {
        OutageScript::ShecaZeroEpisodes => vec![
            // Apr 29, 6 hours (the Figure 5 spike).
            {
                let start = Time::from_civil(2018, 4, 29, 8, 0, 0);
                (start, start + 6 * 3_600)
            },
            // Jul 28 17:00, 3 hours.
            {
                let start = Time::from_civil(2018, 7, 28, 17, 0, 0);
                (start, start + 3 * 3_600)
            },
        ],
        OutageScript::PostsignumZero => {
            // From May 1 on, with a 17-hour recovery on May 12 09:00.
            let start = Time::from_civil(2018, 5, 1, 0, 0, 0);
            let recover = Time::from_civil(2018, 5, 12, 9, 0, 0);
            let relapse = recover + 17 * 3_600;
            let far_future = t0 + 10 * 365 * 86_400;
            vec![(start, recover), (relapse, far_future)]
        }
        _ => Vec::new(),
    }
}

/// Apply one revocation with the operator's consistency fault and the
/// background reason/time drift of §5.4. `crl_only_used` tracks how many
/// of a `GoodForSome` operator's revocations have been diverted to the
/// CRL-only path.
fn apply_revocation(
    rng: &mut StdRng,
    op: &mut LiveOperator,
    serial: &Serial,
    revoked_at: Time,
    crl_only_used: &mut usize,
) {
    use pki::ca::RevocationRecord;

    // Reason placement: most revocations carry no reason anywhere; 15 %
    // have one in the CRL only (the 99.99 % discrepancy shape of §5.4);
    // the rest carry it in both views.
    let reason_draw: f64 = rng.gen_range(0.0..1.0);
    let (crl_reason, ocsp_reason) = if reason_draw < 0.60 {
        (None, None)
    } else if reason_draw < 0.60 + cal::REASON_DIFF_FRACTION {
        (Some(RevocationReason::CessationOfOperation), None)
    } else {
        (
            Some(RevocationReason::KeyCompromise),
            Some(RevocationReason::KeyCompromise),
        )
    };

    // Revocation-time drift.
    let ocsp_time = match op.consistency {
        ConsistencyFault::OcspLag { min, max } => revoked_at + rng.gen_range(min..=max),
        _ if rng.gen_bool(cal::REVTIME_DIFF_FRACTION) => {
            // Background drift for otherwise healthy operators: 14.7 %
            // negative (OCSP earlier), the rest a log-uniform positive
            // tail out to the Figure 10 maximum of ~137 M seconds.
            if rng.gen_bool(cal::REVTIME_NEGATIVE_FRACTION) {
                revoked_at - rng.gen_range(60i64..43_200)
            } else {
                let exp: f64 = rng.gen_range(2.0..(cal::REVTIME_TAIL_SECS as f64).log10());
                revoked_at + 10f64.powf(exp) as i64
            }
        }
        _ => revoked_at,
    };

    let crl_record = RevocationRecord {
        time: revoked_at,
        reason: crl_reason,
    };
    let ocsp_record = RevocationRecord {
        time: ocsp_time,
        reason: ocsp_reason,
    };

    match op.consistency {
        ConsistencyFault::GoodForSome { count } if *crl_only_used < count => {
            *crl_only_used += 1;
            op.ca.revoke_detailed(serial, Some(crl_record), None);
        }
        ConsistencyFault::UnknownForAll => {
            op.ca.revoke_detailed(serial, Some(crl_record), None);
            op.ca.mark_ocsp_unknown(serial);
        }
        _ => {
            op.ca
                .revoke_detailed(serial, Some(crl_record), Some(ocsp_record));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use netsim::HttpOutcome;
    use ocsp::OcspRequest;

    fn eco() -> LiveEcosystem {
        LiveEcosystem::generate(EcosystemConfig::tiny())
    }

    #[test]
    fn generation_meets_config() {
        let e = eco();
        assert_eq!(e.responders.len(), e.config.responders);
        assert_eq!(
            e.scan_targets.len(),
            e.config.responders * e.config.certs_per_responder
        );
        assert_eq!(e.revoked.len(), e.config.revoked_pool);
        assert!(e.root_store.len() >= e.operators.len());
    }

    #[test]
    fn scan_targets_verify_against_their_ca() {
        let e = eco();
        for target in e.scan_targets.iter().take(5) {
            let issuer = e.issuer_of(target.operator);
            assert!(target.cert.verify_signature(issuer.public_key()));
            assert_eq!(
                target.cert.ocsp_urls(),
                vec![e.operators[target.operator].ca.ocsp_url().to_string()]
            );
        }
    }

    #[test]
    fn world_answers_ocsp_queries() {
        let e = eco();
        let mut world = e.build_world();
        let t = e.config.campaign_start + 3 * 3_600;
        let target = &e.scan_targets[0];
        let req = OcspRequest::single(target.cert_id.clone()).to_der();
        let result = world.http_post(Region::Virginia, &target.url, &req, t);
        match result.outcome {
            HttpOutcome::Ok(body) => {
                let issuer = e.issuer_of(target.operator);
                let validated =
                    ocsp::validate_response(&body, &target.cert_id, issuer, t, Default::default());
                // Healthy or profiled-faulty are both possible; what must
                // hold is that *parse + validate* runs and classifies.
                let _ = validated;
            }
            other => {
                // Outage-scripted hosts may legitimately fail.
                let _ = other;
            }
        }
    }

    #[test]
    fn crl_endpoints_serve_signed_crls() {
        let e = eco();
        let mut world = e.build_world();
        let t = e.config.campaign_start + 3_600;
        let rv = &e.revoked[0];
        let result = world.http_post(Region::Paris, &rv.crl_url, b"", t);
        let HttpOutcome::Ok(body) = result.outcome else {
            panic!("CRL fetch failed: {:?}", result.outcome)
        };
        let crl = pki::Crl::from_der(&body).unwrap();
        let issuer = e.issuer_of(rv.operator);
        assert!(crl.verify_signature(issuer.public_key()));
        assert!(crl.is_revoked(&rv.serial));
    }

    #[test]
    fn consistency_faults_present_at_scale() {
        // Use a slightly larger pool so the named faulty operators receive
        // certificates.
        let mut config = EcosystemConfig::tiny();
        config.responders = 92; // include all named operators
        config.revoked_pool = 200;
        let e = LiveEcosystem::generate(config);
        // At least one revoked target must diverge between views.
        let mut divergent = 0;
        for rv in &e.revoked {
            let op = &e.operators[rv.operator];
            let crl = op.ca.crl_revocation(&rv.serial);
            let ocsp_rec = op.ca.ocsp_revocation(&rv.serial);
            match (crl, ocsp_rec) {
                (Some(c), Some(o)) if c.time != o.time => divergent += 1,
                (Some(_), None) => divergent += 1,
                _ => {}
            }
        }
        assert!(divergent > 0, "expected some CRL/OCSP divergence");
    }

    #[test]
    fn deterministic_generation() {
        let a = LiveEcosystem::generate(EcosystemConfig::tiny());
        let b = LiveEcosystem::generate(EcosystemConfig::tiny());
        assert_eq!(a.responders.len(), b.responders.len());
        for (x, y) in a.scan_targets.iter().zip(&b.scan_targets) {
            assert_eq!(x.cert.serial(), y.cert.serial());
        }
    }

    #[test]
    fn identrust_hosts_never_answer() {
        let mut config = EcosystemConfig::tiny();
        config.responders = 80; // enough to include every named operator
        let e = LiveEcosystem::generate(config);
        let mut world = e.build_world();
        let dead: Vec<_> = e
            .responders
            .iter()
            .filter(|r| e.operators[r.operator].name == "IdenTrust")
            .collect();
        assert_eq!(dead.len(), 2);
        for host in dead {
            for &region in &Region::VANTAGE_POINTS {
                let r = world.http_post(
                    region,
                    &host.url,
                    b"",
                    e.config.campaign_start + 50 * 86_400,
                );
                assert_eq!(r.outcome, HttpOutcome::DnsFailure, "{}", host.hostname);
            }
        }
    }
}
