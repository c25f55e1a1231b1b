//! The workspace's declared crate DAG, checked against the manifests.
//!
//! [`CRATES`] names every package, its layer, and exactly the workspace
//! crates it depends on (normal or dev). A new edge is added here in
//! the same diff that justifies it. Normal edges point to a strictly
//! lower layer; dev edges may point anywhere, since test harness edges
//! such as asn1 → proptest point upward. Cargo itself rejects cycles,
//! and rustc rejects a `use` of an undeclared crate.
//!
//! The manifests are read as text: the workspace's own `Cargo.toml`
//! files use a small, regular subset of TOML.

use std::collections::{BTreeMap, BTreeSet};
use std::fs;
use std::path::Path;

/// `(crate, layer, dependencies)`. The crate is its directory under
/// `crates/`, or `study` for the umbrella package at the root.
#[rustfmt::skip]
const CRATES: &[(&str, u32, &[&str])] = &[
    // Layer 0: leaves.
    ("rand", 0, &[]),
    ("asn1", 0, &["proptest"]),
    ("memprof", 0, &[]),
    ("telemetry", 0, &["proptest"]),
    // Layer 1: primitives over the leaves.
    ("simcrypto", 1, &["rand", "proptest"]),
    ("proptest", 1, &["rand"]),
    ("opsmon", 1, &["asn1", "telemetry", "proptest"]),
    ("criterion", 1, &["telemetry"]),
    ("analysis", 1, &["asn1", "proptest"]),
    // Layers 2 and 3: the PKI and protocol stack.
    ("pki", 2, &["asn1", "simcrypto", "rand", "proptest"]),
    ("ocsp", 3, &["asn1", "simcrypto", "pki", "rand", "telemetry", "proptest"]),
    ("tls", 3, &["asn1", "pki", "rand", "proptest"]),
    // Layers 4 and 5: simulated infrastructure and its clients.
    ("netsim", 4, &["asn1", "telemetry", "simcrypto"]),
    ("ocspd", 4, &["asn1", "pki", "ocsp", "rand", "telemetry", "opsmon", "proptest"]),
    ("webserver", 4, &["asn1", "pki", "ocsp", "tls", "rand", "telemetry"]),
    ("browser", 5, &["asn1", "pki", "ocsp", "tls", "webserver"]),
    ("ecosystem", 5, &["asn1", "pki", "ocsp", "netsim", "rand", "telemetry"]),
    // Layers 6 and 7: the scan pipelines and the study facade.
    ("scanner", 6, &[
        "asn1", "pki", "ocsp", "netsim", "ecosystem", "analysis", "rand", "telemetry", "opsmon",
    ]),
    ("core", 7, &[
        "asn1", "simcrypto", "pki", "ocsp", "netsim", "tls", "webserver", "browser", "ecosystem",
        "scanner", "analysis", "telemetry", "opsmon",
    ]),
    // Layers 8 and 9: harnesses over everything.
    ("bench", 8, &[
        "core", "asn1", "simcrypto", "pki", "ocsp", "netsim", "tls", "webserver", "browser",
        "ecosystem", "scanner", "analysis", "telemetry", "rand", "memprof", "criterion",
    ]),
    ("study", 9, &[
        "core", "bench", "asn1", "simcrypto", "pki", "ocsp", "netsim", "tls", "webserver",
        "browser", "ecosystem", "scanner", "analysis", "telemetry", "rand", "proptest", "ocspd",
        "memprof",
    ]),
];

/// The packages whose own `[lints]` table relaxes `unsafe_code` to
/// "deny", for their reasoned unsafe sites. Every other package
/// inherits the workspace table.
const OWN_LINT_TABLE: &[&str] = &["simcrypto", "memprof"];

/// One manifest as `section → lines`, comments and blank lines dropped.
type Manifest = BTreeMap<String, Vec<String>>;

fn read_manifest(path: &Path) -> Manifest {
    let text = fs::read_to_string(path).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
    let mut out = Manifest::new();
    let mut section = String::new();
    for line in text.lines().map(str::trim) {
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        match line.strip_prefix('[').and_then(|l| l.strip_suffix(']')) {
            Some(name) => section = name.to_string(),
            None => out
                .entry(section.clone())
                .or_default()
                .push(line.to_string()),
        }
    }
    out
}

/// The key of a `key = …` or `key.workspace = true` line.
fn key(line: &str) -> &str {
    line.split(['=', '.']).next().unwrap_or(line).trim()
}

/// The directory a line's `path = "…"` entry points to.
fn path_target(line: &str) -> Option<String> {
    let path = line.split("path = \"").nth(1)?.split('"').next()?;
    Some(path.rsplit('/').next()?.to_string())
}

/// Every package's id and manifest: the root package as `study`, then
/// each `crates/*` member.
fn members() -> BTreeMap<String, Manifest> {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut out = BTreeMap::new();
    out.insert("study".to_string(), read_manifest(&root.join("Cargo.toml")));
    for entry in fs::read_dir(root.join("crates")).expect("crates/") {
        let entry = entry.expect("a crates/ entry");
        let name = entry.file_name().into_string().expect("a UTF-8 name");
        out.insert(name, read_manifest(&entry.path().join("Cargo.toml")));
    }
    out
}

#[test]
fn manifests_follow_the_declared_layering() {
    let members = members();
    let declared: BTreeMap<&str, (u32, &[&str])> = CRATES
        .iter()
        .map(|&(name, layer, deps)| (name, (layer, deps)))
        .collect();
    let mut problems = Vec::new();

    let member_names: BTreeSet<&str> = members.keys().map(String::as_str).collect();
    let table_names: BTreeSet<&str> = declared.keys().copied().collect();
    for name in member_names.symmetric_difference(&table_names) {
        problems.push(format!("{name}: not both a package and a table row"));
    }

    // `[workspace.dependencies]` alias → crate directory.
    let aliases: BTreeMap<&str, String> = members["study"]["workspace.dependencies"]
        .iter()
        .filter_map(|line| Some((key(line), path_target(line)?)))
        .collect();

    for (name, manifest) in &members {
        let Some(&(layer, allowed)) = declared.get(name.as_str()) else {
            continue;
        };
        let mut used = BTreeSet::new();
        for (section, lines) in manifest {
            if !section.ends_with("dependencies") || section == "workspace.dependencies" {
                continue;
            }
            let dev = section.ends_with("dev-dependencies");
            for line in lines {
                let key = key(line);
                let target = if line.contains("workspace = true") {
                    aliases.get(key).cloned()
                } else {
                    path_target(line)
                };
                let Some(target) = target else {
                    problems.push(format!("{name}: `{key}` is not a workspace path crate"));
                    continue;
                };
                if !allowed.contains(&target.as_str()) {
                    problems.push(format!("{name} → {target} is not a declared edge"));
                } else if !dev && declared.get(target.as_str()).is_none_or(|t| t.0 >= layer) {
                    problems.push(format!("{name} → {target} does not point down"));
                }
                used.insert(target);
            }
        }
        for dep in allowed.iter().filter(|d| !used.contains(**d)) {
            problems.push(format!("{name} → {dep} is in the table only"));
        }
    }
    assert!(problems.is_empty(), "layering:\n{}", problems.join("\n"));
}

#[test]
fn every_package_takes_the_workspace_lints() {
    let members = members();
    let workspace_clippy = &members["study"]["workspace.lints.clippy"];
    for (name, manifest) in &members {
        if OWN_LINT_TABLE.contains(&name.as_str()) {
            assert_eq!(
                manifest.get("lints.rust").map(Vec::as_slice),
                Some(&["unsafe_code = \"deny\"".to_string()][..]),
                "{name}: its own table relaxes only unsafe_code, to deny"
            );
            assert_eq!(
                manifest.get("lints.clippy"),
                Some(workspace_clippy),
                "{name}: its clippy rows must equal [workspace.lints.clippy]"
            );
        } else {
            assert_eq!(
                manifest.get("lints").map(Vec::as_slice),
                Some(&["workspace = true".to_string()][..]),
                "{name}: add `[lints] workspace = true`"
            );
        }
    }
}
