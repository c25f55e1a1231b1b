//! The layering pack: a declared crate DAG enforced against reality.
//!
//! [`Config::layering`](crate::Config) names every workspace crate, its
//! layer, and the exact set of crates it may depend on. This pass
//! checks three things against that declaration:
//!
//! 1. **Manifests** — every `[dependencies]`/`[dev-dependencies]` entry
//!    resolves to a workspace crate in the allowed set, normal edges
//!    point at strictly lower layers, and the realized normal-edge
//!    graph is acyclic (dev edges are exempt from the ordering — test
//!    harness edges legitimately point upward).
//! 2. **Sources** — every `use` of (or path reference to) a workspace
//!    crate is backed by a declared dependency, and dev-dependencies
//!    are not reached from non-test code.
//! 3. **Usage** — a declared dependency that no identifier in the crate
//!    references is dead weight (`unused-dep`), and a normal dependency
//!    referenced only from test code belongs in `[dev-dependencies]`.
//!
//! The pass also renders the realized graph as DOT (`--graph-dot`),
//! with layers as ranks and dev edges dashed.

use crate::config::{Config, CrateSpec};
use crate::manifest::{self, Dep, Manifest};
use crate::parse::FileModel;
use crate::report::{Finding, Rule, Severity};
use crate::suppress::Suppression;
use std::collections::{BTreeMap, BTreeSet};
use std::fs;
use std::path::Path;

/// One crate's manifest, located and parsed.
#[derive(Debug)]
pub struct CrateManifest {
    /// Crate id (directory name, or `study` for the root package).
    pub id: String,
    /// Manifest path relative to the root.
    pub rel_path: String,
    /// The parsed manifest.
    pub manifest: Manifest,
}

/// The workspace's manifests plus the root alias map.
#[derive(Debug, Default)]
pub struct WorkspaceManifests {
    /// Per-crate manifests, sorted by id.
    pub crates: Vec<CrateManifest>,
    /// Root `[workspace.dependencies]`: alias → (path, package).
    pub workspace_deps: BTreeMap<String, (Option<String>, Option<String>)>,
}

/// What [`load`] returns: the manifests, malformed-suppression
/// findings, and the suppression pool entries (file → suppressions) for
/// the engine.
pub type Loaded = (
    WorkspaceManifests,
    Vec<Finding>,
    Vec<(String, Vec<Suppression>)>,
);

/// Read the root manifest and every `crates/*/Cargo.toml` under `root`.
pub fn load(root: &Path) -> std::io::Result<Loaded> {
    let mut ws = WorkspaceManifests::default();
    let mut findings = Vec::new();
    let mut sups = Vec::new();

    let root_text = fs::read_to_string(root.join("Cargo.toml"))?;
    let (root_manifest, errs) = manifest::parse("Cargo.toml", &root_text);
    findings.extend(errs);
    ws.workspace_deps = root_manifest.workspace_deps.clone();
    if !root_manifest.suppressions.is_empty() {
        sups.push(("Cargo.toml".to_string(), root_manifest.suppressions.clone()));
    }
    // The root package, if the root manifest declares one.
    if root_manifest.package_name.is_some() || !root_manifest.deps.is_empty() {
        ws.crates.push(CrateManifest {
            id: "study".to_string(),
            rel_path: "Cargo.toml".to_string(),
            manifest: root_manifest,
        });
    }

    let crates_dir = root.join("crates");
    if crates_dir.is_dir() {
        let mut dirs: Vec<_> = fs::read_dir(&crates_dir)?
            .collect::<Result<Vec<_>, _>>()?
            .into_iter()
            .map(|e| e.path())
            .filter(|p| p.is_dir())
            .collect();
        dirs.sort();
        for dir in dirs {
            let mf = dir.join("Cargo.toml");
            if !mf.exists() {
                continue;
            }
            let id = dir
                .file_name()
                .and_then(|n| n.to_str())
                .unwrap_or_default()
                .to_string();
            let rel = format!("crates/{id}/Cargo.toml");
            let (parsed, errs) = manifest::parse(&rel, &fs::read_to_string(&mf)?);
            findings.extend(errs);
            if !parsed.suppressions.is_empty() {
                sups.push((rel.clone(), parsed.suppressions.clone()));
            }
            ws.crates.push(CrateManifest {
                id,
                rel_path: rel,
                manifest: parsed,
            });
        }
    }
    ws.crates.sort_by(|a, b| a.id.cmp(&b.id));
    Ok((ws, findings, sups))
}

/// Resolve a dependency to its target crate id (the last path
/// component of its `path`, looked up through the root alias map for
/// `workspace = true` entries).
pub fn resolve_target(dep: &Dep, ws: &WorkspaceManifests) -> Option<String> {
    let path = if dep.workspace {
        ws.workspace_deps.get(&dep.key)?.0.clone()?
    } else {
        dep.path.clone()?
    };
    path.replace('\\', "/")
        .split('/')
        .rfind(|s| !s.is_empty() && *s != "." && *s != "..")
        .map(|s| s.to_string())
}

fn spec_of<'a>(config: &'a Config, id: &str) -> Option<&'a CrateSpec> {
    config.layering.iter().find(|s| s.id == id)
}

fn err(rule: Rule, file: &str, line: u32, message: String) -> Finding {
    Finding {
        rule,
        file: file.to_string(),
        line,
        message,
        severity: Severity::Error,
    }
}

/// Whether a file is compiled only for tests/benches/examples (where
/// dev-dependencies are in scope).
pub fn is_test_path(rel_path: &str) -> bool {
    let tail = match rel_path.strip_prefix("crates/") {
        Some(rest) => rest.split_once('/').map(|(_, t)| t).unwrap_or(rest),
        None => rel_path,
    };
    tail.starts_with("tests/") || tail.starts_with("benches/") || tail.starts_with("examples/")
}

/// Run every layering check. `models` maps workspace-relative `.rs`
/// paths to their extracted models.
pub fn check(
    config: &Config,
    ws: &WorkspaceManifests,
    models: &BTreeMap<String, FileModel>,
) -> Vec<Finding> {
    let mut out = Vec::new();
    let lib_to_id: BTreeMap<&str, &str> = config
        .layering
        .iter()
        .map(|s| (s.lib.as_str(), s.id.as_str()))
        .collect();

    // Per-crate identifier usage, split by test visibility.
    let mut used_any: BTreeMap<&str, BTreeSet<&str>> = BTreeMap::new();
    let mut used_non_test: BTreeMap<&str, BTreeSet<&str>> = BTreeMap::new();
    for (rel, model) in models {
        let crate_id = Config::crate_of(rel);
        let any = used_any.entry(crate_id).or_default();
        for id in &model.idents {
            any.insert(id);
        }
        if !is_test_path(rel) {
            let non_test = used_non_test.entry(crate_id).or_default();
            for id in &model.non_test_idents {
                non_test.insert(id);
            }
        }
    }

    // Manifest checks + the realized normal-edge graph.
    let mut normal_edges: BTreeMap<&str, Vec<String>> = BTreeMap::new();
    // Per-crate declared deps by target id → (dev, line), for the
    // source-level checks below.
    let mut declared: BTreeMap<&str, BTreeMap<String, bool>> = BTreeMap::new();

    for cm in &ws.crates {
        let Some(spec) = spec_of(config, &cm.id) else {
            out.push(err(
                Rule::Layering,
                &cm.rel_path,
                0,
                format!(
                    "crate `{}` is not declared in the layering config; add it to \
                     detlint's Config::workspace_layering with its layer and allowed deps",
                    cm.id
                ),
            ));
            continue;
        };
        let mut seen: BTreeMap<&str, bool> = BTreeMap::new(); // key → dev
        for dep in &cm.manifest.deps {
            let Some(target) = resolve_target(dep, ws) else {
                out.push(err(
                    Rule::Layering,
                    &cm.rel_path,
                    dep.line,
                    format!(
                        "dependency `{}` does not resolve to a workspace path crate; \
                         this workspace is hermetic (no registry deps)",
                        dep.key
                    ),
                ));
                continue;
            };
            // Duplicate normal + dev declaration of the same key.
            if let Some(&first_dev) = seen.get(dep.key.as_str()) {
                if first_dev != dep.dev {
                    out.push(err(
                        Rule::UnusedDep,
                        &cm.rel_path,
                        dep.line,
                        format!(
                            "`{}` is declared in both [dependencies] and \
                             [dev-dependencies]; the dev entry is redundant",
                            dep.key
                        ),
                    ));
                    continue;
                }
            }
            seen.insert(dep.key.as_str(), dep.dev);

            let Some(target_spec) = spec_of(config, &target) else {
                out.push(err(
                    Rule::Layering,
                    &cm.rel_path,
                    dep.line,
                    format!(
                        "dependency `{}` resolves to crate `{target}`, which is not in \
                         the layering config",
                        dep.key
                    ),
                ));
                continue;
            };
            if !spec.deps.iter().any(|d| d == &target) {
                out.push(err(
                    Rule::Layering,
                    &cm.rel_path,
                    dep.line,
                    format!(
                        "`{}` must not depend on `{target}`: the edge is not in the \
                         declared DAG; if the architecture changed, update \
                         Config::workspace_layering in the same diff",
                        cm.id
                    ),
                ));
            } else if !dep.dev {
                if let (Some(from), Some(to)) = (spec.layer, target_spec.layer) {
                    if to >= from {
                        out.push(err(
                            Rule::Layering,
                            &cm.rel_path,
                            dep.line,
                            format!(
                                "dependency inverts the declared layering: `{}` is \
                                 layer {from} but `{target}` is layer {to}",
                                cm.id
                            ),
                        ));
                    }
                }
                normal_edges
                    .entry(spec.id.as_str())
                    .or_default()
                    .push(target.clone());
            }
            declared
                .entry(spec.id.as_str())
                .or_default()
                .entry(target.clone())
                .and_modify(|dev| *dev &= dep.dev)
                .or_insert(dep.dev);

            // Usage checks.
            let lib_name = dep.key.replace('-', "_");
            let empty = BTreeSet::new();
            let any = used_any.get(cm.id.as_str()).unwrap_or(&empty);
            let non_test = used_non_test.get(cm.id.as_str()).unwrap_or(&empty);
            if !any.contains(lib_name.as_str()) {
                out.push(err(
                    Rule::UnusedDep,
                    &cm.rel_path,
                    dep.line,
                    format!(
                        "`{}` is declared but never referenced by any identifier in \
                         crate `{}`; remove it",
                        dep.key, cm.id
                    ),
                ));
            } else if !dep.dev && !non_test.contains(lib_name.as_str()) {
                out.push(err(
                    Rule::UnusedDep,
                    &cm.rel_path,
                    dep.line,
                    format!(
                        "`{}` is only referenced from test code; move it to \
                         [dev-dependencies]",
                        dep.key
                    ),
                ));
            }
        }
    }

    out.extend(cycles(ws, &normal_edges));

    // Source-level checks: every referenced workspace crate is declared.
    for (rel, model) in models {
        let crate_id = Config::crate_of(rel);
        if spec_of(config, crate_id).is_none() {
            continue;
        }
        let crate_declared = declared.get(crate_id);
        // Dedupe per (head, finding kind): the first offending line of
        // each crate reference is enough.
        let mut reported: BTreeSet<(&str, &str)> = BTreeSet::new();
        let refs = model.use_heads.iter().chain(model.path_heads.iter());
        for (head, line) in refs {
            let Some(&target_id) = lib_to_id.get(head.as_str()) else {
                continue;
            };
            if target_id == crate_id {
                continue;
            }
            match crate_declared.and_then(|d| d.get(target_id)) {
                None => {
                    if reported.insert((head.as_str(), "undeclared")) {
                        out.push(err(
                            Rule::Layering,
                            rel,
                            *line,
                            format!(
                                "crate `{crate_id}` references workspace crate `{head}` \
                                 without declaring the dependency in its Cargo.toml"
                            ),
                        ));
                    }
                }
                Some(&dev) => {
                    if dev
                        && !is_test_path(rel)
                        && !model.in_test_range(*line)
                        && reported.insert((head.as_str(), "dev-in-nontest"))
                    {
                        out.push(err(
                            Rule::Layering,
                            rel,
                            *line,
                            format!(
                                "`{head}` is a dev-dependency of `{crate_id}` but is \
                                 referenced from non-test code"
                            ),
                        ));
                    }
                }
            }
        }
    }

    out
}

/// Detect cycles in the realized normal-dependency graph.
fn cycles(ws: &WorkspaceManifests, edges: &BTreeMap<&str, Vec<String>>) -> Vec<Finding> {
    let mut out = Vec::new();
    let mut done: BTreeSet<String> = BTreeSet::new();
    let mut reported: BTreeSet<Vec<String>> = BTreeSet::new();
    for start in edges.keys() {
        let mut stack: Vec<(String, usize)> = vec![(start.to_string(), 0)];
        let mut path: Vec<String> = Vec::new();
        while let Some((node, next)) = stack.pop() {
            if next == 0 {
                if let Some(pos) = path.iter().position(|p| *p == node) {
                    // Found a cycle: canonicalize it so each is reported
                    // once regardless of entry point.
                    let mut cycle: Vec<String> = path[pos..].to_vec();
                    let min = cycle
                        .iter()
                        .enumerate()
                        .min_by_key(|(_, v)| v.as_str())
                        .map(|(i, _)| i)
                        .unwrap_or(0);
                    cycle.rotate_left(min);
                    if reported.insert(cycle.clone()) {
                        let anchor = ws
                            .crates
                            .iter()
                            .find(|c| c.id == cycle[0])
                            .map(|c| c.rel_path.clone())
                            .unwrap_or_else(|| "Cargo.toml".to_string());
                        out.push(err(
                            Rule::Layering,
                            &anchor,
                            0,
                            format!("dependency cycle: {} → {}", cycle.join(" → "), cycle[0]),
                        ));
                    }
                    continue;
                }
                if done.contains(&node) {
                    continue;
                }
                path.push(node.clone());
            }
            let succ = edges.get(node.as_str()).map(Vec::as_slice).unwrap_or(&[]);
            if next < succ.len() {
                stack.push((node.clone(), next + 1));
                stack.push((succ[next].clone(), 0));
            } else {
                done.insert(node.clone());
                path.pop();
            }
        }
    }
    out
}

/// Render the realized dependency graph as DOT: layers as same-rank
/// groups, dev edges dashed. Deterministic output.
pub fn dot(config: &Config, ws: &WorkspaceManifests) -> String {
    let mut out = String::new();
    out.push_str("digraph detlint_deps {\n");
    out.push_str("  rankdir=\"BT\";\n");
    out.push_str("  node [shape=box, fontname=\"monospace\"];\n");
    let mut by_layer: BTreeMap<u32, Vec<&str>> = BTreeMap::new();
    for spec in &config.layering {
        if let Some(layer) = spec.layer {
            by_layer.entry(layer).or_default().push(&spec.id);
        }
    }
    for (layer, ids) in &by_layer {
        out.push_str(&format!("  // layer {layer}\n  {{ rank=same;"));
        let mut ids = ids.clone();
        ids.sort_unstable();
        for id in ids {
            out.push_str(&format!(" \"{id}\";"));
        }
        out.push_str(" }\n");
    }
    let mut edges: BTreeSet<(String, String, bool)> = BTreeSet::new();
    for cm in &ws.crates {
        for dep in &cm.manifest.deps {
            if let Some(target) = resolve_target(dep, ws) {
                edges.insert((cm.id.clone(), target, dep.dev));
            }
        }
    }
    for (from, to, dev) in &edges {
        if *dev {
            out.push_str(&format!("  \"{from}\" -> \"{to}\" [style=dashed];\n"));
        } else {
            out.push_str(&format!("  \"{from}\" -> \"{to}\";\n"));
        }
    }
    out.push_str("}\n");
    out
}
