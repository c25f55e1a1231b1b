//! A recursive-descent pass over the token stream: the "almost a
//! parser" layer the cross-crate rules build on.
//!
//! [`lexer`](crate::lexer) gives a flat token stream; the workspace
//! rules (layering, float-determinism) need a little more shape than
//! that — which crates a file mentions, which identifiers it uses, and
//! which line ranges are test-only. This module extracts exactly that
//! into a [`FileModel`], once per file, so every workspace pass reads
//! the same pre-digested view instead of re-walking tokens.
//!
//! It is still not type-aware (no `syn`, no name resolution): the model
//! is a set of token-level facts chosen so that the rules built on it
//! are conservative in the right direction — a `use` head is exact, and
//! anything inside `#[cfg(test)]` is attributable as test-only.

use crate::lexer::{Token, TokenKind};
use std::collections::BTreeSet;

/// The extracted per-file facts.
#[derive(Debug, Default)]
pub struct FileModel {
    /// External heads of `use` declarations (first path segment that is
    /// not `crate`/`self`/`super`), with the line of each.
    pub use_heads: Vec<(String, u32)>,
    /// Identifiers in path-head position (`X` in `X::y`, not preceded by
    /// `::` or `.`), with the line of each occurrence.
    pub path_heads: Vec<(String, u32)>,
    /// Inclusive line ranges under `#[cfg(test)]` / `#[test]`.
    pub test_ranges: Vec<(u32, u32)>,
    /// Every identifier in the file (including test code).
    pub idents: BTreeSet<String>,
    /// Identifiers outside the test ranges.
    pub non_test_idents: BTreeSet<String>,
}

impl FileModel {
    /// Whether `line` falls inside a `#[cfg(test)]` / `#[test]` region.
    pub fn in_test_range(&self, line: u32) -> bool {
        self.test_ranges
            .iter()
            .any(|&(a, b)| a <= line && line <= b)
    }
}

/// Build the model from a file's code tokens (comments filtered out).
pub fn model(tokens: &[Token]) -> FileModel {
    let mut m = FileModel {
        test_ranges: test_ranges(tokens),
        ..FileModel::default()
    };

    let t = tokens;
    let mut i = 0usize;
    while i < t.len() {
        let tok = &t[i];
        if tok.kind == TokenKind::Ident {
            m.idents.insert(tok.text.clone());
            if !m.in_test_range(tok.line) {
                m.non_test_idents.insert(tok.text.clone());
            }
        }

        // `use` declarations.
        if tok.is_ident("use") {
            i = use_decl(t, i + 1, &mut m);
            continue;
        }

        // Path heads: `X :: y` where the token before `X` is neither `:`
        // (mid-path) nor `.` (turbofish on a method), and the token after
        // `::` is an identifier (not a turbofish `<`).
        if tok.kind == TokenKind::Ident
            && is_path_sep(t, i + 1)
            && i + 3 < t.len()
            && t[i + 3].kind == TokenKind::Ident
            && !(i > 0 && (t[i - 1].is_punct(":") || t[i - 1].is_punct(".")))
        {
            m.path_heads.push((tok.text.clone(), tok.line));
        }

        i += 1;
    }
    m
}

/// Is `tokens[i..]` the path separator `::`?
fn is_path_sep(tokens: &[Token], i: usize) -> bool {
    i + 1 < tokens.len() && tokens[i].is_punct(":") && tokens[i + 1].is_punct(":")
}

/// Walk a `use` tree starting after the `use` keyword, collecting the
/// external head of every top-level alternative; returns the index
/// after the terminating `;`.
///
/// `use a::b::{c, d};` has one head (`a`); `use {a::x, b::y};` has two.
/// Heads `crate`/`self`/`super` are internal and not recorded. Every
/// identifier in the tree still lands in the model's `idents` sets —
/// the main loop skips past the tree, and a `use asn1::der;` is the
/// reference that keeps `asn1` out of the unused-dep pass.
fn use_decl(t: &[Token], start: usize, m: &mut FileModel) -> usize {
    let toplevel_brace = start < t.len() && t[start].is_punct("{");
    let mut depth = 0i32;
    let mut at_path_start = true;
    let mut i = start;
    while i < t.len() {
        let tok = &t[i];
        if tok.is_punct(";") && depth == 0 {
            return i + 1;
        }
        if tok.is_punct("{") {
            depth += 1;
            at_path_start = true;
        } else if tok.is_punct("}") {
            depth -= 1;
            at_path_start = false;
        } else if tok.is_punct(",") {
            at_path_start = true;
        } else if tok.kind == TokenKind::Ident {
            let in_test = m.in_test_range(tok.line);
            m.idents.insert(tok.text.clone());
            if !in_test {
                m.non_test_idents.insert(tok.text.clone());
            }
            let head_position = depth == 0 || (toplevel_brace && depth == 1);
            if at_path_start
                && head_position
                && !matches!(tok.text.as_str(), "crate" | "self" | "super" | "as")
            {
                m.use_heads.push((tok.text.clone(), tok.line));
            }
            at_path_start = false;
        }
        i += 1;
    }
    i
}

/// Find `#[cfg(test)]`-gated (and `#[test]`-attributed) item ranges:
/// from the attribute line through the end of the item it gates
/// (matched braces, or the terminating `;` for brace-less items).
fn test_ranges(t: &[Token]) -> Vec<(u32, u32)> {
    let mut out: Vec<(u32, u32)> = Vec::new();
    let mut i = 0usize;
    while i < t.len() {
        if !(t[i].is_punct("#") && i + 1 < t.len() && t[i + 1].is_punct("[")) {
            i += 1;
            continue;
        }
        let attr_line = t[i].line;
        // Find the matching `]` and check whether the attribute is
        // `cfg(… test …)` or `test`.
        let mut j = i + 2;
        let mut depth = 1i32; // the `[` we just consumed
        let mut is_test_attr = false;
        let is_cfg = j < t.len() && t[j].is_ident("cfg");
        let is_bare_test = j + 1 < t.len() && t[j].is_ident("test") && t[j + 1].is_punct("]");
        while j < t.len() && depth > 0 {
            if t[j].is_punct("[") {
                depth += 1;
            } else if t[j].is_punct("]") {
                depth -= 1;
            } else if is_cfg && t[j].is_ident("test") {
                is_test_attr = true;
            }
            j += 1;
        }
        if is_bare_test {
            is_test_attr = true;
        }
        if !is_test_attr {
            i = j;
            continue;
        }
        // Skip any further attributes between this one and the item.
        while j + 1 < t.len() && t[j].is_punct("#") && t[j + 1].is_punct("[") {
            let mut d = 0i32;
            while j < t.len() {
                if t[j].is_punct("[") {
                    d += 1;
                } else if t[j].is_punct("]") {
                    d -= 1;
                    if d == 0 {
                        j += 1;
                        break;
                    }
                }
                j += 1;
            }
        }
        // The gated item: runs to the matching `}` of its first brace,
        // or to a `;` if no brace opens first (e.g. `use`, `const`).
        let mut end_line = attr_line;
        let mut brace = 0i32;
        let mut saw_brace = false;
        while j < t.len() {
            if t[j].is_punct("{") {
                brace += 1;
                saw_brace = true;
            } else if t[j].is_punct("}") {
                brace -= 1;
                if saw_brace && brace == 0 {
                    end_line = t[j].line;
                    j += 1;
                    break;
                }
            } else if t[j].is_punct(";") && !saw_brace {
                end_line = t[j].line;
                j += 1;
                break;
            }
            end_line = t[j].line;
            j += 1;
        }
        out.push((attr_line, end_line));
        i = j;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    fn model_of(src: &str) -> FileModel {
        let tokens: Vec<Token> = lex(src)
            .into_iter()
            .filter(|t| t.kind != TokenKind::LineComment && t.kind != TokenKind::BlockComment)
            .collect();
        model(&tokens)
    }

    #[test]
    fn use_heads_flatten_trees() {
        let m = model_of(
            "use std::collections::{HashMap, HashSet};\n\
             use telemetry::catalog::NET_REQUEST;\n\
             pub use crate::inner::Thing;\n\
             use {asn1::Tag, pki::Cert as C};\n",
        );
        let heads: Vec<&str> = m.use_heads.iter().map(|(h, _)| h.as_str()).collect();
        assert_eq!(heads, vec!["std", "telemetry", "asn1", "pki"]);
    }

    #[test]
    fn path_heads_skip_mid_path_and_turbofish() {
        let m = model_of(
            "let v = telemetry::Registry::new();\nlet c: Vec<u8> = x.collect::<Vec<u8>>();\n",
        );
        let heads: Vec<&str> = m.path_heads.iter().map(|(h, _)| h.as_str()).collect();
        assert!(heads.contains(&"telemetry"));
        assert!(!heads.contains(&"Registry"), "mid-path segment recorded");
        assert!(!heads.contains(&"collect"), "turbofish recorded");
    }

    #[test]
    fn test_ranges_cover_cfg_test_mods() {
        let src = "\
fn live() { reg.incr(\"a.b\", \"l\"); }\n\
#[cfg(test)]\n\
mod tests {\n\
    #[test]\n\
    fn t() { reg.incr(\"c.d\", \"l\"); }\n\
}\n\
fn after() {}\n";
        let m = model_of(src);
        assert!(!m.in_test_range(1));
        assert!(m.in_test_range(2));
        assert!(m.in_test_range(5));
        assert!(m.in_test_range(6));
        assert!(!m.in_test_range(7));
        assert!(m.non_test_idents.contains("live"));
        assert!(!m.non_test_idents.contains("t"));
        assert!(m.idents.contains("t"));
    }

    #[test]
    fn cfg_test_on_braceless_item() {
        let m = model_of("#[cfg(test)]\nuse proptest::prelude::*;\nfn f() {}\n");
        assert!(m.in_test_range(2));
        assert!(!m.in_test_range(3));
    }
}
