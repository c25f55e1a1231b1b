//! Scoped suppressions: `// detlint::allow(rule): reason`.
//!
//! A suppression comment silences findings of one named rule on the line
//! it annotates: the same line for a trailing comment, otherwise the
//! next line that carries code. The reason is mandatory — a suppression
//! is a reviewed, documented exception, not an escape hatch. A
//! suppression that silences nothing is itself an error, so stale
//! exceptions cannot accumulate.

use crate::lexer::{Token, TokenKind};
use crate::report::{Finding, Rule, Severity};

/// One parsed suppression comment.
#[derive(Debug, Clone)]
pub struct Suppression {
    /// The rule it silences.
    pub rule: Rule,
    /// Line of the comment itself.
    pub line: u32,
    /// Line whose findings it covers (0 if it annotates nothing).
    pub covers: u32,
    /// The justification text.
    pub reason: String,
}

/// Extract suppressions from a file's full token stream (comments
/// included). Malformed suppressions — unknown rule, missing reason,
/// bad syntax — come back as error findings.
pub fn parse(rel_path: &str, tokens: &[Token]) -> (Vec<Suppression>, Vec<Finding>) {
    let mut sups = Vec::new();
    let mut errors = Vec::new();
    for (i, tok) in tokens.iter().enumerate() {
        if tok.kind != TokenKind::LineComment {
            continue;
        }
        // A suppression is a plain `//` comment whose text *begins* with
        // the marker. Doc comments (`///`, `//!`) and prose that merely
        // mentions `detlint::allow` are not suppressions.
        let Some(body) = tok.text.strip_prefix("//") else {
            continue;
        };
        if body.starts_with('/') || body.starts_with('!') {
            continue;
        }
        if !body.trim_start().starts_with("detlint::allow") {
            continue;
        }
        let mut err = |message: String| {
            errors.push(Finding {
                rule: Rule::Suppression,
                file: rel_path.to_string(),
                line: tok.line,
                message,
                severity: Severity::Error,
            });
        };
        let Some(at) = tok.text.find("detlint::allow(") else {
            err("malformed suppression: expected `detlint::allow(rule): reason`".to_string());
            continue;
        };
        let rest = &tok.text[at + "detlint::allow(".len()..];
        let Some(close) = rest.find(')') else {
            err("malformed suppression: unterminated rule name".to_string());
            continue;
        };
        let rule_name = rest[..close].trim();
        let Some(rule) = Rule::suppressible(rule_name) else {
            err(format!(
                "suppression names unknown or unsuppressible rule `{rule_name}` \
                 (suppressible: wall-clock, unordered-iter, unseeded-rng, forbid-unsafe, \
                 layering, unused-dep, float-determinism; \
                 panic-hygiene is governed by the baseline ratchet)"
            ));
            continue;
        };
        let after = &rest[close + 1..];
        let reason = match after.strip_prefix(':') {
            Some(r) => r.trim(),
            None => {
                err("malformed suppression: expected `: reason` after the rule name".to_string());
                continue;
            }
        };
        if reason.is_empty() {
            err("suppression has an empty reason; justify the exception".to_string());
            continue;
        }

        // What line does it cover? Trailing comment → same line;
        // otherwise the next line bearing a code token.
        let trailing = tokens[..i].iter().any(|t| {
            t.line == tok.line
                && t.kind != TokenKind::LineComment
                && t.kind != TokenKind::BlockComment
        });
        let covers = if trailing {
            tok.line
        } else {
            tokens[i + 1..]
                .iter()
                .find(|t| t.kind != TokenKind::LineComment && t.kind != TokenKind::BlockComment)
                .map(|t| t.line)
                .unwrap_or(0)
        };
        sups.push(Suppression {
            rule,
            line: tok.line,
            covers,
            reason: reason.to_string(),
        });
    }
    (sups, errors)
}

/// Apply `sups` to `findings` (all from the same file): matched findings
/// are removed, and each unused suppression becomes an error finding.
/// Returns the per-suppression used flags (parallel to `sups`) — the
/// suppression-audit inventory is built from them.
pub fn apply(
    rel_path: &str,
    sups: &mut [Suppression],
    findings: &mut Vec<Finding>,
    out_errors: &mut Vec<Finding>,
) -> Vec<bool> {
    let mut used = vec![false; sups.len()];
    findings.retain(|f| {
        for (i, s) in sups.iter().enumerate() {
            if s.rule == f.rule && s.covers == f.line && f.line != 0 {
                used[i] = true;
                return false;
            }
        }
        true
    });
    for (i, s) in sups.iter().enumerate() {
        if !used[i] {
            out_errors.push(Finding {
                rule: Rule::Suppression,
                file: rel_path.to_string(),
                line: s.line,
                message: format!(
                    "unused suppression for `{}` (reason: {}); the finding it covered \
                     is gone — delete the comment",
                    s.rule, s.reason
                ),
                severity: Severity::Error,
            });
        }
    }
    used
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    #[test]
    fn parses_leading_and_trailing_forms() {
        let src = "\
// detlint::allow(wall-clock): merge span timing\n\
let t = Instant::now();\n\
let u = Instant::now(); // detlint::allow(wall-clock): second reason\n";
        let (sups, errs) = parse("f.rs", &lex(src));
        assert!(errs.is_empty());
        assert_eq!(sups.len(), 2);
        assert_eq!(sups[0].covers, 2);
        assert_eq!(sups[1].covers, 3);
        assert_eq!(sups[0].reason, "merge span timing");
    }

    #[test]
    fn leading_comment_skips_interleaved_comments() {
        let src = "\
// detlint::allow(unordered-iter): count is order-insensitive\n\
// more prose about why\n\
let n = m.values().count();\n";
        let (sups, errs) = parse("f.rs", &lex(src));
        assert!(errs.is_empty());
        assert_eq!(sups[0].covers, 3);
    }

    #[test]
    fn malformed_and_unknown_are_errors() {
        let cases = [
            "// detlint::allow(wall-clock) no colon\nx();\n",
            "// detlint::allow(no-such-rule): reason\nx();\n",
            "// detlint::allow(panic-hygiene): ratchet rules\nx();\n",
            "// detlint::allow(wall-clock):   \nx();\n",
        ];
        for src in cases {
            let (sups, errs) = parse("f.rs", &lex(src));
            assert!(sups.is_empty(), "{src}");
            assert_eq!(errs.len(), 1, "{src}");
        }
    }

    #[test]
    fn apply_matches_and_reports_unused() {
        let src = "\
// detlint::allow(wall-clock): timing only\n\
let t = Instant::now();\n\
// detlint::allow(wall-clock): stale\n\
let x = 1;\n";
        let (mut sups, errs) = parse("f.rs", &lex(src));
        assert!(errs.is_empty());
        let mut findings = vec![Finding {
            rule: Rule::WallClock,
            file: "f.rs".into(),
            line: 2,
            message: "m".into(),
            severity: Severity::Error,
        }];
        let mut unused = Vec::new();
        let used = apply("f.rs", &mut sups, &mut findings, &mut unused);
        assert_eq!(used, vec![true, false]);
        assert!(findings.is_empty());
        assert_eq!(unused.len(), 1);
        assert!(unused[0].message.contains("stale"));
    }
}
