//! The float-determinism pack.
//!
//! Floating-point addition is not associative: summing the same `f64`
//! values in two different orders can produce results differing in the
//! last ulp — enough to break the byte-identical artifact invariant
//! when the iteration order is a `HashMap`'s. Canonical-order folds
//! (over `Vec`s, slices, `BTreeMap`s) are fine; hash-order folds are
//! not, unless routed through the blessed order-insensitive helpers
//! (`Welford` accumulators, `StreamingCdf`, or `stats::sum_sorted`).
//!
//! Two token-level patterns are flagged in the configured crates:
//!
//! * **A** — a statement that mentions a declared hash collection,
//!   calls `.sum(`/`.fold(`/`.product(`, and shows `f64` evidence (an
//!   `f64` token, a float literal, or a declared-`f64` binding);
//! * **B** — a `for … in <hash>` loop whose body compound-assigns
//!   (`+=`, `-=`, `*=`) into a declared-`f64` binding (or shows float
//!   evidence on the assignment statement).
//!
//! Like unordered-iter, this is a heuristic, not type inference; it is
//! deliberately narrow (hash-typed names only) so canonical `Vec`
//! sums never need a suppression.

use crate::lexer::{Token, TokenKind};
use crate::parse::FileModel;
use crate::report::{Finding, Rule, Severity};
use crate::rules::{hash_collection_names, FileContext};

/// Identifiers that mark an order-insensitive accumulation: findings in
/// a statement/loop that mentions one of these are skipped.
const BLESSED: &[&str] = &["Welford", "StreamingCdf", "sum_sorted"];

const FOLD_METHODS: &[&str] = &["sum", "fold", "product"];

fn finding(ctx: &FileContext<'_>, line: u32, message: String) -> Finding {
    Finding {
        rule: Rule::FloatDeterminism,
        file: ctx.rel_path.to_string(),
        line,
        message,
        severity: Severity::Error,
    }
}

/// Names declared with an `f64` type ascription or initialized from a
/// float literal (`let mut acc = 0.0`).
fn f64_names(t: &[Token]) -> Vec<String> {
    let mut out: Vec<String> = Vec::new();
    let mut declare = |name: &str| {
        if !out.iter().any(|d| d == name) {
            out.push(name.to_string());
        }
    };
    for i in 0..t.len() {
        // `name : [&][mut] f64`
        if t[i].is_ident("f64") {
            let mut j = i;
            while j > 0 && (t[j - 1].is_punct("&") || t[j - 1].is_ident("mut")) {
                j -= 1;
            }
            if j >= 2
                && t[j - 1].is_punct(":")
                && !(j >= 3 && t[j - 2].is_punct(":"))
                && t[j - 2].kind == TokenKind::Ident
            {
                declare(&t[j - 2].text);
            }
        }
        // `name = <float literal>`
        if t[i].kind == TokenKind::Number
            && is_float_literal(&t[i].text)
            && i >= 2
            && t[i - 1].is_punct("=")
            && t[i - 2].kind == TokenKind::Ident
        {
            declare(&t[i - 2].text);
        }
    }
    out
}

fn is_float_literal(text: &str) -> bool {
    text.contains('.') || text.ends_with("f64") || text.ends_with("f32")
}

fn mentions(t: &[Token], names: &[String]) -> bool {
    t.iter()
        .any(|tok| tok.kind == TokenKind::Ident && names.contains(&tok.text))
}

fn mentions_strs(t: &[Token], names: &[&str]) -> bool {
    t.iter()
        .any(|tok| tok.kind == TokenKind::Ident && names.contains(&tok.text.as_str()))
}

/// Evidence that a statement accumulates `f64`s.
fn f64_evidence(t: &[Token], f64s: &[String]) -> bool {
    t.iter().any(|tok| {
        (tok.kind == TokenKind::Ident && tok.text == "f64")
            || (tok.kind == TokenKind::Number && is_float_literal(&tok.text))
    }) || mentions(t, f64s)
}

/// **float-determinism** — run both patterns over one file.
/// `model` supplies the `#[cfg(test)]` ranges; test code is exempt.
pub fn float_determinism(ctx: &FileContext<'_>, model: &FileModel) -> Vec<Finding> {
    let t = ctx.tokens;
    let hashes = hash_collection_names(t);
    if hashes.is_empty() {
        return Vec::new();
    }
    let f64s = f64_names(t);
    let mut out = Vec::new();

    // Pattern A: statement-level fold. Statements are token runs between
    // `;` / `{` / `}` boundaries — coarse, but co-occurrence within one
    // run is exactly the signal wanted.
    let mut start = 0usize;
    for i in 0..=t.len() {
        let boundary =
            i == t.len() || t[i].is_punct(";") || t[i].is_punct("{") || t[i].is_punct("}");
        if !boundary {
            continue;
        }
        let stmt = &t[start..i];
        start = i + 1;
        if stmt.is_empty() || mentions_strs(stmt, BLESSED) {
            continue;
        }
        let fold_at = stmt.windows(3).position(|w| {
            w[0].is_punct(".")
                && w[1].kind == TokenKind::Ident
                && FOLD_METHODS.contains(&w[1].text.as_str())
                && (w[2].is_punct("(") || w[2].is_punct(":"))
        });
        let Some(at) = fold_at else { continue };
        if !mentions(stmt, &hashes) || !f64_evidence(stmt, &f64s) {
            continue;
        }
        let line = stmt[at + 1].line;
        if model.in_test_range(line) {
            continue;
        }
        out.push(finding(
            ctx,
            line,
            format!(
                "`.{}()` accumulates f64 over HashMap/HashSet iteration order; \
                 route it through Welford/StreamingCdf/stats::sum_sorted (or sort first)",
                stmt[at + 1].text
            ),
        ));
    }

    // Pattern B: `for … in <hash> { … acc += … }`.
    let mut i = 0usize;
    while i < t.len() {
        if !t[i].is_ident("for") {
            i += 1;
            continue;
        }
        // Find the loop's opening brace; the header is everything up to
        // it.
        let Some(open) = (i..t.len()).find(|&j| t[j].is_punct("{")) else {
            break;
        };
        let header = &t[i..open];
        if !header.iter().any(|tok| tok.is_ident("in")) || !mentions(header, &hashes) {
            i += 1;
            continue;
        }
        // Body: matched braces.
        let mut depth = 0i32;
        let mut close = open;
        for (j, tok) in t.iter().enumerate().skip(open) {
            if tok.is_punct("{") {
                depth += 1;
            } else if tok.is_punct("}") {
                depth -= 1;
                if depth == 0 {
                    close = j;
                    break;
                }
            }
        }
        let body = &t[open..close];
        if !mentions_strs(body, BLESSED) {
            for w in body.windows(4) {
                let compound = (w[1].is_punct("+") || w[1].is_punct("-") || w[1].is_punct("*"))
                    && w[2].is_punct("=")
                    && !w[3].is_punct("="); // `==` comparison safety
                if !compound || w[0].kind != TokenKind::Ident {
                    continue;
                }
                let target_is_f64 = f64s.iter().any(|n| *n == w[0].text);
                let float_rhs = w[3].kind == TokenKind::Number && is_float_literal(&w[3].text);
                if !(target_is_f64 || float_rhs) || model.in_test_range(w[1].line) {
                    continue;
                }
                out.push(finding(
                    ctx,
                    w[1].line,
                    format!(
                        "`{} {}=` accumulates f64 inside a HashMap/HashSet loop; \
                         route it through Welford/StreamingCdf/stats::sum_sorted \
                         (or sort first)",
                        w[0].text, w[1].text
                    ),
                ));
            }
        }
        i = open + 1;
    }

    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;
    use crate::parse;

    fn run(src: &str) -> Vec<Finding> {
        let tokens: Vec<Token> = lex(src)
            .into_iter()
            .filter(|t| t.kind != TokenKind::LineComment && t.kind != TokenKind::BlockComment)
            .collect();
        let model = parse::model(&tokens);
        let ctx = FileContext {
            rel_path: "crates/scanner/src/x.rs",
            crate_name: "scanner",
            tokens: &tokens,
        };
        float_determinism(&ctx, &model)
    }

    #[test]
    fn flags_hash_order_f64_sum() {
        let src = r"
            let weights: HashMap<String, f64> = HashMap::new();
            let total: f64 = weights.values().sum();
        ";
        let found = run(src);
        assert_eq!(found.len(), 1);
        assert!(found[0].message.contains("sum"));
    }

    #[test]
    fn flags_turbofish_sum() {
        let src = r"
            let m: HashMap<u64, f64> = HashMap::new();
            let t = m.values().copied().sum::<f64>();
        ";
        assert_eq!(run(src).len(), 1);
    }

    #[test]
    fn flags_compound_assign_in_hash_loop() {
        let src = r"
            let m: HashMap<u64, f64> = HashMap::new();
            let mut acc = 0.0;
            for (_, v) in &m {
                acc += v;
            }
        ";
        let found = run(src);
        assert_eq!(found.len(), 1);
        assert!(found[0].message.contains("acc"));
    }

    #[test]
    fn vec_sums_are_canonical() {
        let src = r"
            let m: HashMap<u64, f64> = HashMap::new();
            let weights: Vec<f64> = vec![1.0, 2.0];
            let total: f64 = weights.iter().sum();
        ";
        assert!(run(src).is_empty());
    }

    #[test]
    fn u64_hash_sums_are_exact() {
        let src = r"
            let m: HashMap<u64, u64> = HashMap::new();
            let total: u64 = m.values().sum();
        ";
        assert!(run(src).is_empty());
    }

    #[test]
    fn blessed_helpers_pass() {
        let src = r"
            let m: HashMap<u64, f64> = HashMap::new();
            let total = sum_sorted(m.values().copied());
            let mut w = Welford::new();
            for (_, v) in &m {
                w.push(*v);
            }
        ";
        assert!(run(src).is_empty());
    }

    #[test]
    fn integer_counter_in_hash_loop_is_fine() {
        let src = r"
            let m: HashMap<u64, u64> = HashMap::new();
            let mut n = 0u64;
            for (_, v) in &m {
                n += v;
            }
        ";
        assert!(run(src).is_empty());
    }
}
