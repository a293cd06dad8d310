//! The rule engine: five invariant rules over the token stream plus the
//! `suppression` meta-rule, with `// lint: allow(<rule>): <reason>`
//! filtering.
//!
//! | rule | invariant it guards |
//! |------|---------------------|
//! | `panic-free-lib` | library code never panics — `mlscale serve` keeps workers alive, batch sweeps report named errors |
//! | `par-only-threads` | all threading goes through `mlscale_core::par` so `MLSCALE_THREADS` and determinism guarantees hold |
//! | `determinism` | no wall clocks, OS entropy, or ad-hoc environment reads on model-evaluation paths — golden fixtures are byte-reproducible |
//! | `atomic-results-io` | results JSON is written via the temp-file + rename helpers, never left truncated |
//! | `forbid-unsafe` | every crate root carries `#![forbid(unsafe_code)]` (or `deny`) |
//!
//! (`vendor-policy` lives in [`crate::manifest`] — it checks manifests,
//! not Rust sources.)

use crate::context::{parse_directives, token_lines, FileInput, FileKind, TestSpans};
use crate::lexer::{lex, TokKind, Token};
use crate::report::Finding;

/// All rule names the engine knows, in reporting order.
pub const RULES: [&str; 7] = [
    "panic-free-lib",
    "par-only-threads",
    "determinism",
    "atomic-results-io",
    "forbid-unsafe",
    "vendor-policy",
    "suppression",
];

/// The file whose job is to own raw threads.
const PAR_HOME: &str = "crates/core/src/par.rs";

/// The only files allowed to read process environment variables: each
/// knob has one owning module (`MLSCALE_THREADS` in `par`,
/// `MLSCALE_FAULTS` in `faultpoint`) that validates it once and exposes
/// a typed API, so a typo'd variable is a named diagnostic everywhere
/// instead of a silently ignored setting somewhere.
const ENV_HOMES: [&str; 2] = [PAR_HOME, "crates/core/src/faultpoint.rs"];

/// A suppression honoured while linting one file (reported so the JSON
/// report can list every active allow with its reason).
#[derive(Debug, Clone)]
pub struct UsedSuppression {
    /// File the allow lives in.
    pub file: String,
    /// Line of the allow comment.
    pub line: u32,
    /// Rules it names.
    pub rules: Vec<String>,
    /// Its justification.
    pub reason: String,
}

/// Findings plus honoured suppressions for one file.
#[derive(Debug, Default)]
pub struct FileLint {
    /// Surviving findings.
    pub findings: Vec<Finding>,
    /// Suppressions that silenced at least one finding.
    pub used: Vec<UsedSuppression>,
}

/// Lints one Rust source file.
pub fn lint_source(input: &FileInput, src: &str) -> FileLint {
    let lexed = lex(src);
    let spans = TestSpans::find(&lexed);
    let mut directives = parse_directives(&lexed.comments, &token_lines(&lexed));
    let mut raw: Vec<Finding> = Vec::new();

    let f = |line: u32, rule: &'static str, message: String| Finding {
        file: input.path.clone(),
        line,
        rule,
        message,
    };

    // Malformed directives are always findings, everywhere — a
    // suppression that cannot be trusted must not merge.
    for bad in &directives.bad {
        raw.push(f(bad.line, "suppression", bad.message.clone()));
    }
    for allow in &directives.allows {
        for rule in &allow.rules {
            if !RULES.contains(&rule.as_str()) {
                raw.push(f(
                    allow.line,
                    "suppression",
                    format!("allow names unknown rule {rule:?}"),
                ));
            }
        }
    }

    let code_rules_apply = !input.vendored && input.kind != FileKind::TestLike;
    if code_rules_apply {
        let toks = &lexed.tokens;
        for (i, t) in toks.iter().enumerate() {
            if spans.contains(t.line) {
                continue; // inside #[cfg(test)]
            }
            if input.kind == FileKind::Lib {
                panic_free(toks, i, &mut raw, &f);
            }
            par_only(input, toks, i, &mut raw, &f);
            determinism(input, toks, i, &mut raw, &f);
            atomic_io(toks, i, &mut raw, &f);
        }
    }

    // forbid-unsafe applies to every crate root, vendored ones included
    // (the stand-ins are part of the trusted computing base).
    if input.crate_root && !has_unsafe_attr(&lexed.tokens) {
        raw.push(f(
            1,
            "forbid-unsafe",
            "crate root is missing `#![forbid(unsafe_code)]` (or `#![deny(unsafe_code)]`)"
                .to_string(),
        ));
    }

    // Apply suppressions: an allow silences matching findings on its own
    // line or its bound target line.
    let mut findings = Vec::new();
    'finding: for finding in raw {
        if finding.rule != "suppression" {
            for allow in directives.allows.iter_mut() {
                if (allow.target_line == finding.line || allow.line == finding.line)
                    && allow.rules.iter().any(|r| r == finding.rule)
                {
                    allow.hits += 1;
                    continue 'finding;
                }
            }
        }
        findings.push(finding);
    }

    // A stale allow (suppressing nothing) is reported — but only when at
    // least one of its rules actually runs in this file's context, so an
    // allow inside fixtures/tests is inert rather than noisy.
    let mut used = Vec::new();
    for allow in &directives.allows {
        if allow.hits > 0 {
            used.push(UsedSuppression {
                file: input.path.clone(),
                line: allow.line,
                rules: allow.rules.clone(),
                reason: allow.reason.clone(),
            });
            continue;
        }
        let any_active = allow.rules.iter().any(|r| match r.as_str() {
            "panic-free-lib" => code_rules_apply && input.kind == FileKind::Lib,
            "par-only-threads" | "determinism" | "atomic-results-io" => code_rules_apply,
            "forbid-unsafe" => input.crate_root,
            _ => false,
        });
        if any_active {
            findings.push(Finding {
                file: input.path.clone(),
                line: allow.line,
                rule: "suppression",
                message: format!(
                    "allow({}) suppressed nothing — remove it or move it next to the site it excuses",
                    allow.rules.join(", ")
                ),
            });
        }
    }

    findings.sort_by(|a, b| (a.line, a.rule).cmp(&(b.line, b.rule)));
    FileLint { findings, used }
}

/// `.unwrap()`, `.expect(`, and the panicking macros in library code.
fn panic_free(
    toks: &[Token],
    i: usize,
    out: &mut Vec<Finding>,
    f: &impl Fn(u32, &'static str, String) -> Finding,
) {
    if let Some(t) = ident_at(toks, i) {
        let method_call = is_punct(toks, i.wrapping_sub(1), ".") && is_punct(toks, i + 1, "(");
        if method_call && (t.text == "unwrap" || t.text == "expect") {
            out.push(f(
                t.line,
                "panic-free-lib",
                format!(
                    ".{}() can panic in library code — return a named error instead \
                     (see `SpecError`), or justify with `// lint: allow(panic-free-lib): <why>`",
                    t.text
                ),
            ));
        }
        let is_macro = is_punct(toks, i + 1, "!");
        if is_macro
            && matches!(
                t.text.as_str(),
                "panic" | "unreachable" | "todo" | "unimplemented"
            )
        {
            out.push(f(
                t.line,
                "panic-free-lib",
                format!(
                    "{}! aborts the worker thread — library code must surface a named error",
                    t.text
                ),
            ));
        }
    }
}

/// Raw `thread::spawn` / `thread::scope` / `.spawn(` outside
/// `mlscale_core::par`.
fn par_only(
    input: &FileInput,
    toks: &[Token],
    i: usize,
    out: &mut Vec<Finding>,
    f: &impl Fn(u32, &'static str, String) -> Finding,
) {
    if input.path == PAR_HOME {
        return; // the one place allowed to own raw threads
    }
    if let Some(t) = ident_at(toks, i) {
        if t.text == "thread"
            && is_path_sep(toks, i + 1)
            && ident_at(toks, i + 3).is_some_and(|n| n.text == "spawn" || n.text == "scope")
        {
            let what = &toks[i + 3].text;
            out.push(f(
                t.line,
                "par-only-threads",
                format!(
                    "raw `thread::{what}` — route parallel work through `mlscale_core::par` \
                     so MLSCALE_THREADS and the determinism guarantees apply"
                ),
            ));
        }
        // `handle.spawn(…)` on a scope handle obtained elsewhere.
        if t.text == "spawn"
            && is_punct(toks, i.wrapping_sub(1), ".")
            && is_punct(toks, i + 1, "(")
            && ident_at(toks, i.wrapping_sub(2)).is_none_or(|p| p.text != "thread")
        {
            out.push(f(
                t.line,
                "par-only-threads",
                "`.spawn(…)` outside `mlscale_core::par` — use `par::map` (or justify: \
                 `// lint: allow(par-only-threads): <why>`)"
                    .to_string(),
            ));
        }
    }
}

/// Wall clocks, OS entropy, and ad-hoc environment reads on evaluation
/// paths.
fn determinism(
    input: &FileInput,
    toks: &[Token],
    i: usize,
    out: &mut Vec<Finding>,
    f: &impl Fn(u32, &'static str, String) -> Finding,
) {
    if let Some(t) = ident_at(toks, i) {
        if (t.text == "Instant" || t.text == "SystemTime")
            && is_path_sep(toks, i + 1)
            && ident_at(toks, i + 3).is_some_and(|n| n.text == "now")
        {
            out.push(f(
                t.line,
                "determinism",
                format!(
                    "`{}::now()` reads the wall clock — golden fixtures require \
                     byte-reproducible output (timing paths justify with an allow)",
                    t.text
                ),
            ));
        }
        if matches!(
            t.text.as_str(),
            "thread_rng" | "from_entropy" | "OsRng" | "getrandom" | "RandomState"
        ) {
            out.push(f(
                t.line,
                "determinism",
                format!(
                    "`{}` draws OS entropy — every RNG must be seeded (`StdRng::seed_from_u64`)",
                    t.text
                ),
            ));
        }
        if t.text == "env"
            && is_path_sep(toks, i + 1)
            && ident_at(toks, i + 3).is_some_and(|n| n.text == "var" || n.text == "var_os")
            && !ENV_HOMES.contains(&input.path.as_str())
        {
            out.push(f(
                t.line,
                "determinism",
                format!(
                    "raw `env::{}(…)` — each environment knob has one owning module \
                     (MLSCALE_THREADS in `mlscale_core::par`, MLSCALE_FAULTS in \
                     `mlscale_core::faultpoint`) that validates it once; read through \
                     its typed API instead",
                    toks[i + 3].text
                ),
            ));
        }
    }
}

/// Direct file writes that bypass the temp-file + rename helpers.
fn atomic_io(
    toks: &[Token],
    i: usize,
    out: &mut Vec<Finding>,
    f: &impl Fn(u32, &'static str, String) -> Finding,
) {
    if let Some(t) = ident_at(toks, i) {
        let path_call = |n: usize, name: &str| {
            is_path_sep(toks, n + 1) && ident_at(toks, n + 3).is_some_and(|m| m.text == name)
        };
        if (t.text == "fs" && path_call(i, "write"))
            || (t.text == "File" && path_call(i, "create"))
            || t.text == "OpenOptions"
        {
            out.push(f(
                t.line,
                "atomic-results-io",
                "direct file write — results must go through a temp-file + rename helper \
                 (`mlscale_bench::emit`, `scenario::write_outcome`, \
                 `scenario::ShardedStore::write_shard`; inside the scenario crate, \
                 `store::write_atomic`) so interruption never leaves a truncated JSON"
                    .to_string(),
            ));
        }
    }
}

/// Whether the token stream contains `#![forbid(unsafe_code)]` or
/// `#![deny(unsafe_code)]`.
fn has_unsafe_attr(toks: &[Token]) -> bool {
    toks.windows(8).any(|w| {
        w[0].text == "#"
            && w[1].text == "!"
            && w[2].text == "["
            && (w[3].text == "forbid" || w[3].text == "deny")
            && w[4].text == "("
            && w[5].text == "unsafe_code"
            && w[6].text == ")"
            && w[7].text == "]"
    })
}

fn ident_at(toks: &[Token], i: usize) -> Option<&Token> {
    toks.get(i).filter(|t| t.kind == TokKind::Ident)
}

fn is_punct(toks: &[Token], i: usize, p: &str) -> bool {
    toks.get(i)
        .is_some_and(|t| t.kind == TokKind::Punct && t.text == p)
}

/// `::` as two adjacent `:` puncts starting at `i`.
fn is_path_sep(toks: &[Token], i: usize) -> bool {
    is_punct(toks, i, ":") && is_punct(toks, i + 1, ":")
}
