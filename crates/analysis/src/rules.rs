//! The detlint rulebook: determinism and concurrency rules D1–D7.
//!
//! Each rule is a pattern over the token stream of one file, filtered by
//! the file's workspace-relative path. Findings are suppressed by an
//! allowlist comment `// detlint: allow(<rule>) reason="…"` on the same
//! line or on a contiguous run of comment lines directly above the
//! offending statement, and by justification comments (`// SAFETY:`,
//! `// ORDERING:`) for rule D4.

use crate::lexer::{Lexed, Tok};
use crate::Finding;

/// Crates whose hot paths must not iterate unordered collections (D1) —
/// an unordered `HashMap`/`HashSet` walk is the canonical way to break
/// sharded ≡ sequential bit-identity.
const D1_SCOPE: &[&str] = &[
    "crates/sim/",
    "crates/core/",
    "crates/matching/",
    "crates/queues/",
];

/// The only tree allowed to read wall clocks or entropy (D2): benchmarks
/// measure real time by definition. Everything else must run on simulated
/// slots and seeded RNGs.
const D2_EXEMPT: &[&str] = &["crates/bench/"];

/// The one module sanctioned to create threads (D3): the streaming seam's
/// producer pump — a feeder thread whose timing never reaches the
/// transcript (proven depth-independent and trace-identical by the
/// streaming parity suite). No slot engine spawns one.
const D3_EXEMPT: &[&str] = &["crates/sim/src/stream.rs"];

/// The hand-off module whose every atomic access must say which access it
/// pairs with (D4b): the stream channel's spin-then-park protocol, whose
/// lock-free half is exactly these orderings.
const D4B_SCOPE: &[&str] = &["crates/sim/src/stream.rs"];

/// Engine slot-loop modules where every `unwrap()` must be allowlisted
/// (D5); `expect("invariant message")` documents itself and is exempt.
const D5_SCOPE: &[&str] = &["crates/sim/src/engine.rs", "crates/sim/src/shard.rs"];

/// Types whose complete state crosses a checkpoint boundary (D6): every
/// field must carry a `// snapshot:` comment stating whether it is
/// serialized into [`EngineSnapshot`] or transient (and how it is
/// rebuilt on restore). A silently-added field is the canonical way to
/// break kill/restore equivalence — the snapshot codec won't know about
/// it, and the restored run diverges.
const D6_TYPES: &[&str] = &[
    "SwitchState",
    "QueueBand",
    "StatsRecorder",
    "LossBreakdown",
    "WindowedStats",
    "SortedQueue",
    "DelayCalendar",
    "FaultRuntime",
    "StreamingSource",
];

/// Crates holding the snapshotted types (D6). The snapshot codec itself
/// (`crates/sim/src/snapshot.rs`) defines the wire structs and is not a
/// state owner, so `EngineSnapshot` is deliberately absent from
/// [`D6_TYPES`].
const D6_SCOPE: &[&str] = &["crates/sim/", "crates/queues/"];

/// The memory-ordering names of `std::sync::atomic::Ordering` (D4b).
const ATOMIC_ORDERINGS: &[&str] = &["Relaxed", "Acquire", "Release", "AcqRel", "SeqCst"];

/// How many comment-only lines above a finding are searched for an
/// allowlist or justification comment.
const COMMENT_SCAN_LINES: u32 = 8;

fn in_scope(path: &str, prefixes: &[&str]) -> bool {
    prefixes.iter().any(|p| path.starts_with(p))
}

/// Whether any comment attached to `line` (same line, or the contiguous
/// comment-only block directly above) contains `needle`.
fn comment_near(lx: &Lexed, line: u32, needle: &str) -> bool {
    if let Some(c) = lx.comments.get(&line) {
        if c.contains(needle) {
            return true;
        }
    }
    let mut l = line;
    let mut budget = COMMENT_SCAN_LINES;
    while l > 1 && budget > 0 {
        l -= 1;
        budget -= 1;
        if lx.is_comment_only(l) {
            if lx.comments[&l].contains(needle) {
                return true;
            }
            continue;
        }
        if lx.token_lines.contains(&l) {
            // A code line above: the comment block (if any) has ended —
            // unless this line is a statement continuation (doesn't end in
            // `;`/`{`/`}`), in which case the comment may sit above the
            // statement's first line. Keep scanning in that case.
            match lx.last_punct.get(&l) {
                Some(';') | Some('{') | Some('}') => return false,
                _ => continue,
            }
        }
        // Blank line: stop, the comment must be adjacent.
        return false;
    }
    false
}

/// Whether a finding of `rule` at `line` carries a
/// `// detlint: allow(<rule>)` comment.
fn allowlisted(lx: &Lexed, line: u32, rule: &str) -> bool {
    comment_near(lx, line, &format!("detlint: allow({rule})"))
}

fn push(
    findings: &mut Vec<Finding>,
    lx: &Lexed,
    rule: &'static str,
    path: &str,
    line: u32,
    what: String,
) {
    if !allowlisted(lx, line, rule) {
        findings.push(Finding {
            rule,
            path: path.to_string(),
            line,
            what,
        });
    }
}

/// Run the full rulebook over one lexed file. `live` masks out tokens in
/// `#[cfg(test)]` regions; `path` is workspace-relative with `/` separators.
pub fn scan_file(path: &str, lx: &Lexed, mask: &[bool]) -> Vec<Finding> {
    let mut findings = Vec::new();
    let toks = &lx.toks;
    let live = |i: usize| !mask[i];

    let d1 = in_scope(path, D1_SCOPE);
    let d2 = !in_scope(path, D2_EXEMPT);
    let d3 = !in_scope(path, D3_EXEMPT);
    let d4b = D4B_SCOPE.iter().any(|p| path.ends_with(p));
    let d5 = D5_SCOPE.contains(&path);

    for i in 0..toks.len() {
        if !live(i) {
            continue;
        }
        let line = toks[i].line();
        let Some(id) = toks[i].ident() else {
            // D4a: `unsafe` is a keyword but lexes as an identifier, so
            // only identifier tokens matter; skip punctuation/literals.
            continue;
        };

        // D1: unordered collections in determinism-critical crates.
        if d1 && (id == "HashMap" || id == "HashSet") {
            push(
                &mut findings,
                lx,
                "D1",
                path,
                line,
                format!("unordered collection `{id}` in determinism-critical crate (use BTreeMap/BTreeSet or a Vec with explicit sort)"),
            );
        }

        // D2: wall clock / entropy outside bench.
        if d2 {
            if (id == "Instant" || id == "SystemTime")
                && toks.get(i + 1).is_some_and(|t| t.is_punct(':'))
                && toks.get(i + 2).is_some_and(|t| t.is_punct(':'))
                && toks.get(i + 3).and_then(Tok::ident) == Some("now")
            {
                push(
                    &mut findings,
                    lx,
                    "D2",
                    path,
                    line,
                    format!("wall-clock read `{id}::now()` outside crates/bench"),
                );
            } else if id == "SystemTime" || id == "thread_rng" {
                push(
                    &mut findings,
                    lx,
                    "D2",
                    path,
                    line,
                    format!("nondeterminism source `{id}` outside crates/bench"),
                );
            }
        }

        // D3: thread creation outside the sanctioned shard module.
        if d3
            && (id == "spawn" || id == "scope")
            && i >= 2
            && toks[i - 1].is_punct(':')
            && toks[i - 2].is_punct(':')
            && toks.get(i + 1).is_some_and(|t| t.is_punct('('))
        {
            // Match `thread::spawn(` / `thread::scope(` and method-style
            // `scope.spawn(` is caught by the plain `.spawn(` arm below.
            let receiver = (0..i.saturating_sub(2))
                .rev()
                .find(|&j| live(j))
                .and_then(|j| toks[j].ident());
            if receiver == Some("thread") {
                push(
                    &mut findings,
                    lx,
                    "D3",
                    path,
                    line,
                    format!("thread creation `thread::{id}(` outside sim::shard"),
                );
            }
        }
        if d3
            && id == "spawn"
            && i >= 1
            && toks[i - 1].is_punct('.')
            && toks.get(i + 1).is_some_and(|t| t.is_punct('('))
        {
            push(
                &mut findings,
                lx,
                "D3",
                path,
                line,
                "scoped thread spawn `.spawn(` outside sim::shard".to_string(),
            );
        }

        // D4a: unsafe without a SAFETY comment.
        if id == "unsafe" && !comment_near(lx, line, "SAFETY:") {
            push(
                &mut findings,
                lx,
                "D4",
                path,
                line,
                "`unsafe` without a `// SAFETY:` comment".to_string(),
            );
        }

        // D4b: atomic Ordering in a hand-off module without an ORDERING
        // comment.
        if d4b
            && id == "Ordering"
            && toks.get(i + 1).is_some_and(|t| t.is_punct(':'))
            && toks.get(i + 2).is_some_and(|t| t.is_punct(':'))
        {
            if let Some(ord) = toks.get(i + 3).and_then(Tok::ident) {
                if ATOMIC_ORDERINGS.contains(&ord) && !comment_near(lx, line, "ORDERING:") {
                    push(
                        &mut findings,
                        lx,
                        "D4",
                        path,
                        line,
                        format!("atomic `Ordering::{ord}` in a hand-off module without a `// ORDERING:` justification"),
                    );
                }
            }
        }

        // D5: bare unwrap() in engine slot-loop modules.
        if d5
            && id == "unwrap"
            && i >= 1
            && toks[i - 1].is_punct('.')
            && toks.get(i + 1).is_some_and(|t| t.is_punct('('))
        {
            push(
                &mut findings,
                lx,
                "D5",
                path,
                line,
                "bare `.unwrap()` in engine slot loop (use an invariant-message `expect()` or a ConfigError)".to_string(),
            );
        }
    }

    scan_d6(path, lx, mask, &mut findings);
    scan_d7(path, lx, mask, &mut findings);
    findings
}

/// D6: every field of a snapshotted type needs a `// snapshot:` comment.
///
/// Finds `struct <Name>` for each name in [`D6_TYPES`], walks the braced
/// body tracking brace depth, and treats each `ident :` pair at depth 1
/// (a single colon — `::` path segments are excluded) as a field
/// declaration. A field whose attached comment block does not mention
/// `snapshot:` is a finding: either the field is serialized by the
/// snapshot codec (say so), or it is transient and the comment must say
/// how restore reconstructs it.
fn scan_d6(path: &str, lx: &Lexed, mask: &[bool], findings: &mut Vec<Finding>) {
    if !in_scope(path, D6_SCOPE) {
        return;
    }
    let toks = &lx.toks;
    let mut i = 0usize;
    while i < toks.len() {
        if mask[i] || toks[i].ident() != Some("struct") {
            i += 1;
            continue;
        }
        let Some(name) = toks.get(i + 1).and_then(Tok::ident) else {
            i += 1;
            continue;
        };
        if !D6_TYPES.contains(&name) {
            i += 2;
            continue;
        }
        // Advance past generics/where-clause to the body. A `;` or `(`
        // first means a unit or tuple struct — no named fields to audit.
        let mut j = i + 2;
        let body_open = loop {
            match toks.get(j) {
                None => break None,
                Some(t) if t.is_punct('{') => break Some(j),
                Some(t) if t.is_punct(';') || t.is_punct('(') => break None,
                Some(_) => j += 1,
            }
        };
        let Some(open) = body_open else {
            i = j + 1;
            continue;
        };
        let mut depth = 1usize;
        let mut k = open + 1;
        while k < toks.len() && depth > 0 {
            if toks[k].is_punct('{') {
                depth += 1;
            } else if toks[k].is_punct('}') {
                depth -= 1;
            } else if depth == 1 && !mask[k] {
                // A field: identifier followed by a single `:` (not a
                // `::` path). Visibility (`pub`, `pub(crate)`) and type
                // tokens never match this shape at body depth.
                if let Some(field) = toks[k].ident() {
                    if toks.get(k + 1).is_some_and(|t| t.is_punct(':'))
                        && !toks.get(k + 2).is_some_and(|t| t.is_punct(':'))
                        && !comment_near(lx, toks[k].line(), "snapshot:")
                    {
                        push(
                            findings,
                            lx,
                            "D6",
                            path,
                            toks[k].line(),
                            format!(
                                "field `{field}` of snapshotted type `{name}` lacks a `// snapshot:` comment (serialized or transient-with-rebuild)"
                            ),
                        );
                    }
                }
            }
            k += 1;
        }
        i = k;
    }
}

/// D7: no heap allocation in a function annotated `// detlint: hot`.
///
/// The annotation marks a slot-loop body the allocation census
/// (`alloc_census`, `--features alloc-audit`) proves allocation-free;
/// this rule keeps it that way between census runs. Inside the annotated
/// function's braced body, `Vec::new`, `vec![`, `Box::new`, `.to_vec(`
/// and `.collect` are findings unless carrying an allow comment with a
/// reason (`// detlint: allow(D7) reason="…"`) — e.g. a cold error path
/// that only allocates after an invariant has already failed.
fn scan_d7(path: &str, lx: &Lexed, mask: &[bool], findings: &mut Vec<Finding>) {
    let mut hot_lines: Vec<u32> = lx
        .comments
        .iter()
        .filter(|&(_, c)| {
            // Only the annotation itself (`// detlint: hot`), not prose
            // that merely mentions it — e.g. this rule's own doc comment.
            c.trim_start_matches('/')
                .trim_start()
                .starts_with("detlint: hot")
        })
        .map(|(&l, _)| l)
        .collect();
    hot_lines.sort_unstable();
    let toks = &lx.toks;
    for &hot in &hot_lines {
        // The annotated function: first `fn` past the annotation line.
        let Some(fn_i) =
            (0..toks.len()).find(|&i| toks[i].line() > hot && toks[i].ident() == Some("fn"))
        else {
            continue;
        };
        // Body opens at the first `{` outside the parameter list; a `;`
        // first means a bodyless trait method — nothing to audit.
        let mut j = fn_i + 1;
        let mut paren = 0usize;
        let open = loop {
            match toks.get(j) {
                None => break None,
                Some(t) if t.is_punct('(') => paren += 1,
                Some(t) if t.is_punct(')') => paren -= 1,
                Some(t) if t.is_punct('{') && paren == 0 => break Some(j),
                Some(t) if t.is_punct(';') && paren == 0 => break None,
                Some(_) => {}
            }
            j += 1;
        };
        let Some(open) = open else { continue };
        let mut depth = 1usize;
        let mut k = open + 1;
        while k < toks.len() && depth > 0 {
            if toks[k].is_punct('{') {
                depth += 1;
            } else if toks[k].is_punct('}') {
                depth -= 1;
            } else if !mask[k] {
                if let Some(id) = toks[k].ident() {
                    let line = toks[k].line();
                    let after_dot = k >= 1 && toks[k - 1].is_punct('.');
                    let path_new = toks.get(k + 1).is_some_and(|t| t.is_punct(':'))
                        && toks.get(k + 2).is_some_and(|t| t.is_punct(':'))
                        && toks.get(k + 3).and_then(Tok::ident) == Some("new");
                    let what = match id {
                        "vec" if toks.get(k + 1).is_some_and(|t| t.is_punct('!')) => {
                            Some("`vec![` allocates".to_string())
                        }
                        "Vec" | "Box" if path_new => Some(format!("`{id}::new()` allocates")),
                        "to_vec" if after_dot => Some("`.to_vec()` allocates".to_string()),
                        "collect" if after_dot => Some("`.collect()` allocates".to_string()),
                        _ => None,
                    };
                    if let Some(what) = what {
                        push(
                            findings,
                            lx,
                            "D7",
                            path,
                            line,
                            format!("{what} in a `// detlint: hot` slot-loop function"),
                        );
                    }
                }
            }
            k += 1;
        }
    }
}
