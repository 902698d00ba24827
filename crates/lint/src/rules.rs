//! The per-file token rules and the inline-waiver machinery.
//!
//! Every rule skips `#[cfg(test)]` / `mod tests` regions — test code may
//! panic and allocate freely.  Findings can be waived inline:
//!
//! ```text
//! // ds-lint: allow(no-panic-in-serve) -- worker startup, not the request path
//! ```
//!
//! The reason after `--` is mandatory; a reasonless waiver is itself a
//! finding (`waiver-syntax`), as is a waiver that suppresses nothing
//! (`waiver-unused`) — stale waivers would otherwise silently outlive the
//! code they excused.  A waiver on its own line covers the next code line; a
//! trailing waiver covers its own line.

use crate::lexer::{Comment, Lexed, Tok, TokKind};
use crate::report::Finding;

/// Rule slug: allocation inside `_in`/`_into` kernels of `ds-linalg`.
pub const HOT_PATH_ALLOC: &str = "hot-path-alloc";
/// Rule slug: panicking calls in `ds-serve` / `ds-harness::store`.
pub const NO_PANIC_IN_SERVE: &str = "no-panic-in-serve";
/// Rule slug: `.lock().unwrap()` anywhere in the workspace.
pub const LOCK_DISCIPLINE: &str = "lock-discipline";
/// Rule slug: undocumented `unsafe` blocks / missing crate-root forbids.
pub const UNSAFE_SAFETY_COMMENT: &str = "unsafe-safety-comment";
/// Rule slug: malformed waiver comments.
pub const WAIVER_SYNTAX: &str = "waiver-syntax";
/// Rule slug: waivers that suppressed nothing.
pub const WAIVER_UNUSED: &str = "waiver-unused";

/// Every rule slug ds-lint can emit, for `--list-rules` and waiver validation.
pub const ALL_RULES: &[&str] = &[
    HOT_PATH_ALLOC,
    NO_PANIC_IN_SERVE,
    LOCK_DISCIPLINE,
    UNSAFE_SAFETY_COMMENT,
    WAIVER_SYNTAX,
    WAIVER_UNUSED,
    crate::invariants::SCHEMA_ONCE,
    crate::invariants::CI_REFS,
    crate::invariants::DEP_CYCLE,
    crate::invariants::README_CRATE_MAP,
];

/// One source file ready for rule matching.
#[derive(Debug)]
pub struct FileSource {
    /// Workspace-relative path with `/` separators.
    pub path: String,
    /// Owning package name (`ds-linalg`, …).
    pub package: String,
    /// Token/comment streams.
    pub lexed: Lexed,
}

/// A parsed inline waiver.
#[derive(Debug)]
struct Waiver {
    rules: Vec<String>,
    line: u32,
    col: u32,
    target_line: u32,
    used: bool,
    malformed: Option<String>,
}

fn parse_waivers(lexed: &Lexed) -> Vec<Waiver> {
    let mut waivers = Vec::new();
    for c in &lexed.comments {
        let Some(rest) = c.text.strip_prefix("ds-lint:") else {
            continue;
        };
        let rest = rest.trim();
        let target_line = if c.own_line {
            // The first code token after the comment line carries the waiver.
            lexed
                .toks
                .iter()
                .find(|t| t.line > c.line)
                .map_or(c.line + 1, |t| t.line)
        } else {
            c.line
        };
        let mut waiver = Waiver {
            rules: Vec::new(),
            line: c.line,
            col: c.col,
            target_line,
            used: false,
            malformed: None,
        };
        let parsed = (|| -> Result<Vec<String>, String> {
            let body = rest
                .strip_prefix("allow(")
                .ok_or("expected `ds-lint: allow(<rule>) -- <reason>`")?;
            let close = body.find(')').ok_or("unclosed `allow(` in waiver")?;
            let rules: Vec<String> = body[..close]
                .split(',')
                .map(|r| r.trim().to_string())
                .filter(|r| !r.is_empty())
                .collect();
            if rules.is_empty() {
                return Err("waiver names no rules".to_string());
            }
            for rule in &rules {
                if !ALL_RULES.contains(&rule.as_str()) {
                    return Err(format!("waiver names unknown rule {rule:?}"));
                }
            }
            let tail = body[close + 1..].trim();
            let reason = tail
                .strip_prefix("--")
                .map(str::trim)
                .ok_or("waiver reason is mandatory: `-- <reason>`")?;
            if reason.is_empty() {
                return Err("waiver reason is empty".to_string());
            }
            Ok(rules)
        })();
        match parsed {
            Ok(rules) => waiver.rules = rules,
            Err(msg) => waiver.malformed = Some(msg),
        }
        waivers.push(waiver);
    }
    waivers
}

/// Runs all token rules over one file and applies its waivers.
pub fn check_file(file: &FileSource) -> Vec<Finding> {
    let mut raw = Vec::new();
    let toks = &file.lexed.toks;

    if file.path.starts_with("crates/linalg/src/") {
        hot_path_alloc(file, toks, &mut raw);
    }
    if file.path.starts_with("crates/serve/src/") || file.path == "crates/harness/src/store.rs" {
        no_panic(file, toks, &mut raw);
    }
    lock_discipline(file, toks, &mut raw);
    unsafe_safety(file, toks, &file.lexed.comments, &mut raw);

    // Waivers: drop findings covered by a well-formed waiver on their line.
    let mut waivers = parse_waivers(&file.lexed);
    let mut kept: Vec<Finding> = Vec::new();
    for finding in raw {
        let mut waived = false;
        for w in &mut waivers {
            if w.malformed.is_none()
                && w.target_line == finding.line
                && w.rules.iter().any(|r| r == finding.rule)
            {
                w.used = true;
                waived = true;
            }
        }
        if !waived {
            kept.push(finding);
        }
    }
    for w in &waivers {
        if let Some(msg) = &w.malformed {
            kept.push(Finding {
                rule: WAIVER_SYNTAX,
                file: file.path.clone(),
                line: w.line,
                col: w.col,
                message: msg.clone(),
            });
        } else if !w.used {
            kept.push(Finding {
                rule: WAIVER_UNUSED,
                file: file.path.clone(),
                line: w.line,
                col: w.col,
                message: format!(
                    "waiver for {} suppressed nothing on line {}",
                    w.rules.join(", "),
                    w.target_line
                ),
            });
        }
    }
    kept
}

fn ident(t: &Tok, text: &str) -> bool {
    t.kind == TokKind::Ident && t.text == text
}

fn punct(t: &Tok, ch: char) -> bool {
    t.kind == TokKind::Punct && t.text.len() == 1 && t.text.as_bytes()[0] == ch as u8
}

/// Matches `.name` at `toks[i]` (i.e. `toks[i] == '.'`, `toks[i+1] == name`).
fn dot_call(toks: &[Tok], i: usize, name: &str) -> bool {
    punct(&toks[i], '.') && toks.get(i + 1).is_some_and(|t| ident(t, name))
}

/// Matches `A::b` starting at `toks[i]`.
fn path_call(toks: &[Tok], i: usize, head: &str, tail: &str) -> bool {
    ident(&toks[i], head)
        && toks.get(i + 1).is_some_and(|t| punct(t, ':'))
        && toks.get(i + 2).is_some_and(|t| punct(t, ':'))
        && toks.get(i + 3).is_some_and(|t| ident(t, tail))
}

/// Matches `name!` starting at `toks[i]`.
fn bang_macro(toks: &[Tok], i: usize, name: &str) -> bool {
    ident(&toks[i], name) && toks.get(i + 1).is_some_and(|t| punct(t, '!'))
}

fn finding(rule: &'static str, file: &FileSource, tok: &Tok, message: String) -> Finding {
    Finding {
        rule,
        file: file.path.clone(),
        line: tok.line,
        col: tok.col,
        message,
    }
}

/// `hot-path-alloc`: inside the body of any function whose name ends in
/// `_in` / `_into`, or `_body` (the kernel bodies those entry points run
/// through `ds_linalg::simd::wide`), the allocating constructs that
/// `tests/alloc_regression.rs` polices dynamically are forbidden statically.
fn hot_path_alloc(file: &FileSource, toks: &[Tok], out: &mut Vec<Finding>) {
    let mut i = 0;
    while i < toks.len() {
        if ident(&toks[i], "fn") && !toks[i].in_test {
            if let Some(name_tok) = toks.get(i + 1) {
                let name = name_tok.text.as_str();
                if name_tok.kind == TokKind::Ident
                    && ["_in", "_into", "_body"]
                        .iter()
                        .any(|end| name.ends_with(end))
                {
                    if let Some((body_start, body_end)) = body_span(toks, i + 2) {
                        scan_alloc(file, &toks[body_start..body_end], name, out);
                        i = body_end;
                        continue;
                    }
                }
            }
        }
        i += 1;
    }
}

/// Finds the `{ … }` body following a function signature that starts at
/// `from` (just past the name).  Returns token index range of the body, or
/// `None` for a body-less declaration (trait method, `;`-terminated).
fn body_span(toks: &[Tok], from: usize) -> Option<(usize, usize)> {
    let mut paren = 0i32;
    let mut i = from;
    while i < toks.len() {
        let t = &toks[i];
        if t.kind == TokKind::Punct {
            match t.text.as_bytes()[0] {
                b'(' => paren += 1,
                b')' => paren -= 1,
                b';' if paren == 0 => return None,
                b'{' if paren == 0 => {
                    // Matching close: count braces.
                    let mut depth = 1i32;
                    let mut j = i + 1;
                    while j < toks.len() && depth > 0 {
                        if punct(&toks[j], '{') {
                            depth += 1;
                        } else if punct(&toks[j], '}') {
                            depth -= 1;
                        }
                        j += 1;
                    }
                    return Some((i + 1, j.saturating_sub(1)));
                }
                _ => {}
            }
        }
        i += 1;
    }
    None
}

fn scan_alloc(file: &FileSource, body: &[Tok], fn_name: &str, out: &mut Vec<Finding>) {
    let mut i = 0;
    while i < body.len() {
        let t = &body[i];
        if t.in_test {
            i += 1;
            continue;
        }
        let hit: Option<&str> =
            if path_call(body, i, "Vec", "new") || path_call(body, i, "Vec", "with_capacity") {
                Some("Vec allocation")
            } else if path_call(body, i, "Box", "new") {
                Some("Box::new")
            } else if path_call(body, i, "Matrix", "zeros") {
                Some("Matrix::zeros")
            } else if bang_macro(body, i, "vec") {
                Some("vec! macro")
            } else if bang_macro(body, i, "format") {
                Some("format! macro")
            } else if dot_call(body, i, "to_vec") {
                Some(".to_vec()")
            } else if dot_call(body, i, "collect") {
                Some(".collect()")
            } else if dot_call(body, i, "clone")
                && body.get(i + 2).is_some_and(|t| punct(t, '('))
                && body.get(i + 3).is_some_and(|t| punct(t, ')'))
            {
                Some(".clone()")
            } else if ident(t, "with_capacity") && i > 0 && punct(&body[i - 1], '.') {
                Some(".with_capacity()")
            } else {
                None
            };
        if let Some(what) = hit {
            let at = if punct(t, '.') { &body[i + 1] } else { t };
            out.push(finding(
                HOT_PATH_ALLOC,
                file,
                at,
                format!("{what} inside zero-allocation kernel `{fn_name}`"),
            ));
            i += 2;
            continue;
        }
        i += 1;
    }
}

/// `no-panic-in-serve`: `.unwrap()` / `.expect(` / `panic!` / `unreachable!`
/// (plus `todo!` / `unimplemented!`) forbidden in non-test daemon code.
fn no_panic(file: &FileSource, toks: &[Tok], out: &mut Vec<Finding>) {
    for i in 0..toks.len() {
        let t = &toks[i];
        if t.in_test {
            continue;
        }
        let hit: Option<(&Tok, &str)> = if dot_call(toks, i, "unwrap")
            && toks.get(i + 2).is_some_and(|t| punct(t, '('))
            && toks.get(i + 3).is_some_and(|t| punct(t, ')'))
        {
            Some((&toks[i + 1], ".unwrap() can panic"))
        } else if dot_call(toks, i, "expect") && toks.get(i + 2).is_some_and(|t| punct(t, '(')) {
            Some((&toks[i + 1], ".expect() can panic"))
        } else if bang_macro(toks, i, "panic") {
            Some((t, "panic! in daemon code"))
        } else if bang_macro(toks, i, "unreachable") {
            Some((t, "unreachable! in daemon code"))
        } else if bang_macro(toks, i, "todo") || bang_macro(toks, i, "unimplemented") {
            Some((t, "unfinished-code macro in daemon code"))
        } else {
            None
        };
        if let Some((at, msg)) = hit {
            out.push(finding(NO_PANIC_IN_SERVE, file, at, msg.to_string()));
        }
    }
}

/// `lock-discipline`: `.lock().unwrap()` / `.lock().expect(` forbidden —
/// a panicked holder poisons the mutex and every later lock panics too;
/// use `ds_harness::sync::lock_infallible` instead.
fn lock_discipline(file: &FileSource, toks: &[Tok], out: &mut Vec<Finding>) {
    for i in 0..toks.len() {
        let t = &toks[i];
        if t.in_test {
            continue;
        }
        if dot_call(toks, i, "lock")
            && toks.get(i + 2).is_some_and(|t| punct(t, '('))
            && toks.get(i + 3).is_some_and(|t| punct(t, ')'))
            && toks.get(i + 4).is_some_and(|t| punct(t, '.'))
            && toks
                .get(i + 5)
                .is_some_and(|t| ident(t, "unwrap") || ident(t, "expect"))
        {
            out.push(finding(
                LOCK_DISCIPLINE,
                file,
                &toks[i + 5],
                "poison-intolerant .lock().unwrap(); use ds_harness::sync::lock_infallible"
                    .to_string(),
            ));
        }
    }
}

/// `unsafe-safety-comment` (token half): every `unsafe {` block needs a
/// `// SAFETY:` comment on the same line or within the four lines above it.
fn unsafe_safety(file: &FileSource, toks: &[Tok], comments: &[Comment], out: &mut Vec<Finding>) {
    for i in 0..toks.len() {
        let t = &toks[i];
        if t.in_test || !ident(t, "unsafe") {
            continue;
        }
        if !toks.get(i + 1).is_some_and(|n| punct(n, '{')) {
            continue; // `unsafe fn` / `unsafe impl` headers document elsewhere
        }
        // Accept `SAFETY:` anywhere in the contiguous comment block ending on
        // the line directly above the `unsafe`, or in a same-line comment.
        let comment_lines: std::collections::HashMap<u32, &str> = comments
            .iter()
            .filter(|c| c.own_line)
            .map(|c| (c.line, c.text.as_str()))
            .collect();
        let mut documented = comments
            .iter()
            .any(|c| c.line == t.line && c.text.contains("SAFETY:"));
        let mut line = t.line.saturating_sub(1);
        while let Some(text) = comment_lines.get(&line) {
            if text.contains("SAFETY:") {
                documented = true;
                break;
            }
            if line == 0 {
                break;
            }
            line -= 1;
        }
        if !documented {
            out.push(finding(
                UNSAFE_SAFETY_COMMENT,
                file,
                t,
                "unsafe block without a preceding `// SAFETY:` comment".to_string(),
            ));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    fn file(path: &str, package: &str, src: &str) -> FileSource {
        FileSource {
            path: path.to_string(),
            package: package.to_string(),
            lexed: lex(src),
        }
    }

    #[test]
    fn lock_unwrap_is_flagged_everywhere_but_not_in_tests() {
        let src = "fn f(m: &Mutex<u8>) { let _ = m.lock().unwrap(); }\nmod tests { fn t(m: &Mutex<u8>) { let _ = m.lock().unwrap(); } }\n";
        let findings = check_file(&file("crates/x/src/lib.rs", "ds-x", src));
        assert_eq!(findings.len(), 1);
        assert_eq!(findings[0].rule, LOCK_DISCIPLINE);
        assert_eq!(findings[0].line, 1);
    }

    #[test]
    fn own_line_waiver_covers_the_next_code_line_and_is_marked_used() {
        let src = "fn f(m: &Mutex<u8>) {\n    // ds-lint: allow(lock-discipline) -- exercising the waiver path\n    let _ = m.lock().unwrap();\n}\n";
        let findings = check_file(&file("crates/x/src/lib.rs", "ds-x", src));
        assert!(findings.is_empty(), "unexpected: {findings:?}");
    }

    #[test]
    fn trailing_waiver_covers_its_own_line() {
        let src = "fn f(m: &Mutex<u8>) { let _ = m.lock().unwrap(); } // ds-lint: allow(lock-discipline) -- trailing form\n";
        let findings = check_file(&file("crates/x/src/lib.rs", "ds-x", src));
        assert!(findings.is_empty(), "unexpected: {findings:?}");
    }

    #[test]
    fn reasonless_waiver_is_a_syntax_finding() {
        let src = "// ds-lint: allow(lock-discipline)\nfn f(m: &Mutex<u8>) { let _ = m.lock().unwrap(); }\n";
        let findings = check_file(&file("crates/x/src/lib.rs", "ds-x", src));
        let rules: Vec<&str> = findings.iter().map(|f| f.rule).collect();
        assert!(rules.contains(&WAIVER_SYNTAX), "got {rules:?}");
        // The reasonless waiver must NOT suppress the finding it sat above.
        assert!(rules.contains(&LOCK_DISCIPLINE), "got {rules:?}");
    }

    #[test]
    fn unknown_rule_waiver_is_a_syntax_finding() {
        let src = "// ds-lint: allow(no-such-rule) -- why not\nfn f() {}\n";
        let findings = check_file(&file("crates/x/src/lib.rs", "ds-x", src));
        assert_eq!(findings.len(), 1);
        assert_eq!(findings[0].rule, WAIVER_SYNTAX);
        assert!(findings[0].message.contains("no-such-rule"));
    }

    #[test]
    fn unused_waiver_is_flagged() {
        let src = "// ds-lint: allow(lock-discipline) -- nothing here needs it\nfn f() {}\n";
        let findings = check_file(&file("crates/x/src/lib.rs", "ds-x", src));
        assert_eq!(findings.len(), 1);
        assert_eq!(findings[0].rule, WAIVER_UNUSED);
    }

    #[test]
    fn hot_path_alloc_only_fires_in_linalg_kernel_functions() {
        let src = "pub fn solve_in(a: &Matrix) -> f64 { let v = Vec::new(); 0.0 }\npub fn solve(a: &Matrix) -> f64 { let v = Vec::new(); 0.0 }\nfn solve_body(a: &Matrix) { let v = a.clone(); }\n";
        let in_linalg = check_file(&file("crates/linalg/src/solve.rs", "ds-linalg", src));
        assert_eq!(in_linalg.len(), 2, "got {in_linalg:?}");
        assert!(in_linalg.iter().all(|f| f.rule == HOT_PATH_ALLOC));
        assert_eq!(in_linalg[0].line, 1);
        assert_eq!(in_linalg[1].line, 3);
        let elsewhere = check_file(&file("crates/core/src/solve.rs", "ds-passivity", src));
        assert!(elsewhere.is_empty());
    }

    #[test]
    fn no_panic_scope_is_serve_and_store_only() {
        let src = "pub fn f(x: Option<u8>) -> u8 { x.unwrap() }\n";
        let serve = check_file(&file("crates/serve/src/service.rs", "ds-serve", src));
        assert_eq!(serve.len(), 1);
        assert_eq!(serve[0].rule, NO_PANIC_IN_SERVE);
        let store = check_file(&file("crates/harness/src/store.rs", "ds-harness", src));
        assert_eq!(store.len(), 1);
        let other = check_file(&file("crates/harness/src/sweep.rs", "ds-harness", src));
        assert!(other.is_empty());
    }

    #[test]
    fn unsafe_block_requires_a_safety_comment_but_accepts_multiline_blocks() {
        let bad = "fn f() { unsafe { ffi(); } }\n";
        let findings = check_file(&file("crates/serve/src/x.rs", "ds-serve", bad));
        assert!(findings.iter().any(|f| f.rule == UNSAFE_SAFETY_COMMENT));

        let good = "fn f() {\n    // SAFETY: the pointer outlives the call because the arena\n    // owning it is pinned for the whole program.\n    // (continuation lines are fine too)\n    unsafe { ffi(); }\n}\n";
        let findings = check_file(&file("crates/serve/src/x.rs", "ds-serve", good));
        assert!(findings.is_empty(), "unexpected: {findings:?}");
    }

    #[test]
    fn panics_inside_strings_do_not_count() {
        let src = "pub fn f() -> &'static str { \"call .unwrap() for fun\" }\n";
        let findings = check_file(&file("crates/serve/src/x.rs", "ds-serve", src));
        assert!(findings.is_empty(), "unexpected: {findings:?}");
    }
}
