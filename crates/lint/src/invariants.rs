//! Repo-level invariant checks that cut across files: schema strings defined
//! exactly once, CI references that must resolve, an acyclic path-dependency
//! graph, the README crate map, and crate-root `#![forbid(unsafe_code)]`.

use crate::lexer::TokKind;
use crate::report::Finding;
use crate::rules::{FileSource, UNSAFE_SAFETY_COMMENT};
use std::collections::{BTreeMap, BTreeSet};
use std::path::Path;

/// Rule slug: each schema version string is defined in exactly one place.
pub const SCHEMA_ONCE: &str = "schema-once";
/// Rule slug: the CI workflow only references tests/bins/packages/paths that exist.
pub const CI_REFS: &str = "ci-refs";
/// Rule slug: the workspace path-dependency graph is acyclic.
pub const DEP_CYCLE: &str = "dep-cycle";
/// Rule slug: every `crates/*` member appears in the README crate map.
pub const README_CRATE_MAP: &str = "readme-crate-map";

/// Crates allowed to contain `unsafe` (they must still `#![deny(unsafe_code)]`
/// at the root and scope each block with `#[allow(unsafe_code)]` + `// SAFETY:`):
/// `ds-serve` for its `signal(2)` registration, `ds-linalg` for the call into
/// its AVX2 kernel instance after the CPU feature check.
pub const UNSAFE_ALLOWLIST: &[&str] = &["ds-serve", "ds-linalg"];

/// One workspace member, as discovered from the root manifest.
#[derive(Debug, Clone)]
pub struct Member {
    /// Package name (`ds-linalg`).
    pub name: String,
    /// Workspace-relative directory (`crates/linalg`), `.` for the root package.
    pub dir: String,
}

/// The schema version strings whose literal must appear exactly once in
/// non-test code.  Foreign needles are assembled from split literals so this
/// file does not count as a second definition site.
fn schema_needles() -> Vec<(&'static str, String)> {
    vec![
        (
            "check-report",
            concat!("ds-check-report", "/v2").to_string(),
        ),
        ("serve-stats", concat!("ds-serve-stats", "/v1").to_string()),
        ("trace", concat!("ds-trace", "/v1").to_string()),
        ("lint-report", crate::report::REPORT_SCHEMA.to_string()),
        ("lint-baseline", crate::report::BASELINE_SCHEMA.to_string()),
        // Prometheus metric families: the exported name of each series is an
        // external contract (dashboards, alerts), so like a schema string it
        // must have a single definition site (`ds_obs::metrics::names`).
        (
            "metric-check-seconds",
            concat!("ds_serve_check", "_seconds").to_string(),
        ),
        (
            "metric-queue-wait-seconds",
            concat!("ds_serve_queue_wait", "_seconds").to_string(),
        ),
        (
            "metric-stage-seconds",
            concat!("ds_check_stage", "_seconds").to_string(),
        ),
        (
            "metric-requests-total",
            concat!("ds_serve_requests", "_total").to_string(),
        ),
        (
            "metric-cache-hits-total",
            concat!("ds_serve_cache_hits", "_total").to_string(),
        ),
        (
            "metric-errors-total",
            concat!("ds_serve_errors", "_total").to_string(),
        ),
        (
            "metric-queue-depth",
            concat!("ds_serve_queue", "_depth").to_string(),
        ),
    ]
}

/// `schema-once`: each schema string literal and the `GOLDEN_VERSION` const
/// must have exactly one (non-test) definition site in the workspace.
pub fn check_schema_once(files: &[FileSource]) -> Vec<Finding> {
    let mut out = Vec::new();
    for (label, needle) in schema_needles() {
        let mut sites: Vec<String> = Vec::new();
        for f in files {
            for t in &f.lexed.toks {
                if t.kind == TokKind::Str && !t.in_test && t.text == needle {
                    sites.push(format!("{}:{}", f.path, t.line));
                }
            }
        }
        if sites.len() != 1 {
            out.push(Finding {
                rule: SCHEMA_ONCE,
                file: sites.first().cloned().unwrap_or_default(),
                line: 0,
                col: 0,
                message: format!(
                    "schema string {needle:?} ({label}) has {} non-test definition sites (expected 1): [{}]",
                    sites.len(),
                    sites.join(", ")
                ),
            });
        }
    }
    // `const GOLDEN_VERSION` — the golden-fixture format version.
    let mut sites: Vec<String> = Vec::new();
    for f in files {
        let toks = &f.lexed.toks;
        for i in 0..toks.len() {
            if toks[i].kind == TokKind::Ident
                && toks[i].text == "GOLDEN_VERSION"
                && !toks[i].in_test
                && i > 0
                && toks[i - 1].kind == TokKind::Ident
                && toks[i - 1].text == "const"
            {
                sites.push(format!("{}:{}", f.path, toks[i].line));
            }
        }
    }
    if sites.len() != 1 {
        out.push(Finding {
            rule: SCHEMA_ONCE,
            file: sites.first().cloned().unwrap_or_default(),
            line: 0,
            col: 0,
            message: format!(
                "`const GOLDEN_VERSION` has {} definition sites (expected 1): [{}]",
                sites.len(),
                sites.join(", ")
            ),
        });
    }
    out
}

fn read(root: &Path, rel: &str) -> Option<String> {
    std::fs::read_to_string(root.join(rel)).ok()
}

/// Section-aware scan of a `Cargo.toml`, returning `(package_name, bins,
/// dependency names)` where dependencies are restricted to `[dependencies]` /
/// `[build-dependencies]` entries resolved inside the workspace
/// (dev-dependency cycles are legal in Cargo and are not flagged).
fn parse_manifest(text: &str) -> (Option<String>, Vec<String>, Vec<String>) {
    let mut section = String::new();
    let mut name = None;
    let mut bins = Vec::new();
    let mut deps = Vec::new();
    for line in text.lines() {
        let line = line.trim();
        if line.starts_with('[') {
            section = line.trim_matches(|c| c == '[' || c == ']').to_string();
            continue;
        }
        if let Some(value) = line.strip_prefix("name = ") {
            let value = value.trim_matches('"').to_string();
            match section.as_str() {
                "package" => name = Some(value),
                "bin" => bins.push(value),
                _ => {}
            }
        }
        if matches!(section.as_str(), "dependencies" | "build-dependencies") {
            if let Some(dep) = line.split('=').next() {
                let dep = dep.trim();
                let dep = dep.strip_suffix(".workspace").unwrap_or(dep);
                if !dep.is_empty()
                    && dep
                        .chars()
                        .all(|c| c.is_ascii_alphanumeric() || c == '-' || c == '_')
                {
                    deps.push(dep.to_string());
                }
            }
        }
    }
    (name, bins, deps)
}

/// `dep-cycle`: the `path =` dependency graph over workspace members must be
/// acyclic (checked on `[dependencies]`/`[build-dependencies]` only).
pub fn check_dep_cycle(root: &Path, members: &[Member]) -> Vec<Finding> {
    let names: BTreeSet<&str> = members.iter().map(|m| m.name.as_str()).collect();
    let mut edges: BTreeMap<&str, Vec<String>> = BTreeMap::new();
    for m in members {
        let manifest = if m.dir == "." {
            "Cargo.toml".to_string()
        } else {
            format!("{}/Cargo.toml", m.dir)
        };
        let Some(text) = read(root, &manifest) else {
            continue;
        };
        let (_, _, deps) = parse_manifest(&text);
        edges.insert(
            m.name.as_str(),
            deps.into_iter()
                .filter(|d| names.contains(d.as_str()))
                .collect(),
        );
    }
    // Iterative DFS with colors; report the first cycle found.
    let mut color: BTreeMap<&str, u8> = BTreeMap::new(); // 0 white, 1 grey, 2 black
    fn visit<'a>(
        node: &'a str,
        edges: &'a BTreeMap<&str, Vec<String>>,
        color: &mut BTreeMap<&'a str, u8>,
        stack: &mut Vec<&'a str>,
    ) -> Option<Vec<String>> {
        color.insert(node, 1);
        stack.push(node);
        if let Some(next) = edges.get(node) {
            for dep in next {
                match color.get(dep.as_str()).copied().unwrap_or(0) {
                    1 => {
                        let from = stack.iter().position(|n| *n == dep.as_str()).unwrap_or(0);
                        let mut cycle: Vec<String> =
                            stack[from..].iter().map(|s| s.to_string()).collect();
                        cycle.push(dep.clone());
                        return Some(cycle);
                    }
                    0 => {
                        // Borrow the edge-map's own key so lifetimes line up.
                        let key = edges.keys().find(|k| **k == dep.as_str());
                        if let Some(&key) = key {
                            if let Some(cycle) = visit(key, edges, color, stack) {
                                return Some(cycle);
                            }
                        }
                    }
                    _ => {}
                }
            }
        }
        stack.pop();
        color.insert(node, 2);
        None
    }
    let keys: Vec<&str> = edges.keys().copied().collect();
    for node in keys {
        if color.get(node).copied().unwrap_or(0) == 0 {
            let mut stack = Vec::new();
            if let Some(cycle) = visit(node, &edges, &mut color, &mut stack) {
                return vec![Finding {
                    rule: DEP_CYCLE,
                    file: "Cargo.toml".to_string(),
                    line: 0,
                    col: 0,
                    message: format!("workspace path-dependency cycle: {}", cycle.join(" -> ")),
                }];
            }
        }
    }
    Vec::new()
}

/// `readme-crate-map`: every `crates/*` member directory must be mentioned in
/// the README (the crate-map table references each as `crates/<name>`).
pub fn check_readme_crate_map(root: &Path, members: &[Member]) -> Vec<Finding> {
    let Some(readme) = read(root, "README.md") else {
        return vec![Finding {
            rule: README_CRATE_MAP,
            file: "README.md".to_string(),
            line: 0,
            col: 0,
            message: "README.md is missing".to_string(),
        }];
    };
    let mut out = Vec::new();
    for m in members {
        if !m.dir.starts_with("crates/") {
            continue;
        }
        if !readme.contains(&m.dir) {
            out.push(Finding {
                rule: README_CRATE_MAP,
                file: "README.md".to_string(),
                line: 0,
                col: 0,
                message: format!(
                    "crate `{}` ({}) is missing from the README crate map",
                    m.name, m.dir
                ),
            });
        }
    }
    out
}

/// `unsafe-safety-comment` (crate-root half): every member's `src/lib.rs`
/// must carry `#![forbid(unsafe_code)]`, except allowlisted crates which may
/// downgrade to `#![deny(unsafe_code)]` (so a module can opt back in with an
/// explicit `#[allow(unsafe_code)]`).
pub fn check_crate_roots(root: &Path, members: &[Member]) -> Vec<Finding> {
    let mut out = Vec::new();
    for m in members {
        let rel = if m.dir == "." {
            "src/lib.rs".to_string()
        } else {
            format!("{}/src/lib.rs", m.dir)
        };
        let Some(text) = read(root, &rel) else {
            continue; // bin-only member; no crate root to police
        };
        let allowlisted = UNSAFE_ALLOWLIST.contains(&m.name.as_str());
        let forbids = text.contains("#![forbid(unsafe_code)]");
        let denies = text.contains("#![deny(unsafe_code)]");
        if allowlisted {
            if !forbids && !denies {
                out.push(Finding {
                    rule: UNSAFE_SAFETY_COMMENT,
                    file: rel,
                    line: 0,
                    col: 0,
                    message: format!(
                        "allowlisted crate `{}` must still `#![deny(unsafe_code)]` at the root",
                        m.name
                    ),
                });
            }
        } else if !forbids {
            out.push(Finding {
                rule: UNSAFE_SAFETY_COMMENT,
                file: rel,
                line: 0,
                col: 0,
                message: format!(
                    "crate `{}` is missing `#![forbid(unsafe_code)]` (only {:?} may contain unsafe)",
                    m.name, UNSAFE_ALLOWLIST
                ),
            });
        }
    }
    out
}

/// `ci-refs`: every `--test` / `--bin` / `--example` / `-p` reference and
/// every repo-relative path mentioned in the CI workflow must exist.
pub fn check_ci_refs(root: &Path, members: &[Member]) -> Vec<Finding> {
    let workflow = ".github/workflows/ci.yml";
    let Some(text) = read(root, workflow) else {
        return vec![Finding {
            rule: CI_REFS,
            file: workflow.to_string(),
            line: 0,
            col: 0,
            message: "CI workflow is missing".to_string(),
        }];
    };

    // Known targets, collected from the manifests and conventional dirs.
    let mut packages: BTreeSet<String> = BTreeSet::new();
    let mut bins: BTreeSet<String> = BTreeSet::new();
    let mut tests: BTreeSet<String> = BTreeSet::new();
    let mut examples: BTreeSet<String> = BTreeSet::new();
    for m in members {
        packages.insert(m.name.clone());
        let dir = if m.dir == "." {
            String::new()
        } else {
            format!("{}/", m.dir)
        };
        let manifest = read(root, &format!("{dir}Cargo.toml")).unwrap_or_default();
        let (_, manifest_bins, _) = parse_manifest(&manifest);
        bins.extend(manifest_bins);
        for (sub, set) in [
            ("src/bin", &mut bins),
            ("tests", &mut tests),
            ("examples", &mut examples),
        ] {
            if let Ok(entries) = std::fs::read_dir(root.join(format!("{dir}{sub}"))) {
                for entry in entries.flatten() {
                    let path = entry.path();
                    if path.extension().is_some_and(|e| e == "rs") {
                        if let Some(stem) = path.file_stem().and_then(|s| s.to_str()) {
                            set.insert(stem.to_string());
                        }
                    }
                }
            }
        }
    }

    let mut out = Vec::new();
    let mut flag: Option<&str> = None;
    for (lineno, line) in text.lines().enumerate() {
        let lineno = (lineno + 1) as u32;
        let trimmed = line.trim();
        if trimmed.starts_with('#') {
            continue;
        }
        for word in trimmed.split_whitespace() {
            let word = word.trim_matches(|c| matches!(c, '"' | '\'' | ';' | '(' | ')'));
            if let Some(prev) = flag.take() {
                let (set, kind): (&BTreeSet<String>, &str) = match prev {
                    "--test" => (&tests, "test"),
                    "--bin" => (&bins, "binary"),
                    "--example" => (&examples, "example"),
                    _ => (&packages, "package"),
                };
                if !set.contains(word) {
                    out.push(Finding {
                        rule: CI_REFS,
                        file: workflow.to_string(),
                        line: lineno,
                        col: 0,
                        message: format!("CI references nonexistent {kind} `{word}`"),
                    });
                }
                continue;
            }
            if matches!(word, "--test" | "--bin" | "--example" | "-p") {
                flag = Some(word);
                continue;
            }
            // Repo-relative path tokens: plain, glob-free, not generated.
            // Requiring a letter excludes shard ratios like `0/2`.
            let pathish = !word.is_empty()
                && word
                    .chars()
                    .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '/' | '-'))
                && word.chars().any(|c| c.is_ascii_alphabetic())
                && !word.starts_with('-')
                && !word.starts_with("target/")
                && !word.starts_with('.')
                && (word.contains('/') || word.ends_with(".json"))
                && !word.ends_with('.');
            if pathish && !root.join(word).exists() {
                out.push(Finding {
                    rule: CI_REFS,
                    file: workflow.to_string(),
                    line: lineno,
                    col: 0,
                    message: format!("CI references nonexistent path `{word}`"),
                });
            }
        }
        // `--flag value` pairs never span lines in the workflow.
        flag = None;
    }
    out
}
