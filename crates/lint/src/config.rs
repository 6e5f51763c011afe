//! `lint.toml` — the committed, auditable policy for every rule.
//!
//! The file lives at the workspace root and is parsed with a small strict
//! TOML subset reader (tables, arrays of tables, string / integer /
//! string-array values, `#` comments). Strictness is the point: an
//! unknown table or key is a hard error, so a typo can never silently
//! widen an allowlist.
//!
//! # Grammar
//!
//! ```toml
//! # Per-rule scoping. `paths` are enforcement roots (the rule applies
//! # only under them; omitted or empty = everywhere), `allow` are path
//! # prefixes exempted wholesale — each allow entry is a standing,
//! # reviewed suppression, so keep them few and commented.
//! [rules.panic]
//! paths = ["crates/serve/src", "src"]
//! allow = []
//!
//! [rules.clock]
//! allow = ["crates/core/src/clock.rs"]
//!
//! # The crate-layering DAG: each entry is "crate: dep dep ...", naming
//! # the complete set of first-party crates it may depend on. A crate or
//! # source-level reference outside this set is a layering violation.
//! # The declared graph must itself be acyclic (validated at parse time).
//! [rules.layering]
//! crates = ["stats:", "core: stats", "serve: rapidviz stats"]
//!
//! # Concurrency discipline: `scheduler_loops` are the only files allowed
//! # to call a blocking, timeout-less `recv()`.
//! [rules.concurrency]
//! scheduler_loops = ["crates/serve/src/server.rs"]
//!
//! # The committed lock-acquisition order. Every `.lock()` receiver name
//! # in scoped code must appear here, and nested acquisitions must happen
//! # in list order. Entries no lock uses are stale (a violation).
//! [locks]
//! order = ["client_threads", "registry"]
//!
//! # The unsafe budget: every file holding `unsafe` tokens must have an
//! # entry whose count matches exactly and whose justification is
//! # non-empty. A new `unsafe` anywhere fails the lint until a reviewer
//! # budgets it here.
//! [[unsafe]]
//! file = "crates/ffi/src/sys.rs"
//! count = 1
//! justification = "foreign call; see the SAFETY comment"
//! ```

use std::collections::BTreeMap;
use std::fmt;

/// Names of the seven enforced rule families.
pub const RULE_NAMES: [&str; 7] = [
    "panic",
    "clock",
    "determinism",
    "unsafe",
    "output",
    "layering",
    "concurrency",
];

/// Per-rule path scoping.
#[derive(Debug, Default, Clone)]
pub struct RuleCfg {
    /// Enforcement roots (path prefixes, `/`-separated, relative to the
    /// workspace root). Empty means the rule applies everywhere its
    /// target-class policy admits.
    pub paths: Vec<String>,
    /// Exempted path prefixes — reviewed, standing suppressions.
    pub allow: Vec<String>,
}

/// One committed `unsafe` budget entry.
#[derive(Debug, Clone)]
pub struct UnsafeEntry {
    /// Workspace-relative file path.
    pub file: String,
    /// Exact number of `unsafe` tokens the file is budgeted for.
    pub count: usize,
    /// Why the unsafe is held (non-empty, enforced at parse time).
    pub justification: String,
}

/// One lock name in the committed global acquisition order.
#[derive(Debug, Clone)]
pub struct LockEntry {
    /// Receiver name of the `Mutex` field or binding (`client_threads` in
    /// `self.client_threads.lock()`).
    pub name: String,
    /// `lint.toml` line of the `order` key (for stale-entry reports).
    pub line: u32,
}

/// The parsed policy.
#[derive(Debug, Default, Clone)]
pub struct Config {
    /// Per-rule scoping, keyed by rule name.
    pub rules: BTreeMap<String, RuleCfg>,
    /// The unsafe budget manifest.
    pub unsafe_budget: Vec<UnsafeEntry>,
    /// Declared crate-dependency DAG: crate name → first-party crates it
    /// may depend on. Empty map disables the cargo-layer check.
    pub layering: BTreeMap<String, Vec<String>>,
    /// Files whose code may call a blocking, timeout-less `recv()`.
    pub scheduler_loops: Vec<String>,
    /// The committed lock-acquisition order, outermost first.
    pub lock_order: Vec<LockEntry>,
}

impl Config {
    /// Scoping for `rule`, defaulting to "applies everywhere, no allows".
    #[must_use]
    pub fn rule(&self, rule: &str) -> RuleCfg {
        self.rules.get(rule).cloned().unwrap_or_default()
    }
}

/// A parse or validation error with its `lint.toml` line number.
#[derive(Debug)]
pub struct ConfigError {
    /// 1-based line in `lint.toml` (0 for whole-file errors).
    pub line: u32,
    /// What went wrong.
    pub message: String,
}

impl fmt::Display for ConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "lint.toml:{}: {}", self.line, self.message)
    }
}

impl std::error::Error for ConfigError {}

fn err(line: u32, message: impl Into<String>) -> ConfigError {
    ConfigError {
        line,
        message: message.into(),
    }
}

/// Parses the policy from `lint.toml` text.
///
/// # Errors
///
/// Fails on unknown tables/keys, malformed values, an unknown rule name,
/// an empty unsafe justification, or a duplicate unsafe file entry.
pub fn parse(text: &str) -> Result<Config, ConfigError> {
    let mut cfg = Config::default();
    let mut section = Section::None;
    let mut lines = text.lines().enumerate().peekable();
    while let Some((idx, raw)) = lines.next() {
        let lineno = u32::try_from(idx + 1).unwrap_or(u32::MAX);
        let line = strip_comment(raw).trim().to_owned();
        if line.is_empty() {
            continue;
        }
        if let Some(inner) = line.strip_prefix("[[").and_then(|s| s.strip_suffix("]]")) {
            if inner.trim() != "unsafe" {
                return Err(err(lineno, format!("unknown array-of-tables [[{inner}]]")));
            }
            flush_unsafe(&mut cfg, &mut section, lineno)?;
            section = Section::Unsafe {
                file: None,
                count: None,
                justification: None,
                line: lineno,
            };
            continue;
        }
        if let Some(inner) = line.strip_prefix('[').and_then(|s| s.strip_suffix(']')) {
            flush_unsafe(&mut cfg, &mut section, lineno)?;
            if inner.trim() == "locks" {
                section = Section::Locks;
                continue;
            }
            let Some(rule) = inner.trim().strip_prefix("rules.") else {
                return Err(err(lineno, format!("unknown table [{inner}]")));
            };
            if !RULE_NAMES.contains(&rule) {
                return Err(err(
                    lineno,
                    format!("unknown rule {rule:?} (expected one of {RULE_NAMES:?})"),
                ));
            }
            section = Section::Rule(rule.to_owned());
            continue;
        }
        let Some((key, value)) = line.split_once('=') else {
            return Err(err(lineno, format!("expected `key = value`, got {line:?}")));
        };
        let key = key.trim();
        let mut value = value.trim().to_owned();
        // Multi-line arrays: accumulate until the closing bracket.
        if value.starts_with('[') && !value.ends_with(']') {
            for (_, next) in lines.by_ref() {
                value.push(' ');
                value.push_str(strip_comment(next).trim());
                if value.trim_end().ends_with(']') {
                    break;
                }
            }
        }
        apply_key(&mut cfg, &mut section, key, value.trim(), lineno)?;
    }
    flush_unsafe(&mut cfg, &mut section, 0)?;
    validate_layering(&cfg)?;
    validate_locks(&cfg)?;
    Ok(cfg)
}

enum Section {
    None,
    Rule(String),
    Locks,
    Unsafe {
        file: Option<String>,
        count: Option<usize>,
        justification: Option<String>,
        line: u32,
    },
}

/// The declared layering graph must reference only declared crates and be
/// acyclic — a cyclic "DAG" would make the layer check vacuous.
fn validate_layering(cfg: &Config) -> Result<(), ConfigError> {
    for (krate, deps) in &cfg.layering {
        for dep in deps {
            if dep == krate {
                return Err(err(
                    0,
                    format!("[rules.layering] crate {krate:?} depends on itself"),
                ));
            }
            if !cfg.layering.contains_key(dep) {
                return Err(err(
                    0,
                    format!("[rules.layering] crate {krate:?} names undeclared dep {dep:?}"),
                ));
            }
        }
    }
    // DFS cycle check over the declared edges.
    for start in cfg.layering.keys() {
        let mut stack = vec![(start.as_str(), 0usize)];
        let mut on_path = vec![start.as_str()];
        while let Some((node, next)) = stack.pop() {
            let deps = &cfg.layering[node];
            if next < deps.len() {
                stack.push((node, next + 1));
                let dep = deps[next].as_str();
                if on_path.contains(&dep) {
                    return Err(err(
                        0,
                        format!("[rules.layering] declared graph has a cycle through {dep:?}"),
                    ));
                }
                stack.push((dep, 0));
                on_path.push(dep);
            } else {
                on_path.pop();
            }
        }
    }
    Ok(())
}

fn validate_locks(cfg: &Config) -> Result<(), ConfigError> {
    for (i, entry) in cfg.lock_order.iter().enumerate() {
        if entry.name.is_empty() {
            return Err(err(entry.line, "[locks] order entry is empty"));
        }
        if cfg.lock_order[..i].iter().any(|e| e.name == entry.name) {
            return Err(err(
                entry.line,
                format!("duplicate [locks] order entry {:?}", entry.name),
            ));
        }
    }
    Ok(())
}

fn apply_key(
    cfg: &mut Config,
    section: &mut Section,
    key: &str,
    value: &str,
    lineno: u32,
) -> Result<(), ConfigError> {
    match section {
        Section::None => Err(err(lineno, format!("key {key:?} outside any table"))),
        Section::Rule(rule) => {
            let entry = cfg.rules.entry(rule.clone()).or_default();
            match key {
                "paths" => {
                    entry.paths = parse_string_array(value, lineno)?;
                    Ok(())
                }
                "allow" => {
                    entry.allow = parse_string_array(value, lineno)?;
                    Ok(())
                }
                "crates" if rule == "layering" => {
                    for item in parse_string_array(value, lineno)? {
                        let Some((name, deps)) = item.split_once(':') else {
                            return Err(err(
                                lineno,
                                format!("layering entry {item:?} is not \"crate: dep dep ...\""),
                            ));
                        };
                        let name = name.trim().to_owned();
                        let deps: Vec<String> =
                            deps.split_whitespace().map(str::to_owned).collect();
                        if name.is_empty() {
                            return Err(err(lineno, "layering entry has an empty crate name"));
                        }
                        if cfg.layering.insert(name.clone(), deps).is_some() {
                            return Err(err(
                                lineno,
                                format!("duplicate layering entry for crate {name:?}"),
                            ));
                        }
                    }
                    Ok(())
                }
                "scheduler_loops" if rule == "concurrency" => {
                    cfg.scheduler_loops = parse_string_array(value, lineno)?;
                    Ok(())
                }
                other => Err(err(
                    lineno,
                    format!("unknown key {other:?} in [rules.{rule}]"),
                )),
            }
        }
        Section::Locks => match key {
            "order" => {
                cfg.lock_order = parse_string_array(value, lineno)?
                    .into_iter()
                    .map(|name| LockEntry { name, line: lineno })
                    .collect();
                Ok(())
            }
            other => Err(err(
                lineno,
                format!("unknown key {other:?} in [locks] (expected order)"),
            )),
        },
        Section::Unsafe {
            file,
            count,
            justification,
            ..
        } => match key {
            "file" => {
                *file = Some(parse_string(value, lineno)?);
                Ok(())
            }
            "count" => {
                *count = Some(value.parse::<usize>().map_err(|_| {
                    err(lineno, format!("count must be an integer, got {value:?}"))
                })?);
                Ok(())
            }
            "justification" => {
                *justification = Some(parse_string(value, lineno)?);
                Ok(())
            }
            other => Err(err(
                lineno,
                format!("unknown key {other:?} in [[unsafe]] (expected file/count/justification)"),
            )),
        },
    }
}

fn flush_unsafe(cfg: &mut Config, section: &mut Section, lineno: u32) -> Result<(), ConfigError> {
    if let Section::Unsafe {
        file,
        count,
        justification,
        line,
    } = std::mem::replace(section, Section::None)
    {
        let entry_line = if lineno == 0 { line } else { line.min(lineno) };
        let file = file.ok_or_else(|| err(entry_line, "[[unsafe]] entry missing `file`"))?;
        let count = count.ok_or_else(|| err(entry_line, "[[unsafe]] entry missing `count`"))?;
        let justification = justification
            .ok_or_else(|| err(entry_line, "[[unsafe]] entry missing `justification`"))?;
        if justification.trim().is_empty() {
            return Err(err(
                entry_line,
                format!("[[unsafe]] entry for {file:?} has an empty justification"),
            ));
        }
        if cfg.unsafe_budget.iter().any(|e| e.file == file) {
            return Err(err(
                entry_line,
                format!("duplicate [[unsafe]] entry for {file:?}"),
            ));
        }
        cfg.unsafe_budget.push(UnsafeEntry {
            file,
            count,
            justification,
        });
    }
    Ok(())
}

fn strip_comment(line: &str) -> &str {
    // A `#` inside a quoted string does not start a comment.
    let mut in_str = false;
    let mut escaped = false;
    for (i, c) in line.char_indices() {
        match c {
            '\\' if in_str && !escaped => {
                escaped = true;
                continue;
            }
            '"' if !escaped => in_str = !in_str,
            '#' if !in_str => return &line[..i],
            _ => {}
        }
        escaped = false;
    }
    line
}

fn parse_string(value: &str, lineno: u32) -> Result<String, ConfigError> {
    let inner = value
        .strip_prefix('"')
        .and_then(|s| s.strip_suffix('"'))
        .ok_or_else(|| err(lineno, format!("expected a quoted string, got {value:?}")))?;
    // Minimal escape handling; paths and prose need none of the exotic ones.
    Ok(inner.replace("\\\"", "\"").replace("\\\\", "\\"))
}

fn parse_string_array(value: &str, lineno: u32) -> Result<Vec<String>, ConfigError> {
    let inner = value
        .strip_prefix('[')
        .and_then(|s| s.strip_suffix(']'))
        .ok_or_else(|| err(lineno, format!("expected an array, got {value:?}")))?;
    let mut out = Vec::new();
    for item in split_top_level(inner) {
        let item = item.trim();
        if item.is_empty() {
            continue;
        }
        out.push(parse_string(item, lineno)?);
    }
    Ok(out)
}

/// Splits on commas outside quotes.
fn split_top_level(s: &str) -> Vec<String> {
    let mut parts = Vec::new();
    let mut cur = String::new();
    let mut in_str = false;
    let mut escaped = false;
    for c in s.chars() {
        match c {
            '\\' if in_str && !escaped => {
                escaped = true;
                cur.push(c);
                continue;
            }
            '"' if !escaped => {
                in_str = !in_str;
                cur.push(c);
            }
            ',' if !in_str => {
                parts.push(std::mem::take(&mut cur));
            }
            _ => cur.push(c),
        }
        escaped = false;
    }
    if !cur.trim().is_empty() {
        parts.push(cur);
    }
    parts
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_full_policy() {
        let cfg = parse(
            r#"
# comment
[rules.panic]
paths = ["crates/serve/src", "src"] # trailing comment
allow = []

[rules.clock]
allow = [
    "crates/core/src/clock.rs",
    "crates/bench/src",
]

[[unsafe]]
file = "crates/core/src/pool.rs"
count = 1
justification = "scoped-task lifetime erasure"
"#,
        )
        .expect("parses");
        assert_eq!(cfg.rule("panic").paths, ["crates/serve/src", "src"]);
        assert_eq!(
            cfg.rule("clock").allow,
            ["crates/core/src/clock.rs", "crates/bench/src"]
        );
        assert_eq!(cfg.unsafe_budget.len(), 1);
        assert_eq!(cfg.unsafe_budget[0].count, 1);
    }

    #[test]
    fn empty_justification_is_rejected() {
        let e = parse("[[unsafe]]\nfile = \"a.rs\"\ncount = 1\njustification = \"  \"\n")
            .expect_err("must reject");
        assert!(e.message.contains("empty justification"), "{e}");
    }

    #[test]
    fn missing_manifest_fields_are_rejected() {
        assert!(parse("[[unsafe]]\nfile = \"a.rs\"\ncount = 1\n").is_err());
        assert!(parse("[[unsafe]]\nfile = \"a.rs\"\njustification = \"j\"\n").is_err());
    }

    #[test]
    fn unknown_rule_and_keys_are_rejected() {
        assert!(parse("[rules.nonsense]\npaths = []\n").is_err());
        assert!(parse("[rules.panic]\npath = []\n").is_err());
        assert!(parse("[other]\nx = 1\n").is_err());
    }

    #[test]
    fn duplicate_unsafe_files_are_rejected() {
        let text = "[[unsafe]]\nfile = \"a.rs\"\ncount = 1\njustification = \"j\"\n\
                    [[unsafe]]\nfile = \"a.rs\"\ncount = 2\njustification = \"k\"\n";
        assert!(parse(text).is_err());
    }

    #[test]
    fn hash_inside_string_is_not_a_comment() {
        let cfg = parse("[rules.panic]\nallow = [\"weird#path.rs\"]\n").expect("parses");
        assert_eq!(cfg.rule("panic").allow, ["weird#path.rs"]);
    }

    #[test]
    fn parses_layering_locks_and_scheduler_loops() {
        let cfg = parse(
            r#"
[rules.layering]
crates = [
    "stats:",
    "core: stats",
    "serve: core stats",
]

[rules.concurrency]
paths = ["crates/serve/src"]
scheduler_loops = ["crates/serve/src/server.rs"]

[locks]
order = ["client_threads", "receiver"]
"#,
        )
        .expect("parses");
        assert_eq!(cfg.layering["core"], ["stats"]);
        assert!(cfg.layering["stats"].is_empty());
        assert_eq!(cfg.scheduler_loops, ["crates/serve/src/server.rs"]);
        let names: Vec<&str> = cfg.lock_order.iter().map(|e| e.name.as_str()).collect();
        assert_eq!(names, ["client_threads", "receiver"]);
    }

    #[test]
    fn layering_graph_must_be_declared_and_acyclic() {
        // Undeclared dep.
        assert!(parse("[rules.layering]\ncrates = [\"core: ghost\"]\n").is_err());
        // Self-dep.
        assert!(parse("[rules.layering]\ncrates = [\"core: core\"]\n").is_err());
        // Two-crate cycle.
        let e = parse("[rules.layering]\ncrates = [\"a: b\", \"b: a\"]\n").expect_err("cycle");
        assert!(e.message.contains("cycle"), "{e}");
        // Entry without the colon separator.
        assert!(parse("[rules.layering]\ncrates = [\"stats\"]\n").is_err());
        // Duplicate crate.
        assert!(parse("[rules.layering]\ncrates = [\"a:\", \"a:\"]\n").is_err());
    }

    #[test]
    fn lock_order_rejects_duplicates_and_unknown_keys() {
        assert!(parse("[locks]\norder = [\"m\", \"m\"]\n").is_err());
        assert!(parse("[locks]\nordering = [\"m\"]\n").is_err());
        // `crates`/`scheduler_loops` are rule-specific keys.
        assert!(parse("[rules.panic]\ncrates = [\"a:\"]\n").is_err());
        assert!(parse("[rules.panic]\nscheduler_loops = []\n").is_err());
    }
}
