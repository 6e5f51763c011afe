//! # rapidviz-lint — the workspace invariant linter
//!
//! Every guarantee this workspace makes — byte-identical wire answers,
//! bit-frozen certified orderings, single-seed simulation repro — rests on
//! invariants rustc and clippy cannot see: no wall-clock reads outside the
//! [`Clock`] abstraction, no panics on answer paths, no hash-iteration
//! nondeterminism in answer-producing code. This crate enforces them as a
//! std-only static analyzer with a real token-level Rust lexer
//! ([`lexer`]): strings, raw strings with `#` fences, char literals vs
//! lifetimes, and nested block comments are all understood, so a
//! `"message mentioning unwrap()"` can never fire a rule.
//!
//! [`Clock`]: ../rapidviz_core/clock/trait.Clock.html
//!
//! # The rule families
//!
//! | rule | what fires | where it applies |
//! |------|------------|------------------|
//! | `panic` | `.unwrap()`, `.expect(…)`, `panic!`, `todo!`, `unimplemented!` | library code under `[rules.panic] paths` (the serving / scheduler / engine answer paths) |
//! | `clock` | `Instant::now()`, `SystemTime::now()` | all library code except `[rules.clock] allow` (the `Clock` impls) |
//! | `determinism` | `thread_rng`, ambient `random()`, and `.iter()` / `.keys()` / `.values()` / `.drain()` (and `_mut` / `into_` variants) on bindings lexically typed or initialized as `HashMap` / `HashSet` | library code under `[rules.determinism] paths` (answer-producing crates) |
//! | `unsafe` | any `unsafe` token not matching a committed `[[unsafe]]` manifest entry (file + exact count + justification) | library, binary, and shim code |
//! | `output` | `println!`, `eprintln!` (and `print!` / `eprint!`) | all library code — diagnostics go through `Metrics` or returned errors |
//! | `layering` | a first-party crate reference (`use other_crate::…`, `other_crate::path`, `extern crate`) or `Cargo.toml` dependency edge outside the `[rules.layering]` DAG; a crate missing from the DAG; a stale DAG entry; a `crate::`-import **module cycle** within one crate | library and binary code; manifest/cycle checks run once per workspace |
//! | `concurrency` | a `.lock()` receiver not named in `[locks] order`; nested guards acquired against that order (or the same lock twice — self-deadlock); a guard held across blocking `send()` / `recv()` / `join()`; a timeout-less `recv()` outside the declared `scheduler_loops` files | library and binary code under `[rules.concurrency] paths` |
//!
//! The last two are **cross-file semantic passes**: `lint_workspace`
//! builds a [`model::WorkspaceModel`] once per run — the nine first-party
//! `Cargo.toml`s parsed into a crate-dependency graph, every file mapped
//! to its crate by directory convention — and checks both the declared
//! manifest edges and the actual source-level references against the
//! committed DAG ([`graph`] supplies the deterministic cycle/SCC
//! machinery). Lock discipline is intra-function guard-lifetime analysis
//! on the token stream: a `let`-bound guard lives to its enclosing block
//! (or an explicit `drop`), a temporary dies at its statement's end, and
//! every blocking call inside that span is checked.
//!
//! Tests (`tests/` trees **and** in-file `#[test]` / `#[cfg(test)]`
//! items, detected at the token level with brace matching), benches,
//! examples, and binaries are exempt from the style rules; shims
//! (`shims/*`, vendored stand-ins) are exempt from everything except the
//! unsafe budget. `#[cfg(not(test))]` does *not* exempt.
//!
//! # Suppression is explicit and auditable
//!
//! Two mechanisms, both reviewed in version control:
//!
//! 1. **`lint.toml` path scoping** (see [`config`] for the grammar):
//!    per-rule `paths` enforcement roots and `allow` exemption prefixes,
//!    plus the `[[unsafe]]` budget manifest whose `justification` is
//!    mandatory and whose `count` must match the file exactly — a new
//!    `unsafe` anywhere fails CI until a reviewer budgets it. The
//!    semantic passes add three committed tables: `[rules.layering]
//!    crates = ["name: dep dep"]` (the full crate DAG, validated acyclic
//!    at parse time), `[rules.concurrency] scheduler_loops` (the only
//!    files allowed a timeout-less `recv()`), and `[locks] order`
//!    (the global lock-acquisition order; stale entries are violations).
//! 2. **Inline allows** for single sites:
//!
//!    ```text
//!    let x = risky(); // lint: allow(panic) — bounded by the N check above
//!    ```
//!
//!    A trailing comment suppresses its own line; a standalone
//!    `// lint: allow(…) — reason` comment suppresses the next line
//!    holding code. The reason after the dash is **mandatory** — an
//!    un-reasoned allow is itself a violation — and so is usefulness: an
//!    allow that suppresses nothing is reported as unused, so stale
//!    escapes cannot accumulate. The unsafe budget deliberately has no
//!    inline form.
//!
//! # Diagnostics and exit status
//!
//! Violations print rustc-style, one per line, sorted:
//!
//! ```text
//! crates/serve/src/server.rs:202:44: [panic] .expect() on an answer path — …
//! error: 1 invariant violation across 1 file
//! ```
//!
//! The binary exits non-zero on any violation. The full-workspace run —
//! lexing every `.rs` file once, building the workspace model, and
//! running both the per-file rules and the graph passes — completes in
//! well under a second, so it also runs inside tier-1 as this crate's
//! `workspace_clean` integration test.
//!
//! # `--fix`: machine-applicable rewrites
//!
//! Diagnostics whose repair is mechanical and behavior-preserving carry a
//! byte-span [`Fix`] (rendered with a trailing `[fixable]` marker):
//! `partial_cmp(..).unwrap()` / `.expect(..)` → `total_cmp(..)`, and
//! deletion of un-reasoned or unused inline allows. `--fix` applies them
//! (overlaps are deferred to the next run, never spliced), re-lints, and
//! reports what remains; the rewrites are idempotent and the fixed tree
//! re-lints clean. `--fix --check` rewrites nothing and exits non-zero if
//! any fix is pending — the CI gate that keeps fixable diagnostics from
//! lingering. Judgment-shaped repairs (threading a [`Clock`],
//! restructuring a guard, re-layering a crate) never get a fix.
//!
//! # CLI
//!
//! ```text
//! rapidviz-lint --workspace [--root <dir>] [--config <path>]
//! rapidviz-lint --workspace --fix [--check] [--root <dir>]
//! rapidviz-lint [--root <dir>] <file.rs> […]
//! ```

pub mod config;
pub mod fixes;
pub mod graph;
pub mod lexer;
pub mod model;
pub mod rules;

pub use config::{Config, ConfigError};
pub use fixes::Fix;
pub use model::WorkspaceModel;
pub use rules::{classify, lint_file, lint_file_with_model, TargetClass, Violation};

use lexer::Lexed;
use std::collections::BTreeSet;
use std::path::{Path, PathBuf};

/// Directories never descended into.
const SKIP_DIRS: [&str; 3] = ["target", ".git", ".github"];

/// Recursively collects every `.rs` file under `root`, returned as
/// workspace-relative `/`-separated paths, sorted for stable output.
///
/// # Errors
///
/// Propagates directory-walk I/O errors with the offending path.
pub fn collect_rs_files(root: &Path) -> Result<Vec<String>, String> {
    let mut out = Vec::new();
    let mut stack = vec![root.to_path_buf()];
    while let Some(dir) = stack.pop() {
        let entries = std::fs::read_dir(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        for entry in entries {
            let entry = entry.map_err(|e| format!("{}: {e}", dir.display()))?;
            let path = entry.path();
            let name = entry.file_name();
            let name = name.to_string_lossy();
            if path.is_dir() {
                if !SKIP_DIRS.contains(&name.as_ref()) && !name.starts_with('.') {
                    stack.push(path);
                }
            } else if name.ends_with(".rs") {
                if let Ok(rel) = path.strip_prefix(root) {
                    out.push(rel_to_string(rel));
                }
            }
        }
    }
    out.sort();
    Ok(out)
}

fn rel_to_string(rel: &Path) -> String {
    rel.components()
        .map(|c| c.as_os_str().to_string_lossy().into_owned())
        .collect::<Vec<_>>()
        .join("/")
}

/// Outcome of a workspace run.
#[derive(Debug)]
pub struct WorkspaceReport {
    /// All violations, sorted by path, then position.
    pub violations: Vec<Violation>,
    /// Number of `.rs` files scanned.
    pub files_scanned: usize,
}

/// Lints every `.rs` file under `root` against `cfg`: each file is lexed
/// once and run through every per-file rule (with the workspace model
/// available, so source-level layering fires), then the whole-workspace
/// passes run — manifest-level layering edges, per-crate module cycles,
/// stale `[[unsafe]]` and `[locks]` entries.
///
/// # Errors
///
/// Propagates walk, read, and manifest-parse I/O errors.
pub fn lint_workspace(root: &Path, cfg: &Config) -> Result<WorkspaceReport, String> {
    let files = collect_rs_files(root)?;
    let model = WorkspaceModel::build(root)?;
    let mut sources: Vec<(String, String, Lexed)> = Vec::with_capacity(files.len());
    for rel in &files {
        let full: PathBuf = root.join(rel.replace('/', std::path::MAIN_SEPARATOR_STR));
        let source =
            std::fs::read_to_string(&full).map_err(|e| format!("{}: {e}", full.display()))?;
        let lexed = lexer::lex(&source);
        sources.push((rel.clone(), source, lexed));
    }

    let mut violations = Vec::new();
    let mut seen = BTreeSet::new();
    for (rel, source, lexed) in &sources {
        violations.extend(rules::lint_lexed(rel, source, lexed, cfg, Some(&model)));
        seen.insert(rel.clone());
    }
    violations.extend(rules::stale_budget_entries(cfg, &seen));
    violations.extend(workspace_passes(cfg, &model, &sources));
    violations.sort_by(|a, b| {
        (a.path.as_str(), a.line, a.col, a.rule).cmp(&(b.path.as_str(), b.line, b.col, b.rule))
    });
    Ok(WorkspaceReport {
        violations,
        files_scanned: files.len(),
    })
}

/// The once-per-run passes that need the whole workspace in view.
fn workspace_passes(
    cfg: &Config,
    model: &WorkspaceModel,
    sources: &[(String, String, Lexed)],
) -> Vec<Violation> {
    let mut out = Vec::new();

    if !cfg.layering.is_empty() {
        // Manifest-level edges against the declared DAG.
        for c in &model.crates {
            let Some(allowed) = cfg.layering.get(&c.name) else {
                out.push(Violation::new(
                    &c.manifest,
                    1,
                    1,
                    "layering",
                    format!(
                        "crate `{}` is not declared in [rules.layering] — every \
                         first-party crate needs a committed place in the DAG",
                        c.name
                    ),
                ));
                continue;
            };
            for d in &c.deps {
                if d.dev || allowed.contains(&d.name) {
                    continue;
                }
                out.push(Violation::new(
                    &c.manifest,
                    d.line,
                    1,
                    "layering",
                    format!(
                        "manifest dependency on `{}` is not admitted by the \
                         [rules.layering] DAG for `{}` — either the edge is a \
                         layering break or the DAG needs a reviewed update",
                        d.name, c.name
                    ),
                ));
            }
        }
        // Declared crates that no longer exist are stale policy.
        for name in cfg.layering.keys() {
            if model.by_name(name).is_none() {
                out.push(Violation::new(
                    "lint.toml",
                    1,
                    1,
                    "layering",
                    format!(
                        "stale [rules.layering] entry: crate `{name}` not found in \
                         the workspace"
                    ),
                ));
            }
        }
        // Module cycles within each crate (crate::-import graph at
        // top-level-module granularity; test-gated imports exempt).
        let layer_allow = cfg.rule("layering").allow;
        for c in &model.crates {
            let mut file_refs: Vec<(Option<String>, Vec<String>)> = Vec::new();
            for (rel, _, lexed) in sources {
                if model.crate_of(rel).is_none_or(|k| k.name != c.name) {
                    continue;
                }
                if rules::under_any(rel, &layer_allow) {
                    continue;
                }
                let in_test = rules::test_regions(&lexed.tokens);
                file_refs.push((
                    model::top_module(&c.dir, rel),
                    model::module_refs(&lexed.tokens, &in_test),
                ));
            }
            let module_graph = model::module_graph(&file_refs);
            let src_dir = if c.dir.is_empty() {
                "src".to_owned()
            } else {
                format!("{}/src", c.dir)
            };
            for scc in graph::cyclic_sccs(&module_graph) {
                out.push(Violation::new(
                    &src_dir,
                    1,
                    1,
                    "layering",
                    format!(
                        "module cycle within crate `{}`: {} — the crate::-imports \
                         form a loop; move the shared items into one of the \
                         modules (or a lower one) and re-export",
                        c.name,
                        scc.join(" ↔ ")
                    ),
                ));
            }
        }
    }

    // Stale [locks] entries: a committed lock name no scoped .lock()
    // site uses keeps reviewers auditing a phantom.
    if !cfg.lock_order.is_empty() {
        let mut seen_locks = BTreeSet::new();
        for (rel, _, lexed) in sources {
            let class = rules::classify(rel);
            if rules::rule_applies(
                cfg,
                "concurrency",
                rel,
                class,
                &[TargetClass::Library, TargetClass::Bin],
            ) {
                seen_locks.extend(rules::lock_names(&lexed.tokens));
            }
        }
        for e in &cfg.lock_order {
            if !seen_locks.contains(&e.name) {
                out.push(Violation::new(
                    "lint.toml",
                    e.line,
                    1,
                    "concurrency",
                    format!(
                        "stale [locks] entry `{}`: no .lock() site in scoped code \
                         uses this name",
                        e.name
                    ),
                ));
            }
        }
    }
    out
}

/// Groups the fixes carried by `violations` per file path, preserving
/// report order within each file — the unit `--fix` hands to
/// [`fixes::apply_to_source`]. (Lives here rather than in [`fixes`] so
/// the fix engine stays below [`rules`] in the module graph — the
/// module-cycle pass of this very linter holds its own crate to that.)
#[must_use]
pub fn fix_plan(violations: &[Violation]) -> std::collections::BTreeMap<String, Vec<Fix>> {
    let mut by_file: std::collections::BTreeMap<String, Vec<Fix>> =
        std::collections::BTreeMap::new();
    for v in violations {
        if let Some(f) = &v.fix {
            by_file.entry(v.path.clone()).or_default().push(f.clone());
        }
    }
    by_file
}

/// Loads `lint.toml` from `path`.
///
/// # Errors
///
/// Fails on missing file or any parse/validation error, already formatted
/// for display.
pub fn load_config(path: &Path) -> Result<Config, String> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
    config::parse(&text).map_err(|e| e.to_string())
}
