//! The workspace model: which crates exist, how they may depend on each
//! other, and which crate each source file belongs to.
//!
//! Built once per `--workspace` run from the first-party `Cargo.toml`s
//! (a minimal manifest reader — package name plus `[dependencies]` /
//! `[dev-dependencies]` keys with their line numbers; everything else is
//! skipped). Shim crates under `shims/` are vendored stand-ins and are
//! excluded: they participate in no layering contract.
//!
//! The model powers the `layering` rule family both at the manifest
//! level (every declared first-party dependency edge must be admitted by
//! the `[rules.layering]` DAG in `lint.toml`) and at the source level
//! (a `use rapidviz_serve::…` token inside `crates/stats` is a layering
//! violation even before the manifest changes), plus module-cycle
//! detection within each crate.

use crate::graph::Adjacency;
use crate::lexer::{Tok, TokKind};
use std::collections::BTreeMap;
use std::path::Path;

/// One first-party dependency edge as written in a manifest.
#[derive(Debug, Clone)]
pub struct DepRef {
    /// Package name of the dependency (`rapidviz-stats`).
    pub name: String,
    /// 1-based line in the manifest where the edge is declared.
    pub line: u32,
    /// Whether the edge sits in `[dev-dependencies]` — dev edges are
    /// exempt from layering (cargo itself permits dev-only cycles, and
    /// the workspace uses one: the facade's tests drive `sim`/`serve`).
    pub dev: bool,
}

/// One first-party crate.
#[derive(Debug, Clone)]
pub struct CrateInfo {
    /// Package name (`rapidviz-serve`).
    pub name: String,
    /// The name as it appears in Rust source paths (`rapidviz_serve`).
    pub ident: String,
    /// Workspace-relative directory ("" for the root crate).
    pub dir: String,
    /// Workspace-relative manifest path.
    pub manifest: String,
    /// First-party dependency edges (shims and external deps dropped).
    pub deps: Vec<DepRef>,
}

/// The parsed workspace: every first-party crate plus lookup maps.
#[derive(Debug, Default)]
pub struct WorkspaceModel {
    /// All first-party crates, sorted by package name.
    pub crates: Vec<CrateInfo>,
    /// Source ident (`rapidviz_serve`) → package name (`rapidviz-serve`).
    pub idents: BTreeMap<String, String>,
}

impl WorkspaceModel {
    /// Builds the model by reading the root manifest and every
    /// `crates/*/Cargo.toml` under `root`.
    ///
    /// # Errors
    ///
    /// Propagates manifest read errors; a directory without a readable
    /// `Cargo.toml` under `crates/` is an error (the workspace owns that
    /// namespace), missing root `[package]` is not (virtual workspace).
    pub fn build(root: &Path) -> Result<Self, String> {
        let mut manifests: Vec<(String, String)> = Vec::new(); // (dir, text)
        let root_manifest = root.join("Cargo.toml");
        if root_manifest.is_file() {
            let text = std::fs::read_to_string(&root_manifest)
                .map_err(|e| format!("{}: {e}", root_manifest.display()))?;
            manifests.push((String::new(), text));
        }
        let crates_dir = root.join("crates");
        if crates_dir.is_dir() {
            let mut dirs: Vec<String> = Vec::new();
            let entries = std::fs::read_dir(&crates_dir).map_err(|e| format!("crates/: {e}"))?;
            for entry in entries {
                let entry = entry.map_err(|e| format!("crates/: {e}"))?;
                if entry.path().is_dir() {
                    dirs.push(entry.file_name().to_string_lossy().into_owned());
                }
            }
            dirs.sort();
            for d in dirs {
                let manifest = crates_dir.join(&d).join("Cargo.toml");
                let text = std::fs::read_to_string(&manifest)
                    .map_err(|e| format!("{}: {e}", manifest.display()))?;
                manifests.push((format!("crates/{d}"), text));
            }
        }

        let mut crates = Vec::new();
        for (dir, text) in &manifests {
            if let Some(info) = parse_manifest(dir, text) {
                crates.push(info);
            }
        }
        // Drop dependency edges that point outside the first-party set
        // (rand/proptest shims, hypothetical registry deps).
        let names: Vec<String> = crates.iter().map(|c| c.name.clone()).collect();
        for c in &mut crates {
            c.deps.retain(|d| names.contains(&d.name));
        }
        crates.sort_by(|a, b| a.name.cmp(&b.name));
        let idents = crates
            .iter()
            .map(|c| (c.ident.clone(), c.name.clone()))
            .collect();
        Ok(Self { crates, idents })
    }

    /// The crate owning a workspace-relative `/`-separated source path:
    /// `crates/<dir>/…` → that crate, `shims/…` → none, anything else
    /// (`src/`, `tests/`, `benches/`, `examples/`) → the root crate.
    #[must_use]
    pub fn crate_of(&self, path: &str) -> Option<&CrateInfo> {
        if path.starts_with("shims/") {
            return None;
        }
        let best = self.crates.iter().filter(|c| !c.dir.is_empty()).find(|c| {
            path.strip_prefix(c.dir.as_str())
                .is_some_and(|r| r.starts_with('/'))
        });
        best.or_else(|| self.crates.iter().find(|c| c.dir.is_empty()))
    }

    /// Look up a crate by package name.
    #[must_use]
    pub fn by_name(&self, name: &str) -> Option<&CrateInfo> {
        self.crates.iter().find(|c| c.name == name)
    }
}

/// Parses one manifest. Returns `None` when the file declares no
/// `[package]` (a virtual workspace root).
fn parse_manifest(dir: &str, text: &str) -> Option<CrateInfo> {
    #[derive(PartialEq)]
    enum Sect {
        Other,
        Package,
        Deps,
        DevDeps,
    }
    let mut sect = Sect::Other;
    let mut name: Option<String> = None;
    let mut deps = Vec::new();
    for (idx, raw) in text.lines().enumerate() {
        let lineno = u32::try_from(idx + 1).unwrap_or(u32::MAX);
        let line = raw.split('#').next().unwrap_or("").trim();
        if line.is_empty() {
            continue;
        }
        if line.starts_with('[') {
            sect = match line {
                "[package]" => Sect::Package,
                "[dependencies]" => Sect::Deps,
                "[dev-dependencies]" => Sect::DevDeps,
                _ => Sect::Other,
            };
            continue;
        }
        let Some((key, value)) = line.split_once('=') else {
            continue;
        };
        let key = key.trim();
        match sect {
            Sect::Package if key == "name" => {
                name = Some(value.trim().trim_matches('"').to_owned());
            }
            Sect::Deps | Sect::DevDeps => {
                // `rapidviz-stats.workspace = true` or `rapidviz = { … }`.
                let dep = key.split('.').next().unwrap_or(key).trim();
                if !dep.is_empty() {
                    deps.push(DepRef {
                        name: dep.to_owned(),
                        line: lineno,
                        dev: sect == Sect::DevDeps,
                    });
                }
            }
            _ => {}
        }
    }
    let name = name?;
    let manifest = if dir.is_empty() {
        "Cargo.toml".to_owned()
    } else {
        format!("{dir}/Cargo.toml")
    };
    Some(CrateInfo {
        ident: name.replace('-', "_"),
        name,
        dir: dir.to_owned(),
        manifest,
        deps,
    })
}

/// The top-level module a source file contributes to within its crate:
/// `src/lib.rs` / `src/main.rs` → `None` (the crate root), `src/foo.rs`
/// and everything under `src/foo/` → `Some("foo")`. Files outside `src/`
/// (tests, benches, examples, bins) → `None` — they are separate
/// compilation targets, not modules of the library.
#[must_use]
pub fn top_module(crate_dir: &str, path: &str) -> Option<String> {
    let rel = if crate_dir.is_empty() {
        path
    } else {
        path.strip_prefix(crate_dir)?.strip_prefix('/')?
    };
    let rel = rel.strip_prefix("src/")?;
    if rel.contains("bin/") {
        return None;
    }
    match rel.split_once('/') {
        Some((first, _)) => Some(first.to_owned()),
        None => {
            let stem = rel.strip_suffix(".rs")?;
            if stem == "lib" || stem == "main" {
                None
            } else {
                Some(stem.to_owned())
            }
        }
    }
}

/// A reference from source tokens to another first-party crate.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CrateUse {
    /// Package name of the referenced crate.
    pub name: String,
    /// 1-based line of the reference.
    pub line: u32,
    /// 1-based column of the reference.
    pub col: u32,
}

/// Extracts references to other first-party crates from a token stream:
/// `rapidviz_serve::…` path roots and `extern crate rapidviz_serve`.
/// Tokens flagged in `in_test` are skipped (a `#[cfg(test)]` module may
/// use dev-dependencies, which layering exempts).
#[must_use]
pub fn crate_uses(
    tokens: &[Tok],
    in_test: &[bool],
    idents: &BTreeMap<String, String>,
) -> Vec<CrateUse> {
    let mut out = Vec::new();
    for (i, t) in tokens.iter().enumerate() {
        if in_test[i] || t.kind != TokKind::Ident {
            continue;
        }
        let Some(name) = idents.get(&t.text) else {
            continue;
        };
        let path_root = tokens.get(i + 1).is_some_and(|n| n.is_punct(':'))
            && tokens.get(i + 2).is_some_and(|n| n.is_punct(':'))
            // `foo::rapidviz_serve` would be a member access, not a root.
            && !(i >= 2 && tokens[i - 1].is_punct(':') && tokens[i - 2].is_punct(':'));
        let extern_crate =
            i >= 2 && tokens[i - 1].is_ident("crate") && tokens[i - 2].is_ident("extern");
        if path_root || extern_crate {
            out.push(CrateUse {
                name: name.clone(),
                line: t.line,
                col: t.col,
            });
        }
    }
    out
}

/// Extracts the top-level modules referenced via `crate::<mod>` paths,
/// skipping test-flagged tokens. Only idents that name actual top-level
/// modules matter to the caller; dangling names are filtered there.
#[must_use]
pub fn module_refs(tokens: &[Tok], in_test: &[bool]) -> Vec<String> {
    let mut out = Vec::new();
    for (i, t) in tokens.iter().enumerate() {
        if in_test[i] || !t.is_ident("crate") {
            continue;
        }
        // `crate :: ident`, but not `extern crate` or `…::crate` (which
        // cannot occur — `crate` is only a path root or a visibility).
        if i >= 1 && tokens[i - 1].is_ident("extern") {
            continue;
        }
        if tokens.get(i + 1).is_some_and(|n| n.is_punct(':'))
            && tokens.get(i + 2).is_some_and(|n| n.is_punct(':'))
        {
            if let Some(target) = tokens.get(i + 3).filter(|n| n.kind == TokKind::Ident) {
                out.push(target.text.clone());
            }
        }
    }
    out.sort_unstable();
    out.dedup();
    out
}

/// Builds the per-crate module graph (top-level module → referenced
/// top-level modules) from per-file module references. The crate root
/// (lib.rs) is excluded as a node: the root declaring its modules and
/// modules reaching root items (`crate::Error`) is the normal shape, not
/// a cycle.
#[must_use]
pub fn module_graph(file_refs: &[(Option<String>, Vec<String>)]) -> Adjacency {
    let mut graph: Adjacency = BTreeMap::new();
    for (module, _) in file_refs {
        if let Some(m) = module {
            graph.entry(m.clone()).or_default();
        }
    }
    let known: Vec<String> = graph.keys().cloned().collect();
    for (module, refs) in file_refs {
        let Some(m) = module else {
            continue;
        };
        for r in refs {
            if r != m && known.contains(r) {
                let edges = graph.entry(m.clone()).or_default();
                if !edges.contains(r) {
                    edges.push(r.clone());
                }
            }
        }
    }
    for edges in graph.values_mut() {
        edges.sort_unstable();
    }
    graph
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    #[test]
    fn top_module_mapping() {
        assert_eq!(top_module("", "src/lib.rs"), None);
        assert_eq!(top_module("", "src/main.rs"), None);
        assert_eq!(top_module("", "src/query.rs"), Some("query".to_owned()));
        assert_eq!(
            top_module("crates/core", "crates/core/src/sampler/mod.rs"),
            Some("sampler".to_owned())
        );
        assert_eq!(
            top_module("crates/core", "crates/core/src/sampler/draws.rs"),
            Some("sampler".to_owned())
        );
        assert_eq!(
            top_module("crates/serve", "crates/serve/src/bin/rapidviz-serve.rs"),
            None
        );
        assert_eq!(top_module("crates/core", "crates/core/tests/pool.rs"), None);
        assert_eq!(top_module("crates/core", "crates/stats/src/lib.rs"), None);
    }

    #[test]
    fn crate_uses_finds_path_roots_not_doc_or_member_refs() {
        let idents: BTreeMap<String, String> =
            [("rapidviz_serve".to_owned(), "rapidviz-serve".to_owned())].into();
        let src = "use rapidviz_serve::Server;\nlet x = other::rapidviz_serve::y;\n/// doc about rapidviz_serve::Server\nfn f() {}";
        let lexed = lex(src);
        let flags = vec![false; lexed.tokens.len()];
        let uses = crate_uses(&lexed.tokens, &flags, &idents);
        assert_eq!(uses.len(), 1);
        assert_eq!(uses[0].line, 1);
    }

    #[test]
    fn module_refs_sees_crate_paths_and_skips_extern() {
        let src =
            "use crate::query::QueryAnswer;\nextern crate foo;\nfn f() -> crate::session::Id { }";
        let lexed = lex(src);
        let flags = vec![false; lexed.tokens.len()];
        assert_eq!(module_refs(&lexed.tokens, &flags), ["query", "session"]);
    }

    #[test]
    fn module_graph_excludes_root_and_dangling() {
        let refs = vec![
            (None, vec!["query".to_owned()]), // lib.rs
            (
                Some("query".to_owned()),
                vec!["session".to_owned(), "Error".to_owned()],
            ),
            (Some("session".to_owned()), vec![]),
        ];
        let g = module_graph(&refs);
        assert_eq!(g["query"], ["session"]);
        assert!(g["session"].is_empty());
        assert!(!g.contains_key("Error"));
    }

    #[test]
    fn manifest_parser_reads_names_and_dep_lines() {
        let info = parse_manifest(
            "crates/demo",
            "[package]\nname = \"rapidviz-demo\"\n\n[dependencies]\nrand.workspace = true\nrapidviz-stats.workspace = true\nrapidviz = { path = \"../..\" }\n\n[dev-dependencies]\nproptest.workspace = true\n",
        )
        .expect("package");
        assert_eq!(info.name, "rapidviz-demo");
        assert_eq!(info.ident, "rapidviz_demo");
        assert_eq!(info.manifest, "crates/demo/Cargo.toml");
        let names: Vec<(&str, bool)> = info.deps.iter().map(|d| (d.name.as_str(), d.dev)).collect();
        assert_eq!(
            names,
            [
                ("rand", false),
                ("rapidviz-stats", false),
                ("rapidviz", false),
                ("proptest", true)
            ]
        );
        assert!(parse_manifest("", "[workspace]\nmembers = []\n").is_none());
    }
}
