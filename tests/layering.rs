//! Crate layering and module acyclicity, checked from the source tree.
//!
//! Engine crates (stats, needletail, core, datagen) never reach up into the
//! facade, serving, simulation or bench layers; dev-dependencies are exempt,
//! as cargo permits dev-only cycles. Within one crate, the `crate::<module>`
//! references between top-level modules (not the crate root) form no cycle.
//! The IFOCUS round is written once: `crates/core/src` calls
//! `begin_round(` at exactly one non-test site. And the facade's serving
//! path reads COUNT from the plan: no non-test line under `src/` names the
//! §6.3.2 size-estimating machinery.

use std::collections::{BTreeMap, BTreeSet};
use std::fs;
use std::path::{Path, PathBuf};

/// Every first-party crate, then the first-party crates its `[dependencies]`
/// may name. The table must itself be acyclic.
const LAYERS: [&str; 8] = [
    "rapidviz-stats:",
    "rapidviz-needletail:",
    "rapidviz-core: rapidviz-stats",
    "rapidviz-datagen: rapidviz-stats rapidviz-core rapidviz-needletail",
    "rapidviz: rapidviz-stats rapidviz-needletail rapidviz-datagen rapidviz-core",
    "rapidviz-serve: rapidviz rapidviz-stats rapidviz-needletail rapidviz-datagen rapidviz-core",
    "rapidviz-sim: rapidviz rapidviz-serve rapidviz-core rapidviz-needletail",
    "rapidviz-bench: rapidviz-needletail rapidviz-datagen rapidviz-core",
];

type Graph = BTreeMap<String, BTreeSet<String>>;

/// A graph from `"node: target target"` entries, the format of [`LAYERS`].
fn graph_of(entries: &[&str]) -> Graph {
    let edges = |entry: &&str| {
        let (node, targets) = entry.split_once(':').unwrap();
        let targets = targets.split_whitespace().map(String::from).collect();
        (node.to_owned(), targets)
    };
    entries.iter().map(edges).collect()
}

/// `(name, directory, dependencies)` of the root package and of every
/// package under `crates/`; the shims take no part in the layering.
fn crates() -> Vec<(String, PathBuf, Vec<String>)> {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let members = fs::read_dir(root.join("crates")).unwrap();
    let dirs = members
        .map(|e| e.unwrap().path())
        .chain([root.to_path_buf()]);
    let read = |dir: PathBuf| {
        let (name, deps) = parse_manifest(&fs::read_to_string(dir.join("Cargo.toml")).unwrap());
        (name, dir, deps)
    };
    dirs.map(read).collect()
}

/// The package name and the keys of every non-dev dependency table.
fn parse_manifest(text: &str) -> (String, Vec<String>) {
    let (mut section, mut name, mut deps) = ("", String::new(), Vec::new());
    for line in text.lines().map(|l| l.split('#').next().unwrap().trim()) {
        if line.starts_with('[') {
            section = line;
        } else if let Some((key, value)) = line.split_once('=') {
            let key = key.trim();
            if section == "[package]" && key == "name" {
                name = value.trim().trim_matches('"').to_owned();
            } else if section.ends_with("dependencies]") && !section.contains("dev-") {
                deps.push(key.split('.').next().unwrap().trim().to_owned());
            }
        }
    }
    (name, deps)
}

/// A file's non-comment lines above its first `#[cfg(test)]`, trimmed at
/// the start.
fn code_lines(source: &str) -> impl Iterator<Item = &str> {
    let lines = source.lines().map(str::trim_start);
    let code = lines.take_while(|l| !l.starts_with("#[cfg(test)]"));
    code.filter(|l| !l.starts_with("//"))
}

/// The top-level modules a file names through `crate::` paths, read from
/// its [`code_lines`]. The lines are joined first, so a `use crate::{…};`
/// spanning several lines reads whole.
fn module_refs(source: &str) -> BTreeSet<String> {
    let code = code_lines(source).collect::<Vec<_>>().join(" ");
    let ident = |s: &str| -> String {
        let word = |c: &char| c.is_alphanumeric() || *c == '_';
        s.trim_start().chars().take_while(word).collect()
    };
    let mut refs = BTreeSet::new();
    for (at, _) in code.match_indices("crate::") {
        if code[..at].ends_with(|c: char| c.is_alphanumeric() || c == '_') {
            continue;
        }
        let rest = code[at + "crate::".len()..].trim_start();
        let Some(group) = rest.strip_prefix('{') else {
            refs.insert(ident(rest));
            continue;
        };
        // The first segment of each top-level item: `a::X, b::{Y, Z}, c`.
        refs.insert(ident(group));
        let mut depth = 0;
        for (i, c) in group.char_indices() {
            match c {
                '{' => depth += 1,
                '}' if depth == 0 => break,
                '}' => depth -= 1,
                ',' if depth == 0 => {
                    refs.insert(ident(&group[i + 1..]));
                }
                _ => {}
            }
        }
    }
    refs.remove("");
    refs
}

/// Every `.rs` file under `dir`, at any depth.
fn rust_files(dir: &Path) -> Vec<PathBuf> {
    let (mut files, mut dirs) = (Vec::new(), vec![dir.to_path_buf()]);
    while let Some(dir) = dirs.pop() {
        for path in fs::read_dir(dir).unwrap().map(|e| e.unwrap().path()) {
            if path.is_dir() {
                dirs.push(path);
            } else if path.extension().is_some_and(|e| e == "rs") {
                files.push(path);
            }
        }
    }
    files
}

/// The `crate::` reference graph between a crate's top-level modules.
/// `src/lib.rs`, `src/main.rs` and `src/bin/` are not modules of the library.
fn module_graph(src: &Path) -> Graph {
    let mut graph = Graph::new();
    for path in rust_files(src) {
        let top = path.strip_prefix(src).unwrap().components().next().unwrap();
        let module = top.as_os_str().to_str().unwrap().trim_end_matches(".rs");
        if !matches!(module, "lib" | "main" | "bin") {
            let refs = module_refs(&fs::read_to_string(&path).unwrap());
            graph.entry(module.to_owned()).or_default().extend(refs);
        }
    }
    let modules: BTreeSet<String> = graph.keys().cloned().collect();
    for (module, refs) in &mut graph {
        refs.retain(|r| r != module && modules.contains(r));
    }
    graph
}

/// The nodes left after repeatedly peeling off every node with no edge
/// into, or no edge from, the rest: empty exactly when `graph` is acyclic.
fn cyclic_core(graph: &Graph) -> Vec<&String> {
    let mut left: BTreeSet<&String> = graph.keys().collect();
    let out_of = |n: &String| graph.get(n).into_iter().flatten();
    while let Some(peel) = left.iter().copied().find(|n| {
        !out_of(n).any(|t| left.contains(t)) || !left.iter().any(|m| out_of(m).any(|t| t == *n))
    }) {
        left.remove(peel);
    }
    left.into_iter().collect()
}

#[test]
fn crate_dependencies_follow_the_layering_table() {
    let (crates, layers) = (crates(), graph_of(&LAYERS));
    let names: BTreeSet<&str> = crates.iter().map(|(name, _, _)| name.as_str()).collect();
    let mut errors = Vec::new();
    let cycle = cyclic_core(&layers);
    if !cycle.is_empty() {
        errors.push(format!("LAYERS has a cycle through {cycle:?}"));
    }
    for (name, deps) in &layers {
        let stale = deps
            .iter()
            .chain([name])
            .filter(|n| !names.contains(n.as_str()));
        errors.extend(stale.map(|n| format!("stale LAYERS entry `{n}`")));
    }
    for (name, _, deps) in &crates {
        let Some(allowed) = layers.get(name) else {
            errors.push(format!("crate `{name}` is missing from LAYERS"));
            continue;
        };
        let first_party = deps.iter().filter(|d| names.contains(d.as_str()));
        let banned = first_party.filter(|d| !allowed.contains(*d));
        errors.extend(banned.map(|d| format!("`{name}` may not depend on `{d}`")));
    }
    assert!(errors.is_empty(), "{}", errors.join("\n"));
}

#[test]
fn no_crate_has_a_module_cycle() {
    for (name, dir, _) in crates() {
        let graph = module_graph(&dir.join("src"));
        let cycle = cyclic_core(&graph);
        assert!(cycle.is_empty(), "`{name}`: module cycle through {cycle:?}");
    }
}

#[test]
fn the_checks_read_use_groups_and_find_cycles() {
    let source = "// crate::commented\nuse crate::{\n    a::X,\n    b::{Y, Z},\n};\n\
                  fn f(_: crate::c::T, _: my_crate::d::U) {}\n#[cfg(test)]\nuse crate::e;\n";
    let expected: BTreeSet<String> = ["a", "b", "c"].map(String::from).into();
    assert_eq!(module_refs(source), expected);
    assert!(cyclic_core(&graph_of(&["a: b c", "b: c", "c:"])).is_empty());
    let cycle = graph_of(&["a: b", "b: c", "c: b d", "d:"]);
    assert_eq!(cyclic_core(&cycle), ["b", "c"]);
}

#[test]
fn the_ifocus_round_has_one_begin_round_call_site() {
    let core = Path::new(env!("CARGO_MANIFEST_DIR")).join("crates/core/src");
    let mut sites = Vec::new();
    for path in rust_files(&core) {
        let source = fs::read_to_string(&path).unwrap();
        let calls = code_lines(&source)
            .filter(|l| l.contains("begin_round(") && !l.contains("fn begin_round"));
        sites.extend(calls.map(|l| format!("{}: {l}", path.display())));
    }
    assert_eq!(
        sites.len(),
        1,
        "non-test `begin_round(` call sites: {sites:#?}"
    );
}

#[test]
fn the_serving_path_reads_count_from_the_plan() {
    // §6.3.2's unknown-size COUNT machinery stays a library reference: no
    // non-test line of the facade crate names it.
    const SIZE_ESTIMATING: [&str; 5] = [
        "IFocusSum2",
        "CountSource",
        "count_config",
        "sized_group_handles",
        "SizedNeedletailGroup",
    ];
    let src = Path::new(env!("CARGO_MANIFEST_DIR")).join("src");
    let mut uses = Vec::new();
    for path in rust_files(&src) {
        let source = fs::read_to_string(&path).unwrap();
        let named = code_lines(&source).filter(|l| SIZE_ESTIMATING.iter().any(|n| l.contains(n)));
        uses.extend(named.map(|l| format!("{}: {l}", path.display())));
    }
    assert!(uses.is_empty(), "non-test uses under src/: {uses:#?}");
}
