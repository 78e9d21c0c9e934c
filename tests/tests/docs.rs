//! The prose docs cannot name dead things silently: README's "Test
//! suite" table and `tests/tests/` list the same suites, README's
//! `repro` job list and `repro`'s job table name the same jobs,
//! `docs/WIRE_PROTOCOL.md`'s command table and the server's dispatch
//! name the same command words, and every code path the README, the
//! architecture notes and the wire protocol name is defined where its
//! owner (a type or a module) lives.

use std::collections::BTreeSet;
use std::path::{Path, PathBuf};

use pi_server::{Client, Server, ServerConfig};
use pi_storage::{DataType, Field, Schema};

fn repo_file(rel: &str) -> String {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("..").join(rel);
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
}

/// The backticked names in the first column of the markdown table that
/// follows `heading`, up to the next heading.
fn first_column_names(doc: &str, heading: &str) -> Vec<String> {
    let section = doc
        .split_once(heading)
        .unwrap_or_else(|| panic!("no {heading:?} section"))
        .1;
    let section = section.split("\n#").next().unwrap();
    section
        .lines()
        .filter_map(|line| line.strip_prefix('|'))
        .filter_map(|row| row.split('|').next())
        .flat_map(|cell| cell.split('`').skip(1).step_by(2))
        .map(str::to_string)
        .collect()
}

#[test]
fn readme_test_suite_table_matches_the_suites_on_disk() {
    // Paths in the table (`crates/bitmap/tests/prop.rs`) name per-crate
    // suites; the bare names are the stems under `tests/tests/`.
    let named: BTreeSet<String> = first_column_names(&repo_file("README.md"), "## Test suite")
        .into_iter()
        .filter(|name| !name.contains('/'))
        .collect();
    let suites = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests");
    let on_disk: BTreeSet<String> = std::fs::read_dir(&suites)
        .unwrap()
        .map(|entry| entry.unwrap().path())
        .filter(|path| path.extension().is_some_and(|ext| ext == "rs"))
        .map(|path| path.file_stem().unwrap().to_str().unwrap().to_string())
        .collect();
    assert_eq!(
        named, on_disk,
        "README's Test suite table (left) and tests/tests/*.rs (right) must name the same suites"
    );
}

#[test]
fn readme_repro_job_list_matches_the_repro_job_table() {
    let readme = repo_file("README.md");
    let listed = readme
        .split_once("`repro` takes one of `")
        .and_then(|(_, rest)| rest.split_once('`'))
        .expect("README names the repro jobs")
        .0;
    let named: BTreeSet<&str> = listed.split_whitespace().collect();
    // The table rows read `("fig1", ex::fig1),`; `all` runs every row.
    let repro = repo_file("crates/bench/src/bin/repro.rs");
    let mut jobs: BTreeSet<&str> = repro
        .lines()
        .filter_map(|line| line.trim().strip_prefix("(\""))
        .filter_map(|row| row.split_once('"'))
        .map(|(name, _)| name)
        .collect();
    jobs.insert("all");
    assert_eq!(
        named, jobs,
        "README's repro job list (left) and repro's job table (right) must name the same jobs"
    );
}

#[test]
fn every_documented_command_word_is_known_to_a_live_server() {
    let words = first_column_names(&repo_file("docs/WIRE_PROTOCOL.md"), "## Commands");
    assert!(
        words.iter().any(|w| w == "PING"),
        "parsed the table: {words:?}"
    );
    let schema = Schema::new(vec![
        Field::new("k", DataType::Int),
        Field::new("v", DataType::Int),
    ]);
    let server = Server::empty(ServerConfig::with_shards(1), schema, 1).unwrap();
    let mut client = Client::connect(server.addr()).unwrap();
    // A bare word may well be a usage error; it must not be an unknown one.
    for word in &words {
        let resp = client.request(word).unwrap();
        assert!(!resp.contains("unknown command"), "{word}: {resp}");
    }
    let resp = client.request("FLUSH").unwrap();
    assert!(
        resp.starts_with("ERR BadCommand") && resp.contains("unknown command"),
        "{resp}"
    );
    server.shutdown();
}

#[test]
fn every_dispatched_command_word_is_documented() {
    let documented: BTreeSet<String> =
        first_column_names(&repo_file("docs/WIRE_PROTOCOL.md"), "## Commands")
            .into_iter()
            .collect();
    // The arms of `ServerInner::dispatch` read `"PING" => ...`, up to the
    // next function.
    let server = repo_file("crates/server/src/server.rs");
    let dispatch = server
        .split_once("fn dispatch(")
        .expect("the server dispatches")
        .1
        .split("\n    fn ")
        .next()
        .unwrap();
    let dispatched: BTreeSet<String> = dispatch
        .lines()
        .filter_map(|line| line.trim().strip_prefix('"'))
        .filter_map(|arm| arm.split_once("\" =>"))
        .map(|(word, _)| word.to_string())
        .collect();
    assert!(
        dispatched.contains("PING"),
        "parsed the arms: {dispatched:?}"
    );
    let undocumented: Vec<&String> = dispatched.difference(&documented).collect();
    assert!(
        undocumented.is_empty(),
        "dispatched but missing from WIRE_PROTOCOL.md's command table: {undocumented:?}"
    );
}

/// Every `.rs` file under `dir`, recursively.
fn rust_files(dir: &Path, out: &mut Vec<PathBuf>) {
    for entry in std::fs::read_dir(dir).unwrap() {
        let path = entry.unwrap().path();
        if path.is_dir() {
            rust_files(&path, out);
        } else if path.extension().is_some_and(|ext| ext == "rs") {
            out.push(path);
        }
    }
}

/// One source file of a crate: what it defines and which types it
/// defines or implements.
struct Source {
    /// The crate's name, then the path from the crate directory down
    /// without `.rs` (`["pi_exec", "src", "ops", "sort"]`), so a module
    /// owner matches a crate, a directory or a file stem.
    modules: Vec<String>,
    /// Names defined as a `fn`, `const`, `struct`, `enum`, `trait`,
    /// `type` or `mod`, or as a `pub` struct field.
    defines: BTreeSet<String>,
    /// Types defined here, or named after `impl` or `for`.
    owns: BTreeSet<String>,
}

/// Every source file of every crate under `crates/`.
fn sources() -> Vec<Source> {
    let crates = Path::new(env!("CARGO_MANIFEST_DIR")).join("../crates");
    let mut out = Vec::new();
    for krate in std::fs::read_dir(&crates).unwrap() {
        let dir = krate.unwrap().path();
        let src = dir.join("src");
        if !src.is_dir() {
            continue;
        }
        let manifest = std::fs::read_to_string(dir.join("Cargo.toml")).unwrap();
        let name = manifest
            .lines()
            .find_map(|line| line.strip_prefix("name = "))
            .expect("a crate names itself")
            .trim_matches('"')
            .replace('-', "_");
        let mut files = Vec::new();
        rust_files(&src, &mut files);
        for file in files {
            let text = std::fs::read_to_string(&file).unwrap();
            let words: Vec<&str> = text
                .split(|c: char| !(c.is_alphanumeric() || c == '_'))
                .filter(|w| !w.is_empty())
                .collect();
            let mut source = Source {
                modules: std::iter::once(name.clone())
                    .chain(file.strip_prefix(&dir).unwrap().iter().map(|c| {
                        let c = c.to_str().unwrap();
                        c.strip_suffix(".rs").unwrap_or(c).to_string()
                    }))
                    .collect(),
                defines: BTreeSet::new(),
                owns: BTreeSet::new(),
            };
            // A field line reads `pub name: Type,`.
            for line in text.lines() {
                let Some(field) = line.trim().strip_prefix("pub ") else {
                    continue;
                };
                let end = field
                    .find(|c: char| !(c.is_alphanumeric() || c == '_'))
                    .unwrap_or(field.len());
                let rest = &field[end..];
                if rest.starts_with(':') && !rest.starts_with("::") {
                    source.defines.insert(field[..end].to_string());
                }
            }
            for pair in words.windows(2) {
                let (keyword, name) = (pair[0], pair[1].to_string());
                if ["struct", "enum", "trait", "type", "impl", "for"].contains(&keyword) {
                    source.owns.insert(name.clone());
                }
                if ["fn", "const", "struct", "enum", "trait", "type", "mod"].contains(&keyword) {
                    source.defines.insert(name);
                }
            }
            out.push(source);
        }
    }
    out
}

/// Every `Owner::item` path the README, the architecture notes and the
/// wire protocol name must be defined where `Owner` lives: for a type
/// (CamelCase), in a file that defines or implements it; for a module
/// (lowercase), in `<owner>.rs` or under `<owner>/`, a crate name
/// standing for its sources. So a path outlives neither its item nor a move of the item
/// to another owner.
#[test]
fn every_documented_code_path_is_defined_in_the_crates() {
    let sources = sources();
    let mut stale = Vec::new();
    for doc in ["README.md", "docs/ARCHITECTURE.md", "docs/WIRE_PROTOCOL.md"] {
        let text = repo_file(doc);
        for span in text.split('`').skip(1).step_by(2) {
            // Plain `Owner::item` paths only: `a::{b, c}`, calls and
            // generics are not names.
            let segments: Vec<&str> = span.split("::").collect();
            let is_path = segments.len() > 1
                && segments.iter().all(|s| {
                    s.chars()
                        .next()
                        .is_some_and(|c| c.is_alphabetic() || c == '_')
                        && s.chars().all(|c| c.is_alphanumeric() || c == '_')
                });
            if !is_path || segments[0] == "std" {
                continue;
            }
            let [.., owner, item] = segments[..] else {
                unreachable!("a path has two segments or more")
            };
            let is_type = owner.starts_with(|c: char| c.is_uppercase());
            let defined = sources.iter().any(|source| {
                source.defines.contains(item)
                    && if is_type {
                        source.owns.contains(owner)
                    } else {
                        source.modules.iter().any(|m| m == owner)
                    }
            });
            if !defined {
                stale.push(format!("{doc}: `{span}`"));
            }
        }
    }
    assert!(
        stale.is_empty(),
        "documented but not defined where its owner lives: {stale:?}"
    );
}
