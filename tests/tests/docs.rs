//! The prose docs cannot name dead things silently: README's "Test
//! suite" table and `tests/tests/` list the same suites, README's
//! `repro` job list and `repro`'s job table name the same jobs, and
//! every command word in `docs/WIRE_PROTOCOL.md`'s command table is one
//! a live server knows.

use std::collections::BTreeSet;
use std::path::Path;

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
