//! Reproduction harness: prints the paper's tables and figures.
//!
//! Usage:
//! `repro [fig1|fig6|table2|fig7|table3|fig8|fig9|fig10|fig11|all]`
//! Scale via env: `PI_BITMAP_BITS`, `PI_MICRO_ROWS`, `PI_TPCH_SF`,
//! `PI_UPDATES`, `PI_BULK_DELETES`, `PI_PUBLICBI_ROWS` (see `experiments`).

use pi_bench::experiments as ex;

type Job = (&'static str, fn() -> String);

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let what = args.first().map(String::as_str).unwrap_or("all");
    let jobs: Vec<Job> = vec![
        ("fig1", ex::fig1),
        ("fig6", ex::fig6),
        ("table2", ex::table2),
        ("fig7", ex::fig7),
        ("table3", ex::table3),
        ("fig8", ex::fig8),
        ("fig9", ex::fig9),
        ("fig10", ex::fig10),
        ("fig11", ex::fig11),
    ];
    let known: Vec<&str> = jobs.iter().map(|(n, _)| *n).collect();
    if what != "all" && !known.contains(&what) {
        eprintln!("unknown experiment {what:?}; choose one of {known:?} or \"all\"");
        std::process::exit(2);
    }
    for (name, f) in jobs {
        if what == "all" || what == name {
            let start = std::time::Instant::now();
            println!("=== {name} ===");
            println!("{}", f());
            println!("[{name} took {:.1} s]\n", start.elapsed().as_secs_f64());
        }
    }
}
