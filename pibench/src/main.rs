//! `pibench` — the repository's one benchmark.
//!
//! ```text
//! pibench --workload <name> --seed <n> --seconds <s> --trace <0|1>   one workload, in this process
//! pibench [--seed n] [--seconds s]                                   all four, each pass in a child
//! pibench --aa N [--seed n] [--workload <name>]                      2×N suites, set A against set B
//! pibench --smoke [--seed n]                                         tiny tables, determinism check
//! ```
//!
//! The last line of standard output is one JSON object with the keys
//! `correct`, `attempted`, `failed` and `metrics`; the exit code is
//! non-zero when an answer diverged from its index-free replay.

mod adhoc_exec;
mod cal;
mod harness;
mod ingest_durable;
mod metrics;
mod probes;
mod rec;
mod served_dash;
mod suite;
mod tpch_refresh;
mod util;
mod workload;

use harness::{Opts, Outcome};
use workload::Workload;

#[derive(Debug, Default)]
struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    smoke: bool,
    aa: Option<usize>,
}

fn parse_args() -> Result<Args, String> {
    let mut a = Args {
        seed: 1,
        seconds: metrics::RUN_SECONDS as f64,
        ..Args::default()
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = |what: &str| it.next().ok_or(format!("{flag} needs {what}"));
        match flag.as_str() {
            "--workload" => a.workload = Some(value("a name")?),
            "--seed" => {
                a.seed = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?
            }
            "--seconds" => {
                a.seconds = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?
            }
            "--trace" => a.trace = value("0 or 1")? == "1",
            "--aa" => {
                a.aa = Some(
                    value("a count")?
                        .parse()
                        .map_err(|e| format!("--aa: {e}"))?,
                )
            }
            "--smoke" => a.smoke = true,
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(a)
}

fn run_one<W: Workload>(o: &Opts, trace: bool) -> Outcome {
    if trace {
        harness::run_traced::<W>(o)
    } else {
        harness::run_e2e::<W>(o)
    }
}

fn dispatch(name: &str, o: &Opts, trace: bool) -> Result<Outcome, String> {
    Ok(match name {
        "served_dash" => run_one::<served_dash::ServedDash>(o, trace),
        "adhoc_exec" => run_one::<adhoc_exec::AdhocExec>(o, trace),
        "ingest_durable" => run_one::<ingest_durable::IngestDurable>(o, trace),
        "tpch_refresh" => run_one::<tpch_refresh::TpchRefresh>(o, trace),
        other => return Err(format!("unknown workload {other:?}")),
    })
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("pibench: {e}");
            std::process::exit(2);
        }
    };
    let opts = Opts {
        seed: args.seed,
        seconds: args.seconds,
        smoke: args.smoke,
    };
    let code = if let Some(n) = args.aa {
        suite::aa_report(&opts, n, args.workload.as_deref())
    } else if let Some(name) = &args.workload {
        match dispatch(name, &opts, args.trace) {
            Ok(out) => match out.metrics.iter().find(|(_, v)| !v.is_finite()) {
                // A run whose arithmetic broke has no result to print.
                Some((metric, v)) => {
                    eprintln!("pibench: {name}: {metric} is {v}, not a number a run can report");
                    1
                }
                None => {
                    suite::print_outcome(name, args.trace, &out);
                    i32::from(!out.correct)
                }
            },
            Err(e) => {
                eprintln!("pibench: {e}");
                2
            }
        }
    } else if args.smoke {
        suite::smoke(&opts)
    } else {
        suite::run_suite(&opts)
    };
    std::process::exit(code);
}
