//! The end-to-end bin: one workload per process, tracing off. Stays on
//! the session surface — it must build even when `src/layers.rs` does not.

use sa_benchmark::cli::{parse, Command};
use sa_benchmark::{compare, report, run};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let code = match parse(&args, false) {
        Ok(Command::Run(args)) => {
            let prepared = run::prepare(&args);
            let outcome = run::run_end_to_end(&prepared, args.seconds, None);
            report::emit(&args, false, &outcome)
        }
        Ok(Command::Suite {
            seeds,
            out,
            seconds,
            smoke,
        }) => compare::suite(false, &seeds, &out, seconds, smoke),
        Ok(Command::Compare { a, b }) => compare::compare(&a, &b),
        Err(usage) => {
            eprintln!("{usage}");
            2
        }
    };
    std::process::exit(code);
}
