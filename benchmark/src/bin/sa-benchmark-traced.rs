//! The per-layer bin: the same workloads with spans on, plus the layer
//! ladder. The only target that compiles `src/layers.rs`.

#[path = "../layers.rs"]
mod layers;

use sa_benchmark::cli::{parse, Command};
use sa_benchmark::{compare, report, run};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let code = match parse(&args, true) {
        Ok(Command::Run(args)) => {
            let prepared = run::prepare(&args);
            let outcome = layers::run_traced(&args, &prepared);
            report::emit(&args, true, &outcome)
        }
        Ok(Command::Suite {
            seeds,
            out,
            seconds,
            smoke,
        }) => compare::suite(true, &seeds, &out, seconds, smoke),
        Ok(Command::Compare { a, b }) => compare::compare(&a, &b),
        Err(usage) => {
            eprintln!("{usage}");
            2
        }
    };
    std::process::exit(code);
}
