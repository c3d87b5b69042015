//! Experiment runner: regenerates every experiment's table and CSV.
//!
//! ```text
//! experiments                 # list available experiments
//! experiments all             # run everything (use --release!)
//! experiments e1 e4 e9        # run a subset
//! experiments --quick all     # quarter-scale smoke run
//! experiments --out DIR all   # CSV output directory (default: results)
//! experiments --seed N all    # override the base seed
//! ```

use std::process::ExitCode;
use std::time::Instant;
use sw_bench::{registry, Ctx};

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut ctx = Ctx::default();
    let mut selected: Vec<String> = Vec::new();
    let mut iter = args.into_iter();
    while let Some(arg) = iter.next() {
        match arg.as_str() {
            "--quick" => ctx.quick = true,
            "--out" => match iter.next() {
                Some(dir) => ctx.out_dir = dir.into(),
                None => {
                    eprintln!("--out needs a directory argument");
                    return ExitCode::FAILURE;
                }
            },
            "--seed" => match iter.next().and_then(|s| s.parse().ok()) {
                Some(seed) => ctx.seed = seed,
                None => {
                    eprintln!("--seed needs an integer argument");
                    return ExitCode::FAILURE;
                }
            },
            "--help" | "-h" => {
                print_usage();
                return ExitCode::SUCCESS;
            }
            other => selected.push(other.to_string()),
        }
    }
    let reg = registry();
    if selected.is_empty() {
        print_usage();
        return ExitCode::SUCCESS;
    }
    let run_all = selected.iter().any(|s| s == "all");
    let mut unknown: Vec<&String> = selected
        .iter()
        .filter(|s| *s != "all" && !reg.iter().any(|(id, _, _)| id == s))
        .collect();
    if !unknown.is_empty() {
        unknown.sort();
        eprintln!("unknown experiment id(s): {unknown:?} — run without arguments to list");
        return ExitCode::FAILURE;
    }
    let total = Instant::now();
    for (id, desc, runner) in &reg {
        if run_all || selected.iter().any(|s| s == id) {
            println!("\n### {id}: {desc}");
            let t = Instant::now();
            runner(&ctx);
            println!("  [{id} finished in {:.1}s]", t.elapsed().as_secs_f64());
        }
    }
    println!(
        "\nall selected experiments finished in {:.1}s; CSVs in {}",
        total.elapsed().as_secs_f64(),
        ctx.out_dir.display()
    );
    ExitCode::SUCCESS
}

fn print_usage() {
    println!("usage: experiments [--quick] [--out DIR] [--seed N] <ids...|all>\n");
    println!("available experiments:");
    for (id, desc, _) in registry() {
        println!("  {id:<4} {desc}");
    }
}
