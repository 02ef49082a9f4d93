//! Regenerates the paper's evaluation artefacts (DESIGN.md §3):
//! `all_experiments` runs every one, `all_experiments <name>...` the named
//! ones, in the order given. An unknown name lists the valid ones and
//! exits non-zero before anything runs.
use std::process::ExitCode;

fn main() -> ExitCode {
    let registry = dpu_bench::experiments::experiments();
    let names: Vec<String> = std::env::args().skip(1).collect();
    let mut runs = Vec::new();
    for name in &names {
        match registry.iter().find(|(n, _)| n == name) {
            Some(&run) => runs.push(run),
            None => {
                eprintln!("unknown experiment `{name}`; valid names:");
                for (n, _) in &registry {
                    eprintln!("  {n}");
                }
                return ExitCode::FAILURE;
            }
        }
    }
    if names.is_empty() {
        runs = registry;
    }
    for (name, run) in runs {
        let t0 = std::time::Instant::now();
        print!("{}", run());
        println!("[{name} took {:.1}s]\n", t0.elapsed().as_secs_f64());
    }
    ExitCode::SUCCESS
}
