//! `ascetic-bench <id>... | all | --list [--smoke]`

use ascetic_bench::experiments::{exit_code, list, run, Experiment, EXPERIMENTS};
use ascetic_bench::setup::Env;

fn main() {
    let (mut smoke, mut ids) = (false, Vec::new());
    for arg in std::env::args().skip(1) {
        match arg.as_str() {
            "--list" => return print!("{}", list()),
            "--smoke" => smoke = true,
            _ => ids.push(arg),
        }
    }
    let chosen: Vec<&Experiment> = match ids.as_slice() {
        [all] if all == "all" => EXPERIMENTS.iter().collect(),
        ids => {
            let find = |id: &String| EXPERIMENTS.iter().find(|e| e.id == id);
            let found: Option<Vec<_>> = ids.iter().map(find).collect();
            found.filter(|f| !f.is_empty()).unwrap_or_else(|| {
                eprintln!("usage: ascetic-bench <id>... | all | --list [--smoke]");
                eprintln!("{}", list());
                std::process::exit(2)
            })
        }
    };
    let mut env = Env::from_env();
    if smoke {
        env.scale = 50_000;
    }
    std::process::exit(exit_code(&run(&chosen, env, smoke)));
}
