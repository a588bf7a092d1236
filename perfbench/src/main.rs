//! `perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Prints a header line (run settings and sample counts) and, as the last
//! line of standard output, the result object: `correct`, `attempted`,
//! `failed` and `metrics` (end-to-end metrics with `--trace 0`, per-layer
//! metrics with `--trace 1`). Exits 1 when any reply or end-of-run check
//! contradicts the model, 2 on a usage or run error.

use hdnh_perfbench::metrics::{result_line, END_TO_END, PER_LAYER};
use hdnh_perfbench::run::{run, Options};
use hdnh_perfbench::workload::Spec;

const USAGE: &str =
    "usage: perfbench --workload <skewed-read|uniform-grow|spill-churn> --seed <n> \
                     --seconds <s> --trace <0|1>";

fn usage(msg: &str) -> ! {
    eprintln!("perfbench: {msg}\n{USAGE}");
    std::process::exit(2);
}

fn parse() -> Options {
    let mut spec = None;
    let (mut seed, mut seconds, mut trace) = (None, 10.0, false);
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let val = args
            .next()
            .unwrap_or_else(|| usage(&format!("{flag} needs a value")));
        let bad = || -> ! { usage(&format!("bad value '{val}' for {flag}")) };
        match flag.as_str() {
            "--workload" => spec = Some(Spec::named(&val).unwrap_or_else(|| bad())),
            "--seed" => seed = Some(val.parse::<u64>().unwrap_or_else(|_| bad())),
            "--seconds" => {
                seconds = val
                    .parse::<f64>()
                    .ok()
                    .filter(|s| *s > 0.0)
                    .unwrap_or_else(|| bad())
            }
            "--trace" => {
                trace = match val.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => bad(),
                }
            }
            _ => usage(&format!("unknown flag {flag}")),
        }
    }
    let spec = spec.unwrap_or_else(|| usage("--workload is required"));
    let seed = seed.unwrap_or_else(|| usage("--seed is required"));
    let out =
        std::env::current_dir().unwrap_or_else(|e| usage(&format!("no working directory: {e}")));
    let work =
        out.join(".perfbench-out")
            .join(format!("work-{}-{}", spec.name, std::process::id()));
    Options {
        spec,
        seed,
        seconds,
        trace,
        work,
    }
}

fn main() {
    let opts = parse();
    let outcome = run(&opts);
    // The scratch pools go whatever happened; the trace stays next to them.
    let _ = std::fs::remove_dir_all(&opts.work);
    let outcome = outcome.unwrap_or_else(|e| {
        eprintln!("perfbench: {e}");
        std::process::exit(2);
    });
    let defs = if opts.trace { PER_LAYER } else { END_TO_END };
    let metrics = outcome.values.to_json(defs).unwrap_or_else(|e| {
        eprintln!("perfbench: {e}");
        std::process::exit(2);
    });
    for w in &outcome.wrong {
        eprintln!("perfbench: WRONG: {w}");
    }
    println!("{}", outcome.header);
    println!(
        "{}",
        result_line(outcome.correct, outcome.attempted, outcome.failed, &metrics)
    );
    std::process::exit(if outcome.correct { 0 } else { 1 });
}
