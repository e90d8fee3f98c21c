//! Command line: `devil-bench --workload <name> --seed <n> --seconds <s>
//! --trace <0|1>`. Prints the human-readable report, then, as the last
//! line of standard output, one JSON object with the result. Exits 1
//! when an output check failed or a counter did not repeat, 2 on bad
//! arguments.

use devil_bench::{run, Config, Workload};
use std::process::ExitCode;

const USAGE: &str =
    "usage: devil-bench --workload <control_plane|bulk_io|spec_compile|fleet_traced> \
                     --seed <n> --seconds <s> --trace <0|1>";

fn parse(args: &[String]) -> Result<Config, String> {
    let mut cfg = Config::new(Workload::ControlPlane, 1, 10.0);
    let mut workload = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                workload =
                    Some(Workload::parse(name).ok_or_else(|| format!("unknown workload {name}"))?);
            }
            "--seed" => cfg.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                cfg.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(cfg.seconds > 0.0 && cfg.seconds <= 3600.0) {
                    return Err("--seconds must be in (0, 3600]".into());
                }
            }
            "--trace" => {
                cfg.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    cfg.workload = workload.ok_or("--workload is required")?;
    Ok(cfg)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cfg = match parse(&args) {
        Ok(cfg) => cfg,
        Err(e) => {
            eprintln!("devil-bench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let report = run(&cfg);
    print!("{}", report.render_text());
    println!("{}", report.render_json());
    if report.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
