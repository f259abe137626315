//! `admbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Prints the host and build, then, as its last line, one JSON object:
//! `{"correct":…,"attempted":…,"failed":…,"metrics":{name:{"value":…,"unit":…}}}`.
//! Diagnostics go to standard error. Exits non-zero when a run cannot
//! complete. The process runs on one CPU ([`host::pin_to_one_cpu`]).

use std::process::ExitCode;

use admbench::run::{end_to_end, Args, Report};
use admbench::workload::{Scale, Workload};
use admbench::{host, trace};

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(&value).ok_or_else(|| format!("unknown workload {value}"))?,
                )
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err("--seconds must lie in (0, 600]".into());
                }
                seconds = Some(s)
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                })
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
        scale: Scale::FULL,
    })
}

fn json_line(r: &Report) -> Result<String, String> {
    let mut metrics = Vec::new();
    for (name, value, unit) in &r.metrics {
        if !value.is_finite() {
            return Err(format!("metric {name} is not a finite number: {value}"));
        }
        metrics.push(format!(
            "\"{name}\":{{\"value\":{value},\"unit\":\"{unit}\"}}"
        ));
    }
    Ok(format!(
        "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
        r.correct,
        r.attempted,
        r.failed,
        metrics.join(",")
    ))
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("admbench: {e}");
            return ExitCode::from(2);
        }
    };
    let mut facts = host::describe(args.seed);
    // Before any thread starts, so that every thread inherits it.
    let pinned = host::pin_to_one_cpu();
    facts.push((
        "pinned_cpu",
        pinned.map_or_else(|| "none".to_string(), |c| c.to_string()),
    ));
    if pinned.is_none() {
        eprintln!("admbench: could not pin the process to one CPU; running unpinned");
    }
    let host: Vec<String> = facts
        .into_iter()
        .map(|(k, v)| format!("\"{k}\":{}", serde_json::to_string(&v).unwrap_or_default()))
        .collect();
    println!(
        "{{\"host\":{{{}}},\"workload\":\"{}\",\"trace\":{}}}",
        host.join(","),
        args.workload.name(),
        args.trace
    );
    let result = if args.trace {
        trace::per_layer(&args, Some(std::path::Path::new("admbench/traces")))
    } else {
        end_to_end(&args)
    };
    match result.and_then(|r| json_line(&r).map(|line| (r, line))) {
        Ok((r, line)) => {
            for note in &r.notes {
                eprintln!("admbench: {note}");
            }
            println!("{line}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("admbench: {e}");
            ExitCode::FAILURE
        }
    }
}
