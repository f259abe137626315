//! One benchmark run: set-up, the timed closed loop, the checks, and
//! the metrics.

use std::time::Instant;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use serde::Value;

use crate::check::{check_ids, check_report, check_sample, Sample};
use crate::host::{self, Ticks};
use crate::stats::{median, percentile, samples_needed};
use crate::wire::{init_line, init_outcome, ok_result, outcome, request_line, Wire};
use crate::workload::{Client, Op, OpKind, Outcome, Phase, Scale, Workload};

/// What one run is asked to do.
#[derive(Debug, Clone, Copy)]
pub struct Args {
    /// The workload.
    pub workload: Workload,
    /// Seed of the inputs and of the request stream.
    pub seed: u64,
    /// Length of the timed loop.
    pub seconds: f64,
    /// Produce the per-layer ledger instead of the end-to-end metrics.
    pub trace: bool,
    /// Input sizes.
    pub scale: Scale,
}

/// A metric as printed: name, value, unit.
pub type Metric = (&'static str, f64, &'static str);

/// The outcome of a run.
#[derive(Debug)]
pub struct Report {
    /// No check failed on the operations that did not fail.
    pub correct: bool,
    /// Timed decisions attempted.
    pub attempted: u64,
    /// Timed decisions that errored or failed a check.
    pub failed: u64,
    /// The metrics, end-to-end or per-layer.
    pub metrics: Vec<Metric>,
    /// Diagnostics, one line each.
    pub notes: Vec<String>,
}

/// Cold `init`s of each epoch's input in its set-up; `init_p50_ms` is
/// the median of all of them.
pub const INITS_PER_INPUT: usize = 3;
/// Decisions re-decided with the reference engine, at most.
const MAX_SAMPLES: usize = 2;
/// The loop may overrun `seconds` by this factor to collect enough
/// samples for every percentile before it gives up.
const OVERRUN: f64 = 1.5;

/// A daemon ready for the timed loop.
pub struct Ready {
    /// The daemon.
    pub wire: Wire,
    /// The client, at its first timed round.
    pub client: Client,
    /// Next request id.
    pub next_id: u64,
}

/// Starts a fresh daemon on the input of `epoch`, initialises it cold
/// with that input [`INITS_PER_INPUT`] times, recording each init's
/// latency (ms) in `init_ms`, and runs the client up to its first timed
/// round. Request ids go on from `next_id`, so that they stay unique
/// over a run.
fn set_up(args: &Args, epoch: u32, next_id: u64, init_ms: &mut Vec<f64>) -> Result<Ready, String> {
    let mut ready = Ready {
        wire: Wire::start(),
        client: Client::new(args.workload, args.scale, args.seed, epoch),
        next_id,
    };
    let line = init_line(0, ready.client.initial());
    for _ in 0..INITS_PER_INPUT {
        let t = Instant::now();
        let resp = ready.wire.call(&line)?;
        init_ms.push(t.elapsed().as_secs_f64() * 1e3);
        init_outcome(ready.client.initial(), &resp)?;
    }
    while ready.client.phase() != Phase::Timed {
        untimed_op(&mut ready)?;
    }
    Ok(ready)
}

/// Runs one op outside the measurement (growth, warm-up); any failure
/// ends the run.
fn untimed_op(ready: &mut Ready) -> Result<(), String> {
    let op = ready.client.next_op();
    let resp = ready.wire.call(&request_line(ready.next_id, &op))?;
    ready.next_id += 1;
    let out = outcome(&op, &resp)?;
    ready.client.observe(&op, &out);
    Ok(())
}

/// One timed decision as the wire answered it.
pub struct Decision {
    /// The request id.
    pub id: u64,
    /// The request kind.
    pub kind: OpKind,
    /// Wall time of the line loop call, ms.
    pub ms: f64,
    /// The response line (empty when the call itself failed).
    pub response: String,
    /// Whether it errored or failed a check.
    pub failed: bool,
    /// Whether the answer was an admission (or a release).
    pub admitted: bool,
}

/// The timed closed loop's record.
pub struct Timed {
    /// Every timed decision, in order.
    pub decisions: Vec<Decision>,
    /// Indices into `decisions` where the second and later epochs start.
    pub epoch_starts: Vec<usize>,
    /// Time spent on all timed decisions, s (set-ups excluded).
    pub total_s: f64,
    /// Time each epoch's set-up took, s.
    pub setup_s: Vec<f64>,
    /// Latency of every set-up's `init`s, ms.
    pub init_ms: Vec<f64>,
    /// Process CPU time spent on all timed decisions, ms.
    pub cpu_ms: Option<f64>,
    /// Decisions kept for re-deciding, by index.
    pub samples: Vec<(usize, Sample)>,
    /// Faults and failures, one line each.
    pub notes: Vec<String>,
    /// Whether every report checked so far listed the right flows.
    pub reports_ok: bool,
    /// Share of the machine's CPU time stolen by the hypervisor during
    /// the epochs, when `/proc/stat` tells.
    pub steal: Option<f64>,
}

fn enough<'a>(decisions: impl Iterator<Item = &'a Decision> + Clone, times: usize) -> bool {
    let need = times * samples_needed(0.9);
    OpKind::ALL
        .iter()
        .all(|k| decisions.clone().filter(|d| d.kind == *k).count() >= need)
}

/// Asks for a `report` (outside the measurement) and checks it with
/// `check`.
fn report_faults(
    ready: &mut Ready,
    check: impl FnOnce(&Value, &Client) -> Vec<String>,
) -> Vec<String> {
    let line = format!("{{\"id\":{},\"op\":\"report\"}}", ready.next_id);
    ready.next_id += 1;
    match ready.wire.call(&line).and_then(|r| ok_result(&r)) {
        Ok(report) => check(&report, &ready.client),
        Err(e) => vec![e],
    }
}

/// Runs the workload's epochs one after the other, each on a fresh
/// daemon set up on the epoch's own input, and splits `seconds` of timed
/// decisions evenly over them: whole rounds, each line-loop call timed.
/// The set-ups are timed apart and the flows the daemon lists are
/// checked between epochs. The last epoch goes on until every kind has
/// enough samples for its p90 twice over, or the loop has overrun
/// `seconds` by [`OVERRUN`]. Returns the last epoch's daemon, for the
/// final checks.
pub fn timed_loop(args: &Args, seconds: f64) -> Result<(Ready, Timed), String> {
    let epochs = args.workload.epochs();
    let per_epoch = seconds / f64::from(epochs);
    let mut sampling = Sampling {
        rng: StdRng::seed_from_u64(args.seed ^ 0x0c4e_c4ed),
        // One candidate decision in `odds` is kept, so that the
        // MAX_SAMPLES kept spread over a run at the workload's usual
        // rate.
        odds: ((seconds * SAMPLE_RATE_HINT[args.workload as usize]) as u32 / MAX_SAMPLES as u32)
            .max(1),
    };
    let mut t = Timed {
        decisions: Vec::new(),
        epoch_starts: Vec::new(),
        total_s: 0.0,
        setup_s: Vec::new(),
        init_ms: Vec::new(),
        cpu_ms: Some(0.0),
        samples: Vec::new(),
        notes: Vec::new(),
        reports_ok: true,
        steal: None,
    };
    let ticks = Ticks::now();
    let mut ready: Option<Ready> = None;
    for epoch in 0..epochs {
        let mut next_id = 1;
        if let Some(mut old) = ready.take() {
            let faults = report_faults(&mut old, |r, c| check_ids(r, c.standing()));
            t.reports_ok &= faults.is_empty();
            t.notes.extend(faults);
            next_id = old.next_id;
            old.wire.shutdown()?;
            t.epoch_starts.push(t.decisions.len());
        }
        let start = Instant::now();
        let mut r = set_up(args, epoch, next_id, &mut t.init_ms)?;
        t.setup_s.push(start.elapsed().as_secs_f64());
        let last = epoch + 1 == epochs;
        let cpu0 = host::cpu_ms();
        let mut epoch_s = 0.0;
        loop {
            if r.client.at_round_start() {
                let done = if last {
                    (t.total_s >= seconds && enough(t.decisions.iter(), 2))
                        || t.total_s >= seconds * OVERRUN
                } else {
                    epoch_s >= per_epoch
                };
                if done {
                    break;
                }
            }
            let spent = timed_op(&mut r, &mut t, &mut sampling)?;
            t.total_s += spent;
            epoch_s += spent;
        }
        t.cpu_ms = match (t.cpu_ms, cpu0, host::cpu_ms()) {
            (Some(sum), Some(a), Some(b)) => Some(sum + b - a),
            _ => None,
        };
        ready = Some(r);
    }
    if ticks.known() {
        t.steal = Some(ticks.steal_until(Ticks::now()));
    }
    Ok((ready.expect("every workload has an epoch"), t))
}

/// Picks the decisions re-decided with the reference engine.
struct Sampling {
    rng: StdRng,
    odds: u32,
}

/// Asks the next request of the stream and records it as a timed
/// decision; returns the time spent on it, s, client side included.
fn timed_op(ready: &mut Ready, t: &mut Timed, sampling: &mut Sampling) -> Result<f64, String> {
    let t_op = Instant::now();
    let op = ready.client.next_op();
    let id = ready.next_id;
    let line = request_line(id, &op);
    ready.next_id += 1;
    let t_call = Instant::now();
    let resp = ready.wire.call(&line);
    let ms = t_call.elapsed().as_secs_f64() * 1e3;
    let (out, response, failed) = match resp.and_then(|r| outcome(&op, &r).map(|o| (o, r))) {
        Ok((o, r)) => (o, r, false),
        Err(e) => {
            t.notes.push(e);
            (Outcome::Rejected, String::new(), true)
        }
    };
    if let (Op::WhatIf(c) | Op::Admit(c), false) = (&op, failed) {
        if t.samples.len() < MAX_SAMPLES && sampling.rng.gen_range(0..sampling.odds) == 0 {
            t.samples.push((
                t.decisions.len(),
                Sample {
                    network: ready.client.network().clone(),
                    standing: ready.client.standing().to_vec(),
                    candidate: c.clone(),
                    outcome: out.clone(),
                },
            ));
        }
    }
    t.decisions.push(Decision {
        id,
        kind: op.kind(),
        ms,
        response,
        failed,
        admitted: out != Outcome::Rejected,
    });
    ready.client.observe(&op, &out);
    Ok(t_op.elapsed().as_secs_f64())
}

/// Candidate decisions per second each workload usually makes, by
/// `Workload` discriminant: only the spread of the re-decided samples
/// over a run depends on it.
const SAMPLE_RATE_HINT: [f64; 3] = [45.0, 40.0, 400.0];

/// Re-decides the samples and checks the final report against the
/// reference engine. Marks failed samples on `timed` and clears
/// `reports_ok` on a faulty report.
pub fn check(ready: &mut Ready, timed: &mut Timed) {
    for (i, s) in &timed.samples {
        if let Err(e) = check_sample(s) {
            timed.notes.push(e);
            timed.decisions[*i].failed = true;
        }
    }
    let faults = report_faults(ready, |r, c| check_report(r, c.network(), c.standing()));
    timed.reports_ok &= faults.is_empty();
    timed.notes.extend(faults);
}

fn latencies(timed: &Timed, kind: OpKind) -> Vec<f64> {
    timed
        .decisions
        .iter()
        .filter(|d| d.kind == kind && !d.failed)
        .map(|d| d.ms)
        .collect()
}

/// The untraced run: end-to-end metrics.
pub fn end_to_end(args: &Args) -> Result<Report, String> {
    let t_loop = Instant::now();
    let (mut ready, mut timed) = timed_loop(args, args.seconds)?;
    // Before the checks, whose reference engine is not the service's.
    let peak_rss_mb = host::peak_rss_mb().ok_or("cannot read VmHWM from /proc/self/status")?;
    let t_check = Instant::now();
    check(&mut ready, &mut timed);
    ready.wire.shutdown()?;
    let phases = format!(
        "phases: {} epochs {:.2} s (set-ups {:.2} s), checks {:.2} s; \
         standing flows at the end {}; CPU steal during the epochs {}",
        timed.setup_s.len(),
        (t_check - t_loop).as_secs_f64(),
        timed.setup_s.iter().sum::<f64>(),
        t_check.elapsed().as_secs_f64(),
        ready.client.standing().len(),
        timed
            .steal
            .map_or("unknown".to_string(), |s| format!("{:.1}%", s * 100.0))
    );

    let mut metrics: Vec<Metric> = vec![(
        "decisions_per_s",
        timed.decisions.len() as f64 / timed.total_s,
        "1/s",
    )];
    for (kind, q, name) in PERCENTILES {
        let lat = latencies(&timed, kind);
        let v = percentile(&lat, q).ok_or_else(|| {
            format!(
                "{name}: {} samples are too few for this percentile",
                lat.len()
            )
        })?;
        metrics.push((name, v, "ms"));
    }
    metrics.push((
        "init_p50_ms",
        median(&timed.init_ms).unwrap_or(f64::NAN),
        "ms",
    ));
    metrics.push(("setup_s", median(&timed.setup_s).unwrap_or(f64::NAN), "s"));
    metrics.push(("peak_rss_mb", peak_rss_mb, "MB"));
    let failed = timed.decisions.iter().filter(|d| d.failed).count() as u64;
    let mut notes = std::mem::take(&mut timed.notes);
    notes.push(phases);
    notes.extend(modes(&timed));
    notes.push(epoch_means(&timed));
    notes.push(format!(
        "decisions: {} whatif, {} admit, {} release; {} re-decided with the reference engine",
        latencies_count(&timed.decisions, OpKind::WhatIf),
        latencies_count(&timed.decisions, OpKind::Admit),
        latencies_count(&timed.decisions, OpKind::Release),
        timed.samples.len()
    ));
    Ok(Report {
        correct: timed.reports_ok,
        attempted: timed.decisions.len() as u64,
        failed,
        metrics,
        notes,
    })
}

/// Per kind, the answers' split and the median latency of each side,
/// to show where a percentile sits in a mixed stream.
fn modes(timed: &Timed) -> Vec<String> {
    OpKind::ALL
        .iter()
        .map(|&kind| {
            let side = |admitted: bool| -> Vec<f64> {
                timed
                    .decisions
                    .iter()
                    .filter(|d| d.kind == kind && !d.failed && d.admitted == admitted)
                    .map(|d| d.ms)
                    .collect()
            };
            let (yes, no) = (side(true), side(false));
            format!(
                "{}: {} admitted/released (median {:.3} ms), {} rejected (median {:.3} ms)",
                kind.name(),
                yes.len(),
                median(&yes).unwrap_or(0.0),
                no.len(),
                median(&no).unwrap_or(0.0)
            )
        })
        .collect()
}

/// Mean decision latency of each epoch, to show how far the inputs
/// drawn from one seed differ.
fn epoch_means(timed: &Timed) -> String {
    let mut bounds = vec![0];
    bounds.extend(&timed.epoch_starts);
    bounds.push(timed.decisions.len());
    let means: Vec<String> = bounds
        .windows(2)
        .map(|w| {
            let ms: Vec<f64> = timed.decisions[w[0]..w[1]].iter().map(|d| d.ms).collect();
            format!("{:.2}", crate::stats::mean(&ms).unwrap_or(0.0))
        })
        .collect();
    format!("mean decision latency by epoch, ms: {}", means.join(" "))
}

fn latencies_count(decisions: &[Decision], kind: OpKind) -> usize {
    decisions.iter().filter(|d| d.kind == kind).count()
}

/// The latency percentiles reported, by request kind.
const PERCENTILES: [(OpKind, f64, &str); 6] = [
    (OpKind::WhatIf, 0.5, "whatif_p50_ms"),
    (OpKind::WhatIf, 0.9, "whatif_p90_ms"),
    (OpKind::Admit, 0.5, "admit_p50_ms"),
    (OpKind::Admit, 0.9, "admit_p90_ms"),
    (OpKind::Release, 0.5, "release_p50_ms"),
    (OpKind::Release, 0.9, "release_p90_ms"),
];
