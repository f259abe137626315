//! The traced run: the per-layer ledger.
//!
//! A traced run first runs the workload through the wire, untraced, for
//! half its time. It then replays the same seeded stream, decision for
//! decision, through the layers' public calls in this process, timing
//! each call from outside as a span. The replay's encoded response must
//! equal the wire's response line byte for byte, so the replay is the
//! same computation the daemon did.
//!
//! Spans of one decision share its request id and hang off the
//! decision's root span. Some spans are probes: they repeat work that
//! `try_admit` or `release` does inside (`model.extend_set`,
//! `analysis.remove`, and `analysis.extend` before an admit the screen
//! passes), so they measure that work but are left out of the layer sum.

use std::fmt::Write as _;
use std::time::Instant;

use serde::Value;
use traj_analysis::{addition_dirty_closure, AnalysisConfig, ConvergedState, SetReport};
use traj_diffserv::{AdmissionController, AdmissionDecision, TieredPolicy};
use traj_model::{FlowId, FlowSet, SporadicFlow};
use traj_netcalc::ScreenOutcome;
use traj_serve::protocol::{decision_to_value, obj, parse_request, Request, Response};

use crate::run::{check, timed_loop, Args, Metric, Report, INITS_PER_INPUT};
use crate::stats::{mean, median};
use crate::workload::{Client, Op, OpKind, Outcome, Phase};

/// One timed interval.
struct Span {
    /// Layer and call.
    name: &'static str,
    /// Request id of the decision it belongs to (0: set-up).
    decision: u64,
    /// Index of the span that caused it.
    parent: Option<usize>,
    /// Start and end, ns since the tracer started.
    start_ns: u64,
    end_ns: u64,
    /// Repeats work another span does; left out of the layer sum.
    probe: bool,
}

impl Span {
    fn ms(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e6
    }
}

/// Spans kept in memory until the run ends.
struct Tracer {
    origin: Instant,
    /// Every span, in the order opened.
    spans: Vec<Span>,
}

impl Tracer {
    fn new() -> Tracer {
        Tracer {
            origin: Instant::now(),
            spans: Vec::with_capacity(1 << 16),
        }
    }

    fn now(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    fn open(&mut self, name: &'static str, decision: u64, parent: Option<usize>) -> usize {
        let start_ns = self.now();
        self.spans.push(Span {
            name,
            decision,
            parent,
            start_ns,
            end_ns: start_ns,
            probe: false,
        });
        self.spans.len() - 1
    }

    fn close(&mut self, idx: usize) {
        self.spans[idx].end_ns = self.now();
    }

    /// Runs `f` inside a span named `name` under `parent`.
    fn time<T>(&mut self, name: &'static str, parent: usize, f: impl FnOnce() -> T) -> T {
        let decision = self.spans[parent].decision;
        let idx = self.open(name, decision, Some(parent));
        let out = f();
        self.close(idx);
        out
    }

    /// [`Self::time`] for a probe.
    fn probe<T>(&mut self, name: &'static str, parent: usize, f: impl FnOnce() -> T) -> T {
        let out = self.time(name, parent, f);
        let last = self.spans.len() - 1;
        self.spans[last].probe = true;
        out
    }
}

/// The decision an EF report implies for `cand`, by the controller's
/// rule: the first flow without a bound within its deadline rejects.
fn decide(report: &SetReport, cand: FlowId) -> AdmissionDecision {
    if let Some(r) = report
        .per_flow()
        .iter()
        .find(|r| r.meets_deadline() != Some(true))
    {
        return AdmissionDecision::Rejected {
            victim: r.flow,
            wcrt: r.wcrt.value(),
        };
    }
    match report.for_flow(cand).and_then(|r| r.wcrt.value()) {
        Some(wcrt) => AdmissionDecision::Admitted { wcrt },
        None => AdmissionDecision::Invalid(format!("flow {cand} has no bound")),
    }
}

fn outcome_of(d: &AdmissionDecision) -> Result<Outcome, String> {
    match d {
        AdmissionDecision::Admitted { wcrt } => Ok(Outcome::Admitted { wcrt: *wcrt }),
        AdmissionDecision::Rejected { .. } => Ok(Outcome::Rejected),
        AdmissionDecision::Invalid(m) => Err(m.clone()),
    }
}

/// What the fixed points of one decision reported.
#[derive(Default)]
struct Tally {
    rows_recomputed: Vec<f64>,
    rows_reused: Vec<f64>,
    rounds: Vec<f64>,
    solve_us: Vec<f64>,
    largest_component: usize,
    screen_attempts: u64,
    screen_hits: u64,
    /// Indices of the settle spans that followed a screened admit.
    screened_admits: Vec<usize>,
}

impl Tally {
    fn fixpoint(&mut self, state: &ConvergedState) {
        let t = state.telemetry();
        self.rounds.push(t.rounds as f64);
        self.solve_us
            .push(t.shards.iter().map(|s| s.solve_micros).sum::<u64>() as f64);
        self.largest_component = self.largest_component.max(t.largest_component);
    }

    fn rows(&mut self, stale: &[bool]) {
        let r = stale.iter().filter(|s| **s).count();
        self.rows_recomputed.push(r as f64);
        self.rows_reused.push((stale.len() - r) as f64);
    }
}

/// The rows a release re-solves: the flows that cross `id`, transitively.
fn release_closure(set: &FlowSet, id: FlowId) -> Vec<bool> {
    let mut flows: Vec<SporadicFlow> = set.flows().iter().filter(|f| f.id != id).cloned().collect();
    let n = flows.len();
    match set.flow(id) {
        Some(f) => flows.push(f.clone()),
        None => return vec![false; n],
    }
    match FlowSet::new(set.network().clone(), flows) {
        Ok(moved) => addition_dirty_closure(&moved, n)[..n].to_vec(),
        Err(_) => vec![false; n],
    }
}

/// A screened controller standing on `set`, as the daemon's `init`
/// installs it.
fn controller(set: &FlowSet) -> Result<AdmissionController, String> {
    let mut ac = AdmissionController::new(set.clone(), AnalysisConfig::default())
        .with_tiered(TieredPolicy::Screened);
    settle(&mut ac)?;
    Ok(ac)
}

fn settle(ac: &mut AdmissionController) -> Result<(), String> {
    ac.converged_state()
        .map(|_| ())
        .ok_or_else(|| "the standing set lost its bound".to_string())
}

/// Applies a set-up op directly, as the daemon's writer would.
fn apply(ac: &mut AdmissionController, op: &Op) -> Result<Outcome, String> {
    match op {
        Op::WhatIf(f) => {
            let screen = ac.screen_cache().map(|s| s.screen_admit(f));
            if let Some(ScreenOutcome::Pass { bound }) = screen {
                return Ok(Outcome::Admitted { wcrt: bound });
            }
            let state = ac.converged_state().ok_or("no standing state")?;
            let w = state.extend(f.clone()).map_err(|e| e.to_string())?;
            outcome_of(&decide(&w.report, f.id))
        }
        Op::Admit(f) => {
            let d = ac.try_admit(f.clone());
            if matches!(d, AdmissionDecision::Admitted { .. }) {
                settle(ac)?;
            }
            outcome_of(&d)
        }
        Op::Release(id) => {
            if !ac.release(*id).released() {
                return Err(format!("flow {id} not released"));
            }
            settle(ac)?;
            Ok(Outcome::Released)
        }
    }
}

/// Sets the client's epoch up as the wire run did: [`INITS_PER_INPUT`]
/// timed cold builds of its input, as many as the wire's `init`s, then
/// a controller standing on it, run up to its first timed round.
fn start_epoch(tr: &mut Tracer, client: &mut Client) -> Result<AdmissionController, String> {
    let cfg = AnalysisConfig::default();
    for _ in 0..INITS_PER_INPUT {
        let idx = tr.open("analysis.cold_build", 0, None);
        let built = ConvergedState::build_ef(client.initial(), &cfg);
        tr.close(idx);
        built.map_err(|v| format!("cold build failed: {v:?}"))?;
    }
    let mut ac = controller(client.initial())?;
    while client.phase() != Phase::Timed {
        let op = client.next_op();
        let out = apply(&mut ac, &op)?;
        client.observe(&op, &out);
    }
    Ok(ac)
}

/// Replays one timed decision with spans; returns the outcome and the
/// encoded response line.
fn traced(
    tr: &mut Tracer,
    tally: &mut Tally,
    ac: &mut AdmissionController,
    id: u64,
    line: &str,
) -> Result<(Outcome, String, usize), String> {
    let root = tr.open("decision", id, None);
    let env = tr
        .time("serve.decode", root, || parse_request(line))
        .map_err(|(_, m)| m)?;
    tr.spans[root].name = match env.req {
        Request::WhatIf { .. } => "decision.whatif",
        Request::Admit { .. } => "decision.admit",
        _ => "decision.release",
    };
    let rid = env.id;
    let (outcome, value) = match env.req {
        Request::WhatIf { flow } => {
            tally.screen_attempts += 1;
            let screen = ac.screen_cache().ok_or("no screen")?;
            let verdict = tr.time("netcalc.screen", root, || screen.screen_admit(&flow));
            let d = match verdict {
                ScreenOutcome::Pass { bound } => {
                    tally.screen_hits += 1;
                    tally.rows_recomputed.push(0.0);
                    tally.rows_reused.push(ac.flows().len() as f64);
                    AdmissionDecision::Admitted { wcrt: bound }
                }
                _ => {
                    let state = ac.converged_state().ok_or("no standing state")?;
                    let cand = flow.id;
                    let w = tr
                        .time("analysis.extend", root, || state.extend(flow))
                        .map_err(|e| e.to_string())?;
                    tally.rows(&w.stale);
                    if let Some(s) = w.state() {
                        tally.fixpoint(s);
                    }
                    decide(&w.report, cand)
                }
            };
            (outcome_of(&d)?, decision_to_value(&d))
        }
        Request::Admit { flow } => {
            let n = ac.flows().len();
            let tentative = tr.probe("model.extend_set", root, || {
                ac.flows().extended_with(flow.clone())
            });
            if let Ok(t) = &tentative {
                tally.rows(&addition_dirty_closure(t, n));
            }
            // What the screen saves: the exact what-if it lets the
            // admit skip.
            if ac
                .screen_cache()
                .is_some_and(|sc| sc.screen_admit(&flow).passed())
            {
                let state = ac.converged_state().ok_or("no standing state")?;
                tr.probe("analysis.extend", root, || state.extend(flow.clone()))
                    .map_err(|e| e.to_string())?;
            }
            let before = *ac.metrics();
            let d = tr.time("admission.try_admit", root, || ac.try_admit(flow));
            let after = *ac.metrics();
            tally.screen_attempts += (after.screen_hits + after.screen_fallbacks)
                - (before.screen_hits + before.screen_fallbacks);
            let screened = after.screen_hits > before.screen_hits;
            tally.screen_hits += u64::from(screened);
            if matches!(d, AdmissionDecision::Admitted { .. }) {
                let idx = tr.spans.len();
                tr.time("admission.settle", root, || settle(ac))?;
                if screened {
                    tally.screened_admits.push(idx);
                }
                if let Some(s) = ac.converged_state() {
                    tally.fixpoint(s);
                }
            }
            (outcome_of(&d)?, decision_to_value(&d))
        }
        Request::Release { flow_id } => {
            tally.rows(&release_closure(ac.flows(), flow_id));
            let state = ac.converged_state().ok_or("no standing state")?;
            tr.probe("analysis.remove", root, || state.remove(flow_id));
            let out = tr.time("admission.release", root, || ac.release(flow_id));
            if !out.released() {
                return Err(format!("flow {flow_id} not released"));
            }
            tr.time("admission.settle", root, || settle(ac))?;
            if let Some(s) = ac.converged_state() {
                tally.fixpoint(s);
            }
            (
                Outcome::Released,
                obj(vec![("outcome", Value::Str("released".into()))]),
            )
        }
        _ => return Err("unexpected request in the stream".into()),
    };
    let encoded = tr.time("serve.encode", root, || Response::ok(rid, value).to_line());
    tr.close(root);
    Ok((outcome, encoded, root))
}

/// Self time of every span: its duration minus its children's.
fn self_ms(spans: &[Span]) -> Vec<f64> {
    let mut own: Vec<f64> = spans.iter().map(Span::ms).collect();
    for s in spans {
        if let Some(p) = s.parent {
            own[p] -= s.ms();
        }
    }
    own
}

fn durations(spans: &[Span], name: &str) -> Vec<f64> {
    spans
        .iter()
        .filter(|s| s.name == name)
        .map(Span::ms)
        .collect()
}

fn med(v: &[f64]) -> f64 {
    median(v).unwrap_or(0.0)
}

/// The traced run: per-layer metrics. Writes the spans under `dir`
/// when given.
pub fn per_layer(args: &Args, dir: Option<&std::path::Path>) -> Result<Report, String> {
    // Untraced wire phase.
    let (mut ready, mut timed) = timed_loop(args, args.seconds / 2.0)?;
    check(&mut ready, &mut timed);
    ready.wire.shutdown()?;

    // Traced replay of the same stream.
    let mut epoch = 0;
    let mut client = Client::new(args.workload, args.scale, args.seed, epoch);
    let mut tr = Tracer::new();
    let mut ac = start_epoch(&mut tr, &mut client)?;
    let mut tally = Tally::default();
    let mut failed = 0u64;
    let mut notes = std::mem::take(&mut timed.notes);
    let mut roots = Vec::with_capacity(timed.decisions.len());
    let mut replay_s = 0.0;
    for (i, wire) in timed.decisions.iter().enumerate() {
        if timed.epoch_starts.contains(&i) {
            epoch += 1;
            client = Client::new(args.workload, args.scale, args.seed, epoch);
            ac = start_epoch(&mut tr, &mut client)?;
        }
        let t0 = Instant::now();
        let op = client.next_op();
        let line = crate::wire::request_line(wire.id, &op);
        let (out, encoded, root) = traced(&mut tr, &mut tally, &mut ac, wire.id, &line)?;
        if wire.failed || encoded != wire.response {
            failed += 1;
            if !wire.failed {
                notes.push(format!(
                    "decision {}: replay answered {encoded}, the wire {}",
                    wire.id, wire.response
                ));
            }
        }
        roots.push((wire.kind, root, wire.ms));
        client.observe(&op, &out);
        replay_s += t0.elapsed().as_secs_f64();
    }

    let spans = &tr.spans;
    let own = self_ms(spans);
    let unattributed = |kind: OpKind| -> f64 {
        let gaps: Vec<f64> = roots
            .iter()
            .filter(|(k, _, _)| *k == kind)
            .map(|&(_, root, wire_ms)| {
                let layers: f64 = spans
                    .iter()
                    .skip(root + 1)
                    .take_while(|s| s.parent == Some(root))
                    .filter(|s| !s.probe)
                    .map(Span::ms)
                    .sum();
                wire_ms - layers
            })
            .collect();
        med(&gaps)
    };
    let settle_ms: Vec<f64> = if tally.screened_admits.is_empty() {
        durations(spans, "admission.settle")
    } else {
        tally
            .screened_admits
            .iter()
            .map(|&i| spans[i].ms())
            .collect()
    };
    let n = timed.decisions.len() as f64;
    let cpu_ms = timed
        .cpu_ms
        .ok_or("cannot read CPU time from /proc/self/stat")?;
    let metrics: Vec<Metric> = vec![
        (
            "serve.decode_us",
            med(&durations(spans, "serve.decode")) * 1e3,
            "us",
        ),
        (
            "serve.encode_us",
            med(&durations(spans, "serve.encode")) * 1e3,
            "us",
        ),
        (
            "serve.unattributed_whatif_ms",
            unattributed(OpKind::WhatIf),
            "ms",
        ),
        (
            "serve.unattributed_admit_ms",
            unattributed(OpKind::Admit),
            "ms",
        ),
        (
            "serve.unattributed_release_ms",
            unattributed(OpKind::Release),
            "ms",
        ),
        (
            "netcalc.screen_us",
            med(&durations(spans, "netcalc.screen")) * 1e3,
            "us",
        ),
        (
            "netcalc.screen_attempts",
            tally.screen_attempts as f64,
            "count",
        ),
        ("netcalc.screen_hits", tally.screen_hits as f64, "count"),
        (
            "netcalc.screen_hit_ratio",
            tally.screen_hits as f64 / (tally.screen_attempts.max(1)) as f64,
            "ratio",
        ),
        (
            "admission.try_admit_ms",
            med(&durations(spans, "admission.try_admit")),
            "ms",
        ),
        (
            "admission.release_ms",
            med(&durations(spans, "admission.release")),
            "ms",
        ),
        ("admission.settle_ms", med(&settle_ms), "ms"),
        (
            "analysis.extend_ms",
            med(&durations(spans, "analysis.extend")),
            "ms",
        ),
        (
            "analysis.remove_ms",
            med(&durations(spans, "analysis.remove")),
            "ms",
        ),
        (
            "analysis.cold_build_ms",
            med(&durations(spans, "analysis.cold_build")),
            "ms",
        ),
        (
            "analysis.rows_recomputed",
            mean(&tally.rows_recomputed).unwrap_or(0.0),
            "rows",
        ),
        (
            "analysis.rows_reused",
            mean(&tally.rows_reused).unwrap_or(0.0),
            "rows",
        ),
        (
            "fixpoint.rounds",
            mean(&tally.rounds).unwrap_or(0.0),
            "rounds",
        ),
        (
            "fixpoint.solve_us",
            mean(&tally.solve_us).unwrap_or(0.0),
            "us",
        ),
        (
            "fixpoint.largest_component",
            tally.largest_component as f64,
            "flows",
        ),
        (
            "model.extend_set_us",
            med(&durations(spans, "model.extend_set")) * 1e3,
            "us",
        ),
        ("process.cpu_ms_per_decision", cpu_ms / n, "ms"),
        (
            "trace.overhead_pct",
            (replay_s / timed.total_s - 1.0) * 100.0,
            "%",
        ),
    ];

    // Self time per span name, for the notes and the span file.
    let mut names: Vec<&str> = spans.iter().map(|s| s.name).collect();
    names.sort_unstable();
    names.dedup();
    let mut ledger = String::from("self time, median ms:");
    for name in &names {
        let v: Vec<f64> = spans
            .iter()
            .zip(&own)
            .filter(|(s, _)| s.name == *name)
            .map(|(_, o)| *o)
            .collect();
        let _ = write!(ledger, " {name} {:.4} (n={})", med(&v), v.len());
    }
    notes.push(ledger);
    notes.push(format!(
        "replay {:.3} s against the wire's {:.3} s for {} decisions",
        replay_s,
        timed.total_s,
        timed.decisions.len()
    ));
    if let Some(dir) = dir {
        let path = write_spans(dir, args, spans, &own)?;
        notes.push(format!("spans written to {}", path.display()));
    }
    Ok(Report {
        correct: timed.reports_ok,
        attempted: timed.decisions.len() as u64,
        failed,
        metrics,
        notes,
    })
}

/// Writes one JSON line per span to `<dir>/<workload>.jsonl`.
fn write_spans(
    dir: &std::path::Path,
    args: &Args,
    spans: &[Span],
    own: &[f64],
) -> Result<std::path::PathBuf, String> {
    std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let path = dir.join(format!("{}.jsonl", args.workload.name()));
    let mut out = String::with_capacity(spans.len() * 96);
    for (i, (s, o)) in spans.iter().zip(own).enumerate() {
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        let _ = writeln!(
            out,
            "{{\"span\":{i},\"name\":\"{}\",\"decision\":{},\"parent\":{parent},\"start_ns\":{},\"end_ns\":{},\"self_ms\":{o},\"probe\":{}}}",
            s.name, s.decision, s.start_ns, s.end_ns, s.probe
        );
    }
    std::fs::write(&path, out).map_err(|e| format!("{}: {e}", path.display()))?;
    Ok(path)
}
