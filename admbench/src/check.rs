//! Output checks against the retained reference engine.
//!
//! `traj_analysis::analyze_all_reference` is the pre-cache Property 2
//! engine. Every flow of these workloads is EF, so the non-preemption
//! term δ of Property 3 is 0 and the production bounds must equal the
//! reference bounds bit for bit. A screen-answered admission carries the
//! looser network-calculus bound instead, which must dominate.

use std::collections::HashMap;

use serde::value::field;
use serde::Value;
use traj_analysis::{analyze_all_reference, AnalysisConfig};
use traj_model::{FlowSet, Network, SporadicFlow};

use crate::workload::Outcome;

/// A decision taken in the timed stream, kept for re-deciding.
pub struct Sample {
    /// The topology.
    pub network: Network,
    /// The standing set the decision was taken against.
    pub standing: Vec<SporadicFlow>,
    /// The candidate.
    pub candidate: SporadicFlow,
    /// What the daemon answered.
    pub outcome: Outcome,
}

fn reference(
    network: &Network,
    flows: Vec<SporadicFlow>,
) -> Result<(FlowSet, Vec<Option<i64>>), String> {
    let set = FlowSet::new(network.clone(), flows).map_err(|e| e.to_string())?;
    let report = analyze_all_reference(&set, &AnalysisConfig::default());
    let bounds = report.per_flow().iter().map(|r| r.wcrt.value()).collect();
    Ok((set, bounds))
}

/// Re-decides `s` with the reference engine: the candidate is
/// admissible iff every flow of the extended set has a bound within its
/// deadline. An admission must be admissible and carry a bound no
/// smaller than the reference bound; a rejection must be inadmissible.
pub fn check_sample(s: &Sample) -> Result<(), String> {
    let mut flows = s.standing.clone();
    flows.push(s.candidate.clone());
    let (set, bounds) = reference(&s.network, flows)?;
    let admissible = set
        .flows()
        .iter()
        .zip(&bounds)
        .all(|(f, b)| b.is_some_and(|b| b <= f.deadline));
    let id = s.candidate.id;
    match (&s.outcome, admissible) {
        (Outcome::Admitted { wcrt }, true) => {
            let exact = bounds.last().copied().flatten().unwrap_or(i64::MAX);
            if *wcrt < exact {
                Err(format!(
                    "flow {id}: answered bound {wcrt} below the reference bound {exact}"
                ))
            } else {
                Ok(())
            }
        }
        (Outcome::Rejected, false) => Ok(()),
        (Outcome::Admitted { .. }, false) => Err(format!(
            "flow {id}: admitted, but the reference engine rejects it"
        )),
        (Outcome::Rejected, true) => Err(format!(
            "flow {id}: rejected, but the reference engine admits it"
        )),
        (Outcome::Released, _) => Err(format!("flow {id}: a decision sample holds no decision")),
    }
}

fn report_rows(report: &Value) -> Option<&[Value]> {
    report
        .as_map()
        .and_then(|m| field(m, "flows"))
        .and_then(Value::as_seq)
}

fn row_id(row: &[(String, Value)]) -> Option<i128> {
    field(row, "id").and_then(Value::as_int)
}

/// Checks that a `report` result lists exactly the client's standing
/// flows: every released flow is gone, every admitted one present.
pub fn check_ids(report: &Value, standing: &[SporadicFlow]) -> Vec<String> {
    let Some(rows) = report_rows(report) else {
        return vec!["report without a flows list".to_string()];
    };
    let mut listed: Vec<i128> = rows
        .iter()
        .filter_map(Value::as_map)
        .filter_map(row_id)
        .collect();
    let mut held: Vec<i128> = standing.iter().map(|f| f.id.0 as i128).collect();
    listed.sort_unstable();
    held.sort_unstable();
    if listed == held {
        return Vec::new();
    }
    let extra: Vec<&i128> = listed
        .iter()
        .filter(|i| held.binary_search(i).is_err())
        .collect();
    let missing: Vec<&i128> = held
        .iter()
        .filter(|i| listed.binary_search(i).is_err())
        .collect();
    vec![format!(
        "report lists flows the client does not hold {extra:?} and misses {missing:?}"
    )]
}

/// [`check_ids`], plus each bound equal to the reference bound and
/// within its deadline. Returns one message per fault found.
pub fn check_report(report: &Value, network: &Network, standing: &[SporadicFlow]) -> Vec<String> {
    let mut faults = check_ids(report, standing);
    let Some(rows) = report_rows(report) else {
        return faults;
    };
    let (_, bounds) = match reference(network, standing.to_vec()) {
        Ok(r) => r,
        Err(e) => return vec![format!("client's standing set is invalid: {e}")],
    };
    let by_id: HashMap<i128, &[(String, Value)]> = rows
        .iter()
        .filter_map(Value::as_map)
        .filter_map(|m| row_id(m).map(|id| (id, m)))
        .collect();
    for (f, expect) in standing.iter().zip(&bounds) {
        let Some(row) = by_id.get(&(f.id.0 as i128)) else {
            continue;
        };
        let wcrt = field(row, "wcrt").and_then(Value::as_int).map(|w| w as i64);
        if wcrt != *expect {
            faults.push(format!(
                "flow {}: report bound {wcrt:?}, reference bound {expect:?}",
                f.id
            ));
        }
        if wcrt.is_none_or(|w| w > f.deadline) {
            faults.push(format!(
                "flow {}: bound {wcrt:?} exceeds deadline {}",
                f.id, f.deadline
            ));
        }
    }
    faults
}
