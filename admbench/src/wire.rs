//! The wire side: requests cross `traj_serve::server::serve_connection`,
//! the line loop every TCP connection and `--stdio` run, reading from
//! and writing to memory on the caller's thread.
//!
//! Request lines are built and response lines read here, apart from the
//! daemon's own protocol code, so a fault in that code shows as a
//! failed check rather than cancelling out.

use serde::value::field;
use serde::Value;
use traj_diffserv::TieredPolicy;
use traj_model::FlowSet;
use traj_serve::{serve_connection, Engine, EngineConfig};

use crate::workload::{Op, Outcome};

/// A daemon engine with the screen on, and the buffer its responses
/// land in.
pub struct Wire {
    engine: Engine,
    out: Vec<u8>,
}

impl Wire {
    /// Starts the engine as the soak runs it: `TieredPolicy::Screened`.
    pub fn start() -> Wire {
        let cfg = EngineConfig {
            tiered: TieredPolicy::Screened,
            ..EngineConfig::default()
        };
        Wire {
            engine: Engine::start(None, cfg),
            out: Vec::with_capacity(1 << 16),
        }
    }

    /// Serves one request line and returns the response line.
    pub fn call(&mut self, line: &str) -> Result<String, String> {
        self.out.clear();
        let served = serve_connection(&self.engine, line.as_bytes(), &mut self.out)
            .map_err(|e| format!("line loop failed: {e}"))?;
        if served != 1 {
            return Err(format!("line loop served {served} requests, expected 1"));
        }
        let text = std::str::from_utf8(&self.out).map_err(|e| e.to_string())?;
        Ok(text.trim_end_matches('\n').to_string())
    }

    /// Stops the daemon and waits for its writer thread.
    pub fn shutdown(mut self) -> Result<(), String> {
        let resp = self.call("{\"op\":\"shutdown\"}")?;
        self.engine.join();
        ok_result(&resp).map(|_| ())
    }
}

/// The `init` request installing `set`.
pub fn init_line(id: u64, set: &FlowSet) -> String {
    format!(
        "{{\"id\":{id},\"op\":\"init\",\"network\":{},\"flows\":{}}}",
        json(set.network()),
        json(set.flows())
    )
}

/// The request line for `op`.
pub fn request_line(id: u64, op: &Op) -> String {
    match op {
        Op::WhatIf(f) => format!("{{\"id\":{id},\"op\":\"whatif\",\"flow\":{}}}", json(f)),
        Op::Admit(f) => format!("{{\"id\":{id},\"op\":\"admit\",\"flow\":{}}}", json(f)),
        Op::Release(fid) => format!("{{\"id\":{id},\"op\":\"release\",\"flow_id\":{}}}", fid.0),
    }
}

fn json<T: serde::Serialize + ?Sized>(v: &T) -> String {
    serde_json::to_string(v).expect("model types always serialize")
}

/// The `result` of a successful response line; `Err` for an error
/// response or a malformed line.
pub fn ok_result(line: &str) -> Result<Value, String> {
    let v: Value = serde_json::from_str(line).map_err(|e| format!("bad response {line}: {e}"))?;
    let entries = v.as_map().ok_or("response is not an object")?;
    match field(entries, "ok") {
        Some(Value::Bool(true)) => field(entries, "result")
            .cloned()
            .ok_or_else(|| "ok response without result".to_string()),
        _ => Err(format!("error response: {line}")),
    }
}

/// The outcome of `op` read from its response line. An error response,
/// an `invalid` decision or any release outcome but `released` is a
/// failure: no request of the workloads should meet one.
pub fn outcome(op: &Op, line: &str) -> Result<Outcome, String> {
    let result = ok_result(line)?;
    let entries = result.as_map().ok_or("result is not an object")?;
    let tag = |name: &str| field(entries, name).and_then(Value::as_str);
    match op {
        Op::WhatIf(_) | Op::Admit(_) => match tag("decision") {
            Some("admitted") => {
                let wcrt = field(entries, "wcrt")
                    .and_then(Value::as_int)
                    .ok_or("admitted without wcrt")?;
                Ok(Outcome::Admitted { wcrt: wcrt as i64 })
            }
            Some("rejected") => Ok(Outcome::Rejected),
            _ => Err(format!("unexpected decision: {line}")),
        },
        Op::Release(_) => match tag("outcome") {
            Some("released") => Ok(Outcome::Released),
            _ => Err(format!("unexpected release outcome: {line}")),
        },
    }
}

/// Checks the answer to an `init` of `set`: it must count every flow.
pub fn init_outcome(set: &FlowSet, line: &str) -> Result<(), String> {
    let result = ok_result(line)?;
    let entries = result.as_map().ok_or("result is not an object")?;
    match field(entries, "flows").and_then(Value::as_int) {
        Some(n) if n == set.len() as i128 => Ok(()),
        _ => Err(format!("unexpected init answer: {line}")),
    }
}
