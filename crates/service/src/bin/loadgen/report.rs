//! The one `gb-bench/v2` report every bench scenario writes:
//!
//! ```text
//! {schema: "gb-bench/v2", scenario, smoke, host: {cores, arch, os},
//!  config, phases: {name: PhaseStats + scenario extras},
//!  gates: [{name, value, op, bound, pass[, baseline]}], pass}
//! ```
//!
//! A gate compares one measured value against one bound. A gate whose
//! bound derives from a committed figure of a since-deleted engine
//! carries that figure and the commit it was measured at as `baseline`.

use std::path::{Path, PathBuf};
use std::process::ExitCode;

use gb_service::proto::Json;

use crate::runner::PhaseStats;

pub const SCHEMA: &str = "gb-bench/v2";

/// Where a report goes: `--out` when given, else the committed
/// `results/` file for full runs and `target/bench-smoke/` for smoke
/// runs, so a smoke run never overwrites committed evidence.
pub fn out_path(scenario: &str, smoke: bool, out: Option<&str>) -> PathBuf {
    let file = format!("BENCH_{scenario}.json");
    match out {
        Some(path) => PathBuf::from(path),
        None if smoke => Path::new("target").join("bench-smoke").join(file),
        None => Path::new("results").join(file),
    }
}

/// Named report values, in order.
pub type Fields = Vec<(&'static str, Json)>;

/// A JSON object from report fields.
pub fn obj(fields: Fields) -> Json {
    Json::Obj(fields.into_iter().map(|(k, v)| (k.into(), v)).collect())
}

/// A JSON integer from any count.
pub fn int(v: impl TryInto<i64>) -> Json {
    Json::Int(v.try_into().unwrap_or(i64::MAX))
}

pub fn text(s: &str) -> Json {
    Json::Str(s.into())
}

/// A committed figure a gate is measured against.
#[derive(Clone, Copy)]
pub struct Baseline {
    pub value: f64,
    /// The commit whose code produced the figure.
    pub commit: &'static str,
    pub what: &'static str,
}

pub struct Report {
    scenario: &'static str,
    smoke: bool,
    config: Fields,
    phases: Vec<(String, Json)>,
    gates: Vec<Json>,
    pass: bool,
}

impl Report {
    pub fn new(scenario: &'static str, smoke: bool) -> Report {
        Report {
            scenario,
            smoke,
            config: Vec::new(),
            phases: Vec::new(),
            gates: Vec::new(),
            pass: true,
        }
    }

    pub fn config(&mut self, fields: Fields) {
        self.config.extend(fields);
    }

    /// A traffic phase: its stats plus scenario extras.
    pub fn phase(&mut self, name: &str, stats: &PhaseStats, extras: Fields) {
        println!("  {name:<18} {}", stats.summary());
        self.phases.push((name.into(), stats.to_json(extras)));
    }

    /// Compares `value op bound` with `op` one of `>=`, `<=`, `>`, `<`.
    pub fn gate(&mut self, name: &str, value: f64, op: &'static str, bound: f64) {
        self.gate_vs(name, value, op, bound, None);
    }

    /// [`Report::gate`], recording the committed figure the bound
    /// derives from.
    pub fn gate_vs(
        &mut self,
        name: &str,
        value: f64,
        op: &'static str,
        bound: f64,
        baseline: Option<Baseline>,
    ) {
        let pass = match op {
            ">=" => value >= bound,
            "<=" => value <= bound,
            ">" => value > bound,
            "<" => value < bound,
            _ => unreachable!("unknown gate op {op}"),
        };
        let mut gate = vec![
            ("name", text(name)),
            ("value", Json::Num(value)),
            ("op", text(op)),
            ("bound", Json::Num(bound)),
            ("pass", Json::Bool(pass)),
        ];
        if let Some(b) = baseline {
            gate.push((
                "baseline",
                obj(vec![
                    ("value", Json::Num(b.value)),
                    ("commit", text(b.commit)),
                    ("what", text(b.what)),
                    ("source", text("committed")),
                ]),
            ));
        }
        self.push_gate(gate, pass);
    }

    /// A string-equality gate.
    pub fn gate_eq(&mut self, name: &str, value: &str, bound: &str) {
        let pass = value == bound;
        let gate = vec![
            ("name", text(name)),
            ("value", text(value)),
            ("op", text("==")),
            ("bound", text(bound)),
            ("pass", Json::Bool(pass)),
        ];
        self.push_gate(gate, pass);
    }

    fn push_gate(&mut self, gate: Fields, pass: bool) {
        let field = |i: usize| match &gate[i].1 {
            Json::Str(s) => s.clone(),
            other => other.encode(),
        };
        let verdict = if pass { "pass" } else { "FAILED" };
        println!(
            "  gate {}: {} {} {} — {verdict}",
            field(0),
            field(1),
            field(2),
            field(3)
        );
        self.gates.push(obj(gate));
        self.pass &= pass;
    }

    pub fn to_json(&self) -> Json {
        let cores = std::thread::available_parallelism().map_or(0, |n| n.get());
        let host = vec![
            ("cores", int(cores)),
            ("arch", text(std::env::consts::ARCH)),
            ("os", text(std::env::consts::OS)),
        ];
        Json::Obj(vec![
            ("schema".into(), text(SCHEMA)),
            ("scenario".into(), text(self.scenario)),
            ("smoke".into(), Json::Bool(self.smoke)),
            ("host".into(), obj(host)),
            ("config".into(), obj(self.config.clone())),
            ("phases".into(), Json::Obj(self.phases.clone())),
            ("gates".into(), Json::Arr(self.gates.clone())),
            ("pass".into(), Json::Bool(self.pass)),
        ])
    }

    /// Writes the report to its [`out_path`]; the exit code is success
    /// only when the file was written and every gate passed.
    pub fn write(&self, out: Option<&str>) -> ExitCode {
        let path = out_path(self.scenario, self.smoke, out);
        if let Some(parent) = path.parent().filter(|p| !p.as_os_str().is_empty()) {
            let _ = std::fs::create_dir_all(parent);
        }
        if let Err(e) = std::fs::write(&path, self.to_json().encode_pretty() + "\n") {
            eprintln!(
                "bench {}: failed to write {}: {e}",
                self.scenario,
                path.display()
            );
            return ExitCode::FAILURE;
        }
        println!("bench {}: wrote {}", self.scenario, path.display());
        if self.pass {
            ExitCode::SUCCESS
        } else {
            eprintln!(
                "bench {}: gate FAILED (see {})",
                self.scenario,
                path.display()
            );
            ExitCode::FAILURE
        }
    }
}
