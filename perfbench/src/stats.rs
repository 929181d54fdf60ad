//! Order statistics and the result line.

use gb_service::proto::Json;

/// The q-quantile (0 ≤ q ≤ 1) of `values` by linear interpolation
/// between closest ranks; 0 for an empty slice.
pub fn quantile(values: &mut [f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    values.sort_unstable_by(f64::total_cmp);
    let pos = q * (values.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    values[lo] + (values[hi] - values[lo]) * (pos - lo as f64)
}

pub fn median(values: &mut [f64]) -> f64 {
    quantile(values, 0.5)
}

pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// `num / den`, or 0 when nothing was counted.
pub fn share(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Named metrics in output order.
#[derive(Default)]
pub struct Metrics(Vec<(&'static str, f64, &'static str)>);

impl Metrics {
    pub fn put(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.0.push((name, value, unit));
    }

    /// One `name value unit` line per metric, for a human reader.
    pub fn table(&self) -> String {
        self.0
            .iter()
            .map(|(name, value, unit)| format!("  {name:<32} {value:>14.4} {unit}\n"))
            .collect()
    }

    /// The result object the run prints as its last line.
    pub fn result_line(&self, correct: bool, attempted: u64, failed: u64) -> String {
        let metrics = self
            .0
            .iter()
            .map(|&(name, value, unit)| {
                (
                    name.to_string(),
                    Json::Obj(vec![
                        ("value".into(), Json::Num(value)),
                        ("unit".into(), Json::Str(unit.into())),
                    ]),
                )
            })
            .collect();
        Json::Obj(vec![
            ("correct".into(), Json::Bool(correct)),
            ("attempted".into(), Json::Int(attempted as i64)),
            ("failed".into(), Json::Int(failed as i64)),
            ("metrics".into(), Json::Obj(metrics)),
        ])
        .encode()
    }
}
