//! The run record: the one-line JSON result every run prints last, its
//! parser, and the spread summary over a set of records.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// One reported metric.
#[derive(Clone, Debug, PartialEq)]
pub struct Metric {
    /// The value as measured.
    pub value: f64,
    /// Its unit.
    pub unit: String,
}

/// The result line of one run.
#[derive(Clone, Debug, PartialEq)]
pub struct RunRecord {
    /// Whether every output check passed.
    pub correct: bool,
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that failed.
    pub failed: u64,
    /// Metrics by name.
    pub metrics: BTreeMap<String, Metric>,
}

/// Quotes `s` as a JSON string.
pub fn quote(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// A finite number as JSON, with every digit Rust's shortest round-trip
/// formatting keeps.
pub fn number(v: f64) -> String {
    assert!(v.is_finite(), "a metric must be finite, got {v}");
    format!("{v:?}")
}

impl RunRecord {
    /// The record as one JSON line.
    pub fn to_json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, m)| {
                format!(
                    "{}: {{\"value\": {}, \"unit\": {}}}",
                    quote(name),
                    number(m.value),
                    quote(&m.unit)
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }

    /// Parses a result line, checking it has exactly the record's keys.
    pub fn parse(line: &str) -> Result<RunRecord, String> {
        let mut p = Parser {
            s: line.as_bytes(),
            i: 0,
        };
        let v = p.value()?;
        p.ws();
        if p.i != p.s.len() {
            return Err(format!("trailing input at byte {}", p.i));
        }
        let Json::Obj(mut top) = v else {
            return Err("record is not an object".into());
        };
        let keys: Vec<&String> = top.keys().collect();
        if keys != ["attempted", "correct", "failed", "metrics"] {
            return Err(format!("unexpected keys {keys:?}"));
        }
        let count = |v: Json, key: &str| match v {
            Json::Num(n) if n >= 0.0 && n.fract() == 0.0 => Ok(n as u64),
            _ => Err(format!("{key} must be a whole number")),
        };
        let correct = match top.remove("correct") {
            Some(Json::Bool(b)) => b,
            _ => return Err("correct must be a boolean".into()),
        };
        let attempted = count(top.remove("attempted").expect("key checked"), "attempted")?;
        let failed = count(top.remove("failed").expect("key checked"), "failed")?;
        let Some(Json::Obj(raw)) = top.remove("metrics") else {
            return Err("metrics must be an object".into());
        };
        let mut metrics = BTreeMap::new();
        for (name, m) in raw {
            let Json::Obj(mut m) = m else {
                return Err(format!("metric {name} is not an object"));
            };
            match (m.remove("value"), m.remove("unit"), m.is_empty()) {
                (Some(Json::Num(value)), Some(Json::Str(unit)), true) => {
                    metrics.insert(name, Metric { value, unit });
                }
                _ => return Err(format!("metric {name} needs exactly a value and a unit")),
            }
        }
        Ok(RunRecord {
            correct,
            attempted,
            failed,
            metrics,
        })
    }
}

#[derive(Debug)]
enum Json {
    Null,
    Bool(bool),
    Num(f64),
    Str(String),
    /// An array; the record has none, so its items are checked and dropped.
    Arr,
    Obj(BTreeMap<String, Json>),
}

struct Parser<'a> {
    s: &'a [u8],
    i: usize,
}

impl Parser<'_> {
    fn ws(&mut self) {
        while self.i < self.s.len() && self.s[self.i].is_ascii_whitespace() {
            self.i += 1;
        }
    }

    fn eat(&mut self, c: u8) -> Result<(), String> {
        self.ws();
        if self.s.get(self.i) == Some(&c) {
            self.i += 1;
            Ok(())
        } else {
            Err(format!("expected '{}' at byte {}", c as char, self.i))
        }
    }

    fn literal(&mut self, word: &str, v: Json) -> Result<Json, String> {
        if self.s[self.i..].starts_with(word.as_bytes()) {
            self.i += word.len();
            Ok(v)
        } else {
            Err(format!("bad literal at byte {}", self.i))
        }
    }

    fn value(&mut self) -> Result<Json, String> {
        self.ws();
        match self.s.get(self.i) {
            None => Err("unexpected end of input".into()),
            Some(b'{') => {
                self.i += 1;
                let mut map = BTreeMap::new();
                self.ws();
                if self.s.get(self.i) == Some(&b'}') {
                    self.i += 1;
                    return Ok(Json::Obj(map));
                }
                loop {
                    self.ws();
                    let key = self.string()?;
                    self.eat(b':')?;
                    let v = self.value()?;
                    if map.insert(key.clone(), v).is_some() {
                        return Err(format!("duplicate key {key}"));
                    }
                    self.ws();
                    match self.s.get(self.i) {
                        Some(b',') => self.i += 1,
                        Some(b'}') => {
                            self.i += 1;
                            return Ok(Json::Obj(map));
                        }
                        _ => return Err(format!("expected ',' or '}}' at byte {}", self.i)),
                    }
                }
            }
            Some(b'[') => {
                self.i += 1;
                self.ws();
                if self.s.get(self.i) == Some(&b']') {
                    self.i += 1;
                    return Ok(Json::Arr);
                }
                loop {
                    self.value()?;
                    self.ws();
                    match self.s.get(self.i) {
                        Some(b',') => self.i += 1,
                        Some(b']') => {
                            self.i += 1;
                            return Ok(Json::Arr);
                        }
                        _ => return Err(format!("expected ',' or ']' at byte {}", self.i)),
                    }
                }
            }
            Some(b'"') => self.string().map(Json::Str),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'n') => self.literal("null", Json::Null),
            Some(_) => self.num(),
        }
    }

    fn string(&mut self) -> Result<String, String> {
        if self.s.get(self.i) != Some(&b'"') {
            return Err(format!("expected a string at byte {}", self.i));
        }
        self.i += 1;
        let mut out = String::new();
        loop {
            let Some(&c) = self.s.get(self.i) else {
                return Err("unterminated string".into());
            };
            self.i += 1;
            match c {
                b'"' => return Ok(out),
                b'\\' => {
                    let e = *self.s.get(self.i).ok_or("unterminated escape")?;
                    self.i += 1;
                    match e {
                        b'"' | b'\\' | b'/' => out.push(e as char),
                        b'n' => out.push('\n'),
                        b't' => out.push('\t'),
                        b'u' => {
                            let hex = self
                                .s
                                .get(self.i..self.i + 4)
                                .and_then(|h| std::str::from_utf8(h).ok())
                                .and_then(|h| u32::from_str_radix(h, 16).ok())
                                .and_then(char::from_u32)
                                .ok_or("bad \\u escape")?;
                            out.push(hex);
                            self.i += 4;
                        }
                        _ => return Err(format!("bad escape at byte {}", self.i)),
                    }
                }
                _ => {
                    // Copy one UTF-8 sequence whole.
                    let start = self.i - 1;
                    while self.i < self.s.len() && (self.s[self.i] & 0xC0) == 0x80 {
                        self.i += 1;
                    }
                    out.push_str(
                        std::str::from_utf8(&self.s[start..self.i]).map_err(|e| e.to_string())?,
                    );
                }
            }
        }
    }

    fn num(&mut self) -> Result<Json, String> {
        let start = self.i;
        while self.i < self.s.len()
            && matches!(
                self.s[self.i],
                b'-' | b'+' | b'.' | b'e' | b'E' | b'0'..=b'9'
            )
        {
            self.i += 1;
        }
        std::str::from_utf8(&self.s[start..self.i])
            .ok()
            .and_then(|t| t.parse::<f64>().ok())
            .filter(|v| v.is_finite())
            .map(Json::Num)
            .ok_or_else(|| format!("bad number at byte {start}"))
    }
}

/// Median and quartiles as Python's `statistics.median` and
/// `statistics.quantiles(values, n=4)` (the default "exclusive" method)
/// compute them. Needs at least two values.
pub fn quartiles(values: &[f64]) -> Option<(f64, f64, f64)> {
    let mut d = values.to_vec();
    d.sort_by(f64::total_cmp);
    let n = d.len();
    if n < 2 {
        return None;
    }
    let median = if n % 2 == 1 {
        d[n / 2]
    } else {
        (d[n / 2 - 1] + d[n / 2]) / 2.0
    };
    let m = n + 1;
    let q = |i: usize| {
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (d[j - 1] * (4.0 - delta) + d[j] * delta) / 4.0
    };
    Some((q(1), median, q(3)))
}

/// Per metric: median, quartiles and the quartile distance as a share of
/// the median, over the records of one workload.
pub fn spread(records: &[RunRecord]) -> Vec<(String, f64, f64, f64, f64)> {
    let mut by_metric: BTreeMap<&str, Vec<f64>> = BTreeMap::new();
    for r in records {
        for (name, m) in &r.metrics {
            by_metric.entry(name).or_default().push(m.value);
        }
    }
    by_metric
        .into_iter()
        .filter_map(|(name, values)| {
            let (q1, med, q3) = quartiles(&values)?;
            let share = if med == 0.0 {
                0.0
            } else {
                (q3 - q1) / med.abs()
            };
            Some((name.to_string(), med, q1, q3, share))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn record() -> RunRecord {
        let mut metrics = BTreeMap::new();
        metrics.insert(
            "commit_p50_s".to_string(),
            Metric {
                value: 120.807005,
                unit: "s".into(),
            },
        );
        metrics.insert(
            "cost_usd".to_string(),
            Metric {
                value: 0.09003144,
                unit: "$".into(),
            },
        );
        RunRecord {
            correct: true,
            attempted: 912,
            failed: 7,
            metrics,
        }
    }

    #[test]
    fn records_round_trip_exactly() {
        let r = record();
        let line = r.to_json();
        assert!(line.starts_with("{\"correct\": true, \"attempted\": 912, \"failed\": 7,"));
        assert_eq!(RunRecord::parse(&line), Ok(r));
    }

    #[test]
    fn parser_accepts_the_documented_example() {
        let line = r#"{"correct": true, "attempted": 1000, "failed": 0, "metrics": {"latency_ms": {"value": 1.2034, "unit": "ms"}, "setup_s": {"value": 0.8127, "unit": "s"}}}"#;
        let r = RunRecord::parse(line).expect("valid record");
        assert_eq!(r.attempted, 1000);
        assert_eq!(r.metrics["latency_ms"].value, 1.2034);
        assert_eq!(r.metrics["setup_s"].unit, "s");
    }

    #[test]
    fn parser_rejects_malformed_records() {
        for bad in [
            "",
            "[]",
            r#"{"correct": true, "attempted": 1, "failed": 0}"#,
            r#"{"correct": 1, "attempted": 1, "failed": 0, "metrics": {}}"#,
            r#"{"correct": true, "attempted": 1.5, "failed": 0, "metrics": {}}"#,
            r#"{"correct": true, "attempted": 1, "failed": -1, "metrics": {}}"#,
            r#"{"correct": true, "attempted": 1, "failed": 0, "metrics": {"x": {"value": 1}}}"#,
            r#"{"correct": true, "attempted": 1, "failed": 0, "metrics": {"x": {"value": 1, "unit": "s", "n": 2}}}"#,
            r#"{"correct": true, "attempted": 1, "failed": 0, "metrics": {}} x"#,
            r#"{"correct": true, "correct": true, "attempted": 1, "failed": 0, "metrics": {}}"#,
        ] {
            assert!(RunRecord::parse(bad).is_err(), "accepted {bad:?}");
        }
    }

    #[test]
    fn quoting_escapes_control_characters() {
        assert_eq!(quote("a\"b\\c\n\u{1}"), "\"a\\\"b\\\\c\\n\\u0001\"");
    }

    #[test]
    fn quartiles_match_python_statistics() {
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), Some((2.75, 5.5, 8.25)));
        // statistics.quantiles([1, 2, 3], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), Some((1.0, 2.0, 3.0)));
        assert_eq!(quartiles(&[1.0]), None);
    }

    #[test]
    fn spread_is_quartile_distance_over_median() {
        let mut a = record();
        let mut b = record();
        a.metrics.get_mut("cost_usd").expect("present").value = 1.0;
        b.metrics.get_mut("cost_usd").expect("present").value = 3.0;
        let s = spread(&[a, b]);
        let cost = s.iter().find(|m| m.0 == "cost_usd").expect("reported");
        // Two values: quantiles exclusive gives q1 = 0.5, q3 = 3.5.
        assert_eq!((cost.1, cost.2, cost.3, cost.4), (2.0, 0.5, 3.5, 1.5));
    }
}
