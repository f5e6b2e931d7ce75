//! Result assembly: named metrics with units, the deterministic digest,
//! and the JSON lines the benchmark prints.

use dams_crypto::sha256::Sha256;

/// Metrics in the order they were added.
#[derive(Debug, Default)]
pub struct Metrics(Vec<(String, f64, &'static str)>);

impl Metrics {
    pub fn put(&mut self, name: &str, value: f64, unit: &'static str) {
        debug_assert!(
            !self.0.iter().any(|(n, _, _)| n == name),
            "metric {name} reported twice"
        );
        self.0.push((name.to_string(), value, unit));
    }

    pub fn names(&self) -> impl Iterator<Item = &str> {
        self.0.iter().map(|(n, _, _)| n.as_str())
    }

    /// `{"name": {"value": v, "unit": "u"}, ...}`
    pub fn to_json(&self) -> String {
        let body: Vec<String> = self
            .0
            .iter()
            .map(|(name, value, unit)| {
                format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    escape(name),
                    number(*value),
                    escape(unit)
                )
            })
            .collect();
        format!("{{{}}}", body.join(", "))
    }
}

/// A JSON number with every digit Rust's shortest round-trip form keeps.
pub fn number(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "0.0".to_string()
    }
}

pub fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for ch in s.chars() {
        match ch {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// The result line: the last line of standard output.
pub fn result_line(correct: bool, attempted: u64, failed: u64, metrics: &Metrics) -> String {
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {}}}",
        metrics.to_json()
    )
}

/// A digest of deterministic counts: every field of every record is
/// hashed in order, and per-field totals are kept for the report. Two
/// runs of one seed — traced or not — must produce the same digest.
pub struct Digest {
    hasher: Sha256,
    totals: Vec<(&'static str, u64)>,
    records: u64,
}

impl Digest {
    pub fn new(label: &str) -> Digest {
        let mut hasher = Sha256::new();
        hasher.update(label.as_bytes());
        Digest {
            hasher,
            totals: Vec::new(),
            records: 0,
        }
    }

    /// Fold one record of named counts.
    pub fn record(&mut self, fields: &[(&'static str, u64)]) {
        self.records += 1;
        for &(name, v) in fields {
            self.hasher.update(name.as_bytes());
            self.hasher.update(&v.to_le_bytes());
            match self.totals.iter_mut().find(|(n, _)| *n == name) {
                Some((_, total)) => *total += v,
                None => self.totals.push((name, v)),
            }
        }
    }

    /// `{"records": n, "sha256": "...", "totals": {...}}`
    pub fn finish(self) -> String {
        let hash: String = self
            .hasher
            .finalize()
            .iter()
            .map(|b| format!("{b:02x}"))
            .collect();
        let totals: Vec<String> = self
            .totals
            .iter()
            .map(|(n, v)| format!("\"{n}\": {v}"))
            .collect();
        format!(
            "{{\"records\": {}, \"sha256\": \"{hash}\", \"totals\": {{{}}}}}",
            self.records,
            totals.join(", ")
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let mut m = Metrics::default();
        m.put("op_p50_us", 1.25, "us");
        m.put("setup_s", 0.5, "s");
        let line = result_line(true, 10, 0, &m);
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 10, \"failed\": 0, \"metrics\": \
             {\"op_p50_us\": {\"value\": 1.25, \"unit\": \"us\"}, \
             \"setup_s\": {\"value\": 0.5, \"unit\": \"s\"}}}"
        );
    }

    #[test]
    fn numbers_keep_all_their_digits() {
        assert_eq!(number(0.1 + 0.2), "0.30000000000000004");
        assert_eq!(number(3.0), "3.0");
        assert_eq!(number(f64::NAN), "0.0");
    }

    #[test]
    fn digest_is_stable_and_order_sensitive() {
        let fields = |a: u64, b: u64| [("ring", a), ("tier", b)];
        let mut x = Digest::new("w");
        let mut y = Digest::new("w");
        for i in 0..5 {
            x.record(&fields(i, 2 * i));
            y.record(&fields(i, 2 * i));
        }
        let (x, y) = (x.finish(), y.finish());
        assert_eq!(x, y);
        assert!(x.contains("\"ring\": 10"), "{x}");
        let mut z = Digest::new("w");
        for i in (0..5).rev() {
            z.record(&fields(i, 2 * i));
        }
        assert_ne!(x, z.finish(), "record order must matter");
        let mut other = Digest::new("v");
        other.record(&fields(0, 0));
        let mut same = Digest::new("w");
        same.record(&fields(0, 0));
        assert_ne!(other.finish(), same.finish(), "label must matter");
    }
}
