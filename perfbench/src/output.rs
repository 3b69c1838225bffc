//! The two lines the benchmark prints on stdout: a stamp describing what
//! ran, then the result object (always the last line).

use std::fmt::Write as _;

/// A JSON string literal.
pub fn string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// A JSON number with every digit `f64` holds. Non-finite values have no
/// JSON form; no metric produces one, so meeting one is a bug.
pub fn number(v: f64) -> String {
    assert!(v.is_finite(), "non-finite metric value {v}");
    format!("{v}")
}

/// `{"k": v, ...}` from already-encoded values.
pub fn object(fields: &[(&str, String)]) -> String {
    let body: Vec<String> = fields
        .iter()
        .map(|(k, v)| format!("{}: {v}", string(k)))
        .collect();
    format!("{{{}}}", body.join(", "))
}

/// The result line: `correct`, `attempted`, `failed` and every metric
/// with its unit.
pub fn result_line(
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: &[(&str, f64, &str)],
) -> String {
    let metrics: Vec<(&str, String)> = metrics
        .iter()
        .map(|&(name, value, unit)| {
            (
                name,
                object(&[("value", number(value)), ("unit", string(unit))]),
            )
        })
        .collect();
    object(&[
        ("correct", correct.to_string()),
        ("attempted", attempted.to_string()),
        ("failed", failed.to_string()),
        ("metrics", object(&metrics)),
    ])
}
