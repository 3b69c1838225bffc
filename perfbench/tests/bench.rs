//! Tests of the benchmark itself, on tiny instances of every workload:
//! the printed JSON parses back, every declared metric is emitted with
//! its unit and a well-formed name, and traced and untraced jobs mine
//! the same output as the oracle.

use geopattern::Recorder;
use geopattern_perfbench::workload::{run_job, Inputs, JobInput};
use geopattern_perfbench::{Size, Workload, END_TO_END, PER_LAYER};
use std::collections::BTreeMap;
use std::process::Command;

/// A parsed JSON value — just enough of JSON for the benchmark's output
/// and `BENCHMARK.json`.
#[derive(Debug, Clone, PartialEq)]
enum Json {
    Null,
    Bool(bool),
    Num(f64),
    Str(String),
    Arr(Vec<Json>),
    Obj(BTreeMap<String, Json>),
}

impl Json {
    fn get(&self, key: &str) -> &Json {
        match self {
            Json::Obj(m) => m.get(key).unwrap_or_else(|| panic!("missing key {key:?}")),
            other => panic!("not an object: {other:?}"),
        }
    }

    fn keys(&self) -> Vec<&str> {
        match self {
            Json::Obj(m) => m.keys().map(String::as_str).collect(),
            other => panic!("not an object: {other:?}"),
        }
    }
}

struct Parser<'a> {
    s: &'a [u8],
    i: usize,
}

impl Parser<'_> {
    fn parse(text: &str) -> Json {
        let mut p = Parser {
            s: text.as_bytes(),
            i: 0,
        };
        let v = p.value();
        p.ws();
        assert_eq!(p.i, p.s.len(), "trailing input in {text:?}");
        v
    }

    fn ws(&mut self) {
        while self.i < self.s.len() && self.s[self.i].is_ascii_whitespace() {
            self.i += 1;
        }
    }

    fn eat(&mut self, c: u8) {
        self.ws();
        assert_eq!(
            self.s.get(self.i),
            Some(&c),
            "expected {:?} at {}",
            c as char,
            self.i
        );
        self.i += 1;
    }

    fn value(&mut self) -> Json {
        self.ws();
        match self.s[self.i] {
            b'{' => {
                self.i += 1;
                let mut m = BTreeMap::new();
                self.ws();
                if self.s[self.i] == b'}' {
                    self.i += 1;
                    return Json::Obj(m);
                }
                loop {
                    self.ws();
                    let Json::Str(k) = self.value() else {
                        panic!("object key is not a string")
                    };
                    self.eat(b':');
                    assert!(
                        m.insert(k.clone(), self.value()).is_none(),
                        "duplicate key {k}"
                    );
                    self.ws();
                    self.i += 1;
                    match self.s[self.i - 1] {
                        b',' => continue,
                        b'}' => return Json::Obj(m),
                        c => panic!("unexpected {:?} in object", c as char),
                    }
                }
            }
            b'[' => {
                self.i += 1;
                let mut v = Vec::new();
                self.ws();
                if self.s[self.i] == b']' {
                    self.i += 1;
                    return Json::Arr(v);
                }
                loop {
                    v.push(self.value());
                    self.ws();
                    self.i += 1;
                    match self.s[self.i - 1] {
                        b',' => continue,
                        b']' => return Json::Arr(v),
                        c => panic!("unexpected {:?} in array", c as char),
                    }
                }
            }
            b'"' => {
                self.i += 1;
                let mut out = String::new();
                loop {
                    let c = self.s[self.i];
                    self.i += 1;
                    match c {
                        b'"' => return Json::Str(out),
                        b'\\' => {
                            let e = self.s[self.i];
                            self.i += 1;
                            match e {
                                b'u' => {
                                    let hex =
                                        std::str::from_utf8(&self.s[self.i..self.i + 4]).unwrap();
                                    out.push(
                                        char::from_u32(u32::from_str_radix(hex, 16).unwrap())
                                            .unwrap(),
                                    );
                                    self.i += 4;
                                }
                                b'n' => out.push('\n'),
                                b't' => out.push('\t'),
                                other => out.push(other as char),
                            }
                        }
                        _ => {
                            // Copy one UTF-8 sequence.
                            let start = self.i - 1;
                            while self.i < self.s.len() && (self.s[self.i] & 0xC0) == 0x80 {
                                self.i += 1;
                            }
                            out.push_str(std::str::from_utf8(&self.s[start..self.i]).unwrap());
                        }
                    }
                }
            }
            b't' => self.word("true", Json::Bool(true)),
            b'f' => self.word("false", Json::Bool(false)),
            b'n' => self.word("null", Json::Null),
            _ => {
                let start = self.i;
                while self.i < self.s.len() && b"+-0123456789.eE".contains(&self.s[self.i]) {
                    self.i += 1;
                }
                let text = std::str::from_utf8(&self.s[start..self.i]).unwrap();
                Json::Num(
                    text.parse()
                        .unwrap_or_else(|_| panic!("bad number {text:?}")),
                )
            }
        }
    }

    fn word(&mut self, w: &str, v: Json) -> Json {
        assert!(self.s[self.i..].starts_with(w.as_bytes()), "expected {w}");
        self.i += w.len();
        v
    }
}

fn well_formed_name(name: &str) -> bool {
    !name.is_empty()
        && name.len() <= 64
        && name
            .bytes()
            .all(|b| b.is_ascii_alphanumeric() || b == b'_' || b == b'.' || b == b'-')
        && name.as_bytes()[0].is_ascii_alphanumeric()
}

/// Runs the benchmark binary on a tiny instance; returns (stamp, result).
fn run_tiny(workload: Workload, trace: bool) -> (Json, Json) {
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args([
            "--workload",
            workload.name(),
            "--seed",
            "3",
            "--seconds",
            "1",
        ])
        .args(["--trace", if trace { "1" } else { "0" }, "--size", "tiny"])
        .output()
        .expect("benchmark runs");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8(out.stdout).expect("UTF-8 output");
    let lines: Vec<&str> = stdout.lines().collect();
    assert_eq!(lines.len(), 2, "stamp line then result line: {stdout}");
    (Parser::parse(lines[0]), Parser::parse(lines[1]))
}

fn check_result(result: &Json, declared: &[(&str, &str)]) {
    assert_eq!(result.keys(), ["attempted", "correct", "failed", "metrics"]);
    assert_eq!(result.get("correct"), &Json::Bool(true));
    assert_eq!(result.get("failed"), &Json::Num(0.0));
    let Json::Num(attempted) = result.get("attempted") else {
        panic!("attempted")
    };
    assert!(*attempted >= 1.0 && attempted.fract() == 0.0);
    let metrics = result.get("metrics");
    let mut expected: Vec<&str> = declared.iter().map(|(n, _)| *n).collect();
    expected.sort_unstable();
    assert_eq!(
        metrics.keys(),
        expected,
        "every declared metric, and only those"
    );
    for (name, unit) in declared {
        assert!(well_formed_name(name), "{name}");
        let m = metrics.get(name);
        assert_eq!(m.keys(), ["unit", "value"]);
        assert_eq!(m.get("unit"), &Json::Str(unit.to_string()), "{name}");
        let Json::Num(v) = m.get("value") else {
            panic!("{name} is not a number")
        };
        assert!(v.is_finite(), "{name}");
    }
}

#[test]
fn every_workload_emits_every_metric_as_parseable_json() {
    for workload in Workload::ALL {
        let (stamp, result) = run_tiny(workload, false);
        check_result(&result, END_TO_END);
        for (name, _) in END_TO_END {
            let Json::Num(v) = result.get("metrics").get(name).get("value") else {
                unreachable!()
            };
            assert!(*v > 0.0, "{} {name} must never be 0", workload.name());
        }
        let stamp = stamp.get("stamp");
        for key in [
            "params",
            "seed",
            "threads",
            "host_parallelism",
            "git_revision",
            "features",
            "rows",
            "gpb_bytes",
        ] {
            stamp.get(key);
        }
        assert_eq!(
            stamp.get("workload"),
            &Json::Str(workload.name().to_string())
        );

        let (_, traced) = run_tiny(workload, true);
        check_result(&traced, PER_LAYER);
        let Json::Num(attributed) = traced
            .get("metrics")
            .get("core.attributed_frac")
            .get("value")
        else {
            unreachable!()
        };
        assert!(
            *attributed > 0.0 && *attributed <= 1.0,
            "{}",
            workload.name()
        );
    }
}

#[test]
fn traced_and_untraced_jobs_match_the_oracle() {
    for workload in Workload::ALL {
        let inputs = workload.generate(Size::Tiny, 5);
        let expect = workload
            .oracle(Size::Tiny, 2, &inputs)
            .expect("oracle runs");
        let bytes;
        let input = match &inputs {
            Inputs::Geo(ds) => {
                bytes = geopattern_sdb::to_gpb(ds);
                JobInput::Gpb(&bytes)
            }
            Inputs::Txn(e) => JobInput::Txn(e),
        };
        let pipe = workload.pipeline(Size::Tiny, 2);
        let plain = run_job(&input, &pipe);
        let traced = run_job(&input, &pipe.clone().recorder(Recorder::new()));
        assert_eq!(plain.digest, Ok(expect), "{}", workload.name());
        assert_eq!(traced.digest, Ok(expect), "{}", workload.name());
        assert!(plain.stages.total() <= plain.wall);
    }
}

#[test]
fn benchmark_json_declares_the_emitted_metrics() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let doc = Parser::parse(&std::fs::read_to_string(path).expect("BENCHMARK.json"));
    let declared = |key: &str| -> Vec<(String, String)> {
        let Json::Arr(items) = doc.get(key) else {
            panic!("{key}")
        };
        items
            .iter()
            .map(|m| {
                let (Json::Str(n), Json::Str(u)) = (m.get("name"), m.get("unit")) else {
                    panic!()
                };
                (n.clone(), u.clone())
            })
            .collect()
    };
    let owned = |list: &[(&str, &str)]| -> Vec<(String, String)> {
        list.iter()
            .map(|(n, u)| (n.to_string(), u.to_string()))
            .collect()
    };
    assert_eq!(declared("end_to_end"), owned(END_TO_END));
    assert_eq!(declared("per_layer"), owned(PER_LAYER));
    let Json::Arr(workloads) = doc.get("workloads") else {
        panic!()
    };
    let names: Vec<&Json> = workloads.iter().map(|w| w.get("name")).collect();
    let expected: Vec<Json> = Workload::ALL
        .iter()
        .map(|w| Json::Str(w.name().into()))
        .collect();
    assert_eq!(names, expected.iter().collect::<Vec<_>>());
}

#[test]
fn bad_arguments_fail_without_a_result() {
    for args in [
        &[
            "--workload",
            "nope",
            "--seed",
            "1",
            "--seconds",
            "1",
            "--trace",
            "0",
        ][..],
        &["--workload", "city", "--seed", "1", "--seconds", "1"][..],
        &[
            "--workload",
            "city",
            "--seed",
            "1",
            "--seconds",
            "1",
            "--trace",
            "2",
        ][..],
    ] {
        let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
            .args(args)
            .output()
            .unwrap();
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        assert!(out.stdout.is_empty(), "{args:?}");
    }
}
