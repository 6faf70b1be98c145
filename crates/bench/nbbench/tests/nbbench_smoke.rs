//! Runs every workload declared in the repository's `BENCHMARK.json` as a
//! short smoke pass and holds the binary to the declaration: an untraced
//! run prints exactly the declared end-to-end metrics and a traced run
//! exactly the declared per-layer metrics, each with its declared unit, so
//! the file and the binary cannot drift apart.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::Command;

/// Just enough JSON for `BENCHMARK.json` and the result line.
#[derive(Clone, Debug, PartialEq)]
enum Json {
    Null,
    Bool(bool),
    Num(f64),
    Str(String),
    Arr(Vec<Json>),
    Obj(Vec<(String, Json)>),
}

impl Json {
    fn get(&self, key: &str) -> &Json {
        match self {
            Json::Obj(fields) => fields
                .iter()
                .find(|(k, _)| k == key)
                .map(|(_, v)| v)
                .unwrap_or_else(|| panic!("missing key {key:?}")),
            other => panic!("{other:?} is not an object"),
        }
    }

    fn str(&self) -> &str {
        match self {
            Json::Str(s) => s,
            other => panic!("{other:?} is not a string"),
        }
    }

    fn arr(&self) -> &[Json] {
        match self {
            Json::Arr(v) => v,
            other => panic!("{other:?} is not an array"),
        }
    }

    fn fields(&self) -> &[(String, Json)] {
        match self {
            Json::Obj(f) => f,
            other => panic!("{other:?} is not an object"),
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
        assert_eq!(p.i, p.s.len(), "trailing characters after JSON value");
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
                let mut fields = Vec::new();
                self.ws();
                if self.s[self.i] == b'}' {
                    self.i += 1;
                    return Json::Obj(fields);
                }
                loop {
                    self.ws();
                    let Json::Str(k) = self.value() else {
                        panic!("object key must be a string")
                    };
                    self.eat(b':');
                    fields.push((k, self.value()));
                    self.ws();
                    self.i += 1;
                    if self.s[self.i - 1] == b'}' {
                        return Json::Obj(fields);
                    }
                }
            }
            b'[' => {
                self.i += 1;
                let mut items = Vec::new();
                self.ws();
                if self.s[self.i] == b']' {
                    self.i += 1;
                    return Json::Arr(items);
                }
                loop {
                    items.push(self.value());
                    self.ws();
                    self.i += 1;
                    if self.s[self.i - 1] == b']' {
                        return Json::Arr(items);
                    }
                }
            }
            b'"' => {
                self.i += 1;
                let mut out = String::new();
                while self.s[self.i] != b'"' {
                    if self.s[self.i] == b'\\' {
                        self.i += 1;
                    }
                    out.push(self.s[self.i] as char);
                    self.i += 1;
                }
                self.i += 1;
                Json::Str(out)
            }
            b't' | b'f' | b'n' => {
                let word: String = self.s[self.i..]
                    .iter()
                    .take_while(|c| c.is_ascii_alphabetic())
                    .map(|&c| c as char)
                    .collect();
                self.i += word.len();
                match word.as_str() {
                    "true" => Json::Bool(true),
                    "false" => Json::Bool(false),
                    "null" => Json::Null,
                    w => panic!("unknown literal {w:?}"),
                }
            }
            _ => {
                let start = self.i;
                while self.i < self.s.len() && b"+-.eE0123456789".contains(&self.s[self.i]) {
                    self.i += 1;
                }
                let text = std::str::from_utf8(&self.s[start..self.i]).expect("ASCII number");
                Json::Num(
                    text.parse()
                        .unwrap_or_else(|_| panic!("bad number {text:?}")),
                )
            }
        }
    }
}

fn benchmark_json() -> Json {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../../BENCHMARK.json");
    Parser::parse(&std::fs::read_to_string(&path).expect("read BENCHMARK.json"))
}

/// Declared `name -> unit` for one metric list.
fn declared(bench: &Json, list: &str) -> BTreeMap<String, String> {
    bench
        .get(list)
        .arr()
        .iter()
        .map(|m| {
            (
                m.get("name").str().to_string(),
                m.get("unit").str().to_string(),
            )
        })
        .collect()
}

/// Runs one smoke pass and returns the parsed last line of its output.
fn run(workload: &str, trace: bool, out: &Path) -> Json {
    let output = Command::new(env!("CARGO_BIN_EXE_nbbench"))
        .args(["--workload", workload, "--seed", "1", "--smoke", "--trace"])
        .arg(if trace { "1" } else { "0" })
        .arg("--trace-out")
        .arg(out.join(format!("trace-{workload}.json")))
        .env("NB_AUTOTUNE", "off")
        .output()
        .expect("run nbbench");
    let stdout = String::from_utf8_lossy(&output.stdout);
    assert!(
        output.status.success(),
        "{workload} (trace {trace}) failed: {stdout}\n{}",
        String::from_utf8_lossy(&output.stderr)
    );
    Parser::parse(stdout.lines().last().expect("a result line"))
}

fn check(workload: &str, trace: bool, want: &BTreeMap<String, String>) {
    let out = PathBuf::from(env!("CARGO_TARGET_TMPDIR"));
    let result = run(workload, trace, &out);
    assert_eq!(result.get("correct"), &Json::Bool(true), "{workload}");
    let Json::Num(attempted) = result.get("attempted") else {
        panic!("attempted is not a number")
    };
    assert!(*attempted >= 1.0);
    assert_eq!(result.get("failed"), &Json::Num(0.0));
    let got: BTreeMap<String, String> = result
        .get("metrics")
        .fields()
        .iter()
        .map(|(name, m)| {
            assert!(matches!(m.get("value"), Json::Num(_)), "{name} value");
            (name.clone(), m.get("unit").str().to_string())
        })
        .collect();
    assert_eq!(
        &got, want,
        "{workload} (trace {trace}) metrics differ from BENCHMARK.json"
    );
}

#[test]
fn every_workload_prints_exactly_the_declared_end_to_end_metrics() {
    let bench = benchmark_json();
    let want = declared(&bench, "end_to_end");
    for w in bench.get("workloads").arr() {
        check(w.get("name").str(), false, &want);
    }
}

#[test]
fn every_traced_workload_prints_exactly_the_declared_per_layer_metrics() {
    let bench = benchmark_json();
    let want = declared(&bench, "per_layer");
    for w in bench.get("workloads").arr() {
        check(w.get("name").str(), true, &want);
    }
}

#[test]
fn declaration_follows_the_naming_rules() {
    let bench = benchmark_json();
    let name_ok = |s: &str| {
        !s.is_empty()
            && s.len() <= 64
            && s.chars().next().is_some_and(|c| c.is_ascii_alphanumeric())
            && s.chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    };
    let unit_ok = |s: &str| {
        !s.is_empty()
            && s.len() <= 16
            && s.chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
    };
    let mut seen = std::collections::BTreeSet::new();
    for w in bench.get("workloads").arr() {
        assert!(name_ok(w.get("name").str()));
        assert!(w.get("why").str().len() <= 200);
        assert!(seen.insert(w.get("name").str().to_string()));
    }
    for list in ["end_to_end", "per_layer"] {
        for m in bench.get(list).arr() {
            let name = m.get("name").str();
            assert!(name_ok(name), "{name}");
            assert!(unit_ok(m.get("unit").str()), "{name} unit");
            assert!(
                matches!(m.get("better").str(), "lower" | "higher"),
                "{name}"
            );
            assert!(seen.insert(name.to_string()), "{name} declared twice");
            if list == "end_to_end" {
                // 0.25 is the widest bound the declaration format accepts,
                // not a target: BENCHMARK.md records the tighter ones still
                // open.
                let Json::Num(bound) = m.get("bound") else {
                    panic!("{name} bound")
                };
                assert!(*bound > 0.0 && *bound <= 0.25, "{name} bound");
            }
        }
    }
    let bound = |m: &Json| match m.get("bound") {
        Json::Num(b) => *b,
        other => panic!("bound {other:?}"),
    };
    let e2e = bench.get("end_to_end").arr();
    let setup = e2e
        .iter()
        .find(|m| m.get("name").str() == "setup_s")
        .expect("setup_s is declared");
    assert!(
        e2e.iter().all(|m| bound(m) <= bound(setup)),
        "setup_s has the largest bound"
    );
}
