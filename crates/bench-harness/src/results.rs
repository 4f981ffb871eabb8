//! Persistent benchmark results: a dependency-free JSONL record format.
//!
//! Every measured run can be serialized as one JSON object per line
//! (JSONL). A record is a figure label, two ordered name/value lists and
//! the host/build [`Provenance`]:
//!
//! ```text
//! {"figure":"thread-scaling",
//!  "params":{"scheme":"Hyaline","structure":"hashmap","mix":"write-intensive","threads":2,...},
//!  "metrics":{"mops":20.56,"avg_unreclaimed":16.89,"ops":3084043,...},
//!  "git_sha":"dd9efb36e661","host_cores":2,"timestamp":"1785367779"}
//! ```
//!
//! (one line in the file). `params` holds everything that shapes the
//! measurement — scheme, structure, operation mix and every
//! [`BenchParams`]/[`smr_core::SmrConfig`] knob — and `metrics` holds the
//! [`RunResult`] numbers. `params_of` and [`BenchRecord::from_run`] are
//! the only places that name a knob or a metric: the encoder, the decoder
//! and the perf gate's key ([`crate::gate::ComboKey`]) loop over the lists,
//! so a new knob or metric is one line there. A new knob changes the key of
//! every record that carries it, so gated baselines are re-recorded in the
//! same change.
//!
//! Files accumulate across runs (`append`), so the repository's
//! `BENCH_sweep.jsonl` becomes a trajectory of the project's performance
//! over time, and `perfgate` (see [`crate::gate`]) can compare any two
//! snapshots.
//!
//! The build environment is offline (no serde), so the encoder and decoder
//! are hand-rolled here. The decoder is a minimal JSON parser that ignores
//! unknown top-level fields and fails loudly on missing or ill-typed ones.
//! A number's type is its spelling: floats are always written with a `.`,
//! integers never are.

use std::cmp::Ordering;
use std::fmt::{self, Write as _};
use std::fs::OpenOptions;
use std::io::Write as _;
use std::path::Path;

use crate::driver::{BenchParams, RunResult};

/// The metrics the perf gate compares; a record without them does not
/// decode. `avg_unreclaimed` holds the *peak* in `stalled-reader` and
/// `kv-service` records.
pub const GATED_METRICS: [&str; 2] = ["mops", "avg_unreclaimed"];

/// One parameter or metric value.
///
/// Equality and order are total: floats compare by [`f64::total_cmp`], so
/// two values are equal exactly when their bits are, which is what "same
/// configuration" means for a perf-gate key.
#[derive(Debug, Clone)]
pub enum Value {
    /// An integer; every `u64` and every `i64` fits.
    Int(i128),
    /// A float.
    Float(f64),
    /// A flag.
    Bool(bool),
    /// A label (scheme, structure, mix, routing mode).
    Str(String),
}

impl Ord for Value {
    fn cmp(&self, other: &Self) -> Ordering {
        match (self, other) {
            (Value::Int(a), Value::Int(b)) => a.cmp(b),
            (Value::Float(a), Value::Float(b)) => a.total_cmp(b),
            (Value::Bool(a), Value::Bool(b)) => a.cmp(b),
            (Value::Str(a), Value::Str(b)) => a.cmp(b),
            // Different kinds order as declared: Int < Float < Bool < Str.
            (Value::Int(_), _) | (Value::Float(_), Value::Bool(_) | Value::Str(_)) => {
                Ordering::Less
            }
            (Value::Bool(_), Value::Str(_)) => Ordering::Less,
            _ => Ordering::Greater,
        }
    }
}

impl PartialOrd for Value {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl PartialEq for Value {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}

impl Eq for Value {}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Int(i) => write!(f, "{i}"),
            Value::Float(x) => write!(f, "{x}"),
            Value::Bool(b) => write!(f, "{b}"),
            Value::Str(s) => f.write_str(s),
        }
    }
}

macro_rules! value_from {
    ($($t:ty => |$v:ident| $e:expr),* $(,)?) => {$(
        impl From<$t> for Value {
            fn from($v: $t) -> Self {
                $e
            }
        }
    )*};
}
value_from!(
    u64 => |v| Value::Int(v.into()),
    i64 => |v| Value::Int(v.into()),
    usize => |v| Value::Int(v as i128),
    f64 => |v| Value::Float(v),
    bool => |v| Value::Bool(v),
    &str => |v| Value::Str(v.to_string()),
);

/// An ordered list of named values: a record's params or its metrics.
pub type Fields = Vec<(String, Value)>;

fn fields<const N: usize>(list: [(&str, Value); N]) -> Fields {
    list.into_iter().map(|(n, v)| (n.to_string(), v)).collect()
}

/// The first value called `name` in `list`.
pub(crate) fn get<'a>(list: &'a Fields, name: &str) -> Option<&'a Value> {
    list.iter().find(|(n, _)| n == name).map(|(_, v)| v)
}

/// The params of one run, in record order: everything that shapes the
/// measurement. The perf gate keys on all of them except `trials`.
pub(crate) fn params_of(scheme: &str, structure: &str, p: &BenchParams) -> Fields {
    let c = &p.config;
    fields([
        ("scheme", scheme.into()),
        ("structure", structure.into()),
        ("mix", p.mix.short_label().into()),
        ("threads", p.threads.into()),
        ("stalled", p.stalled.into()),
        ("use_trim", p.use_trim.into()),
        ("secs", p.secs.into()),
        ("trials", p.trials.into()),
        ("prefill", p.prefill.into()),
        ("key_range", p.key_range.into()),
        ("sample_every", p.sample_every.into()),
        ("trim_window", p.trim_window.into()),
        ("seed", p.seed.into()),
        ("slots", c.slots.into()),
        ("batch_min", c.batch_min.into()),
        ("era_freq", c.era_freq.into()),
        ("scan_threshold", c.scan_threshold.into()),
        ("max_protect", c.max_protect.into()),
        ("ack_threshold", c.ack_threshold.into()),
        ("adaptive", c.adaptive.into()),
        ("max_threads", c.max_threads.into()),
        // Recorded as configured: plain schemes ignore `shards`, `routing`
        // and `handoff_attempts`, but the gate keys on the full config.
        ("shards", c.shards.into()),
        ("handle_churn", p.handle_churn.into()),
        ("routing", c.routing.short_label().into()),
        ("handoff_attempts", c.handoff_attempts.into()),
        ("recycle", c.recycle.into()),
        ("recycle_capacity", c.recycle_capacity.into()),
        ("recycle_magazine", c.recycle_magazine.into()),
        ("connections", p.connections.into()),
    ])
}

/// One benchmark measurement with full configuration provenance.
#[derive(Debug, Clone, PartialEq)]
pub struct BenchRecord {
    /// Which figure/sweep produced the record (e.g. `Fig 8c`, `thread-scaling`).
    pub figure: String,
    /// The run's configuration, in order: the scheme, structure, mix and
    /// every [`BenchParams`]/[`smr_core::SmrConfig`] knob.
    pub params: Fields,
    /// The run's measurements, in order; always includes [`GATED_METRICS`].
    pub metrics: Fields,
    /// Host and build that measured the run.
    pub provenance: Provenance,
}

/// Host/build provenance shared by every record of one process run.
#[derive(Debug, Clone, PartialEq)]
pub struct Provenance {
    /// Git revision, if the binary runs inside a repository.
    pub git_sha: Option<String>,
    /// `available_parallelism` of the host.
    pub host_cores: u64,
    /// Wall-clock stamp chosen by the caller (e.g. unix seconds).
    pub timestamp: String,
}

impl Provenance {
    /// Detects the git revision and core count; the timestamp is passed in
    /// by the caller so the results module itself stays clock-free.
    pub fn detect(timestamp: impl Into<String>) -> Self {
        let git_sha = std::process::Command::new("git")
            .args(["rev-parse", "--short=12", "HEAD"])
            .output()
            .ok()
            .filter(|o| o.status.success())
            .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
            .filter(|s| !s.is_empty());
        let host_cores = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1) as u64;
        Self {
            git_sha,
            host_cores,
            timestamp: timestamp.into(),
        }
    }
}

/// Current wall clock as unix seconds, stringified — a convenience for the
/// binaries that construct a [`Provenance`]; the encoder/decoder and
/// [`Provenance::detect`] never read clocks themselves.
pub fn wall_clock_timestamp() -> String {
    std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| d.as_secs().to_string())
        .unwrap_or_default()
}

impl BenchRecord {
    /// Builds a record from one measured run.
    pub fn from_run(
        figure: &str,
        scheme: &str,
        structure: &str,
        params: &BenchParams,
        result: &RunResult,
        prov: &Provenance,
    ) -> Self {
        Self {
            figure: figure.to_string(),
            params: params_of(scheme, structure, params),
            metrics: fields([
                ("mops", result.mops.into()),
                ("avg_unreclaimed", result.avg_unreclaimed.into()),
                ("ops", result.ops.into()),
                ("retired", result.retired.into()),
                ("freed", result.freed.into()),
                ("pool_hits", result.pool_hits.into()),
                ("pool_misses", result.pool_misses.into()),
                ("recycled", result.recycled.into()),
            ]),
            provenance: prov.clone(),
        }
    }

    /// The param called `name`, if the record has one.
    pub fn param(&self, name: &str) -> Option<&Value> {
        get(&self.params, name)
    }

    /// The metric called `name` as a float, if the record has one.
    pub fn metric(&self, name: &str) -> Option<f64> {
        match get(&self.metrics, name)? {
            Value::Int(i) => Some(*i as f64),
            Value::Float(x) => Some(*x),
            _ => None,
        }
    }

    /// Serializes the record as one JSON object (no trailing newline).
    pub fn encode(&self) -> String {
        let mut s = String::with_capacity(768);
        s.push_str("{\"figure\":");
        push_json_string(&mut s, &self.figure);
        for (key, list) in [("params", &self.params), ("metrics", &self.metrics)] {
            let _ = write!(s, ",\"{key}\":{{");
            for (i, (name, value)) in list.iter().enumerate() {
                if i > 0 {
                    s.push(',');
                }
                push_json_string(&mut s, name);
                s.push(':');
                push_value(&mut s, value);
            }
            s.push('}');
        }
        s.push_str(",\"git_sha\":");
        match &self.provenance.git_sha {
            Some(sha) => push_json_string(&mut s, sha),
            None => s.push_str("null"),
        }
        let cores = self.provenance.host_cores;
        let _ = write!(s, ",\"host_cores\":{cores},\"timestamp\":");
        push_json_string(&mut s, &self.provenance.timestamp);
        s.push('}');
        s
    }

    /// Parses one JSONL line back into a record.
    ///
    /// Unknown top-level fields are ignored; a missing or ill-typed field,
    /// a param or metric that is not a string, bool or number, or a missing
    /// [`GATED_METRICS`] entry is an error naming it.
    pub fn decode(line: &str) -> Result<Self, String> {
        let Json::Obj(obj) = parse_json(line)? else {
            return Err("expected a JSON object".into());
        };
        let field = |name: &str| -> Result<&Json, String> {
            obj.iter()
                .find(|(k, _)| k == name)
                .map(|(_, v)| v)
                .ok_or_else(|| format!("missing field `{name}`"))
        };
        let text = |name: &str| match field(name)? {
            Json::Val(Value::Str(s)) => Ok(s.clone()),
            other => Err(format!("field `{name}`: expected a string, got {other:?}")),
        };
        let list = |name: &str| -> Result<Fields, String> {
            let Json::Obj(items) = field(name)? else {
                return Err(format!("field `{name}`: expected an object"));
            };
            items
                .iter()
                .map(|(n, v)| match v {
                    Json::Val(v) => Ok((n.clone(), v.clone())),
                    _ => Err(format!("`{n}` is not a string, bool or number")),
                })
                .collect()
        };
        let host_cores = match field("host_cores")? {
            Json::Val(Value::Int(n)) => u64::try_from(*n).ok(),
            _ => None,
        };
        let record = Self {
            figure: text("figure")?,
            params: list("params")?,
            metrics: list("metrics")?,
            provenance: Provenance {
                git_sha: match field("git_sha")? {
                    Json::Null => None,
                    _ => Some(text("git_sha")?),
                },
                host_cores: host_cores.ok_or("field `host_cores`: expected a u64")?,
                timestamp: text("timestamp")?,
            },
        };
        match GATED_METRICS.iter().find(|m| record.metric(m).is_none()) {
            Some(m) => Err(format!("missing metric `{m}`")),
            None => Ok(record),
        }
    }
}

fn push_value(s: &mut String, v: &Value) {
    match v {
        Value::Str(v) => push_json_string(s, v),
        // Rust's `Display` for f64 is the shortest representation that
        // parses back to the same bits and never uses an exponent, so a `.`
        // marks the number as a float. JSON has no NaN/infinity; they are
        // coerced to 0 (benchmark metrics are always finite).
        Value::Float(x) => {
            let x = if x.is_finite() { *x } else { 0.0 };
            let start = s.len();
            let _ = write!(s, "{x}");
            if !s[start..].contains('.') {
                s.push_str(".0");
            }
        }
        other => {
            let _ = write!(s, "{other}");
        }
    }
}

fn push_json_string(s: &mut String, v: &str) {
    s.push('"');
    for c in v.chars() {
        match c {
            '"' => s.push_str("\\\""),
            '\\' => s.push_str("\\\\"),
            '\n' => s.push_str("\\n"),
            '\r' => s.push_str("\\r"),
            '\t' => s.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(s, "\\u{:04x}", c as u32);
            }
            c => s.push(c),
        }
    }
    s.push('"');
}

/// A parsed JSON value (decoder side). Strings, bools and numbers parse
/// straight into a [`Value`]; a number with a `.` or an exponent is a
/// float, any other is an integer, kept at full precision (2^64-1 does not
/// fit in an f64).
#[derive(Debug, Clone, PartialEq)]
enum Json {
    Null,
    Val(Value),
    /// The decoder never looks inside arrays (only unknown fields hold them).
    Arr,
    Obj(Vec<(String, Json)>),
}

/// Parses one complete JSON value (trailing content is an error).
fn parse_json(s: &str) -> Result<Json, String> {
    let mut p = Parser {
        chars: s.chars().collect(),
        i: 0,
    };
    let v = p.value()?;
    p.skip_ws();
    if p.i != p.chars.len() {
        return Err(format!("trailing characters at offset {}", p.i));
    }
    Ok(v)
}

struct Parser {
    chars: Vec<char>,
    i: usize,
}

impl Parser {
    fn peek(&self) -> Option<char> {
        self.chars.get(self.i).copied()
    }

    fn next(&mut self) -> Result<char, String> {
        let c = self.peek().ok_or("unexpected end of input")?;
        self.i += 1;
        Ok(c)
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(' ' | '\t' | '\n' | '\r')) {
            self.i += 1;
        }
    }

    fn expect(&mut self, want: char) -> Result<(), String> {
        let got = self.next()?;
        if got == want {
            Ok(())
        } else {
            Err(format!("expected `{want}`, got `{got}` at offset {}", self.i))
        }
    }

    fn literal(&mut self, word: &str, value: Json) -> Result<Json, String> {
        for want in word.chars() {
            self.expect(want)?;
        }
        Ok(value)
    }

    fn value(&mut self) -> Result<Json, String> {
        self.skip_ws();
        match self.peek().ok_or("unexpected end of input")? {
            '{' => {
                let mut fields = Vec::new();
                self.seq('}', |p| {
                    p.skip_ws();
                    let key = p.string()?;
                    p.skip_ws();
                    p.expect(':')?;
                    fields.push((key, p.value()?));
                    Ok(())
                })?;
                Ok(Json::Obj(fields))
            }
            '[' => {
                self.seq(']', |p| p.value().map(drop))?;
                Ok(Json::Arr)
            }
            '"' => Ok(Json::Val(Value::Str(self.string()?))),
            't' => self.literal("true", Json::Val(Value::Bool(true))),
            'f' => self.literal("false", Json::Val(Value::Bool(false))),
            'n' => self.literal("null", Json::Null),
            '-' | '0'..='9' => self.number(),
            c => Err(format!("unexpected character `{c}` at offset {}", self.i)),
        }
    }

    /// Consumes an object's or array's opening bracket, then its
    /// comma-separated items (each parsed by `item`) through `close`.
    fn seq(
        &mut self,
        close: char,
        mut item: impl FnMut(&mut Self) -> Result<(), String>,
    ) -> Result<(), String> {
        self.next()?;
        self.skip_ws();
        if self.peek() == Some(close) {
            self.i += 1;
            return Ok(());
        }
        loop {
            item(self)?;
            self.skip_ws();
            match self.next()? {
                ',' => continue,
                c if c == close => return Ok(()),
                c => return Err(format!("expected `,` or `{close}`, got `{c}`")),
            }
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect('"')?;
        let mut out = String::new();
        loop {
            match self.next()? {
                '"' => return Ok(out),
                '\\' => match self.next()? {
                    '"' => out.push('"'),
                    '\\' => out.push('\\'),
                    '/' => out.push('/'),
                    'n' => out.push('\n'),
                    'r' => out.push('\r'),
                    't' => out.push('\t'),
                    'b' => out.push('\u{0008}'),
                    'f' => out.push('\u{000C}'),
                    'u' => {
                        let first = self.hex4()?;
                        let code = if (0xD800..0xDC00).contains(&first) {
                            // Surrogate pair: \uD8xx must be followed by \uDCxx.
                            self.expect('\\')?;
                            self.expect('u')?;
                            let second = self.hex4()?;
                            if !(0xDC00..0xE000).contains(&second) {
                                return Err("invalid low surrogate".into());
                            }
                            0x10000 + ((first - 0xD800) << 10) + (second - 0xDC00)
                        } else {
                            first
                        };
                        out.push(
                            char::from_u32(code)
                                .ok_or_else(|| format!("invalid codepoint {code:#x}"))?,
                        );
                    }
                    c => return Err(format!("invalid escape `\\{c}`")),
                },
                c => out.push(c),
            }
        }
    }

    fn hex4(&mut self) -> Result<u32, String> {
        (0..4).try_fold(0, |v, _| {
            let c = self.next()?;
            let digit = c
                .to_digit(16)
                .ok_or_else(|| format!("invalid hex digit `{c}`"))?;
            Ok(v * 16 + digit)
        })
    }

    fn number(&mut self) -> Result<Json, String> {
        let start = self.i;
        while matches!(self.peek(), Some('0'..='9' | '.' | 'e' | 'E' | '+' | '-')) {
            self.i += 1;
        }
        let text: String = self.chars[start..self.i].iter().collect();
        let value = if text.contains(['.', 'e', 'E']) {
            text.parse().ok().map(Value::Float)
        } else {
            text.parse().ok().map(Value::Int)
        };
        value
            .map(Json::Val)
            .ok_or_else(|| format!("invalid number `{text}`"))
    }
}

/// Accumulates records during a run, stamped with shared [`Provenance`].
#[derive(Debug)]
pub struct ResultSink {
    provenance: Provenance,
    records: Vec<BenchRecord>,
}

impl ResultSink {
    /// An empty sink stamping every record with `provenance`.
    pub fn new(provenance: Provenance) -> Self {
        Self {
            provenance,
            records: Vec::new(),
        }
    }

    /// Records one measured run.
    pub fn record(
        &mut self,
        figure: &str,
        scheme: &str,
        structure: &str,
        params: &BenchParams,
        result: &RunResult,
    ) {
        self.records.push(BenchRecord::from_run(
            figure,
            scheme,
            structure,
            params,
            result,
            &self.provenance,
        ));
    }

    /// The records accumulated so far.
    pub fn records(&self) -> &[BenchRecord] {
        &self.records
    }

    /// Appends all accumulated records to a JSONL file (creating it if
    /// needed) and returns how many were written.
    pub fn append_to(&self, path: &Path) -> std::io::Result<usize> {
        append_records(path, &self.records)?;
        Ok(self.records.len())
    }
}

/// Appends records to a JSONL file, creating it if absent.
pub fn append_records(path: &Path, records: &[BenchRecord]) -> std::io::Result<()> {
    let mut file = OpenOptions::new().create(true).append(true).open(path)?;
    let mut buf = String::new();
    for r in records {
        buf.push_str(&r.encode());
        buf.push('\n');
    }
    file.write_all(buf.as_bytes())
}

/// Reads every record of a JSONL file. Blank lines are skipped; a malformed
/// line is an error naming its line number.
pub fn read_records(path: &Path) -> Result<Vec<BenchRecord>, String> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
    text.lines()
        .enumerate()
        .filter(|(_, line)| !line.trim().is_empty())
        .map(|(i, line)| {
            BenchRecord::decode(line).map_err(|e| format!("{}:{}: {e}", path.display(), i + 1))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::OpMix;

    pub(crate) fn sample_record() -> BenchRecord {
        let params = BenchParams {
            threads: 8,
            stalled: 2,
            mix: OpMix::ReadMostly,
            ..BenchParams::default()
        };
        let result = RunResult {
            mops: 12.625,
            avg_unreclaimed: 130.5,
            ops: 123_456,
            retired: 100,
            freed: 90,
            ..RunResult::default()
        };
        let prov = Provenance {
            git_sha: Some("abc123def456".into()),
            host_cores: 8,
            timestamp: "1722280000".into(),
        };
        BenchRecord::from_run("Fig 8c", "Hyaline-S", "hashmap", &params, &result, &prov)
    }

    impl BenchRecord {
        /// Sets the param called `name`, appending it if the record has none.
        pub(crate) fn set_param(&mut self, name: &str, value: impl Into<Value>) {
            let value = value.into();
            match self.params.iter_mut().find(|(n, _)| n == name) {
                Some((_, v)) => *v = value,
                None => self.params.push((name.to_string(), value)),
            }
        }
    }

    fn set_metric(r: &mut BenchRecord, name: &str, value: Value) {
        let slot = r.metrics.iter_mut().find(|(n, _)| n == name);
        slot.expect("metric recorded").1 = value;
    }

    #[test]
    fn encode_decode_round_trips() {
        let r = sample_record();
        let line = r.encode();
        assert!(line.starts_with('{') && line.ends_with('}'));
        assert!(!line.contains('\n'));
        let back = BenchRecord::decode(&line).expect("decodes");
        assert_eq!(back, r);
        assert_eq!(back.encode(), line);
    }

    #[test]
    fn none_git_sha_round_trips() {
        let mut r = sample_record();
        r.provenance.git_sha = None;
        let back = BenchRecord::decode(&r.encode()).unwrap();
        assert_eq!(back.provenance.git_sha, None);
        assert_eq!(back, r);
    }

    #[test]
    fn strings_with_specials_round_trip() {
        let mut r = sample_record();
        let weird = "weird \"scheme\", with\\slashes\nand\ttabs \u{1F600}";
        r.set_param("scheme", weird);
        r.figure = "控制\u{0001}chars".into();
        let back = BenchRecord::decode(&r.encode()).unwrap();
        assert_eq!(back, r);
    }

    #[test]
    fn extreme_integers_round_trip() {
        let mut r = sample_record();
        r.set_param("seed", u64::MAX);
        r.set_param("ack_threshold", i64::MIN);
        set_metric(&mut r, "ops", Value::from(u64::MAX - 1));
        let back = BenchRecord::decode(&r.encode()).unwrap();
        assert_eq!(back, r);
    }

    #[test]
    fn numbers_keep_their_type() {
        // A whole float must not come back as an integer (or the gate key
        // of a `secs = 1.0` run would change on re-read), and vice versa.
        let mut r = sample_record();
        r.set_param("secs", 1.0);
        r.set_param("prefill", 1u64);
        set_metric(&mut r, "avg_unreclaimed", Value::from(-0.0));
        let line = r.encode();
        assert!(line.contains("\"secs\":1.0,") && line.contains("\"prefill\":1,"));
        let back = BenchRecord::decode(&line).unwrap();
        assert_eq!(back.param("secs"), Some(&Value::Float(1.0)));
        assert_eq!(back.param("prefill"), Some(&Value::Int(1)));
        assert_eq!(back, r);
    }

    #[test]
    fn unknown_fields_ignored_missing_fields_fail() {
        let mut line = sample_record().encode();
        line.insert_str(1, "\"future_field\":[1,{\"x\":null}],");
        assert!(BenchRecord::decode(&line).is_ok());
        let err = BenchRecord::decode("{\"schema\":1}").unwrap_err();
        assert!(err.contains("missing field"), "{err}");
        let no_mops = sample_record().encode().replace("\"mops\":12.625,", "");
        let err = BenchRecord::decode(&no_mops).unwrap_err();
        assert!(err.contains("missing metric `mops`"), "{err}");
    }

    #[test]
    fn malformed_lines_rejected() {
        assert!(BenchRecord::decode("not json").is_err());
        assert!(BenchRecord::decode("{\"figure\":}").is_err());
        assert!(BenchRecord::decode("[1,2]").is_err());
        let trailing = format!("{} extra", sample_record().encode());
        assert!(BenchRecord::decode(&trailing).is_err());
        let nested = sample_record()
            .encode()
            .replace("\"threads\":8", "\"threads\":[8]");
        let err = BenchRecord::decode(&nested).unwrap_err();
        assert!(err.contains("`threads`"), "{err}");
    }

    #[test]
    fn surrogate_pair_escapes_decode() {
        let v = parse_json("\"\\ud83d\\ude00\"").unwrap();
        assert_eq!(v, Json::Val(Value::Str("\u{1F600}".to_string())));
        assert!(parse_json("\"\\ud83d\"").is_err());
    }

    #[test]
    fn jsonl_file_append_and_read() {
        let dir = std::env::temp_dir().join(format!("hyaline-results-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("BENCH_test.jsonl");
        let _ = std::fs::remove_file(&path);
        let mut sink = ResultSink::new(Provenance {
            git_sha: None,
            host_cores: 4,
            timestamp: "0".into(),
        });
        let r = sample_record();
        sink.record("f", "s", "d", &BenchParams::default(), &RunResult::default());
        assert_eq!(sink.records().len(), 1);
        sink.append_to(&path).unwrap();
        append_records(&path, std::slice::from_ref(&r)).unwrap();
        let back = read_records(&path).unwrap();
        assert_eq!(back.len(), 2);
        assert_eq!(back[1], r);
        let _ = std::fs::remove_file(&path);
    }
}
