//! JSONL encoding of telemetry events.
//!
//! Hand-rolled on both sides: the crate is dependency-free so the
//! collector cannot perturb the build graph of the code it observes, and
//! `fedobs` must parse traces in the default (telemetry-disabled)
//! workspace configuration. The grammar is one JSON object per line with
//! a `"t"` tag (see [`Event::kind`]); the parser accepts exactly the
//! subset of JSON the writer emits (objects, arrays, strings, numbers).

use crate::event::{AnomalyRule, Event};
use std::fmt::Write as _;

// ---------------------------------------------------------------------------
// Writing
// ---------------------------------------------------------------------------

fn push_str_escaped(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

fn push_f64(out: &mut String, v: f64) {
    // `{}` is the shortest round-trip representation; non-finite values
    // never occur in practice but must still produce valid JSON.
    if v.is_finite() {
        let _ = write!(out, "{v}");
    } else {
        out.push_str("null");
    }
}

fn push_opt_f64(out: &mut String, v: Option<f64>) {
    match v {
        Some(v) => push_f64(out, v),
        None => out.push_str("null"),
    }
}

fn push_opt_u32(out: &mut String, v: Option<u32>) {
    match v {
        Some(v) => {
            let _ = write!(out, "{v}");
        }
        None => out.push_str("null"),
    }
}

/// Encode one event as a single JSON line (no trailing newline).
pub fn write_line(event: &Event) -> String {
    let mut s = String::with_capacity(96);
    s.push_str("{\"t\":\"");
    s.push_str(event.kind());
    s.push('"');
    match event {
        Event::Span { layer, name, micros, attrs } => {
            s.push_str(",\"layer\":");
            push_str_escaped(&mut s, layer);
            s.push_str(",\"name\":");
            push_str_escaped(&mut s, name);
            s.push_str(",\"us\":");
            push_f64(&mut s, *micros);
            s.push_str(",\"attrs\":{");
            for (i, (k, v)) in attrs.iter().enumerate() {
                if i > 0 {
                    s.push(',');
                }
                push_str_escaped(&mut s, k);
                s.push(':');
                push_f64(&mut s, *v);
            }
            s.push('}');
        }
        Event::SpanStat { layer, name, count, total_micros, max_micros } => {
            s.push_str(",\"layer\":");
            push_str_escaped(&mut s, layer);
            s.push_str(",\"name\":");
            push_str_escaped(&mut s, name);
            let _ = write!(s, ",\"count\":{count},\"total_us\":");
            push_f64(&mut s, *total_micros);
            s.push_str(",\"max_us\":");
            push_f64(&mut s, *max_micros);
        }
        Event::Counter { name, value } => {
            s.push_str(",\"name\":");
            push_str_escaped(&mut s, name);
            let _ = write!(s, ",\"value\":{value}");
        }
        Event::Gauge { name, value } => {
            s.push_str(",\"name\":");
            push_str_escaped(&mut s, name);
            s.push_str(",\"value\":");
            push_f64(&mut s, *value);
        }
        Event::Histogram { name, bounds, counts } => {
            s.push_str(",\"name\":");
            push_str_escaped(&mut s, name);
            s.push_str(",\"bounds\":[");
            for (i, b) in bounds.iter().enumerate() {
                if i > 0 {
                    s.push(',');
                }
                push_f64(&mut s, *b);
            }
            s.push_str("],\"counts\":[");
            for (i, c) in counts.iter().enumerate() {
                if i > 0 {
                    s.push(',');
                }
                let _ = write!(s, "{c}");
            }
            s.push(']');
        }
        Event::DeviceRound { round, device, download_s, compute_s, upload_s, finish_s, lag_s } => {
            let _ = write!(s, ",\"round\":{round},\"device\":{device},\"download_s\":");
            push_f64(&mut s, *download_s);
            s.push_str(",\"compute_s\":");
            push_f64(&mut s, *compute_s);
            s.push_str(",\"upload_s\":");
            push_f64(&mut s, *upload_s);
            s.push_str(",\"finish_s\":");
            push_f64(&mut s, *finish_s);
            s.push_str(",\"lag_s\":");
            push_f64(&mut s, *lag_s);
        }
        Event::Bytes { round, kind, direction, bytes } => {
            let _ = write!(s, ",\"round\":{round},\"kind\":");
            push_str_escaped(&mut s, kind);
            s.push_str(",\"dir\":");
            push_str_escaped(&mut s, direction);
            let _ = write!(s, ",\"bytes\":{bytes}");
        }
        Event::RoundEnd { round, sim_time_s } => {
            let _ = write!(s, ",\"round\":{round},\"sim_time_s\":");
            push_f64(&mut s, *sim_time_s);
        }
        Event::Health {
            round,
            train_loss,
            loss_delta,
            grad_norm_sq,
            theta,
            theta_lo,
            theta_hi,
            bound,
            dir_mean_sq,
            dir_m2,
            dir_anchor_sq,
            dir_steps,
            skew,
        } => {
            let _ = write!(s, ",\"round\":{round},\"loss\":");
            push_f64(&mut s, *train_loss);
            s.push_str(",\"dloss\":");
            push_f64(&mut s, *loss_delta);
            s.push_str(",\"gap\":");
            push_f64(&mut s, *grad_norm_sq);
            s.push_str(",\"theta\":");
            push_opt_f64(&mut s, *theta);
            s.push_str(",\"theta_lo\":");
            push_opt_f64(&mut s, *theta_lo);
            s.push_str(",\"theta_hi\":");
            push_opt_f64(&mut s, *theta_hi);
            s.push_str(",\"bound\":");
            push_opt_f64(&mut s, *bound);
            s.push_str(",\"dir_mean_sq\":");
            push_f64(&mut s, *dir_mean_sq);
            s.push_str(",\"dir_m2\":");
            push_f64(&mut s, *dir_m2);
            s.push_str(",\"dir_anchor_sq\":");
            push_f64(&mut s, *dir_anchor_sq);
            let _ = write!(s, ",\"dir_steps\":{dir_steps},\"skew\":");
            push_opt_f64(&mut s, *skew);
        }
        Event::Anomaly { round, rule, device, value, limit } => {
            let _ = write!(s, ",\"round\":{round},\"rule\":\"{}\",\"device\":", rule.name());
            push_opt_u32(&mut s, *device);
            s.push_str(",\"value\":");
            push_f64(&mut s, *value);
            s.push_str(",\"limit\":");
            push_f64(&mut s, *limit);
        }
        Event::Participation {
            round,
            responded,
            crashed,
            offline,
            deadline_miss,
            link_failed,
            weight,
            skipped,
        } => {
            let _ = write!(
                s,
                ",\"round\":{round},\"responded\":{responded},\"crashed\":{crashed},\"offline\":{offline},\"deadline_miss\":{deadline_miss},\"link_failed\":{link_failed},\"weight\":"
            );
            push_f64(&mut s, *weight);
            let _ = write!(s, ",\"skipped\":{skipped}");
        }
        Event::PathStat {
            path,
            count,
            total_micros,
            self_micros,
            max_micros,
            total_bytes,
            self_bytes,
            total_allocs,
            self_allocs,
        } => {
            s.push_str(",\"path\":");
            push_str_escaped(&mut s, path);
            let _ = write!(s, ",\"count\":{count},\"total_us\":");
            push_f64(&mut s, *total_micros);
            s.push_str(",\"self_us\":");
            push_f64(&mut s, *self_micros);
            s.push_str(",\"max_us\":");
            push_f64(&mut s, *max_micros);
            let _ = write!(
                s,
                ",\"total_bytes\":{total_bytes},\"self_bytes\":{self_bytes},\
                 \"total_allocs\":{total_allocs},\"self_allocs\":{self_allocs}"
            );
        }
        Event::TraceTruncated { dropped_spans } => {
            let _ = write!(s, ",\"dropped_spans\":{dropped_spans}");
        }
        Event::Dropped { count } => {
            let _ = write!(s, ",\"count\":{count}");
        }
        Event::RunMeta { version, config, seed, kernel, faults, features, crates } => {
            let _ = write!(s, ",\"version\":{version},\"config\":");
            push_str_escaped(&mut s, config);
            let _ = write!(s, ",\"seed\":{seed},\"kernel\":");
            push_str_escaped(&mut s, kernel);
            s.push_str(",\"faults\":");
            push_str_escaped(&mut s, faults);
            s.push_str(",\"features\":");
            push_str_escaped(&mut s, features);
            s.push_str(",\"crates\":");
            push_str_escaped(&mut s, crates);
        }
        Event::Postmortem { round, reason, device } => {
            let _ = write!(s, ",\"round\":{round},\"reason\":");
            push_str_escaped(&mut s, reason);
            s.push_str(",\"device\":");
            push_opt_u32(&mut s, *device);
        }
    }
    s.push('}');
    s
}

/// Encode a whole trace, one event per line, trailing newline included.
pub fn to_jsonl(events: &[Event]) -> String {
    let mut out = String::new();
    for e in events {
        out.push_str(&write_line(e));
        out.push('\n');
    }
    out
}

// ---------------------------------------------------------------------------
// Parsing
// ---------------------------------------------------------------------------

/// A parse failure with its 1-indexed source line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// 1-indexed line of the offending record.
    pub line: usize,
    /// What went wrong.
    pub message: String,
}

impl std::fmt::Display for ParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "trace line {}: {}", self.line, self.message)
    }
}

impl std::error::Error for ParseError {}

/// Minimal JSON value (only what the writer emits).
#[derive(Debug, Clone, PartialEq)]
enum Json {
    Num(f64),
    UInt(u64),
    Str(String),
    Arr(Vec<Json>),
    Obj(Vec<(String, Json)>),
    Null,
}

impl Json {
    fn get<'a>(&'a self, key: &str) -> Option<&'a Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(v) => Some(*v),
            Json::UInt(v) => Some(*v as f64),
            Json::Null => Some(f64::NAN),
            _ => None,
        }
    }

    fn as_u64(&self) -> Option<u64> {
        match self {
            Json::UInt(v) => Some(*v),
            Json::Num(v) if *v >= 0.0 && v.fract() == 0.0 && *v <= u64::MAX as f64 => {
                Some(*v as u64)
            }
            _ => None,
        }
    }

    fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn new(s: &'a str) -> Self {
        Parser { bytes: s.as_bytes(), pos: 0 }
    }

    fn skip_ws(&mut self) {
        while self.pos < self.bytes.len() && self.bytes[self.pos].is_ascii_whitespace() {
            self.pos += 1;
        }
    }

    fn peek(&mut self) -> Option<u8> {
        self.skip_ws();
        self.bytes.get(self.pos).copied()
    }

    fn consume(&mut self, b: u8) -> Result<(), String> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!("expected `{}` at byte {}", b as char, self.pos))
        }
    }

    fn value(&mut self) -> Result<Json, String> {
        match self.peek() {
            Some(b'{') => self.object(),
            Some(b'[') => self.array(),
            Some(b'"') => self.string().map(Json::Str),
            Some(b'n') => {
                if self.bytes[self.pos..].starts_with(b"null") {
                    self.pos += 4;
                    Ok(Json::Null)
                } else {
                    Err(format!("bad literal at byte {}", self.pos))
                }
            }
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            other => Err(format!("unexpected {other:?} at byte {}", self.pos)),
        }
    }

    fn object(&mut self) -> Result<Json, String> {
        self.consume(b'{')?;
        let mut fields = Vec::new();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(fields));
        }
        loop {
            let key = self.string()?;
            self.consume(b':')?;
            let val = self.value()?;
            fields.push((key, val));
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(fields));
                }
                other => return Err(format!("expected `,` or `}}`, got {other:?}")),
            }
        }
    }

    fn array(&mut self) -> Result<Json, String> {
        self.consume(b'[')?;
        let mut items = Vec::new();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            items.push(self.value()?);
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                other => return Err(format!("expected `,` or `]`, got {other:?}")),
            }
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.consume(b'"')?;
        let mut out = String::new();
        loop {
            let Some(&b) = self.bytes.get(self.pos) else {
                return Err("unterminated string".to_string());
            };
            self.pos += 1;
            match b {
                b'"' => return Ok(out),
                b'\\' => {
                    let Some(&esc) = self.bytes.get(self.pos) else {
                        return Err("dangling escape".to_string());
                    };
                    self.pos += 1;
                    match esc {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'u' => {
                            let hex = self
                                .bytes
                                .get(self.pos..self.pos + 4)
                                .and_then(|h| std::str::from_utf8(h).ok())
                                .and_then(|h| u32::from_str_radix(h, 16).ok())
                                .ok_or_else(|| "bad \\u escape".to_string())?;
                            self.pos += 4;
                            out.push(char::from_u32(hex).unwrap_or('\u{FFFD}'));
                        }
                        other => return Err(format!("unknown escape `\\{}`", other as char)),
                    }
                }
                _ => {
                    // Resync to a char boundary for multi-byte UTF-8.
                    let start = self.pos - 1;
                    let mut end = self.pos;
                    while end < self.bytes.len() && (self.bytes[end] & 0xC0) == 0x80 {
                        end += 1;
                    }
                    let chunk = std::str::from_utf8(&self.bytes[start..end])
                        .map_err(|_| "invalid UTF-8 in string".to_string())?;
                    out.push_str(chunk);
                    self.pos = end;
                }
            }
        }
    }

    fn number(&mut self) -> Result<Json, String> {
        self.skip_ws();
        let start = self.pos;
        while self.pos < self.bytes.len() {
            let b = self.bytes[self.pos];
            if b.is_ascii_digit() || matches!(b, b'-' | b'+' | b'.' | b'e' | b'E') {
                self.pos += 1;
            } else {
                break;
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| "invalid number bytes".to_string())?;
        // Integers parse as u64 first so byte/count totals near u64::MAX
        // survive a round trip exactly.
        if !text.contains(['.', 'e', 'E', '-']) {
            if let Ok(v) = text.parse::<u64>() {
                return Ok(Json::UInt(v));
            }
        }
        text.parse::<f64>().map(Json::Num).map_err(|_| format!("bad number `{text}`"))
    }
}

fn field<'a>(obj: &'a Json, key: &str) -> Result<&'a Json, String> {
    obj.get(key).ok_or_else(|| format!("missing field `{key}`"))
}

fn f64_field(obj: &Json, key: &str) -> Result<f64, String> {
    field(obj, key)?.as_f64().ok_or_else(|| format!("field `{key}` is not a number"))
}

fn u64_field(obj: &Json, key: &str) -> Result<u64, String> {
    field(obj, key)?.as_u64().ok_or_else(|| format!("field `{key}` is not an integer"))
}

fn u32_field(obj: &Json, key: &str) -> Result<u32, String> {
    u64_field(obj, key)?
        .try_into()
        .map_err(|_| format!("field `{key}` exceeds u32"))
}

/// Optional number: JSON `null` parses to `None` (distinct from
/// [`Json::as_f64`]'s `null` → NaN, so `Option<f64>` fields round-trip
/// under `PartialEq`).
fn opt_f64_field(obj: &Json, key: &str) -> Result<Option<f64>, String> {
    match field(obj, key)? {
        Json::Null => Ok(None),
        other => other
            .as_f64()
            .map(Some)
            .ok_or_else(|| format!("field `{key}` is not a number or null")),
    }
}

fn opt_u32_field(obj: &Json, key: &str) -> Result<Option<u32>, String> {
    match field(obj, key)? {
        Json::Null => Ok(None),
        other => other
            .as_u64()
            .and_then(|v| u32::try_from(v).ok())
            .map(Some)
            .ok_or_else(|| format!("field `{key}` is not a u32 or null")),
    }
}

fn str_field(obj: &Json, key: &str) -> Result<String, String> {
    Ok(field(obj, key)?
        .as_str()
        .ok_or_else(|| format!("field `{key}` is not a string"))?
        .to_string())
}

fn event_from_json(obj: &Json) -> Result<Event, String> {
    let tag = str_field(obj, "t")?;
    match tag.as_str() {
        "span" => {
            let attrs = match field(obj, "attrs")? {
                Json::Obj(fields) => fields
                    .iter()
                    .map(|(k, v)| {
                        v.as_f64()
                            .map(|v| (k.clone(), v))
                            .ok_or_else(|| format!("attr `{k}` is not a number"))
                    })
                    .collect::<Result<Vec<_>, _>>()?,
                _ => return Err("field `attrs` is not an object".to_string()),
            };
            Ok(Event::Span {
                layer: str_field(obj, "layer")?,
                name: str_field(obj, "name")?,
                micros: f64_field(obj, "us")?,
                attrs,
            })
        }
        "span_stat" => Ok(Event::SpanStat {
            layer: str_field(obj, "layer")?,
            name: str_field(obj, "name")?,
            count: u64_field(obj, "count")?,
            total_micros: f64_field(obj, "total_us")?,
            max_micros: f64_field(obj, "max_us")?,
        }),
        "counter" => Ok(Event::Counter {
            name: str_field(obj, "name")?,
            value: u64_field(obj, "value")?,
        }),
        "gauge" => Ok(Event::Gauge {
            name: str_field(obj, "name")?,
            value: f64_field(obj, "value")?,
        }),
        "hist" => {
            let bounds = match field(obj, "bounds")? {
                Json::Arr(items) => items
                    .iter()
                    .map(|v| v.as_f64().ok_or_else(|| "non-number bound".to_string()))
                    .collect::<Result<Vec<_>, _>>()?,
                _ => return Err("field `bounds` is not an array".to_string()),
            };
            let counts = match field(obj, "counts")? {
                Json::Arr(items) => items
                    .iter()
                    .map(|v| v.as_u64().ok_or_else(|| "non-integer count".to_string()))
                    .collect::<Result<Vec<_>, _>>()?,
                _ => return Err("field `counts` is not an array".to_string()),
            };
            Ok(Event::Histogram { name: str_field(obj, "name")?, bounds, counts })
        }
        "device_round" => Ok(Event::DeviceRound {
            round: u32_field(obj, "round")?,
            device: u32_field(obj, "device")?,
            download_s: f64_field(obj, "download_s")?,
            compute_s: f64_field(obj, "compute_s")?,
            upload_s: f64_field(obj, "upload_s")?,
            finish_s: f64_field(obj, "finish_s")?,
            lag_s: f64_field(obj, "lag_s")?,
        }),
        "bytes" => Ok(Event::Bytes {
            round: u32_field(obj, "round")?,
            kind: str_field(obj, "kind")?,
            direction: str_field(obj, "dir")?,
            bytes: u64_field(obj, "bytes")?,
        }),
        "round_end" => Ok(Event::RoundEnd {
            round: u32_field(obj, "round")?,
            sim_time_s: f64_field(obj, "sim_time_s")?,
        }),
        "health" => Ok(Event::Health {
            round: u32_field(obj, "round")?,
            train_loss: f64_field(obj, "loss")?,
            loss_delta: f64_field(obj, "dloss")?,
            grad_norm_sq: f64_field(obj, "gap")?,
            theta: opt_f64_field(obj, "theta")?,
            theta_lo: opt_f64_field(obj, "theta_lo")?,
            theta_hi: opt_f64_field(obj, "theta_hi")?,
            bound: opt_f64_field(obj, "bound")?,
            dir_mean_sq: f64_field(obj, "dir_mean_sq")?,
            dir_m2: f64_field(obj, "dir_m2")?,
            dir_anchor_sq: f64_field(obj, "dir_anchor_sq")?,
            dir_steps: u64_field(obj, "dir_steps")?,
            skew: opt_f64_field(obj, "skew")?,
        }),
        "anomaly" => {
            let rule_name = str_field(obj, "rule")?;
            let rule = AnomalyRule::from_name(&rule_name)
                .ok_or_else(|| format!("unknown anomaly rule `{rule_name}`"))?;
            Ok(Event::Anomaly {
                round: u32_field(obj, "round")?,
                rule,
                device: opt_u32_field(obj, "device")?,
                value: f64_field(obj, "value")?,
                limit: f64_field(obj, "limit")?,
            })
        }
        "participation" => Ok(Event::Participation {
            round: u32_field(obj, "round")?,
            responded: u32_field(obj, "responded")?,
            crashed: u32_field(obj, "crashed")?,
            offline: u32_field(obj, "offline")?,
            deadline_miss: u32_field(obj, "deadline_miss")?,
            link_failed: u32_field(obj, "link_failed")?,
            weight: f64_field(obj, "weight")?,
            skipped: u32_field(obj, "skipped")?,
        }),
        "path_stat" => Ok(Event::PathStat {
            path: str_field(obj, "path")?,
            count: u64_field(obj, "count")?,
            total_micros: f64_field(obj, "total_us")?,
            self_micros: f64_field(obj, "self_us")?,
            max_micros: f64_field(obj, "max_us")?,
            total_bytes: u64_field(obj, "total_bytes")?,
            self_bytes: u64_field(obj, "self_bytes")?,
            total_allocs: u64_field(obj, "total_allocs")?,
            self_allocs: u64_field(obj, "self_allocs")?,
        }),
        "trace_truncated" => {
            Ok(Event::TraceTruncated { dropped_spans: u64_field(obj, "dropped_spans")? })
        }
        "dropped" => Ok(Event::Dropped { count: u64_field(obj, "count")? }),
        "run_meta" => Ok(Event::RunMeta {
            version: u32_field(obj, "version")?,
            config: str_field(obj, "config")?,
            seed: u64_field(obj, "seed")?,
            kernel: str_field(obj, "kernel")?,
            faults: str_field(obj, "faults")?,
            features: str_field(obj, "features")?,
            crates: str_field(obj, "crates")?,
        }),
        "postmortem" => Ok(Event::Postmortem {
            round: u32_field(obj, "round")?,
            reason: str_field(obj, "reason")?,
            device: opt_u32_field(obj, "device")?,
        }),
        other => Err(format!("unknown event tag `{other}`")),
    }
}

/// Parse one JSONL line into an event.
pub fn parse_line(line: &str) -> Result<Event, String> {
    let mut p = Parser::new(line);
    let obj = p.value()?;
    if p.peek().is_some() {
        return Err("trailing bytes after JSON object".to_string());
    }
    event_from_json(&obj)
}

/// Parse a whole JSONL trace. Blank lines are skipped; any malformed
/// line fails the parse with its line number.
pub fn parse(trace: &str) -> Result<Vec<Event>, ParseError> {
    let mut out = Vec::new();
    for (idx, line) in trace.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        match parse_line(line) {
            Ok(ev) => out.push(ev),
            Err(message) => return Err(ParseError { line: idx + 1, message }),
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_events() -> Vec<Event> {
        vec![
            Event::Span {
                layer: "tensor".into(),
                name: "matmul".into(),
                micros: 12.5,
                attrs: vec![("m".into(), 64.0), ("k".into(), 10.0), ("n".into(), 8.0)],
            },
            Event::SpanStat {
                layer: "tensor".into(),
                name: "matmul".into(),
                count: 3,
                total_micros: 40.0,
                max_micros: 20.25,
            },
            Event::Counter { name: "optim.inner_step".into(), value: u64::MAX },
            Event::Gauge { name: "core.model_dim".into(), value: 610.0 },
            Event::Histogram {
                name: "net.lag_s".into(),
                bounds: vec![0.001, 0.01, 0.1],
                counts: vec![1, 2, 3, 4],
            },
            Event::DeviceRound {
                round: 2,
                device: 1,
                download_s: 0.05,
                compute_s: 0.4,
                upload_s: 0.05,
                finish_s: 0.5,
                lag_s: 0.125,
            },
            Event::Bytes { round: 2, kind: "global_model".into(), direction: "down".into(), bytes: 4885 },
            Event::RoundEnd { round: 2, sim_time_s: 1.5 },
            Event::Health {
                round: 3,
                train_loss: 0.61,
                loss_delta: -0.02,
                grad_norm_sq: 0.004,
                theta: Some(0.31),
                theta_lo: Some(0.12),
                theta_hi: Some(0.71),
                bound: Some(1.25),
                dir_mean_sq: 0.9,
                dir_m2: 0.04,
                dir_anchor_sq: 1.1,
                dir_steps: 80,
                skew: Some(0.5),
            },
            Event::Health {
                round: 4,
                train_loss: 0.6,
                loss_delta: -0.01,
                grad_norm_sq: 0.003,
                theta: None,
                theta_lo: None,
                theta_hi: None,
                bound: None,
                dir_mean_sq: 0.0,
                dir_m2: 0.0,
                dir_anchor_sq: 0.0,
                dir_steps: 0,
                skew: None,
            },
            Event::Anomaly {
                round: 5,
                rule: AnomalyRule::LossGuard,
                device: None,
                value: 2.0e9,
                limit: 1.0e9,
            },
            Event::Anomaly {
                round: 5,
                rule: AnomalyRule::Starvation,
                device: Some(3),
                value: 4.0,
                limit: 12.0,
            },
            Event::Participation {
                round: 6,
                responded: 3,
                crashed: 1,
                offline: 0,
                deadline_miss: 1,
                link_failed: 0,
                weight: 0.55,
                skipped: 1,
            },
            Event::PathStat {
                path: "round/device_update/local_solve/matmul".into(),
                count: 132,
                total_micros: 812.25,
                self_micros: 700.5,
                max_micros: 41.0,
                total_bytes: u64::MAX - 3,
                self_bytes: 4096,
                total_allocs: 640,
                self_allocs: 512,
            },
            Event::TraceTruncated { dropped_spans: 19 },
            Event::Dropped { count: 7 },
            Event::RunMeta {
                version: 1,
                config: "9e3779b97f4a7c15".into(),
                seed: 42,
                kernel: "tiled-par".into(),
                faults: "cbf29ce484222325".into(),
                features: "telemetry".into(),
                crates: "fedprox=0.1.0".into(),
            },
            Event::Postmortem { round: 4, reason: "quorum_skip".into(), device: Some(1) },
            Event::Postmortem { round: 7, reason: "non_finite".into(), device: None },
        ]
    }

    #[test]
    fn roundtrip_every_variant() {
        let events = sample_events();
        let text = to_jsonl(&events);
        let back = parse(&text).unwrap();
        assert_eq!(back, events);
    }

    #[test]
    fn blank_lines_skipped() {
        let text = format!("\n{}\n\n", write_line(&Event::Dropped { count: 1 }));
        assert_eq!(parse(&text).unwrap().len(), 1);
    }

    #[test]
    fn malformed_line_reports_position() {
        let err = parse("{\"t\":\"dropped\",\"count\":1}\nnot json\n").unwrap_err();
        assert_eq!(err.line, 2);
    }

    #[test]
    fn unknown_tag_rejected() {
        assert!(parse_line("{\"t\":\"mystery\"}").is_err());
    }

    #[test]
    fn every_anomaly_rule_roundtrips() {
        for rule in AnomalyRule::all() {
            let ev = Event::Anomaly { round: 1, rule, device: Some(0), value: 1.0, limit: 2.0 };
            assert_eq!(parse_line(&write_line(&ev)).unwrap(), ev);
        }
    }

    #[test]
    fn unknown_anomaly_rule_rejected() {
        let line = "{\"t\":\"anomaly\",\"round\":1,\"rule\":\"gremlins\",\"device\":null,\"value\":1,\"limit\":2}";
        assert!(parse_line(line).is_err());
    }

    #[test]
    fn string_escapes_roundtrip() {
        let ev = Event::Counter { name: "weird \"name\"\n\\tab\t".into(), value: 3 };
        let back = parse_line(&write_line(&ev)).unwrap();
        assert_eq!(back, ev);
    }

    #[test]
    fn u64_precision_survives() {
        let ev = Event::Counter { name: "big".into(), value: u64::MAX - 1 };
        let back = parse_line(&write_line(&ev)).unwrap();
        assert_eq!(back, ev);
    }
}
