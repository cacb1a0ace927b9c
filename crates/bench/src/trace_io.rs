//! JSONL trace output for experiment runs.
//!
//! The simulator's [`Trace`] already knows how to render itself as JSON
//! Lines ([`Trace::to_jsonl`]); this module adds the file plumbing the
//! bench targets and the CI smoke job need — write a run's trace to disk,
//! and validate that a JSONL stream conforms to the event schema
//! (DESIGN.md §3.2).

use std::borrow::Cow;
use std::io::Write;
use std::path::Path;
use wormcast_sim::trace::Trace;

/// Write a trace to `path` as JSON Lines, one event per line, sorted by
/// `(time, rendered line)` — the deterministic order [`Trace::to_jsonl`]
/// guarantees. Streams through [`Trace::write_jsonl`], so the trace is
/// never materialized as one giant `String`.
pub fn write_jsonl(trace: &Trace, path: &Path) -> std::io::Result<()> {
    let mut f = std::io::BufWriter::new(std::fs::File::create(path)?);
    trace.write_jsonl(&mut f)?;
    f.flush()
}

/// Drop every `span-*` line from a JSONL stream, keeping the rest in order
/// (each line ends with `\n` on output).
///
/// This is the identity on every trace this engine produces: the span
/// engine records no events of its own, so a traced `SpanBatched` run
/// (sequential or sharded) renders the same thirteen-event JSONL as the
/// `PerByte` run and there is nothing to erase. Such a stream costs two
/// scans, one for `span-` and one for `\r`, and is borrowed back, not
/// copied; only a foreign stream with a line to drop or a line ending to
/// fix is rebuilt. The function survives only because the `benchmark/`
/// package imports it, and its call there compiles against either return
/// type; nothing else may call it, and a later `benchmark` issue should
/// drop both the call and this function.
pub fn expand_spans(jsonl: &str) -> Cow<'_, str> {
    /// The renderer's field order is fixed (`t` then `ev`), so a cheap
    /// substring probe is exact — but fall back to a real parse for
    /// foreign-produced lines that may order fields differently.
    fn is_span_line(line: &str) -> bool {
        if line.contains("\"ev\":\"span-") {
            return true;
        }
        if !line.contains("span-") {
            return false;
        }
        match serde_json::parse_value(line) {
            Ok(v) => {
                matches!(v.get("ev"), Some(serde_json::Value::Str(e)) if e.starts_with("span-"))
            }
            Err(_) => false,
        }
    }
    // Without a span line, and with every line already ending in a bare
    // `\n`, the output is the input.
    let newline_terminated = jsonl.is_empty() || jsonl.ends_with('\n');
    if newline_terminated && !jsonl.contains("span-") && !jsonl.contains('\r') {
        return Cow::Borrowed(jsonl);
    }
    let mut out = String::with_capacity(jsonl.len());
    for line in jsonl.lines() {
        if !is_span_line(line) {
            out.push_str(line);
            out.push('\n');
        }
    }
    Cow::Owned(out)
}

/// A schema violation found by [`validate_jsonl`]: line number (1-based)
/// and what was wrong with it.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SchemaViolation {
    pub line: usize,
    pub reason: String,
}

impl std::fmt::Display for SchemaViolation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "line {}: {}", self.line, self.reason)
    }
}

/// Required integer fields per event name, beyond the universal `t`.
fn required_fields(ev: &str) -> Option<&'static [&'static str]> {
    Some(match ev {
        "worm-injected" | "worm-received" | "worm-refused" | "worm-corrupt"
        | "worm-flushed" => &["worm", "host"],
        "route-consumed" => &["worm", "switch", "out"],
        "blocked" | "resumed" => &["worm"],
        "fragment-parked" | "fragment-resumed" => &["worm", "host", "body_got"],
        "delivered" => &["msg", "host"],
        "stop" | "go" => &["ch", "lane"],
        _ => return None,
    })
}

/// Fields the `cause` discriminant adds to `blocked`/`resumed` events.
fn cause_fields(cause: &str) -> Option<&'static [&'static str]> {
    Some(match cause {
        "stop" => &["ch"],
        "output-busy" | "branch-wait" => &["switch", "out"],
        _ => return None,
    })
}

/// A field value of a canonical trace line.
#[derive(Clone, Copy)]
enum Scalar<'a> {
    U64(u64),
    Str(&'a str),
}

/// Most fields a canonical line may carry; the widest event has six.
const MAX_FIELDS: usize = 8;

/// The fields of one canonical line, borrowed from it, in line order.
struct Fields<'a> {
    len: usize,
    kv: [(&'a str, Scalar<'a>); MAX_FIELDS],
}

impl<'a> Fields<'a> {
    /// The first field named `key`.
    fn get(&self, key: &str) -> Option<Scalar<'a>> {
        self.kv[..self.len]
            .iter()
            .find(|(k, _)| *k == key)
            .map(|&(_, v)| v)
    }

    fn u64(&self, key: &str) -> Option<u64> {
        match self.get(key) {
            Some(Scalar::U64(x)) => Some(x),
            _ => None,
        }
    }

    fn str(&self, key: &str) -> Option<&'a str> {
        match self.get(key) {
            Some(Scalar::Str(s)) => Some(s),
            _ => None,
        }
    }
}

/// Scan one line in the renderer's compact form: `{`, then
/// comma-separated `"key":value` pairs whose values are unsigned decimal
/// integers (no leading zero) or strings without escapes, then `}` and the
/// end of the line. Anything else is an error naming the byte offset.
fn scan(line: &str) -> Result<Fields<'_>, String> {
    let b = line.as_bytes();
    let mut fields = Fields {
        len: 0,
        kv: [("", Scalar::U64(0)); MAX_FIELDS],
    };
    if b.first() != Some(&b'{') {
        return Err(format!("not a JSON object: {}", unexpected(line, 0, "`{`")));
    }
    let mut pos = 1;
    if b.get(pos) == Some(&b'}') {
        pos += 1;
    } else {
        loop {
            let key = scan_str(line, &mut pos)?;
            if b.get(pos) != Some(&b':') {
                return Err(unexpected(line, pos, "`:`"));
            }
            pos += 1;
            let value = match b.get(pos) {
                Some(b'"') => Scalar::Str(scan_str(line, &mut pos)?),
                Some(b'0'..=b'9') => Scalar::U64(scan_u64(b, &mut pos)?),
                Some(b'-') => return Err(format!("negative number at byte {pos}")),
                Some(b'{' | b'[') => return Err(format!("nested value at byte {pos}")),
                _ => return Err(unexpected(line, pos, "an unsigned integer or a string")),
            };
            if fields.len == MAX_FIELDS {
                return Err(format!("more than {MAX_FIELDS} fields at byte {pos}"));
            }
            fields.kv[fields.len] = (key, value);
            fields.len += 1;
            match b.get(pos) {
                Some(b',') => pos += 1,
                Some(b'}') => {
                    pos += 1;
                    break;
                }
                _ => return Err(unexpected(line, pos, "`,` or `}`")),
            }
        }
    }
    if pos != b.len() {
        return Err(match line[pos..].starts_with(char::is_whitespace) {
            true => format!("trailing whitespace at byte {pos}"),
            false => format!("trailing bytes at byte {pos}"),
        });
    }
    Ok(fields)
}

/// A string starting at `*pos`, which must be its opening quote; leaves
/// `*pos` after the closing quote.
fn scan_str<'a>(line: &'a str, pos: &mut usize) -> Result<&'a str, String> {
    let b = line.as_bytes();
    if b.get(*pos) != Some(&b'"') {
        return Err(unexpected(line, *pos, "a string"));
    }
    let start = *pos + 1;
    let mut end = start;
    loop {
        match b.get(end) {
            Some(b'"') => break,
            Some(b'\\') => return Err(format!("escape at byte {end}")),
            Some(&c) if c < 0x20 => return Err(format!("control character at byte {end}")),
            Some(_) => end += 1,
            None => return Err(format!("unterminated string at byte {}", *pos)),
        }
    }
    *pos = end + 1;
    Ok(&line[start..end])
}

/// An unsigned integer starting at `*pos`, which must be a digit; leaves
/// `*pos` after it.
fn scan_u64(b: &[u8], pos: &mut usize) -> Result<u64, String> {
    let start = *pos;
    let mut x: u64 = 0;
    while let Some(&d @ b'0'..=b'9') = b.get(*pos) {
        x = x
            .checked_mul(10)
            .and_then(|x| x.checked_add(u64::from(d - b'0')))
            .ok_or_else(|| format!("integer overflows u64 at byte {start}"))?;
        *pos += 1;
    }
    if b[start] == b'0' && *pos - start > 1 {
        return Err(format!("leading zero at byte {start}"));
    }
    if matches!(b.get(*pos), Some(b'.' | b'e' | b'E')) {
        return Err(format!("non-integer number at byte {start}"));
    }
    Ok(x)
}

/// Describe what stands at `pos` where `wanted` was expected.
fn unexpected(line: &str, pos: usize, wanted: &str) -> String {
    match line[pos..].chars().next() {
        None => format!("line ends at byte {pos}, expected {wanted}"),
        Some(c) if c.is_whitespace() => format!("whitespace at byte {pos}, expected {wanted}"),
        Some(c) => format!("unexpected {c:?} at byte {pos}, expected {wanted}"),
    }
}

/// A walk over one line of a JSONL stream that matches the renderer's
/// exact output and gives up at the first byte that departs from it.
struct Exact<'a> {
    s: &'a str,
    pos: usize,
}

impl<'a> Exact<'a> {
    fn lit(&mut self, lit: &str) -> Option<()> {
        let end = self.pos + lit.len();
        (self.s.as_bytes().get(self.pos..end)? == lit.as_bytes()).then(|| self.pos = end)
    }

    /// Unsigned decimal digits, no leading zero, that fit a `u64`.
    fn u64(&mut self) -> Option<u64> {
        let b = self.s.as_bytes();
        let start = self.pos;
        let mut x: u64 = 0;
        while let Some(&d @ b'0'..=b'9') = b.get(self.pos) {
            x = x.checked_mul(10)?.checked_add(u64::from(d - b'0'))?;
            self.pos += 1;
        }
        let len = self.pos - start;
        (len == 1 || len > 1 && b[start] != b'0').then_some(x)
    }

    /// A string without escapes whose closing `"` comes within the longest
    /// name (`fragment-resumed`, 16 bytes); `pos` is past its opening `"`.
    fn name(&mut self) -> Option<&'a str> {
        let rest = &self.s[self.pos..];
        let len = rest.bytes().take(17).position(|c| c == b'"')?;
        self.pos += len + 1;
        Some(&rest[..len])
    }

    /// `,"key":` and its value, for each key.
    fn fields(&mut self, keys: &[&str]) -> Option<()> {
        for key in keys {
            self.lit(",\"")?;
            self.lit(key)?;
            self.lit("\":")?;
            self.u64()?;
        }
        Some(())
    }
}

/// The line starting at `start` if it is byte for byte a line the renderer
/// writes: its `t` and the index of its end (its `\n`, or the stream's
/// end). `None` says nothing about whether the line is valid.
fn exact_line(s: &str, start: usize) -> Option<(u64, usize)> {
    let mut p = Exact { s, pos: start };
    p.lit("{\"t\":")?;
    let t = p.u64()?;
    p.lit(",\"ev\":\"")?;
    let ev = p.name()?;
    p.fields(required_fields(ev)?)?;
    if matches!(ev, "blocked" | "resumed") {
        p.lit(",\"cause\":\"")?;
        let cause = p.name()?;
        p.fields(cause_fields(cause)?)?;
    }
    p.lit("}")?;
    matches!(s.as_bytes().get(p.pos), None | Some(b'\n')).then_some((t, p.pos))
}

/// Check every line of a JSONL stream against the trace event schema
/// (DESIGN.md §3.2) and return all violations (empty = conformant).
///
/// A line must be in the canonical form [`Trace::to_jsonl`] renders: a
/// flat object, no whitespace, whose values are unsigned integers or
/// strings without escapes, at most eight fields; a violation names the
/// byte where a line departs from that form. Lines end at `\n` alone.
/// On its fields: `t` is an unsigned integer and does not decrease from
/// line to line, `ev` names a known event, that event's required fields
/// are unsigned integers, and a `blocked`/`resumed` line has a known
/// `cause` with its site fields.
///
/// A line byte for byte as the renderer writes it, whose `t` does not
/// fall, is accepted in the pass that finds its end; every other line is
/// scanned in place field by field, and only that scan reports. Nothing
/// is allocated unless a line is in violation.
pub fn validate_jsonl(jsonl: &str) -> Vec<SchemaViolation> {
    validate(jsonl, true)
}

/// [`validate_jsonl`], trying each line's exact shape first if `exact`.
fn validate(jsonl: &str, exact: bool) -> Vec<SchemaViolation> {
    let b = jsonl.as_bytes();
    let mut out = Vec::new();
    let mut last_t: Option<u64> = None;
    let (mut start, mut lineno) = (0, 0);
    while start < b.len() {
        lineno += 1;
        if exact {
            if let Some((t, end)) = exact_line(jsonl, start) {
                if last_t.is_none_or(|prev| t >= prev) {
                    last_t = Some(t);
                    start = end + 1;
                    continue;
                }
            }
        }
        let end = b[start..]
            .iter()
            .position(|&c| c == b'\n')
            .map_or(b.len(), |n| start + n);
        check_line(&jsonl[start..end], lineno, &mut last_t, &mut out);
        start = end + 1;
    }
    out
}

/// The general scanner: check one line (without its `\n`) field by field,
/// pushing each violation onto `out`.
fn check_line(
    line: &str,
    lineno: usize,
    last_t: &mut Option<u64>,
    out: &mut Vec<SchemaViolation>,
) {
    let mut bad = |reason: String| {
        out.push(SchemaViolation {
            line: lineno,
            reason,
        })
    };
    let v = match scan(line) {
        Ok(v) => v,
        Err(e) => return bad(format!("not canonical JSON: {e}")),
    };
    let Some(t) = v.u64("t") else {
        return bad("missing unsigned integer field \"t\"".into());
    };
    if let Some(prev) = *last_t {
        if t < prev {
            bad(format!("time went backwards: {t} after {prev}"));
        }
    }
    *last_t = Some(t);
    let Some(ev) = v.str("ev") else {
        return bad("missing string field \"ev\"".into());
    };
    let Some(required) = required_fields(ev) else {
        return bad(format!("unknown event {ev:?}"));
    };
    for field in required {
        if v.u64(field).is_none() {
            bad(format!("{ev:?} missing unsigned integer field {field:?}"));
        }
    }
    if matches!(ev, "blocked" | "resumed") {
        match v.str("cause") {
            Some(cause) => match cause_fields(cause) {
                Some(extra) => {
                    for field in extra {
                        if v.u64(field).is_none() {
                            bad(format!(
                                "cause {cause:?} missing unsigned integer field {field:?}"
                            ));
                        }
                    }
                }
                None => bad(format!("unknown cause {cause:?}")),
            },
            None => bad(format!("{ev:?} missing string field \"cause\"")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wormcast_sim::engine::{HostId, SwitchId};
    use wormcast_sim::link::ChanId;
    use wormcast_sim::trace::{render_line, BlockCause, TraceEvent};
    use wormcast_sim::worm::MessageId;

    #[test]
    fn real_trace_validates_clean() {
        let mut tr = Trace::default();
        tr.push(5, TraceEvent::WormInjected {
            worm: 3,
            host: HostId(1),
        });
        tr.push(9, TraceEvent::WormReceived {
            worm: 3,
            host: HostId(2),
        });
        let jsonl = tr.to_jsonl();
        assert_eq!(validate_jsonl(&jsonl), vec![]);
    }

    /// One event of each of the 17 line shapes: 13 events, `blocked` and
    /// `resumed` under each of 3 causes.
    fn every_shape() -> Vec<TraceEvent> {
        let (worm, host, switch) = (7 << 40 | 3, HostId(41), SwitchId(23));
        let mut events = vec![
            TraceEvent::WormInjected { worm, host },
            TraceEvent::RouteConsumed {
                worm,
                switch,
                out: 15,
            },
            TraceEvent::WormReceived { worm, host },
            TraceEvent::WormRefused { worm, host },
            TraceEvent::WormCorrupt { worm, host },
            TraceEvent::WormFlushed { worm, host },
            TraceEvent::FragmentParked {
                worm,
                host,
                body_got: 0,
            },
            TraceEvent::FragmentResumed {
                worm,
                host,
                body_got: 512,
            },
            TraceEvent::Delivered {
                msg: MessageId(11),
                host,
            },
            TraceEvent::StopInForce {
                ch: ChanId(97),
                lane: 1,
            },
            TraceEvent::GoReceived {
                ch: ChanId(97),
                lane: 1,
            },
        ];
        for cause in [
            BlockCause::StopBackpressure { ch: ChanId(97) },
            BlockCause::OutputBusy { switch, out: 5 },
            BlockCause::BranchWait { switch, out: 16 },
        ] {
            events.push(TraceEvent::WormBlocked { worm, cause });
            events.push(TraceEvent::WormResumed { worm, cause });
        }
        events
    }

    #[test]
    fn every_event_and_cause_renders_valid() {
        let mut jsonl = String::new();
        for (t, ev) in every_shape().iter().enumerate() {
            render_line(&mut jsonl, t as u64, ev);
            jsonl.push('\n');
        }
        assert_eq!(jsonl.lines().count(), 17);
        assert_eq!(validate_jsonl(&jsonl), vec![]);
    }

    /// Lines one edit away from each shape's rendering, and a few wider
    /// departures, each between two canonical lines at its `t`: the exact
    /// path may only pass a line on to the general scanner, never change
    /// what it reports.
    #[test]
    fn the_exact_path_never_changes_a_verdict() {
        let t = 1234;
        let mut mutants: Vec<String> = Vec::new();
        for ev in every_shape() {
            let mut line = String::new();
            render_line(&mut line, t, &ev);
            assert!(exact_line(&line, 0).is_some(), "{line}");
            let b = line.as_bytes();
            for i in 0..b.len() {
                let mut cut = b.to_vec();
                cut.remove(i);
                mutants.push(String::from_utf8(cut).unwrap());
                for &c in b"09\",:{}-.e\\ \r" {
                    let mut sub = b.to_vec();
                    sub[i] = c;
                    mutants.push(String::from_utf8(sub).unwrap());
                }
            }
            let fields: Vec<&str> = line[1..line.len() - 1].split(',').collect();
            let object = |fields: &[&str]| format!("{{{}}}", fields.join(","));
            let n = fields.len();
            for (i, j) in [(0, 1), (1, 2), (n - 2, n - 1)] {
                let mut swapped = fields.clone();
                swapped.swap(i, j);
                mutants.push(object(&swapped));
            }
            let mut repeated = fields.clone();
            repeated.push(fields[n - 1]);
            mutants.push(object(&repeated));
            // One unknown field, and as many as make nine fields.
            let unknown = ["\"u\":1", "\"v\":2", "\"w\":3", "\"x\":4", "\"y\":5"];
            for extra in [1, 9 - n] {
                mutants.push(object(&[&fields[..], &unknown[..extra]].concat()));
            }
            let (last_key, last_value) = fields[n - 1].split_once(':').unwrap();
            for value in [
                "0",
                "00",
                &format!("0{last_value}"),
                "18446744073709551615",
                "18446744073709551616",
            ] {
                let mut edited = fields.clone();
                let field = format!("{last_key}:{value}");
                edited[n - 1] = &field;
                mutants.push(object(&edited));
            }
            mutants.push(line.replacen(&format!(":{t},"), &format!(":0{t},"), 1));
            mutants.push(line.replacen(&format!(":{t},"), ":18446744073709551616,", 1));
        }
        let around = format!("{{\"t\":{t},\"ev\":\"go\",\"ch\":1,\"lane\":0}}");
        let (mut accepted, mut rejected) = (0, 0);
        for m in &mutants {
            for stream in [
                format!("{around}\n{m}\n{around}\n"),
                format!("{around}\n{m}"),
            ] {
                let general = validate(&stream, false);
                assert_eq!(validate(&stream, true), general, "{m:?}");
                match general.is_empty() {
                    true => accepted += 1,
                    false => rejected += 1,
                }
            }
        }
        assert!(
            mutants.len() > 15_000 && accepted > 1_000 && rejected > 10_000,
            "{accepted} {rejected}"
        );
    }

    /// Every line of the committed traced Fig 10 point takes the exact
    /// path: a renderer change that sent lines to the general scanner
    /// would cost time and fail nothing else.
    #[test]
    fn the_exact_path_takes_every_line_of_the_committed_trace() {
        let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../results/traced_fig10.jsonl");
        let jsonl =
            std::fs::read_to_string(&path).expect("results/traced_fig10.jsonl is committed");
        let (mut start, mut lines) = (0, 0);
        while start < jsonl.len() {
            lines += 1;
            let (_, end) =
                exact_line(&jsonl, start).unwrap_or_else(|| panic!("line {lines} is not exact"));
            start = end + 1;
        }
        assert_eq!(lines, jsonl.lines().count());
        assert!(lines > 10_000, "{lines}");
        assert_eq!(validate_jsonl(&jsonl), vec![]);
    }

    #[test]
    fn rejects_each_departure_from_the_canonical_form() {
        let cases = [
            (r#"{"t":5,"ev":"stop","ch":{"a":1},"lane":0}"#, "nested value at byte 24"),
            (r#"{"t":5.5,"ev":"stop","ch":1,"lane":0}"#, "non-integer number at byte 5"),
            (r#"{"t":5,"ev":"stop","ch":-1,"lane":0}"#, "negative number at byte 24"),
            (r#"{"t":5,"ev":"st\u006fp","ch":1,"lane":0}"#, "escape at byte 15"),
            (r#"{"t": 5,"ev":"stop","ch":1,"lane":0}"#, "whitespace at byte 5"),
            (r#"{"t":5,"ev":"stop","ch":1,"lane":0}x"#, "trailing bytes at byte 35"),
            ("{\"t\":5,\"ev\":\"stop\",\"ch\":1,\"lane\":0}\r", "trailing whitespace at byte 35"),
            (r#"{"t":5,"ev":"stop","ch":"1","lane":0}"#, r#"missing unsigned integer field "ch""#),
            (r#"{"t":5,"ev":"stop","ch":1}"#, r#"missing unsigned integer field "lane""#),
            (r#"{"t":5,"ev":"stop-go","ch":1,"lane":0}"#, r#"unknown event "stop-go""#),
            (r#"{"t":5,"ev":"blocked","worm":1,"cause":"bored"}"#, r#"unknown cause "bored""#),
            (r#"{"t":4,"ev":"stop","ch":1,"lane":0}"#, "time went backwards: 4 after 5"),
        ];
        let mut jsonl = String::from("{\"t\":5,\"ev\":\"go\",\"ch\":1,\"lane\":0}\n");
        for (line, _) in cases {
            jsonl.push_str(line);
            jsonl.push('\n');
        }
        let violations = validate_jsonl(&jsonl);
        assert_eq!(violations.len(), cases.len(), "{violations:?}");
        for (ix, (v, (_, fragment))) in violations.iter().zip(cases).enumerate() {
            assert_eq!(v.line, ix + 2, "{v}");
            assert!(v.reason.contains(fragment), "{v} lacks {fragment:?}");
        }
    }

    #[test]
    fn rejects_garbage_and_schema_holes() {
        let bad = "\
{\"t\":1,\"ev\":\"worm-injected\",\"worm\":0,\"host\":0}
not json at all
{\"t\":2,\"ev\":\"no-such-event\"}
{\"t\":1,\"ev\":\"stop\",\"ch\":4,\"lane\":0}
{\"t\":3,\"ev\":\"blocked\",\"worm\":1,\"cause\":\"stop\"}
{\"t\":4,\"ev\":\"delivered\",\"msg\":2}
";
        let violations = validate_jsonl(bad);
        let lines: Vec<usize> = violations.iter().map(|v| v.line).collect();
        assert_eq!(lines, vec![2, 3, 4, 5, 6]);
        assert!(violations[2].reason.contains("backwards"));
        assert!(violations[3].reason.contains("ch"));
        assert!(violations[4].reason.contains("host"));
    }

    #[test]
    fn expander_keeps_foreign_field_order() {
        // Hand-written lines that put `ev` later than the renderer does
        // must still be classified correctly.
        let jsonl = "\
{\"t\":1,\"ev\":\"worm-injected\",\"worm\":0,\"host\":0}
{\"worm\":0,\"t\":2,\"ev\":\"span-emitted\",\"ch\":1,\"lane\":0,\"len\":8}
";
        let expanded = expand_spans(jsonl);
        assert_eq!(expanded.lines().count(), 1);
        assert!(expanded.contains("worm-injected"));
    }

    #[test]
    fn expander_without_spans_still_ends_every_line() {
        let lines = "{\"t\":1,\"ev\":\"go\",\"ch\":0,\"lane\":0}\n{\"t\":2,\"ev\":\"go\",\"ch\":1,\"lane\":0}";
        let canonical = format!("{lines}\n");
        assert!(matches!(expand_spans(&canonical), Cow::Borrowed(s) if s == canonical));
        assert!(matches!(expand_spans(lines), Cow::Owned(s) if s == canonical));
        assert_eq!(expand_spans(&canonical.replace('\n', "\r\n")), canonical);
        assert_eq!(expand_spans(""), "");
    }
}
