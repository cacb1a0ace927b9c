//! JSONL trace output for experiment runs.
//!
//! The simulator's [`Trace`] already knows how to render itself as JSON
//! Lines ([`Trace::to_jsonl`]); this module adds the file plumbing the
//! bench targets and the CI smoke job need — write a run's trace to disk,
//! and validate that a JSONL stream conforms to the event schema
//! (DESIGN.md §3.2).

use serde_json::Value;
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

/// Drop every `span-*` line from a JSONL stream, keeping the rest in order.
///
/// This is the identity on every trace this engine produces: the span
/// engine records no events of its own, so a traced `SpanBatched` run
/// (sequential or sharded) renders the same thirteen-event JSONL as the
/// `PerByte` run and there is nothing to erase. The function survives,
/// signature and behaviour unchanged, only because the `benchmark/`
/// package imports it; nothing else may call it, and a later `benchmark`
/// issue should drop both the call and this function.
pub fn expand_spans(jsonl: &str) -> String {
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
        matches!(
            serde_json::parse_value(line),
            Ok(v) if as_str(v.get("ev")).is_some_and(|e| e.starts_with("span-"))
        )
    }
    let mut out = String::with_capacity(jsonl.len());
    for line in jsonl.lines() {
        if !is_span_line(line) {
            out.push_str(line);
            out.push('\n');
        }
    }
    out
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

fn as_u64(v: Option<&Value>) -> Option<u64> {
    match v {
        Some(&Value::U64(x)) => Some(x),
        _ => None,
    }
}

fn as_str(v: Option<&Value>) -> Option<&str> {
    match v {
        Some(Value::Str(s)) => Some(s.as_str()),
        _ => None,
    }
}

/// Check every line of a JSONL stream against the trace event schema:
/// valid JSON object, numeric `t`, known `ev`, the event's required
/// fields present as unsigned integers, non-decreasing `t`, and a valid
/// `cause` on blocked/resumed lines. Returns all violations (empty =
/// conformant).
pub fn validate_jsonl(jsonl: &str) -> Vec<SchemaViolation> {
    let mut out = Vec::new();
    let mut last_t: Option<u64> = None;
    for (ix, line) in jsonl.lines().enumerate() {
        let lineno = ix + 1;
        let mut bad = |reason: String| {
            out.push(SchemaViolation {
                line: lineno,
                reason,
            })
        };
        let v: Value = match serde_json::parse_value(line) {
            Ok(v) => v,
            Err(e) => {
                bad(format!("not valid JSON: {e}"));
                continue;
            }
        };
        if !matches!(v, Value::Object(_)) {
            bad("not a JSON object".into());
            continue;
        }
        let Some(t) = as_u64(v.get("t")) else {
            bad("missing unsigned integer field \"t\"".into());
            continue;
        };
        if let Some(prev) = last_t {
            if t < prev {
                bad(format!("time went backwards: {t} after {prev}"));
            }
        }
        last_t = Some(t);
        let Some(ev) = as_str(v.get("ev")) else {
            bad("missing string field \"ev\"".into());
            continue;
        };
        let Some(required) = required_fields(ev) else {
            bad(format!("unknown event {ev:?}"));
            continue;
        };
        for field in required {
            if as_u64(v.get(field)).is_none() {
                bad(format!("{ev:?} missing unsigned integer field {field:?}"));
            }
        }
        if matches!(ev, "blocked" | "resumed") {
            match as_str(v.get("cause")) {
                Some(cause) => match cause_fields(cause) {
                    Some(extra) => {
                        for field in extra {
                            if as_u64(v.get(field)).is_none() {
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
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use wormcast_sim::engine::HostId;
    use wormcast_sim::trace::TraceEvent;

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
}
