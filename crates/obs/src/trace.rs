//! Chrome `trace_event` / Perfetto JSON timeline output.
//!
//! Renders a span forest as the JSON Object Format of the Trace Event
//! spec: open `chrome://tracing` or <https://ui.perfetto.dev> and load
//! the file. Durational spans become complete (`"ph":"X"`) events,
//! zero-length marks become instants (`"ph":"i"`). The time unit is
//! declared via `otherData.clock` so the file is self-describing.

use crate::json::write_str;
use crate::span::{dispatch_of, is_hedge_lane, Span, SpanKind};
use std::collections::BTreeMap;

/// Serializes a span forest as a Chrome trace JSON document whose
/// timestamps are in `clock` units (`"us"` for fleet spans, `"cycles"`
/// for the cycle model's lifecycle spans).
///
/// Each trace lane (one dispatched copy of a fleet invocation, or one
/// invocation on a core) becomes its own thread row. Fleet span times,
/// which are invocation-relative, are shifted by the root span's
/// recorded arrival so the timeline lays out in absolute simulated
/// microseconds; cycle-model lanes stay relative to dispatch. Hedged
/// fleet pairs (both lanes of one dispatch present) are linked with flow
/// (`"ph":"s"` → `"ph":"f"`) events whose id is the dispatch index, so
/// Perfetto draws the arrow from the primary to its duplicate.
pub fn chrome_trace_spans(process_name: &str, clock: &str, spans: &[Span]) -> String {
    // Absolute offset and presence per fleet lane, from the root spans.
    let mut arrivals: BTreeMap<u64, u64> = BTreeMap::new();
    for s in spans {
        if s.id == 0 && s.kind == SpanKind::Invocation {
            arrivals.insert(s.trace, s.b);
        }
    }
    let mut out = String::from("{\"displayTimeUnit\":\"ns\",\"otherData\":{\"clock\":");
    write_str(&mut out, clock);
    out.push_str("},\"traceEvents\":[");
    out.push_str("{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":1,\"tid\":1,\"args\":{\"name\":");
    write_str(&mut out, process_name);
    out.push_str("}}");
    for span in spans {
        out.push(',');
        write_span(
            &mut out,
            span,
            arrivals.get(&span.trace).copied().unwrap_or(0),
        );
    }
    // Flow pairs: one arrow per dispatch with both lanes present.
    for (&trace, &arrival) in &arrivals {
        if !is_hedge_lane(trace) {
            continue;
        }
        let dispatch = dispatch_of(trace);
        let primary = trace - 1;
        let Some(&primary_arrival) = arrivals.get(&primary) else {
            continue;
        };
        out.push_str(&format!(
            ",{{\"name\":\"hedge\",\"cat\":\"fleet\",\"ph\":\"s\",\"id\":{dispatch},\
             \"pid\":1,\"tid\":{},\"ts\":{primary_arrival}}}",
            primary + 1
        ));
        out.push_str(&format!(
            ",{{\"name\":\"hedge\",\"cat\":\"fleet\",\"ph\":\"f\",\"bp\":\"e\",\
             \"id\":{dispatch},\"pid\":1,\"tid\":{},\"ts\":{arrival}}}",
            trace + 1
        ));
    }
    out.push_str("]}");
    out
}

fn write_span(out: &mut String, span: &Span, offset_us: u64) {
    out.push_str("{\"name\":");
    write_str(out, span.kind.label());
    let cat = if span.kind >= SpanKind::Dispatch {
        "core"
    } else {
        "fleet"
    };
    out.push_str(&format!(
        ",\"cat\":\"{cat}\",\"pid\":1,\"tid\":{},\"ts\":{}",
        span.trace + 1,
        offset_us + span.start_us
    ));
    if span.dur_us > 0 || span.kind == SpanKind::Invocation {
        out.push_str(&format!(",\"ph\":\"X\",\"dur\":{}", span.dur_us));
    } else {
        out.push_str(",\"ph\":\"i\",\"s\":\"t\"");
    }
    let (ka, kb) = span_arg_names(span.kind);
    out.push_str(&format!(
        ",\"args\":{{\"trace\":{},\"span\":{},\"parent\":{},",
        span.trace, span.id, span.parent
    ));
    write_str(out, ka);
    out.push(':');
    out.push_str(&span.a.to_string());
    out.push(',');
    write_str(out, kb);
    out.push(':');
    out.push_str(&span.b.to_string());
    out.push_str("}}");
}

fn span_arg_names(kind: SpanKind) -> (&'static str, &'static str) {
    match kind {
        SpanKind::Invocation => ("host", "arrival_us"),
        SpanKind::Route => ("host", "failed_over"),
        SpanKind::Hedge => ("primary", "hedge_host"),
        SpanKind::Reconnect => ("retry", "abandoned"),
        SpanKind::Admission => ("verdict", "reserved"),
        SpanKind::Restore => ("attempt", "degraded"),
        SpanKind::Execute => ("attempt", "outcome"),
        SpanKind::Backoff => ("attempt", "reserved"),
        SpanKind::Dispatch => ("invocation", "reserved"),
        SpanKind::PrefetchBatch => ("issued", "redundant"),
        SpanKind::FetchStall => ("line", "hit_level"),
        SpanKind::Retire => ("instructions", "cycles"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::parse;

    #[test]
    fn cycle_trace_is_valid_json_with_expected_phases() {
        let spans = [
            sp(3, 0, SpanKind::Dispatch, 0, 0, 3, 0),
            sp(3, 1, SpanKind::FetchStall, 5, 120, 42, 2),
            sp(3, 2, SpanKind::Retire, 900, 0, 5000, 900),
            // An even/odd lane pair of invocations is not a hedged pair.
            sp(2, 0, SpanKind::Dispatch, 0, 0, 2, 0),
        ];
        let doc = chrome_trace_spans("Auth-G", "cycles", &spans);
        let v = parse(&doc).unwrap();
        assert_eq!(v.get("displayTimeUnit").unwrap().as_str(), Some("ns"));
        assert_eq!(
            v.get("otherData").unwrap().get("clock").unwrap().as_str(),
            Some("cycles")
        );
        let te = v.get("traceEvents").unwrap().as_arr().unwrap();
        // Metadata record + 4 spans, and no flow events.
        assert_eq!(te.len(), 5);
        assert_eq!(te[0].get("ph").unwrap().as_str(), Some("M"));
        assert_eq!(te[1].get("name").unwrap().as_str(), Some("dispatch"));
        assert_eq!(te[1].get("ph").unwrap().as_str(), Some("i"));
        assert_eq!(te[1].get("cat").unwrap().as_str(), Some("core"));
        let stall = &te[2];
        assert_eq!(stall.get("ph").unwrap().as_str(), Some("X"));
        assert_eq!(stall.get("ts").unwrap().as_f64(), Some(5.0));
        assert_eq!(stall.get("dur").unwrap().as_f64(), Some(120.0));
        assert_eq!(
            stall.get("args").unwrap().get("line").unwrap().as_f64(),
            Some(42.0)
        );
        assert_eq!(
            te[3]
                .get("args")
                .unwrap()
                .get("instructions")
                .unwrap()
                .as_f64(),
            Some(5000.0)
        );
    }

    #[test]
    fn empty_trace_still_has_process_metadata() {
        let doc = chrome_trace_spans("fn", "cycles", &[]);
        let v = parse(&doc).unwrap();
        assert_eq!(v.get("traceEvents").unwrap().as_arr().unwrap().len(), 1);
    }

    fn sp(trace: u64, id: u32, kind: SpanKind, start_us: u64, dur_us: u64, a: u64, b: u64) -> Span {
        Span {
            trace,
            id,
            parent: 0,
            kind,
            start_us,
            dur_us,
            a,
            b,
        }
    }

    #[test]
    fn span_trace_shifts_by_arrival_and_pairs_hedge_flows() {
        // Dispatch 3, hedged: primary on lane 6 (arrival 500µs), hedge on
        // lane 7 (arrival 500µs too — both copies leave the router at the
        // same simulated instant).
        let spans = [
            sp(6, 0, SpanKind::Invocation, 0, 900, 2, 500),
            sp(6, 4, SpanKind::Execute, 0, 900, 0, 0),
            sp(7, 0, SpanKind::Invocation, 0, 1200, 5, 500),
            sp(7, 4, SpanKind::Execute, 0, 1200, 0, 0),
        ];
        let doc = chrome_trace_spans("fleet", "us", &spans);
        let v = parse(&doc).unwrap();
        let te = v.get("traceEvents").unwrap().as_arr().unwrap();
        // Metadata + 4 spans + flow start/finish.
        assert_eq!(te.len(), 7);
        let root = &te[1];
        assert_eq!(root.get("ph").unwrap().as_str(), Some("X"));
        assert_eq!(root.get("ts").unwrap().as_f64(), Some(500.0));
        assert_eq!(root.get("dur").unwrap().as_f64(), Some(900.0));
        assert_eq!(root.get("tid").unwrap().as_f64(), Some(7.0));
        let start = te
            .iter()
            .find(|e| e.get("ph").and_then(|p| p.as_str()) == Some("s"))
            .expect("flow start");
        let finish = te
            .iter()
            .find(|e| e.get("ph").and_then(|p| p.as_str()) == Some("f"))
            .expect("flow finish");
        // Both ends of the arrow carry the dispatch index as the flow id.
        assert_eq!(start.get("id").unwrap().as_f64(), Some(3.0));
        assert_eq!(finish.get("id").unwrap().as_f64(), Some(3.0));
        assert_eq!(start.get("tid").unwrap().as_f64(), Some(7.0));
        assert_eq!(finish.get("tid").unwrap().as_f64(), Some(8.0));
    }

    #[test]
    fn unhedged_span_trace_has_no_flow_events() {
        let spans = [
            sp(4, 0, SpanKind::Invocation, 0, 100, 0, 0),
            sp(4, 5, SpanKind::Admission, 0, 0, 0, 0),
        ];
        let doc = chrome_trace_spans("fleet", "us", &spans);
        let v = parse(&doc).unwrap();
        let te = v.get("traceEvents").unwrap().as_arr().unwrap();
        assert_eq!(te.len(), 3);
        for e in te {
            let ph = e.get("ph").unwrap().as_str().unwrap();
            assert!(ph != "s" && ph != "f", "unexpected flow event");
        }
        // Zero-duration verdicts are instants.
        assert_eq!(te[2].get("ph").unwrap().as_str(), Some("i"));
    }
}
