//! One schema for every experiment row and the machinery built on it: the
//! JSONL writer, the plain-text table renderer, the JSONL parser, and the
//! gate table `experiments --check` evaluates. Also the JSONL export of the
//! observability stream (`experiments --trace-jsonl`).

use crate::experiments::*;
use std::fmt;
use tpnr_core::obs::{Event, EventKind, Histogram, Metrics};
use tpnr_net::transport::Transport;

// --------------------------------------------------------------- rows ----

/// One field value of an experiment row.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// An unsigned integer: counts, microseconds, ×100 ratios.
    Int(u64),
    /// A float written with a fixed number of decimals.
    Float(f64, usize),
    /// A flag; tables print it as yes/no.
    Bool(bool),
    /// Text.
    Str(String),
}

impl Value {
    /// The value as JSON text.
    fn json(&self) -> String {
        match self {
            Value::Bool(b) => b.to_string(),
            Value::Str(s) => format!("\"{}\"", json_escape(s)),
            v => v.to_string(),
        }
    }
}

/// The value as a table cell.
impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Int(n) => write!(f, "{n}"),
            Value::Float(x, decimals) => write!(f, "{x:.decimals$}"),
            Value::Bool(b) => f.write_str(if *b { "yes" } else { "no" }),
            Value::Str(s) => f.write_str(s),
        }
    }
}

impl From<u64> for Value {
    fn from(n: u64) -> Self {
        Value::Int(n)
    }
}

impl From<u32> for Value {
    fn from(n: u32) -> Self {
        Value::Int(n.into())
    }
}

impl From<usize> for Value {
    fn from(n: usize) -> Self {
        Value::Int(n as u64)
    }
}

impl From<bool> for Value {
    fn from(b: bool) -> Self {
        Value::Bool(b)
    }
}

impl From<&str> for Value {
    fn from(s: &str) -> Self {
        Value::Str(s.to_string())
    }
}

/// One experiment row: the schema its JSONL line and its table line share.
pub trait Row {
    /// The JSONL `kind` tag, which also selects the row's gates.
    const KIND: &'static str;
    /// The heading of the row's table.
    const TITLE: &'static str;
    /// The fields the table shows, in order; empty shows every field.
    const COLUMNS: &'static [&'static str] = &[];
    /// Every field as `(name, value)`, in output order.
    fn fields(&self) -> Vec<(&'static str, Value)>;
}

/// `fields()` named after the row's struct fields, in the order listed;
/// `name = expr` gives a field whose value is computed.
macro_rules! fields_of {
    (@value $row:expr, $field:ident) => { Value::from($row.$field) };
    (@value $row:expr, $field:ident, $value:expr) => { Value::from($value) };
    ($row:expr; $($field:ident $(= $value:expr)?),+ $(,)?) => {
        vec![$((stringify!($field), fields_of!(@value $row, $field $(, $value)?))),+]
    };
}

impl Row for E1Row {
    const KIND: &'static str = "e1";
    const TITLE: &'static str = "E1 / Figure 5 — in-storage tamper: detection & attribution";
    fn fields(&self) -> Vec<(&'static str, Value)> {
        fields_of!(self; system = self.system.as_str(), tamper, detected, attributable)
    }
}

impl Row for E2Row {
    const KIND: &'static str = "e2";
    const TITLE: &'static str = "E2 / Figure 6 — TPNR vs traditional NR (messages / latency / TTP)";
    fn fields(&self) -> Vec<(&'static str, Value)> {
        fields_of!(self; protocol, rtt_ms, size, messages,
            latency_ms = Value::Float(self.latency_ms, 1), ttp_used)
    }
}

impl Row for tpnr_attacks::AttackOutcome {
    const KIND: &'static str = "e3";
    const TITLE: &'static str = "E3 / §5 — attack matrix (attack × protocol variant)";
    fn fields(&self) -> Vec<(&'static str, Value)> {
        fields_of!(self; attack = self.attack.label(), variant = self.ablation.label(), blocked,
            note = Value::Str(self.detail.chars().take(60).collect()))
    }
}

impl Row for E4Row {
    const KIND: &'static str = "e4";
    const TITLE: &'static str = "E4 — evidence generation/verification cost";
    fn fields(&self) -> Vec<(&'static str, Value)> {
        fields_of!(self; size, alg = self.alg.name(),
            generate_us = Value::Float(self.generate_us, 1),
            verify_us = Value::Float(self.verify_us, 1),
            deep_copies, deep_copy_bytes)
    }
}

impl Row for E4Transport {
    const KIND: &'static str = "e4-transport";
    const TITLE: &'static str = "E4 — deep payload copies in one full upload";
    fn fields(&self) -> Vec<(&'static str, Value)> {
        fields_of!(self; size, upload_deep_copies, upload_deep_copy_bytes)
    }
}

impl Row for E4Primitive {
    const KIND: &'static str = "e4_primitive";
    const TITLE: &'static str = "E4 — host µs per call of each primitive";
    fn fields(&self) -> Vec<(&'static str, Value)> {
        fields_of!(self; primitive = self.primitive.as_str(), size,
            us = Value::Float(self.us, 2), output_ok)
    }
}

impl Row for E5Row {
    const KIND: &'static str = "e5";
    const TITLE: &'static str = "E5 / §6 — protocol time vs device shipping time";
    fn fields(&self) -> Vec<(&'static str, Value)> {
        fields_of!(self; transit_hours, protocol_ms = Value::Float(self.protocol_ms, 1),
            overhead_fraction = Value::Float(self.overhead_fraction, 8))
    }
}

impl Row for E6Row {
    const KIND: &'static str = "e6";
    const TITLE: &'static str = "E6 / §4.4 — TTP involvement vs fault rate";
    fn fields(&self) -> Vec<(&'static str, Value)> {
        fields_of!(self; fault_rate = Value::Float(self.fault_rate, 2),
            tpnr_ttp_fraction = Value::Float(self.tpnr_ttp_fraction, 3),
            tpnr_completed_fraction = Value::Float(self.tpnr_completed_fraction, 3),
            baseline_ttp_fraction = Value::Float(self.baseline_ttp_fraction, 3))
    }
}

impl Row for E7Row {
    const KIND: &'static str = "e7";
    const TITLE: &'static str = "E7 / §3 — bridging schemes";
    fn fields(&self) -> Vec<(&'static str, Value)> {
        fields_of!(self; scheme = self.scheme.label(), messages,
            user_record_bytes = self.records.0, provider_record_bytes = self.records.1,
            tac_record_bytes = self.records.2, proves_with_cooperation, proves_alone, attributable)
    }
}

impl Row for E8Row {
    const KIND: &'static str = "e8";
    const TITLE: &'static str = "E8 / §4.11 — crash-recovery chaos sweep";
    const COLUMNS: &'static [&'static str] = &[
        "crash_prob_permille",
        "trials",
        "completed_full_evidence",
        "arbitrable_terminal",
        "limbo",
        "crashes",
        "restarts",
        "retries",
        "gave_up",
    ];
    fn fields(&self) -> Vec<(&'static str, Value)> {
        // A transaction in limbo is one whose evidence was lost.
        fields_of!(self; crash_prob_permille, trials, completed_full_evidence, arbitrable_terminal,
            limbo, evidence_loss = self.limbo, crashes, restarts, retries, gave_up, snapshot_bytes)
    }
}

impl Row for E9Row {
    const KIND: &'static str = "e9";
    const TITLE: &'static str = "E9 / §3.2, §3.4 — SKS: Shamir split/combine of a 16-byte MD5";
    fn fields(&self) -> Vec<(&'static str, Value)> {
        fields_of!(self; k, n, split_us = Value::Float(self.split_us, 2),
            combine_us = Value::Float(self.combine_us, 2), k_recovers, k_minus_1_fails)
    }
}

impl Row for E10Row {
    const KIND: &'static str = "e10";
    const TITLE: &'static str = "E10 / §4.12 — deadline-index + sharded-state scale sweep";
    const COLUMNS: &'static [&'static str] = &[
        "clients",
        "lanes",
        "workers",
        "txn_per_sec",
        "p50_us",
        "p99_us",
        "bytes_per_client",
        "evicted",
        "resident",
        "conservation_violations",
        "evidence_loss",
    ];
    fn fields(&self) -> Vec<(&'static str, Value)> {
        fields_of!(self; clients, lanes, completed, elapsed_ms, txn_per_sec, p50_us, p99_us,
            bytes_per_client, sent, delivered, dropped, duplicated, conservation_violations,
            evicted, rehydrated, resident, archive_bytes, evidence_loss, gave_up, workers,
            available_parallelism, steals, tasks)
    }
}

impl Row for E12Row {
    const KIND: &'static str = "e12";
    const TITLE: &'static str =
        "E12 / §4.13 — fixed-limb RSA kernels: sign/verify by key size × alg";
    const COLUMNS: &'static [&'static str] = &[
        "bits",
        "alg",
        "sign_classic_us",
        "sign_fast_us",
        "sign_split_us",
        "sign_speedup_x100",
        "verify_classic_us",
        "verify_fast_us",
        "allocs_per_sign_classic",
        "allocs_per_sign_fast",
    ];
    fn fields(&self) -> Vec<(&'static str, Value)> {
        fields_of!(self; bits, alg, sign_classic_us, sign_fast_us, sign_split_us, sign_speedup_x100,
            verify_classic_us, verify_fast_us, allocs_per_sign_classic, allocs_per_sign_fast,
            sign_floor_ok)
    }
}

impl Row for E13Row {
    const KIND: &'static str = "e13";
    const TITLE: &'static str = "E13 / range-cursor settle: worker sweep at fixed load";
    const COLUMNS: &'static [&'static str] = &[
        "workers",
        "available_parallelism",
        "txn_per_sec",
        "txn_per_sec_spread",
        "speedup_x100",
        "efficiency_x100",
        "steals",
        "tasks",
        "p50_us",
        "p99_us",
        "deterministic_vs_serial",
        "scaling_ok",
    ];
    fn fields(&self) -> Vec<(&'static str, Value)> {
        fields_of!(self; clients, lanes, workers, available_parallelism, completed, elapsed_ms,
            txn_per_sec, txn_per_sec_spread, speedup_x100, efficiency_x100, required_speedup_x100,
            scaling_ok, steals, tasks, p50_us, p99_us, conservation_violations, evidence_loss,
            deterministic_vs_serial)
    }
}

impl Row for E14Row {
    const KIND: &'static str = "e14";
    const TITLE: &'static str = "E14 / transport comparison: same protocol code on every backend";
    const COLUMNS: &'static [&'static str] = &[
        "backend",
        "txns",
        "completed",
        "elapsed_ms",
        "msgs_per_sec",
        "txn_per_sec",
        "txn_per_sec_per_core",
        "attacks_rejected",
        "evidence_loss",
        "attacks_ok",
        "skipped",
    ];
    fn fields(&self) -> Vec<(&'static str, Value)> {
        fields_of!(self; backend, txns, completed, elapsed_ms, msgs_per_sec, txn_per_sec,
            txn_per_sec_per_core, available_parallelism, sent, delivered, dropped, duplicated,
            conservation_violations, evidence_loss, attacks_rejected, attacks_expected, attacks_ok,
            skipped)
    }
}

impl Row for X1Row {
    const KIND: &'static str = "x1";
    const TITLE: &'static str = "X1 — single-chunk Merkle audit vs download-and-compare";
    fn fields(&self) -> Vec<(&'static str, Value)> {
        fields_of!(self; size, audit_us = Value::Float(self.audit_us, 1),
            download_us = Value::Float(self.download_us, 1),
            audit_time_pct = Value::Float(self.audit_time_pct, 1), proof_bytes, audit_ok,
            tamper_detected)
    }
}

impl Row for PlatformRow {
    const KIND: &'static str = "platform";
    const TITLE: &'static str = "F2–F4 / Table 1 — platform security flows";
    fn fields(&self) -> Vec<(&'static str, Value)> {
        fields_of!(self; flow, size, us = Value::Float(self.us, 1), verified)
    }
}

/// Writes rows as JSONL: one object per row, `kind` first, then `fields()`.
pub fn jsonl<R: Row>(rows: &[R]) -> String {
    let mut out = String::new();
    for r in rows {
        out.push_str(&format!("{{\"kind\":\"{}\"", R::KIND));
        for (name, v) in r.fields() {
            out.push_str(&format!(",\"{name}\":{}", v.json()));
        }
        out.push_str("}\n");
    }
    out
}

/// Renders rows as a plain-text table: the title, a header of field names,
/// a rule, then one line per row. Numbers align right, the rest left.
pub fn table<R: Row>(rows: &[R]) -> String {
    let fields: Vec<_> = rows.iter().map(Row::fields).collect();
    let columns: Vec<&str> = match (R::COLUMNS, fields.first()) {
        ([], Some(first)) => first.iter().map(|(name, _)| *name).collect(),
        (declared, _) => declared.to_vec(),
    };
    let cells: Vec<Vec<(String, bool)>> = fields
        .iter()
        .map(|f| {
            columns
                .iter()
                .map(|c| {
                    let (_, v) = f.iter().find(|(name, _)| name == c).expect("column is a field");
                    (v.to_string(), matches!(v, Value::Int(_) | Value::Float(..)))
                })
                .collect()
        })
        .collect();
    let widths: Vec<usize> = (0..columns.len())
        .map(|i| cells.iter().map(|r| r[i].0.chars().count()).fold(columns[i].len(), usize::max))
        .collect();
    let pad = |text: &str, w: &usize, numeric: bool| {
        if numeric {
            format!("{text:>w$}")
        } else {
            format!("{text:<w$}")
        }
    };
    let mut out = format!("{}\n", R::TITLE);
    let mut line = |parts: Vec<String>| {
        out.push_str(parts.join("  ").trim_end());
        out.push('\n');
    };
    line(columns.iter().zip(&widths).map(|(c, w)| pad(c, w, false)).collect());
    line(widths.iter().map(|w| "-".repeat(*w)).collect());
    for row in &cells {
        line(row.iter().zip(&widths).map(|((text, numeric), w)| pad(text, w, *numeric)).collect());
    }
    out
}

// -------------------------------------------------------------- gates ----

/// The gate table: every check a row of `kind` must pass, as
/// `(gate, passed)`, computed from the row's parsed fields alone so a file
/// gets the verdict of the run that wrote it. A gate whose field is missing
/// fails. `None` for a kind the table does not know.
pub fn gates(kind: &str, fields: &[(String, Value)]) -> Option<Vec<(&'static str, bool)>> {
    let get = |name: &str| fields.iter().find(|(k, _)| k == name).map(|(_, v)| v);
    let zero = |name| get(name) == Some(&Value::Int(0));
    let yes = |name| get(name) == Some(&Value::Bool(true));
    let int = |name| match get(name) {
        Some(Value::Int(n)) => Some(*n),
        _ => None,
    };
    let conservation = ("conservation_violations == 0", zero("conservation_violations"));
    let no_loss = ("evidence_loss == 0", zero("evidence_loss"));
    Some(match kind {
        "e4" => vec![("copy_free", zero("deep_copies"))],
        "e4-transport" => vec![("copy_free", zero("upload_deep_copies"))],
        "e4_primitive" => vec![("output_ok", yes("output_ok"))],
        "e8" => vec![("limbo == 0", zero("limbo")), no_loss],
        "e9" => {
            vec![("k_recovers", yes("k_recovers")), ("k_minus_1_fails", yes("k_minus_1_fails"))]
        }
        "e10" => {
            vec![conservation, no_loss, ("evicted > 0", int("evicted").is_some_and(|n| n > 0))]
        }
        "e12" => vec![("sign_floor_ok", yes("sign_floor_ok"))],
        "e13" => vec![
            ("scaling_ok", yes("scaling_ok")),
            ("deterministic_vs_serial", yes("deterministic_vs_serial")),
            conservation,
            no_loss,
        ],
        "e14" => {
            // The in-process backends always run; only the loopback bind
            // may be refused by the host.
            let ran = match (get("backend"), get("skipped")) {
                (Some(Value::Str(backend)), Some(Value::Bool(skipped))) => {
                    !skipped || backend == "tcp"
                }
                _ => false,
            };
            vec![
                conservation,
                no_loss,
                ("attacks_ok", yes("attacks_ok")),
                ("only tcp may skip", ran),
            ]
        }
        "x1" => {
            let smaller = matches!((int("proof_bytes"), int("size")), (Some(p), Some(s)) if p < s);
            vec![
                ("audit_ok", yes("audit_ok")),
                ("tamper_detected", yes("tamper_detected")),
                ("proof_bytes < size", smaller),
            ]
        }
        "platform" => vec![("verified", yes("verified"))],
        _ => return None,
    })
}

/// Evaluates every row of an experiment export against its gates. Returns
/// the row count, or one message per unparsable line, row without a known
/// `kind`, and failed gate; an export without rows fails too.
pub fn check_jsonl(s: &str) -> Result<usize, Vec<String>> {
    let mut rows = 0;
    let mut errors = Vec::new();
    for (line, parsed) in parsed_lines(s) {
        rows += 1;
        let fields = match parsed {
            Ok(fields) => fields,
            Err(e) => {
                errors.push(format!("line {line}: {e}"));
                continue;
            }
        };
        let Some((_, Value::Str(kind))) = fields.iter().find(|(k, _)| k == "kind") else {
            errors.push(format!("line {line}: row has no string \"kind\""));
            continue;
        };
        match gates(kind, &fields) {
            None => errors.push(format!("line {line}: unknown kind {kind:?}")),
            Some(gates) => errors.extend(
                gates
                    .into_iter()
                    .filter(|(_, passed)| !passed)
                    .map(|(gate, _)| format!("line {line}: {kind}: gate `{gate}` failed")),
            ),
        }
    }
    if rows == 0 {
        errors.push("no JSON lines found".to_string());
    }
    if errors.is_empty() {
        Ok(rows)
    } else {
        Err(errors)
    }
}

// ------------------------------------------------------------- JSONL ----

/// Escapes `s` for inclusion inside a JSON string literal.
fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

fn json_opt_u64(v: Option<u64>) -> String {
    v.map_or_else(|| "null".to_string(), |n| n.to_string())
}

/// Renders one observability event as a single JSON object (no newline),
/// naming each node by its display name in `net`'s node table ("?" for a
/// node it does not know).
pub fn event_json(ev: &Event, net: &dyn Transport) -> String {
    let name = |node| json_escape(net.node_name(node).unwrap_or("?"));
    let mut fields = vec![
        format!("\"at_us\":{}", ev.at.micros()),
        format!("\"txn\":{}", json_opt_u64(ev.txn)),
        format!("\"actor\":\"{}\"", name(ev.actor)),
        format!("\"kind\":\"{}\"", ev.kind.label()),
    ];
    match &ev.kind {
        EventKind::Delivered { from, msg } => {
            fields.push(format!("\"from\":\"{}\"", name(*from)));
            fields.push(format!("\"msg\":\"{}\"", json_escape(msg.label())));
        }
        EventKind::Rejected { from, msg, error } => {
            fields.push(format!("\"from\":\"{}\"", name(*from)));
            fields.push(format!("\"msg\":\"{}\"", json_escape(msg.label())));
            fields.push(format!("\"error\":\"{}\"", error.variant()));
        }
        EventKind::Garbled { from }
        | EventKind::Dropped { from }
        | EventKind::Duplicated { from } => {
            fields.push(format!("\"from\":\"{}\"", name(*from)));
        }
        EventKind::TimerFired { messages } => {
            fields.push(format!("\"messages\":{messages}"));
        }
        EventKind::StateTransition { from, to } => {
            let from = from.map_or_else(
                || "null".to_string(),
                |s| format!("\"{}\"", json_escape(&format!("{s:?}"))),
            );
            fields.push(format!("\"from_state\":{from}"));
            fields.push(format!("\"to_state\":\"{}\"", json_escape(&format!("{to:?}"))));
        }
        EventKind::Crashed => {}
        EventKind::Restarted { snapshot_bytes } => {
            fields.push(format!("\"snapshot_bytes\":{snapshot_bytes}"));
        }
    }
    format!("{{{}}}", fields.join(","))
}

fn histogram_json(h: &Histogram) -> String {
    format!(
        "{{\"count\":{},\"min\":{},\"max\":{},\"mean\":{:.3},\"p50\":{},\"p99\":{}}}",
        h.count(),
        json_opt_u64(h.min()),
        json_opt_u64(h.max()),
        h.mean(),
        json_opt_u64(h.quantile(0.5)),
        json_opt_u64(h.quantile(0.99)),
    )
}

/// Renders the metrics registry as one JSON summary object (no newline).
pub fn metrics_json(m: &Metrics) -> String {
    let rejected_by =
        m.rejected_by.iter().map(|(k, v)| format!("\"{k}\":{v}")).collect::<Vec<_>>().join(",");
    format!(
        "{{\"kind\":\"metrics\",\"delivered\":{},\"rejected\":{},\"garbled\":{},\
         \"dropped\":{},\"duplicated\":{},\"timer_fires\":{},\"state_transitions\":{},\
         \"crashes\":{},\"restarts\":{},\"retries\":{},\"snapshot_bytes\":{},\
         \"rejected_by\":{{{rejected_by}}},\"latency_us\":{},\"settle_steps\":{}}}",
        m.delivered,
        m.rejected,
        m.garbled,
        m.dropped,
        m.duplicated,
        m.timer_fires,
        m.state_transitions,
        m.crashes,
        m.restarts,
        m.retries,
        m.snapshot_bytes,
        histogram_json(&m.latency_us),
        histogram_json(&m.settle_steps),
    )
}

/// Renders a full run as JSONL: one line per event, its nodes named
/// through `net`, then one final `"kind":"metrics"` summary line.
pub fn render_trace_jsonl<'a>(
    events: impl IntoIterator<Item = &'a Event>,
    metrics: &Metrics,
    net: &dyn Transport,
) -> String {
    let mut out = String::new();
    for ev in events {
        out.push_str(&event_json(ev, net));
        out.push('\n');
    }
    out.push_str(&metrics_json(metrics));
    out.push('\n');
    out
}

/// Checks that every non-empty line of `s` is a syntactically valid JSON
/// object and returns how many there were. A dependency-free validator for
/// the CI step that guards the export format (the build cannot fetch a JSON
/// crate).
pub fn validate_jsonl(s: &str) -> Result<usize, String> {
    let mut n = 0;
    for (line, parsed) in parsed_lines(s) {
        parsed.map_err(|e| format!("line {line}: {e}"))?;
        n += 1;
    }
    if n == 0 {
        return Err("no JSON lines found".to_string());
    }
    Ok(n)
}

/// Each non-blank line of `s` with its 1-based number, parsed as one JSON
/// object into its top-level scalar fields.
fn parsed_lines(
    s: &str,
) -> impl Iterator<Item = (usize, Result<Vec<(String, Value)>, String>)> + '_ {
    s.lines().enumerate().filter(|(_, l)| !l.trim().is_empty()).map(|(i, l)| (i + 1, parse_row(l)))
}

/// Parses one line holding a single JSON object. Returns its top-level
/// fields with scalar values, in order; `null`, arrays and nested objects
/// are syntax-checked but not returned.
fn parse_row(line: &str) -> Result<Vec<(String, Value)>, String> {
    let mut p = JsonParser { bytes: line.as_bytes(), pos: 0, depth: 0 };
    p.skip_ws();
    if p.peek() != Some(b'{') {
        return Err("not a JSON object".to_string());
    }
    let fields = p.nested(JsonParser::object)?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(format!("trailing garbage at byte {}", p.pos));
    }
    Ok(fields)
}

/// Deepest nesting of objects and arrays a line may have, the row object
/// included. The parser recurses once per level, so without a cap a line
/// of brackets can overflow the stack; every export is at most 2 deep.
const MAX_DEPTH: usize = 64;

/// Minimal recursive-descent JSON parser.
struct JsonParser<'a> {
    bytes: &'a [u8],
    pos: usize,
    depth: usize,
}

impl JsonParser<'_> {
    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn bump(&mut self) -> Option<u8> {
        let b = self.peek()?;
        self.pos += 1;
        Some(b)
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    /// Consumes byte `b`, or fails naming where it was missing. Not named
    /// `expect`: the panic lint reads every `.expect(` call as a panic.
    fn eat(&mut self, b: u8) -> Result<(), String> {
        if self.bump() == Some(b) {
            Ok(())
        } else {
            Err(format!("expected '{}' at byte {}", b as char, self.pos.saturating_sub(1)))
        }
    }

    /// Runs `f` one nesting level deeper, refusing to pass `MAX_DEPTH`.
    fn nested<T>(&mut self, f: fn(&mut Self) -> Result<T, String>) -> Result<T, String> {
        if self.depth == MAX_DEPTH {
            return Err(format!("nested deeper than {MAX_DEPTH} levels at byte {}", self.pos));
        }
        self.depth += 1;
        let r = f(self);
        self.depth -= 1;
        r
    }

    /// Parses one value; `Some` for a scalar, `None` for anything else.
    fn value(&mut self) -> Result<Option<Value>, String> {
        self.skip_ws();
        match self.peek() {
            Some(b'{') => self.nested(Self::object).map(|_| None),
            Some(b'[') => self.nested(Self::array).map(|()| None),
            Some(b'"') => self.string().map(|s| Some(Value::Str(s))),
            Some(b't') => self.literal("true").map(|()| Some(Value::Bool(true))),
            Some(b'f') => self.literal("false").map(|()| Some(Value::Bool(false))),
            Some(b'n') => self.literal("null").map(|()| None),
            Some(b'-' | b'0'..=b'9') => self.number().map(Some),
            other => Err(format!("unexpected {:?} at byte {}", other.map(char::from), self.pos)),
        }
    }

    fn object(&mut self) -> Result<Vec<(String, Value)>, String> {
        self.eat(b'{')?;
        let mut fields = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(fields);
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.eat(b':')?;
            if let Some(v) = self.value()? {
                fields.push((key, v));
            }
            self.skip_ws();
            match self.bump() {
                Some(b',') => continue,
                Some(b'}') => return Ok(fields),
                _ => return Err(format!("expected ',' or '}}' at byte {}", self.pos)),
            }
        }
    }

    fn array(&mut self) -> Result<(), String> {
        self.eat(b'[')?;
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(());
        }
        loop {
            self.value()?;
            self.skip_ws();
            match self.bump() {
                Some(b',') => continue,
                Some(b']') => return Ok(()),
                _ => return Err(format!("expected ',' or ']' at byte {}", self.pos)),
            }
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.eat(b'"')?;
        let mut out = Vec::new();
        while let Some(b) = self.bump() {
            let c = match b {
                b'"' => {
                    return String::from_utf8(out).map_err(|_| {
                        format!("invalid UTF-8 in string ending at byte {}", self.pos)
                    })
                }
                b'\\' => match self.bump() {
                    Some(b'"') => '"',
                    Some(b'\\') => '\\',
                    Some(b'/') => '/',
                    Some(b'b') => '\u{8}',
                    Some(b'f') => '\u{c}',
                    Some(b'n') => '\n',
                    Some(b'r') => '\r',
                    Some(b't') => '\t',
                    Some(b'u') => {
                        let hex = self.bytes.get(self.pos..self.pos + 4).unwrap_or_default();
                        if hex.len() < 4 || !hex.iter().all(u8::is_ascii_hexdigit) {
                            return Err(format!("bad \\u escape at byte {}", self.pos));
                        }
                        self.pos += 4;
                        let code = hex
                            .iter()
                            .fold(0, |acc, h| acc * 16 + (*h as char).to_digit(16).unwrap_or(0));
                        char::from_u32(code).unwrap_or(char::REPLACEMENT_CHARACTER)
                    }
                    _ => return Err(format!("bad escape at byte {}", self.pos)),
                },
                b if b < 0x20 => return Err(format!("raw control byte in string at {}", self.pos)),
                b => {
                    out.push(b);
                    continue;
                }
            };
            out.extend_from_slice(c.encode_utf8(&mut [0; 4]).as_bytes());
        }
        Err("unterminated string".to_string())
    }

    /// Parses a number: an unsigned integer that fits a `u64` becomes
    /// `Int`, anything else a `Float` keeping its count of decimals.
    fn number(&mut self) -> Result<Value, String> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        if self.digits() == 0 {
            return Err(format!("number without digits at byte {}", self.pos));
        }
        let mut decimals = 0;
        if self.peek() == Some(b'.') {
            self.pos += 1;
            decimals = self.digits();
            if decimals == 0 {
                return Err(format!("number with empty fraction at byte {}", self.pos));
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            if self.digits() == 0 {
                return Err(format!("number with empty exponent at byte {}", self.pos));
            }
        }
        // The scanned bytes are ASCII digits, signs, '.' and 'e'.
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).unwrap_or_default();
        match text.parse::<u64>() {
            Ok(n) => Ok(Value::Int(n)),
            Err(_) => text
                .parse::<f64>()
                .map(|x| Value::Float(x, decimals))
                .map_err(|e| format!("bad number at byte {start}: {e}")),
        }
    }

    /// Skips a run of ASCII digits and returns its length.
    fn digits(&mut self) -> usize {
        let start = self.pos;
        while self.peek().is_some_and(|b| b.is_ascii_digit()) {
            self.pos += 1;
        }
        self.pos - start
    }

    fn literal(&mut self, lit: &str) -> Result<(), String> {
        if self.bytes[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            Ok(())
        } else {
            Err(format!("bad literal at byte {}", self.pos))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renderers_produce_tables() {
        let e1 = table(&e1_vulnerability_matrix(1));
        assert!(e1.contains("TPNR"));
        let e7 = table(&e7_bridge_schemes(1));
        assert!(e7.contains("3.1"));
        assert!(e7.contains("3.4"));
    }

    #[test]
    fn event_json_covers_every_kind_and_validates() {
        use tpnr_core::message::MsgKind;
        use tpnr_core::session::{TxnState, ValidationError};
        use tpnr_net::sim::{NodeId, SimNet};
        use tpnr_net::time::SimTime;

        let mut net = SimNet::new(0);
        let [alice, bob, mallory, ttp] =
            ["alice", "bob", "mallory \"m\"\n", "ttp"].map(|name| net.register(name));
        let events = [
            Event {
                at: SimTime(1_000),
                txn: Some(7),
                actor: bob,
                kind: EventKind::Delivered { from: alice, msg: MsgKind::Transfer },
            },
            Event {
                at: SimTime(2_000),
                txn: Some(7),
                actor: bob,
                kind: EventKind::Rejected {
                    from: alice,
                    msg: MsgKind::Transfer,
                    error: Box::new(ValidationError::StaleSequence { last: 2, got: 1 }),
                },
            },
            Event {
                at: SimTime(3_000),
                txn: None,
                actor: bob,
                kind: EventKind::Garbled { from: mallory },
            },
            Event {
                at: SimTime(4_000),
                txn: Some(7),
                actor: alice,
                kind: EventKind::Dropped { from: bob },
            },
            Event {
                at: SimTime(4_000),
                txn: Some(7),
                actor: alice,
                kind: EventKind::Duplicated { from: bob },
            },
            Event {
                at: SimTime(5_000),
                txn: None,
                actor: ttp,
                kind: EventKind::TimerFired { messages: 1 },
            },
            Event {
                at: SimTime(6_000),
                txn: Some(7),
                actor: alice,
                kind: EventKind::StateTransition { from: None, to: TxnState::Pending },
            },
        ];
        let jsonl = render_trace_jsonl(&events, &Metrics::default(), &net);
        // 7 event lines + the metrics summary, all syntactically valid.
        assert_eq!(validate_jsonl(&jsonl), Ok(8));
        assert!(jsonl.contains("\"txn\":null"));
        assert!(jsonl.contains("\"error\":\"stale-sequence\""));
        assert!(jsonl.contains("mallory \\\"m\\\"\\n"));
        assert!(jsonl.contains("\"from_state\":null"));
        assert!(jsonl.lines().last().unwrap().contains("\"kind\":\"metrics\""));
        // A node the transport never registered renders as "?".
        let stray =
            Event { at: SimTime(0), txn: None, actor: NodeId(99), kind: EventKind::Crashed };
        assert!(event_json(&stray, &net).contains("\"actor\":\"?\""));
    }

    #[test]
    fn bench_e4_json_is_valid_jsonl() {
        use tpnr_crypto::hash::HashAlg;
        let rows = e4_evidence_cost(&[1 << 10], &[HashAlg::Md5]);
        let transport =
            [E4Transport { size: 1 << 10, upload_deep_copies: 0, upload_deep_copy_bytes: 0 }];
        let jsonl = jsonl(&rows) + &jsonl(&transport);
        assert_eq!(validate_jsonl(&jsonl), Ok(2));
        assert!(jsonl.contains("\"kind\":\"e4\""));
        assert!(jsonl.contains("\"kind\":\"e4-transport\""));
        assert!(jsonl.contains("\"deep_copies\":0"));
        assert_eq!(check_jsonl(&jsonl), Ok(2));
    }

    #[test]
    fn bench_e8_json_is_valid_jsonl() {
        let rows = e8_chaos(&[0, 300], 4);
        let jsonl = jsonl(&rows);
        assert_eq!(validate_jsonl(&jsonl), Ok(2));
        assert!(jsonl.contains("\"kind\":\"e8\""));
        assert!(jsonl.contains("\"evidence_loss\":0"));
        assert!(jsonl.contains("\"limbo\":0"));
        assert_eq!(check_jsonl(&jsonl), Ok(2));
        // The table renderer covers every row too.
        assert_eq!(table(&rows).lines().count(), 3 + rows.len());
    }

    #[test]
    fn bench_e10_json_is_valid_jsonl_and_invariants_hold() {
        // Two counts, one straddling the lane boundary so a ragged final
        // lane is exercised.
        let rows = e10_scale(&[40, 300], 7);
        let jsonl = jsonl(&rows);
        assert_eq!(validate_jsonl(&jsonl), Ok(2));
        assert!(jsonl.contains("\"kind\":\"e10\""));
        for r in &rows {
            assert_eq!(r.completed, r.clients, "fault-free lanes settle every txn");
            assert_eq!(r.conservation_violations, 0);
            assert_eq!(r.evidence_loss, 0);
            assert_eq!(r.gave_up, 0);
            assert_eq!(r.delivered + r.dropped, r.sent + r.duplicated);
            assert!(r.p50_us > 0 && r.p99_us >= r.p50_us);
        }
        // 300 clients > 16 shards × 8 hot per lane → eviction engaged, the
        // archive holds bytes, and the resident set is bounded below the
        // txn count.
        let big = &rows[1];
        assert!(big.evicted > 0, "eviction must engage at 300 clients");
        assert!(big.rehydrated >= big.evicted, "verify pass reads every evicted bundle");
        assert!(big.archive_bytes > 0 && big.bytes_per_client > 0);
        assert!(big.resident < big.clients, "resident set bounded: {}", big.resident);
        assert_eq!(table(&rows).lines().count(), 3 + rows.len());
        // The scheduler provenance fields are present in every row.
        assert!(jsonl.contains("\"workers\":"));
        assert!(jsonl.contains("\"available_parallelism\":"));
        assert!(jsonl.contains("\"tasks\":"));
    }

    #[test]
    fn bench_e13_json_is_valid_jsonl_and_gates_hold() {
        let rows = e13_worker_sweep(300, 7);
        let jsonl = jsonl(&rows);
        assert_eq!(validate_jsonl(&jsonl), Ok(rows.len()));
        assert!(jsonl.contains("\"kind\":\"e13\""));
        for r in &rows {
            assert!(r.deterministic_vs_serial, "workers={}", r.workers);
            assert_eq!(r.conservation_violations, 0);
            assert_eq!(r.evidence_loss, 0);
        }
        assert!(!jsonl.contains("\"deterministic_vs_serial\":false"));
        assert_eq!(table(&rows).lines().count(), 3 + rows.len());
    }

    #[test]
    fn bench_e14_json_is_valid_jsonl_and_gates_hold() {
        let rows = e14_backend_comparison(7, true);
        assert_eq!(rows.len(), 3, "simnet, channel and tcp rows");
        let jsonl = jsonl(&rows);
        assert_eq!(validate_jsonl(&jsonl), Ok(rows.len()));
        assert!(jsonl.contains("\"kind\":\"e14\""));
        assert!(jsonl.contains("\"backend\":\"simnet\""));
        assert!(jsonl.contains("\"backend\":\"channel\""));
        // The two in-process backends must always run; the tcp row may
        // legitimately be skipped on hosts that refuse the loopback bind.
        for r in &rows {
            if r.skipped {
                assert_eq!(r.backend, "tcp", "only tcp may be skipped");
                continue;
            }
            assert_eq!(r.completed, r.txns, "healthy wire settles every txn: {}", r.backend);
            assert_eq!(r.conservation_violations, 0, "{}", r.backend);
            assert_eq!(r.evidence_loss, 0, "{}", r.backend);
            assert!(
                r.attacks_ok,
                "{}: {}/{} §5 attacks rejected",
                r.backend, r.attacks_rejected, r.attacks_expected
            );
            assert_eq!(r.delivered + r.dropped, r.sent + r.duplicated, "{}", r.backend);
        }
        assert_eq!(check_jsonl(&jsonl), Ok(rows.len()));
        // The table renders one line per row plus the 3-line header.
        assert_eq!(table(&rows).lines().count(), 3 + rows.len());
    }

    #[test]
    fn bench_e12_json_is_valid_jsonl_and_gates_hold() {
        // 512-bit quick run: one row per alg.
        let rows = e12_rsa_kernels(&[512], true);
        assert_eq!(rows.len(), 3);
        let jsonl = jsonl(&rows);
        assert_eq!(validate_jsonl(&jsonl), Ok(3));
        assert!(jsonl.contains("\"kind\":\"e12\""));
        for r in &rows {
            assert!(r.sign_fast_us > 0 && r.sign_classic_us > 0 && r.sign_split_us > 0);
            assert!(
                r.allocs_per_sign_fast < r.allocs_per_sign_classic,
                "fixed-limb path must allocate less: {} vs {}",
                r.allocs_per_sign_fast,
                r.allocs_per_sign_classic
            );
        }
        // The table renders one line per row plus the 3-line header.
        assert_eq!(table(&rows).lines().count(), 3 + rows.len());
    }

    #[test]
    fn bench_e10_non_timing_fields_are_deterministic() {
        let strip = |rows: &[E10Row]| {
            jsonl(rows)
                .lines()
                .map(|l| {
                    // Drop the host-timing pair and the steal counter
                    // (which worker went idle first is scheduling noise);
                    // everything else must be byte-identical across reruns.
                    l.split(',')
                        .filter(|f| {
                            !f.contains("\"elapsed_ms\"")
                                && !f.contains("\"txn_per_sec\"")
                                && !f.contains("\"steals\"")
                        })
                        .collect::<Vec<_>>()
                        .join(",")
                })
                .collect::<Vec<_>>()
        };
        let a = e10_scale(&[200], 11);
        let b = e10_scale(&[200], 11);
        assert_eq!(strip(&a), strip(&b));
    }

    /// Each row's fields without its host timings, which are exactly its
    /// floats.
    fn non_timing<R: Row>(rows: &[R]) -> Vec<Vec<(&'static str, Value)>> {
        let fields = |r: &R| r.fields().into_iter().filter(|(_, v)| !matches!(v, Value::Float(..)));
        rows.iter().map(|r| fields(r).collect()).collect()
    }

    #[test]
    fn bench_e4_primitive_non_timing_fields_are_deterministic() {
        let (a, b) = (e4_primitives(&[512], 1), e4_primitives(&[512], 1));
        assert_eq!(a.len(), 4 * 6 + 3, "6 primitives at 4 sizes, RSA encrypt/decrypt, keygen");
        assert_eq!(non_timing(&a), non_timing(&b));
        assert_eq!(check_jsonl(&jsonl(&a)), Ok(a.len()));
    }

    #[test]
    fn bench_e9_non_timing_fields_are_deterministic() {
        let (a, b) = (e9_shamir(1), e9_shamir(1));
        assert_eq!(a.len(), 4);
        assert_eq!(non_timing(&a), non_timing(&b));
        assert_eq!(check_jsonl(&jsonl(&a)), Ok(a.len()));
    }

    #[test]
    fn bench_x1_non_timing_fields_are_deterministic() {
        let (a, b) = (x1_audit_vs_download(1), x1_audit_vs_download(1));
        assert_eq!(non_timing(&a), non_timing(&b));
        assert_eq!(check_jsonl(&jsonl(&a)), Ok(2));
        // Proof bytes grow with the tree's depth, not the object.
        assert!(
            a[1].proof_bytes < a[0].proof_bytes + 256,
            "{} vs {}",
            a[1].proof_bytes,
            a[0].proof_bytes
        );
    }

    #[test]
    fn bench_platform_non_timing_fields_are_deterministic() {
        let (a, b) = (platform_flows(1), platform_flows(1));
        assert_eq!(non_timing(&a), non_timing(&b));
        assert_eq!(check_jsonl(&jsonl(&a)), Ok(6));
    }

    #[test]
    fn validator_rejects_malformed_lines() {
        assert!(validate_jsonl("").is_err(), "empty export is an error");
        assert!(validate_jsonl("{\"a\":1}\n{\"b\":").is_err());
        assert!(validate_jsonl("{\"a\":1} extra").is_err());
        assert!(validate_jsonl("[1,2,3]").is_err(), "top level must be an object");
        assert!(validate_jsonl("{\"a\":01}").is_ok(), "leading zeros pass the syntax check");
        assert_eq!(validate_jsonl("{\"a\":[1,-2.5e3,\"x\",true,null],\"b\":{}}\n\n"), Ok(1));
    }

    #[test]
    fn trace_jsonl_export_is_valid_and_complete() {
        let jsonl = trace_jsonl(2026);
        let n = validate_jsonl(&jsonl).expect("export is valid JSONL");
        assert!(n > 20, "a full faulted run produces a real trace, got {n} lines");
        for kind in ["delivered", "dropped", "duplicated", "state-transition"] {
            assert!(jsonl.contains(&format!("\"kind\":\"{kind}\"")), "missing {kind}");
        }
        assert!(jsonl.lines().last().unwrap().contains("\"kind\":\"metrics\""));
    }

    #[test]
    fn deep_nesting_is_an_error_not_a_stack_overflow() {
        let deep = format!("{{\"a\":{}{}}}", "[".repeat(200_000), "]".repeat(200_000));
        let err = validate_jsonl(&deep).unwrap_err();
        assert!(err.starts_with("line 1: nested deeper than 64 levels at byte "), "{err}");
        // The cap counts the row object itself as the first level.
        let at_cap = |levels: usize| {
            format!("{{\"a\":{}{}}}", "[".repeat(levels - 1), "]".repeat(levels - 1))
        };
        assert_eq!(validate_jsonl(&at_cap(MAX_DEPTH)), Ok(1));
        assert!(validate_jsonl(&at_cap(MAX_DEPTH + 1)).is_err());
    }

    #[test]
    fn parser_reads_back_what_the_writer_wrote() {
        use tpnr_crypto::hash::HashAlg;
        let e1 = [E1Row {
            system: "quote \" slash \\ newline \n tab \t bell \u{7} é".into(),
            tamper: "t",
            detected: true,
            attributable: false,
        }];
        let e4 = [E4Row {
            size: 1 << 20,
            alg: HashAlg::Sha256,
            generate_us: 77.64,
            verify_us: 0.0,
            deep_copies: 0,
            deep_copy_bytes: u64::MAX,
        }];
        for line in (jsonl(&e1) + &jsonl(&e4)).lines() {
            let fields = parse_row(line).unwrap();
            let rewritten: Vec<String> =
                fields.iter().map(|(k, v)| format!("\"{k}\":{}", v.json())).collect();
            assert_eq!(format!("{{{}}}", rewritten.join(",")), line);
        }
    }

    /// Checks `export` and returns its error messages (none if it passes).
    fn check_errors(export: &str) -> Vec<String> {
        check_jsonl(export).err().unwrap_or_default()
    }

    #[test]
    fn every_gate_fails_when_its_field_flips() {
        // One passing row per kind, holding just the fields its gates read.
        let passing = [
            r#"{"kind":"e4","deep_copies":0}"#,
            r#"{"kind":"e4-transport","upload_deep_copies":0}"#,
            r#"{"kind":"e8","limbo":0,"evidence_loss":0}"#,
            r#"{"kind":"e10","conservation_violations":0,"evidence_loss":0,"evicted":9}"#,
            r#"{"kind":"e12","sign_floor_ok":true}"#,
            r#"{"kind":"e13","scaling_ok":true,"deterministic_vs_serial":true,"conservation_violations":0,"evidence_loss":0}"#,
            r#"{"kind":"e14","backend":"simnet","conservation_violations":0,"evidence_loss":0,"attacks_ok":true,"skipped":false}"#,
            r#"{"kind":"e14","backend":"channel","conservation_violations":0,"evidence_loss":0,"attacks_ok":true,"skipped":false}"#,
            r#"{"kind":"e14","backend":"tcp","conservation_violations":0,"evidence_loss":0,"attacks_ok":true,"skipped":true}"#,
            r#"{"kind":"e4_primitive","output_ok":true}"#,
            r#"{"kind":"e9","k_recovers":true,"k_minus_1_fails":true}"#,
            r#"{"kind":"x1","size":262144,"proof_bytes":4320,"audit_ok":true,"tamper_detected":true}"#,
            r#"{"kind":"platform","verified":true}"#,
        ];
        assert_eq!(check_jsonl(&passing.join("\n")), Ok(passing.len()));
        // (row, field, passing value, failing value, gate that must fire)
        let flips = [
            (0, "deep_copies", "0", "1", "copy_free"),
            (1, "upload_deep_copies", "0", "1", "copy_free"),
            (2, "limbo", "0", "1", "limbo == 0"),
            (2, "evidence_loss", "0", "1", "evidence_loss == 0"),
            (3, "conservation_violations", "0", "1", "conservation_violations == 0"),
            (3, "evidence_loss", "0", "1", "evidence_loss == 0"),
            (3, "evicted", "9", "0", "evicted > 0"),
            (4, "sign_floor_ok", "true", "false", "sign_floor_ok"),
            (5, "scaling_ok", "true", "false", "scaling_ok"),
            (5, "deterministic_vs_serial", "true", "false", "deterministic_vs_serial"),
            (5, "conservation_violations", "0", "1", "conservation_violations == 0"),
            (5, "evidence_loss", "0", "1", "evidence_loss == 0"),
            (6, "conservation_violations", "0", "1", "conservation_violations == 0"),
            (6, "evidence_loss", "0", "1", "evidence_loss == 0"),
            (6, "attacks_ok", "true", "false", "attacks_ok"),
            (6, "skipped", "false", "true", "only tcp may skip"),
            (7, "skipped", "false", "true", "only tcp may skip"),
            (9, "output_ok", "true", "false", "output_ok"),
            (10, "k_recovers", "true", "false", "k_recovers"),
            (10, "k_minus_1_fails", "true", "false", "k_minus_1_fails"),
            (11, "audit_ok", "true", "false", "audit_ok"),
            (11, "tamper_detected", "true", "false", "tamper_detected"),
            (11, "proof_bytes", "4320", "262144", "proof_bytes < size"),
            (12, "verified", "true", "false", "verified"),
        ];
        for (row, field, good, bad, gate) in flips {
            let mut rows: Vec<String> = passing.iter().map(|r| r.to_string()).collect();
            rows[row] =
                rows[row].replace(&format!("\"{field}\":{good}"), &format!("\"{field}\":{bad}"));
            assert_ne!(rows[row], passing[row], "{field} not in row {row}");
            let kind = parse_row(passing[row]).unwrap().remove(0).1;
            assert_eq!(
                check_errors(&rows.join("\n")),
                [format!("line {}: {kind}: gate `{gate}` failed", row + 1)]
            );
        }
    }

    #[test]
    fn check_fails_on_rows_it_cannot_judge() {
        let export = [
            r#"{"kind":"e8","limbo":0,"evidence_loss":0}"#,
            r#"{"kind":"e8","limbo":0}"#,
            r#"{"kind":"e99"}"#,
            r#"{"limbo":0}"#,
            r#"{"kind":8}"#,
            r#"{"kind":"e8","#,
        ];
        assert_eq!(
            check_errors(&export.join("\n")),
            [
                "line 2: e8: gate `evidence_loss == 0` failed",
                "line 3: unknown kind \"e99\"",
                "line 4: row has no string \"kind\"",
                "line 5: row has no string \"kind\"",
                "line 6: expected '\"' at byte 12",
            ]
        );
        assert_eq!(check_errors(""), ["no JSON lines found"]);
        assert_eq!(check_errors("\n  \n"), ["no JSON lines found"]);
    }
}
