//! `--json` output: one JSON object per line (JSONL), findings first,
//! then a summary record — the same shape the bench crate's
//! `--trace-jsonl` export uses, so the same dependency-free validator
//! style can check it. Key order is fixed and findings are pre-sorted by
//! the engine, so the output is byte-stable for golden tests.

use crate::{Finding, Summary};

/// Render all findings plus the trailing summary record as JSONL.
pub fn render(findings: &[Finding], summary: &Summary) -> String {
    let mut out = String::new();
    for f in findings {
        out.push_str(&format!(
            "{{\"kind\":\"finding\",\"file\":{},\"line\":{},\"col\":{},\"rule\":{},\"message\":{},\"allowed\":{}}}\n",
            escape(&f.file),
            f.line,
            f.col,
            escape(f.rule),
            escape(&f.message),
            f.allowed
        ));
    }
    out.push_str(&format!(
        "{{\"kind\":\"summary\",\"files\":{},\"rules\":{},\"findings\":{},\"allowlisted\":{}}}\n",
        summary.files, summary.rules, summary.findings, summary.allowlisted
    ));
    out
}

/// Minimal JSON string escaping (quotes, backslash, control chars).
fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_stable_jsonl() {
        let findings = vec![Finding {
            file: "a.rs".into(),
            line: 3,
            col: 7,
            rule: "UNSAFE",
            message: "`unsafe` is forbidden workspace-wide".into(),
            allowed: false,
        }];
        let summary = Summary { files: 1, rules: 6, findings: 1, allowlisted: 0 };
        let got = render(&findings, &summary);
        assert_eq!(
            got,
            "{\"kind\":\"finding\",\"file\":\"a.rs\",\"line\":3,\"col\":7,\"rule\":\"UNSAFE\",\
             \"message\":\"`unsafe` is forbidden workspace-wide\",\"allowed\":false}\n\
             {\"kind\":\"summary\",\"files\":1,\"rules\":6,\"findings\":1,\"allowlisted\":0}\n"
        );
    }

    #[test]
    fn escapes_special_chars() {
        assert_eq!(escape("a\"b\\c\nd"), "\"a\\\"b\\\\c\\nd\"");
    }
}
