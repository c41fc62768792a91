//! The `tme-analyze/1` JSON report, shared by `xtask analyze` and
//! `xtask lint --json` so CI surfaces both passes uniformly.
//!
//! Schema (all keys always present):
//!
//! ```json
//! {
//!   "schema": "tme-analyze/1",
//!   "tool": "tme-analyze" | "tme-lint",
//!   "files_scanned": 93,
//!   "findings": [
//!     { "rule": "a1", "file": "crates/core/src/workspace.rs", "line": 310,
//!       "function": "Tme::long_range_with", "message": "…",
//!       "chain": ["Tme::compute_with @ crates/core/src/workspace.rs:295", "…"] }
//!   ],
//!   "allowlisted": 2
//! }
//! ```
//!
//! Token-level lint findings use an empty `function` and `chain`. The
//! writer is hand-rolled but escapes everything it emits, so arbitrary
//! messages and paths round-trip. It does not use `tme_num::json`, the
//! writer behind the bench, serve and router reports, because xtask has
//! no dependencies by design: the analyzer must build and run even when
//! the crates it checks do not compile.

/// One finding, from either pass.
#[derive(Clone, Debug)]
pub struct Finding {
    pub rule: String,
    pub file: String,
    pub line: u32,
    /// Qualified fn name for call-graph findings; empty for token lints.
    pub function: String,
    pub message: String,
    /// Entry → … → site witness, empty for token lints.
    pub chain: Vec<String>,
}

impl Finding {
    /// The human-readable one-line form used for terminal output.
    pub fn text(&self) -> String {
        let mut s = format!(
            "{}:{}: [{}] {}",
            self.file, self.line, self.rule, self.message
        );
        if !self.chain.is_empty() {
            s.push_str("\n    reached via:");
            for link in &self.chain {
                s.push_str("\n      ");
                s.push_str(link);
            }
        }
        s
    }
}

/// Serialize a full report.
pub fn to_json(
    tool: &str,
    files_scanned: usize,
    findings: &[Finding],
    allowlisted: usize,
) -> String {
    let mut out = String::with_capacity(256 + findings.len() * 160);
    out.push_str("{\n  \"schema\": \"tme-analyze/1\",\n  \"tool\": ");
    push_str_json(&mut out, tool);
    out.push_str(&format!(
        ",\n  \"files_scanned\": {files_scanned},\n  \"findings\": ["
    ));
    for (i, f) in findings.iter().enumerate() {
        out.push_str(if i == 0 { "\n" } else { ",\n" });
        out.push_str("    {\"rule\": ");
        push_str_json(&mut out, &f.rule);
        out.push_str(", \"file\": ");
        push_str_json(&mut out, &f.file);
        out.push_str(&format!(", \"line\": {}, \"function\": ", f.line));
        push_str_json(&mut out, &f.function);
        out.push_str(", \"message\": ");
        push_str_json(&mut out, &f.message);
        out.push_str(", \"chain\": [");
        for (j, link) in f.chain.iter().enumerate() {
            if j > 0 {
                out.push_str(", ");
            }
            push_str_json(&mut out, link);
        }
        out.push_str("]}");
    }
    if !findings.is_empty() {
        out.push_str("\n  ");
    }
    out.push_str(&format!("],\n  \"allowlisted\": {allowlisted}\n}}\n"));
    out
}

fn push_str_json(out: &mut String, s: &str) {
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
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_report_has_all_keys() {
        let j = to_json("tme-lint", 12, &[], 0);
        for key in [
            "\"schema\": \"tme-analyze/1\"",
            "\"tool\": \"tme-lint\"",
            "\"files_scanned\": 12",
            "\"findings\": []",
            "\"allowlisted\": 0",
        ] {
            assert!(j.contains(key), "missing {key} in {j}");
        }
    }

    #[test]
    fn findings_serialize_with_escaping_and_chains() {
        let f = Finding {
            rule: "a1".into(),
            file: "crates/core/src/workspace.rs".into(),
            line: 7,
            function: "Tme::compute_with".into(),
            message: "allocation \"Vec::new\"\nin hot path".into(),
            chain: vec!["Tme::compute_with @ crates/core/src/workspace.rs:7".into()],
        };
        let j = to_json("tme-analyze", 1, std::slice::from_ref(&f), 3);
        assert!(j.contains("\\\"Vec::new\\\"\\nin hot path"));
        assert!(j.contains("\"allowlisted\": 3"));
        assert!(j.contains("Tme::compute_with @ "));
        assert!(f.text().contains("reached via:"));
    }
}
