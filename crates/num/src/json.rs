//! The one JSON writer for the reports the workspace emits: the
//! `BENCH_*.json` files of the bench binaries (`tme-bench/1`, through
//! [`report`]) and the live stats of `tme-serve` (`tme-serve-stats/1`)
//! and `tme-router` (`tme-router-stats/1`), through
//! [`JsonObject::render_pretty`]. It lives in this leaf crate because
//! every one of those consumers already depends on it.
//!
//! Dependency-free (the workspace has no serialisation crate), with one
//! shape: top-level fields in insertion order, pretty-printed two-space,
//! nested objects rendered compactly on one line, and row arrays as one
//! compact object per line (the committed-baseline diff stays readable
//! and the `pipeline_scaling` regression scanner keeps finding
//! `"threads": 1,` on one line).
//!
//! Floats are written with a caller-chosen precision; non-finite values
//! become `null` (JSON has no NaN/∞, and a report that silently printed
//! `inf` would be unparseable downstream).

/// An object under construction: ordered `key → rendered value` pairs.
#[derive(Default)]
pub struct JsonObject {
    fields: Vec<(String, String)>,
}

impl JsonObject {
    fn put(&mut self, key: &str, value: String) {
        self.fields.push((key.to_string(), value));
    }

    pub fn u64(&mut self, key: &str, v: u64) -> &mut Self {
        self.put(key, v.to_string());
        self
    }

    /// Fixed-precision float; non-finite renders as `null`.
    pub fn f64(&mut self, key: &str, v: f64, decimals: usize) -> &mut Self {
        let rendered = if v.is_finite() {
            format!("{v:.decimals$}")
        } else {
            "null".to_string()
        };
        self.put(key, rendered);
        self
    }

    pub fn bool(&mut self, key: &str, v: bool) -> &mut Self {
        self.put(key, v.to_string());
        self
    }

    /// Escaped string value.
    pub fn str(&mut self, key: &str, v: &str) -> &mut Self {
        self.put(key, format!("\"{}\"", escape(v)));
        self
    }

    /// Pre-rendered JSON value, verbatim — `null`, a small inline array
    /// like `[32, 32, 32]`, or an integer-or-null option.
    pub fn raw(&mut self, key: &str, v: &str) -> &mut Self {
        self.put(key, v.to_string());
        self
    }

    /// Nested object, rendered compactly on one line.
    pub fn obj(&mut self, key: &str, build: impl FnOnce(&mut JsonObject)) -> &mut Self {
        let mut o = JsonObject::default();
        build(&mut o);
        self.put(key, o.render_compact());
        self
    }

    /// Array of objects, one compact object per line — the `rows` shape
    /// every bench report uses.
    pub fn rows<T>(
        &mut self,
        key: &str,
        items: &[T],
        mut build: impl FnMut(&T, &mut JsonObject),
    ) -> &mut Self {
        let rendered: Vec<String> = items
            .iter()
            .map(|item| {
                let mut o = JsonObject::default();
                build(item, &mut o);
                format!("    {}", o.render_compact())
            })
            .collect();
        if rendered.is_empty() {
            self.put(key, "[]".to_string());
        } else {
            self.put(key, format!("[\n{}\n  ]", rendered.join(",\n")));
        }
        self
    }

    /// The whole object, one field per line, indented two spaces, with a
    /// trailing newline.
    pub fn render_pretty(&self) -> String {
        let body: Vec<String> = self
            .fields
            .iter()
            .map(|(k, v)| format!("  \"{k}\": {v}"))
            .collect();
        format!("{{\n{}\n}}\n", body.join(",\n"))
    }

    fn render_compact(&self) -> String {
        let body: Vec<String> = self
            .fields
            .iter()
            .map(|(k, v)| format!("\"{k}\": {v}"))
            .collect();
        format!("{{{}}}", body.join(", "))
    }
}

fn escape(s: &str) -> String {
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

/// Render a complete benchmark report: `schema` and `benchmark` first,
/// then whatever `build` adds, pretty-printed two-space at the top level.
pub fn report(benchmark: &str, build: impl FnOnce(&mut JsonObject)) -> String {
    let mut o = JsonObject::default();
    o.str("schema", "tme-bench/1");
    o.str("benchmark", benchmark);
    build(&mut o);
    o.render_pretty()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn report_has_schema_and_order() {
        let out = report("demo", |o| {
            o.u64("steps", 7)
                .f64("mean_us", 12.3456, 3)
                .bool("ok", true);
        });
        let schema = out.find("\"schema\": \"tme-bench/1\"");
        let bench = out.find("\"benchmark\": \"demo\"");
        let steps = out.find("\"steps\": 7");
        assert!(schema < bench && bench < steps, "field order broken: {out}");
        assert!(out.contains("\"mean_us\": 12.346"));
        assert!(out.contains("\"ok\": true"));
        assert!(out.ends_with("}\n"));
    }

    #[test]
    fn rows_render_one_compact_object_per_line() {
        let out = report("demo", |o| {
            o.rows("rows", &[1u64, 2], |&v, row| {
                row.u64("threads", v).obj("stages_us", |s| {
                    s.u64("assign", v * 10);
                });
            });
        });
        // The regression scanner's pattern must survive: row fields stay
        // on one line with `, ` separators.
        assert!(
            out.contains("{\"threads\": 1, \"stages_us\": {\"assign\": 10}}"),
            "{out}"
        );
        assert!(out.contains("{\"threads\": 2, "));
        let row_lines = out.lines().filter(|l| l.contains("\"threads\"")).count();
        assert_eq!(row_lines, 2);
    }

    #[test]
    fn non_finite_floats_become_null_and_strings_escape() {
        let out = report("demo", |o| {
            o.f64("bad", f64::NAN, 2)
                .raw("maybe", "null")
                .str("msg", "a \"quoted\"\nline");
        });
        assert!(out.contains("\"bad\": null"));
        assert!(out.contains("\"maybe\": null"));
        assert!(out.contains("\"msg\": \"a \\\"quoted\\\"\\nline\""));
    }

    #[test]
    fn empty_rows_render_as_empty_array() {
        let out = report("demo", |o| {
            o.rows("rows", &[] as &[u64], |_, _| {});
        });
        assert!(out.contains("\"rows\": []"));
    }

    /// The exact bytes of one report exercising every value kind.
    #[test]
    fn report_bytes_are_pinned() {
        let out = report("pin", |o| {
            o.u64("steps", 7)
                .f64("mean_us", 12.3456, 3)
                .f64("bad", f64::INFINITY, 2)
                .bool("ok", false)
                .str("msg", "tab\there \"q\" back\\slash\u{1}")
                .raw("grid", "[32, 32, 32]")
                .obj("stages_us", |s| {
                    s.f64("assign", 1.5, 1).u64("count", 3);
                })
                .rows("rows", &[1u64, 2], |&v, row| {
                    row.u64("threads", v).f64("speedup", v as f64 * 0.95, 2);
                })
                .rows("empty", &[] as &[u64], |_, _| {});
        });
        assert_eq!(
            out,
            r#"{
  "schema": "tme-bench/1",
  "benchmark": "pin",
  "steps": 7,
  "mean_us": 12.346,
  "bad": null,
  "ok": false,
  "msg": "tab\there \"q\" back\\slash\u0001",
  "grid": [32, 32, 32],
  "stages_us": {"assign": 1.5, "count": 3},
  "rows": [
    {"threads": 1, "speedup": 0.95},
    {"threads": 2, "speedup": 1.90}
  ],
  "empty": []
}
"#
        );
    }
}
