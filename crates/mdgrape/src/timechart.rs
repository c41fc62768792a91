//! ASCII time charts — the rendering of Fig. 9 (SoC components over one MD
//! step) and Fig. 10 (detailed GCU phases).

use crate::step::StepReport;

/// Render all module timelines as an ASCII chart, `width` columns wide.
pub fn render(report: &StepReport, width: usize) -> String {
    let total = report.total_us.max(1e-9);
    let mut out = String::new();
    let label_w = report
        .modules
        .iter()
        .map(|r| r.name.len())
        .max()
        .unwrap_or(4)
        .max(5);
    out.push_str(&format!(
        "{:label_w$} 0 µs{:>w$.1} µs\n",
        "",
        total,
        w = width - 3
    ));
    for module in &report.modules {
        let mut row = vec![' '; width];
        for span in &module.spans {
            let a = ((span.start / total) * width as f64).floor() as usize;
            let b = (((span.end / total) * width as f64).ceil() as usize).min(width);
            let (ch, _) = class(&span.label);
            for c in row.iter_mut().take(b.max(a + 1)).skip(a.min(width - 1)) {
                *c = ch;
            }
        }
        out.push_str(&format!(
            "{:label_w$} |{}|\n",
            module.name,
            row.into_iter().collect::<String>()
        ));
    }
    out.push_str(&legend(report));
    out
}

/// Render only the long-range phases with their durations (Fig. 10 style).
pub fn render_long_range(report: &StepReport) -> String {
    let mut out = String::new();
    if let Some((s, e)) = report.long_range_span {
        out.push_str(&format!(
            "long-range pipeline: {:.1} µs (t = {:.1} .. {:.1} µs)\n",
            e - s,
            s,
            e
        ));
    }
    for (name, dur) in &report.long_range_phases {
        let bars = (dur * 4.0).round().max(1.0) as usize;
        out.push_str(&format!(
            "  {name:<18} {dur:6.2} µs |{}\n",
            "#".repeat(bars.min(120))
        ));
    }
    out
}

/// A span label's chart glyph and legend name, one row per class; the
/// first matching row wins.
fn class(label: &str) -> (char, &'static str) {
    match label {
        l if l.contains("exchange") || l.contains("sleeve") => ('x', "exchange"),
        l if l.starts_with("INTEGRATE") => ('I', "integrate"),
        l if l.starts_with("bonded") => ('B', "bonded"),
        l if l.starts_with("nonbond") => ('N', "nonbond"),
        l if l.starts_with("CA") || l.starts_with("BI") => ('L', "LRU (CA/BI)"),
        l if l.starts_with("restriction") => ('r', "restriction"),
        l if l.starts_with("convolution") => ('C', "convolution"),
        l if l.starts_with("prolongation") => ('p', "prolongation"),
        l if l.starts_with("top-level") => ('T', "TMENW"),
        l if l.starts_with("CGP") => ('s', "CGP software"),
        _ => ('#', "other"),
    }
}

fn legend(report: &StepReport) -> String {
    let mut seen: Vec<(char, &str)> = Vec::new();
    for (_, span) in report.all_spans() {
        let (glyph, name) = class(&span.label);
        if !seen.iter().any(|(c, _)| *c == glyph) {
            seen.push((glyph, name));
        }
    }
    let items: Vec<String> = seen.iter().map(|(c, l)| format!("{c}={l}")).collect();
    format!("legend: {}\n", items.join("  "))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::MachineConfig;
    use crate::step::simulate_step;
    use crate::workload::StepWorkload;

    #[test]
    fn chart_renders_all_modules() {
        let r = simulate_step(&MachineConfig::mdgrape4a(), &StepWorkload::paper_fig9());
        let chart = render(&r, 100);
        for m in ["GP", "CGP", "PP", "LRU", "GCU", "NW", "TMENW"] {
            assert!(chart.contains(m), "missing {m} in chart:\n{chart}");
        }
        assert!(chart.contains("legend:"));
    }

    #[test]
    fn long_range_chart_lists_phases() {
        let r = simulate_step(&MachineConfig::mdgrape4a(), &StepWorkload::paper_fig9());
        let chart = render_long_range(&r);
        for p in [
            "CA",
            "restriction L1",
            "convolution L1",
            "TMENW",
            "prolongation L1",
            "BI",
        ] {
            assert!(chart.contains(p), "missing {p}:\n{chart}");
        }
    }

    #[test]
    fn chart_lines_have_fixed_width() {
        let r = simulate_step(&MachineConfig::mdgrape4a(), &StepWorkload::paper_fig9());
        let chart = render(&r, 80);
        let bar_lines: Vec<&str> = chart.lines().filter(|l| l.contains('|')).collect();
        assert!(!bar_lines.is_empty());
        let widths: Vec<usize> = bar_lines.iter().map(|l| l.chars().count()).collect();
        assert!(widths.windows(2).all(|w| w[0] == w[1]), "{widths:?}");
    }
}
