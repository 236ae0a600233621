//! Tiny ASCII plotting for experiment summaries.
//!
//! The paper's Figs. 9–11 are plots; the drivers emit tables (and CSV
//! for real plotting), but an inline bar chart makes terminal output and
//! EXPERIMENTS.md legible at a glance.

/// Render labelled values as a horizontal ASCII bar chart.
///
/// Bars are scaled to `width` columns against the maximum value; each
/// line is `label  |█████···|  value`.
pub fn bar_chart(items: &[(String, f64)], width: usize) -> String {
    if items.is_empty() {
        return String::new();
    }
    let max = items
        .iter()
        .map(|(_, v)| *v)
        .fold(f64::NEG_INFINITY, f64::max)
        .max(f64::MIN_POSITIVE);
    let label_w = items.iter().map(|(l, _)| l.len()).max().unwrap_or(0);
    let mut out = String::new();
    for (label, v) in items {
        #[expect(
            clippy::cast_possible_truncation,
            reason = "clamped to [0, width], a usize, just before the cast"
        )]
        let filled = ((v / max) * width as f64).round().clamp(0.0, width as f64) as usize;
        out.push_str(&format!(
            "{label:<label_w$}  |{}{}| {v:.2}\n",
            "#".repeat(filled),
            "-".repeat(width - filled),
        ));
    }
    out
}

/// Render a series (e.g. GFLOP/s vs threads) as a one-line sparkline
/// using eight block heights.
pub fn sparkline(values: &[f64]) -> String {
    const LEVELS: [char; 8] = ['▁', '▂', '▃', '▄', '▅', '▆', '▇', '█'];
    if values.is_empty() {
        return String::new();
    }
    let lo = values.iter().cloned().fold(f64::INFINITY, f64::min);
    let hi = values.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
    let span = (hi - lo).max(f64::MIN_POSITIVE);
    values
        .iter()
        .map(|v| {
            #[expect(
                clippy::cast_possible_truncation,
                reason = "clamped to [0, 7], a LEVELS index, just before the cast"
            )]
            let t = ((v - lo) / span * 7.0).round().clamp(0.0, 7.0) as usize;
            LEVELS[t]
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bars_scale_to_max() {
        let items = vec![("a".to_string(), 10.0), ("bb".to_string(), 5.0)];
        let s = bar_chart(&items, 10);
        let lines: Vec<&str> = s.lines().collect();
        assert_eq!(lines.len(), 2);
        assert!(lines[0].contains(&"#".repeat(10)));
        assert!(lines[1].contains(&"#".repeat(5)));
        assert!(lines[1].starts_with("bb"));
    }

    #[test]
    fn empty_chart() {
        assert_eq!(bar_chart(&[], 10), "");
        assert_eq!(sparkline(&[]), "");
    }

    #[test]
    fn sparkline_monotone() {
        let s = sparkline(&[1.0, 2.0, 3.0, 4.0]);
        assert_eq!(s.chars().count(), 4);
        let first = s.chars().next().unwrap();
        let last = s.chars().last().unwrap();
        assert_eq!(first, '▁');
        assert_eq!(last, '█');
    }

    #[test]
    fn constant_series_is_flat_low() {
        let s = sparkline(&[2.0, 2.0, 2.0]);
        assert!(s.chars().all(|c| c == '▁'));
    }
}
