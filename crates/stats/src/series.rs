//! (x, y) series with confidence intervals, formatted like the paper's
//! figures.
use std::fmt::Write as _;

/// One point of a series.
#[derive(Clone, Copy, Debug)]
pub struct Point {
    pub x: f64,
    pub y: f64,
    /// Half-width of the 95% CI on y (0 when unknown).
    pub ci: f64,
}

/// A labelled data series (one curve of a figure).
#[derive(Clone, Debug)]
pub struct Series {
    pub label: String,
    pub points: Vec<Point>,
}

impl Series {
    pub fn new(label: impl Into<String>) -> Self {
        Series {
            label: label.into(),
            points: Vec::new(),
        }
    }

    pub fn push(&mut self, x: f64, y: f64, ci: f64) {
        self.points.push(Point { x, y, ci });
    }
}

/// Render a figure (several series over a shared x axis) as an aligned
/// text table, one row per x value — the shape the paper's figures plot.
pub fn format_table(title: &str, x_label: &str, y_label: &str, series: &[Series]) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "# {title}");
    let _ = writeln!(out, "# y: {y_label}");
    let mut xs: Vec<f64> = series
        .iter()
        .flat_map(|s| s.points.iter().map(|p| p.x))
        .collect();
    xs.sort_by(|a, b| a.partial_cmp(b).expect("no NaN"));
    xs.dedup_by(|a, b| (*a - *b).abs() < 1e-12);
    let _ = write!(out, "{x_label:>12}");
    for s in series {
        let _ = write!(out, " {:>18}", s.label);
    }
    out.push('\n');
    for x in xs {
        let _ = write!(out, "{x:>12.4}");
        for s in series {
            let y = s
                .points
                .iter()
                .find(|p| (p.x - x).abs() < 1e-12)
                .map(|p| p.y);
            match y {
                Some(y) => {
                    let _ = write!(out, " {y:>18.1}");
                }
                None => {
                    let _ = write!(out, " {:>18}", "-");
                }
            }
        }
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_includes_all_series_and_gaps() {
        let mut a = Series::new("tree");
        a.push(0.05, 1000.0, 0.0);
        a.push(0.10, 2000.0, 0.0);
        let mut b = Series::new("hc");
        b.push(0.05, 1500.0, 0.0);
        let t = format_table("Fig 10", "load", "latency", &[a, b]);
        assert!(t.contains("tree"));
        assert!(t.contains("hc"));
        assert!(t.contains("0.0500"));
        assert!(t.contains("0.1000"));
        assert!(t.contains('-'), "missing point must render as a gap");
    }
}
