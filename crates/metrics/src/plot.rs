//! Terminal line plots, so the bench harness can render figure-shaped
//! output (time-to-accuracy curves, CDFs) rather than only number columns.

use std::fmt::Write as _;

/// A multi-series ASCII line chart on a fixed character grid.
#[derive(Debug, Clone)]
pub struct AsciiPlot {
    width: usize,
    height: usize,
    series: Vec<(char, Vec<(f64, f64)>)>,
    x_label: String,
    y_label: String,
}

impl AsciiPlot {
    /// Creates an empty plot grid.
    ///
    /// # Panics
    ///
    /// Panics if either dimension is below 2.
    pub fn new(width: usize, height: usize) -> Self {
        assert!(width >= 2 && height >= 2, "plot grid too small");
        AsciiPlot { width, height, series: Vec::new(), x_label: String::new(), y_label: String::new() }
    }

    /// Sets the axis labels.
    pub fn labels(mut self, x: &str, y: &str) -> Self {
        self.x_label = x.to_string();
        self.y_label = y.to_string();
        self
    }

    /// Adds a series drawn with the given marker character.
    pub fn series(&mut self, marker: char, points: &[(f64, f64)]) -> &mut Self {
        self.series.push((marker, points.to_vec()));
        self
    }

    /// Renders the chart. Returns an empty string when no finite points
    /// exist.
    pub fn render(&self) -> String {
        let pts: Vec<(f64, f64)> = self
            .series
            .iter()
            .flat_map(|(_, p)| p.iter().copied())
            .filter(|(x, y)| x.is_finite() && y.is_finite())
            .collect();
        if pts.is_empty() {
            return String::new();
        }
        let (mut x_min, mut x_max, mut y_min, mut y_max) = (f64::MAX, f64::MIN, f64::MAX, f64::MIN);
        for (x, y) in &pts {
            x_min = x_min.min(*x);
            x_max = x_max.max(*x);
            y_min = y_min.min(*y);
            y_max = y_max.max(*y);
        }
        if (x_max - x_min).abs() < f64::EPSILON {
            x_max = x_min + 1.0;
        }
        if (y_max - y_min).abs() < f64::EPSILON {
            y_max = y_min + 1.0;
        }

        let mut grid = vec![vec![' '; self.width]; self.height];
        for (marker, points) in &self.series {
            for (x, y) in points {
                if !x.is_finite() || !y.is_finite() {
                    continue;
                }
                let cx = ((x - x_min) / (x_max - x_min) * (self.width - 1) as f64).round() as usize;
                let cy = ((y - y_min) / (y_max - y_min) * (self.height - 1) as f64).round() as usize;
                // Row 0 is the top of the plot.
                if let Some(cell) = grid.iter_mut().rev().nth(cy).and_then(|row| row.get_mut(cx)) {
                    *cell = *marker;
                }
            }
        }

        let mut out = String::new();
        let _ = writeln!(out, "{} (min {y_min:.3}, max {y_max:.3})", self.y_label);
        for row in &grid {
            let _ = writeln!(out, "|{}", row.iter().collect::<String>());
        }
        let _ = writeln!(out, "+{}", "-".repeat(self.width));
        let _ = writeln!(out, " {} (min {x_min:.1}, max {x_max:.1})", self.x_label);
        let legend: Vec<String> =
            self.series.iter().enumerate().map(|(i, (m, _))| format!("{m}=series{i}")).collect();
        if self.series.len() > 1 {
            let _ = writeln!(out, " legend: {}", legend.join("  "));
        }
        out
    }
}

/// One-line sparkline of a value series using eighth-block characters.
pub fn sparkline(values: &[f64]) -> String {
    const BLOCKS: [char; 8] = ['▁', '▂', '▃', '▄', '▅', '▆', '▇', '█'];
    let finite: Vec<f64> = values.iter().copied().filter(|v| v.is_finite()).collect();
    if finite.is_empty() {
        return String::new();
    }
    let min = finite.iter().copied().fold(f64::MAX, f64::min);
    let max = finite.iter().copied().fold(f64::MIN, f64::max);
    let span = if (max - min).abs() < f64::EPSILON { 1.0 } else { max - min };
    values
        .iter()
        .map(|v| {
            if !v.is_finite() {
                return ' ';
            }
            let idx = (((v - min) / span) * 7.0).round() as usize;
            BLOCKS.get(idx).copied().unwrap_or('█')
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_expected_grid_size() {
        let mut p = AsciiPlot::new(20, 5).labels("round", "acc");
        p.series('*', &[(0.0, 0.0), (10.0, 1.0)]);
        let out = p.render();
        let lines: Vec<&str> = out.lines().collect();
        // y label + 5 rows + axis + x label.
        assert_eq!(lines.len(), 8);
        assert!(out.contains('*'));
    }

    #[test]
    fn monotone_series_touches_both_corners() {
        let mut p = AsciiPlot::new(10, 4);
        p.series('*', &[(0.0, 0.0), (1.0, 1.0)]);
        let out = p.render();
        let rows: Vec<&str> = out.lines().filter(|l| l.starts_with('|')).collect();
        assert_eq!(rows[0].chars().nth(10), Some('*'), "top-right");
        assert_eq!(rows[3].chars().nth(1), Some('*'), "bottom-left");
    }

    #[test]
    fn empty_and_nan_series_render_empty() {
        let p = AsciiPlot::new(10, 4);
        assert!(p.render().is_empty());
        let mut p2 = AsciiPlot::new(10, 4);
        p2.series('*', &[(f64::NAN, 1.0)]);
        assert!(p2.render().is_empty());
    }

    #[test]
    fn constant_series_is_safe() {
        let mut p = AsciiPlot::new(10, 4);
        p.series('o', &[(0.0, 0.5), (1.0, 0.5)]);
        assert!(p.render().contains('o'));
    }

    #[test]
    fn sparkline_shape() {
        let s = sparkline(&[0.0, 0.5, 1.0]);
        assert_eq!(s.chars().count(), 3);
        assert_eq!(s.chars().next(), Some('▁'));
        assert_eq!(s.chars().last(), Some('█'));
        assert_eq!(sparkline(&[]), "");
        assert_eq!(sparkline(&[1.0, 1.0]), "▁▁");
    }

    #[test]
    #[should_panic(expected = "grid too small")]
    fn tiny_grid_panics() {
        AsciiPlot::new(1, 1);
    }
}
