//! Minimal self-contained SVG line charts.
//!
//! The paper's figures are gnuplot line charts (execution time in
//! seconds vs number of processes). [`render_svg`] draws a
//! [`SeriesGroup`] in that style — axes, tick labels, one polyline per
//! series, legend — with no dependencies, so `hbar figures` can emit
//! viewable figures next to the `.dat` files.

use crate::data::SeriesGroup;
use std::fmt::Write as _;

/// Plot geometry and style.
#[derive(Clone, Debug)]
pub struct PlotStyle {
    pub width: f64,
    pub height: f64,
    pub margin_left: f64,
    pub margin_bottom: f64,
    pub margin_top: f64,
    pub margin_right: f64,
    /// Stroke colours cycled per series.
    pub palette: Vec<&'static str>,
}

impl Default for PlotStyle {
    fn default() -> Self {
        PlotStyle {
            width: 640.0,
            height: 420.0,
            margin_left: 70.0,
            margin_bottom: 48.0,
            margin_top: 28.0,
            margin_right: 16.0,
            palette: vec![
                "#c0392b", "#27ae60", "#2980b9", "#8e44ad", "#d35400", "#16a085",
            ],
        }
    }
}

/// Renders a series group as an SVG document. The y axis is labelled in
/// microseconds; the x axis in process counts, matching the paper's
/// figures.
pub fn render_svg(group: &SeriesGroup, style: &PlotStyle) -> String {
    let (x_min, x_max) = group
        .series
        .iter()
        .flat_map(|s| s.points.iter().map(|p| p.0))
        .fold((f64::INFINITY, f64::NEG_INFINITY), |(lo, hi), v| {
            (lo.min(v), hi.max(v))
        });
    let y_max = group
        .series
        .iter()
        .flat_map(|s| s.points.iter().map(|p| p.1))
        .fold(0.0f64, f64::max);
    let (x_min, x_max) = if x_min.is_finite() && x_max > x_min {
        (x_min, x_max)
    } else {
        (0.0, 1.0)
    };
    let y_max = if y_max > 0.0 { y_max * 1.05 } else { 1.0 };

    let plot_w = style.width - style.margin_left - style.margin_right;
    let plot_h = style.height - style.margin_top - style.margin_bottom;
    let sx = |x: f64| style.margin_left + (x - x_min) / (x_max - x_min) * plot_w;
    let sy = |y: f64| style.margin_top + (1.0 - y / y_max) * plot_h;

    let mut svg = String::new();
    let _ = writeln!(
        svg,
        r#"<svg xmlns="http://www.w3.org/2000/svg" width="{w}" height="{h}" viewBox="0 0 {w} {h}">"#,
        w = style.width,
        h = style.height
    );
    let _ = writeln!(
        svg,
        r#"<rect width="{}" height="{}" fill="white"/>"#,
        style.width, style.height
    );
    // Title.
    let _ = writeln!(
        svg,
        r#"<text x="{}" y="18" font-family="sans-serif" font-size="13" text-anchor="middle">{}</text>"#,
        style.width / 2.0,
        xml_escape(&group.title)
    );
    // Axes.
    let x0 = style.margin_left;
    let y0 = style.margin_top + plot_h;
    let _ = writeln!(
        svg,
        r#"<line x1="{x0}" y1="{y0}" x2="{}" y2="{y0}" stroke="black"/>"#,
        x0 + plot_w
    );
    let _ = writeln!(
        svg,
        r#"<line x1="{x0}" y1="{}" x2="{x0}" y2="{y0}" stroke="black"/>"#,
        style.margin_top
    );
    // Ticks: 5 on each axis.
    for t in 0..=5 {
        let fx = x_min + (x_max - x_min) * t as f64 / 5.0;
        let px = sx(fx);
        let _ = writeln!(
            svg,
            r#"<line x1="{px}" y1="{y0}" x2="{px}" y2="{}" stroke="black"/>"#,
            y0 + 4.0
        );
        let _ = writeln!(
            svg,
            r#"<text x="{px}" y="{}" font-family="sans-serif" font-size="11" text-anchor="middle">{:.0}</text>"#,
            y0 + 18.0,
            fx
        );
        let fy = y_max * t as f64 / 5.0;
        let py = sy(fy);
        let _ = writeln!(
            svg,
            r#"<line x1="{}" y1="{py}" x2="{x0}" y2="{py}" stroke="black"/>"#,
            x0 - 4.0
        );
        let _ = writeln!(
            svg,
            r#"<text x="{}" y="{}" font-family="sans-serif" font-size="11" text-anchor="end">{:.0}</text>"#,
            x0 - 8.0,
            py + 4.0,
            fy * 1e6
        );
    }
    // Axis labels.
    let _ = writeln!(
        svg,
        r#"<text x="{}" y="{}" font-family="sans-serif" font-size="12" text-anchor="middle"># of processes</text>"#,
        x0 + plot_w / 2.0,
        style.height - 10.0
    );
    let _ = writeln!(
        svg,
        r#"<text x="14" y="{}" font-family="sans-serif" font-size="12" text-anchor="middle" transform="rotate(-90 14 {})">Execution time [us]</text>"#,
        style.margin_top + plot_h / 2.0,
        style.margin_top + plot_h / 2.0
    );
    // Series.
    for (idx, s) in group.series.iter().enumerate() {
        let colour = style.palette[idx % style.palette.len()];
        let mut path = String::new();
        for &(x, y) in &s.points {
            let _ = write!(path, "{},{} ", sx(x), sy(y));
        }
        let _ = writeln!(
            svg,
            r#"<polyline points="{}" fill="none" stroke="{colour}" stroke-width="1.6"/>"#,
            path.trim_end()
        );
        // Legend entry.
        let ly = style.margin_top + 14.0 * idx as f64 + 6.0;
        let lx = x0 + plot_w - 110.0;
        let _ = writeln!(
            svg,
            r#"<line x1="{lx}" y1="{ly}" x2="{}" y2="{ly}" stroke="{colour}" stroke-width="2"/>"#,
            lx + 22.0
        );
        let _ = writeln!(
            svg,
            r#"<text x="{}" y="{}" font-family="sans-serif" font-size="11">{}</text>"#,
            lx + 28.0,
            ly + 4.0,
            xml_escape(&s.label)
        );
    }
    svg.push_str("</svg>\n");
    svg
}

/// Writes the SVG to `path`, creating parent directories.
pub fn write_svg(group: &SeriesGroup, path: &std::path::Path) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    std::fs::write(path, render_svg(group, &PlotStyle::default()))
}

fn xml_escape(s: &str) -> String {
    s.replace('&', "&amp;")
        .replace('<', "&lt;")
        .replace('>', "&gt;")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::data::Series;

    fn group() -> SeriesGroup {
        let mut g = SeriesGroup::new("Validation <demo>");
        let mut d = Series::new("D");
        d.push(2.0, 1e-4);
        d.push(16.0, 3e-4);
        let mut t = Series::new("T");
        t.push(2.0, 1.2e-4);
        t.push(16.0, 2e-4);
        g.series.push(d);
        g.series.push(t);
        g
    }

    #[test]
    fn svg_is_well_formed_enough() {
        let svg = render_svg(&group(), &PlotStyle::default());
        assert!(svg.starts_with("<svg"));
        assert!(svg.trim_end().ends_with("</svg>"));
        assert_eq!(svg.matches("<polyline").count(), 2);
        // Title escaped.
        assert!(svg.contains("Validation &lt;demo&gt;"));
        assert!(!svg.contains("<demo>"));
        // Legend labels present.
        assert!(svg.contains(">D</text>"));
        assert!(svg.contains(">T</text>"));
        // Axis labels.
        assert!(svg.contains("# of processes"));
        assert!(svg.contains("Execution time [us]"));
    }

    #[test]
    fn points_map_into_plot_area() {
        let style = PlotStyle::default();
        let svg = render_svg(&group(), &style);
        // Every polyline coordinate must be inside the canvas.
        for line in svg.lines().filter(|l| l.contains("<polyline")) {
            let pts = line
                .split("points=\"")
                .nth(1)
                .unwrap()
                .split('"')
                .next()
                .unwrap();
            for pair in pts.split_whitespace() {
                let (x, y) = pair.split_once(',').unwrap();
                let (x, y): (f64, f64) = (x.parse().unwrap(), y.parse().unwrap());
                assert!(x >= 0.0 && x <= style.width, "{x}");
                assert!(y >= 0.0 && y <= style.height, "{y}");
            }
        }
    }

    #[test]
    fn empty_group_renders_without_panic() {
        let g = SeriesGroup::new("empty");
        let svg = render_svg(&g, &PlotStyle::default());
        assert!(svg.contains("</svg>"));
    }

    #[test]
    fn write_svg_creates_file() {
        let dir = std::env::temp_dir().join("hbar_plot_test");
        let path = dir.join("fig.svg");
        write_svg(&group(), &path).unwrap();
        assert!(std::fs::read_to_string(&path).unwrap().contains("<svg"));
        std::fs::remove_dir_all(&dir).ok();
    }
}
