//! Integration: the figure-shape invariants of the paper's §VI on a
//! reduced synthetic census (kept small so debug-build tests stay fast).

use arbloops::prelude::*;
use arbloops::strategies::batch::{compare_all_parallel, LoopCase};
use arbloops::strategies::report::LoopComparison;

fn study_rows(length: usize) -> Vec<LoopComparison> {
    let config = SnapshotConfig {
        seed: 20230901,
        num_tokens: 16,
        num_pools: 40,
        ..SnapshotConfig::default()
    };
    let snapshot = Generator::new(config).generate().unwrap().filtered(&config);
    let graph = TokenGraph::new(snapshot.pools().to_vec()).unwrap();
    let prices = snapshot.price_vector();
    let cases: Vec<LoopCase> = graph
        .arbitrage_loops(length)
        .unwrap()
        .into_iter()
        .map(|cycle| {
            let hops = graph.curves_for(&cycle).unwrap();
            let loop_ = ArbLoop::new(hops, cycle.tokens().to_vec()).unwrap();
            let case_prices = cycle.tokens().iter().map(|t| prices[t.index()]).collect();
            LoopCase {
                loop_,
                prices: case_prices,
            }
        })
        .collect();
    compare_all_parallel(&cases, &CompareOptions::default()).unwrap()
}

#[test]
fn fig5_shape_all_traditional_points_below_diagonal() {
    let rows = study_rows(3);
    assert!(!rows.is_empty(), "census should contain loops");
    let mut ties = 0usize;
    for row in &rows {
        let mm = row.maxmax.value();
        let mut best_rotation = f64::NEG_INFINITY;
        for t in &row.traditional {
            assert!(
                t.value() <= mm + 1e-9 * (1.0 + mm),
                "a traditional point exceeds MaxMax: {row:?}"
            );
            best_rotation = best_rotation.max(t.value());
        }
        // MaxMax equals its best rotation by definition.
        assert!((best_rotation - mm).abs() <= 1e-9 * (1.0 + mm));
        ties += 1;
    }
    assert_eq!(ties, rows.len());
}

#[test]
fn fig6_shape_maxprice_unreliable() {
    let rows = study_rows(3);
    let below = rows
        .iter()
        .filter(|row| row.maxprice.value() < row.maxmax.value() - 1e-9)
        .count();
    // The heuristic must fail on a material fraction of loops (the paper's
    // central negative result). On synthetic censuses this is typically
    // 30–80%; assert it is neither zero nor universal.
    assert!(
        below > 0,
        "MaxPrice never failed — heuristic should be unreliable"
    );
    assert!(below < rows.len(), "MaxPrice always failed — implausible");
}

#[test]
fn fig7_shape_convex_tracks_maxmax() {
    let rows = study_rows(3);
    for row in &rows {
        let mm = row.maxmax.value();
        // Dominance to solver tolerance.
        assert!(
            row.convex.value() >= mm - 1e-4 * (1.0 + mm),
            "convex materially below maxmax: {row:?}"
        );
        // And near-equality (the paper's empirical finding): within 1%
        // for economically meaningful loops.
        if mm > 0.01 {
            assert!(
                (row.convex.value() - mm).abs() <= 0.01 * mm + 1e-4,
                "convex and maxmax diverge: {row:?}"
            );
        }
    }
}

#[test]
fn fig8_shape_token_profit_overlap() {
    let rows = study_rows(3);
    for row in &rows {
        let mm_total: f64 = row.maxmax_token_profits.iter().sum();
        let cv_total: f64 = row.convex_token_profits.iter().sum();
        // Same order of magnitude of extracted tokens: convex redistributes
        // profit across tokens but total extraction is comparable.
        if mm_total > 0.1 {
            assert!(
                cv_total > 0.0,
                "convex extracted nothing where maxmax extracted {mm_total}: {row:?}"
            );
        }
        // Convex never leaves a negative token position.
        for p in &row.convex_token_profits {
            assert!(*p >= -1e-6, "negative token profit: {row:?}");
        }
    }
}

#[test]
fn fig9_fig10_shape_length4() {
    let rows = study_rows(4);
    assert!(!rows.is_empty(), "length-4 census should contain loops");
    for row in &rows {
        let mm = row.maxmax.value();
        for t in &row.traditional {
            assert!(t.value() <= row.convex.value() + 1e-4 * (1.0 + mm));
        }
        assert!(row.convex.value() >= mm - 1e-4 * (1.0 + mm));
    }
}
