//! Benchmark and figure-regeneration harness.
//!
//! Every evaluation artifact of the paper has a regenerating binary in
//! `src/bin/` (see `DESIGN.md` §4 for the full index):
//!
//! | Binary | Paper artifact |
//! |---|---|
//! | `fig1_profit_curve` | Fig. 1 — profit vs input, optimum at `F' = 1` |
//! | `exv_worked_example` | §V worked example (all strategy numbers) |
//! | `fig2_rotations_vs_px` | Fig. 2 — rotations + MaxMax envelope vs Px |
//! | `fig3_convex_vs_maxmax` | Fig. 3 — ConvexOpt vs MaxMax vs Px |
//! | `fig4_token_profit_scatter` | Fig. 4 — profit in token units vs Px |
//! | `fig5_trad_vs_maxmax` | Fig. 5 — empirical Traditional vs MaxMax |
//! | `fig6_maxprice_vs_maxmax` | Fig. 6 — empirical MaxPrice vs MaxMax |
//! | `fig7_convex_vs_maxmax_empirical` | Fig. 7 — empirical ConvexOpt vs MaxMax |
//! | `fig8_token_overlap` | Fig. 8 — per-token profits, both strategies |
//! | `fig9_len4_trad` | Fig. 9 — length-4 Traditional vs ConvexOpt |
//! | `fig10_len4_maxmax` | Fig. 10 — length-4 MaxMax vs ConvexOpt |
//! | `ttime_timing_table` | §VII timing discussion (ms vs s at length 10) |
//! | `run_all` | regenerates everything into `results/` |
//!
//! Each binary writes CSV series plus an ASCII rendering into `results/`
//! and prints a summary. Criterion benches live in `benches/`.

pub mod ascii;
pub mod csvout;
pub mod empirical;
pub mod figures;
pub mod gap;
pub mod json;
pub mod paper;
pub mod timing;

/// The nearest-rank `p`-quantile of `samples` (`p` in `[0, 1]`): the
/// smallest sample at or above a `p` share of them. Panics on an empty
/// slice.
pub fn percentile_ns(samples: &[u64], p: f64) -> u64 {
    let mut sorted = samples.to_vec();
    sorted.sort_unstable();
    let rank = ((sorted.len() as f64) * p).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// The workspace-level results directory.
pub fn results_dir() -> std::path::PathBuf {
    // CARGO_MANIFEST_DIR = crates/bench; results live at the repo root.
    let manifest = std::path::PathBuf::from(env!("CARGO_MANIFEST_DIR"));
    manifest
        .parent()
        .and_then(std::path::Path::parent)
        .map(|root| root.join("results"))
        .unwrap_or_else(|| std::path::PathBuf::from("results"))
}

#[cfg(test)]
mod tests {
    #[test]
    fn results_dir_is_repo_level() {
        let dir = super::results_dir();
        assert!(dir.ends_with("results"));
    }

    #[test]
    fn percentile_ns_is_nearest_rank() {
        let samples: Vec<u64> = (1..=100).rev().collect();
        assert_eq!(super::percentile_ns(&samples, 0.50), 50);
        assert_eq!(super::percentile_ns(&samples, 0.99), 99);
        assert_eq!(super::percentile_ns(&samples, 1.0), 100);
        assert_eq!(super::percentile_ns(&samples, 0.0), 1);
        assert_eq!(super::percentile_ns(&[7], 0.99), 7);
    }
}
