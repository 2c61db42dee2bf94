//! E4 — Model-B analogues of Figures 1–3 (paper eqs 15–22).
//!
//! The paper derives Model B's formulas but plots only Model A. This
//! experiment regenerates the three figures under Model B for several
//! cache sizes `n̄(C)`, making the eviction-cost term `h′/n̄(C)` visible:
//! thresholds shift up by exactly that amount, and the `h′ = 0` panel is
//! *identical* to Model A (nothing of value to evict).

use crate::asciiplot::Chart;
use crate::report::{f, Table};
use prefetch_core::{ModelB, SystemParams};

use super::paper;

/// Cache sizes explored.
pub const CACHE_SIZES: [f64; 3] = [5.0, 20.0, 100.0];

/// Figure-2 analogue: `(n̄(F), G_B)` stable points.
pub fn g_curve(h_prime: f64, p: f64, n_c: f64, nf_points: usize) -> Vec<(f64, f64)> {
    let params =
        SystemParams::new(paper::LAMBDA, paper::FIG23_BANDWIDTH, paper::FIG23_MEAN_SIZE, h_prime)
            .unwrap();
    (0..=nf_points)
        .filter_map(|i| {
            let nf = 2.0 * i as f64 / nf_points as f64;
            ModelB::new(params, nf, p, n_c).improvement().map(|g| (nf, g))
        })
        .collect()
}

/// Figure-3 analogue: `(n̄(F), C_B)` stable points.
pub fn c_curve(h_prime: f64, p: f64, n_c: f64, nf_points: usize) -> Vec<(f64, f64)> {
    let params =
        SystemParams::new(paper::LAMBDA, paper::FIG23_BANDWIDTH, paper::FIG23_MEAN_SIZE, h_prime)
            .unwrap();
    (0..=nf_points)
        .filter_map(|i| {
            let nf = 2.0 * i as f64 / nf_points as f64;
            ModelB::new(params, nf, p, n_c).excess_cost().map(|c| (nf, c))
        })
        .collect()
}

pub fn render() -> String {
    let mut out = String::new();
    out.push_str("# E4 — Model B analogues of Figures 1-3 (eqs 15-22)\n");
    out.push_str("# p_th(B) = rho' + h'/n(C): the eviction-cost term raises the bar\n\n");

    // Threshold table (Fig 1 analogue), h' = 0.3 where the term matters.
    let h = 0.3;
    let mut table = Table::new(
        "p_th under Model B at s = 1, b = 50, h' = 0.3",
        &["n(C)", "p_th(A)", "p_th(B)", "shift = h'/n(C)"],
    );
    let params = SystemParams::new(paper::LAMBDA, 50.0, 1.0, h).unwrap();
    for &nc in &CACHE_SIZES {
        let b = ModelB::new(params, 1.0, 0.5, nc);
        table.row(vec![
            format!("{nc}"),
            f(params.rho_prime(), 3),
            f(b.threshold(), 3),
            f(h / nc, 3),
        ]);
    }
    out.push_str(&table.render());
    out.push('\n');

    // Fig 2 analogue chart at n(C) = 20.
    for &h in &paper::H_PRIMES {
        let mut chart = Chart::new(
            format!("Figure 2 analogue under Model B: h' = {h}, n(C) = 20"),
            (0.0, 2.0),
            (-0.1, 0.1),
            72,
            21,
        );
        for &p in &paper::FIG23_PROBS {
            chart.series(format!("p = {p}"), g_curve(h, p, 20.0, 80));
        }
        out.push_str(&chart.render());
        out.push('\n');
    }

    // Fig 3 analogue chart at n(C) = 20, h' = 0.3.
    let mut chart = Chart::new(
        "Figure 3 analogue under Model B: h' = 0.3, n(C) = 20",
        (0.0, 2.0),
        (0.0, 0.1),
        72,
        21,
    );
    for &p in &paper::FIG23_PROBS {
        chart.series(format!("p = {p}"), c_curve(0.3, p, 20.0, 80));
    }
    out.push_str(&chart.render());
    out.push('\n');

    // Sign-flip demonstration: p between the two thresholds.
    let mut table = Table::new(
        "G for p between thresholds (h'=0.3, p=0.5, n(F)=0.5): A says yes, small caches say no",
        &["n(C)", "p_th(B)", "G(B)"],
    );
    for &nc in &[2.0, 5.0, 20.0, 100.0] {
        let m = ModelB::new(params, 0.5, 0.5, nc);
        table.row(vec![
            format!("{nc}"),
            f(m.threshold(), 3),
            match m.improvement() {
                Some(g) => f(g, 5),
                None => "unstable".into(),
            },
        ]);
    }
    out.push_str(&table.render());
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn h_zero_panel_equals_model_a() {
        use super::super::e2_fig2;
        let a = e2_fig2::curve(0.0, 0.9, 40);
        let b = g_curve(0.0, 0.9, 5.0, 40);
        for (x, y) in a.iter().zip(&b) {
            assert!((x.1 - y.1).abs() < 1e-12);
        }
    }

    #[test]
    fn sign_flip_between_thresholds() {
        // h'=0.3 → p_th(A)=0.42. With n(C)=2, p_th(B)=0.57. p=0.5 flips.
        let g_small_cache = g_curve(0.3, 0.5, 2.0, 20);
        let g_big_cache = g_curve(0.3, 0.5, 1000.0, 20);
        let last_small = g_small_cache.last().unwrap().1;
        let last_big = g_big_cache.last().unwrap().1;
        assert!(last_small < 0.0, "small cache G {last_small}");
        assert!(last_big > 0.0, "big cache G {last_big}");
    }

    #[test]
    fn render_mentions_all_cache_sizes() {
        let s = render();
        for nc in CACHE_SIZES {
            assert!(s.contains(&format!("{nc}")));
        }
    }
}
