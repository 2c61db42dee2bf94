//! Runs every experiment (E1–E22) and writes the reports under `results/`
//! (or the directory given as the first argument).
//!
//! ```text
//! cargo run --release -p harness --bin all
//! ```

use std::fs;
use std::time::Instant;

type Experiment = (&'static str, fn() -> String);

fn main() -> std::io::Result<()> {
    let out_dir = std::env::args().nth(1).unwrap_or_else(|| "results".to_string());
    fs::create_dir_all(&out_dir)?;
    let experiments: Vec<Experiment> = vec![
        ("e1_fig1", harness::experiments::e1_fig1::render),
        ("e2_fig2", harness::experiments::e2_fig2::render),
        ("e3_fig3", harness::experiments::e3_fig3::render),
        ("e4_modelb", harness::experiments::e4_modelb::render),
        ("e5_compare", harness::experiments::e5_compare::render),
        ("e6_estimate", harness::experiments::e6_estimate::render),
        ("e7_validate", harness::experiments::e7_validate::render),
        ("e8_endtoend", harness::experiments::e8_endtoend::render),
        ("e9_impedance", harness::experiments::e9_impedance::render),
        ("e10_ablation", harness::experiments::e10_ablation::render),
        ("e11_wireless", harness::experiments::e11_wireless::render),
        ("e12_caches", harness::experiments::e12_caches::render),
        ("e13_cluster", harness::experiments::e13_cluster::render),
        ("e14_coop", harness::experiments::e14_coop::render),
        ("e15_scale", harness::experiments::e15_scale::render),
        ("e16_delta", harness::experiments::e16_delta::render),
        ("e17_shard", harness::experiments::e17_shard::render),
        ("e18_obs", harness::experiments::e18_obs::render),
        ("e19_trace", harness::experiments::e19_trace::render),
        ("e20_delayed", harness::experiments::e20_delayed::render),
        ("e21_replay", harness::experiments::e21_replay::render),
        ("e22_chaos", harness::experiments::e22_chaos::render),
    ];
    for (name, render) in experiments {
        let start = Instant::now();
        let report = render();
        let path = format!("{out_dir}/{name}.txt");
        fs::write(&path, &report)?;
        println!(
            "wrote {path} ({} lines, {:.1}s)",
            report.lines().count(),
            start.elapsed().as_secs_f64()
        );
    }
    println!("done — see {out_dir}/");
    Ok(())
}
