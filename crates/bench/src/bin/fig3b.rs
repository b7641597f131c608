//! Fig. 3(b) — runtime of the diversity metric: QP \[14\] vs ours.
//!
//! The paper reports 153.97 vs 8.28 (×10⁻⁴ s) per diversity evaluation. This
//! binary measures both on the same query set: the paper's metric is a
//! single O(n²·d) min-distance pass; the QP baseline must build the n × n
//! similarity matrix *and* run the projected-gradient solve.

use hotspot_active::{diversity_scores, HotspotModel};
use hotspot_baselines::QpSelector;
use hotspot_bench::{try_generate, write_json, ExperimentArgs};
use hotspot_layout::BenchmarkSpec;
use hotspot_nn::Matrix;
use hotspot_qp::QpSolver;
use serde::Serialize;
use std::time::Instant;

#[derive(Debug, Serialize)]
struct Fig3bResult {
    query_size: usize,
    ours_seconds: f64,
    qp_seconds: f64,
    speedup: f64,
}

fn main() {
    let args = ExperimentArgs::from_env();
    let spec = BenchmarkSpec::iccad16_3().scaled(args.scale.max(0.25));
    let bench = try_generate(&spec, args.seed).expect("benchmark generation succeeds");

    let dct = bench.dct_features();
    let (mean, std) = dct.column_stats();
    let standardized = dct.standardized(&mean, &std);
    let x = Matrix::from_flat(dct.rows(), dct.dim(), standardized.as_slice().to_vec());
    let model = HotspotModel::new(x.cols(), args.seed, 1.0, 1e-3, 32);

    let query: Vec<usize> = (0..bench.len()).take(256).collect();
    let (_, embeddings) = model.predict(&x.gather_rows(&query));
    let uncertainty = vec![0.5f32; query.len()];
    let k = 25;

    // Warm up and measure over repeats.
    let repeats = args.repeats.max(3) as u32;
    let start = Instant::now();
    for _ in 0..repeats {
        let scores = diversity_scores(&embeddings);
        std::hint::black_box(scores);
    }
    let ours = start.elapsed().as_secs_f64() / repeats as f64;

    let selector = QpSelector::new();
    let solver = QpSolver::default();
    let start = Instant::now();
    for _ in 0..repeats {
        let problem = selector
            .build_problem(&embeddings, &uncertainty, k)
            .unwrap();
        let solution = solver.solve(&problem);
        std::hint::black_box(solution);
    }
    let qp = start.elapsed().as_secs_f64() / repeats as f64;

    println!(
        "Fig. 3(b): diversity metric runtime ({} query clips)",
        query.len()
    );
    println!("  QP [14] : {:>10.2} x 1e-4 s", qp * 1e4);
    println!("  Ours    : {:>10.2} x 1e-4 s", ours * 1e4);
    println!("  speedup : {:>10.1}x", qp / ours);
    assert!(
        qp > ours,
        "the min-distance metric must be faster than the QP solve"
    );

    write_json(
        &args.out,
        "fig3b",
        &Fig3bResult {
            query_size: query.len(),
            ours_seconds: ours,
            qp_seconds: qp,
            speedup: qp / ours,
        },
    );
    args.finish_telemetry();
}
