//! Shared-memory scaling bench: *measured* communication avoidance.
//!
//! Factors the same paper-ladder shapes with 1D-CQR2 and CA-CQR2 on the
//! shared-memory runtime at `P = 8` ranks and records the wall-clock
//! seconds of the SPMD region itself (`QrReport::wall_seconds`, the real
//! measurement PR 6 adds — not the virtual α-β-γ clock). The headline
//! number is the CA-over-1D speedup: 1D-CQR2 makes every rank redundantly
//! Cholesky-factor and invert the full `n × n` Gram matrix, while CA-CQR2
//! distributes that work over the `c × d × c` grid — so even on a single
//! socket the communication-avoiding schedule must win wall-clock time at
//! the fat end of the ladder. Emits `BENCH_PR6.json`.
//!
//! Flags (same conventions as `tuner_sweep`):
//!
//! * `--gate <baseline.json>` — compares normalized times and speedups
//!   against the checked-in baseline's top-level `"shm"` array and exits
//!   non-zero on regression (> 25% slower, or speedup below both the
//!   baseline-derived floor and 1.0).
//! * `--out <path>` — artifact path (default `BENCH_PR6.json`). Regenerate
//!   the baseline section by pasting the `"shm"` array from the artifact.
//!
//! Run: `cargo run --release -p bench --bin shm_scaling`

use cacqr::tuner::json::{self, JsonValue};
use cacqr::{Algorithm, QrPlan};
use dense::random::well_conditioned;
use pargrid::GridShape;
use simgrid::RuntimeKind;

/// Normalized times may regress by at most this factor — and measured
/// speedups may shrink by at most this factor — before the gate fails.
const GATE_TOLERANCE: f64 = 1.25;

/// Ranks for every measurement: the acceptance criterion asks for measured
/// speedup at ≥ 8 ranks.
const RANKS: usize = 8;

struct Entry {
    name: String,
    entry: JsonValue,
    normalized: Option<f64>,
    speedup: Option<f64>,
}

/// Wall seconds of the SPMD region, best of `reps` on a warm plan.
fn measure(plan: &QrPlan, a: &dense::Matrix, reps: usize) -> f64 {
    plan.warm_up(a).expect("well-conditioned input");
    let mut best = f64::INFINITY;
    for _ in 0..reps {
        let report = plan.factor(a).expect("well-conditioned input");
        assert!(report.orthogonality_error() < 1e-12, "measured runs must stay correct");
        best = best.min(report.wall_seconds);
    }
    best
}

fn shape_entry(name: &str, m: usize, n: usize, algorithm: &str, wall: f64, normalized: f64) -> JsonValue {
    JsonValue::Object(vec![
        ("name".to_string(), JsonValue::String(name.to_string())),
        ("m".to_string(), JsonValue::Number(m as f64)),
        ("n".to_string(), JsonValue::Number(n as f64)),
        ("processors".to_string(), JsonValue::Number(RANKS as f64)),
        ("threads".to_string(), JsonValue::Number(dense::max_threads() as f64)),
        ("algorithm".to_string(), JsonValue::String(algorithm.to_string())),
        ("wall_seconds".to_string(), JsonValue::Number(wall)),
        ("normalized".to_string(), JsonValue::Number(normalized)),
    ])
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let flag_value = |flag: &str| {
        args.iter()
            .position(|a| a == flag)
            .and_then(|i| args.get(i + 1))
            .cloned()
    };
    let out_path = flag_value("--out").unwrap_or_else(|| "BENCH_PR6.json".to_string());
    let gate_path = flag_value("--gate");

    // The fat end of the paper ladder, where the n³-redundancy of 1D-CQR2
    // dominates and communication avoidance pays off even within a socket.
    let shapes: Vec<(usize, usize)> = vec![(512, 256), (256, 256)];
    let reps = 3;

    // Probe-normalize every wall time (tuner_sweep's convention) so the
    // checked-in baseline survives machine changes; report the measured
    // transport constants alongside for the record.
    let probe = dense::default_probe(dense::BackendKind::default_kind());
    let net = simgrid::probe_shm_alpha_beta();
    println!(
        "# shm_scaling — probe: {} {}³ gemm at {:.2} Gflop/s; shm transport α = {:.1} ns, β = {:.3} ns/word",
        probe.backend,
        probe.dim,
        probe.gflops(),
        net.alpha * 1e9,
        net.beta * 1e9,
    );
    println!("shape          algorithm   wall_s      normalized  speedup");

    let mut results: Vec<Entry> = Vec::new();
    for &(m, n) in &shapes {
        let a = well_conditioned(m, n, 42);
        let plan_1d = QrPlan::new(m, n)
            .algorithm(Algorithm::Cqr2_1d)
            .grid(GridShape::one_d(RANKS).unwrap())
            .runtime(RuntimeKind::SharedMem)
            .build()
            .expect("ladder shapes divide evenly over 8 ranks");
        let plan_ca = QrPlan::new(m, n)
            .algorithm(Algorithm::CaCqr2)
            .grid(GridShape::new(2, 2).unwrap())
            .runtime(RuntimeKind::SharedMem)
            .build()
            .expect("2x2x2 grid fits the ladder shapes");
        assert_eq!(plan_ca.processors(), RANKS);

        let wall_1d = measure(&plan_1d, &a, reps);
        let wall_ca = measure(&plan_ca, &a, reps);
        let norm_1d = wall_1d / probe.seconds;
        let norm_ca = wall_ca / probe.seconds;
        let speedup = wall_1d / wall_ca;

        let name = format!("{m}x{n}");
        println!("{name:<14} 1d-cqr2     {wall_1d:<11.4e} {norm_1d:<11.3}");
        println!("{name:<14} ca-cqr2     {wall_ca:<11.4e} {norm_ca:<11.3} {speedup:.2}x");

        results.push(Entry {
            name: format!("shm-1d-{name}"),
            entry: shape_entry(&format!("shm-1d-{name}"), m, n, "1d-cqr2", wall_1d, norm_1d),
            normalized: Some(norm_1d),
            speedup: None,
        });
        results.push(Entry {
            name: format!("shm-ca-{name}"),
            entry: shape_entry(&format!("shm-ca-{name}"), m, n, "ca-cqr2", wall_ca, norm_ca),
            normalized: Some(norm_ca),
            speedup: None,
        });
        results.push(Entry {
            name: format!("shm-speedup-{name}"),
            entry: JsonValue::Object(vec![
                ("name".to_string(), JsonValue::String(format!("shm-speedup-{name}"))),
                ("threads".to_string(), JsonValue::Number(dense::max_threads() as f64)),
                ("speedup".to_string(), JsonValue::Number(speedup)),
            ]),
            normalized: None,
            speedup: Some(speedup),
        });
    }

    let artifact = JsonValue::Object(vec![
        ("version".to_string(), JsonValue::Number(1.0)),
        ("runtime".to_string(), JsonValue::String("shm".to_string())),
        ("ranks".to_string(), JsonValue::Number(RANKS as f64)),
        ("probe_gflops".to_string(), JsonValue::Number(probe.gflops())),
        ("probe_seconds".to_string(), JsonValue::Number(probe.seconds)),
        ("net_alpha_seconds".to_string(), JsonValue::Number(net.alpha)),
        ("net_beta_seconds_per_word".to_string(), JsonValue::Number(net.beta)),
        (
            "shm".to_string(),
            JsonValue::Array(results.iter().map(|r| r.entry.clone()).collect()),
        ),
    ]);
    std::fs::write(&out_path, artifact.to_pretty()).unwrap_or_else(|e| panic!("cannot write {out_path}: {e}"));
    println!("# wrote {out_path}");

    // The acceptance floor stands on its own, baseline or not: CA-CQR2 must
    // measurably beat 1D-CQR2 at the headline shape.
    let headline = results
        .iter()
        .find(|r| r.name == "shm-speedup-512x256")
        .and_then(|r| r.speedup)
        .expect("headline shape is always measured");
    if headline < 1.0 {
        eprintln!("# shm gate: FAILED — CA-CQR2 speedup over 1D-CQR2 at 512x256 is {headline:.2}x (< 1.0)");
        std::process::exit(1);
    }

    if let Some(path) = gate_path {
        let text = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("cannot read baseline {path}: {e}"));
        let baseline = json::parse(&text).unwrap_or_else(|e| panic!("baseline {path} is not valid JSON: {e}"));
        let tracked = baseline
            .get("shm")
            .and_then(JsonValue::as_array)
            .unwrap_or_else(|| panic!("baseline {path} has no \"shm\" array"));
        let mut regressions = Vec::new();
        let mut skipped = 0usize;
        for entry in tracked {
            let name = entry.get("name").and_then(JsonValue::as_str).unwrap_or("<unnamed>");
            let base_threads = entry.get("threads").and_then(JsonValue::as_usize);
            let Some(current) = results.iter().find(|r| r.name == name) else {
                regressions.push(format!("{name}: tracked entry missing from this run"));
                continue;
            };
            // Normalization cancels machine speed, not parallelism: skip
            // entries recorded under a different thread budget.
            if base_threads.is_some_and(|t| t != dense::max_threads()) {
                println!(
                    "# shm gate: skipping {name} (baseline threads={}, this run threads={})",
                    base_threads.unwrap(),
                    dense::max_threads()
                );
                skipped += 1;
                continue;
            }
            match (entry.get("normalized").and_then(JsonValue::as_f64), current.normalized) {
                (Some(base), Some(now)) if now > base * GATE_TOLERANCE => {
                    regressions.push(format!(
                        "{name}: normalized {now:.3} vs baseline {base:.3} (> {GATE_TOLERANCE}x)"
                    ));
                }
                _ => {}
            }
            match (entry.get("speedup").and_then(JsonValue::as_f64), current.speedup) {
                (Some(base), Some(now)) if now < base / GATE_TOLERANCE => {
                    regressions.push(format!(
                        "{name}: speedup {now:.2}x vs baseline {base:.2}x (shrunk > {GATE_TOLERANCE}x)"
                    ));
                }
                _ => {}
            }
        }
        if skipped == tracked.len() && !tracked.is_empty() {
            regressions.push(format!(
                "all {skipped} tracked entries skipped (thread-budget mismatch): \
                 re-record the baseline under this budget or set CACQR_THREADS to match"
            ));
        }
        if regressions.is_empty() {
            println!(
                "# shm gate: OK ({} tracked entries within {GATE_TOLERANCE}x; headline speedup {headline:.2}x)",
                tracked.len()
            );
        } else {
            eprintln!("# shm gate: FAILED");
            for r in &regressions {
                eprintln!("#   {r}");
            }
            std::process::exit(1);
        }
    }
}
