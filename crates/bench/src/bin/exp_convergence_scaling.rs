//! E4 (Theorem 2): convergence time vs ring size under every daemon family.
//! The paper proves O(n²) under the unfair distributed daemon; the table
//! reports mean/max stabilization steps, the ratio to n², and a fitted
//! log-log growth exponent per daemon. A second sweep under the
//! central-random daemon extends n to 4096 to show whether steps/n²
//! flattens at scale.

use std::time::Instant;

use ssr_analysis::{loglog_slope, ssrmin_convergence_sweep, DaemonKind, StartKind, Table};

fn main() {
    println!("E4 — Theorem 2: convergence steps vs n (random initial configurations)");
    let sizes = [4usize, 6, 8, 12, 16, 24, 32];
    let seeds = 20u64;

    for daemon in DaemonKind::ALL {
        let pts = ssrmin_convergence_sweep(&sizes, seeds, daemon, StartKind::Random);
        let mut table = Table::new(vec![
            "n",
            "mean steps",
            "median",
            "p95",
            "max",
            "mean/n²",
            "mean rounds",
            "mean C-moves",
        ]);
        for p in &pts {
            let n2 = (p.n * p.n) as f64;
            table.row(vec![
                p.n.to_string(),
                format!("{:.1}", p.steps.mean),
                p.steps.median.to_string(),
                p.steps.p95.to_string(),
                p.steps.max.to_string(),
                format!("{:.3}", p.steps.mean / n2),
                format!("{:.1}", p.rounds.mean),
                format!("{:.1}", p.dijkstra_moves.mean),
            ]);
        }
        let series: Vec<(f64, f64)> =
            pts.iter().map(|p| (p.n as f64, p.steps.mean.max(1.0))).collect();
        let (slope, coef) = loglog_slope(&series).expect("fit");
        println!("\n-- daemon: {} --", daemon.label());
        print!("{}", table.render());
        println!("fitted growth: steps ≈ {coef:.2} · n^{slope:.2}  (Theorem 2 bound: exponent 2)");
    }

    println!("\n— central-random at scale (random starts, 5 seeds) —");
    let mut table =
        Table::new(vec!["n", "mean steps", "median", "max", "mean/n²", "mean rounds", "ns/step"]);
    let mut series = Vec::new();
    for n in [64usize, 128, 256, 512, 1024, 2048, 4096] {
        let started = Instant::now();
        let p = ssrmin_convergence_sweep(&[n], 5, DaemonKind::CentralRandom, StartKind::Random)
            .remove(0);
        let ns_per_step = started.elapsed().as_nanos() as f64 / (p.steps.mean * 5.0).max(1.0);
        table.row(vec![
            n.to_string(),
            format!("{:.0}", p.steps.mean),
            p.steps.median.to_string(),
            p.steps.max.to_string(),
            format!("{:.3}", p.steps.mean / (n * n) as f64),
            format!("{:.1}", p.rounds.mean),
            format!("{ns_per_step:.0}"),
        ]);
        series.push((n as f64, p.steps.mean));
    }
    print!("{}", table.render());
    let (slope, coef) = loglog_slope(&series).expect("fit");
    println!(
        "fitted growth: steps ≈ {coef:.2} · n^{slope:.2}  (ns/step includes the legitimacy check)"
    );

    println!("\n— corrupted starts (1 transient fault) for comparison —");
    let pts =
        ssrmin_convergence_sweep(&sizes, seeds, DaemonKind::CentralRandom, StartKind::Corrupted(1));
    let mut table = Table::new(vec!["n", "mean steps", "max"]);
    for p in &pts {
        table.row(vec![p.n.to_string(), format!("{:.1}", p.steps.mean), p.steps.max.to_string()]);
    }
    print!("{}", table.render());
    println!("Single-fault recovery is near-linear — far below the worst-case O(n²).");
}
