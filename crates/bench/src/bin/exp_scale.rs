//! E23 (scalability): SSRmin in the message-passing simulator at large ring
//! sizes. Handover cost is local (three rule firings between neighbours),
//! so the per-node message rate is flat in n and the lap time grows
//! linearly — a deployment can grow without redesign; only the *rotation
//! period* (and thus each node's duty cycle, see E11) changes.
//!
//! The last three columns are host measurements of the simulator itself:
//! wall time of the run, simulated events per second and ns per event.

use std::time::Instant;

use ssr_analysis::Table;
use ssr_bench::standard_sim_config;
use ssr_core::{RingParams, SsrMin};
use ssr_mpnet::CstSim;

fn main() {
    println!("E23 — scalability of the message-passing simulation");
    let t_end = 60_000u64;
    let mut table = Table::new(vec![
        "n",
        "zero-token time",
        "max priv",
        "rules",
        "laps",
        "lap (ticks)",
        "msgs / node / kilotick",
        "events",
        "host ms",
        "events / s",
        "ns / event",
    ]);
    for n in [8usize, 16, 32, 64, 128, 256, 1024, 4096] {
        let params = RingParams::minimal(n).expect("valid size");
        let algo = SsrMin::new(params);
        let mut sim = CstSim::new(algo, algo.legitimate_anchor(0), standard_sim_config(1))
            .expect("valid config");
        let start = Instant::now();
        sim.run_until(t_end);
        let wall = start.elapsed().as_secs_f64();
        let s = sim.timeline().summary(0).expect("window");
        assert_eq!(s.zero_privileged_time, 0, "n={n}: graceful handover at scale");
        assert!(s.max_privileged <= 2);
        let st = sim.stats();
        let laps = st.rules_executed as f64 / (3.0 * n as f64);
        table.row(vec![
            n.to_string(),
            s.zero_privileged_time.to_string(),
            s.max_privileged.to_string(),
            st.rules_executed.to_string(),
            format!("{laps:.1}"),
            format!("{:.0}", t_end as f64 / laps.max(1e-9)),
            format!("{:.1}", st.transmissions as f64 / n as f64 / (t_end as f64 / 1000.0)),
            st.events.to_string(),
            format!("{:.0}", wall * 1e3),
            format!("{:.3e}", st.events as f64 / wall),
            format!("{:.0}", wall * 1e9 / st.events as f64),
        ]);
    }
    print!("{}", table.render());
    println!(
        "\nZero-token time stays identically 0 from n = 8 to n = 4096; the\n\
         per-node gossip rate is flat (the protocol is strictly local), and\n\
         the lap time grows linearly — the duty cycle falls as 1.5/n, which\n\
         is what makes larger rings *more* energy-sustainable (E11).\n\
         The host columns depend on the machine; events per simulated tick\n\
         grow with n because every node keeps gossiping on its timer."
    );
}
