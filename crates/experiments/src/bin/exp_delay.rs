//! S2 — latency-aware fabric sweep: run GM/PG/CGU/CPG through uniform
//! `FabricSpec::uniform(d)` fabrics at d ∈ {0, 1, 2, 4, 8}, reporting competitive-ratio and
//! backlog degradation versus the zero-latency fabric, with a sharded
//! (K ∈ {2, 4}) agreement tripwire per point. Pass `--quick` for reduced
//! scale, `--markdown` for markdown output.

use cioq_experiments::suite;

fn main() {
    let quick = cioq_experiments::quick_mode();
    let markdown = std::env::args().any(|a| a == "--markdown");
    for table in suite::s2_delay(quick) {
        if markdown {
            println!("{}", table.to_markdown());
        } else {
            table.print();
        }
    }
}
