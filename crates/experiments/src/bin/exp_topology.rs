//! S3 — topology-aware fabric sweep: run GM/PG/CGU/CPG through
//! `FabricSpec::matrix` fabrics over a two-tier rack model (2 racks,
//! chassis-local intra-rack pairs, cross-rack latency inter ∈
//! {0, 1, 2, 4, 8}), reporting competitive-ratio and backlog degradation
//! versus the immediate fabric, with a sharded (K = 2) agreement tripwire
//! per point. Pass `--quick` for reduced scale, `--markdown` for markdown
//! output.

use cioq_experiments::suite;

fn main() {
    let quick = cioq_experiments::quick_mode();
    let markdown = std::env::args().any(|a| a == "--markdown");
    for table in suite::s3_topology(quick) {
        if markdown {
            println!("{}", table.to_markdown());
        } else {
            table.print();
        }
    }
}
