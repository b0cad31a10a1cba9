//! Run experiments of `cioq_experiments::suite` by id:
//! `exp <id>|all|list [--quick] [--markdown]`. `list` prints the ids,
//! `all` runs the whole suite in order; `--quick` is a reduced-scale run,
//! `--markdown` prints markdown tables.
use cioq_experiments::suite::EXPERIMENTS;
use std::time::Instant;

fn main() {
    let quick = cioq_experiments::quick_mode();
    let markdown = std::env::args().any(|a| a == "--markdown");
    let what = std::env::args().skip(1).find(|a| !a.starts_with("--"));
    let ids: Vec<&str> = EXPERIMENTS.iter().map(|&(id, _)| id).collect();
    let what = what.as_deref().unwrap_or("list");
    if what == "list" {
        println!("{}", ids.join(" "));
        return;
    }
    let all = what == "all";
    if !all && !ids.iter().any(|id| id.eq_ignore_ascii_case(what)) {
        eprintln!(
            "unknown experiment `{what}`; one of: all list {}",
            ids.join(" ")
        );
        std::process::exit(2);
    }
    // detlint: allow(D2) reason="progress log timestamps only; never feeds simulation state"
    let start = Instant::now();
    for (id, run) in EXPERIMENTS {
        if !all && !id.eq_ignore_ascii_case(what) {
            continue;
        }
        // detlint: allow(D2) reason="progress log timestamps only; never feeds simulation state"
        let t0 = Instant::now();
        let tables = run(quick);
        eprintln!(
            "[{:>8.1?}] experiment {id} done in {:.1?}",
            start.elapsed(),
            t0.elapsed()
        );
        for table in tables {
            if markdown {
                println!("{}", table.to_markdown());
            } else {
                table.print();
            }
        }
    }
}
