//! Experiment T3: see `cioq_experiments::suite::t3_bursty`. Pass `--quick`
//! for a reduced-scale run, `--markdown` for markdown output.
fn main() {
    let quick = cioq_experiments::quick_mode();
    let markdown = std::env::args().any(|a| a == "--markdown");
    for table in cioq_experiments::suite::t3_bursty(quick) {
        if markdown {
            println!("{}", table.to_markdown());
        } else {
            table.print();
        }
    }
}
