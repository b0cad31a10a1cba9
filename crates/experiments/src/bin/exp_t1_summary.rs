//! Experiment T1: see `cioq_experiments::suite::t1_summary`. Pass `--quick`
//! for a reduced-scale run, `--markdown` for markdown output.
fn main() {
    let quick = cioq_experiments::quick_mode();
    let markdown = std::env::args().any(|a| a == "--markdown");
    for table in cioq_experiments::suite::t1_summary(quick) {
        if markdown {
            println!("{}", table.to_markdown());
        } else {
            table.print();
        }
    }
}
