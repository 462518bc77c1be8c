//! `perfbench --workload NAME --seed N --seconds S --trace 0|1`
//!
//! Runs one workload of the umtslab benchmark; the last line of standard
//! output is the JSON result. Exits 2 on a bad command line.

use umtslab_perfbench::{run, Args};

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match Args::parse(&argv) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload fleet_voip|paper_campaign|tcp_rrc --seed N \
                 --seconds S [--trace 0|1]"
            );
            std::process::exit(2);
        }
    };
    let outcome = run(&args);
    println!("{}", outcome.json());
}
