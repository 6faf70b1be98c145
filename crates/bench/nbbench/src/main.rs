//! `nbbench --workload <name> [--seed <n>] [--seconds <s>] [--trace <0|1>]`
//!
//! Prints a report and, as the last line of standard output, one JSON
//! object `{"correct", "attempted", "failed", "metrics"}`. Exits 1 when an
//! output check fails and 2 on a bad command line.

fn main() {
    // The tuned-kernel cache lives outside the working directory; pin the
    // static kernel choice unless the caller asked for something else.
    if std::env::var_os("NB_AUTOTUNE").is_none() {
        std::env::set_var("NB_AUTOTUNE", "off");
    }
    let args = match nbbench::parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("nbbench: {e}\n{}", nbbench::USAGE);
            std::process::exit(2);
        }
    };
    std::process::exit(nbbench::run(&args));
}
