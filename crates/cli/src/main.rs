//! `xbfs` — command-line front end for the XBFS reproduction.

mod args;
mod commands;

fn main() {
    let parsed = match args::Args::parse(std::env::args().skip(1), commands::is_flag) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(commands::exit_code::USAGE);
        }
    };
    match commands::dispatch(&parsed) {
        Ok(out) => print!("{out}"),
        Err(e) => {
            eprintln!("error: {}", e.message);
            std::process::exit(e.code);
        }
    }
}
