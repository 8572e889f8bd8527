//! The `melreq` command-line tool. See `melreq help`.

use melreq_cli::{parse_args, run_command};
use melreq_core::api::MelreqError;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = parse_args(&args).map_err(MelreqError::Usage).and_then(|inv| run_command(&inv));
    match result {
        Ok(out) => println!("{out}"),
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(e.exit_code());
        }
    }
}
