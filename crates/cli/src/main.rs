//! The `ftsched` command-line tool. See [`ftsched_cli::usage`].

use std::io::Write;

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let printed = ftsched_cli::run(&argv).and_then(|msg| {
        let mut stdout = std::io::stdout();
        stdout
            .write_all(msg.as_bytes())
            .and_then(|()| stdout.flush())
            .map_err(|e| format!("writing stdout: {e}"))
    });
    if let Err(err) = printed {
        eprintln!("error: {err}");
        std::process::exit(1);
    }
}
