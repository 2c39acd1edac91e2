//! The `lukewarm` binary: see [`lukewarm_cli`] for commands.

use std::io::{ErrorKind, Write};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let output = match lukewarm_cli::run_cli(&args) {
        Ok(output) => output,
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(e.code);
        }
    };
    let mut stdout = std::io::stdout().lock();
    match writeln!(stdout, "{output}").and_then(|()| stdout.flush()) {
        Ok(()) => {}
        // A reader that stops early (`lukewarm list | head -1`) has all it
        // asked for.
        Err(e) if e.kind() == ErrorKind::BrokenPipe => {}
        Err(e) => {
            eprintln!("error: writing output: {e}");
            std::process::exit(1);
        }
    }
}
