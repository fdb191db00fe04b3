//! `wsyn` — command-line interface for deterministic maximum-error wavelet
//! synopses.
//!
//! ```text
//! wsyn generate --kind zipf --n 256 --seed 7 --out data.txt
//! wsyn transform --input data.txt
//! wsyn build --input data.txt --budget 16 --metric rel:1.0 --algo minmax --out syn.json
//! wsyn eval --synopsis syn.json --input data.txt --metric rel:1.0
//! wsyn query --synopsis syn.json point 5
//! wsyn query --synopsis syn.json range 0 64
//! ```
//!
//! Input files hold one `f64` per line (blank lines and `#` comments
//! ignored); synopses are stored as JSON.

use std::io::{ErrorKind, Stdout, Write};
use std::process::ExitCode;

mod args;
mod commands;
mod io;

/// Standard output for every command. A reader that closes the pipe
/// early (`wsyn families | head -1`) is not an error: the rest of the
/// output is dropped, and the command still finishes, files included.
struct Output {
    stdout: Stdout,
    closed: bool,
}

impl Write for Output {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        if !self.closed {
            match self.stdout.write(buf) {
                Err(e) if e.kind() == ErrorKind::BrokenPipe => self.closed = true,
                r => return r,
            }
        }
        Ok(buf.len())
    }

    fn flush(&mut self) -> std::io::Result<()> {
        if !self.closed {
            match self.stdout.flush() {
                Err(e) if e.kind() == ErrorKind::BrokenPipe => self.closed = true,
                r => return r,
            }
        }
        Ok(())
    }
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut out = Output {
        stdout: std::io::stdout(),
        closed: false,
    };
    match commands::dispatch(&argv, &mut out)
        .and_then(|()| out.flush().map_err(|e| format!("cannot write output: {e}")))
    {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!();
            eprintln!("{}", commands::USAGE);
            ExitCode::FAILURE
        }
    }
}
