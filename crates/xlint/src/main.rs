//! CLI entry point: `cargo run -p xlint [-- --sarif] [--root DIR]`.
//!
//! Lints the whole workspace. Exit codes: `0` clean, `1` unsuppressed
//! violations, `2` usage or I/O error.

#![allow(
    clippy::print_stdout,
    clippy::print_stderr,
    reason = "the lint tool's own terminal output"
)]

use std::path::PathBuf;
use std::process::ExitCode;

/// Exit codes, mirroring the `cli/src/exit.rs` registry (xlint cannot
/// depend on the CLI crate; `exit-code-registry` bans re-deriving these
/// as bare numerals anywhere else).
const EXIT_VIOLATIONS: u8 = 1;
const EXIT_USAGE: u8 = 2;

fn main() -> ExitCode {
    let mut sarif = false;
    let mut root = PathBuf::from(".");

    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--sarif" => sarif = true,
            "--root" => match args.next() {
                Some(dir) => root = PathBuf::from(dir),
                None => {
                    eprintln!("xlint: --root requires a directory argument");
                    return ExitCode::from(EXIT_USAGE);
                }
            },
            "--help" | "-h" => {
                println!(
                    "usage: xlint [--sarif] [--root DIR]\n\n\
                     Lints the workspace against the rule catalogue in CONTRIBUTING.md.\n\
                     Output: human-readable, or --sarif (GitHub code scanning).\n\
                     Exit codes: 0 clean, 1 violations, 2 usage/IO error."
                );
                return ExitCode::SUCCESS;
            }
            _ => {
                eprintln!("xlint: unknown argument `{arg}` (try --help)");
                return ExitCode::from(EXIT_USAGE);
            }
        }
    }

    if !root.join("Cargo.toml").is_file() {
        eprintln!(
            "xlint: {} does not look like a workspace root (no Cargo.toml); \
             run from the repo root or pass --root",
            root.display()
        );
        return ExitCode::from(EXIT_USAGE);
    }

    let report = match xlint::run_workspace(&root) {
        Ok(report) => report,
        Err(err) => {
            eprintln!("xlint: {err}");
            return ExitCode::from(EXIT_USAGE);
        }
    };

    if sarif {
        print!("{}", report.render_sarif());
    } else {
        print!("{}", report.render_human());
    }
    if report.is_clean() {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(EXIT_VIOLATIONS)
    }
}
