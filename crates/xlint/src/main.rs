//! CLI entry point:
//! `cargo run -p xlint [-- --json|--sarif] [--changed[=BASE]] [--root DIR]`.
//!
//! Lints the whole workspace. `--changed` analyzes the workspace but
//! reports only violations in files differing from BASE (default HEAD).
//! Exit codes: `0` clean, `1` unsuppressed violations, `2` usage or I/O
//! error.

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

#[derive(Clone, Copy, PartialEq)]
enum Format {
    Human,
    Json,
    Sarif,
}

fn main() -> ExitCode {
    let mut format = Format::Human;
    let mut root = PathBuf::from(".");
    let mut changed: Option<String> = None;

    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--json" => format = Format::Json,
            "--sarif" => format = Format::Sarif,
            "--changed" => changed = Some("HEAD".to_string()),
            "--root" => match args.next() {
                Some(dir) => root = PathBuf::from(dir),
                None => {
                    eprintln!("xlint: --root requires a directory argument");
                    return ExitCode::from(EXIT_USAGE);
                }
            },
            "--help" | "-h" => {
                println!(
                    "usage: xlint [--json|--sarif] [--changed[=BASE]] [--root DIR]\n\n\
                     Lints the workspace against the rule catalogue in CONTRIBUTING.md.\n\
                     Modes:\n\
                     \x20 (default)        the whole workspace\n\
                     \x20 --changed[=BASE] analyze everything, report only files in\n\
                     \x20                  `git diff --name-only BASE` (default HEAD)\n\
                     Output: --json (stable schema) or --sarif (GitHub code scanning).\n\
                     Exit codes: 0 clean, 1 violations, 2 usage/IO error."
                );
                return ExitCode::SUCCESS;
            }
            _ if arg.starts_with("--changed=") => {
                changed = Some(arg["--changed=".len()..].to_string());
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

    let result = match changed {
        Some(base) => xlint::run_changed(&root, &base),
        None => xlint::run_workspace(&root),
    };
    let report = match result {
        Ok(report) => report,
        Err(err) => {
            eprintln!("xlint: {err}");
            return ExitCode::from(EXIT_USAGE);
        }
    };

    match format {
        Format::Human => print!("{}", report.render_human()),
        Format::Json => print!("{}", report.render_json()),
        Format::Sarif => print!("{}", report.render_sarif()),
    }
    if report.is_clean() {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(EXIT_VIOLATIONS)
    }
}
