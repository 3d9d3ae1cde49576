//! # anr-cli — command-line interface for the optimal-marching library
//!
//! A small hand-rolled CLI (no argument-parsing dependencies) exposing
//! the reproduction's main entry points:
//!
//! ```text
//! anr scenario --id 3 --method a          # run one scenario, print metrics
//! anr sweep --id 1 --quick                # Fig.3-style CSV sweep
//! anr render --id 3 --out figures/        # SVG deployments before/after
//! anr mission --stops 3                   # a sequential multi-FoI tour
//! anr fault-sweep --loss 0,0.1,0.3        # protocol survival grid (JSON)
//! ```
//!
//! The argument parser and command runners live in this library crate so
//! they are unit-testable; `src/main.rs` is a thin wrapper.

#![forbid(unsafe_code)]
#![deny(unreachable_pub)]
#![warn(missing_docs)]

mod args;
mod commands;

pub use args::{parse_args, parse_invocation, ArgError, Command, Invocation, MethodArg};
pub use commands::{run_command, run_command_traced, CliError};
