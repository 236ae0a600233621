//! One worker process of a shard cluster.
//!
//! `cscv-shard-worker --socket PATH` connects to the coordinator's
//! listening socket and serves its shard until told to shut down; the
//! shard, the matrix and all solver traffic arrive over the socket. A
//! coordinator launches it with
//! `Launch::Process { cmd: vec![path_to_this_binary] }`.
//!
//! Exit codes: 0 = clean shutdown, 1 = the session failed, 2 = usage.

use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let [flag, socket] = args.as_slice() else {
        return usage();
    };
    if flag != "--socket" {
        return usage();
    }
    match cscv_shard::worker::run_process(socket) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("cscv-shard-worker: {e}");
            ExitCode::FAILURE
        }
    }
}

fn usage() -> ExitCode {
    eprintln!("usage: cscv-shard-worker --socket PATH");
    ExitCode::from(2)
}
