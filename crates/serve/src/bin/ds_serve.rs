//! `ds-serve`: the passivity-check daemon.
//!
//! ```console
//! $ cargo run -p ds-serve --release -- --addr 127.0.0.1:7878 --store target/serve-store
//! ds-serve listening on http://127.0.0.1:7878
//! ```
//!
//! Options:
//!
//! * `--addr HOST:PORT` — bind address (default `127.0.0.1:7878`; port 0
//!   picks an ephemeral port, printed on the ready line);
//! * `--workers N` — worker-pool size (default: available parallelism);
//! * `--queue N` — bounded queue capacity, beyond which `/check` answers
//!   429 (default 64);
//! * `--cache N` — in-memory LRU capacity in entries (default 1024), and
//!   the most request bodies the memo of parsed decks keeps;
//! * `--store DIR` — persistent result store shared with `ds-sweep`
//!   (default: none — memory-only);
//! * `--max-body BYTES` — request-body cap (default 1 MiB), and the most
//!   body text the memo of parsed decks keeps in total.
//!
//! SIGINT/SIGTERM (or `POST /shutdown`) trigger graceful shutdown: the
//! queue drains, the store segment flushes, and the process exits 0.

use ds_serve::{signal, Server, ServerConfig};
use std::io::Write as _;
use std::process::ExitCode;
use std::time::Duration;

fn parse_args() -> Result<ServerConfig, String> {
    let mut config = ServerConfig::default();
    let mut iter = std::env::args().skip(1);
    while let Some(arg) = iter.next() {
        let mut value = |name: &str| iter.next().ok_or(format!("{name} needs a value"));
        match arg.as_str() {
            "--addr" => config.addr = value("--addr")?,
            "--workers" => {
                config.workers = value("--workers")?
                    .parse()
                    .map_err(|e| format!("--workers: {e}"))?
            }
            "--queue" => {
                config.queue_capacity = value("--queue")?
                    .parse()
                    .map_err(|e| format!("--queue: {e}"))?
            }
            "--cache" => {
                config.cache_capacity = value("--cache")?
                    .parse()
                    .map_err(|e| format!("--cache: {e}"))?
            }
            "--store" => config.store_dir = Some(value("--store")?.into()),
            "--max-body" => {
                config.max_body_bytes = value("--max-body")?
                    .parse()
                    .map_err(|e| format!("--max-body: {e}"))?
            }
            other => return Err(format!("unknown argument: {other}")),
        }
    }
    Ok(config)
}

fn main() -> ExitCode {
    let config = match parse_args() {
        Ok(config) => config,
        Err(message) => {
            eprintln!("ds-serve: {message}");
            return ExitCode::FAILURE;
        }
    };
    signal::install_handlers();
    let server = match Server::start(config) {
        Ok(server) => server,
        Err(error) => {
            eprintln!("ds-serve: {error}");
            return ExitCode::FAILURE;
        }
    };
    println!("ds-serve listening on http://{}", server.local_addr());
    let _ = std::io::stdout().flush();

    // `POST /shutdown` wakes this wait at once.  A signal handler can only
    // set a flag, so that flag is read between bounded waits.
    while !signal::shutdown_requested() && !server.wait_for_shutdown(Duration::from_millis(50)) {}
    eprintln!("ds-serve: shutting down (draining queue, flushing store)");
    match server.stop() {
        Ok(()) => {
            eprintln!("ds-serve: bye");
            ExitCode::SUCCESS
        }
        Err(error) => {
            eprintln!("ds-serve: shutdown failed: {error}");
            ExitCode::FAILURE
        }
    }
}
