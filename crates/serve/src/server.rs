//! The TCP front end: blocking worker threads sharing one listener and
//! one [`QueryIndex`].
//!
//! Workers race on `accept` — the kernel hands each incoming connection
//! to exactly one — and then serve that connection to completion, one
//! request line at a time. Because every answer is a pure function of
//! `(index, request line)`, the worker count is a throughput knob only:
//! any client sees byte-identical answers at any `workers` setting, a
//! contract the crate's determinism tests pin.

use std::io::{self, BufRead, BufReader, BufWriter, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use crate::index::{encode, QueryIndex, Reply};

/// Longest request line accepted, newline included. A worker buffers one
/// line at a time, so this bounds its memory per connection.
const MAX_REQUEST_BYTES: usize = 64 * 1024;

/// How long a connection may sit between requests before the server
/// closes it. A connection owns its worker for as long as it is open, so
/// without a deadline `workers` silent clients would park every worker.
const IDLE_TIMEOUT: Duration = Duration::from_secs(5);

/// How the server binds and scales.
#[derive(Clone, Debug)]
pub struct ServerConfig {
    /// TCP port to bind on 127.0.0.1; `0` picks an ephemeral port (read
    /// it back from [`ServerHandle::addr`]).
    pub port: u16,
    /// Worker threads sharing the accept loop. Clamped to at least 1.
    pub workers: usize,
}

impl Default for ServerConfig {
    fn default() -> ServerConfig {
        ServerConfig {
            port: 0,
            workers: 4,
        }
    }
}

/// Lifetime counters, exported as `serve.*` observability metrics.
/// `SeqCst` everywhere: these are cross-thread totals folded into
/// deterministic dumps, never hot-path-critical.
#[derive(Default)]
struct Counters {
    connections: AtomicU64,
    queries: AtomicU64,
    errors: AtomicU64,
}

/// The running server: worker threads plus the shared state needed to
/// stop them and to export their counters.
pub struct ServerHandle {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    threads: Vec<JoinHandle<()>>,
    counters: Arc<Counters>,
    index: Arc<QueryIndex>,
}

impl ServerHandle {
    /// The bound address (resolves ephemeral ports).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// `(connections, queries, errors)` served so far.
    pub fn stats(&self) -> (u64, u64, u64) {
        (
            self.counters.connections.load(Ordering::SeqCst),
            self.counters.queries.load(Ordering::SeqCst),
            self.counters.errors.load(Ordering::SeqCst),
        )
    }

    /// Folds the server's counters and the class index's into `obs`.
    pub fn observe_into(&self, obs: &mut mfv_obs::Obs) {
        let (conns, queries, errors) = self.stats();
        obs.metrics.inc("serve.connections", conns);
        obs.metrics.inc("serve.queries", queries);
        obs.metrics.inc("serve.errors", errors);
        self.index.observe_into(obs);
    }

    /// Blocks until the worker threads exit — i.e. forever, unless
    /// something else stops the process. `mfvctl serve` parks on this
    /// after printing the bound address.
    pub fn wait(self) {
        for t in self.threads {
            let _ = t.join();
        }
    }

    /// Stops accepting, wakes every worker parked in `accept`, and joins
    /// them. Workers finish their in-flight connection first — at most
    /// [`IDLE_TIMEOUT`] after its last request — so callers should close
    /// client connections before shutting down.
    pub fn shutdown(self) {
        self.stop.store(true, Ordering::SeqCst);
        // One self-connection per worker: each wakes exactly one accept
        // call, whose worker then observes the stop flag and exits.
        for _ in 0..self.threads.len() {
            let _ = TcpStream::connect(self.addr);
        }
        for t in self.threads {
            let _ = t.join();
        }
    }
}

/// Starts the query server; use [`ServerHandle::shutdown`] to stop it.
pub struct Server;

impl Server {
    pub fn start(index: Arc<QueryIndex>, cfg: &ServerConfig) -> io::Result<ServerHandle> {
        let listener = TcpListener::bind(("127.0.0.1", cfg.port))?;
        let addr = listener.local_addr()?;
        let listener = Arc::new(listener);
        let stop = Arc::new(AtomicBool::new(false));
        let counters = Arc::new(Counters::default());
        let workers = cfg.workers.max(1);
        let mut threads = Vec::with_capacity(workers);
        for _ in 0..workers {
            let listener = Arc::clone(&listener);
            let stop = Arc::clone(&stop);
            let counters = Arc::clone(&counters);
            let index = Arc::clone(&index);
            threads.push(std::thread::spawn(move || {
                worker_loop(&listener, &stop, &index, &counters);
            }));
        }
        Ok(ServerHandle {
            addr,
            stop,
            threads,
            counters,
            index,
        })
    }
}

fn worker_loop(listener: &TcpListener, stop: &AtomicBool, index: &QueryIndex, counters: &Counters) {
    loop {
        let conn = match listener.accept() {
            Ok((conn, _)) => conn,
            Err(_) => {
                if stop.load(Ordering::SeqCst) {
                    return;
                }
                continue;
            }
        };
        if stop.load(Ordering::SeqCst) {
            return;
        }
        counters.connections.fetch_add(1, Ordering::SeqCst);
        // A client-side I/O failure kills that connection only.
        let _ = serve_connection(conn, index, counters);
    }
}

/// Serves one connection: one request line in, one length-prefixed reply
/// out, until `QUIT`, EOF, [`IDLE_TIMEOUT`] without a request, or a line
/// over [`MAX_REQUEST_BYTES`] (answered with `ERR`, then closed: what
/// follows an unterminated line cannot be framed).
fn serve_connection(conn: TcpStream, index: &QueryIndex, counters: &Counters) -> io::Result<()> {
    conn.set_read_timeout(Some(IDLE_TIMEOUT))?;
    let mut reader = BufReader::new(conn.try_clone()?);
    let mut writer = BufWriter::new(conn);
    let mut line = Vec::new();
    // One byte past the cap, so an over-long line is told from a full one.
    let cap = MAX_REQUEST_BYTES as u64 + 1;
    loop {
        line.clear();
        if reader.by_ref().take(cap).read_until(b'\n', &mut line)? == 0 {
            return Ok(()); // client closed
        }
        if line.len() > MAX_REQUEST_BYTES {
            counters.queries.fetch_add(1, Ordering::SeqCst);
            counters.errors.fetch_add(1, Ordering::SeqCst);
            let reply = Reply::Err(format!("request line exceeds {MAX_REQUEST_BYTES} bytes"));
            writer.write_all(&encode(&reply))?;
            return writer.flush();
        }
        let trimmed = std::str::from_utf8(&line)
            .map_err(|_| io::Error::new(io::ErrorKind::InvalidData, "request is not UTF-8"))?
            .trim();
        if trimmed.is_empty() {
            continue;
        }
        counters.queries.fetch_add(1, Ordering::SeqCst);
        let reply = if trimmed == "STATS" {
            // Served here, not in the index: stats are server state and
            // deliberately outside the deterministic-answer contract.
            let (conns, queries, errors) = (
                counters.connections.load(Ordering::SeqCst),
                counters.queries.load(Ordering::SeqCst),
                counters.errors.load(Ordering::SeqCst),
            );
            let stats = index.index_stats();
            Reply::Ok(format!(
                "connections {conns}\nqueries {queries}\nerrors {errors}\n\
                 atoms {}\nclasses {}\ncyclic_classes {}\nfates_computed {}\n\
                 lookups {}\nnodes {}",
                stats.atoms,
                stats.classes,
                stats.cyclic_classes,
                stats.fates_computed,
                stats.lookups,
                index.node_names().len()
            ))
        } else {
            index.handle(trimmed)
        };
        if matches!(reply, Reply::Err(_)) {
            counters.errors.fetch_add(1, Ordering::SeqCst);
        }
        writer.write_all(&encode(&reply))?;
        writer.flush()?;
        if matches!(reply, Reply::Quit) {
            return Ok(());
        }
    }
}

/// A minimal blocking client for the wire protocol — used by `mfvctl
/// query`, the smoke script, and the determinism tests. Sends one request
/// line, reads one length-prefixed reply, returns `(ok, payload)`.
pub fn query_once(
    reader: &mut impl BufRead,
    writer: &mut impl Write,
    request: &str,
) -> io::Result<(bool, String)> {
    writer.write_all(request.as_bytes())?;
    writer.write_all(b"\n")?;
    writer.flush()?;
    let mut header = String::new();
    if reader.read_line(&mut header)? == 0 {
        return Err(io::Error::new(
            io::ErrorKind::UnexpectedEof,
            "server closed before replying",
        ));
    }
    if !header.ends_with('\n') {
        return Err(io::Error::new(
            io::ErrorKind::UnexpectedEof,
            "reply header cut short",
        ));
    }
    let mut parts = header.split_whitespace();
    let tag = parts.next().unwrap_or("");
    let ok = match tag {
        "OK" => true,
        "ERR" => false,
        other => {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!("bad reply header tag '{other}'"),
            ))
        }
    };
    let len: usize = parts
        .next()
        .and_then(|l| l.parse().ok())
        .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidData, "bad reply length"))?;
    // The claimed length is allocated up front only up to 64 KiB; past that
    // the payload grows as it arrives, so a header cannot make the client
    // allocate what never comes.
    let mut payload = Vec::with_capacity(len.min(64 << 10));
    reader.take(len as u64).read_to_end(&mut payload)?;
    if payload.len() < len {
        return Err(io::Error::new(
            io::ErrorKind::UnexpectedEof,
            "reply payload cut short",
        ));
    }
    let text = String::from_utf8(payload)
        .map_err(|_| io::Error::new(io::ErrorKind::InvalidData, "non-UTF-8 payload"))?;
    Ok((ok, text))
}
