//! Socket mode: one blocking session thread per admitted connection.
//!
//! An acceptor thread blocks in `accept`. Each admitted connection gets a
//! session thread that frames request lines with the pipe mode's bounded
//! reader, calls [`Server::handle_line`], and writes each response with a
//! single `write_all`. The kernel wakes a session as soon as its bytes
//! arrive, so nothing polls. A session handles one line at a time, so its
//! responses stay in request order, and a client that stops reading blocks
//! only its own session.
//!
//! Concurrency is bounded at two doors:
//!
//! * at most `config.workers` requests execute at once — a counting gate
//!   around `handle_line`, whose permit is an RAII guard so a contained
//!   request panic still returns it;
//! * a connection arriving while `workers + queue_capacity` sessions are
//!   live is answered with the `overloaded` response and closed (and a
//!   `repair` arriving while `queue_capacity` repairs are in flight gets
//!   the same response from [`Server::handle_line`]).
//!
//! The drain (no signal handler — drains start from a `shutdown` op or
//! [`TcpServer::shutdown`]): the draining flag flips, the read half of
//! every live stream is shut down so blocked reads return, and one
//! loopback connect wakes the acceptor, which then stops accepting. A
//! session checks the flag after every read, so a request it has already
//! dispatched is answered before its connection closes, and a line read
//! after the drain began is dropped unanswered.
//!
//! Every session ends with a lingering close: it shuts its write half, so
//! the peer gets every answer and then EOF, and discards input until EOF
//! (bounded in time and bytes) before it drops the socket. Dropping a
//! socket with unread input makes the kernel reset the connection, which
//! can destroy answers still in the send buffer — the normal case for a
//! client that pipelined lines past a `shutdown`. Once the drain has shut
//! a stream's read half, that EOF comes as soon as the input received so
//! far is discarded, not when the peer closes.

use crate::proto::RowBatch;
use crate::server::{read_bounded_line, LineRead, Server};
use crate::{lock, proto};
use std::collections::BTreeMap;
use std::io::{self, BufReader, Read, Write};
use std::net::{Ipv4Addr, Ipv6Addr, Shutdown, SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::{Arc, Condvar, Mutex, PoisonError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Longest a closing session waits for the peer's EOF.
const LINGER_TIMEOUT: Duration = Duration::from_secs(1);

/// Most unread input a closing session discards while it waits.
const LINGER_MAX_BYTES: usize = 1 << 20;

/// A running TCP front-end.
pub struct TcpServer {
    addr: SocketAddr,
    shared: Arc<Shared>,
    acceptor: Option<JoinHandle<()>>,
}

/// State shared by the acceptor, the sessions and the embedder.
struct Shared {
    server: Arc<Server>,
    /// Where the drain's wake-up connect goes.
    wake_addr: SocketAddr,
    /// A clone of every live session's stream, by session id: the
    /// admission count, and the handles the drain shuts down.
    live: Mutex<BTreeMap<u64, TcpStream>>,
    /// Requests inside `handle_line` right now (at most `config.workers`).
    running: Mutex<usize>,
    permit_freed: Condvar,
}

/// One execution slot of the gate; returned on drop, unwinding included.
struct Permit<'a>(&'a Shared);

impl Drop for Permit<'_> {
    fn drop(&mut self) {
        *lock(&self.0.running) -= 1;
        self.0.permit_freed.notify_one();
    }
}

impl Shared {
    /// Wait until fewer than `config.workers` requests are executing.
    fn permit(&self) -> Permit<'_> {
        let limit = self.server.config().workers.max(1);
        let mut running = lock(&self.running);
        while *running >= limit {
            running = self
                .permit_freed
                .wait(running)
                .unwrap_or_else(PoisonError::into_inner);
        }
        *running += 1;
        Permit(self)
    }

    /// Handle one request line under an execution permit.
    fn execute(&self, line: &str, batch: &mut RowBatch) -> (String, bool) {
        let _permit = self.permit();
        self.server.handle_line(line, batch)
    }

    /// Begin the drain: flip the flag, unblock every session's read, and
    /// wake the acceptor out of `accept`.
    fn drain(&self) {
        self.server.begin_drain();
        for stream in lock(&self.live).values() {
            let _ = stream.shutdown(Shutdown::Read);
        }
        // The acceptor re-checks the flag on every accepted connection; if
        // this connect fails it stops at the next real client instead.
        let _ = TcpStream::connect(self.wake_addr);
    }
}

impl TcpServer {
    /// Bind `addr` (e.g. `"127.0.0.1:0"`) and start the acceptor thread.
    pub fn bind(server: Arc<Server>, addr: impl ToSocketAddrs) -> io::Result<TcpServer> {
        let listener = TcpListener::bind(addr)?;
        let addr = listener.local_addr()?;
        let mut wake_addr = addr;
        if wake_addr.ip().is_unspecified() {
            wake_addr.set_ip(match wake_addr {
                SocketAddr::V4(_) => Ipv4Addr::LOCALHOST.into(),
                SocketAddr::V6(_) => Ipv6Addr::LOCALHOST.into(),
            });
        }
        let shared = Arc::new(Shared {
            server,
            wake_addr,
            live: Mutex::new(BTreeMap::new()),
            running: Mutex::new(0),
            permit_freed: Condvar::new(),
        });
        let acceptor = {
            let shared = Arc::clone(&shared);
            std::thread::spawn(move || accept_loop(&shared, &listener))
        };
        Ok(TcpServer {
            addr,
            shared,
            acceptor: Some(acceptor),
        })
    }

    /// The bound address (useful with port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Begin a graceful drain from outside the protocol.
    pub fn shutdown(&self) {
        self.shared.drain();
    }

    /// Wait for the drain to complete and every thread to exit.
    pub fn join(mut self) {
        if let Some(handle) = self.acceptor.take() {
            let _ = handle.join();
        }
    }
}

/// Answer an over-capacity connection with the backpressure response. The
/// socket is fresh (empty send buffer), so one short line goes out at
/// once; the timeout only bounds a pathological peer.
fn refuse(mut stream: TcpStream, server: &Server) {
    server.metrics().record_overloaded();
    let _ = stream.set_write_timeout(Some(Duration::from_millis(100)));
    let _ = writeln!(stream, "{}", proto::overloaded());
}

/// Accept until the drain begins, then join every session.
fn accept_loop(shared: &Arc<Shared>, listener: &TcpListener) {
    let config = shared.server.config();
    let admit_cap = config.workers.max(1) + config.queue_capacity;
    let mut sessions: Vec<JoinHandle<()>> = Vec::new();
    let mut next_id = 0u64;
    for stream in listener.incoming() {
        let (done, running): (Vec<_>, Vec<_>) =
            sessions.into_iter().partition(JoinHandle::is_finished);
        sessions = running;
        for handle in done {
            let _ = handle.join();
        }
        let Ok(stream) = stream else { continue };
        let mut live = lock(&shared.live);
        // Checked under the registry lock: a drain either sees this
        // session registered or this check sees the drain.
        if shared.server.is_draining() {
            break;
        }
        if live.len() >= admit_cap {
            drop(live);
            refuse(stream, &shared.server);
            continue;
        }
        // Small response lines must not wait for delayed ACKs.
        if stream.set_nodelay(true).is_err() {
            continue;
        }
        let Ok(registered) = stream.try_clone() else {
            continue;
        };
        let id = next_id;
        next_id += 1;
        live.insert(id, registered);
        drop(live);
        let session_shared = Arc::clone(shared);
        match std::thread::Builder::new()
            .name("er-serve-session".into())
            .spawn(move || session(&session_shared, id, &stream))
        {
            Ok(handle) => sessions.push(handle),
            Err(_) => {
                lock(&shared.live).remove(&id);
            }
        }
    }
    for handle in sessions {
        let _ = handle.join();
    }
}

/// Serve one connection until EOF, a socket error, a `stop` response, or
/// the drain.
fn session(shared: &Shared, id: u64, stream: &TcpStream) {
    let server = &shared.server;
    let mut reader = BufReader::new(stream);
    let mut writer = stream;
    // One reusable row buffer for the whole connection.
    let mut batch = RowBatch::new();
    loop {
        let read = read_bounded_line(&mut reader, server.config().max_line_bytes);
        if server.is_draining() {
            break;
        }
        let (mut response, stop) = match read {
            Ok(LineRead::Line(line)) if line.trim().is_empty() => continue,
            Ok(LineRead::Line(line)) => shared.execute(&line, &mut batch),
            Ok(LineRead::TooLong) => (server.line_too_long(), false),
            Ok(LineRead::Eof) | Err(_) => break,
        };
        response.push('\n');
        let sent = writer.write_all(response.as_bytes()).is_ok();
        if stop {
            shared.drain();
        }
        if stop || !sent {
            break;
        }
    }
    linger_close(stream);
    lock(&shared.live).remove(&id);
}

/// Shut the write half, then discard input until the peer's EOF, an
/// error, [`LINGER_TIMEOUT`] or [`LINGER_MAX_BYTES`]. Input the session's
/// reader had already buffered is dropped with it.
fn linger_close(mut stream: &TcpStream) {
    if stream.shutdown(Shutdown::Write).is_err() {
        return;
    }
    let deadline = Instant::now() + LINGER_TIMEOUT;
    let mut scratch = [0u8; 8192];
    let mut discarded = 0usize;
    while discarded < LINGER_MAX_BYTES {
        let left = deadline.saturating_duration_since(Instant::now());
        if left.is_zero() || stream.set_read_timeout(Some(left)).is_err() {
            return;
        }
        match stream.read(&mut scratch) {
            Ok(0) | Err(_) => return,
            Ok(n) => discarded += n,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::tests::covid_task;
    use crate::{RepairEngine, ServeConfig};
    use er_rules::EditingRule;
    use std::io::BufRead;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::{mpsc, Barrier};

    fn call(addr: SocketAddr, requests: &[&str]) -> Vec<String> {
        let stream = TcpStream::connect(addr).unwrap();
        // A session that died must fail the test, not hang it.
        stream
            .set_read_timeout(Some(Duration::from_secs(10)))
            .unwrap();
        let mut reader = BufReader::new(stream.try_clone().unwrap());
        let mut writer = stream;
        requests
            .iter()
            .map(|request| {
                writeln!(writer, "{request}").unwrap();
                let mut line = String::new();
                reader.read_line(&mut line).unwrap();
                line.trim_end().to_string()
            })
            .collect()
    }

    #[test]
    fn contained_panics_return_their_permits_and_slots() {
        const WORKERS: usize = 2;
        const PANICS: usize = 3;
        let rules = vec![EditingRule::new(vec![(0, 0)], (1, 1), vec![])];
        let engine = RepairEngine::new(&covid_task(), rules, 0).unwrap();
        let mut server = Server::new(
            engine,
            ServeConfig {
                workers: WORKERS,
                ..ServeConfig::default()
            },
        );
        // The first PANICS repairs panic while holding their permit and
        // backpressure slot; later ones meet at a rendezvous that only
        // opens once WORKERS repairs are executing at the same time.
        let calls = AtomicUsize::new(0);
        let rendezvous = Barrier::new(WORKERS);
        server.repair_hook = Some(Box::new(move || {
            if calls.fetch_add(1, Ordering::SeqCst) < PANICS {
                panic!("injected request panic");
            }
            rendezvous.wait();
        }));
        let tcp = TcpServer::bind(Arc::new(server), "127.0.0.1:0").unwrap();
        let addr = tcp.local_addr();
        let repair = r#"{"op":"repair","rows":[["HZ",null]]}"#;

        // Each panic is answered, and the connection stays open.
        let mut requests = vec![repair; PANICS];
        requests.push(r#"{"op":"stats"}"#);
        let responses = call(addr, &requests);
        for response in &responses[..PANICS] {
            assert_eq!(response, &proto::error("internal error"));
        }
        let stats = &responses[PANICS];
        assert!(stats.contains(&format!("\"panics\":{PANICS}")), "{stats}");
        assert!(stats.contains("\"queue_depth\":0"), "slot leaked: {stats}");

        let (done_tx, done_rx) = mpsc::channel();
        let clients: Vec<_> = (0..WORKERS)
            .map(|_| {
                let done = done_tx.clone();
                std::thread::spawn(move || done.send(call(addr, &[repair])).unwrap())
            })
            .collect();
        for _ in 0..WORKERS {
            let responses = done_rx
                .recv_timeout(Duration::from_secs(10))
                .expect("a panic leaked an execution permit");
            assert!(responses[0].contains("\"ok\":true"), "{responses:?}");
        }
        for client in clients {
            client.join().unwrap();
        }
        tcp.shutdown();
        tcp.join();
    }
}
