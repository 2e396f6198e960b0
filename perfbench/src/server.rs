//! The `er-serve` child process and newline-delimited JSON connections to it.

use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::Path;
use std::process::{Child, ChildStderr, Command, Stdio};
use std::time::{Duration, Instant};

/// A running `er-serve --tcp` child. Dropping it kills and reaps the child.
pub struct ServerProc {
    child: Child,
    pub addr: SocketAddr,
    /// Kept open so the child never sees a closed stderr.
    _stderr: BufReader<ChildStderr>,
}

impl ServerProc {
    /// Start `er-serve` with `args` on an ephemeral loopback port and wait
    /// for its first `ping`. Returns the server and the seconds from spawn
    /// to that answer (ingest, index warm-up and start-up analysis included).
    pub fn start(bin: &Path, args: &[String]) -> Result<(ServerProc, f64), String> {
        let started = Instant::now();
        let mut child = Command::new(bin)
            .args(args)
            .args(["--tcp", "127.0.0.1:0"])
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::piped())
            .spawn()
            .map_err(|e| format!("cannot start {}: {e}", bin.display()))?;
        let Some(stderr) = child.stderr.take() else {
            let _ = child.kill();
            let _ = child.wait();
            return Err("er-serve stderr was not captured".into());
        };
        let mut stderr = BufReader::new(stderr);
        let addr = match read_listen_addr(&mut stderr) {
            Ok(a) => a,
            Err(e) => {
                let _ = child.kill();
                let _ = child.wait();
                return Err(e);
            }
        };
        let server = ServerProc {
            child,
            addr,
            _stderr: stderr,
        };
        let mut conn = Conn::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
        let pong = conn
            .call("{\"op\":\"ping\"}")
            .map_err(|e| format!("ping: {e}"))?;
        if !pong.starts_with("{\"ok\":true") {
            return Err(format!("unexpected ping answer: {pong}"));
        }
        Ok((server, started.elapsed().as_secs_f64()))
    }

    /// Peak resident set size of the child (`VmHWM`), MiB.
    pub fn peak_rss_mib(&self) -> Result<f64, String> {
        peak_rss_mib(self.child.id())
    }

    /// CPU time the child has used so far (user plus system), seconds.
    pub fn cpu_s(&self) -> Result<f64, String> {
        let pid = self.child.id();
        let stat = std::fs::read_to_string(format!("/proc/{pid}/stat"))
            .map_err(|e| format!("reading /proc/{pid}/stat: {e}"))?;
        // Fields after the parenthesized command: state is field 3, utime
        // and stime are fields 14 and 15, in clock ticks (100 per second on
        // Linux).
        let rest = stat.rsplit_once(')').map(|(_, r)| r).unwrap_or_default();
        let fields: Vec<&str> = rest.split_whitespace().collect();
        let ticks = |i: usize| fields.get(i - 3).and_then(|f| f.parse::<f64>().ok());
        match (ticks(14), ticks(15)) {
            (Some(u), Some(s)) => Ok((u + s) / 100.0),
            _ => Err(format!("no utime/stime in /proc/{pid}/stat")),
        }
    }

    /// Drain the server through the protocol and wait for it to exit.
    pub fn shutdown(mut self) -> Result<(), String> {
        if let Ok(mut conn) = Conn::connect(self.addr) {
            let _ = conn.call("{\"op\":\"shutdown\"}");
        }
        let deadline = Instant::now() + Duration::from_secs(30);
        loop {
            match self.child.try_wait() {
                Ok(Some(status)) if status.success() => return Ok(()),
                Ok(Some(status)) => return Err(format!("er-serve exited with {status}")),
                Ok(None) if Instant::now() < deadline => {
                    std::thread::sleep(Duration::from_millis(5))
                }
                Ok(None) => return Err("er-serve did not exit after shutdown".into()),
                Err(e) => return Err(format!("waiting for er-serve: {e}")),
            }
        }
    }
}

impl Drop for ServerProc {
    fn drop(&mut self) {
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
        }
        let _ = self.child.wait();
    }
}

fn read_listen_addr(stderr: &mut BufReader<ChildStderr>) -> Result<SocketAddr, String> {
    let mut log = String::new();
    loop {
        let mut line = String::new();
        match stderr.read_line(&mut line) {
            Ok(0) => return Err(format!("er-serve exited before listening:\n{log}")),
            Ok(_) => {}
            Err(e) => return Err(format!("reading er-serve stderr: {e}")),
        }
        if let Some(rest) = line.trim_end().split("listening on ").nth(1) {
            return rest
                .parse()
                .map_err(|e| format!("bad listen address {rest:?}: {e}"));
        }
        log.push_str(&line);
    }
}

/// `VmHWM` of a process, MiB.
pub fn peak_rss_mib(pid: u32) -> Result<f64, String> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status"))
        .map_err(|e| format!("reading /proc/{pid}/status: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM line".to_string())
}

/// Run `er-serve` in pipe mode over `script` (one request per line) and
/// return its response lines.
pub fn pipe_session(bin: &Path, args: &[String], script: &str) -> Result<Vec<String>, String> {
    let mut child = Command::new(bin)
        .args(args)
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .map_err(|e| format!("cannot start {}: {e}", bin.display()))?;
    let stdin = child.stdin.take();
    let stdout = child.stdout.take();
    let (Some(mut stdin), Some(mut stdout)) = (stdin, stdout) else {
        let _ = child.kill();
        let _ = child.wait();
        return Err("pipe-mode stdio was not captured".into());
    };
    // Feed stdin from a scoped thread while this one drains stdout, so
    // neither pipe can fill up and stall the child.
    let (written, out) = std::thread::scope(|s| {
        let writer = s.spawn(move || stdin.write_all(script.as_bytes()));
        let mut out = String::new();
        let read = stdout.read_to_string(&mut out);
        (writer.join(), read.map(|_| out))
    });
    let status = child
        .wait()
        .map_err(|e| format!("waiting for pipe session: {e}"))?;
    match written {
        Ok(Ok(())) => {}
        Ok(Err(e)) => return Err(format!("writing pipe session: {e}")),
        Err(_) => return Err("pipe writer panicked".into()),
    }
    let out = out.map_err(|e| format!("reading pipe session: {e}"))?;
    if !status.success() {
        return Err(format!("pipe session exited with {status}"));
    }
    Ok(out.lines().map(str::to_string).collect())
}

/// One NDJSON connection with its own line framing.
pub struct Conn {
    stream: TcpStream,
    buf: Vec<u8>,
    start: usize,
    out: Vec<u8>,
}

impl Conn {
    pub fn connect(addr: SocketAddr) -> io::Result<Conn> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        Ok(Conn {
            stream,
            buf: Vec::with_capacity(64 * 1024),
            start: 0,
            out: Vec::new(),
        })
    }

    pub fn send(&mut self, line: &str) -> io::Result<()> {
        self.out.clear();
        self.out.extend_from_slice(line.as_bytes());
        self.out.push(b'\n');
        self.stream.write_all(&self.out)
    }

    /// The next response line, or `None` if none completed within `timeout`
    /// (`None` timeout = wait as long as it takes).
    pub fn recv(&mut self, timeout: Option<Duration>) -> io::Result<Option<String>> {
        loop {
            if let Some(pos) = self.buf[self.start..].iter().position(|&b| b == b'\n') {
                let end = self.start + pos;
                let line = String::from_utf8_lossy(&self.buf[self.start..end]).into_owned();
                self.start = end + 1;
                if self.start == self.buf.len() {
                    self.buf.clear();
                    self.start = 0;
                }
                return Ok(Some(line));
            }
            if self.start > 0 {
                self.buf.drain(..self.start);
                self.start = 0;
            }
            if let Some(t) = timeout {
                if !wait_readable(&self.stream, t)? {
                    return Ok(None);
                }
            }
            let len = self.buf.len();
            self.buf.resize(len + 64 * 1024, 0);
            let read = self.stream.read(&mut self.buf[len..]);
            match read {
                Ok(0) => {
                    self.buf.truncate(len);
                    return Err(io::Error::new(
                        io::ErrorKind::UnexpectedEof,
                        "server closed",
                    ));
                }
                Ok(n) => self.buf.truncate(len + n),
                Err(e)
                    if matches!(
                        e.kind(),
                        io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
                    ) =>
                {
                    self.buf.truncate(len);
                    return Ok(None);
                }
                Err(e) => {
                    self.buf.truncate(len);
                    return Err(e);
                }
            }
        }
    }

    /// Send one request and wait for its answer.
    pub fn call(&mut self, line: &str) -> io::Result<String> {
        self.send(line)?;
        loop {
            if let Some(resp) = self.recv(None)? {
                return Ok(resp);
            }
        }
    }
}

/// `struct pollfd` of poll(2).
#[repr(C)]
struct PollFd {
    fd: i32,
    events: i16,
    revents: i16,
}

/// `struct timespec` on 64-bit Linux.
#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

const POLLIN: i16 = 1;

extern "C" {
    fn ppoll(fds: *mut PollFd, nfds: u64, timeout: *const Timespec, sigmask: *const u8) -> i32;
}

/// Wait until `stream` has bytes to read or `timeout` passes; true when
/// readable. Socket read timeouts are rounded up to the kernel's scheduler
/// tick (milliseconds), which would make an open-loop sender late by that
/// much; ppoll(2) sleeps on a high-resolution timer instead.
fn wait_readable(stream: &TcpStream, timeout: Duration) -> io::Result<bool> {
    use std::os::fd::AsRawFd;
    let mut fd = PollFd {
        fd: stream.as_raw_fd(),
        events: POLLIN,
        revents: 0,
    };
    let ts = Timespec {
        tv_sec: timeout.as_secs() as i64,
        tv_nsec: i64::from(timeout.subsec_nanos()),
    };
    loop {
        // SAFETY: `fd` and `ts` are live, properly laid-out values for the
        // whole call; nfds is 1, matching the single pollfd passed; a null
        // sigmask leaves the signal mask unchanged.
        let n = unsafe { ppoll(&mut fd, 1, &ts, std::ptr::null()) };
        if n >= 0 {
            return Ok(n > 0);
        }
        let e = io::Error::last_os_error();
        if e.kind() != io::ErrorKind::Interrupted {
            return Err(e);
        }
    }
}
