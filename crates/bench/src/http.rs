//! The std-only HTTP/1.1 layer under `tenways serve` and `tenways route`.
//!
//! **Server.** One accept loop and one keep-alive request loop serve both
//! front ends: the loop is generic over a handler, which the
//! [`SimService`](crate::SimService) and the [`Router`](crate::Router)
//! each implement. Each accepted connection gets its own thread. It
//! carries requests until the client closes or asks to close
//! (`Connection: close`, or HTTP/1.0 without `Connection: keep-alive`),
//! idles past [`KEEP_ALIVE_IDLE`], or sends a malformed request (answered
//! 400, then closed). A client issuing N requests thus pays one TCP
//! handshake, not N. Raising the shutdown flag stops accepting, lets every
//! request already read finish, and answers it with `Connection: close`,
//! so a draining server drops no request.
//!
//! **Client.** Every client connects and exchanges through the same two
//! functions: the one-shot [`http_request`] (`Connection: close`, one
//! connection per call), the pooled [`HttpClient`] (the router forwards
//! through a per-backend pool of them), and the router's health probes.
//!
//! The request and reply readers work over any [`Read`] and the response
//! writer over any [`Write`], so the tests drive them with byte slices.

use std::io::{ErrorKind, Read, Write};
use std::net::{TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use tenways_sim::json::Json;

use crate::serve::ShardedCounter;

/// Largest request head, and largest request body, the server will read,
/// in bytes. Also bounds a reply head.
const MAX_REQUEST_BYTES: usize = 4 << 20;

/// Socket timeout of server connections and of clients: a stalled peer
/// cannot pin a thread forever. Generous because a miss legitimately
/// blocks for the whole simulation.
const SOCKET_TIMEOUT: Duration = Duration::from_secs(600);

/// How long a client waits for a TCP connection to open.
const CONNECT_TIMEOUT: Duration = Duration::from_secs(2);

/// How long a keep-alive connection may sit idle between requests
/// before the server closes it.
pub const KEEP_ALIVE_IDLE: Duration = Duration::from_secs(10);

/// Read timeout of server sockets: an idle connection re-checks the
/// shutdown flag this often, which bounds how long a draining server
/// waits on its parked keep-alive sockets.
const READ_SLICE: Duration = Duration::from_millis(50);

/// How often the accept loop polls for new connections (and re-checks
/// the shutdown flag) when nothing is arriving.
const ACCEPT_POLL: Duration = Duration::from_millis(2);

/// A parsed HTTP request.
#[derive(Debug)]
pub(crate) struct HttpRequest {
    pub(crate) method: String,
    pub(crate) path: String,
    pub(crate) content_type: String,
    pub(crate) body: String,
    /// Whether the client allows the connection to carry another request
    /// (HTTP/1.1 defaults to yes; `Connection: close` or HTTP/1.0
    /// without `Connection: keep-alive` says no).
    pub(crate) keep_alive: bool,
}

/// One response: status, extra headers, JSON body.
pub(crate) type Response = (u16, Vec<(&'static str, String)>, Json);

/// Wire counters of one front end (monotonic since start). The two that
/// move on every connection and request are sharded.
#[derive(Debug, Default)]
pub(crate) struct HttpCounters {
    /// Accepted TCP connections (each may carry many keep-alive requests).
    pub(crate) connections: ShardedCounter,
    /// Requests read off those connections. With keep-alive, `requests >`
    /// `connections` is the visible proof that handshakes are reused.
    pub(crate) requests: ShardedCounter,
    /// Malformed requests: unreadable, undecodable body, or no such
    /// endpoint.
    pub(crate) bad_requests: AtomicU64,
}

impl HttpCounters {
    /// Counts one malformed request and answers it with an error document.
    pub(crate) fn bad_request(&self, status: u16, message: &str) -> Response {
        self.bad_requests.fetch_add(1, Ordering::Relaxed);
        (status, Vec::new(), error_doc(message))
    }
}

/// A front end the request loop serves.
pub(crate) trait Handler: Send + Sync + 'static {
    /// Tag of this front end's log lines.
    const TAG: &'static str;

    /// The wire counters the loop bumps.
    fn http_counters(&self) -> &HttpCounters;

    /// Answers one parsed request.
    fn handle(&self, request: &HttpRequest) -> Response;
}

pub(crate) fn error_doc(message: &str) -> Json {
    Json::obj([("error", Json::from(message))])
}

/// Serves `handler` on `listener`: poll-accept (so the shutdown flag is
/// noticed without another connection), run each connection's request
/// loop on its own thread, and join every one before returning.
/// `max_connections` counts accepted *connections* — with keep-alive one
/// connection may carry many requests.
pub(crate) fn serve<H: Handler>(
    handler: Arc<H>,
    listener: TcpListener,
    max_connections: Option<u64>,
    verbose: bool,
    shutdown: Arc<AtomicBool>,
) -> Result<(), String> {
    listener
        .set_nonblocking(true)
        .map_err(|e| format!("listener: {e}"))?;
    let mut connections = Vec::new();
    while !shutdown.load(Ordering::Relaxed) {
        let stream = match listener.accept() {
            Ok((stream, _)) => stream,
            Err(e) if e.kind() == ErrorKind::WouldBlock => {
                std::thread::sleep(ACCEPT_POLL);
                continue;
            }
            Err(e) => {
                eprintln!("[{}] accept failed: {e}", H::TAG);
                continue;
            }
        };
        // The listener is nonblocking only so this loop can poll the
        // shutdown flag; accepted sockets block (with timeouts) as usual.
        if let Err(e) = stream.set_nonblocking(false) {
            eprintln!("[{}] accept failed: {e}", H::TAG);
            continue;
        }
        // Persistent connections make Nagle vs delayed-ACK stalls real;
        // responses are single writes, so nothing is left to coalesce.
        let _ = stream.set_nodelay(true);
        handler.http_counters().connections.incr();
        let handler = Arc::clone(&handler);
        let shutdown = Arc::clone(&shutdown);
        connections.push(std::thread::spawn(move || {
            connection_loop(&*handler, stream, &shutdown, verbose);
        }));
        if max_connections.is_some_and(|max| connections.len() as u64 >= max) {
            break;
        }
    }
    for connection in connections {
        let _ = connection.join();
    }
    Ok(())
}

/// One connection's keep-alive request loop: read a request, answer it,
/// repeat. The loop ends when the client closes or asks to, the
/// connection idles out, a request is malformed, or the server is
/// draining (the request that already arrived is still answered —
/// drained, not dropped).
fn connection_loop<H: Handler>(
    handler: &H,
    mut stream: TcpStream,
    shutdown: &AtomicBool,
    verbose: bool,
) {
    // Only this loop reads the socket, so its timeouts are set once.
    let _ = stream.set_read_timeout(Some(READ_SLICE));
    let _ = stream.set_write_timeout(Some(SOCKET_TIMEOUT));
    let counters = handler.http_counters();
    let mut carry = Vec::new();
    // The first request gets the full socket timeout; follow-ups on a
    // kept-alive socket only get the idle window.
    let mut idle_limit = SOCKET_TIMEOUT;
    loop {
        let request = match read_request(&mut stream, &mut carry, idle_limit, shutdown) {
            Ok(Some(request)) => request,
            Ok(None) => return,
            Err(e) => {
                let (status, headers, doc) = counters.bad_request(400, &e);
                write_response(&mut stream, status, &headers, &doc, false);
                return;
            }
        };
        counters.requests.incr();
        let (status, headers, doc) = handler.handle(&request);
        if verbose {
            eprintln!(
                "[{}] {} {} -> {status}",
                H::TAG,
                request.method,
                request.path
            );
        }
        let keep = request.keep_alive && !shutdown.load(Ordering::Relaxed);
        write_response(&mut stream, status, &headers, &doc, keep);
        if !keep {
            return;
        }
        idle_limit = KEEP_ALIVE_IDLE;
    }
}

/// What one read brought.
enum Chunk {
    /// Bytes, appended to the buffer.
    Data,
    /// End of stream.
    Eof,
    /// The socket's read timeout elapsed with nothing to read.
    TimedOut,
}

/// One read, appended to `buf`.
fn read_chunk(reader: &mut impl Read, buf: &mut Vec<u8>) -> Result<Chunk, String> {
    let mut chunk = [0u8; 4096];
    match reader.read(&mut chunk) {
        Ok(0) => Ok(Chunk::Eof),
        Ok(n) => {
            buf.extend_from_slice(&chunk[..n]);
            Ok(Chunk::Data)
        }
        Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => {
            Ok(Chunk::TimedOut)
        }
        Err(e) => Err(format!("read: {e}")),
    }
}

/// Where the `\r\n\r\n` ending a message head starts. `scanned` is how
/// much of `buf` an earlier call already searched; the search resumes 3
/// bytes before it (a terminator may straddle two reads), so reading a
/// head costs linear, not quadratic, time.
fn find_header_end(buf: &[u8], scanned: usize) -> Option<usize> {
    let from = scanned.saturating_sub(3);
    buf[from..]
        .windows(4)
        .position(|w| w == b"\r\n\r\n")
        .map(|pos| from + pos)
}

/// Splits a message head into its start line and its headers (names
/// lowercased, names and values trimmed, in wire order).
fn split_head(head: &str) -> (&str, Vec<(String, String)>) {
    let mut lines = head.split("\r\n");
    let start = lines.next().unwrap_or("");
    let headers = lines
        .filter_map(|line| {
            let (name, value) = line.split_once(':')?;
            Some((name.trim().to_ascii_lowercase(), value.trim().to_string()))
        })
        .collect();
    (start, headers)
}

/// Reads one request (size-bounded) from a server connection.
///
/// `carry` holds bytes read past the previous request on the same
/// keep-alive connection; leftovers past this request's body are put
/// back for the next call. A read that times out is one idle slice: it
/// ends the wait only before the request's first byte, and only once
/// `shutdown` is raised or `idle_limit` has passed. Returns `Ok(None)`
/// when the connection ends *between* requests — peer close, idle, or
/// shutdown — and `Err` when it dies mid-request or the request is
/// malformed.
fn read_request(
    reader: &mut impl Read,
    carry: &mut Vec<u8>,
    idle_limit: Duration,
    shutdown: &AtomicBool,
) -> Result<Option<HttpRequest>, String> {
    let mut buf = std::mem::take(carry);
    let started = Instant::now();
    let mut scanned = 0;
    let header_end = loop {
        if let Some(pos) = find_header_end(&buf, scanned) {
            break pos;
        }
        if buf.len() > MAX_REQUEST_BYTES {
            return Err("request too large".to_string());
        }
        scanned = buf.len();
        match read_chunk(reader, &mut buf)? {
            Chunk::Data => {}
            Chunk::Eof if buf.is_empty() => return Ok(None),
            Chunk::Eof => return Err("connection closed mid-request".to_string()),
            Chunk::TimedOut if started.elapsed() >= SOCKET_TIMEOUT => {
                return Err("timed out mid-request".to_string())
            }
            // Nothing started yet: this is the idle window where a close
            // (drain or idle timeout) loses no request.
            Chunk::TimedOut
                if buf.is_empty()
                    && (shutdown.load(Ordering::Relaxed) || started.elapsed() >= idle_limit) =>
            {
                return Ok(None)
            }
            Chunk::TimedOut => {}
        }
    };
    let head =
        std::str::from_utf8(&buf[..header_end]).map_err(|_| "non-utf8 header".to_string())?;
    let (request_line, headers) = split_head(head);
    let mut parts = request_line.split_ascii_whitespace();
    let method = parts.next().unwrap_or("").to_uppercase();
    let path = parts.next().unwrap_or("").to_string();
    let version = parts.next().unwrap_or("HTTP/1.1").to_ascii_uppercase();
    if method.is_empty() || path.is_empty() {
        return Err(format!("malformed request line `{request_line}`"));
    }
    let mut content_length = 0usize;
    let mut content_type = String::new();
    let mut connection = String::new();
    for (name, value) in headers {
        match name.as_str() {
            "content-length" => {
                content_length = value
                    .parse()
                    .map_err(|_| format!("bad content-length `{value}`"))?;
            }
            "content-type" => content_type = value.to_ascii_lowercase(),
            "connection" => connection = value.to_ascii_lowercase(),
            _ => {}
        }
    }
    let keep_alive = if connection.contains("close") {
        false
    } else if version == "HTTP/1.0" {
        connection.contains("keep-alive")
    } else {
        true
    };
    if content_length > MAX_REQUEST_BYTES {
        return Err("request body too large".to_string());
    }
    let mut body = buf.split_off(header_end + 4);
    while body.len() < content_length {
        match read_chunk(reader, &mut body)? {
            Chunk::Data => {}
            Chunk::Eof => return Err("connection closed mid-body".to_string()),
            Chunk::TimedOut if started.elapsed() >= SOCKET_TIMEOUT => {
                return Err("timed out mid-request".to_string())
            }
            Chunk::TimedOut => {}
        }
    }
    // Bytes past the body belong to the next pipelined request.
    *carry = body.split_off(content_length);
    let body = String::from_utf8(body).map_err(|_| "non-utf8 body".to_string())?;
    Ok(Some(HttpRequest {
        method,
        path,
        content_type,
        body,
        keep_alive,
    }))
}

fn status_reason(status: u16) -> &'static str {
    match status {
        200 => "OK",
        202 => "Accepted",
        400 => "Bad Request",
        404 => "Not Found",
        503 => "Service Unavailable",
        _ => "Internal Server Error",
    }
}

/// Writes one JSON response (plus any extra headers). The `Connection`
/// header tells the client whether the server will read another request
/// from this socket.
fn write_response(
    writer: &mut impl Write,
    status: u16,
    extra_headers: &[(&str, String)],
    doc: &Json,
    keep_alive: bool,
) {
    let mut body = doc.pretty();
    body.push('\n');
    let connection = if keep_alive { "keep-alive" } else { "close" };
    let mut head = format!(
        "HTTP/1.1 {status} {}\r\nContent-Type: application/json\r\nContent-Length: {}\r\nConnection: {connection}\r\n",
        status_reason(status),
        body.len()
    );
    for (name, value) in extra_headers {
        head.push_str(&format!("{name}: {value}\r\n"));
    }
    head.push_str("\r\n");
    // One write for head + body: a split write would let Nagle hold the
    // body back until the head's delayed ACK (~40 ms per response on a
    // persistent connection).
    head.push_str(&body);
    let _ = writer.write_all(head.as_bytes());
    let _ = writer.flush();
}

/// One parsed HTTP response: status, headers, JSON body.
#[derive(Debug)]
pub struct HttpReply {
    /// The response status code.
    pub status: u16,
    /// Response headers, lowercased names, in wire order.
    pub headers: Vec<(String, String)>,
    /// The parsed JSON body.
    pub body: Json,
}

impl HttpReply {
    /// The first header with this (case-insensitive) name.
    pub fn header(&self, name: &str) -> Option<&str> {
        self.headers
            .iter()
            .find(|(n, _)| n.eq_ignore_ascii_case(name))
            .map(|(_, v)| v.as_str())
    }
}

/// Opens a client connection: tries each address `addr` resolves to in
/// turn, then sets `io_timeout` on reads and writes and `TCP_NODELAY`
/// (requests are single writes, so nothing is left to coalesce).
pub(crate) fn connect(
    addr: &str,
    connect_timeout: Duration,
    io_timeout: Duration,
) -> Result<TcpStream, String> {
    let resolved = addr
        .to_socket_addrs()
        .map_err(|e| format!("cannot connect to {addr}: {e}"))?;
    let mut failure = format!("cannot connect to {addr}: no address");
    for sa in resolved {
        match TcpStream::connect_timeout(&sa, connect_timeout) {
            Ok(stream) => {
                let _ = stream.set_read_timeout(Some(io_timeout));
                let _ = stream.set_write_timeout(Some(io_timeout));
                let _ = stream.set_nodelay(true);
                return Ok(stream);
            }
            Err(e) => failure = format!("cannot connect to {addr}: {e}"),
        }
    }
    Err(failure)
}

/// One request/reply exchange on a connected stream: writes the request
/// in one write, asking the server to keep the connection open or to
/// close it, and reads the reply.
pub(crate) fn exchange(
    stream: &mut TcpStream,
    host: &str,
    method: &str,
    path: &str,
    body: Option<(&str, &str)>, // (content type, payload)
    keep_alive: bool,
) -> Result<HttpReply, String> {
    let connection = if keep_alive { "keep-alive" } else { "close" };
    let mut request =
        format!("{method} {path} HTTP/1.1\r\nHost: {host}\r\nConnection: {connection}\r\n");
    match body {
        Some((content_type, payload)) => request.push_str(&format!(
            "Content-Type: {content_type}\r\nContent-Length: {}\r\n\r\n{payload}",
            payload.len()
        )),
        None => request.push_str("\r\n"),
    }
    stream
        .write_all(request.as_bytes())
        .map_err(|e| format!("send: {e}"))?;
    read_reply(stream)
}

/// Reads one response, bounded by its `Content-Length` (which this
/// layer's server always sends) instead of waiting for EOF — the
/// difference that makes connection reuse possible. A read that times
/// out is an error: the socket's timeout is the client's patience.
fn read_reply(reader: &mut impl Read) -> Result<HttpReply, String> {
    let mut fill = |buf: &mut Vec<u8>| match read_chunk(reader, buf)? {
        Chunk::Data => Ok(()),
        Chunk::Eof => Err("connection closed mid-response".to_string()),
        Chunk::TimedOut => Err("receive: timed out".to_string()),
    };
    let mut buf = Vec::with_capacity(1024);
    let mut scanned = 0;
    let header_end = loop {
        if let Some(pos) = find_header_end(&buf, scanned) {
            break pos;
        }
        if buf.len() > MAX_REQUEST_BYTES {
            return Err("response head too large".to_string());
        }
        scanned = buf.len();
        fill(&mut buf)?;
    };
    let head =
        std::str::from_utf8(&buf[..header_end]).map_err(|_| "non-utf8 response".to_string())?;
    let (status_line, headers) = split_head(head);
    let status: u16 = status_line
        .split_ascii_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| format!("malformed status line in `{status_line}`"))?;
    let content_length: usize = headers
        .iter()
        .find(|(n, _)| n == "content-length")
        .and_then(|(_, v)| v.parse().ok())
        .ok_or_else(|| "response missing content-length".to_string())?;
    let mut payload = buf.split_off(header_end + 4);
    while payload.len() < content_length {
        fill(&mut payload)?;
    }
    payload.truncate(content_length);
    let text = String::from_utf8(payload).map_err(|_| "non-utf8 response".to_string())?;
    let body = Json::parse(&text).map_err(|e| format!("malformed response body: {e}"))?;
    Ok(HttpReply {
        status,
        headers,
        body,
    })
}

/// Minimal HTTP client for the servers above: one request on its own
/// connection (`Connection: close`), one JSON response with headers.
/// Used by [`http_call`], the tests, and CI.
///
/// # Errors
///
/// Returns a message on connection failure or a malformed response.
pub fn http_request(
    addr: &str,
    method: &str,
    path: &str,
    body: Option<(&str, &str)>, // (content type, payload)
) -> Result<HttpReply, String> {
    let mut stream = connect(addr, CONNECT_TIMEOUT, SOCKET_TIMEOUT)?;
    exchange(&mut stream, addr, method, path, body, false)
}

/// [`http_request`] without the headers — the client shape `tenways
/// serve --post/--batch/--job/--stats/--health` and `tenways sweep
/// --server` use.
///
/// # Errors
///
/// Same as [`http_request`].
pub fn http_call(
    addr: &str,
    method: &str,
    path: &str,
    body: Option<(&str, &str)>, // (content type, payload)
) -> Result<(u16, Json), String> {
    let reply = http_request(addr, method, path, body)?;
    Ok((reply.status, reply.body))
}

/// A pooled keep-alive HTTP client: one client owns (at most) one
/// persistent connection and reuses it across requests, reconnecting
/// transparently when the server has since closed it. Not `Sync` — give
/// each client thread its own. The one-shot [`http_request`] remains
/// for fire-and-forget callers (CLI one-liners, CI probes).
#[derive(Debug)]
pub struct HttpClient {
    addr: String,
    conn: Option<TcpStream>,
}

impl HttpClient {
    /// A client for `host:port` (connects lazily on first request).
    pub fn new(addr: impl Into<String>) -> HttpClient {
        HttpClient {
            addr: addr.into(),
            conn: None,
        }
    }

    /// The server address this client talks to.
    pub fn addr(&self) -> &str {
        &self.addr
    }

    /// Whether a pooled connection is currently held open.
    pub fn connected(&self) -> bool {
        self.conn.is_some()
    }

    /// Sends one request. A failure on a *reused* connection gets one
    /// retry on a fresh connection — the server may have idle-closed the
    /// pooled socket since the last request, which is not an error.
    ///
    /// # Errors
    ///
    /// Returns a message on connection failure or a malformed response.
    pub fn request(
        &mut self,
        method: &str,
        path: &str,
        body: Option<(&str, &str)>, // (content type, payload)
    ) -> Result<HttpReply, String> {
        let pooled = self.conn.is_some();
        match self.send(method, path, body) {
            Err(_) if pooled => self.send(method, path, body),
            outcome => outcome,
        }
    }

    fn send(
        &mut self,
        method: &str,
        path: &str,
        body: Option<(&str, &str)>,
    ) -> Result<HttpReply, String> {
        let mut stream = match self.conn.take() {
            Some(stream) => stream,
            None => connect(&self.addr, CONNECT_TIMEOUT, SOCKET_TIMEOUT)?,
        };
        let reply = exchange(&mut stream, &self.addr, method, path, body, true)?;
        if !matches!(reply.header("connection"), Some(v) if v.eq_ignore_ascii_case("close")) {
            self.conn = Some(stream);
        }
        Ok(reply)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::VecDeque;

    /// Hands out one scripted chunk per read (split further if the
    /// caller's buffer is smaller); an empty chunk is a read that times
    /// out, like a server socket's idle slice. EOF after the script.
    struct Trickle(VecDeque<Vec<u8>>);

    impl Trickle {
        fn new(chunks: &[&[u8]]) -> Trickle {
            Trickle(chunks.iter().map(|c| c.to_vec()).collect())
        }
    }

    impl Read for Trickle {
        fn read(&mut self, out: &mut [u8]) -> std::io::Result<usize> {
            match self.0.pop_front() {
                None => Ok(0),
                Some(chunk) if chunk.is_empty() => Err(ErrorKind::WouldBlock.into()),
                Some(mut chunk) => {
                    let n = chunk.len().min(out.len());
                    out[..n].copy_from_slice(&chunk[..n]);
                    if n < chunk.len() {
                        self.0.push_front(chunk.split_off(n));
                    }
                    Ok(n)
                }
            }
        }
    }

    /// Reads the first request of a fresh connection that is not draining.
    fn first_request(reader: &mut impl Read) -> Result<Option<HttpRequest>, String> {
        read_request(
            reader,
            &mut Vec::new(),
            KEEP_ALIVE_IDLE,
            &AtomicBool::new(false),
        )
    }

    #[test]
    fn pipelined_requests_are_split_through_the_carry() {
        let wire = b"POST /run HTTP/1.1\r\nContent-Type: Application/TOML\r\n\
            Content-Length: 5\r\n\r\nhelloGET /stats HTTP/1.1\r\n\r\n";
        let mut reader = &wire[..];
        let mut carry = Vec::new();
        let running = AtomicBool::new(false);
        let first = read_request(&mut reader, &mut carry, KEEP_ALIVE_IDLE, &running)
            .unwrap()
            .unwrap();
        assert_eq!(first.method, "POST");
        assert_eq!(first.path, "/run");
        assert_eq!(first.content_type, "application/toml");
        assert_eq!(first.body, "hello");
        assert!(first.keep_alive);
        // One read took both requests off the wire: the second waits in
        // the carry, and the reader itself is drained.
        assert_eq!(carry, b"GET /stats HTTP/1.1\r\n\r\n");
        assert!(reader.is_empty());
        let second = read_request(&mut reader, &mut carry, KEEP_ALIVE_IDLE, &running)
            .unwrap()
            .unwrap();
        assert_eq!(
            (second.method.as_str(), second.path.as_str()),
            ("GET", "/stats")
        );
        assert!(carry.is_empty());
        let end = read_request(&mut reader, &mut carry, KEEP_ALIVE_IDLE, &running);
        assert!(end.unwrap().is_none());
    }

    #[test]
    fn version_and_connection_header_decide_keep_alive() {
        for (wire, keep_alive) in [
            ("GET / HTTP/1.1\r\n\r\n", true),
            ("GET / HTTP/1.1\r\nConnection: close\r\n\r\n", false),
            ("GET / HTTP/1.0\r\n\r\n", false),
            ("GET / HTTP/1.0\r\nConnection: Keep-Alive\r\n\r\n", true),
        ] {
            let request = first_request(&mut wire.as_bytes()).unwrap().unwrap();
            assert_eq!(request.keep_alive, keep_alive, "{wire:?}");
        }
    }

    #[test]
    fn requests_over_the_size_cap_are_refused() {
        let body = format!(
            "POST /run HTTP/1.1\r\nContent-Length: {}\r\n\r\n",
            MAX_REQUEST_BYTES + 1
        );
        assert_eq!(
            first_request(&mut body.as_bytes()).unwrap_err(),
            "request body too large"
        );
        let mut unterminated = b"GET / HTTP/1.1\r\nX-Pad: ".to_vec();
        unterminated.resize(MAX_REQUEST_BYTES + 1, b'a');
        assert_eq!(
            first_request(&mut &unterminated[..]).unwrap_err(),
            "request too large"
        );
    }

    #[test]
    fn eof_between_requests_is_quiet_and_eof_inside_one_is_an_error() {
        assert!(first_request(&mut &b""[..]).unwrap().is_none());
        assert_eq!(
            first_request(&mut &b"GET /stats HTTP/1.1\r\n"[..]).unwrap_err(),
            "connection closed mid-request"
        );
        assert_eq!(
            first_request(&mut &b"POST /run HTTP/1.1\r\nContent-Length: 9\r\n\r\nshort"[..])
                .unwrap_err(),
            "connection closed mid-body"
        );
    }

    #[test]
    fn header_terminator_split_across_reads_is_found() {
        let mut reader = Trickle::new(&[b"GET /stats HTTP/1.1\r\nHost: x\r\n\r", b"\n"]);
        let request = first_request(&mut reader).unwrap().unwrap();
        assert_eq!(request.path, "/stats");
    }

    #[test]
    fn draining_closes_only_connections_idle_between_requests() {
        let draining = AtomicBool::new(true);
        // A timed-out read before the first byte: the connection closes
        // quietly, losing no request.
        let mut idle = Trickle::new(&[b"", b"GET / HTTP/1.1\r\n\r\n"]);
        let read = read_request(&mut idle, &mut Vec::new(), KEEP_ALIVE_IDLE, &draining);
        assert!(read.unwrap().is_none());
        // The same slice after the request began: keep reading it.
        let mut started = Trickle::new(&[b"GET / HT", b"", b"TP/1.1\r\n\r\n"]);
        let read = read_request(&mut started, &mut Vec::new(), KEEP_ALIVE_IDLE, &draining);
        assert_eq!(read.unwrap().unwrap().path, "/");
    }

    #[test]
    fn written_response_reads_back_through_the_reply_reader() {
        let doc = Json::obj([("ok", Json::Bool(true))]);
        let mut wire = Vec::new();
        write_response(
            &mut wire,
            503,
            &[("Retry-After", "1".to_string())],
            &doc,
            false,
        );
        // Bytes past the Content-Length are not part of the reply.
        wire.extend_from_slice(b"HTTP/1.1 200 OK\r\n");
        let chunks: Vec<&[u8]> = wire.chunks(7).collect();
        let reply = read_reply(&mut Trickle::new(&chunks)).unwrap();
        assert_eq!(reply.status, 503);
        assert_eq!(reply.header("Retry-After"), Some("1"));
        assert_eq!(reply.header("connection"), Some("close"));
        assert_eq!(reply.body.to_string(), doc.to_string());

        let short = b"HTTP/1.1 200 OK\r\nContent-Length: 50\r\n\r\n{}";
        assert_eq!(
            read_reply(&mut &short[..]).unwrap_err(),
            "connection closed mid-response"
        );
    }
}
