//! The std-only HTTP/1.1 layer under `tenways serve` and `tenways route`.
//!
//! **Server.** One accept loop and one keep-alive request loop serve both
//! front ends: the loop is generic over a handler, which the
//! [`SimService`](crate::SimService) and the [`Router`](crate::Router)
//! each implement. Each accepted connection gets its own thread, which
//! ends, and frees its stack, when the connection does. A connection
//! carries requests until the client closes or asks to close
//! (`Connection: close`, or HTTP/1.0 without `Connection: keep-alive`),
//! idles past [`KEEP_ALIVE_IDLE`], or sends a malformed request (answered
//! 400, then closed). A client issuing N requests thus pays one TCP
//! handshake, not N. Raising the shutdown flag stops accepting, lets every
//! request already read finish, and answers it with `Connection: close`,
//! so a draining server drops no request.
//!
//! **Client.** [`HttpClient`] is the one client: it keeps one connection
//! open across its requests, asking the server to keep it alive. The CLI
//! client modes and `tenways sweep --server` each use one, and the router
//! forwards through a per-backend pool of them.
//!
//! **Headers.** Each reader picks out by name, in place, the few headers
//! it uses: a request's `Content-Length`, `Content-Type` and `Connection`,
//! a reply's `Content-Length` and `Connection`. Any other header is
//! skipped.
//!
//! **Bodies.** A response is a status and a body (`Response`); the
//! writer adds only `Content-Type`, `Content-Length` and `Connection`.
//! The body is rendered text, sent as it is: a compact
//! JSON document and a newline. A client keeps the text it received
//! beside the parsed document ([`HttpReply::text`]), so the router relays
//! a backend's reply without rendering it again. A reader either parses
//! a reply's body or, for a reply it only relays, validates it
//! (`ReplyBody`); either way a body that is not one JSON document is an
//! error, and a body announced past `MAX_REPLY_BYTES` (about 40 MiB) is
//! refused before any of it is read.
//!
//! The request and reply readers work over any [`Read`] and the response
//! writer over any [`Write`], so the tests drive them with byte slices.

use std::io::{ErrorKind, Read, Write};
use std::net::{TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::{Duration, Instant};

use tenways_sim::json::Json;

use crate::serve::{ShardedCounter, MAX_BATCH_ITEMS};
use crate::sweep::contain;

/// Largest request head, and largest request body, the server will read,
/// in bytes. Also bounds a reply head.
const MAX_REQUEST_BYTES: usize = 4 << 20;

/// Bound on one rendered run record, in bytes. A record has a fixed set
/// of stat keys and histograms of at most 65 and 256 buckets, so its size
/// is bounded whatever the run. The largest of 540 measured runs — every
/// workload × model × crossbar/mesh × speculation off/continuous, at 2,
/// 16 and 256 threads, scale 1 — renders 5 594 bytes (`mcs`, TSO,
/// 256 threads on the mesh, continuous speculation), about a third of
/// this bound.
pub(crate) const MAX_RECORD_BYTES: usize = 16 << 10;

/// Bound on what a `/batch` result item holds beside its record and the
/// text it echoes from its request: the key and status members and the
/// separators (about 100 bytes rendered).
const ITEM_MEMBERS_BYTES: usize = 1 << 10;

/// Largest reply body the readers accept, in bytes: the largest reply
/// the service sends when its items echo no more than their request's
/// bytes. That is a `/batch` of [`MAX_BATCH_ITEMS`] items of the largest
/// record, plus the labels and errors it echoes from a request of at
/// most [`MAX_REQUEST_BYTES`], each request byte rendering as at most six
/// (`\u00XX`): about 40 MiB. (A sweep-grid body can repeat one string
/// in every point's error and pass it; that reply is refused.)
pub(crate) const MAX_REPLY_BYTES: usize =
    MAX_BATCH_ITEMS * (MAX_RECORD_BYTES + ITEM_MEMBERS_BYTES) + 6 * MAX_REQUEST_BYTES;

/// Socket timeout of server connections and of clients: a stalled peer
/// cannot pin a thread forever. Generous because a miss legitimately
/// blocks for the whole simulation.
const SOCKET_TIMEOUT: Duration = Duration::from_secs(600);

/// How long a client waits for a TCP connection to open.
pub(crate) const CONNECT_TIMEOUT: Duration = Duration::from_secs(2);

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

/// One response: status and the body as sent.
pub(crate) type Response = (u16, String);

/// A response whose body is the rendered JSON document `text` and a
/// newline.
pub(crate) fn reply(status: u16, mut text: String) -> Response {
    text.push('\n');
    (status, text)
}

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
        reply(status, error_doc(message))
    }
}

/// A front end the request loop serves.
pub(crate) trait Handler: Sync {
    /// Tag of this front end's log lines.
    const TAG: &'static str;

    /// The wire counters the loop bumps.
    fn http_counters(&self) -> &HttpCounters;

    /// Answers one parsed request.
    fn handle(&self, request: &HttpRequest) -> Response;
}

/// The rendered `{"error": message}` document.
pub(crate) fn error_doc(message: &str) -> String {
    Json::obj([("error", Json::from(message))]).to_string()
}

/// Serves `handler` on `listener`: poll-accept (so the shutdown flag is
/// noticed without another connection), run each connection's request
/// loop on its own thread, and return once every one has ended.
/// `max_connections` counts accepted *connections* — with keep-alive one
/// connection may carry many requests.
pub(crate) fn serve<H: Handler>(
    handler: &H,
    listener: TcpListener,
    max_connections: Option<u64>,
    verbose: bool,
    shutdown: &AtomicBool,
) -> Result<(), String> {
    listener
        .set_nonblocking(true)
        .map_err(|e| format!("listener: {e}"))?;
    // A connection's handle is dropped at once, so its thread is detached
    // and its stack freed when the connection ends; the scope still waits
    // for every one before it returns.
    std::thread::scope(|scope| {
        let mut accepted = 0u64;
        let mut failing = false;
        while !shutdown.load(Ordering::Relaxed) {
            let stream = match listener.accept() {
                Ok((stream, _)) => stream,
                Err(e) => {
                    // Out of file descriptors, accept fails at once on
                    // every call: wait as after an empty poll, and log a
                    // run of failures once.
                    let failed = e.kind() != ErrorKind::WouldBlock;
                    if failed && !failing {
                        eprintln!("[{}] accept failed: {e}", H::TAG);
                    }
                    failing = failed;
                    std::thread::sleep(ACCEPT_POLL);
                    continue;
                }
            };
            failing = false;
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
            // A handler panic ends its own connection, not the server: the
            // scope would re-raise a panic it saw.
            scope.spawn(move || {
                let _ = contain(|| {
                    connection_loop(handler, stream, shutdown, verbose);
                    Ok(())
                });
            });
            accepted += 1;
            if max_connections.is_some_and(|max| accepted >= max) {
                break;
            }
        }
    });
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
                let (status, body) = counters.bad_request(400, &e);
                write_response(&mut stream, status, &body, false);
                return;
            }
        };
        counters.requests.incr();
        let (status, body) = handler.handle(&request);
        if verbose {
            eprintln!(
                "[{}] {} {} -> {status}",
                H::TAG,
                request.method,
                request.path
            );
        }
        let keep = request.keep_alive && !shutdown.load(Ordering::Relaxed);
        write_response(&mut stream, status, &body, keep);
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

/// Whether `text` holds `word` (lowercase ASCII), ignoring ASCII case.
fn contains_ignore_case(text: &str, word: &str) -> bool {
    text.as_bytes()
        .windows(word.len())
        .any(|w| w.eq_ignore_ascii_case(word.as_bytes()))
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
    let mut lines = head.split("\r\n");
    let request_line = lines.next().unwrap_or("");
    let mut parts = request_line.split_ascii_whitespace();
    let method = parts.next().unwrap_or("").to_uppercase();
    let path = parts.next().unwrap_or("").to_string();
    let http_1_0 = parts
        .next()
        .is_some_and(|v| v.eq_ignore_ascii_case("HTTP/1.0"));
    if method.is_empty() || path.is_empty() {
        return Err(format!("malformed request line `{request_line}`"));
    }
    let mut content_length = 0usize;
    let mut content_type = String::new();
    let mut connection = "";
    for (name, value) in lines.filter_map(|line| line.split_once(':')) {
        let (name, value) = (name.trim(), value.trim());
        if name.eq_ignore_ascii_case("content-length") {
            content_length = value
                .parse()
                .map_err(|_| format!("bad content-length `{value}`"))?;
        } else if name.eq_ignore_ascii_case("content-type") {
            content_type = value.to_ascii_lowercase();
        } else if name.eq_ignore_ascii_case("connection") {
            connection = value;
        }
    }
    let keep_alive = if contains_ignore_case(connection, "close") {
        false
    } else if http_1_0 {
        contains_ignore_case(connection, "keep-alive")
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
        400 => "Bad Request",
        404 => "Not Found",
        503 => "Service Unavailable",
        _ => "Internal Server Error",
    }
}

/// Writes one response with a JSON body. The `Connection` header tells
/// the client whether the server will read another request from this
/// socket.
fn write_response(writer: &mut impl Write, status: u16, body: &str, keep_alive: bool) {
    let connection = if keep_alive { "keep-alive" } else { "close" };
    let mut head = format!(
        "HTTP/1.1 {status} {}\r\nContent-Type: application/json\r\nContent-Length: {}\r\nConnection: {connection}\r\n\r\n",
        status_reason(status),
        body.len()
    );
    // One write for head + body: a split write would let Nagle hold the
    // body back until the head's delayed ACK (~40 ms per response on a
    // persistent connection).
    head.push_str(body);
    let _ = writer.write_all(head.as_bytes());
    let _ = writer.flush();
}

/// One parsed HTTP response: status and JSON body.
#[derive(Debug)]
pub struct HttpReply {
    /// The response status code.
    pub status: u16,
    /// Whether the server said `Connection: close`: it reads no further
    /// request from this connection.
    pub(crate) close: bool,
    /// The body exactly as received.
    pub text: String,
    /// The parsed JSON body (`Json::Null` when the reply was only
    /// validated, as the router reads the replies it relays).
    pub body: Json,
}

/// How the reply reader checks a body. Both modes refuse a body that is
/// not one JSON document, with the same error.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum ReplyBody {
    /// Parse it into [`HttpReply::body`], for a caller that reads fields.
    Parse,
    /// Only validate it ([`Json::validate`], no tree), leaving
    /// [`HttpReply::body`] `Json::Null`: for a reply relayed as its text.
    Validate,
}

/// Opens a client connection: tries each address `addr` resolves to in
/// turn, each for at most [`CONNECT_TIMEOUT`], then sets
/// [`SOCKET_TIMEOUT`] on reads and writes and `TCP_NODELAY` (requests are
/// single writes, so nothing is left to coalesce).
fn connect(addr: &str) -> Result<TcpStream, String> {
    let resolved = addr
        .to_socket_addrs()
        .map_err(|e| format!("cannot connect to {addr}: {e}"))?;
    let mut failure = format!("cannot connect to {addr}: no address");
    for sa in resolved {
        match TcpStream::connect_timeout(&sa, CONNECT_TIMEOUT) {
            Ok(stream) => {
                let _ = stream.set_read_timeout(Some(SOCKET_TIMEOUT));
                let _ = stream.set_write_timeout(Some(SOCKET_TIMEOUT));
                let _ = stream.set_nodelay(true);
                return Ok(stream);
            }
            Err(e) => failure = format!("cannot connect to {addr}: {e}"),
        }
    }
    Err(failure)
}

/// One request/reply exchange on a connected stream: writes the request
/// in one write, asking the server to keep the connection open, and
/// reads the reply.
fn exchange(
    stream: &mut TcpStream,
    host: &str,
    method: &str,
    path: &str,
    body: Option<(&str, &str)>, // (content type, payload)
    read: ReplyBody,
) -> Result<HttpReply, String> {
    let request = request_text(host, method, path, body);
    stream
        .write_all(request.as_bytes())
        .map_err(|e| format!("send: {e}"))?;
    read_reply(stream, read)
}

/// The request [`exchange`] sends.
fn request_text(host: &str, method: &str, path: &str, body: Option<(&str, &str)>) -> String {
    let mut request =
        format!("{method} {path} HTTP/1.1\r\nHost: {host}\r\nConnection: keep-alive\r\n");
    match body {
        Some((content_type, payload)) => request.push_str(&format!(
            "Content-Type: {content_type}\r\nContent-Length: {}\r\n\r\n{payload}",
            payload.len()
        )),
        None => request.push_str("\r\n"),
    }
    request
}

/// Reads one response, bounded by its `Content-Length` (which this
/// layer's server always sends) instead of waiting for EOF — the
/// difference that makes connection reuse possible. A length past
/// [`MAX_REPLY_BYTES`] is refused before the body is read. A read that
/// times out is an error: the socket's timeout is the client's patience.
fn read_reply(reader: &mut impl Read, read: ReplyBody) -> Result<HttpReply, String> {
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
    let mut lines = head.split("\r\n");
    let status_line = lines.next().unwrap_or("");
    let status: u16 = status_line
        .split_ascii_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| format!("malformed status line in `{status_line}`"))?;
    let mut content_length = None;
    let mut close = false;
    for (name, value) in lines.filter_map(|line| line.split_once(':')) {
        let (name, value) = (name.trim(), value.trim());
        if name.eq_ignore_ascii_case("content-length") {
            content_length = value.parse().ok();
        } else if name.eq_ignore_ascii_case("connection") {
            close = value.eq_ignore_ascii_case("close");
        }
    }
    let content_length: usize =
        content_length.ok_or_else(|| "response missing content-length".to_string())?;
    if content_length > MAX_REPLY_BYTES {
        return Err(format!(
            "response body of {content_length} bytes is over the limit of {MAX_REPLY_BYTES}"
        ));
    }
    let mut payload = buf.split_off(header_end + 4);
    while payload.len() < content_length {
        fill(&mut payload)?;
    }
    payload.truncate(content_length);
    let text = String::from_utf8(payload).map_err(|_| "non-utf8 response".to_string())?;
    let malformed = |e| format!("malformed response body: {e}");
    let body = match read {
        ReplyBody::Parse => Json::parse(&text).map_err(malformed)?,
        ReplyBody::Validate => {
            Json::validate(&text).map_err(malformed)?;
            Json::Null
        }
    };
    Ok(HttpReply {
        status,
        close,
        text,
        body,
    })
}

/// The HTTP client for the servers above: one client owns (at most) one
/// persistent connection and reuses it across requests, reconnecting
/// transparently when the server has since closed it. Used by `tenways
/// serve --post/--batch/--stats/--health`, `tenways sweep --server`, the
/// router's per-backend pools, the tests, and CI. Not `Sync` — give each
/// client thread its own.
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
        self.request_as(ReplyBody::Parse, method, path, body)
    }

    /// [`request`](Self::request), reading the reply's body as `read`
    /// says.
    pub(crate) fn request_as(
        &mut self,
        read: ReplyBody,
        method: &str,
        path: &str,
        body: Option<(&str, &str)>,
    ) -> Result<HttpReply, String> {
        let pooled = self.conn.is_some();
        match self.send(read, method, path, body) {
            Err(_) if pooled => self.send(read, method, path, body),
            outcome => outcome,
        }
    }

    fn send(
        &mut self,
        read: ReplyBody,
        method: &str,
        path: &str,
        body: Option<(&str, &str)>,
    ) -> Result<HttpReply, String> {
        let mut stream = match self.conn.take() {
            Some(stream) => stream,
            None => connect(&self.addr)?,
        };
        let reply = exchange(&mut stream, &self.addr, method, path, body, read)?;
        if !reply.close {
            self.conn = Some(stream);
        }
        Ok(reply)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mutator::mutate;
    use std::collections::VecDeque;
    use tenways_sim::DetRng;

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

    /// `wire` with `header` (a whole line) after its status line, as a
    /// server that sends one more header writes it.
    fn with_header(wire: &[u8], header: &str) -> Vec<u8> {
        let status_end = wire
            .windows(2)
            .position(|w| w == b"\r\n")
            .expect("a status line")
            + 2;
        [&wire[..status_end], header.as_bytes(), &wire[status_end..]].concat()
    }

    #[test]
    fn written_response_reads_back_through_the_reply_reader() {
        let doc = Json::obj([("ok", Json::Bool(true))]);
        let (status, body) = reply(503, doc.to_string());
        for keep_alive in [false, true] {
            let mut wire = Vec::new();
            write_response(&mut wire, status, &body, keep_alive);
            // A header the reader does not use is skipped.
            let mut wire = with_header(&wire, "X-Request-Id: 7\r\n");
            // Bytes past the Content-Length are not part of the reply.
            wire.extend_from_slice(b"HTTP/1.1 200 OK\r\n");
            let chunks: Vec<&[u8]> = wire.chunks(7).collect();
            let reply = read_reply(&mut Trickle::new(&chunks), ReplyBody::Parse).unwrap();
            assert_eq!(reply.status, 503);
            assert_eq!(reply.close, !keep_alive);
            assert_eq!(reply.body.to_string(), doc.to_string());
            assert_eq!(reply.text, format!("{doc}\n"), "the body as written");
        }

        let short = b"HTTP/1.1 200 OK\r\nContent-Length: 50\r\n\r\n{}";
        assert_eq!(
            read_reply(&mut &short[..], ReplyBody::Parse).unwrap_err(),
            "connection closed mid-response"
        );
    }

    /// Fragments spliced into fuzzed messages: the delimiters and headers
    /// the readers branch on, and lengths at and past the size cap.
    const WIRE_SPLICES: &[&str] = &[
        "\r\n",
        "\r\n\r\n",
        "\r",
        ":",
        " ",
        "HTTP/1.0",
        "Connection: close\r\n",
        "Connection: keep-alive\r\n",
        "Content-Length: 0\r\n",
        "Content-Length: 4194305\r\n",
        "Content-Length: 18446744073709551616\r\n",
        "Content-Length: -1\r\n",
        "Content-Type: application/toml\r\n",
        "é",
        "\u{0}",
    ];

    /// Requests in [`exchange`]'s format, and two of them pipelined.
    fn request_seeds() -> Vec<Vec<u8>> {
        let run = r#"{"workload":"lu","threads":2,"scale":1}"#;
        let toml = "workload = \"lu\"\nthreads = 2\n";
        let batch = r#"{"configs":[{"label":"a","config":{"workload":"lu"}}]}"#;
        let mut seeds: Vec<Vec<u8>> = [
            request_text(
                "127.0.0.1:1",
                "POST",
                "/run",
                Some(("application/json", run)),
            ),
            request_text("h", "POST", "/run", Some(("application/toml", toml))),
            request_text("h", "POST", "/batch", Some(("application/json", batch))),
            request_text("h", "GET", "/stats", None),
            request_text("h", "GET", "/healthz", None),
        ]
        .into_iter()
        .map(String::into_bytes)
        .collect();
        seeds.push([seeds[0].clone(), seeds[3].clone()].concat());
        seeds
    }

    /// Replies as [`write_response`] writes them, one with a header more,
    /// with their statuses and bodies.
    fn reply_seeds() -> Vec<(Vec<u8>, u16, String)> {
        let record = Json::obj([("label", Json::from("é \" \\ \n")), ("n", Json::U64(1))]);
        [
            (reply(200, Json::obj([("record", record)]).to_string()), ""),
            (
                reply(
                    500,
                    error_doc(
                        "simulation failed: invalid machine: dram_occupancy must be non-zero",
                    ),
                ),
                "",
            ),
            (reply(503, error_doc("not cached")), "X-Request-Id: 7\r\n"),
            (reply(404, error_doc("no such endpoint: GET /x")), ""),
        ]
        .into_iter()
        .map(|((status, body), header)| {
            let mut wire = Vec::new();
            write_response(&mut wire, status, &body, status == 200);
            (with_header(&wire, header), status, body)
        })
        .collect()
    }

    /// `bytes` cut into a DetRng-drawn script of reads, with a read that
    /// times out before about one in ten of them when `timeouts` is set.
    fn trickle(rng: &mut DetRng, bytes: &[u8], timeouts: bool) -> Trickle {
        let mut chunks = VecDeque::new();
        let mut rest = bytes;
        while !rest.is_empty() {
            if timeouts && rng.chance(0.1) {
                chunks.push_back(Vec::new());
            }
            let n = (rng.range(1, 64) as usize).min(rest.len());
            chunks.push_back(rest[..n].to_vec());
            rest = &rest[n..];
        }
        Trickle(chunks)
    }

    /// Every request on one connection's bytes, rendered with `Debug` so
    /// two reads compare, or the error that ended it.
    fn read_all(reader: &mut impl Read) -> Result<Vec<String>, String> {
        let (mut carry, running) = (Vec::new(), AtomicBool::new(false));
        let mut requests = Vec::new();
        while let Some(r) = read_request(reader, &mut carry, KEEP_ALIVE_IDLE, &running)? {
            assert!(r.body.len() <= MAX_REQUEST_BYTES, "body over the cap");
            requests.push(format!("{r:?}"));
        }
        Ok(requests)
    }

    /// Mutation fuzzing of [`read_request`] on DetRng mutants of the
    /// request seeds, fed whole and as a trickle of reads with timeouts.
    /// Properties: no panic, no body over the cap, and the same requests
    /// or error however the bytes arrive.
    #[test]
    fn mutated_requests_never_panic_and_read_alike_however_they_arrive() {
        const CASES: u64 = 10_000;
        let seeds = request_seeds();
        for seed in &seeds {
            assert!(!read_all(&mut &seed[..]).unwrap().is_empty());
        }
        let mut accepted = 0;
        for case in 0..CASES {
            let mut rng = DetRng::seed(0x4771).split("read-request").split_index(case);
            let mut bytes = seeds[rng.below(seeds.len() as u64) as usize].clone();
            for _ in 0..rng.range(1, 4) {
                mutate(&mut rng, &mut bytes, WIRE_SPLICES);
            }
            let mut trickled = trickle(&mut rng, &bytes, true);
            let (whole, split) = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                (read_all(&mut &bytes[..]), read_all(&mut trickled))
            }))
            .unwrap_or_else(|_| panic!("case {case}: the request reader panicked"));
            assert_eq!(whole, split, "case {case}");
            accepted += usize::from(whole.is_ok_and(|r| !r.is_empty()));
        }
        assert!(
            accepted > 0 && accepted < CASES as usize,
            "{accepted} accepted"
        );
    }

    /// Mutation fuzzing of [`read_reply`] on DetRng mutants of written
    /// replies, fed whole and as a trickle of reads, in both read modes.
    /// Properties: no panic; the same reply or error however the bytes
    /// arrive; validate mode accepts exactly the replies parse mode does,
    /// with the same error otherwise; an accepted reply's text is within
    /// the bound and parses to its body; a reply announced past the bound
    /// is refused with nothing past its head read; and an unmutated reply
    /// reads back with its text byte-identical to the body written.
    #[test]
    fn mutated_replies_never_panic_and_written_ones_read_back_exactly() {
        const CASES: u64 = 10_000;
        let seeds = reply_seeds();
        let mut rng = DetRng::seed(0x4772).split("read-reply");
        for (wire, status, body) in &seeds {
            for mut reader in [Trickle::new(&[wire]), trickle(&mut rng, wire, false)] {
                let reply = read_reply(&mut reader, ReplyBody::Parse).unwrap();
                assert_eq!(reply.status, *status);
                assert_eq!(reply.text, *body, "the body as written");
                assert_eq!(Json::parse(body).as_ref(), Ok(&reply.body));
            }
        }
        let over_bound = format!("Content-Length: {}\r\n", MAX_REPLY_BYTES + 1);
        let splices: Vec<&str> = WIRE_SPLICES
            .iter()
            .copied()
            .chain([over_bound.as_str()])
            .collect();
        // A reader of `bytes` that counts what it handed out; a refused
        // over-bound reply may have taken its head and one read past it.
        let read = |bytes: &[u8], reader: &mut dyn Read, mode| {
            let mut counted = Counted(reader, 0);
            let reply = read_reply(&mut counted, mode);
            if reply.as_ref().is_err_and(|e| e.contains("over the limit")) {
                let head = find_header_end(bytes, 0).expect("a refused reply has a head");
                assert!(counted.1 <= head + 4 + 4096, "{} bytes read", counted.1);
            }
            reply.map(|r| {
                assert!(r.text.len() <= MAX_REPLY_BYTES, "body over the bound");
                match mode {
                    ReplyBody::Parse => assert_eq!(Json::parse(&r.text).as_ref(), Ok(&r.body)),
                    ReplyBody::Validate => assert_eq!(r.body, Json::Null),
                }
                (r.status, r.close, r.text)
            })
        };
        let mut accepted = 0;
        for case in 0..CASES {
            let mut rng = DetRng::seed(0x4772).split("read-reply").split_index(case);
            let (seed, _, _) = &seeds[rng.below(seeds.len() as u64) as usize];
            let mut bytes = seed.clone();
            for _ in 0..rng.range(1, 4) {
                mutate(&mut rng, &mut bytes, &splices);
            }
            let mut trickled = trickle(&mut rng, &bytes, false);
            let (whole, split, validated) =
                std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                    (
                        read(&bytes, &mut &bytes[..], ReplyBody::Parse),
                        read(&bytes, &mut trickled, ReplyBody::Parse),
                        read(&bytes, &mut &bytes[..], ReplyBody::Validate),
                    )
                }))
                .unwrap_or_else(|_| panic!("case {case}: the reply reader panicked"));
            assert_eq!(whole, split, "case {case}");
            assert_eq!(whole, validated, "case {case}: the read modes disagree");
            accepted += usize::from(whole.is_ok());
        }
        assert!(
            accepted > 0 && accepted < CASES as usize,
            "{accepted} accepted"
        );
    }

    /// A reader that counts the bytes it hands out.
    struct Counted<'a>(&'a mut dyn Read, usize);

    impl Read for Counted<'_> {
        fn read(&mut self, out: &mut [u8]) -> std::io::Result<usize> {
            let n = self.0.read(out)?;
            self.1 += n;
            Ok(n)
        }
    }

    #[test]
    fn replies_past_the_bound_are_refused_before_their_body_is_read() {
        /// A reply head announcing `len` bytes, then an endless body.
        struct Endless(Vec<u8>, usize);
        impl Read for Endless {
            fn read(&mut self, out: &mut [u8]) -> std::io::Result<usize> {
                let n = match self.0.get(self.1..) {
                    Some(head) if !head.is_empty() => {
                        let n = head.len().min(out.len());
                        out[..n].copy_from_slice(&head[..n]);
                        n
                    }
                    _ => {
                        out.fill(b' ');
                        out.len()
                    }
                };
                self.1 += n;
                Ok(n)
            }
        }
        for mode in [ReplyBody::Parse, ReplyBody::Validate] {
            let head = format!(
                "HTTP/1.1 200 OK\r\nContent-Length: {}\r\n\r\n",
                MAX_REPLY_BYTES + 1
            );
            let mut reader = Endless(head.clone().into_bytes(), 0);
            let err = read_reply(&mut reader, mode).unwrap_err();
            assert!(err.contains("over the limit"), "{err}");
            assert_eq!(reader.1, head.len(), "no body byte was read");
            // At the bound the body is read, and only the announced bytes.
            let head = format!("HTTP/1.1 200 OK\r\nContent-Length: {MAX_REPLY_BYTES}\r\n\r\n");
            let mut reader = Endless(format!("{head}[]").into_bytes(), 0);
            let reply = read_reply(&mut reader, mode).unwrap();
            assert_eq!(reply.text.len(), MAX_REPLY_BYTES);
        }
    }

    #[test]
    fn a_worst_case_batch_reply_is_accepted_in_both_modes() {
        use crate::serve::{BatchItem, BatchReport, BatchStatus, MAX_BATCH_ITEMS};
        // Every item carries a record of the bound's size and a label
        // echoing its share of a request at the request bound, in the
        // escape that renders each request byte as six.
        let pad = MAX_RECORD_BYTES - r#"{"pad":""}"#.len();
        let record = crate::Record::from(Json::obj([("pad", Json::from("x".repeat(pad)))]));
        assert_eq!(record.as_str().len(), MAX_RECORD_BYTES);
        let label = "\u{1}".repeat(MAX_REQUEST_BYTES / MAX_BATCH_ITEMS);
        let report = BatchReport {
            items: (0..MAX_BATCH_ITEMS)
                .map(|_| BatchItem {
                    label: label.clone(),
                    key: "0".repeat(64),
                    status: BatchStatus::Computed(record.clone()),
                })
                .collect(),
            unique: MAX_BATCH_ITEMS,
        };
        let body = report.to_response_json();
        assert!(body.len() > 5 * MAX_REPLY_BYTES / 6, "{} bytes", body.len());
        let mut wire = Vec::new();
        write_response(&mut wire, 200, &body, true);
        for mode in [ReplyBody::Validate, ReplyBody::Parse] {
            let reply = read_reply(&mut &wire[..], mode).unwrap();
            assert_eq!(reply.text, body);
        }
    }
}
