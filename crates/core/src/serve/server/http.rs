//! The server side of a deliberately small HTTP/1.1 over std TCP.
//!
//! Covers exactly what the serving front-end needs — request-line +
//! header + fixed-length-body parsing, plain JSON responses, and chunked
//! streaming responses — with hard caps on header and body sizes so a
//! misbehaving client cannot balloon memory. The client side lives in
//! [`client`](super::client) and reads under the same caps. No external
//! dependencies, in keeping with the `third_party/` stub policy.

use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::TcpStream;

/// Upper bound on a message head (start line plus all headers).
pub(super) const MAX_HEAD_BYTES: usize = 8 * 1024;

/// Upper bound on a request body, and on one response chunk.
pub(super) const MAX_BODY_BYTES: usize = 64 * 1024;

/// One parsed HTTP request.
#[derive(Debug)]
pub struct Request {
    /// Request method, uppercased by the client (`GET`, `POST`, ...).
    pub method: String,
    /// Request path, query string included.
    pub path: String,
    /// The request body (empty when no `Content-Length` was sent).
    pub body: Vec<u8>,
    /// Per-request deadline from the `X-Deadline-Ms` header, if sent:
    /// milliseconds from arrival to required completion. Overrides the
    /// server's configured default; an unparseable value is a 400.
    pub deadline_ms: Option<u64>,
}

/// Reads one head line as raw bytes, bounded by the remaining head
/// budget. Unlike `read_line`, this never buffers more than the budget
/// (a peer streaming an endless line cannot balloon memory) and never
/// fails on non-UTF-8 garbage — the caller converts lossily. Returns the
/// bytes read (0 on EOF); a line that exhausts the budget is an error.
pub(super) fn read_head_line<R: BufRead>(
    reader: &mut R,
    line: &mut Vec<u8>,
    budget: &mut usize,
) -> io::Result<usize> {
    line.clear();
    // One byte past the budget distinguishes "exactly at the cap" from
    // "over it" without unbounded buffering.
    let n = reader
        .by_ref()
        .take(*budget as u64 + 1)
        .read_until(b'\n', line)?;
    if n > *budget {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            "HTTP head too large",
        ));
    }
    *budget -= n;
    Ok(n)
}

/// Reads one HTTP/1.1 request from the stream.
///
/// Returns `Ok(None)` on a clean EOF before any bytes (client connected
/// and left), and an error naming the malformation otherwise: truncated
/// request or header lines, a head over [`MAX_HEAD_BYTES`] (request line
/// included), and an unparseable or over-budget `Content-Length` all
/// surface as errors the handler answers with 400 — never a panic and
/// never an unbounded read.
pub fn read_request(stream: &mut TcpStream) -> io::Result<Option<Request>> {
    let mut reader = BufReader::new(stream);
    let mut budget = MAX_HEAD_BYTES;
    let mut line: Vec<u8> = Vec::new();

    // Request line.
    if read_head_line(&mut reader, &mut line, &mut budget)? == 0 {
        return Ok(None);
    }
    if line.last() != Some(&b'\n') {
        return Err(bad("truncated request line"));
    }
    let text = String::from_utf8_lossy(&line);
    let mut parts = text.split_whitespace();
    let method = parts
        .next()
        .ok_or_else(|| bad("empty request line"))?
        .to_owned();
    let path = parts
        .next()
        .ok_or_else(|| bad("request line missing path"))?
        .to_owned();

    // Headers until the blank line.
    let mut content_length = 0u64;
    let mut deadline_ms = None;
    loop {
        if read_head_line(&mut reader, &mut line, &mut budget)? == 0 {
            return Err(bad("connection closed mid-headers"));
        }
        if line.last() != Some(&b'\n') {
            return Err(bad("truncated header line"));
        }
        let text = String::from_utf8_lossy(&line);
        let trimmed = text.trim_end();
        if trimmed.is_empty() {
            break;
        }
        if let Some((name, value)) = trimmed.split_once(':') {
            if name.eq_ignore_ascii_case("content-length") {
                // Strict u64 parse: negative, non-numeric and
                // overflowing values are all malformed, not huge.
                content_length = value
                    .trim()
                    .parse::<u64>()
                    .map_err(|_| bad("unparseable Content-Length"))?;
            }
            if name.eq_ignore_ascii_case("x-deadline-ms") {
                deadline_ms = Some(
                    value
                        .trim()
                        .parse::<u64>()
                        .map_err(|_| bad("unparseable X-Deadline-Ms"))?,
                );
            }
        }
    }

    if content_length > MAX_BODY_BYTES as u64 {
        return Err(bad("request body too large"));
    }
    let mut body = vec![0u8; content_length as usize];
    reader.read_exact(&mut body)?;
    Ok(Some(Request {
        method,
        path,
        body,
        deadline_ms,
    }))
}

fn bad(msg: &str) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, format!("bad request: {msg}"))
}

/// The reason phrase of the status codes this server emits.
fn reason(status: u16) -> &'static str {
    match status {
        200 => "OK",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        503 => "Service Unavailable",
        504 => "Gateway Timeout",
        _ => "Internal Server Error",
    }
}

/// Writes a complete JSON response with `Content-Length` and closes the
/// logical exchange (`Connection: close` — one request per connection).
pub fn respond_json<W: Write>(stream: &mut W, status: u16, body: &str) -> io::Result<()> {
    respond_json_with(stream, status, body, &[])
}

/// [`respond_json`] with extra response headers (name, value) — the
/// retryable 503s attach `Retry-After` this way. The whole response goes
/// out in one `write`: with `TCP_NODELAY` set, every write can leave as
/// its own segment.
pub fn respond_json_with<W: Write>(
    stream: &mut W,
    status: u16,
    body: &str,
    extra_headers: &[(&str, &str)],
) -> io::Result<()> {
    let mut response = Vec::with_capacity(160 + body.len());
    write!(
        response,
        "HTTP/1.1 {status} {}\r\nContent-Type: application/json\r\nContent-Length: {}\r\n",
        reason(status),
        body.len(),
    )?;
    for (name, value) in extra_headers {
        write!(response, "{name}: {value}\r\n")?;
    }
    write!(response, "Connection: close\r\n\r\n{body}")?;
    stream.write_all(&response)?;
    stream.flush()
}

/// Starts a chunked streaming response. Follow with [`write_chunk`] per
/// token and [`end_chunks`] to terminate.
pub fn begin_stream<W: Write>(stream: &mut W) -> io::Result<()> {
    stream.write_all(
        b"HTTP/1.1 200 OK\r\nContent-Type: application/x-ndjson\r\nTransfer-Encoding: chunked\r\nConnection: close\r\n\r\n",
    )?;
    stream.flush()
}

/// Writes one HTTP chunk and flushes it so the client sees the token now.
/// The chunk is framed in `frame`, a buffer the caller reuses from chunk
/// to chunk, and goes out in one `write`.
pub fn write_chunk<W: Write>(stream: &mut W, frame: &mut Vec<u8>, payload: &str) -> io::Result<()> {
    frame.clear();
    write!(frame, "{:x}\r\n{payload}\r\n", payload.len())?;
    stream.write_all(frame)?;
    stream.flush()
}

/// Terminates a chunked response.
pub fn end_chunks<W: Write>(stream: &mut W) -> io::Result<()> {
    stream.write_all(b"0\r\n\r\n")?;
    stream.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Records every `write` it is given.
    #[derive(Default)]
    struct Writes(Vec<Vec<u8>>);

    impl Write for Writes {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            self.0.push(buf.to_vec());
            Ok(buf.len())
        }

        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    /// Runs `send` on a fresh recorder and returns its one write.
    fn one_write(send: impl FnOnce(&mut Writes) -> io::Result<()>) -> String {
        let mut writes = Writes::default();
        send(&mut writes).expect("a recorder never fails a write");
        assert_eq!(writes.0.len(), 1, "{:?}", writes.0);
        String::from_utf8(writes.0.remove(0)).expect("HTTP heads and payloads are UTF-8")
    }

    #[test]
    fn every_response_head_and_chunk_is_one_write() {
        assert_eq!(
            one_write(|w| respond_json_with(
                w,
                503,
                "{\"error\":\"queue full\"}",
                &[("Retry-After", "1")]
            )),
            "HTTP/1.1 503 Service Unavailable\r\nContent-Type: application/json\r\n\
             Content-Length: 22\r\nRetry-After: 1\r\nConnection: close\r\n\r\n\
             {\"error\":\"queue full\"}"
        );
        assert_eq!(
            one_write(|w| respond_json(w, 200, "{}")),
            "HTTP/1.1 200 OK\r\nContent-Type: application/json\r\nContent-Length: 2\r\n\
             Connection: close\r\n\r\n{}"
        );
        assert_eq!(
            one_write(begin_stream),
            "HTTP/1.1 200 OK\r\nContent-Type: application/x-ndjson\r\n\
             Transfer-Encoding: chunked\r\nConnection: close\r\n\r\n"
        );
        let mut frame = Vec::new();
        for (payload, chunk) in [
            ("{\"token\":7}\n", "c\r\n{\"token\":7}\n\r\n"),
            ("{\"timed_out\":true}\n", "13\r\n{\"timed_out\":true}\n\r\n"),
        ] {
            assert_eq!(one_write(|w| write_chunk(w, &mut frame, payload)), chunk);
        }
        assert_eq!(one_write(end_chunks), "0\r\n\r\n");
    }
}
