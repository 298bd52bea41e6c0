//! The client side of the front-end's HTTP/1.1 format.
//!
//! [`generate`] streams one `POST /v1/generate`, [`get`] reads a
//! `Content-Length` body such as `/metrics` or `/healthz`, and
//! [`read_response_head_full`] / [`read_one_chunk`] parse what comes back.
//! `load_gen`, the chaos soak, the integration tests and the
//! `network_serving` example all talk to the server through this module,
//! so every client-side TTFT and TPOT is measured the same way. Reads of
//! server output are bounded like the server's reads of a request: head
//! lines by the 8 KiB head budget, chunk sizes by the 64 KiB body cap.

use std::fmt;
use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

use super::http::{read_head_line, MAX_BODY_BYTES, MAX_HEAD_BYTES};

/// Read timeout of every client connection: the longest wait for the
/// next byte that any caller tolerates.
const READ_TIMEOUT: Duration = Duration::from_secs(60);

/// Why a request failed, split at the request write.
#[derive(Debug)]
pub enum ClientError {
    /// Connecting or writing the request failed. The server read nothing,
    /// so nothing was admitted and the request is safe to retry.
    Send(io::Error),
    /// The request was written, but no intact response head came back.
    Receive(io::Error),
}

impl fmt::Display for ClientError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ClientError::Send(e) => write!(f, "send: {e}"),
            ClientError::Receive(e) => write!(f, "receive: {e}"),
        }
    }
}

impl From<ClientError> for io::Error {
    fn from(err: ClientError) -> io::Error {
        match err {
            ClientError::Send(e) | ClientError::Receive(e) => e,
        }
    }
}

/// An answered request, positioned at its body.
#[derive(Debug)]
pub struct Response {
    /// The parsed response head.
    pub head: ResponseHead,
    /// When the request write began: a client's TTFT runs from here.
    pub sent: Instant,
    reader: BufReader<TcpStream>,
}

impl Response {
    /// The next chunk's payload; `None` at the terminal chunk, and at
    /// once when the head is not chunked.
    pub fn next_chunk(&mut self) -> io::Result<Option<String>> {
        if !self.head.chunked {
            return Ok(None);
        }
        read_one_chunk(&mut self.reader)
    }

    /// Every remaining chunk's payload, up to the terminal chunk; empty
    /// when the head is not chunked.
    pub fn chunks(&mut self) -> io::Result<Vec<String>> {
        let mut chunks = Vec::new();
        while let Some(chunk) = self.next_chunk()? {
            chunks.push(chunk);
        }
        Ok(chunks)
    }
}

/// Sends one `POST /v1/generate` carrying `body` and the extra `headers`
/// (e.g. `X-Deadline-Ms`), and reads the response head. One attempt:
/// any retry is the caller's policy.
pub fn generate(
    addr: SocketAddr,
    body: &str,
    headers: &[(&str, &str)],
) -> Result<Response, ClientError> {
    let mut request = format!(
        "POST /v1/generate HTTP/1.1\r\nHost: {addr}\r\nContent-Type: application/json\r\n\
         Content-Length: {}\r\n",
        body.len()
    );
    for (name, value) in headers {
        request.push_str(&format!("{name}: {value}\r\n"));
    }
    request.push_str("Connection: close\r\n\r\n");
    request.push_str(body);
    exchange(addr, &request)
}

/// Sends one `GET path` and reads the status and `Content-Length` body.
pub fn get(addr: SocketAddr, path: &str) -> io::Result<(u16, String)> {
    let request = format!("GET {path} HTTP/1.1\r\nHost: {addr}\r\nConnection: close\r\n\r\n");
    let response = exchange(addr, &request)?;
    let length = response.head.content_length;
    // Grows with the bytes that arrive, not with the length the peer names.
    let mut body = Vec::new();
    response.reader.take(length as u64).read_to_end(&mut body)?;
    if body.len() < length {
        return Err(io::ErrorKind::UnexpectedEof.into());
    }
    let body = String::from_utf8_lossy(&body).into_owned();
    Ok((response.head.status, body))
}

fn exchange(addr: SocketAddr, request: &str) -> Result<Response, ClientError> {
    let mut stream = TcpStream::connect(addr).map_err(ClientError::Send)?;
    stream.set_nodelay(true).map_err(ClientError::Send)?;
    stream
        .set_read_timeout(Some(READ_TIMEOUT))
        .map_err(ClientError::Send)?;
    let sent = Instant::now();
    stream
        .write_all(request.as_bytes())
        .map_err(ClientError::Send)?;
    let mut reader = BufReader::new(stream);
    let head = read_response_head_full(&mut reader).map_err(ClientError::Receive)?;
    Ok(Response { head, sent, reader })
}

fn malformed(msg: &str) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, format!("bad response: {msg}"))
}

/// Reads the next chunk of a chunked-encoded body. Returns `Ok(None)` at
/// the terminal zero-size chunk. A size line over the head budget or a
/// size over the body cap is `InvalidData`.
pub fn read_one_chunk<R: BufRead>(reader: &mut R) -> io::Result<Option<String>> {
    let mut line = Vec::new();
    if read_head_line(reader, &mut line, &mut { MAX_HEAD_BYTES })? == 0 {
        return Err(malformed("connection closed mid-chunk-stream"));
    }
    let size = usize::from_str_radix(String::from_utf8_lossy(&line).trim(), 16)
        .map_err(|_| malformed("unparseable chunk size"))?;
    if size > MAX_BODY_BYTES {
        return Err(malformed("chunk larger than the body cap"));
    }
    let mut payload = vec![0u8; size + 2]; // payload + CRLF
    reader.read_exact(&mut payload)?;
    if size == 0 {
        return Ok(None);
    }
    payload.truncate(size);
    Ok(Some(String::from_utf8_lossy(&payload).into_owned()))
}

/// A parsed client-side view of a response head.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ResponseHead {
    /// HTTP status code.
    pub status: u16,
    /// Whether the body is chunked-encoded.
    pub chunked: bool,
    /// The declared `Content-Length` (0 when absent or chunked).
    pub content_length: usize,
    /// Seconds from the `Retry-After` header, when the server sent one
    /// (the retryable 503s do; clients should back off that long).
    pub retry_after: Option<u64>,
}

/// Reads and parses an HTTP response head, leaving the reader at the
/// body. A head over the 8 KiB head budget is `InvalidData`.
pub fn read_response_head_full<R: BufRead>(reader: &mut R) -> io::Result<ResponseHead> {
    let mut budget = MAX_HEAD_BYTES;
    let mut line = Vec::new();
    if read_head_line(reader, &mut line, &mut budget)? == 0 {
        return Err(malformed("connection closed before status line"));
    }
    let status: u16 = String::from_utf8_lossy(&line)
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| malformed("unparseable status line"))?;
    let mut head = ResponseHead {
        status,
        chunked: false,
        content_length: 0,
        retry_after: None,
    };
    loop {
        if read_head_line(reader, &mut line, &mut budget)? == 0 {
            return Err(malformed("connection closed mid-response-headers"));
        }
        let text = String::from_utf8_lossy(&line);
        let trimmed = text.trim_end();
        if trimmed.is_empty() {
            return Ok(head);
        }
        if let Some((name, value)) = trimmed.split_once(':') {
            if name.eq_ignore_ascii_case("transfer-encoding")
                && value.trim().eq_ignore_ascii_case("chunked")
            {
                head.chunked = true;
            }
            if name.eq_ignore_ascii_case("content-length") {
                head.content_length = value.trim().parse().unwrap_or(0);
            }
            if name.eq_ignore_ascii_case("retry-after") {
                head.retry_after = value.trim().parse().ok();
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::TcpListener;
    use std::thread;

    /// Answers one request on a loopback listener with `reply`, verbatim.
    fn serve_once(reply: Vec<u8>) -> SocketAddr {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind loopback");
        let addr = listener.local_addr().expect("local addr");
        thread::spawn(move || {
            let (mut stream, _) = listener.accept().expect("accept");
            let _ = super::super::http::read_request(&mut stream);
            let _ = stream.write_all(&reply);
        });
        addr
    }

    #[test]
    fn malformed_replies_are_invalid_data() {
        let chunked = "HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n";
        let over_cap = format!("{:x}", MAX_BODY_BYTES + 1);
        for size in ["ffffffffffffffff", over_cap.as_str()] {
            let addr = serve_once(format!("{chunked}{size}\r\n").into_bytes());
            let mut response = generate(addr, "{}", &[]).expect("the head is well formed");
            let err = response
                .next_chunk()
                .expect_err("a bad chunk size is an error");
            assert_eq!(err.kind(), io::ErrorKind::InvalidData, "chunk size {size}");
        }

        let mut oversized = b"HTTP/1.1 200 OK\r\nX-Pad: ".to_vec();
        oversized.extend(std::iter::repeat_n(b'a', MAX_HEAD_BYTES));
        match generate(serve_once(oversized), "{}", &[]) {
            Err(ClientError::Receive(err)) => assert_eq!(err.kind(), io::ErrorKind::InvalidData),
            other => panic!("an oversized head must be refused, got {other:?}"),
        }
    }
}
