//! Stream abstraction over the two supported transports: TCP and
//! Unix-domain sockets. The protocol itself is transport-agnostic (any
//! `Read + Write` byte stream); this module is the small shim that lets
//! the client and server speak either without duplicating their logic.

use std::fmt;
use std::io::{self, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::PathBuf;
use std::time::Duration;

use crate::client::Endpoint;

/// A connected byte stream over either transport.
#[derive(Debug)]
pub enum WireStream {
    /// A TCP connection.
    Tcp(TcpStream),
    /// A Unix-domain socket connection.
    Unix(UnixStream),
}

impl WireStream {
    /// Connects to `endpoint`.
    pub fn connect(endpoint: &Endpoint) -> io::Result<WireStream> {
        match endpoint {
            Endpoint::Tcp(addr) => {
                let stream = TcpStream::connect(addr.as_str())?;
                stream.set_nodelay(true)?;
                Ok(WireStream::Tcp(stream))
            }
            Endpoint::Unix(path) => Ok(WireStream::Unix(UnixStream::connect(path)?)),
        }
    }

    /// Sets the read timeout, the mechanism behind per-request deadlines.
    pub fn set_read_timeout(&self, timeout: Option<Duration>) -> io::Result<()> {
        match self {
            WireStream::Tcp(s) => s.set_read_timeout(timeout),
            WireStream::Unix(s) => s.set_read_timeout(timeout),
        }
    }

    /// Switches the stream between blocking and non-blocking mode.
    pub fn set_nonblocking(&self, nonblocking: bool) -> io::Result<()> {
        match self {
            WireStream::Tcp(s) => s.set_nonblocking(nonblocking),
            WireStream::Unix(s) => s.set_nonblocking(nonblocking),
        }
    }
}

impl Read for WireStream {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        match self {
            WireStream::Tcp(s) => s.read(buf),
            WireStream::Unix(s) => s.read(buf),
        }
    }
}

impl Write for WireStream {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        match self {
            WireStream::Tcp(s) => s.write(buf),
            WireStream::Unix(s) => s.write(buf),
        }
    }

    fn flush(&mut self) -> io::Result<()> {
        match self {
            WireStream::Tcp(s) => s.flush(),
            WireStream::Unix(s) => s.flush(),
        }
    }
}

/// A bound listener over either transport.
pub enum BoundListener {
    /// A TCP listener.
    Tcp(TcpListener),
    /// A Unix-domain socket listener (the socket file is removed on drop).
    Unix(UnixListener, PathBuf),
}

impl fmt::Debug for BoundListener {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BoundListener::Tcp(l) => write!(f, "BoundListener::Tcp({:?})", l.local_addr()),
            BoundListener::Unix(_, p) => write!(f, "BoundListener::Unix({})", p.display()),
        }
    }
}

impl BoundListener {
    /// Binds to `endpoint`. A stale Unix socket file from a previous run
    /// is removed first.
    pub fn bind(endpoint: &Endpoint) -> io::Result<BoundListener> {
        match endpoint {
            Endpoint::Tcp(addr) => Ok(BoundListener::Tcp(TcpListener::bind(addr.as_str())?)),
            Endpoint::Unix(path) => {
                let _ = std::fs::remove_file(path);
                Ok(BoundListener::Unix(UnixListener::bind(path)?, path.clone()))
            }
        }
    }

    /// The endpoint actually bound, with any TCP port-0 resolved.
    pub fn local_endpoint(&self) -> io::Result<Endpoint> {
        match self {
            BoundListener::Tcp(l) => Ok(Endpoint::Tcp(l.local_addr()?.to_string())),
            BoundListener::Unix(_, path) => Ok(Endpoint::Unix(path.clone())),
        }
    }

    /// Switches the listener between blocking and non-blocking accepts.
    pub fn set_nonblocking(&self, nonblocking: bool) -> io::Result<()> {
        match self {
            BoundListener::Tcp(l) => l.set_nonblocking(nonblocking),
            BoundListener::Unix(l, _) => l.set_nonblocking(nonblocking),
        }
    }

    /// Accepts one connection.
    pub fn accept(&self) -> io::Result<WireStream> {
        match self {
            BoundListener::Tcp(l) => {
                let (stream, _) = l.accept()?;
                stream.set_nodelay(true)?;
                Ok(WireStream::Tcp(stream))
            }
            BoundListener::Unix(l, _) => {
                let (stream, _) = l.accept()?;
                Ok(WireStream::Unix(stream))
            }
        }
    }
}

impl Drop for BoundListener {
    fn drop(&mut self) {
        if let BoundListener::Unix(_, path) = self {
            let _ = std::fs::remove_file(path);
        }
    }
}
