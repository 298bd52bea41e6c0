//! `server_stream`: the TCP front-end under closed-loop streaming clients.
//!
//! The engine is the tiny simulated model with no pacing floor, so a step
//! costs microseconds and accept, parse, admission, the engine-loop
//! hand-off, chunk delivery and SLO recording are most of every token.
//! With the real backend the front-end would be under 3% of a token and
//! this workload would repeat `real_serve`.

use std::io::{BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::thread;
use std::time::{Duration, Instant};

use hybrimoe::serve::server::{
    read_one_chunk, read_response_head_full, Server, ServerConfig, ServerHandle,
};
use hybrimoe::EngineConfig;
use hybrimoe_model::ModelConfig;
use serde::Value;

use super::batched::{Batched, Traffic};
use super::{
    nproc, preset, spec, RequestSample, RoundOutput, Serving, Spec, ThreadBudget, Workload,
};
use crate::cal::{Epoch, HostClock};
use crate::gen::{self, PlannedRequest, RoundInputs};
use crate::metrics::json_field;
use crate::spans::{SpanClock, Tracer};

const REQUESTS: u32 = 320;
const PROMPT: u32 = 16;
const DECODE: u32 = 64;

/// Requests the clients share out before they meet and the clock may
/// sample: with nothing in flight at a sample, every request lies inside
/// one segment of the clock. About 0.1 s of streaming.
const REQUESTS_PER_LAP: usize = 32;

pub struct ServerStream {
    clients: usize,
}

impl ServerStream {
    pub fn new() -> ServerStream {
        ServerStream { clients: nproc() }
    }

    fn engine_config(&self) -> EngineConfig {
        preset(ModelConfig::tiny_test())
    }
}

impl Workload for ServerStream {
    fn spec(&self) -> &'static Spec {
        spec("server_stream").expect("listed")
    }

    fn threads(&self) -> ThreadBudget {
        // One connection per client at a time, each with one handler; the
        // engine loop is the server's own thread. Clients and handlers
        // block on each other, so at most `nproc` threads are busy.
        ThreadBudget {
            harness: 1,
            client: self.clients,
            handler: self.clients,
            ..Default::default()
        }
    }

    fn generate(&self, content_seed: u64) -> RoundInputs {
        gen::uniform_requests(content_seed, REQUESTS, PROMPT, DECODE)
    }

    fn engine_view(&self) -> Batched {
        let traffic = Traffic::Closed {
            users: self.clients,
            requests: REQUESTS,
            prompt: PROMPT,
            decode: DECODE,
        };
        let config = ServerConfig::new(self.engine_config());
        Batched::engine_view(self.spec(), config.engine, config.max_batch, traffic)
    }

    fn setup(&self, inputs: &RoundInputs) -> Box<dyn Serving> {
        let mut config = ServerConfig::new(self.engine_config());
        config.seed = inputs.trace_seed;
        let handle = Server::start(config).expect("bind a loopback port");
        Box::new(ServerServing {
            handle,
            clients: self.clients,
            traced: false,
        })
    }
}

struct ServerServing {
    handle: ServerHandle,
    clients: usize,
    traced: bool,
}

/// What one client saw of one request.
struct ClientSample {
    id: u32,
    /// Turns the stamps below into raw stamps of the loop's clock.
    epoch: Epoch,
    start: Instant,
    head: Instant,
    /// Arrival of every chunk that carried a token.
    tokens: Vec<Instant>,
    end: Instant,
    server_ttft_ms: f64,
    server_queue_wait_ms: f64,
}

impl Serving for ServerServing {
    fn serve(
        &mut self,
        inputs: &RoundInputs,
        tracer: &mut Tracer,
        clock: &mut HostClock<'_>,
    ) -> RoundOutput {
        self.traced = tracer.enabled();
        let addr = self.handle.addr();
        let results: Mutex<Vec<Result<ClientSample, String>>> = Mutex::new(Vec::new());
        for lap in inputs.requests.chunks(REQUESTS_PER_LAP) {
            clock.tick();
            let epoch = clock.epoch();
            let next = AtomicUsize::new(0);
            thread::scope(|scope| {
                for _ in 0..self.clients {
                    scope.spawn(|| loop {
                        let ticket = next.fetch_add(1, Ordering::Relaxed);
                        let Some(request) = lap.get(ticket) else {
                            break;
                        };
                        let result = stream_request(addr, request, epoch);
                        results.lock().expect("a client panicked").push(result);
                    });
                }
            });
        }
        clock.close();

        let mut out = RoundOutput {
            attempted: inputs.requests.len() as u64,
            prompt_tokens: inputs.prompt_tokens(),
            ..Default::default()
        };
        for result in results.into_inner().expect("a client panicked") {
            let s = match result {
                Ok(sample) => sample,
                Err(why) => {
                    out.failed += 1;
                    out.problems.push(why);
                    continue;
                }
            };
            let ms = |from: Instant, to: Instant| to.duration_since(from).as_secs_f64() * 1e3;
            // The same on the loop's calibrated clock.
            let at = |t: Instant| clock.at(s.epoch.raw_ns(t)) / 1e6;
            let first = s.tokens[0];
            let last = *s.tokens.last().expect("at least the first token");
            out.output_tokens += s.tokens.len() as u64;
            out.requests.push(RequestSample {
                ttft_ms: at(first) - at(s.start),
                tpot_ms: (at(last) - at(first)) / (s.tokens.len() - 1).max(1) as f64,
            });
            out.itl_ms
                .extend(s.tokens.windows(2).map(|w| at(w[1]) - at(w[0])));
            if tracer.enabled() {
                let timed = &mut out.host_timed;
                timed.push("server.connect_to_head_ms_p50", ms(s.start, s.head));
                timed.push(
                    "server.added_ttft_ms",
                    ms(s.start, first) - s.server_ttft_ms,
                );
                timed.push("server.queue_wait_ms_p50", s.server_queue_wait_ms);
                timed.extend(
                    "server.delivery_gap_us_p50",
                    s.tokens.windows(2).map(|w| ms(w[0], w[1]) * 1e3),
                );
                let id = Some(s.id);
                let at = |t: Instant| tracer.stamp(t);
                let (start, head, first, end) = (at(s.start), at(s.head), at(first), at(s.end));
                let host = SpanClock::Host;
                let parent = tracer.record("request", start, end, None, id, host);
                tracer.record("client.connect_to_head", start, head, parent, id, host);
                tracer.record("client.head_to_first_token", head, first, parent, id, host);
                tracer.record("client.stream", first, end, parent, id, host);
            }
        }
        out
    }

    fn finish(self: Box<Self>, out: &mut RoundOutput) {
        if self.traced {
            let start = Instant::now();
            match scrape_metrics(self.handle.addr()) {
                Ok(()) => out.host_timed.push(
                    "server.metrics_scrape_ms",
                    start.elapsed().as_secs_f64() * 1e3,
                ),
                Err(why) => out.problems.push(format!("GET /metrics failed: {why}")),
            }
        }
        let m = self.handle.shutdown();
        if m.admitted != m.completed || m.queued != 0 || m.running != 0 {
            out.problems.push(format!(
                "after drain: admitted {} completed {} queued {} running {}",
                m.admitted, m.completed, m.queued, m.running
            ));
        }
        if self.traced {
            let rejected =
                m.rejected_queue_full + m.rejected_shed + m.rejected_draining + m.rejected_deadline;
            out.layers.push("server.admitted", m.admitted as f64);
            out.layers.push("server.completed", m.completed as f64);
            out.layers.push("server.rejected", rejected as f64);
        }
    }
}

/// Streams one request over its own connection and checks that the stream
/// carries exactly the requested token chunks plus the terminal
/// accounting chunk.
fn stream_request(
    addr: SocketAddr,
    request: &PlannedRequest,
    epoch: Epoch,
) -> Result<ClientSample, String> {
    let id = request.id;
    let fail = |what: &str, e: &dyn std::fmt::Display| format!("request {id}: {what}: {e}");
    let start = Instant::now();
    let mut stream = TcpStream::connect(addr).map_err(|e| fail("connect", &e))?;
    stream.set_nodelay(true).map_err(|e| fail("nodelay", &e))?;
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .map_err(|e| fail("timeout", &e))?;
    let body = format!(
        "{{\"prompt_tokens\":{},\"decode_tokens\":{}}}",
        request.prompt_tokens, request.decode_tokens
    );
    write!(
        stream,
        "POST /v1/generate HTTP/1.1\r\nHost: benchmark\r\nContent-Type: application/json\r\n\
         Content-Length: {}\r\nConnection: close\r\n\r\n{body}",
        body.len()
    )
    .and_then(|()| stream.flush())
    .map_err(|e| fail("send", &e))?;

    let mut reader = BufReader::new(stream);
    let head = read_response_head_full(&mut reader).map_err(|e| fail("response head", &e))?;
    let head_at = Instant::now();
    if head.status != 200 || !head.chunked {
        return Err(fail("response", &format_args!("status {}", head.status)));
    }

    let mut tokens = Vec::with_capacity(request.decode_tokens as usize + 1);
    let mut terminal = None;
    while let Some(chunk) = read_one_chunk(&mut reader).map_err(|e| fail("chunk", &e))? {
        if terminal.is_some() {
            return Err(fail("stream", &"a chunk followed the terminal chunk"));
        }
        if chunk == format!("{{\"token\":{}}}\n", tokens.len()) {
            tokens.push(Instant::now());
        } else {
            terminal = Some(chunk);
        }
    }
    let end = Instant::now();
    if tokens.len() != request.decode_tokens as usize + 1 {
        return Err(fail(
            "stream",
            &format_args!("{} token chunks", tokens.len()),
        ));
    }
    let terminal = terminal.ok_or_else(|| fail("stream", &"no terminal chunk"))?;
    let done: Value = serde_json::from_str(&terminal).map_err(|e| fail("terminal chunk", &e))?;
    if json_field(&done, "done") != Some(&Value::Bool(true)) {
        return Err(fail("terminal chunk", &terminal.trim_end()));
    }
    let number = |name: &str| {
        json_field(&done, name)
            .and_then(Value::as_f64)
            .ok_or_else(|| fail("terminal chunk lacks", &name))
    };
    Ok(ClientSample {
        id,
        epoch,
        start,
        head: head_at,
        tokens,
        end,
        server_ttft_ms: number("ttft_ms")?,
        server_queue_wait_ms: number("queue_wait_ms")?,
    })
}

/// One `GET /metrics` exchange, read to the end of its body.
fn scrape_metrics(addr: SocketAddr) -> Result<(), String> {
    let mut stream = TcpStream::connect(addr).map_err(|e| e.to_string())?;
    stream
        .write_all(b"GET /metrics HTTP/1.1\r\nHost: benchmark\r\nConnection: close\r\n\r\n")
        .map_err(|e| e.to_string())?;
    let mut reader = BufReader::new(stream);
    let head = read_response_head_full(&mut reader).map_err(|e| e.to_string())?;
    let mut body = vec![0u8; head.content_length];
    std::io::Read::read_exact(&mut reader, &mut body).map_err(|e| e.to_string())?;
    if head.status != 200 || body.is_empty() {
        return Err(format!("status {}", head.status));
    }
    Ok(())
}
