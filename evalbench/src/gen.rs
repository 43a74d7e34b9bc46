//! Open-loop HTTP load generator.
//!
//! Requests fall due on a fixed schedule whatever the server does. Due
//! requests join one FIFO queue in front of a small pool of connection
//! slots, and each goes out as soon as a slot is free, as an HTTP client's
//! connection pool sends them. One thread drives every
//! connection with non-blocking sockets. Each request is timed from when it
//! was due, so a stall also counts against every request queued behind it.
//! How late the generator itself noticed each due time is recorded apart.

use std::collections::VecDeque;
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

/// One scheduled request.
#[derive(Debug, Clone)]
pub struct Planned {
    /// When it is due, seconds after the run starts.
    pub due_s: f64,
    /// The full HTTP/1.1 request.
    pub bytes: Vec<u8>,
}

/// One answered request.
#[derive(Debug, Clone)]
pub struct Answer {
    /// HTTP status.
    pub status: u16,
    /// Response body.
    pub body: Vec<u8>,
    /// The server's own handling time (`x-dtc-duration-us`), µs.
    pub handle_us: Option<u64>,
}

/// Everything one open-loop run observed, indexed like the schedule.
#[derive(Debug)]
pub struct Observed {
    /// The answer, or `None` when the request failed (connection error, no
    /// answer before the run's deadline, or never sent).
    pub answers: Vec<Option<Answer>>,
    /// Latency from the due time to the full response, ms; infinite for a
    /// failed request, so it counts as over every limit.
    pub latency_ms: Vec<f64>,
    /// How late the generator noticed each due time, ms.
    pub late_ms: Vec<f64>,
    /// Requests queued or in flight when each request fell due (before it
    /// joined the queue).
    pub backlog_at_due: Vec<usize>,
    /// Requests never sent because the backlog passed the give-up
    /// threshold (see [`run`]).
    pub abandoned: usize,
    /// Share of the run's wall time the connections had a request in
    /// flight, averaged over the connections.
    pub busy_share: f64,
    /// When the run started (due times count from here).
    pub started: Instant,
    /// Wall time of the run, seconds.
    pub wall_s: f64,
}

struct Conn {
    stream: Option<TcpStream>,
    out: Vec<u8>,
    written: usize,
    inbuf: Vec<u8>,
    /// The request in flight on this connection, if any.
    inflight: Option<usize>,
}

impl Conn {
    fn open(addr: SocketAddr) -> io::Result<Conn> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_nonblocking(true)?;
        Ok(Conn {
            stream: Some(stream),
            out: Vec::new(),
            written: 0,
            inbuf: Vec::new(),
            inflight: None,
        })
    }
}

/// Runs `schedule` (ascending `due_s`) against `addr` through a pool of
/// `connections` connections: kept alive across requests when
/// `keep_alive` (the requests must ask for it), else one per request.
/// Requests unanswered `drain` after the last due time count as failed.
/// When `give_up_backlog` is set and more requests than that are queued or
/// in flight, the rest of the schedule is abandoned (counted as failed)
/// and only what was sent is drained: an overload step need not run to its
/// end to fail.
pub fn run(
    addr: SocketAddr,
    schedule: &[Planned],
    connections: usize,
    keep_alive: bool,
    drain: Duration,
    give_up_backlog: Option<usize>,
) -> io::Result<Observed> {
    let n = schedule.len();
    let mut conns: Vec<Conn> =
        (0..connections.max(1)).map(|_| Conn::open(addr)).collect::<io::Result<_>>()?;
    let mut answers: Vec<Option<Answer>> = vec![None; n];
    let mut done_s = vec![f64::INFINITY; n];
    let mut late_ms = vec![0.0; n];
    let mut sent_s = vec![f64::INFINITY; n];
    let mut queue: VecDeque<usize> = VecDeque::new();
    let mut backlog_at_due = vec![0; n];
    let mut abandoned = 0usize;
    let mut deadline = schedule.last().map_or(0.0, |p| p.due_s) + drain.as_secs_f64();
    let mut buf = vec![0u8; 64 * 1024];
    let start = Instant::now();
    let mut next = 0usize;
    loop {
        let now = start.elapsed().as_secs_f64();
        let busy = conns.iter().filter(|c| c.inflight.is_some()).count();
        while next < n && schedule[next].due_s <= now {
            late_ms[next] = (now - schedule[next].due_s) * 1e3;
            backlog_at_due[next] = queue.len() + busy;
            queue.push_back(next);
            next += 1;
        }
        if give_up_backlog.is_some_and(|limit| queue.len() + busy > limit) {
            abandoned = queue.len() + (n - next);
            queue.clear();
            next = n;
            deadline = now + drain.as_secs_f64();
        }
        for conn in &mut conns {
            if conn.inflight.is_some() {
                continue;
            }
            let Some(i) = queue.pop_front() else { break };
            if conn.stream.is_none() {
                *conn = Conn::open(addr)?;
            }
            conn.out.extend_from_slice(&schedule[i].bytes);
            conn.inflight = Some(i);
            sent_s[i] = start.elapsed().as_secs_f64();
        }
        let mut progress = false;
        for conn in &mut conns {
            progress |= pump(conn, keep_alive, &mut buf, &mut answers, &mut done_s, start);
        }
        let busy = conns.iter().any(|c| c.inflight.is_some());
        if next == n && queue.is_empty() && !busy {
            break;
        }
        if next == n && now > deadline {
            break;
        }
        if !progress {
            let idle = if busy || !queue.is_empty() {
                Duration::from_micros(50)
            } else {
                let until_due = schedule.get(next).map_or(0.0, |p| p.due_s - now).max(0.0);
                Duration::from_secs_f64(until_due.min(1e-3))
            };
            std::thread::sleep(idle);
        }
    }
    let wall_s = start.elapsed().as_secs_f64();
    let busy_s: f64 =
        sent_s.iter().zip(&done_s).filter(|(_, d)| d.is_finite()).map(|(s, d)| d - s).sum();
    let latency_ms = schedule
        .iter()
        .zip(&done_s)
        .map(|(p, &d)| if d.is_finite() { (d - p.due_s) * 1e3 } else { f64::INFINITY })
        .collect();
    Ok(Observed {
        answers,
        latency_ms,
        late_ms,
        backlog_at_due,
        abandoned,
        busy_share: busy_s / (conns.len() as f64 * wall_s),
        started: start,
        wall_s,
    })
}

/// Writes what is pending and reads what has arrived on one connection.
/// Returns whether anything moved. A broken connection fails its request
/// in flight and is dropped; so is a connection not kept alive once it has
/// answered.
fn pump(
    conn: &mut Conn,
    keep_alive: bool,
    buf: &mut [u8],
    answers: &mut [Option<Answer>],
    done_s: &mut [f64],
    start: Instant,
) -> bool {
    let Some(stream) = conn.stream.as_mut() else { return false };
    let mut progress = false;
    let mut broken = false;
    while conn.written < conn.out.len() {
        match stream.write(&conn.out[conn.written..]) {
            Ok(0) => {
                broken = true;
                break;
            }
            Ok(k) => {
                conn.written += k;
                progress = true;
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(_) => {
                broken = true;
                break;
            }
        }
    }
    if conn.written == conn.out.len() {
        conn.out.clear();
        conn.written = 0;
    }
    while !broken {
        match stream.read(buf) {
            Ok(0) => broken = true,
            Ok(k) => {
                conn.inbuf.extend_from_slice(&buf[..k]);
                progress = true;
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(_) => broken = true,
        }
    }
    match parse_response(&conn.inbuf) {
        Ok(Some((answer, used))) => {
            conn.inbuf.drain(..used);
            match conn.inflight.take() {
                Some(i) => {
                    done_s[i] = start.elapsed().as_secs_f64();
                    answers[i] = Some(answer);
                    // Without keep-alive the server closes after answering.
                    broken |= !keep_alive;
                }
                None => broken = true,
            }
        }
        Ok(None) => {}
        Err(_) => broken = true,
    }
    if broken {
        // A request in flight on a dead connection stays unanswered.
        conn.stream = None;
        conn.inflight = None;
        conn.out.clear();
        conn.written = 0;
        conn.inbuf.clear();
    }
    progress
}

/// Parses one complete response from the front of `buf`: `Ok(None)` when
/// more bytes are needed, else the answer and the bytes it used.
pub fn parse_response(buf: &[u8]) -> Result<Option<(Answer, usize)>, String> {
    let Some(head_end) = buf.windows(4).position(|w| w == b"\r\n\r\n") else {
        return Ok(None);
    };
    let head = std::str::from_utf8(&buf[..head_end]).map_err(|_| "non-UTF-8 head")?;
    let mut lines = head.split("\r\n");
    let status: u16 = lines
        .next()
        .and_then(|l| l.split_whitespace().nth(1))
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| format!("bad status line in {head:?}"))?;
    let (mut length, mut handle_us) = (None, None);
    for (name, value) in lines.filter_map(|line| line.split_once(':')) {
        if name.trim().eq_ignore_ascii_case("content-length") {
            length = value.trim().parse::<usize>().ok();
        } else if name.trim().eq_ignore_ascii_case("x-dtc-duration-us") {
            handle_us = value.trim().parse().ok();
        }
    }
    let length = length.ok_or("response without content-length")?;
    let total = head_end + 4 + length;
    if buf.len() < total {
        return Ok(None);
    }
    Ok(Some((Answer { status, body: buf[head_end + 4..total].to_vec(), handle_us }, total)))
}

/// A `POST` of a JSON body; `keep_alive` asks the server to keep the
/// connection open for the next request.
pub fn post(path: &str, body: &str, keep_alive: bool) -> Vec<u8> {
    format!(
        "POST {path} HTTP/1.1\r\nhost: bench\r\ncontent-type: application/json\r\n\
         content-length: {}\r\nconnection: {}\r\n\r\n{body}",
        body.len(),
        if keep_alive { "keep-alive" } else { "close" }
    )
    .into_bytes()
}

/// One blocking request on a fresh connection (set-up and scrapes); the
/// request should ask the server to close the connection.
pub fn request_once(addr: SocketAddr, request: &[u8]) -> io::Result<Answer> {
    let mut stream = TcpStream::connect(addr)?;
    stream.set_read_timeout(Some(Duration::from_secs(60)))?;
    exchange(&mut stream, request)
}

/// Writes one request on a blocking connection and reads its response.
pub fn exchange(stream: &mut TcpStream, request: &[u8]) -> io::Result<Answer> {
    stream.write_all(request)?;
    let mut inbuf = Vec::new();
    let mut buf = [0u8; 16 * 1024];
    loop {
        if let Some((answer, _)) =
            parse_response(&inbuf).map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))?
        {
            return Ok(answer);
        }
        let k = stream.read(&mut buf)?;
        if k == 0 {
            return Err(io::Error::new(io::ErrorKind::UnexpectedEof, "connection closed"));
        }
        inbuf.extend_from_slice(&buf[..k]);
    }
}

/// A blocking `GET`.
pub fn get(addr: SocketAddr, path: &str) -> io::Result<Answer> {
    request_once(
        addr,
        format!("GET {path} HTTP/1.1\r\nhost: bench\r\nconnection: close\r\n\r\n").as_bytes(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::BufRead;
    use std::net::TcpListener;

    #[test]
    fn parses_pipelined_responses() {
        let two = b"HTTP/1.1 200 OK\r\ncontent-length: 2\r\nx-dtc-duration-us: 17\r\n\r\nokHTTP/1.1 503 Service Unavailable\r\nContent-Length: 0\r\n\r\n";
        let (first, used) = parse_response(two).unwrap().unwrap();
        assert_eq!(
            (first.status, first.body.as_slice(), first.handle_us),
            (200, &b"ok"[..], Some(17))
        );
        let (second, rest) = parse_response(&two[used..]).unwrap().unwrap();
        assert_eq!((second.status, used + rest), (503, two.len()));
        assert!(parse_response(&two[..used - 1]).unwrap().is_none());
        assert!(parse_response(b"garbage\r\n\r\n").is_err());
    }

    /// A one-connection server that answers requests in order and stalls
    /// before answering the first one.
    fn stalling_server(
        stall: Duration,
        requests: usize,
    ) -> (SocketAddr, std::thread::JoinHandle<()>) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let handle = std::thread::spawn(move || {
            let (stream, _) = listener.accept().unwrap();
            let mut writer = stream.try_clone().unwrap();
            let mut reader = std::io::BufReader::new(stream);
            for i in 0..requests {
                let mut length = 0;
                loop {
                    let mut line = String::new();
                    reader.read_line(&mut line).unwrap();
                    if line == "\r\n" {
                        break;
                    }
                    if let Some(v) = line.to_ascii_lowercase().strip_prefix("content-length:") {
                        length = v.trim().parse().unwrap();
                    }
                }
                let mut body = vec![0u8; length];
                reader.read_exact(&mut body).unwrap();
                if i == 0 {
                    std::thread::sleep(stall);
                }
                writer.write_all(b"HTTP/1.1 200 OK\r\ncontent-length: 0\r\n\r\n").unwrap();
            }
        });
        (addr, handle)
    }

    #[test]
    fn latency_counts_from_the_due_time_under_a_stall() {
        let stall = Duration::from_millis(300);
        let (addr, server) = stalling_server(stall, 5);
        // Five requests due 50 ms apart on one connection: the stall on the
        // first delays the four behind it, and their latency must show it.
        let schedule: Vec<Planned> = (0..5)
            .map(|i| Planned { due_s: 0.05 * i as f64, bytes: post("/x", "{}", true) })
            .collect();
        let observed = run(addr, &schedule, 1, true, Duration::from_secs(5), None).unwrap();
        server.join().unwrap();
        assert!(observed.answers.iter().all(|a| a.as_ref().is_some_and(|a| a.status == 200)));
        for (i, &ms) in observed.latency_ms.iter().enumerate() {
            // Request i is answered no earlier than the stall ends, 300 ms
            // after time zero, so its due-time latency is ≥ 300 − 50·i ms.
            let floor = 300.0 - 50.0 * i as f64;
            assert!(ms >= floor - 1.0, "request {i}: {ms:.1} ms < {floor} ms");
        }
        // The generator itself kept to the schedule.
        assert!(observed.late_ms.iter().all(|&l| l < 20.0), "{:?}", observed.late_ms);
        assert_eq!(observed.backlog_at_due, [0, 1, 2, 3, 4]);
    }

    #[test]
    fn unanswered_requests_fail_after_the_drain() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let schedule = vec![Planned { due_s: 0.0, bytes: post("/x", "{}", true) }];
        let observed = run(addr, &schedule, 1, true, Duration::from_millis(100), None).unwrap();
        drop(listener);
        assert!(observed.answers[0].is_none());
        assert_eq!(observed.latency_ms[0], f64::INFINITY);
    }
}
