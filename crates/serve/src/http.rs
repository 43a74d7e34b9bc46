//! A minimal, dependency-free HTTP/1.1 layer over `std::io`.
//!
//! Implements exactly what the evaluation service and the load generator
//! need: request-line + header parsing with hard size limits,
//! `Content-Length` bodies, case-insensitive header lookup, keep-alive
//! detection, and response serialization. No chunked encoding, no TLS —
//! catalogs and reports are small JSON documents.

use std::io::{self, BufRead, Write};

/// Upper bound on the request line plus all headers.
pub const MAX_HEADER_BYTES: usize = 16 * 1024;
/// Upper bound on a request body (catalog documents are small).
pub const MAX_BODY_BYTES: usize = 4 * 1024 * 1024;

/// A parsed HTTP request.
#[derive(Debug, Clone)]
pub struct Request {
    /// Method verb, uppercased by the client (`GET`, `POST`, …).
    pub method: String,
    /// The raw request target (path plus optional query).
    pub target: String,
    /// Protocol version as written (`HTTP/1.1`).
    pub version: String,
    /// Header name/value pairs in arrival order.
    pub headers: Vec<(String, String)>,
    /// The body, empty unless `Content-Length` said otherwise.
    pub body: Vec<u8>,
}

impl Request {
    /// Case-insensitive header lookup (first match).
    pub fn header(&self, name: &str) -> Option<&str> {
        self.headers.iter().find(|(k, _)| k.eq_ignore_ascii_case(name)).map(|(_, v)| v.as_str())
    }

    /// The target without its query string.
    pub fn path(&self) -> &str {
        self.target.split('?').next().unwrap_or(&self.target)
    }

    /// The value of query parameter `name`, percent-decoded (`+` also
    /// decodes to a space). The first occurrence wins; a key without `=`
    /// yields an empty string.
    pub fn query_param(&self, name: &str) -> Option<String> {
        let query = self.target.split_once('?')?.1;
        query.split('&').find_map(|pair| {
            let (key, value) = pair.split_once('=').unwrap_or((pair, ""));
            (percent_decode(key) == name).then(|| percent_decode(value))
        })
    }

    /// Whether the connection should stay open after the response
    /// (HTTP/1.1 defaults to keep-alive unless `Connection: close`).
    pub fn keep_alive(&self) -> bool {
        match self.header("connection") {
            Some(v) => !v.eq_ignore_ascii_case("close"),
            None => self.version == "HTTP/1.1",
        }
    }
}

/// Percent-decodes a query component (`%41` → `A`, `+` → space). Invalid
/// or truncated escapes are passed through literally rather than erroring:
/// query strings here only select resources, so the worst case is a lookup
/// miss.
pub fn percent_decode(s: &str) -> String {
    let bytes = s.as_bytes();
    let mut out = Vec::with_capacity(bytes.len());
    let mut i = 0;
    while i < bytes.len() {
        match bytes[i] {
            b'+' => {
                out.push(b' ');
                i += 1;
            }
            b'%' => {
                // Both escape characters must be hex digits — from_str_radix
                // alone would also accept sign-prefixed forms like "+5".
                match bytes.get(i + 1..i + 3).and_then(|h| {
                    if !h.iter().all(u8::is_ascii_hexdigit) {
                        return None;
                    }
                    u8::from_str_radix(std::str::from_utf8(h).ok()?, 16).ok()
                }) {
                    Some(byte) => {
                        out.push(byte);
                        i += 3;
                    }
                    None => {
                        out.push(b'%');
                        i += 1;
                    }
                }
            }
            b => {
                out.push(b);
                i += 1;
            }
        }
    }
    String::from_utf8_lossy(&out).into_owned()
}

/// Which size limit a rejected request exceeded. Each kind maps to its own
/// HTTP status: an oversized header section is `431 Request Header Fields
/// Too Large`, an oversized declared body is `413 Payload Too Large`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TooLargeKind {
    /// The request line plus headers exceeded [`MAX_HEADER_BYTES`].
    Header,
    /// The declared `Content-Length` exceeded [`MAX_BODY_BYTES`].
    Body,
}

impl TooLargeKind {
    /// The HTTP status this rejection must answer with.
    pub fn status(self) -> u16 {
        match self {
            TooLargeKind::Header => 431,
            TooLargeKind::Body => 413,
        }
    }

    fn what(self) -> &'static str {
        match self {
            TooLargeKind::Header => "header section",
            TooLargeKind::Body => "body",
        }
    }
}

/// Why a request could not be read.
#[derive(Debug)]
pub enum ReadError {
    /// The underlying socket failed (including read timeouts).
    Io(io::Error),
    /// The request exceeded a size limit — answer
    /// [`TooLargeKind::status`] (431 or 413).
    TooLarge(TooLargeKind),
    /// The bytes were not valid HTTP — answer 400.
    Malformed(String),
}

impl std::fmt::Display for ReadError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ReadError::Io(e) => write!(f, "io: {e}"),
            ReadError::TooLarge(kind) => write!(f, "{} too large", kind.what()),
            ReadError::Malformed(msg) => write!(f, "malformed request: {msg}"),
        }
    }
}

impl From<io::Error> for ReadError {
    fn from(e: io::Error) -> Self {
        ReadError::Io(e)
    }
}

/// Reads one line (up to CRLF or LF) with a byte budget shared across the
/// whole header section.
fn read_line(r: &mut impl BufRead, budget: &mut usize) -> Result<String, ReadError> {
    let mut raw = Vec::new();
    loop {
        let available = r.fill_buf()?;
        if available.is_empty() {
            if raw.is_empty() {
                return Ok(String::new()); // clean EOF before any byte
            }
            return Err(ReadError::Malformed("unexpected EOF inside header".into()));
        }
        let take = match available.iter().position(|&b| b == b'\n') {
            Some(nl) => nl + 1,
            None => available.len(),
        };
        if take > *budget {
            return Err(ReadError::TooLarge(TooLargeKind::Header));
        }
        *budget -= take;
        let done = available[take - 1] == b'\n';
        raw.extend_from_slice(&available[..take]);
        r.consume(take);
        if done {
            break;
        }
    }
    while raw.last() == Some(&b'\n') || raw.last() == Some(&b'\r') {
        raw.pop();
    }
    String::from_utf8(raw).map_err(|_| ReadError::Malformed("non-UTF-8 header".into()))
}

/// Reads one request. `Ok(None)` means the peer closed the connection
/// cleanly before sending anything (normal keep-alive end).
pub fn read_request(r: &mut impl BufRead) -> Result<Option<Request>, ReadError> {
    let mut budget = MAX_HEADER_BYTES;
    let line = read_line(r, &mut budget)?;
    if line.is_empty() {
        // Either clean EOF or a stray blank line; treat both as end.
        return Ok(None);
    }
    let mut parts = line.split_whitespace();
    let (method, target, version) = match (parts.next(), parts.next(), parts.next()) {
        (Some(m), Some(t), Some(v)) if v.starts_with("HTTP/") => {
            (m.to_string(), t.to_string(), v.to_string())
        }
        _ => return Err(ReadError::Malformed(format!("bad request line {line:?}"))),
    };

    let mut headers = Vec::new();
    loop {
        let line = read_line(r, &mut budget)?;
        if line.is_empty() {
            break;
        }
        let Some((name, value)) = line.split_once(':') else {
            return Err(ReadError::Malformed(format!("bad header line {line:?}")));
        };
        headers.push((name.trim().to_string(), value.trim().to_string()));
    }

    let request = Request { method, target, version, headers, body: Vec::new() };
    let length = match request.header("content-length") {
        None => 0,
        Some(v) => v
            .parse::<usize>()
            .map_err(|_| ReadError::Malformed(format!("bad content-length {v:?}")))?,
    };
    if length > MAX_BODY_BYTES {
        return Err(ReadError::TooLarge(TooLargeKind::Body));
    }
    let mut body = vec![0u8; length];
    if length > 0 {
        r.read_exact(&mut body)?;
    }
    Ok(Some(Request { body, ..request }))
}

/// An HTTP response ready for serialization.
#[derive(Debug, Clone)]
pub struct Response {
    /// Status code.
    pub status: u16,
    /// `Content-Type` value.
    pub content_type: &'static str,
    /// Response body bytes.
    pub body: Vec<u8>,
    /// Extra headers (name, value), e.g. `Retry-After`.
    pub extra: Vec<(&'static str, String)>,
}

impl Response {
    /// A JSON response.
    pub fn json(status: u16, body: String) -> Response {
        Response {
            status,
            content_type: "application/json",
            body: body.into_bytes(),
            extra: Vec::new(),
        }
    }

    /// A plain-body response with an explicit content type (e.g. the
    /// Graphviz DOT export).
    pub fn text(status: u16, content_type: &'static str, body: String) -> Response {
        Response { status, content_type, body: body.into_bytes(), extra: Vec::new() }
    }

    /// A JSON error envelope `{"error": …}`.
    pub fn error(status: u16, message: &str) -> Response {
        let mut escaped = String::with_capacity(message.len() + 2);
        for c in message.chars() {
            match c {
                '"' => escaped.push_str("\\\""),
                '\\' => escaped.push_str("\\\\"),
                '\n' => escaped.push_str("\\n"),
                c if (c as u32) < 0x20 => escaped.push_str(&format!("\\u{:04x}", c as u32)),
                c => escaped.push(c),
            }
        }
        Response::json(status, format!("{{\"error\":\"{escaped}\"}}"))
    }
}

/// The standard reason phrase for the status codes this server emits.
pub fn reason(status: u16) -> &'static str {
    match status {
        200 => "OK",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        413 => "Payload Too Large",
        429 => "Too Many Requests",
        431 => "Request Header Fields Too Large",
        500 => "Internal Server Error",
        503 => "Service Unavailable",
        _ => "Unknown",
    }
}

/// Serializes a response; `keep_alive` selects the `Connection` header.
pub fn write_response(w: &mut impl Write, resp: &Response, keep_alive: bool) -> io::Result<()> {
    let mut head = format!(
        "HTTP/1.1 {} {}\r\ncontent-type: {}\r\ncontent-length: {}\r\nconnection: {}\r\n",
        resp.status,
        reason(resp.status),
        resp.content_type,
        resp.body.len(),
        if keep_alive { "keep-alive" } else { "close" },
    );
    for (name, value) in &resp.extra {
        head.push_str(name);
        head.push_str(": ");
        head.push_str(value);
        head.push_str("\r\n");
    }
    head.push_str("\r\n");
    // One write for head and body: written in two pieces on a socket with
    // Nagle's algorithm on, the body would wait for the client's (delayed)
    // ACK of the head.
    let mut wire = head.into_bytes();
    wire.extend_from_slice(&resp.body);
    w.write_all(&wire)?;
    w.flush()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::BufReader;

    fn parse(bytes: &[u8]) -> Result<Option<Request>, ReadError> {
        read_request(&mut BufReader::new(bytes))
    }

    #[test]
    fn parses_get_with_headers() {
        let req =
            parse(b"GET /v1/stats?x=1 HTTP/1.1\r\nHost: localhost\r\nX-Thing: a b\r\n\r\n")
                .unwrap()
                .unwrap();
        assert_eq!(req.method, "GET");
        assert_eq!(req.target, "/v1/stats?x=1");
        assert_eq!(req.path(), "/v1/stats");
        assert_eq!(req.header("host"), Some("localhost"));
        assert_eq!(req.header("x-thing"), Some("a b"));
        assert!(req.keep_alive(), "HTTP/1.1 defaults to keep-alive");
        assert!(req.body.is_empty());
    }

    #[test]
    fn parses_post_body_by_content_length() {
        let req = parse(b"POST /v1/evaluate HTTP/1.1\r\nContent-Length: 4\r\n\r\n{\"a\":rest")
            .unwrap()
            .unwrap();
        assert_eq!(req.body, b"{\"a\"");
    }

    #[test]
    fn query_params_decode_percent_escapes_and_plus() {
        let req = parse(
            b"GET /v2/model/dot?catalog=table7&scenario=Baseline%20architecture:%20Rio\
+-+Tokio&flag HTTP/1.1\r\n\r\n",
        )
        .unwrap()
        .unwrap();
        assert_eq!(req.path(), "/v2/model/dot");
        assert_eq!(req.query_param("catalog").as_deref(), Some("table7"));
        assert_eq!(
            req.query_param("scenario").as_deref(),
            Some("Baseline architecture: Rio - Tokio")
        );
        assert_eq!(req.query_param("flag").as_deref(), Some(""), "bare key is empty");
        assert_eq!(req.query_param("missing"), None);

        let plain = parse(b"GET /healthz HTTP/1.1\r\n\r\n").unwrap().unwrap();
        assert_eq!(plain.query_param("x"), None, "no query string at all");

        // Grid-expanded names round-trip: brackets, commas and equals.
        assert_eq!(
            percent_decode("fig7%5Bsecondary%3DBrasilia%2Calpha%3D0.35%5D"),
            "fig7[secondary=Brasilia,alpha=0.35]"
        );
        // Malformed escapes fall through literally instead of erroring.
        assert_eq!(percent_decode("100%zz%4"), "100%zz%4");
        // Sign-prefixed pseudo-hex must not decode ("%+5" is not an
        // escape; the '+' still means space).
        assert_eq!(percent_decode("a%+5b"), "a% 5b");
        assert_eq!(percent_decode("%-1"), "%-1");
    }

    #[test]
    fn connection_close_disables_keep_alive() {
        let req = parse(b"GET / HTTP/1.1\r\nConnection: close\r\n\r\n").unwrap().unwrap();
        assert!(!req.keep_alive());
        let req10 = parse(b"GET / HTTP/1.0\r\n\r\n").unwrap().unwrap();
        assert!(!req10.keep_alive(), "HTTP/1.0 defaults to close");
    }

    #[test]
    fn clean_eof_is_none() {
        assert!(parse(b"").unwrap().is_none());
    }

    #[test]
    fn malformed_inputs_are_rejected() {
        assert!(matches!(parse(b"NOT-HTTP\r\n\r\n"), Err(ReadError::Malformed(_))));
        assert!(matches!(
            parse(b"GET / HTTP/1.1\r\nbroken header\r\n\r\n"),
            Err(ReadError::Malformed(_))
        ));
        assert!(matches!(
            parse(b"POST / HTTP/1.1\r\nContent-Length: zebra\r\n\r\n"),
            Err(ReadError::Malformed(_))
        ));
    }

    #[test]
    fn oversized_header_and_body_are_rejected() {
        let mut big = Vec::from(&b"GET / HTTP/1.1\r\n"[..]);
        big.extend(std::iter::repeat_n(b'a', MAX_HEADER_BYTES + 10));
        assert!(matches!(parse(&big), Err(ReadError::TooLarge(TooLargeKind::Header))));
        assert_eq!(TooLargeKind::Header.status(), 431);

        let huge = format!("POST / HTTP/1.1\r\nContent-Length: {}\r\n\r\n", MAX_BODY_BYTES + 1);
        assert!(matches!(parse(huge.as_bytes()), Err(ReadError::TooLarge(TooLargeKind::Body))));
        assert_eq!(TooLargeKind::Body.status(), 413);
    }

    #[test]
    fn truncated_body_is_an_io_error() {
        assert!(matches!(
            parse(b"POST / HTTP/1.1\r\nContent-Length: 50\r\n\r\nshort"),
            Err(ReadError::Io(_))
        ));
    }

    #[test]
    fn response_round_trips_through_parser() {
        let resp = Response::json(200, "{\"ok\":true}".into());
        let mut wire = Vec::new();
        write_response(&mut wire, &resp, false).unwrap();
        let text = String::from_utf8(wire).unwrap();
        assert!(text.starts_with("HTTP/1.1 200 OK\r\n"));
        assert!(text.contains("content-length: 11\r\n"));
        assert!(text.contains("connection: close\r\n"));
        assert!(text.ends_with("{\"ok\":true}"));
    }

    #[test]
    fn error_envelope_escapes_quotes() {
        let resp = Response::error(400, "bad \"thing\"\nhere");
        let body = String::from_utf8(resp.body).unwrap();
        assert_eq!(body, "{\"error\":\"bad \\\"thing\\\"\\nhere\"}");
    }
}
