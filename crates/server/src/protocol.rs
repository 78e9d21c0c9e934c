//! The wire codec: dual framed/line request framing, dot-terminated
//! line responses, error codes, and value parse/render rules.
//!
//! See `docs/WIRE_PROTOCOL.md` for the operator-facing specification
//! with a worked `nc` transcript. In short: a request is one command
//! line, sent either *framed* (`<len>\n<payload>`, `len` in ASCII
//! decimal) or *line-mode* (the raw line, `\n`-terminated, as typed
//! into `nc`). Responses come back in the mode of their request:
//! framed responses are one `<len>\n<payload>` frame; line-mode
//! responses are the payload's lines, dot-stuffed SMTP-style, followed
//! by a lone `.` terminator line.

use std::fmt;
use std::io::{self, BufRead, Read, Write};

use pi_storage::{DataType, Value};

/// Upper bound on a framed payload and on a line-mode line (terminator
/// excluded). Larger length prefixes are rejected with
/// [`ErrorCode::BadFrame`] before any allocation; a line is rejected
/// once this many bytes arrived without a newline.
pub const MAX_FRAME_LEN: usize = 16 << 20;

/// Machine-readable error classes of the protocol. The wire form is the
/// first word after `ERR`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ErrorCode {
    /// Malformed frame: non-decimal length, overlong prefix, a truncated
    /// payload, or a payload or line exceeding [`MAX_FRAME_LEN`]. The
    /// connection closes after this error — the stream position is no
    /// longer trustworthy.
    BadFrame,
    /// Unknown command word or malformed argument list.
    BadCommand,
    /// A query spec that parses but cannot run: column out of range,
    /// stage position out of range, duplicate stage, `distinct` over a
    /// `Float` column.
    BadPlan,
    /// A value literal that does not parse under the column's type, or
    /// a string containing a forbidden separator character.
    BadValue,
    /// Shard index out of range.
    BadShard,
    /// The target shard's statement queue is full; retry later.
    /// Admission control, not an error in the statement itself.
    ServerBusy,
    /// The server is draining for shutdown; no new work is admitted.
    ShuttingDown,
}

impl ErrorCode {
    /// The wire token for this code.
    pub fn as_str(&self) -> &'static str {
        match self {
            ErrorCode::BadFrame => "BadFrame",
            ErrorCode::BadCommand => "BadCommand",
            ErrorCode::BadPlan => "BadPlan",
            ErrorCode::BadValue => "BadValue",
            ErrorCode::BadShard => "BadShard",
            ErrorCode::ServerBusy => "ServerBusy",
            ErrorCode::ShuttingDown => "ShuttingDown",
        }
    }
}

/// A protocol-level error: code plus human-readable detail. Rendered on
/// the wire as `ERR <Code> <detail>`.
#[derive(Debug, Clone)]
pub struct ServerError {
    /// Error class.
    pub code: ErrorCode,
    /// Human-readable detail (single line).
    pub msg: String,
}

impl ServerError {
    /// Constructs an error with the given code and detail message.
    pub fn new(code: ErrorCode, msg: impl Into<String>) -> Self {
        ServerError {
            code,
            msg: msg.into(),
        }
    }

    /// The wire rendering: `ERR <Code> <detail>`.
    pub fn render(&self) -> String {
        format!("ERR {} {}", self.code.as_str(), self.msg)
    }
}

impl fmt::Display for ServerError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.render())
    }
}

/// How a request arrived — responses mirror the mode.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WireMode {
    /// `<len>\n<payload>` frames (programs; length-prefixed both ways).
    Framed,
    /// Raw `\n`-terminated command lines (humans over `nc`; responses
    /// are dot-terminated line blocks).
    Line,
}

/// Reads one request. Returns `Ok(None)` on clean EOF before any byte
/// of a request; IO errors surface as `Err` (the server sets no read
/// timeout: shutdown unblocks a reader by shutting its stream down).
pub fn read_request(
    r: &mut impl BufRead,
) -> io::Result<Option<(WireMode, Result<String, ServerError>)>> {
    let mut first = [0u8; 1];
    match r.read_exact(&mut first) {
        Ok(()) => {}
        Err(e) if e.kind() == io::ErrorKind::UnexpectedEof => return Ok(None),
        Err(e) => return Err(e),
    }
    if first[0].is_ascii_digit() {
        Ok(Some((WireMode::Framed, read_framed(r, first[0]))))
    } else {
        Ok(Some((WireMode::Line, read_line_tail(r, first[0]))))
    }
}

fn read_framed(r: &mut impl BufRead, first: u8) -> Result<String, ServerError> {
    let bad = |m: &str| ServerError::new(ErrorCode::BadFrame, m);
    let mut len = (first - b'0') as usize;
    let mut digits = 1;
    loop {
        let mut b = [0u8; 1];
        r.read_exact(&mut b)
            .map_err(|_| bad("truncated length prefix"))?;
        match b[0] {
            b'\n' => break,
            d if d.is_ascii_digit() => {
                digits += 1;
                if digits > 8 {
                    return Err(bad("length prefix too long"));
                }
                len = len * 10 + (d - b'0') as usize;
            }
            _ => return Err(bad("non-decimal length prefix")),
        }
    }
    if len > MAX_FRAME_LEN {
        return Err(bad("frame exceeds MAX_FRAME_LEN"));
    }
    // Past 64 KiB the buffer grows with the bytes that arrive, not with
    // the claim.
    let mut payload = Vec::with_capacity(len.min(64 << 10));
    match r.take(len as u64).read_to_end(&mut payload) {
        Ok(n) if n == len => {}
        _ => return Err(bad("truncated payload")),
    }
    String::from_utf8(payload).map_err(|_| bad("payload is not UTF-8"))
}

fn read_line_tail(r: &mut impl BufRead, first: u8) -> Result<String, ServerError> {
    // A newline first is a whole (empty) line; reading on would swallow
    // the next request into this one.
    if first == b'\n' {
        return Ok(String::new());
    }
    let bad = |m: &str| ServerError::new(ErrorCode::BadFrame, m);
    let mut line = Vec::with_capacity(64);
    line.push(first);
    // With `first`, `MAX_FRAME_LEN` bytes that end in no newline are a
    // line longer than the cap.
    let n = r
        .take(MAX_FRAME_LEN as u64)
        .read_until(b'\n', &mut line)
        .map_err(|_| bad("connection error mid-line"))?;
    if n == MAX_FRAME_LEN && line.last() != Some(&b'\n') {
        return Err(bad("line exceeds MAX_FRAME_LEN"));
    }
    while matches!(line.last(), Some(b'\n') | Some(b'\r')) {
        line.pop();
    }
    String::from_utf8(line).map_err(|_| bad("line is not UTF-8"))
}

/// Writes `payload` as a response in `mode`. Framed mode emits one
/// `<len>\n<payload>` frame. Line mode emits the payload's lines with
/// SMTP dot-stuffing (a leading `.` becomes `..`) and a lone `.`
/// terminator.
pub fn write_response(w: &mut impl Write, mode: WireMode, payload: &str) -> io::Result<()> {
    match mode {
        WireMode::Framed => {
            write!(w, "{}\n{payload}", payload.len())?;
        }
        WireMode::Line => {
            for line in payload.split('\n') {
                if line.starts_with('.') {
                    w.write_all(b".")?;
                }
                w.write_all(line.as_bytes())?;
                w.write_all(b"\n")?;
            }
            w.write_all(b".\n")?;
        }
    }
    w.flush()
}

/// Parses one value literal under a column type. Strings are taken
/// verbatim but must not contain the protocol's separator characters
/// (`,`, `;`, tab, newline) — there is no quoting.
pub fn parse_value(s: &str, dtype: DataType) -> Result<Value, ServerError> {
    let bad = |m: String| ServerError::new(ErrorCode::BadValue, m);
    match dtype {
        DataType::Int | DataType::Date => s
            .parse::<i64>()
            .map(Value::Int)
            .map_err(|_| bad(format!("not an integer: {s:?}"))),
        DataType::Float => s
            .parse::<f64>()
            .map(Value::Float)
            .map_err(|_| bad(format!("not a float: {s:?}"))),
        DataType::Str => {
            if s.contains([',', ';', '\t', '\n']) {
                Err(bad(format!("string contains a separator: {s:?}")))
            } else {
                Ok(Value::Str(s.to_string()))
            }
        }
    }
}

/// Renders one value for the wire: integers in decimal, floats in
/// shortest-roundtrip form, strings verbatim.
pub fn render_value(v: &Value) -> String {
    match v {
        Value::Int(i) => i.to_string(),
        Value::Float(f) => format!("{f:?}"),
        Value::Str(s) => s.clone(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::BufReader;

    fn roundtrip_read(bytes: &[u8]) -> Option<(WireMode, Result<String, ServerError>)> {
        read_request(&mut BufReader::new(bytes)).unwrap()
    }

    #[test]
    fn framed_roundtrip() {
        let mut buf = Vec::new();
        write_response(&mut buf, WireMode::Framed, "OK pong").unwrap();
        assert_eq!(buf, b"7\nOK pong");
        let (mode, payload) = roundtrip_read(b"4\nPING").unwrap();
        assert_eq!(mode, WireMode::Framed);
        assert_eq!(payload.unwrap(), "PING");
    }

    #[test]
    fn line_mode_dot_termination_and_stuffing() {
        let mut buf = Vec::new();
        write_response(&mut buf, WireMode::Line, "OK rows=1\n.hidden").unwrap();
        assert_eq!(buf, b"OK rows=1\n..hidden\n.\n");
        let (mode, payload) = roundtrip_read(b"PING\r\n").unwrap();
        assert_eq!(mode, WireMode::Line);
        assert_eq!(payload.unwrap(), "PING");
    }

    /// Regression: an empty line read the next line into itself, so
    /// `\nPING\n` decoded as one request `"\nPING"` and the line-mode
    /// client that sent the empty line never got its response.
    #[test]
    fn empty_line_is_a_request_of_its_own() {
        let mut r = BufReader::new(&b"\nPING\n"[..]);
        for want in ["", "PING"] {
            let (mode, payload) = read_request(&mut r).unwrap().unwrap();
            assert_eq!(mode, WireMode::Line);
            assert_eq!(payload.unwrap(), want);
        }
        assert!(read_request(&mut r).unwrap().is_none());
    }

    #[test]
    fn eof_and_bad_frames() {
        assert!(roundtrip_read(b"").is_none());
        let (_, r) = roundtrip_read(b"99999999999\nx").unwrap();
        assert_eq!(r.unwrap_err().code, ErrorCode::BadFrame);
        let (_, r) = roundtrip_read(b"5\nab").unwrap();
        assert_eq!(r.unwrap_err().code, ErrorCode::BadFrame);
        let (_, r) = roundtrip_read(b"3x\nabc").unwrap();
        assert_eq!(r.unwrap_err().code, ErrorCode::BadFrame);
    }

    #[test]
    fn line_over_the_cap_is_a_bad_frame() {
        // A line of exactly the cap still reads; one byte more never
        // reaches its newline.
        let mut at_cap = vec![b'a'; MAX_FRAME_LEN];
        at_cap.push(b'\n');
        let (mode, r) = roundtrip_read(&at_cap).unwrap();
        assert_eq!(mode, WireMode::Line);
        assert_eq!(r.unwrap().len(), MAX_FRAME_LEN);
        let mut over = io::repeat(b'a').take(MAX_FRAME_LEN as u64 + 1);
        let (mode, r) = read_request(&mut BufReader::new(&mut over))
            .unwrap()
            .unwrap();
        assert_eq!(mode, WireMode::Line);
        // Compare lengths, not a 16 MiB string, if this ever fails.
        assert_eq!(
            r.map(|line| line.len()).map_err(|e| e.code),
            Err(ErrorCode::BadFrame)
        );
    }

    #[test]
    fn truncated_claimed_frame_is_a_bad_frame() {
        // The full 16 MiB is claimed, two bytes are sent.
        let (mode, r) = roundtrip_read(format!("{MAX_FRAME_LEN}\nab").as_bytes()).unwrap();
        assert_eq!(mode, WireMode::Framed);
        assert_eq!(r.unwrap_err().code, ErrorCode::BadFrame);
        let (_, r) = roundtrip_read(b"2\nab").unwrap();
        assert_eq!(r.unwrap(), "ab");
    }

    #[test]
    fn value_rules() {
        assert_eq!(parse_value("42", DataType::Int).unwrap(), Value::Int(42));
        assert_eq!(
            parse_value("1.5", DataType::Float).unwrap(),
            Value::Float(1.5)
        );
        assert_eq!(
            parse_value("ab", DataType::Str).unwrap(),
            Value::Str("ab".into())
        );
        assert_eq!(
            parse_value("a,b", DataType::Str).unwrap_err().code,
            ErrorCode::BadValue
        );
        assert_eq!(
            parse_value("x", DataType::Int).unwrap_err().code,
            ErrorCode::BadValue
        );
        assert_eq!(render_value(&Value::Float(0.5)), "0.5");
        assert_eq!(render_value(&Value::Int(-3)), "-3");
    }
}
