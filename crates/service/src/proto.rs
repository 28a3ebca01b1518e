//! The line-framed client protocol spoken over the unix socket.
//!
//! One request per line, one response per request; payloads are
//! hex-encoded so the framing stays printable and a session can be
//! driven from a script file (`hvraid connect --script`). Verbs (any
//! case; arguments separated by any whitespace; `\n` or `\r\n` ends a
//! line, and a last line cut short by end-of-stream still counts):
//!
//! ```text
//! HELLO <tenant> <reader|writer|mixed>   -> OK session <id> elements <n> element_size <b>
//! READ <addr> <len>                      -> OK data <hex>
//! WRITE <addr> <hex>                     -> OK wrote <elements>
//! FLUSH                                  -> OK flushed
//! STATS                                  -> OK stats <lines>   (then that many metric lines)
//! QUIT                                   -> OK bye             (closes the connection)
//! SHUTDOWN                               -> OK shutdown        (drains, flushes, stops the server)
//! ```
//!
//! Errors come back as a single `ERR <kind>: <detail>` line; `ERR busy`
//! and `ERR throttled` are retryable backpressure, everything else is a
//! hard failure for that request. Two of them also end the connection,
//! because the stream's framing can no longer be trusted: a line longer
//! than any admissible op needs (64 bytes + two hex digits per byte of
//! the largest payload the volume and the token bucket allow) and a line
//! that is not UTF-8. A connection the server has no room for gets one
//! `ERR busy: <n> connections` line instead of a session.
//!
//! The hex itself is [`raid_math::hex`]'s business — this crate forbids
//! `unsafe`, the codec wants SIMD — and [`parse`] hands it the payload
//! untouched: nothing here walks or copies those bytes a second time.

use raid_math::hex;

use crate::scheduler::{ServiceError, TenantClass};

/// A parsed client request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Request {
    /// Open the session: tenant label + traffic class.
    Hello {
        /// Tenant label (metrics dimension).
        tenant: String,
        /// Declared traffic class.
        class: TenantClass,
    },
    /// Read `len` elements at `addr`.
    Read {
        /// First element.
        addr: usize,
        /// Element count.
        len: usize,
    },
    /// Write the decoded payload at `addr`.
    Write {
        /// First element.
        addr: usize,
        /// Raw bytes (multiple of the element size).
        data: Vec<u8>,
    },
    /// Flush dirty cached stripes.
    Flush,
    /// Fetch the Prometheus metrics snapshot.
    Stats,
    /// Close this connection.
    Quit,
    /// Drain, flush, and stop the whole server.
    Shutdown,
}

/// Encodes bytes as lower-case hex.
#[must_use]
pub fn to_hex(bytes: &[u8]) -> String {
    let mut digits = vec![0u8; bytes.len() * 2];
    hex::encode(&mut digits, bytes);
    String::from_utf8(digits).expect("hex digits are ASCII")
}

/// Decodes lower- or upper-case hex.
///
/// # Errors
///
/// Returns a message on odd length or a non-hex digit.
pub fn from_hex(s: &str) -> Result<Vec<u8>, String> {
    if !s.len().is_multiple_of(2) {
        return Err(format!("hex payload has odd length {}", s.len()));
    }
    let mut out = vec![0u8; s.len() / 2];
    match hex::decode(&mut out, s.as_bytes()) {
        Ok(()) => Ok(out),
        // Every byte before the first non-digit is ASCII, so `at` is a
        // character boundary.
        Err(at) => Err(format!("bad hex digit {:?}", s[at..].chars().next().expect("at < len"))),
    }
}

/// Appends the reply to a `READ` — `OK data ` and the hex of `bytes`,
/// encoded in place — to `out`.
pub fn push_data_reply(out: &mut Vec<u8>, bytes: &[u8]) {
    out.extend_from_slice(b"OK data ");
    let at = out.len();
    out.resize(at + bytes.len() * 2, 0);
    hex::encode(&mut out[at..], bytes);
}

/// The longest request line (newline included) a connection accepts:
/// two hex digits per byte of the largest payload an admissible op can
/// carry, plus 64 bytes for the rest — `WRITE`, a 20-digit address,
/// separators and line ending fit twice over.
pub(crate) fn max_frame(max_op_elements: usize, element_size: usize) -> usize {
    max_op_elements.saturating_mul(element_size).saturating_mul(2).saturating_add(64)
}

/// Splits off the first whitespace-delimited token of `s`; both halves
/// are empty when there is none.
fn token(s: &str) -> (&str, &str) {
    let s = s.trim_start();
    s.split_at(s.find(char::is_whitespace).unwrap_or(s.len()))
}

/// Takes `verb`'s next argument off the front of `rest`.
fn arg<'a>(verb: &str, rest: &mut &'a str, name: &str) -> Result<&'a str, String> {
    let (found, after) = token(rest);
    *rest = after;
    if found.is_empty() {
        return Err(format!("{verb}: missing <{name}>"));
    }
    Ok(found)
}

/// Parses one request line.
///
/// Verb and arguments are split off the front by position, and a `WRITE`
/// hands the whole rest of the line to the hex decoder, which checks
/// every byte anyway — so the payload is walked once, by the decoder, and
/// copied nowhere. Only a payload that fails to decode is searched for a
/// token boundary, to tell a bad digit from a trailing argument.
///
/// # Errors
///
/// Returns a user-facing message on an unknown verb or malformed
/// arguments.
pub fn parse(line: &str) -> Result<Request, String> {
    let (verb, mut rest) = token(line);
    if verb.is_empty() {
        return Err("empty request".to_string());
    }
    let is = |name: &str| verb.eq_ignore_ascii_case(name);
    let req = if is("HELLO") {
        let tenant = arg(verb, &mut rest, "tenant")?.to_string();
        let class_s = arg(verb, &mut rest, "class")?;
        let class = TenantClass::parse(class_s)
            .ok_or_else(|| format!("unknown class {class_s:?} (reader|writer|mixed)"))?;
        Request::Hello { tenant, class }
    } else if is("READ") {
        let addr = parse_usize(arg(verb, &mut rest, "addr")?)?;
        let len = parse_usize(arg(verb, &mut rest, "len")?)?;
        Request::Read { addr, len }
    } else if is("WRITE") {
        let addr = parse_usize(arg(verb, &mut rest, "addr")?)?;
        let data = match from_hex(rest.trim()) {
            // Whitespace is no hex digit: what decoded was one token,
            // and nothing trails it.
            Ok(data) if !data.is_empty() => {
                rest = "";
                data
            }
            _ => from_hex(arg(verb, &mut rest, "hex-payload")?)?,
        };
        Request::Write { addr, data }
    } else if is("FLUSH") {
        Request::Flush
    } else if is("STATS") {
        Request::Stats
    } else if is("QUIT") {
        Request::Quit
    } else if is("SHUTDOWN") {
        Request::Shutdown
    } else {
        let mut other = verb.to_string();
        other.make_ascii_uppercase();
        return Err(format!("unknown verb {other:?}"));
    };
    let (extra, _) = token(rest);
    if !extra.is_empty() {
        return Err(format!("{verb}: unexpected trailing argument {extra:?}"));
    }
    Ok(req)
}

fn parse_usize(s: &str) -> Result<usize, String> {
    s.parse().map_err(|_| format!("expected a non-negative integer, got {s:?}"))
}

/// Renders a [`ServiceError`] as the protocol's `ERR` line.
#[must_use]
pub fn err_line(e: &ServiceError) -> String {
    match e {
        ServiceError::Busy { queued } => format!("ERR busy: {queued} ops queued"),
        ServiceError::Throttled { wanted, available } => {
            format!("ERR throttled: cost {wanted} elements, bucket {available}")
        }
        ServiceError::Volume(v) => format!("ERR volume: {v}"),
        ServiceError::BadRequest(m) => format!("ERR bad-request: {m}"),
        ServiceError::Closed => "ERR closed: service shut down".to_string(),
    }
}

#[cfg(test)]
mod tests {
    use proptest::prelude::*;

    use super::*;

    /// The codec as it was before the kernels (one `char` per nibble),
    /// kept as the reference `to_hex` / `from_hex` are compared with.
    fn reference_to_hex(bytes: &[u8]) -> String {
        let mut s = String::with_capacity(bytes.len() * 2);
        for b in bytes {
            s.push(char::from_digit(u32::from(b >> 4), 16).expect("nibble"));
            s.push(char::from_digit(u32::from(b & 0xf), 16).expect("nibble"));
        }
        s
    }

    fn reference_from_hex(s: &str) -> Result<Vec<u8>, String> {
        if !s.len().is_multiple_of(2) {
            return Err(format!("hex payload has odd length {}", s.len()));
        }
        let digit = |c: char| c.to_digit(16).ok_or_else(|| format!("bad hex digit {c:?}"));
        let mut out = Vec::with_capacity(s.len() / 2);
        let mut chars = s.chars();
        while let (Some(hi), Some(lo)) = (chars.next(), chars.next()) {
            out.push(((digit(hi)? as u8) << 4) | digit(lo)? as u8);
        }
        Ok(out)
    }

    #[test]
    fn hex_roundtrip() {
        let bytes: Vec<u8> = (0..=255).collect();
        assert_eq!(from_hex(&to_hex(&bytes)).unwrap(), bytes);
        assert_eq!(from_hex("DEADbeef").unwrap(), vec![0xde, 0xad, 0xbe, 0xef]);
        assert!(from_hex("abc").is_err());
        assert!(from_hex("zz").is_err());
    }

    #[test]
    fn hex_matches_the_reference_codec_messages_included() {
        for len in (0..=130).chain([4093, 4096, 4099]) {
            let bytes: Vec<u8> = (0..len).map(|i| (i * 31 + len) as u8).collect();
            let text = to_hex(&bytes);
            assert_eq!(text, reference_to_hex(&bytes));
            assert_eq!(from_hex(&text), reference_from_hex(&text));
            assert_eq!(from_hex(&text.to_uppercase()), Ok(bytes));
        }
        let long = format!("{}g{}", "0".repeat(77), "1".repeat(78));
        for bad in ["0", "abc", "zz", "0g", "g0", "0 ", " 0", "+1", "0x", "00\u{e9}0", &long] {
            assert_eq!(from_hex(bad), reference_from_hex(bad), "{bad:?}");
        }
        // Where the two part: an unpaired trailing character is no
        // longer dropped in silence (the reference decodes this as [0]).
        assert_eq!(reference_from_hex("00\u{e9}"), Ok(vec![0]));
        assert_eq!(from_hex("00\u{e9}"), Err("bad hex digit '\u{e9}'".to_string()));
    }

    #[test]
    fn parses_every_verb() {
        assert_eq!(
            parse("HELLO t0 writer").unwrap(),
            Request::Hello { tenant: "t0".into(), class: TenantClass::Writer }
        );
        assert_eq!(parse("read 3 2").unwrap(), Request::Read { addr: 3, len: 2 });
        assert_eq!(parse("WRITE 7 00ff").unwrap(), Request::Write { addr: 7, data: vec![0, 255] });
        assert_eq!(parse("FLUSH").unwrap(), Request::Flush);
        assert_eq!(parse("STATS").unwrap(), Request::Stats);
        assert_eq!(parse("QUIT").unwrap(), Request::Quit);
        assert_eq!(parse("SHUTDOWN").unwrap(), Request::Shutdown);
    }

    #[test]
    fn separators_and_line_endings_are_any_whitespace() {
        let want = Request::Write { addr: 7, data: vec![0, 255] };
        for line in ["  WRITE 7 00ff", "write\t7\t00FF", "WRITE  7   00ff  ", "WRITE 7 00ff\r\n"] {
            assert_eq!(parse(line).as_ref(), Ok(&want), "{line:?}");
        }
        assert_eq!(parse("Quit\r"), Ok(Request::Quit));
    }

    #[test]
    fn rejects_malformed() {
        assert!(parse("").is_err());
        assert!(parse("HELLO t0 admin").is_err());
        assert!(parse("READ 1").is_err());
        assert!(parse("READ 1 2 3").is_err());
        assert!(parse("WRITE x 00").is_err());
        assert!(parse("NOPE").is_err());
    }

    /// The messages a client sees are the wire too: byte-identical to
    /// what the token-at-a-time parser produced.
    #[test]
    fn malformed_requests_keep_their_messages() {
        for (line, message) in [
            ("", "empty request"),
            ("   ", "empty request"),
            ("READ 1", "READ: missing <len>"),
            ("READ 1 2 3", "READ: unexpected trailing argument \"3\""),
            ("READ -1 2", "expected a non-negative integer, got \"-1\""),
            ("WRITE x 00", "expected a non-negative integer, got \"x\""),
            ("WRITE", "WRITE: missing <addr>"),
            ("WRITE 1", "WRITE: missing <hex-payload>"),
            ("write 1  ", "write: missing <hex-payload>"),
            ("WRITE 1 0", "hex payload has odd length 1"),
            ("WRITE 1 zz", "bad hex digit 'z'"),
            ("WRITE 1 0g 11", "bad hex digit 'g'"),
            ("WRITE 1 00 11", "WRITE: unexpected trailing argument \"11\""),
            ("WRITE 1 00 1", "WRITE: unexpected trailing argument \"1\""),
            ("WRITE 1 0 11", "hex payload has odd length 1"),
            ("HELLO t0", "HELLO: missing <class>"),
            ("HELLO t0 admin", "unknown class \"admin\" (reader|writer|mixed)"),
            ("FLUSH now", "FLUSH: unexpected trailing argument \"now\""),
            ("NOPE", "unknown verb \"NOPE\""),
            ("nope 1 2", "unknown verb \"NOPE\""),
        ] {
            assert_eq!(parse(line), Err(message.to_string()), "{line:?}");
        }
    }

    #[test]
    fn a_data_reply_is_appended_in_place() {
        let mut out = b"kept ".to_vec();
        push_data_reply(&mut out, &[0xde, 0xad, 0x00]);
        assert_eq!(out, b"kept OK data dead00");
    }

    #[test]
    fn a_frame_holds_the_largest_op_and_saturates() {
        assert_eq!(max_frame(32, 8), 64 + 512);
        assert_eq!(max_frame(usize::MAX, 4096), usize::MAX);
    }

    #[test]
    fn err_lines_are_single_line() {
        let e = ServiceError::Busy { queued: 9 };
        assert_eq!(err_line(&e), "ERR busy: 9 ops queued");
        assert!(!err_line(&ServiceError::BadRequest("x\ny".into())).starts_with("OK"));
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        #[test]
        fn a_write_line_parses_back_to_its_payload(
            addr in any::<usize>(),
            data in prop::collection::vec(any::<u8>(), 1..600),
            upper in any::<bool>(),
        ) {
            let hex = if upper { to_hex(&data).to_uppercase() } else { to_hex(&data) };
            prop_assert_eq!(parse(&format!("WRITE {addr} {hex}")), Ok(Request::Write { addr, data }));
        }

        /// Any printable-ASCII token in the payload position: accepted
        /// or refused exactly as the reference decoder would.
        #[test]
        fn any_ascii_payload_token_is_judged_like_the_reference(
            token in prop::collection::vec(0x21u8..0x7f, 1..80),
        ) {
            let token = String::from_utf8(token).unwrap();
            let want = reference_from_hex(&token).map(|data| Request::Write { addr: 9, data });
            prop_assert_eq!(parse(&format!("WRITE 9 {token}")), want);
        }
    }
}
