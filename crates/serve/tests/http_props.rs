//! Property tests of the HTTP request parser over arbitrary bytes and
//! over mutations of valid pipelined requests: it never panics, never
//! claims more bytes than it was given or a head or body over its caps,
//! and reads every strict prefix of a valid request as incomplete.

use melreq_serve::http::{parse_request, MAX_HEAD};
use proptest::prelude::*;

const MAX_BODY: usize = 256;

/// Bytes a request body is drawn from: ASCII, terminators included.
const BODY_BYTES: &[u8] = b"ab{}:\r\n ";

/// Fragments arbitrary "HTTP-ish" input is spliced from.
const TOKENS: [&str; 14] = [
    "GET ",
    "POST ",
    "/run",
    " HTTP/1.1",
    "\r\n",
    "\r\n\r\n",
    "Content-Length: ",
    "Connection: close",
    "Transfer-Encoding: chunked",
    "12",
    "+",
    "-1",
    ":",
    "\u{e9}",
];

/// Parse the front of `buf` and check what every complete parse must
/// satisfy; returns the bytes it consumed.
fn check(buf: &[u8]) -> Result<Option<usize>, String> {
    let Ok(Some((req, n))) = parse_request(buf, MAX_BODY) else { return Ok(None) };
    prop_assert!(n <= buf.len(), "consumed {} of {} bytes", n, buf.len());
    prop_assert!(req.body.len() <= MAX_BODY, "body of {} bytes", req.body.len());
    let head = n.checked_sub(4 + req.body.len());
    prop_assert!(head.is_some_and(|h| h <= MAX_HEAD), "head of {:?} bytes", head);
    Ok(Some(n))
}

/// Parse pipelined requests off the front of `buf` until one is
/// incomplete or malformed; returns the bytes consumed.
fn parse_all(buf: &[u8]) -> Result<usize, String> {
    let mut off = 0;
    while let Some(n) = check(&buf[off..])? {
        prop_assert!(n > 0, "a complete request consumed nothing");
        off += n;
    }
    Ok(off)
}

/// One valid request: a head padded by `pad` bytes of `X-Pad`, plus
/// `body`, optionally closing the connection.
fn request(method: u8, pad: usize, body: &[u8], close: bool) -> Vec<u8> {
    let method = ["GET", "POST", "PUT"][usize::from(method % 3)];
    let connection = if close { "Connection: close\r\n" } else { "" };
    let mut out = format!(
        "{method} /run HTTP/1.1\r\nX-Pad: {}\r\nContent-Length: {}\r\n{connection}\r\n",
        "x".repeat(pad),
        body.len()
    )
    .into_bytes();
    out.extend_from_slice(body);
    out
}

/// A request padded by `slack` bytes, or (`near_cap`) one whose head is
/// `MAX_HEAD + 4 - slack` bytes long: over the cap when `slack < 4`.
fn sized_request(method: u8, slack: usize, near_cap: bool, body: &[u8], close: bool) -> Vec<u8> {
    let pad = if near_cap {
        let bare = request(method, 0, body, close).len() - body.len() - 4;
        MAX_HEAD + 4 - bare - slack
    } else {
        slack
    };
    request(method, pad, body, close)
}

fn body_bytes(picks: &[u8]) -> Vec<u8> {
    picks.iter().map(|&p| BODY_BYTES[usize::from(p) % BODY_BYTES.len()]).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn arbitrary_bytes_never_break_the_parser(
        bytes in proptest::collection::vec(any::<u8>(), 0..600),
        tokens in proptest::collection::vec(0usize..TOKENS.len(), 0..40),
    ) {
        parse_all(&bytes)?;
        let spliced: String = tokens.iter().map(|&t| TOKENS[t]).collect();
        parse_all(spliced.as_bytes())?;
    }

    #[test]
    fn mutated_pipelines_never_break_the_parser(
        reqs in proptest::collection::vec(
            (any::<u8>(), 0usize..64, any::<bool>(),
             proptest::collection::vec(any::<u8>(), 0..MAX_BODY + 8), any::<bool>()),
            1..4,
        ),
        mutations in proptest::collection::vec((any::<usize>(), 0u8..4, any::<u8>()), 0..6),
    ) {
        let mut buf = Vec::new();
        for (method, slack, near_cap, body, close) in &reqs {
            buf.extend(sized_request(*method, *slack, *near_cap, &body_bytes(body), *close));
        }
        let within_caps = reqs.iter().all(|r| r.3.len() <= MAX_BODY && (!r.2 || r.1 >= 4));
        let consumed = parse_all(&buf)?;
        prop_assert!(!within_caps || consumed == buf.len(), "{} of {} bytes", consumed, buf.len());
        for (at, kind, byte) in mutations {
            let at = at % (buf.len() + 1);
            match kind {
                0 if at < buf.len() => buf[at] = byte,
                1 => buf.insert(at, byte),
                2 if at < buf.len() => drop(buf.remove(at)),
                _ => buf.truncate(at),
            }
        }
        parse_all(&buf)?;
    }

    #[test]
    fn every_strict_prefix_of_a_valid_request_is_incomplete(
        method in any::<u8>(),
        slack in 4usize..10,
        near_cap in any::<bool>(),
        body in proptest::collection::vec(any::<u8>(), 0..MAX_BODY + 1),
        close in any::<bool>(),
        stride in 37usize..211,
    ) {
        let body = body_bytes(&body);
        let buf = sized_request(method, slack, near_cap, &body, close);
        let (req, n) = parse_request(&buf, MAX_BODY)?.ok_or("a valid request is incomplete")?;
        prop_assert_eq!(n, buf.len());
        prop_assert_eq!(req.body.as_bytes(), &body[..]);
        prop_assert_eq!(req.close, close);
        // Every prefix near the head's end and the request's end, and a
        // strided sample of the rest (a near-cap head is 16 KiB long).
        let head_end = buf.len() - body.len();
        let near = |k: usize| k < 64 || k.abs_diff(head_end) <= 8 || buf.len() - k <= 8;
        for k in (0..buf.len()).filter(|&k| near(k) || k % stride == 0) {
            prop_assert_eq!(parse_request(&buf[..k], MAX_BODY), Ok(None), "prefix of {} bytes", k);
        }
    }
}
