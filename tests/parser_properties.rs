//! Property tests for the three parsers that read daemon input: the HTTP
//! request reader (`mlscale::serve::http::read_request`), the JSON parser
//! under the spec (`serde_json::value_from_str`) and the scenario walker
//! (`ScenarioSpec::from_json`). Each is fed arbitrary bytes and randomly
//! spliced copies of valid input. None may panic, and whatever one accepts
//! stays inside the limits it documents.

use mlscale::scenario::ScenarioSpec;
use mlscale::serve::http::{read_request, MAX_BODY_BYTES, MAX_HEADERS};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::Value;
use serde_json::MAX_DEPTH;
use std::io::BufReader;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::Path;
use std::sync::OnceLock;

/// Runs `parse` and turns a panic into a failure that prints the input,
/// so a crashing case can be copied into a regression test.
fn must_not_panic<T>(what: &str, input: &[u8], parse: impl FnOnce() -> T) -> T {
    catch_unwind(AssertUnwindSafe(parse)).unwrap_or_else(|_| {
        panic!(
            "{what} panicked on input {:?}",
            String::from_utf8_lossy(input)
        )
    })
}

/// A byte drawn mostly from `alphabet`, sometimes from the whole range.
fn pick_byte(rng: &mut StdRng, alphabet: &[u8]) -> u8 {
    if rng.gen_range(0..4) == 0 {
        rng.gen_range(0..=255u8)
    } else {
        alphabet[rng.gen_range(0..alphabet.len())]
    }
}

/// Numerals at and past the edges the parsers check: zero, signs,
/// fractions, exponents, the body limit and integer overflow.
const NUMERALS: &[&str] = &[
    "0",
    "1",
    "-1",
    "-0",
    "0.5",
    "2",
    "65",
    "1e308",
    "1e-320",
    "4294967296",
    "8388608",
    "8388609",
    "18446744073709551616",
];

/// Applies 1–4 random edits to `base`: overwrite a byte, insert a short
/// run, delete a range, copy a range of `base` elsewhere, replace a range
/// with a slice of `donor`, or swap the next digit run for one of
/// [`NUMERALS`]. The last keeps JSON well-formed, so the walker behind
/// the JSON parser sees edge-case values too.
fn splice(rng: &mut StdRng, base: &[u8], donor: &[u8], alphabet: &[u8]) -> Vec<u8> {
    let mut out = base.to_vec();
    for _ in 0..rng.gen_range(1..=4) {
        let at = rng.gen_range(0..=out.len());
        let span = rng.gen_range(0..=64usize).min(out.len() - at);
        match rng.gen_range(0..6) {
            0 if at < out.len() => out[at] = pick_byte(rng, alphabet),
            1 => {
                let run: Vec<u8> = (0..rng.gen_range(1..=8))
                    .map(|_| pick_byte(rng, alphabet))
                    .collect();
                out.splice(at..at, run);
            }
            2 => {
                out.drain(at..at + span);
            }
            3 => {
                let copy = out[at..at + span].to_vec();
                let to = rng.gen_range(0..=out.len());
                out.splice(to..to, copy);
            }
            5 => {
                let Some(start) = out[at..].iter().position(u8::is_ascii_digit) else {
                    continue;
                };
                let start = at + start;
                let end = out[start..]
                    .iter()
                    .position(|b| !b.is_ascii_digit())
                    .map_or(out.len(), |len| start + len);
                let numeral = NUMERALS[rng.gen_range(0..NUMERALS.len())];
                out.splice(start..end, numeral.bytes());
            }
            _ => {
                let from = rng.gen_range(0..=donor.len());
                let len = rng.gen_range(0..=64usize).min(donor.len() - from);
                out.splice(at..at + span, donor[from..from + len].iter().copied());
            }
        }
    }
    out
}

/// Reads requests from `bytes` as one keep-alive connection until the
/// stream ends or a request is refused, checking each accepted request
/// against the documented limits.
fn read_all(bytes: &[u8]) {
    let mut reader = BufReader::new(bytes);
    for _ in 0..8 {
        let next = must_not_panic("read_request", bytes, || read_request(&mut reader));
        let Ok(Some(request)) = next else { break };
        assert!(
            request.headers.len() <= MAX_HEADERS,
            "accepted {} headers from {:?}",
            request.headers.len(),
            String::from_utf8_lossy(bytes)
        );
        assert!(request.body.len() <= MAX_BODY_BYTES);
    }
}

const HTTP_ALPHABET: &[u8] = b"GETPOSTHTP/1.0 \r\n:Content-Length0123456789{}\"";

/// A well-formed request with `headers` filler headers ahead of its
/// `Content-Length`, followed by a second request on the same connection.
fn valid_request(headers: usize) -> Vec<u8> {
    let body = br#"{"name": "probe", "workload": {"kind": "gd"}}"#;
    let mut out = b"POST /sweep HTTP/1.1\r\nHost: localhost\r\n".to_vec();
    for i in 0..headers {
        out.extend_from_slice(format!("X-Filler-{i}: {i}\r\n").as_bytes());
    }
    out.extend_from_slice(format!("Content-Length: {}\r\n\r\n", body.len()).as_bytes());
    out.extend_from_slice(body);
    out.extend_from_slice(b"GET /health HTTP/1.1\r\nConnection: close\r\n\r\n");
    out
}

/// Every checked-in scenario document, in file-name order, read once.
fn scenario_documents() -> &'static [Vec<u8>] {
    static DOCS: OnceLock<Vec<Vec<u8>>> = OnceLock::new();
    DOCS.get_or_init(|| {
        let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("scenarios");
        let mut paths: Vec<_> = std::fs::read_dir(&dir)
            .expect("scenarios/ is readable")
            .map(|entry| entry.expect("directory entry").path())
            .filter(|path| path.extension().is_some_and(|ext| ext == "json"))
            .collect();
        paths.sort();
        assert!(!paths.is_empty(), "no scenario documents in {dir:?}");
        paths
            .iter()
            .map(|path| std::fs::read(path).expect("scenario is readable"))
            .collect()
    })
}

const JSON_ALPHABET: &[u8] = b"{}[]\",:-+.eE0123456789 \nabcdefghijklmnopqrstuvwxyz_";

/// Wraps `leaf` in `depth` levels, each an array or an object keyed `"k"`
/// at random, closed in order.
fn nest(rng: &mut StdRng, depth: usize, leaf: &[u8]) -> Vec<u8> {
    let objects: Vec<bool> = (0..depth).map(|_| rng.gen_range(0..2) == 0).collect();
    let mut doc = Vec::with_capacity(leaf.len() + 6 * depth);
    for &object in &objects {
        doc.extend_from_slice(if object { br#"{"k":"# } else { b"[" });
    }
    doc.extend_from_slice(leaf);
    doc.extend(
        objects
            .iter()
            .rev()
            .map(|&object| if object { b'}' } else { b']' }),
    );
    doc
}

/// How many arrays and objects enclose the deepest value in `v`.
fn depth_of(v: &Value) -> usize {
    match v {
        Value::Seq(items) => 1 + items.iter().map(depth_of).max().unwrap_or(0),
        Value::Map(entries) => 1 + entries.iter().map(|(_, v)| depth_of(v)).max().unwrap_or(0),
        _ => 0,
    }
}

/// Parses `bytes` as JSON: it must not panic or overflow the stack, and
/// nothing it accepts nests deeper than `MAX_DEPTH`.
fn parse_json(bytes: &[u8]) {
    let text = String::from_utf8_lossy(bytes);
    let parsed = must_not_panic("serde_json::value_from_str", bytes, || {
        serde_json::value_from_str(&text)
    });
    if let Ok(value) = parsed {
        assert!(depth_of(&value) <= MAX_DEPTH, "accepted {text:?}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(5000))]

    /// Arbitrary bytes never panic the request reader, and anything it
    /// accepts stays within the header and body limits.
    #[test]
    fn http_reader_survives_arbitrary_bytes(seed in 0u64..1_000_000, len in 0usize..600) {
        let mut rng = StdRng::seed_from_u64(seed);
        let bytes: Vec<u8> = (0..len).map(|_| pick_byte(&mut rng, HTTP_ALPHABET)).collect();
        read_all(&bytes);
    }

    /// Random splices of a valid keep-alive exchange, with up to twice
    /// `MAX_HEADERS` filler headers, never panic the request reader, and
    /// anything it accepts stays within the header and body limits.
    #[test]
    fn http_reader_survives_spliced_requests(
        seed in 0u64..1_000_000,
        headers in 0usize..(2 * MAX_HEADERS),
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let base = valid_request(headers);
        let donor = valid_request(1);
        read_all(&splice(&mut rng, &base, &donor, HTTP_ALPHABET));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(3000))]

    /// Arbitrary bytes inside up to 4096 levels of nesting never panic the
    /// JSON parser or overflow its stack.
    #[test]
    fn json_parser_survives_arbitrary_bytes(
        seed in 0u64..1_000_000,
        len in 0usize..600,
        depth in 0usize..=4096,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let leaf: Vec<u8> = (0..len).map(|_| pick_byte(&mut rng, JSON_ALPHABET)).collect();
        parse_json(&nest(&mut rng, depth, &leaf));
    }

    /// Random splices of the checked-in scenarios, crossed with each other
    /// and nested up to twice `MAX_DEPTH` levels deep, never panic the JSON
    /// parser, and it accepts none nested past `MAX_DEPTH`.
    #[test]
    fn json_parser_survives_spliced_scenarios(
        seed in 0u64..1_000_000,
        depth in 0usize..=(2 * MAX_DEPTH),
    ) {
        let docs = scenario_documents();
        let mut rng = StdRng::seed_from_u64(seed);
        let base = &docs[rng.gen_range(0..docs.len())];
        let donor = &docs[rng.gen_range(0..docs.len())];
        let leaf = splice(&mut rng, base, donor, JSON_ALPHABET);
        parse_json(&nest(&mut rng, depth, &leaf));
    }

    /// A closed document nested `depth` levels deep parses to exactly that
    /// depth when `depth` is at most `MAX_DEPTH`, and is refused by name
    /// past it.
    #[test]
    fn json_nesting_is_refused_past_max_depth(
        seed in 0u64..1_000_000,
        depth in 0usize..=4096,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let doc = nest(&mut rng, depth, b"0");
        let text = String::from_utf8(doc).expect("nesting is ASCII");
        match serde_json::value_from_str(&text) {
            Ok(value) => {
                prop_assert!(depth <= MAX_DEPTH, "accepted {depth} levels");
                prop_assert_eq!(depth_of(&value), depth);
            }
            Err(e) => {
                prop_assert!(depth > MAX_DEPTH, "refused {depth} levels: {e}");
                prop_assert!(e.to_string().contains("deeper than 128 levels"), "{e}");
            }
        }
    }

    /// Random splices of the checked-in scenarios, crossed with each
    /// other, never panic the spec walker, and `grid_len` never panics on
    /// a spec it accepts.
    #[test]
    fn spec_walker_survives_spliced_scenarios(seed in 0u64..1_000_000) {
        let docs = scenario_documents();
        let mut rng = StdRng::seed_from_u64(seed);
        let base = &docs[rng.gen_range(0..docs.len())];
        let donor = &docs[rng.gen_range(0..docs.len())];
        let bytes = splice(&mut rng, base, donor, JSON_ALPHABET);
        let text = String::from_utf8_lossy(&bytes);
        let parsed = must_not_panic("ScenarioSpec::from_json", &bytes, || {
            ScenarioSpec::from_json(&text)
        });
        if let Ok(spec) = parsed {
            let _ = must_not_panic("ScenarioSpec::grid_len", &bytes, || spec.grid_len());
        }
    }
}
