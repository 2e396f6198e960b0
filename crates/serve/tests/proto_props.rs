//! Property tests for the request parser: any line a client can send —
//! random bytes, token soup, or a valid request broken by truncation,
//! swapped brackets, deep nesting, huge numbers or `\u` escapes — is
//! answered with `Ok` or `Err` and never a panic, and a rejected line never
//! leaves decoded rows behind. Valid `repair`/`append` lines decode to
//! exactly the rows they carry.

// Test code: a panic is the failure report; fixture helpers sit outside
// any #[test] fn, so the clippy.toml test exemption does not reach them.
#![allow(clippy::unwrap_used, clippy::expect_used)]

use er_serve::{parse_request, Request, RowBatch};
use er_table::Value as Cell;
use proptest::prelude::*;
use serde_json::Value as Json;

const MAX_ROWS: usize = 64;

/// One valid line per op, plus a non-ASCII cell so truncation meets a
/// multi-byte character.
const VALID: [&str; 10] = [
    r#"{"op":"ping"}"#,
    r#"{"op":"stats"}"#,
    r#"{"op":"shutdown"}"#,
    r#"{"op":"versions"}"#,
    r#"{"op":"reload","scope":{"City":"HZ"}}"#,
    r#"{"op":"repair","rows":[["HZ",null,3,-2.5],["München","x",0,1e3]]}"#,
    r#"{"op":"append","rows":[["SZ","no symptoms"]]}"#,
    r#"{"op":"repair_csv","path":"in.csv","chunk_bytes":4096}"#,
    r#"{"op":"diff","rules":[{"lhs":[["City","City"]]}],"scope":[{"City":"HZ"}]}"#,
    r#"{"op":"repair","rows":[]}"#,
];

const HUGE_NUMBERS: [&str; 7] = [
    "1e999",
    "-1e999",
    "1e-999",
    "18446744073709551616",
    "-9223372036854775809",
    "123456789012345678901234567890",
    "0.00000000000000000000000000000000001",
];

const ESCAPES: [&str; 8] = [
    r"\u00e9",
    r"\uD800",
    r"\udc00",
    r"\uD83D\uDE00",
    r"\u0000",
    r"\u12",
    r"\uZZZZ",
    r"\",
];

/// Parse `line`: it must return (`Ok` or `Err`, never a panic), and a
/// rejection must leave no decoded rows behind.
fn assert_parses_safely(line: &str) {
    let mut batch = RowBatch::new();
    // Leftover rows from an earlier request must never survive a rejection.
    parse_request(
        r#"{"op":"repair","rows":[["a"],["b"]]}"#,
        MAX_ROWS,
        &mut batch,
    )
    .unwrap();
    let result = parse_request(line, MAX_ROWS, &mut batch);
    assert!(
        result.is_ok() || batch.is_empty(),
        "a rejected line left {} decoded rows: {line:?}",
        batch.len()
    );
}

/// The largest char boundary at or below `i`.
fn boundary(s: &str, i: usize) -> usize {
    let mut i = i.min(s.len());
    while !s.is_char_boundary(i) {
        i -= 1;
    }
    i
}

/// Break a valid line with mutation `kind` at position `pos`.
fn mutate(line: &str, kind: u8, pos: usize, param: usize) -> String {
    let at = boundary(line, pos % (line.len() + 1));
    match kind {
        0 => line[..at].to_string(),
        1 => {
            let mut k = 0usize;
            line.chars()
                .map(|c| {
                    let swapped = match c {
                        '[' => '{',
                        '{' => '[',
                        ']' => '}',
                        '}' => ']',
                        other => return other,
                    };
                    k += 1;
                    if (k + pos).is_multiple_of(2) {
                        swapped
                    } else {
                        c
                    }
                })
                .collect()
        }
        2 => {
            let depth = param % 400;
            match line.find("\"rows\":") {
                // Balanced nesting around the rows value.
                Some(i) => {
                    let open = i + "\"rows\":".len();
                    let close = line.len() - 1;
                    format!(
                        "{}{}{}{}{}",
                        &line[..open],
                        "[".repeat(depth),
                        &line[open..close],
                        "]".repeat(depth),
                        &line[close..]
                    )
                }
                None => format!("{}{}{}", &line[..at], "[".repeat(depth), &line[at..]),
            }
        }
        3 => {
            let number = HUGE_NUMBERS[param % HUGE_NUMBERS.len()];
            match line.find("null") {
                Some(i) => format!("{}{number}{}", &line[..i], &line[i + 4..]),
                None => format!("{}{number}{}", &line[..at], &line[at..]),
            }
        }
        _ => {
            let escape = ESCAPES[param % ESCAPES.len()];
            // Right after the first quote at or past `at`: inside a string.
            let i = line[at..].find('"').map_or(at, |q| at + q + 1);
            format!("{}{escape}{}", &line[..i], &line[i..])
        }
    }
}

/// A JSON cell a client may send: null, a string (quotes, backslashes,
/// control and non-ASCII characters included), an integer or a float.
fn json_cell() -> impl Strategy<Value = Json> {
    prop_oneof![
        Just(Json::Null),
        "[ -~\t\néß中😀]{0,12}".prop_map(Json::Str),
        any::<i64>().prop_map(Json::Int),
        (-1.0e9f64..1.0e9).prop_map(Json::Float),
    ]
}

/// The cell the parser must decode `cell` to.
fn expected_cell(cell: &Json) -> Cell {
    match cell {
        Json::Str(s) => Cell::str(s.as_str()),
        Json::Int(i) => Cell::int(*i),
        Json::Float(f) => Cell::float(*f),
        _ => Cell::Null,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(200))]

    #[test]
    fn arbitrary_bytes_never_panic(bytes in prop::collection::vec(any::<u8>(), 0..96)) {
        assert_parses_safely(&String::from_utf8_lossy(&bytes));
    }

    #[test]
    fn json_token_soup_never_panics(
        tokens in prop::collection::vec(
            prop::sample::select(vec![
                "[", "]", "{", "}", "\"", ":", ",", " ", "\\", "null", "true", "0", "-",
                "1e308", ".5", "\\u", "\"op\"", "\"repair\"", "\"append\"", "\"rows\"",
                "\"ping\"", "\"scope\"", "\"diff\"", "\"rules\"",
            ]),
            0..48,
        )
    ) {
        assert_parses_safely(&tokens.concat());
    }

    #[test]
    fn mutated_valid_lines_never_panic(
        which in 0usize..VALID.len(),
        kind in 0u8..5,
        pos in 0usize..256,
        param in 0usize..4096,
    ) {
        assert_parses_safely(&mutate(VALID[which], kind, pos, param));
    }

    #[test]
    fn valid_row_lines_decode_to_exactly_their_rows(
        rows in prop::collection::vec(prop::collection::vec(json_cell(), 0..6), 0..8),
        append in any::<bool>(),
    ) {
        let op = if append { "append" } else { "repair" };
        let line = serde_json::to_string(&Json::Object(vec![
            ("op".to_string(), Json::Str(op.to_string())),
            (
                "rows".to_string(),
                Json::Array(rows.iter().cloned().map(Json::Array).collect()),
            ),
        ]))
        .unwrap();
        let expected: Vec<Vec<Cell>> = rows
            .iter()
            .map(|row| row.iter().map(expected_cell).collect())
            .collect();
        let mut batch = RowBatch::new();
        let request = parse_request(&line, rows.len(), &mut batch).unwrap();
        prop_assert_eq!(
            request,
            if append { Request::Append } else { Request::Repair }
        );
        prop_assert_eq!(batch.rows(), expected.as_slice());
        // One row over the limit is refused, and leaves nothing decoded.
        if !rows.is_empty() {
            prop_assert!(parse_request(&line, rows.len() - 1, &mut batch).is_err());
            prop_assert!(batch.is_empty());
        }
    }
}
