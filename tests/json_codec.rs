//! The JSON codec (`hypersub_core::json`) against the repository's
//! pinned documents: each is a fixed point of parse→write, and no input
//! — random bytes, JSON token soup, truncations or single-byte mutations
//! of those files — makes `Json::parse` or `Report::from_json` panic.

use hypersub_core::json::Json;
use hypersub_core::report::Report;
use proptest::prelude::*;

const PINNED: [(&str, &str); 3] = [
    (
        "results/REPORT_hotpath_quick.json",
        include_str!("../results/REPORT_hotpath_quick.json"),
    ),
    (
        "results/SHOOTOUT_quick.json",
        include_str!("../results/SHOOTOUT_quick.json"),
    ),
    ("BENCH_hotpath.json", include_str!("../BENCH_hotpath.json")),
];

/// Both entry points return on `text`, and whatever they accept writes
/// back to a document that reads as the same value.
fn check(text: &str) {
    if let Ok(v) = Json::parse(text) {
        assert_eq!(Json::parse(&v.write()).as_ref(), Ok(&v), "{text:?}");
    }
    if let Ok(r) = Report::from_json(text) {
        assert_eq!(Report::from_json(&r.to_json()).as_ref(), Ok(&r), "{text:?}");
    }
}

#[test]
fn pinned_files_round_trip_byte_for_byte() {
    for (name, text) in PINNED {
        let v = Json::parse(text).unwrap_or_else(|e| panic!("{name}: {e}"));
        assert_eq!(v.write(), text, "{name}");
    }
    let report = Report::from_json(PINNED[0].1).unwrap();
    assert_eq!(report.digest, 0x420a_6a1e_f640_8bbe);
    assert_eq!(report.to_json(), PINNED[0].1);
}

#[test]
fn fixed_hostile_inputs_are_errors() {
    let deep_arrays = "[".repeat(200_000);
    let deep_objects = "{\"a\": ".repeat(200_000);
    for text in [
        "\"\\u000é\"",
        "{\"digest\": \"\\u000é\"}",
        &deep_arrays,
        &deep_objects,
    ] {
        assert!(Json::parse(text).is_err());
        assert!(Report::from_json(text).is_err());
    }
}

#[test]
fn every_truncation_of_a_pinned_file_is_rejected() {
    for (name, text) in PINNED {
        for cut in (0..text.len()).filter(|&i| text.is_char_boundary(i)) {
            let head = &text[..cut];
            // Cutting only the final newline leaves a whole document.
            let whole = head.trim_end() == text.trim_end();
            assert_eq!(Json::parse(head).is_ok(), whole, "{name} cut at {cut}");
            check(head);
        }
    }
}

/// Fragments that steer random input into every branch of the parser.
const TOKENS: [&str; 24] = [
    "{",
    "}",
    "[",
    "]",
    ",",
    ":",
    " ",
    "\"",
    "\\",
    "\\u",
    "\\ud83d",
    "\\ude00",
    "00e9",
    "é",
    "0",
    "7",
    "-",
    ".",
    "e+",
    "null",
    "true",
    "\"digest\": \"0x1\"",
    "\"nodes\": ",
    "\n",
];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn random_bytes_never_panic(bytes in prop::collection::vec(any::<u8>(), 0..256)) {
        check(&String::from_utf8_lossy(&bytes));
    }

    #[test]
    fn token_soup_never_panics(picks in prop::collection::vec(any::<u8>(), 0..64)) {
        let text: String = picks.iter().map(|&p| TOKENS[p as usize % TOKENS.len()]).collect();
        check(&text);
    }

    #[test]
    fn single_byte_mutations_never_panic(file in 0usize..3, at in any::<u64>(), byte in any::<u8>()) {
        let mut bytes = PINNED[file].1.as_bytes().to_vec();
        let i = (at % bytes.len() as u64) as usize;
        bytes[i] = byte;
        check(&String::from_utf8_lossy(&bytes));
    }
}
