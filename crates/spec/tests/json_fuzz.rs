//! Seeded fuzzing of the one JSON codec: random `Json` trees survive
//! both emitters, and damaged documents make `parse` return, never
//! panic. A failing case prints its seed for replay.

use anomex_spec::json::{parse, MAX_DEPTH};
use anomex_spec::Json;
use anomex_stats::rng::{check_cases, Rng, StdRng};

const U64_EXTREMES: [u64; 4] = [0, 1, u64::MAX - 1, u64::MAX];

const F64_EDGES: [f64; 9] = [
    5e-324,
    f64::MIN_POSITIVE,
    f64::MAX,
    f64::MIN,
    -0.0,
    1e-5,
    1e16,
    0.1,
    -1.5e300,
];

/// Valid number tokens no `Json::num_*` constructor writes.
const NUMBER_TOKENS: [&str; 6] = [
    "-0",
    "1E+2",
    "-9223372036854775808",
    "1e-400",
    "0.5e-10",
    "123456789012345678901234567890",
];

/// Bytes an insertion mutation adds: JSON's structural characters and
/// the starts of its scalars.
const PUNCTUATION: &[u8] = b"{}[],:\"\\-+.eE0tfnu \n";

fn pick<T: Copy>(rng: &mut StdRng, items: &[T]) -> T {
    items[rng.gen_range(0..items.len())]
}

fn arbitrary_char(rng: &mut StdRng) -> char {
    let code = match rng.gen_range(0..7usize) {
        0 => rng.gen_range(0..0x20usize),
        1 => usize::from(pick(rng, &[b'"', b'\\', b'/', 0x7f])),
        2 => rng.gen_range(0x20..0x7fusize),
        3 => rng.gen_range(0x80..0xd800usize),
        4 => rng.gen_range(0xe000..=0xffffusize),
        _ => rng.gen_range(0x1_0000..=0x10_ffffusize),
    };
    u32::try_from(code)
        .ok()
        .and_then(char::from_u32)
        .expect("the ranges skip the surrogates")
}

fn arbitrary_string(rng: &mut StdRng) -> String {
    let len = rng.gen_range(0..12usize);
    (0..len).map(|_| arbitrary_char(rng)).collect()
}

fn arbitrary_number(rng: &mut StdRng) -> Json {
    match rng.gen_range(0..6usize) {
        0 => Json::num_u64(pick(rng, &U64_EXTREMES)),
        1 => Json::num_u64(rng.gen()),
        // Every bit pattern: subnormals, extremes, and NaN/inf as null.
        2 => Json::num_f64(f64::from_bits(rng.gen())),
        3 => Json::num_f64(rng.gen_range(-1e6..1e6)),
        4 => Json::num_f64(pick(rng, &F64_EDGES)),
        _ => Json::Num(pick(rng, &NUMBER_TOKENS).to_string()),
    }
}

/// A tree at most `levels` containers deep, up to four items wide.
fn arbitrary_json(rng: &mut StdRng, levels: usize) -> Json {
    let kinds = if levels == 0 { 4 } else { 6 };
    match rng.gen_range(0..kinds) {
        0 => Json::Null,
        1 => Json::Bool(rng.gen()),
        2 => arbitrary_number(rng),
        3 => Json::Str(arbitrary_string(rng)),
        4 => {
            let len = rng.gen_range(0..5usize);
            Json::Arr((0..len).map(|_| arbitrary_json(rng, levels - 1)).collect())
        }
        _ => {
            let len = rng.gen_range(0..5usize);
            Json::Obj(
                (0..len)
                    .map(|_| (arbitrary_string(rng), arbitrary_json(rng, levels - 1)))
                    .collect(),
            )
        }
    }
}

fn depth(value: &Json) -> usize {
    match value {
        Json::Arr(items) => 1 + items.iter().map(depth).max().unwrap_or(0),
        Json::Obj(fields) => 1 + fields.iter().map(|(_, v)| depth(v)).max().unwrap_or(0),
        _ => 0,
    }
}

/// A random tree; one in four sits at the bottom of a chain of
/// one-item containers, down to `MAX_DEPTH - 1` levels, the deepest
/// nesting `parse` accepts.
fn arbitrary_tree(rng: &mut StdRng) -> Json {
    let mut value = arbitrary_json(rng, 4);
    if rng.gen_range(0..4usize) == 0 {
        let extra = rng.gen_range(0..=MAX_DEPTH - 1 - depth(&value));
        for _ in 0..extra {
            value = if rng.gen() {
                Json::Arr(vec![value])
            } else {
                Json::Obj(vec![(arbitrary_string(rng), value)])
            };
        }
    }
    value
}

/// Truncates, flips one byte of, or inserts one punctuation byte into
/// `text`; bytes that stop being UTF-8 become U+FFFD, as a `&str` must
/// hold.
fn mutate(text: &str, rng: &mut StdRng) -> String {
    let mut bytes = text.as_bytes().to_vec();
    match rng.gen_range(0..3usize) {
        0 => bytes.truncate(rng.gen_range(0..bytes.len())),
        1 => {
            let at = rng.gen_range(0..bytes.len());
            bytes[at] ^= u8::try_from(rng.gen_range(1..256usize)).expect("below 256");
        }
        _ => {
            let at = rng.gen_range(0..=bytes.len());
            bytes.insert(at, pick(rng, PUNCTUATION));
        }
    }
    String::from_utf8_lossy(&bytes).into_owned()
}

#[test]
fn random_trees_round_trip_through_both_emitters() {
    check_cases(20_000, |rng| {
        let tree = arbitrary_tree(rng);
        assert!(depth(&tree) < MAX_DEPTH);
        let compact = tree.emit();
        assert_eq!(parse(&compact).as_ref(), Ok(&tree), "{compact}");
        let pretty = tree.emit_pretty();
        assert_eq!(parse(&pretty).as_ref(), Ok(&tree), "{pretty}");
    });
}

#[test]
fn damaged_documents_parse_or_fail_without_panicking() {
    check_cases(20_000, |rng| {
        let tree = arbitrary_tree(rng);
        let text = if rng.gen() {
            tree.emit()
        } else {
            tree.emit_pretty()
        };
        for _ in 0..8 {
            let damaged = mutate(&text, rng);
            // Whatever still parses is a tree like any other.
            if let Ok(value) = parse(&damaged) {
                assert_eq!(parse(&value.emit()), Ok(value), "{damaged:?}");
            }
        }
    });
}
